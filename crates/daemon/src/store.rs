//! Pluggable persistence for completed runs.
//!
//! Every finished simulation produces one [`RunRecord`] — stats,
//! makespan, validation verdict, stall totals when traced, and the plan
//! hash that ties it back to its cache entry — appended to a
//! [`RunStore`]. The daemon ships two stores behind the trait:
//! [`MemStore`] (tests, ephemeral serving) and [`JsonlStore`] (one JSON
//! object per line; survives daemon restarts, greppable, trivially
//! ingestible). A SQLite store slots in behind the same trait when the
//! toolchain gains the dependency.

use overlap_sim::stats::RunStats;
use overlap_sim::trace::StallBreakdown;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One completed run, as persisted and as returned by `GET /v1/runs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Monotone id assigned by the daemon at completion time.
    pub run_id: u64,
    /// The session that produced this run.
    pub session: u64,
    /// FNV-1a hash of the plan-cache key — groups runs of the same
    /// lowered scenario across engines, faults, and daemon restarts.
    pub plan_hash: u64,
    /// Whether the plan came out of the cache (the run borrowed an
    /// already-lowered plan) or was lowered fresh for this run.
    pub cache_hit: bool,
    /// Engine label: `"event"`, the only engine the daemon runs.
    /// Free-form, so records written while the wire could pick another
    /// (`"stepped"`, `"sharded(2)"`, `"lockstep"`) still load.
    pub engine: String,
    /// Placement strategy label (see `Strategy::label`).
    pub strategy: String,
    /// Host graph name.
    pub host: String,
    /// Full engine statistics (makespan, slowdown, traffic, memory and
    /// fault counters).
    pub stats: RunStats,
    /// Did every database copy match the unit-delay reference?
    pub validated: bool,
    /// Number of mismatching copies (0 when `validated`).
    pub mismatches: u64,
    /// Stall-attribution totals when the run was traced.
    #[serde(default)]
    pub stalls: Option<StallBreakdown>,
}

/// Where completed runs go. Implementations must be safe to call from
/// many worker threads.
pub trait RunStore: Send + Sync {
    /// Persist one completed run.
    fn append(&self, record: &RunRecord) -> io::Result<()>;
    /// All persisted runs, oldest first (including runs persisted by
    /// previous daemon processes, for durable stores).
    fn load_all(&self) -> io::Result<Vec<RunRecord>>;
}

/// In-memory store: fast, gone when the daemon exits.
#[derive(Default)]
pub struct MemStore {
    records: Mutex<Vec<RunRecord>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RunStore for MemStore {
    fn append(&self, record: &RunRecord) -> io::Result<()> {
        crate::lock(&self.records).push(record.clone());
        Ok(())
    }

    fn load_all(&self) -> io::Result<Vec<RunRecord>> {
        Ok(crate::lock(&self.records).clone())
    }
}

/// JSON-lines store: one `RunRecord` object per line, appended and
/// flushed per run, re-read from disk on every query so records written
/// by earlier daemon processes stay visible.
///
/// A crash mid-append leaves a *torn tail*: a final line with no trailing
/// `\n` that does not parse. Queries skip it (noted on stderr) instead of
/// failing the whole history, and [`open`](Self::open) drops it so the
/// next append starts on a fresh line. A bad line anywhere else is still
/// an [`io::ErrorKind::InvalidData`] error.
pub struct JsonlStore {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

/// Split a store file into its `\n`-terminated lines and the unterminated
/// final line (empty unless the last append was cut short).
fn split_tail(bytes: &[u8]) -> (&[u8], &[u8]) {
    let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    bytes.split_at(cut)
}

/// Parse one stored line.
fn parse_line(line: &[u8]) -> Result<RunRecord, String> {
    let text = std::str::from_utf8(line.trim_ascii()).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

impl JsonlStore {
    /// Open (or create) the store at `path`, dropping a torn tail.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = std::fs::read(&path)?;
        let (lines, tail) = split_tail(&bytes);
        if !tail.trim_ascii().is_empty() {
            match parse_line(tail) {
                Ok(_) => file.write_all(b"\n")?,
                Err(e) => {
                    eprintln!(
                        "{}: dropping torn tail ({} bytes): {e}",
                        path.display(),
                        tail.len()
                    );
                    file.set_len(lines.len() as u64)?;
                }
            }
        }
        Ok(Self {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RunStore for JsonlStore {
    fn append(&self, record: &RunRecord) -> io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut w = crate::lock(&self.writer);
        writeln!(w, "{line}")?;
        w.flush()
    }

    fn load_all(&self) -> io::Result<Vec<RunRecord>> {
        // Take the writer lock so a concurrent append's line is either
        // fully flushed or not started.
        let _w = crate::lock(&self.writer);
        let bytes = std::fs::read(&self.path)?;
        let (lines, tail) = split_tail(&bytes);
        let mut out = Vec::new();
        for (i, line) in lines.split(|&b| b == b'\n').enumerate() {
            if line.trim_ascii().is_empty() {
                continue;
            }
            out.push(parse_line(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", self.path.display(), i + 1),
                )
            })?);
        }
        if !tail.trim_ascii().is_empty() {
            match parse_line(tail) {
                Ok(rec) => out.push(rec),
                Err(e) => eprintln!(
                    "{}: skipping torn tail ({} bytes): {e}",
                    self.path.display(),
                    tail.len()
                ),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(run_id: u64) -> RunRecord {
        RunRecord {
            run_id,
            session: 1,
            plan_hash: 0xfeed,
            cache_hit: run_id > 0,
            engine: "event".into(),
            strategy: "overlap(c=4)".into(),
            host: "array-4".into(),
            stats: RunStats::default(),
            validated: true,
            mismatches: 0,
            stalls: None,
        }
    }

    #[test]
    fn mem_store_round_trips() {
        let s = MemStore::new();
        s.append(&record(0)).unwrap();
        s.append(&record(1)).unwrap();
        let all = s.load_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], record(1));
    }

    #[test]
    fn jsonl_store_survives_reopen() {
        let path = std::env::temp_dir().join(format!(
            "overlap-daemon-store-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let s = JsonlStore::open(&path).unwrap();
            s.append(&record(0)).unwrap();
        }
        let s = JsonlStore::open(&path).unwrap();
        s.append(&record(1)).unwrap();
        let all = s.load_all().unwrap();
        assert_eq!(all.len(), 2, "records from the first open must persist");
        assert_eq!(all[0], record(0));
        assert_eq!(all[1], record(1));
        let _ = std::fs::remove_file(&path);
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "overlap-daemon-store-{name}-{}.jsonl",
            std::process::id()
        ))
    }

    /// An open store whose file is then overwritten with `contents`, as if
    /// another process had written (or torn) it.
    fn store_with(name: &str, contents: &str) -> (JsonlStore, PathBuf) {
        let path = temp_path(name);
        let store = JsonlStore::open(&path).unwrap();
        std::fs::write(&path, contents).unwrap();
        (store, path)
    }

    fn line(r: &RunRecord) -> String {
        serde_json::to_string(r).unwrap()
    }

    /// `record(0)` whole, then the first half of `record(1)` with no `\n`:
    /// what a crash in the middle of the second append leaves behind.
    fn torn_text() -> String {
        let torn = line(&record(1));
        format!("{}\n{}", line(&record(0)), &torn[..torn.len() / 2])
    }

    #[test]
    fn jsonl_store_skips_a_torn_tail() {
        let (s, path) = store_with("torn", &torn_text());
        assert_eq!(s.load_all().unwrap(), vec![record(0)]);
        // An unterminated tail that parses is a whole record, not torn.
        std::fs::write(&path, line(&record(0))).unwrap();
        assert_eq!(s.load_all().unwrap(), vec![record(0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_store_reopen_drops_a_torn_tail_before_appending() {
        let path = temp_path("reopen");
        std::fs::write(&path, torn_text()).unwrap();
        let s = JsonlStore::open(&path).unwrap();
        s.append(&record(2)).unwrap();
        assert_eq!(s.load_all().unwrap(), vec![record(0), record(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_store_rejects_a_bad_line_before_the_tail() {
        let whole = line(&record(0));
        for text in [
            // Corrupt first line, intact tail.
            format!("{{\"run_id\": 7\n{whole}\n"),
            // Corrupt *terminated* last line: not torn, just bad.
            format!("{whole}\n{{\"run_id\": 7\n"),
        ] {
            let (s, path) = store_with("bad", &text);
            let err = s.load_all().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn old_engine_labels_still_load() {
        // Run history written while the wire could pick the stepped
        // oracle or the since-removed sharded and lockstep engines.
        let mut olds = Vec::new();
        let mut text = String::new();
        for label in ["stepped", "sharded(2)", "lockstep"] {
            let mut old = record(olds.len() as u64);
            old.engine = label.into();
            text += &(line(&old) + "\n");
            assert!(text.contains(&format!("\"engine\":\"{label}\"")), "{text}");
            olds.push(old);
        }
        let (s, path) = store_with("legacy", &text);
        assert_eq!(s.load_all().unwrap(), olds);
        let _ = std::fs::remove_file(&path);
    }

    /// Traced runs stored before the tracer booked memory reloads carry
    /// no `stall_mem_reload` key, in their stats or their stall totals:
    /// they load with 0.
    #[test]
    fn stalls_without_the_reload_bucket_still_load() {
        let mut old = record(0);
        old.stalls = Some(StallBreakdown {
            compute_ticks: 5,
            stall_drained: 2,
            ..StallBreakdown::default()
        });
        old.stats.stalls = old.stalls;
        let text = line(&old).replace(",\"stall_mem_reload\":0", "");
        assert!(!text.contains("stall_mem_reload"), "{text}");
        assert!(text.contains("\"stall_drained\":2"), "{text}");
        let (s, path) = store_with("pre-reload", &(text + "\n"));
        assert_eq!(s.load_all().unwrap(), vec![old]);
        let _ = std::fs::remove_file(&path);
    }
}

//! The daemon as a child process, and the closed-loop client calls made
//! against it.

use crate::trace::Recorder;
use overlap_core::ScenarioSpec;
use overlap_daemon::{Client, Event, RunRecord};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a client long-poll waits for the next event (the daemon's cap).
const POLL_WAIT_MS: u64 = 30_000;

/// `overlap-cli`, found next to this executable. A test executable lives
/// one level further down, in `deps/`.
pub fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let candidates = [dir.join("overlap-cli"), dir.join("../overlap-cli")];
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| {
            format!(
                "overlap-cli not found next to {}; build it into the same target directory \
             (run.sh does: cargo build --release --bin overlap-cli)",
                exe.display()
            )
        })
}

/// A running `overlap-cli serve --addr 127.0.0.1:0 --workers 2` child.
pub struct DaemonProc {
    child: Option<Child>,
    /// Held open so the daemon's last stdout line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub client: Client,
}

impl DaemonProc {
    /// Spawn the daemon (with a JSONL store at `store`, if given) and wait
    /// until it prints its bound address.
    pub fn spawn(store: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(daemon_binary()?);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
        if let Some(path) = store {
            cmd.arg("--store").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn overlap-cli serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
            if matches!(read, Ok(0) | Err(_)) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("overlap-cli serve exited before listening".into());
            }
        };
        Ok(Self {
            child: Some(child),
            _stdout: stdout,
            client: Client::new(addr),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Ask the daemon to stop and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.client.shutdown().map_err(|e| format!("shutdown: {e}"));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not stop within 10 s".into());
                }
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Submit `spec` and long-poll its event stream until the run is done —
/// what `overlap-cli submit --wait` does. The root span `op` must already
/// be open on `rec`; it is closed here. Returns the persisted record and
/// the instant it was received.
pub fn submit_and_wait(
    client: &Client,
    spec: &ScenarioSpec,
    rec: &mut Recorder,
    op: u64,
) -> Result<(RunRecord, Instant, u64), String> {
    let result = submit_inner(client, spec, rec, op);
    let end = Instant::now();
    rec.end(end);
    result.map(|(record, polls)| (record, end, polls))
}

fn submit_inner(
    client: &Client,
    spec: &ScenarioSpec,
    rec: &mut Recorder,
    op: u64,
) -> Result<(RunRecord, u64), String> {
    let session = rec
        .time(op, "daemon.submit", || client.submit(spec))
        .map_err(|e| format!("submit: {e}"))?;
    let submitted = Instant::now();
    let mut started = None;
    let (mut since, mut polls) = (0, 0);
    loop {
        let resp = rec
            .time(op, "daemon.poll", || {
                client.events(session, since, POLL_WAIT_MS)
            })
            .map_err(|e| format!("events: {e}"))?;
        polls += 1;
        let now = Instant::now();
        for event in resp.events {
            match event {
                Event::Started { .. } => {
                    rec.phase(op, "daemon.queue_wait", submitted, now);
                    started = Some(now);
                }
                Event::Done { record } => {
                    rec.phase(op, "daemon.exec", started.unwrap_or(submitted), now);
                    return Ok((record, polls));
                }
                Event::Failed { error } => return Err(format!("run failed: {error}")),
                Event::Cancelled { .. } => return Err("run cancelled".into()),
                _ => {}
            }
        }
        since = resp.next;
    }
}

//! `overlap-cli` drives every guest through the one builder front door:
//! `--faults`, `--strategy`, `--trace` and `--trace-json` are honoured or
//! rejected with a typed error, whatever the guest's shape, and a flag a
//! subcommand does not take is a usage error, never silently dropped.

use overlap::TraceReport;
use std::process::{Command, Output};

/// Run the CLI with exactly `args`.
fn raw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_overlap-cli"))
        .args(args)
        .output()
        .expect("overlap-cli runs")
}

/// Run the CLI on a small 8-workstation line host.
fn cli(args: &[&str]) -> Output {
    raw(&[&["--host", "line:8", "--steps", "16"], args].concat())
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The guests the CLI can describe, one of each topology.
const GUESTS: [&str; 6] = [
    "line:16",
    "ring:16",
    "mesh:6x6",
    "torus:4x4",
    "mesh3:3x3x2",
    "btree:5",
];

/// Every guest runs, validated, on the event engine. The stepped oracle
/// on the same guests is `tests/engines.rs`'s business.
#[test]
fn every_guest_runs_validated() {
    for guest in GUESTS {
        let out = cli(&["--guest", guest]);
        let text = stdout(&out);
        assert!(out.status.success(), "{guest}: {}", stderr(&out));
        assert!(text.contains("validated: true"), "{guest}: {text}");
        assert!(!text.contains("engine]"), "{guest}: {text}");
    }
}

/// A flag a subcommand does not take, or a value flag with no value, is
/// a usage error (exit 2) that names the flag. Nothing runs: the typo'd
/// host is not replaced by the default one, and no daemon is contacted.
#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let cases: [(&[&str], &str); 8] = [
        (
            &["--hots", "line:4", "--guest", "line:8", "--steps", "4"],
            "--hots",
        ),
        (&["--guest", "line:8", "--steps"], "--steps"),
        (&["--trace-json"], "--trace-json"),
        (&["--engine", "stepped"], "--engine"),
        (&["fuzz", "--case", "3"], "--case"),
        (&["fuzz", "--cases"], "--cases"),
        (&["submit", "--hots", "line:8"], "--hots"),
        (&["runs", "--trace"], "--trace"),
    ];
    for (args, flag) in cases {
        let out = raw(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
    }
}

/// A local `--trace` runs with stall attribution and prints its summary.
#[test]
fn local_trace_prints_the_stall_line() {
    let out = cli(&["--trace"]);
    let text = stdout(&out);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("stalls   :"), "{text}");
    assert!(text.contains("validated: true"), "{text}");
    let plain = stdout(&cli(&[]));
    assert!(!plain.contains("stalls   :"), "{plain}");
}

/// The §1 lockstep baseline is printed beside every plain run and
/// omitted where its closed form does not apply; it is not an engine.
#[test]
fn lockstep_baseline_is_printed_only_where_defined() {
    for guest in GUESTS {
        for (faults, defined) in [(None, true), (Some("down:1:2:5:40"), false)] {
            let mut args = vec!["--guest", guest];
            if let Some(f) = faults {
                args.extend(["--faults", f]);
            }
            let out = cli(&args);
            let text = stdout(&out);
            assert!(out.status.success(), "{guest} {faults:?}: {}", stderr(&out));
            assert!(
                text.contains("validated: true"),
                "{guest} {faults:?}: {text}"
            );
            assert_eq!(
                text.contains("lockstep :"),
                defined,
                "{guest} {faults:?}: {text}"
            );
        }
    }
    // Lockstep is a line of the report, not something to select.
    let out = cli(&["--engine", "lockstep"]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(stderr(&out).contains("unknown flag '--engine'"));
}

#[test]
fn mesh_guest_writes_a_conserving_trace() {
    let path = std::env::temp_dir().join(format!("overlap-cli-trace-{}.json", std::process::id()));
    let out = cli(&[
        "--guest",
        "mesh:6x6",
        "--trace-json",
        path.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let report: TraceReport = serde_json::from_str(&json).expect("trace report JSON");
    assert!(!report.per_copy.is_empty());
    assert_eq!(
        report.totals.total(),
        report.makespan * report.per_copy.len() as u64,
        "stall categories must partition makespan × copies"
    );
    assert!(
        text.contains(&format!("(makespan {} /", report.makespan)),
        "{text}"
    );
    assert!(text.contains("stalls   :"), "{text}");
}

#[test]
fn grid_guest_under_a_line_strategy_is_a_typed_error() {
    let out = cli(&["--guest", "mesh:6x6", "--strategy", "halo:1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains(
            "strategy does not apply to this guest topology: line, ring and task-graph \
             guests accept every strategy; mesh, torus and 3-D mesh guests accept auto; \
             binary-tree guests accept auto or blocked"
        ),
        "{err}"
    );
}

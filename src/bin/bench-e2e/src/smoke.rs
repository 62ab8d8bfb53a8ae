//! Smoke test: every workload at `--smoke` size, untraced and traced,
//! against a real `overlap-cli serve` child.

use crate::json::{self, Json};
use crate::workload::{self, RunArgs, Workload, END_TO_END};
use crate::{result_json, verdict};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../..")
}

/// Build `overlap-cli` into this test's target directory (next to where
/// `daemon_binary` looks) once per test process.
fn build_daemon() {
    static BUILT: OnceLock<()> = OnceLock::new();
    BUILT.get_or_init(|| {
        let exe = std::env::current_exe().expect("current_exe");
        // <target>/<profile>/deps/<test exe>
        let target = exe
            .ancestors()
            .nth(3)
            .expect("test exe is inside a target directory");
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "--bin",
            "overlap-cli",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target);
        if !cfg!(debug_assertions) {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("run cargo");
        assert!(status.success(), "building overlap-cli failed");
    });
}

#[test]
fn every_workload_runs_validates_and_reports_every_metric() {
    build_daemon();
    let per_layer = workload::per_layer();
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
                smoke: true,
                spans_dir: None,
            };
            let r = workload::run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(r.correct, "{} trace={trace}: {:?}", w.name(), r.errors);
            assert_eq!(r.failed, 0, "{}: failed_frac must be 0", w.name());
            let expected: Vec<(String, &str)> = if trace {
                per_layer.clone()
            } else {
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            };
            let got: Vec<(String, &str)> =
                r.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
            assert_eq!(got, expected, "{} trace={trace}", w.name());

            let line = result_json(&r);
            let doc = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (name, unit) in &expected {
                let m = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .expect("metric present");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
            }
            if !trace {
                for (name, value, _) in &r.metrics {
                    assert!(
                        *value > 0.0,
                        "{}: end-to-end metric {name} must not be 0",
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    let layers: Vec<(String, String)> = workload::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.into()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<&str> = spec
        .get("workloads")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn verdicts_follow_the_bounds() {
    let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
    // 20% faster on every run: improved.
    assert_eq!(
        verdict(&parent, &[8.0, 8.1, 7.9, 8.0, 8.05], true, 0.1).0,
        "improved"
    );
    // 5% slower, inside a 10% bound: unchanged.
    assert_eq!(
        verdict(&parent, &[10.5, 10.6, 10.4, 10.5, 10.55], true, 0.1).0,
        "unchanged"
    );
    // 30% slower: worse.
    assert_eq!(
        verdict(&parent, &[13.0, 13.1, 12.9, 13.0, 13.05], true, 0.1).0,
        "worse"
    );
    // The parent's own spread exceeds the bound: unresolved.
    assert_eq!(
        verdict(
            &[5.0, 10.0, 15.0, 8.0, 12.0],
            &[13.0, 9.0, 11.0, 14.0, 7.0],
            true,
            0.1
        )
        .0,
        "unresolved"
    );
    // Higher-is-better metrics flip the sign.
    assert_eq!(
        verdict(&parent, &[13.0, 13.1, 12.9, 13.0, 13.05], false, 0.1).0,
        "improved"
    );
}

//! # overlap-bench
//!
//! The experiment harness that regenerates every result of the paper
//! (per-theorem "tables" — the paper is a theory extended abstract with no
//! experimental tables of its own, so each theorem's claimed bound is the
//! row we reproduce) and its figures as data.
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! [`Table`], and [`experiments::REGISTRY`] lists every table with its
//! `results/` file stem. The one binary, `exp_all`, runs the registry and
//! writes the files (its doc lists the commands). Everything runs at two
//! scales: [`Scale::Quick`] (seconds; its tables are the goldens under
//! `results/quick/` that the test suite checks) and [`Scale::Full`] (the
//! numbers in EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod experiments;
pub mod plot;
pub mod scale;
pub mod table;

pub use scale::Scale;
pub use table::Table;

/// The workspace root: `results/`, `BENCH_*.json` and the perf gate's
/// floor files live here.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

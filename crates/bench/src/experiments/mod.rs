//! All experiments, one module per paper result (each module's doc names
//! the theorem, section or figure it reproduces; DESIGN.md §4 is the
//! index), and [`REGISTRY`]: the one list of the `results/` tables they
//! compute.
//!
//! Experiments compute; they write no files. The `exp_all` driver runs
//! the registry (all of it, or the modules named on its command line)
//! and is the only code that writes `results/`, `results/INDEX.md` and
//! the `BENCH_*.json` files at the workspace root.

use crate::{Scale, Table};
use overlap_core::pipeline::{SimReport, Strategy};
use overlap_core::{Error, Simulation};
use overlap_model::{GuestSpec, ReferenceTrace};
use overlap_net::HostGraph;

/// Shared by the experiments: run a line/ring guest through the
/// [`Simulation`] builder, validating against a precomputed trace.
pub(crate) fn simulate_line_with_trace(
    guest: &GuestSpec,
    host: &HostGraph,
    strategy: Strategy,
    trace: &ReferenceTrace,
) -> Result<SimReport, Error> {
    Simulation::of(guest)
        .on(host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run_with_trace(trace))
}

pub mod e10_baselines;
pub mod e11_mesh_on_mesh;
pub mod e12_ablations;
pub mod e13_schedule;
pub mod e14_heterogeneous;
pub mod e15_tree;
pub mod e16_replan;
pub mod e17_adaptive2d;
pub mod e18_programs;
pub mod e1_overlap;
pub mod e2_efficient;
pub mod e3_uniform;
pub mod e4_combined;
pub mod e5_general;
pub mod e6_mesh;
pub mod e7_one_copy;
pub mod e8_two_copy;
pub mod e9_cliques;
pub mod engine_scale;
pub mod fault_tolerance;
pub mod figures;
pub mod plan_reuse;
pub mod stall_attribution;
pub mod task_graphs;

/// What one registry entry computes: a table, and for the five
/// experiments that publish one, the `BENCH_*.json` that goes with it.
pub struct Output {
    /// The table, written as `results/<stem>.md` and `.csv`.
    pub table: Table,
    /// `(file name, contents)` of a `BENCH_*.json` at the workspace
    /// root; `exp_all` writes it on full-scale runs only, and then says
    /// so at the end of the table's note.
    pub bench: Option<(&'static str, String)>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Self {
        Output { table, bench: None }
    }
}

/// One `results/` table: the module that owns it, its file stem, and the
/// function that computes it.
pub struct Entry {
    /// The experiment module; `exp_all MODULE` selects its tables.
    pub module: &'static str,
    /// File stem under `results/`.
    pub stem: &'static str,
    /// Computes the table at a scale.
    pub compute: fn(Scale) -> Output,
}

/// `entry!(module::function => "stem")`; a figure function takes no
/// scale, written `module::function()`.
macro_rules! entry {
    ($module:ident :: $f:ident => $stem:literal) => {
        Entry {
            module: stringify!($module),
            stem: $stem,
            compute: |scale| $module::$f(scale).into(),
        }
    };
    ($module:ident :: $f:ident () => $stem:literal) => {
        Entry {
            module: stringify!($module),
            stem: $stem,
            compute: |_| $module::$f().into(),
        }
    };
}

/// Every `results/` table, in the order the driver writes them and
/// `results/INDEX.md` lists them.
pub const REGISTRY: &[Entry] = &[
    entry!(e1_overlap::run_dave_sweep => "e1a_overlap_dave"),
    entry!(e1_overlap::run_dmax_stress => "e1b_overlap_dmax"),
    entry!(e2_efficient::run => "e2_efficient"),
    entry!(e3_uniform::run => "e3_uniform"),
    entry!(e4_combined::run => "e4_combined"),
    entry!(e5_general::run => "e5_general"),
    entry!(e6_mesh::run => "e6_mesh"),
    entry!(e6_mesh::run_higher => "e6b_higher_dim"),
    entry!(e7_one_copy::run => "e7_one_copy"),
    entry!(e8_two_copy::run => "e8_two_copy"),
    entry!(e9_cliques::run => "e9_cliques"),
    entry!(e10_baselines::run => "e10_baselines"),
    entry!(e11_mesh_on_mesh::run => "e11_mesh_on_mesh"),
    entry!(e12_ablations::run_halo_width => "e12a_halo_width"),
    entry!(e12_ablations::run_c_constant => "e12b_c_constant"),
    entry!(e12_ablations::run_bandwidth => "e12c_bandwidth"),
    entry!(e12_ablations::run_multicast => "e12d_multicast"),
    entry!(e12_ablations::run_jitter => "e12e_jitter"),
    entry!(e13_schedule::run => "e13_schedule"),
    entry!(e14_heterogeneous::run => "e14_heterogeneous"),
    entry!(e15_tree::run => "e15_tree"),
    entry!(e16_replan::run => "e16_replan"),
    entry!(e17_adaptive2d::run => "e17_adaptive2d"),
    entry!(e18_programs::run => "e18_programs"),
    entry!(engine_scale::run => "engine_scale"),
    entry!(plan_reuse::run => "plan_reuse"),
    entry!(fault_tolerance::run => "fault_tolerance"),
    entry!(stall_attribution::run => "stall_attribution"),
    entry!(task_graphs::run => "task_graphs"),
    entry!(figures::figure1() => "figure1"),
    entry!(figures::figure2() => "figure2"),
    entry!(figures::figure3() => "figure3"),
    entry!(figures::figure4() => "figure4"),
    entry!(figures::figure5() => "figure5"),
    entry!(figures::figure6() => "figure6"),
    entry!(figures::figure7() => "figure7"),
    entry!(figures::figure8() => "figure8"),
];

/// Wall time in seconds of each of `reps` calls of `f`.
pub(crate) fn time_samples<T>(reps: u32, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The fastest of a set of [`time_samples`].
pub(crate) fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn results_dir() -> std::path::PathBuf {
        crate::workspace_root().join("results")
    }

    #[test]
    fn registry_lists_each_results_table_once() {
        let stems: BTreeSet<&str> = REGISTRY.iter().map(|e| e.stem).collect();
        assert_eq!(stems.len(), REGISTRY.len(), "a stem is listed twice");
        assert_eq!(REGISTRY.len(), 37);
        let modules: BTreeSet<&str> = REGISTRY.iter().map(|e| e.module).collect();
        assert_eq!(modules.len(), 24);
        let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/")
            .filter_map(|f| {
                let name = f.expect("dir entry").file_name().into_string().ok()?;
                Some(name.strip_suffix(".md")?.to_string())
            })
            .filter(|stem| stem != "INDEX")
            .collect();
        let listed: BTreeSet<String> = stems.iter().map(|s| s.to_string()).collect();
        assert_eq!(committed, listed, "results/*.md and the registry disagree");
    }

    #[test]
    fn index_links_every_registry_table() {
        let index = std::fs::read_to_string(results_dir().join("INDEX.md")).expect("INDEX.md");
        let missing: Vec<&str> = REGISTRY
            .iter()
            .map(|e| e.stem)
            .filter(|stem| !index.contains(&format!("]({stem}.md)")))
            .collect();
        assert!(
            missing.is_empty(),
            "results/INDEX.md does not link {missing:?}"
        );
    }

    /// The quick-scale goldens: every deterministic table, recomputed in
    /// memory, must equal its file under `results/quick/` byte for byte.
    /// `engine_scale` and `plan_reuse` report wall-clock numbers and are
    /// not compared. After an intended change, regenerate with
    /// `cargo run --release --bin exp_all -- --quick`.
    #[test]
    fn quick_tables_match_their_goldens() {
        const WALL_CLOCK: [&str; 2] = ["engine_scale", "plan_reuse"];
        let dir = results_dir().join("quick");
        let mut differ = Vec::new();
        for e in REGISTRY.iter().filter(|e| !WALL_CLOCK.contains(&e.module)) {
            let table = (e.compute)(Scale::Quick).table;
            for (ext, text) in [("md", table.to_markdown()), ("csv", table.to_csv())] {
                let file = format!("{}.{ext}", e.stem);
                if std::fs::read_to_string(dir.join(&file)).ok() != Some(text) {
                    differ.push(file);
                }
            }
        }
        assert!(
            differ.is_empty(),
            "quick tables differ from results/quick/: {differ:?}"
        );
    }
}

//! TASKGRAPH — arbitrary task-graph guests across placement strategies
//! and memory budgets.
//!
//! The paper's guests are lines and meshes; the task-graph extension
//! runs arbitrary layered DAGs through the same engines. This experiment
//! asks the scheduling question that extension opens: once the guest is
//! an irregular DAG, does the paper's OVERLAP redundancy still beat a
//! plain blocked placement, and how does a deterministic work-stealing
//! placement compare — under both cheap and expensive links, and with
//! the per-processor copy budget (red-blue pebbling) squeezed?
//!
//! Grid: {layered-random, wavefront} guests × ≥2 latency regimes ×
//! ≥2 memory budgets × {work-stealing, OVERLAP, blocked}. Every run is
//! validated against the unit-delay reference before its numbers count.
//! Results land in the usual markdown table **and** in
//! `BENCH_taskgraph.json` at the workspace root.

use super::Output;
use crate::{Scale, Table};
use overlap_core::pipeline::Strategy;
use overlap_core::Simulation;
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::MemBudget;

/// A link-latency regime for the host array.
struct Regime {
    name: &'static str,
    delays: DelayModel,
}

/// Memory budgets swept: unbounded, then two finite copy caps with an
/// 8-tick reload charge (roomy rarely thrashes, tight always does).
const RELOAD_COST: u32 = 8;

fn budgets() -> [(&'static str, Option<MemBudget>); 3] {
    [
        ("unbounded", None),
        (
            "budget=4",
            Some(MemBudget {
                budget: 4,
                reload_cost: RELOAD_COST,
            }),
        ),
        (
            "budget=1",
            Some(MemBudget {
                budget: 1,
                reload_cost: RELOAD_COST,
            }),
        ),
    ]
}

fn regimes() -> [Regime; 2] {
    [
        Regime {
            name: "short",
            delays: DelayModel::uniform(1, 4),
        },
        // The paper's "particularly impressive" regime: cheap links with
        // periodic 256-tick spikes (d_max ≫ d_ave).
        Regime {
            name: "spiky",
            delays: DelayModel::Spike {
                base: 1,
                spike: 256,
                period: 8,
            },
        },
    ]
}

fn strategies() -> [Strategy; 3] {
    [
        Strategy::WorkStealing { chunk: 0 },
        Strategy::Overlap { c: 4.0 },
        Strategy::Blocked,
    ]
}

/// One measured cell of the grid.
pub struct CaseResult {
    /// Guest task-graph family.
    pub graph: &'static str,
    /// Latency regime name.
    pub regime: &'static str,
    /// Host average link delay.
    pub d_ave: f64,
    /// Memory-budget label.
    pub budget: &'static str,
    /// Strategy label (from the report).
    pub strategy: String,
    /// Simulated makespan in ticks.
    pub makespan: u64,
    /// Copies reloaded into fast memory after evictions.
    pub reloads: u64,
    /// Extra compute ticks charged for those reloads.
    pub reload_ticks: u64,
    /// The run matched the unit-delay reference bit for bit.
    pub validated: bool,
}

/// DAG guests in the work-efficient regime: ~4.5 lanes per processor
/// (Theorem 3's sizing, so redundancy buffers have real width), with the
/// half-block remainder making the blocked deques uneven — the only
/// situation where the offline work-stealing schedule can deviate from a
/// plain blocked placement.
fn guests(dbs: u32, layers: u32) -> Vec<(&'static str, GuestSpec)> {
    vec![
        (
            "layered-random",
            GuestSpec::dag(
                TaskGraph::layered_random(dbs, layers, 2, 3, 0xDA6),
                ProgramKind::KvWorkload,
                11,
            ),
        ),
        (
            "wavefront",
            GuestSpec::dag(
                TaskGraph::wavefront(dbs, layers),
                ProgramKind::StencilSum,
                7,
            ),
        ),
    ]
}

/// Run the full grid and return one row per (graph, regime, budget,
/// strategy) cell.
pub fn measure(scale: Scale) -> Vec<CaseResult> {
    let procs = scale.pick(16, 32);
    let layers = scale.pick(16, 48);
    let dbs = 4 * procs + procs / 2;
    let mut out = Vec::new();
    for (graph, guest) in guests(dbs, layers) {
        let trace = overlap_model::ReferenceRun::execute(&guest);
        for regime in regimes() {
            let host = linear_array(procs, regime.delays, 5);
            for (budget_name, mem) in budgets() {
                for strategy in strategies() {
                    let mut b = Simulation::of(&guest).on(&host).strategy(strategy);
                    if let Some(m) = mem {
                        b = b.memory_budget(m);
                    }
                    let report = b
                        .build()
                        .and_then(|s| s.run_with_trace(&trace))
                        .unwrap_or_else(|e| panic!("{graph}/{}/{budget_name}: {e}", regime.name));
                    out.push(CaseResult {
                        graph,
                        regime: regime.name,
                        d_ave: report.d_ave,
                        budget: budget_name,
                        strategy: report.strategy.clone(),
                        makespan: report.stats.makespan,
                        reloads: report.stats.mem.reloads,
                        reload_ticks: report.stats.mem.reload_ticks,
                        validated: report.validated,
                    });
                }
            }
        }
    }
    out
}

/// Render the grid as `BENCH_taskgraph.json` (hand-rolled; the bench
/// crate carries no JSON dependency).
pub fn to_json(results: &[CaseResult]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"task_graphs\",\n  \"comment\": \"work-stealing vs OVERLAP vs blocked on DAG guests; two latency regimes x three memory budgets; every run validated against the unit-delay reference\",\n  \"cases\": [\n",
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"graph\": \"{}\", \"regime\": \"{}\", \"d_ave\": {:.2}, \"budget\": \"{}\", \"strategy\": \"{}\", \"makespan\": {}, \"reloads\": {}, \"reload_ticks\": {}, \"validated\": {}}}{}\n",
            r.graph,
            r.regime,
            r.d_ave,
            r.budget,
            r.strategy,
            r.makespan,
            r.reloads,
            r.reload_ticks,
            r.validated,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The experiment: measure, and return the table and
/// `BENCH_taskgraph.json`.
pub fn run(scale: Scale) -> Output {
    let results = measure(scale);

    let mut t = Table::new(
        "TASKGRAPH · work-stealing vs OVERLAP vs blocked on DAG guests",
        &[
            "graph",
            "regime",
            "d_ave",
            "budget",
            "strategy",
            "makespan",
            "reloads",
            "reload ticks",
            "valid",
        ],
    );
    for r in &results {
        t.row(vec![
            r.graph.to_string(),
            r.regime.to_string(),
            format!("{:.1}", r.d_ave),
            r.budget.to_string(),
            r.strategy.clone(),
            r.makespan.to_string(),
            r.reloads.to_string(),
            r.reload_ticks.to_string(),
            r.validated.to_string(),
        ]);
    }
    t.note(
        "every run is validated bit-for-bit against the unit-delay reference before its \
         makespan counts; reload ticks are the pebbling cost of the copy budget (8 ticks \
         per reload). Work-stealing places whole slots, so its makespan is the offline \
         deterministic steal schedule's — compare within a column, not across budgets.",
    );
    Output {
        table: t,
        bench: Some(("BENCH_taskgraph.json", to_json(&results))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_strategies_regimes_and_budgets_and_validates() {
        let results = measure(Scale::Quick);
        // 2 graphs x 2 regimes x 3 budgets x 3 strategies.
        assert_eq!(results.len(), 36);
        assert!(
            results.iter().all(|r| r.validated),
            "a run failed validation"
        );
        assert!(results.iter().all(|r| r.makespan > 0));
        // The tight budget must actually thrash somewhere, and the
        // unbounded rows must never reload.
        assert!(results
            .iter()
            .filter(|r| r.budget == "budget=1")
            .any(|r| r.reloads > 0));
        assert!(results
            .iter()
            .filter(|r| r.budget == "unbounded")
            .all(|r| r.reloads == 0 && r.reload_ticks == 0));
        // Reload accounting is consistent.
        assert!(results
            .iter()
            .all(|r| r.reload_ticks == r.reloads * u64::from(RELOAD_COST)));
        // All three strategy families appear.
        for needle in ["work-stealing", "overlap", "blocked"] {
            assert!(
                results.iter().any(|r| r.strategy.contains(needle)),
                "missing strategy {needle}"
            );
        }
        let json = to_json(&results);
        assert_eq!(json.matches("{\"graph\"").count(), results.len());
        assert!(json.contains("\"reload_ticks\""));
    }
}

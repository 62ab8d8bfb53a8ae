//! ENGINE — calendar-queue engine throughput, each tier first checked
//! against the stepped oracle. Writes `BENCH_engine.json` at the
//! workspace root.
//! Usage: `cargo run --release --bin exp_engine_scale [--quick | --gate]`
//!
//! `--gate` runs the CI smoke perf gate instead of the sweep: one
//! mid-size tier plus a task-graph tier, failing (exit 1) if the event
//! engine regresses more than 30% below the checked-in floor in
//! `BENCH_engine_floor.json`, if the plan-reuse or delta-sweep speedups
//! fall below the ratio floors in `BENCH_plan_floor.json`, or if the
//! deterministic task-graph grid exceeds the makespan ceilings in
//! `BENCH_taskgraph_floor.json`.

use overlap_bench::experiments::engine_scale;
use overlap_bench::{save_table, Scale};

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        match engine_scale::gate() {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("perf gate FAILED: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    let t = engine_scale::run(Scale::from_args());
    println!("{}", save_table(&t, "engine_scale").expect("write results"));
}

//! The experiment driver: computes the tables that
//! `overlap_bench::experiments::REGISTRY` lists, and is the only code
//! that writes `results/`, its `INDEX.md` and the `BENCH_*.json` files.
//!
//! ```text
//! cargo run --release --bin exp_all -- [--quick] [MODULE...]
//! cargo run --release --bin exp_all -- --gate
//! ```
//!
//! With no module named, every table is computed; otherwise only the
//! named modules' tables (`exp_all e12_ablations` writes the five E12
//! tables). A full-scale run writes `results/<stem>.md` and `.csv` per
//! table and, for the five experiments that publish one, the
//! `BENCH_*.json` at the workspace root, ending that table's note with
//! "JSON copy written to BENCH_….json.". `--quick` writes under
//! `results/quick/` only, and no `BENCH_*.json` or `INDEX.md`. A
//! full-scale run of the whole registry also writes `results/INDEX.md`.
//! An unknown module exits 2 and lists the valid ones.
//!
//! `--gate` runs the CI perf gate (`experiments::engine_scale::gate`)
//! instead, and exits 1 if it fails.

use overlap_bench::experiments::{engine_scale, Entry, REGISTRY};
use overlap_bench::{workspace_root, Scale};
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let quick = args.iter().any(|a| a == "--quick");
    let modules: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--gate" && *a != "--quick")
        .collect();
    if let Some(m) = modules
        .iter()
        .find(|m| !REGISTRY.iter().any(|e| e.module == **m))
    {
        usage(&format!("unknown module {m}"));
    }
    if gate {
        if args.len() > 1 {
            usage("--gate takes no other argument");
        }
        match engine_scale::gate() {
            Ok(report) => println!("perf gate OK\n{report}"),
            Err(report) => {
                eprintln!("perf gate FAILED\n{report}");
                exit(1);
            }
        }
        return;
    }

    let scale = if quick { Scale::Quick } else { Scale::Full };
    let root = workspace_root();
    let dir = root.join(if quick { "results/quick" } else { "results" });
    std::fs::create_dir_all(&dir).expect("create the results directory");
    let mut titled = Vec::new();
    for entry in REGISTRY
        .iter()
        .filter(|e| modules.is_empty() || modules.contains(&e.module))
    {
        let mut out = (entry.compute)(scale);
        if let (Scale::Full, Some((file, json))) = (scale, &out.bench) {
            write(&root.join(file), json);
            let note = out
                .table
                .notes
                .last_mut()
                .expect("each JSON table has a note");
            note.push_str(&format!(" JSON copy written to {file}."));
        }
        let md = out.table.to_markdown();
        write(&dir.join(format!("{}.md", entry.stem)), &md);
        write(
            &dir.join(format!("{}.csv", entry.stem)),
            &out.table.to_csv(),
        );
        println!("{md}");
        titled.push((entry, out.table.title));
    }
    if modules.is_empty() && !quick {
        write(&dir.join("INDEX.md"), &index(&titled));
    }
}

/// Print what went wrong, the usage and the valid modules; exit 2.
fn usage(problem: &str) -> ! {
    let mut modules: Vec<&str> = REGISTRY.iter().map(|e| e.module).collect();
    modules.dedup();
    eprintln!(
        "exp_all: {problem}\nusage: exp_all [--quick] [MODULE...] | exp_all --gate\nmodules: {}",
        modules.join(" ")
    );
    exit(2);
}

fn write(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// `INDEX.md`: one link per table, by title; figures link their markdown
/// only.
fn index(titled: &[(&Entry, String)]) -> String {
    let mut out = String::from(
        "# results index\n\nRegenerate everything with `cargo run --release --bin exp_all`.\n\n",
    );
    for (entry, title) in titled {
        let stem = entry.stem;
        if entry.module == "figures" {
            out.push_str(&format!("- [{title}]({stem}.md)\n"));
        } else {
            out.push_str(&format!("- [{title}]({stem}.md) ([csv]({stem}.csv))\n"));
        }
    }
    out
}

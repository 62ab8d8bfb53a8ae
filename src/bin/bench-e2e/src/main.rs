//! `bench-e2e`: the end-to-end benchmark of the OVERLAP simulator.
//!
//! It measures what a user waits for — from a `ScenarioSpec` as JSON going
//! in to a validated result coming out — in-process and through a real
//! `overlap-cli serve` child over loopback HTTP, and splits that time over
//! the library's layers in a separate traced run. See README.md.
//!
//! ```text
//! bench-e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--spans DIR]
//! bench-e2e [--workload NAME] [--repeat K] [--trace 0|1] [--seed S] [--seconds T] [--out FILE]
//! bench-e2e --compare A.json[,A2.json...] B.json[,B2.json...] [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload` and no `--repeat`, one workload runs in this process
//! and the last stdout line is its result as one JSON object. Otherwise
//! each run is a fresh child process (so peak memory is per run): every
//! selected workload, untraced and traced unless `--trace` picks one, `K`
//! times each; medians and quartiles are printed and written to `--out`.

mod daemon;
mod gen;
mod inproc;
mod json;
#[cfg(test)]
mod smoke;
mod trace;
mod workload;

use json::{quote, Json};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use workload::{exe_dir, RunArgs, RunResult, Workload};

/// The seed used when `--seed` is not given. README.md names the held-out
/// seed a claimed gain must also hold on.
const DEFAULT_SEED: u64 = 1;
/// Load-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Default)]
struct Opts {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    repeat: Option<usize>,
    compare: Option<(String, String)>,
    bounds: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("bench-e2e: {msg}");
    eprintln!(
        "usage: bench-e2e [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--smoke]\n\
         \x20                [--spans DIR] [--repeat K] [--out FILE]\n\
         \x20      bench-e2e --compare A.json[,...] B.json[,...] [--bounds BENCHMARK.json]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                o.workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{v}'"))),
                );
            }
            "--seed" => o.seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                o.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                o.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--smoke" => o.smoke = true,
            "--spans" => o.spans = Some(value().into()),
            "--out" => o.out = Some(value().into()),
            "--repeat" => {
                o.repeat = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&k| k >= 1)
                        .unwrap_or_else(|| usage("bad --repeat")),
                )
            }
            "--compare" => {
                let a = value();
                o.compare = Some((a, value()));
            }
            "--bounds" => o.bounds = Some(value().into()),
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_opts(&args);
    if let Some((a, b)) = &o.compare {
        let bounds = o.bounds.clone().unwrap_or_else(|| "BENCHMARK.json".into());
        if let Err(e) = compare(a, b, &bounds) {
            eprintln!("bench-e2e: {e}");
            exit(2);
        }
        return;
    }
    match (o.workload, o.repeat) {
        (Some(workload), None) => exit(run_single(&o, workload)),
        _ => exit(orchestrate(&o)),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(o: &Opts, what: &str) -> String {
    format!(
        "# bench-e2e {what} seed={} seconds={} smoke={} host_cores={} commit={}",
        o.seed.unwrap_or(DEFAULT_SEED),
        o.seconds.unwrap_or(DEFAULT_SECONDS),
        o.smoke,
        host_cores(),
        commit()
    )
}

/// Run one workload in this process; print its metrics, then its result
/// as the last stdout line. Returns the exit code.
fn run_single(o: &Opts, workload: Workload) -> i32 {
    let args = RunArgs {
        workload,
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: o.trace.unwrap_or(false),
        smoke: o.smoke,
        spans_dir: o.spans.clone(),
    };
    println!(
        "{}",
        header(
            o,
            &format!(
                "workload={} trace={}",
                workload.name(),
                u8::from(args.trace)
            )
        )
    );
    let result = match workload::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-e2e: {}: {e}", workload.name());
            return 1;
        }
    };
    print_result(&result);
    println!("{}", result_json(&result));
    if result.mismatched {
        eprintln!("bench-e2e: daemon results differ from in-process runs");
        return 1;
    }
    0
}

fn print_result(r: &RunResult) {
    if !r.layers.is_empty() {
        println!(
            "{:<22} {:>8} {:>10} {:>10} {:>7}",
            "layer", "count", "p50_ms", "total_s", "share"
        );
        for span in workload::SPANS {
            if let Some(s) = r.layers.get(span) {
                println!(
                    "{span:<22} {:>8} {:>10.4} {:>10.4} {:>7.4}",
                    s.count, s.p50_ms, s.total_s, s.share
                );
            }
        }
    }
    for (name, value, unit) in &r.metrics {
        let in_table = workload::SPANS.iter().any(|s| {
            name.strip_prefix(s)
                .is_some_and(|rest| matches!(rest, ".count" | ".p50_ms" | ".total_s" | ".share"))
        });
        if in_table {
            continue;
        }
        println!("{name:<30} {value:>14.4} {unit}");
    }
    println!("stats_digest 0x{:016x}", r.digest);
    println!(
        "ops attempted {} failed {} failed_frac {:.4}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for e in &r.errors {
        eprintln!("  error: {e}");
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

/// All runs of one workload: metric values in first-seen order.
struct Series {
    workload: &'static str,
    correct: bool,
    failed: u64,
    digests: Vec<String>,
    metrics: Vec<(String, String, Vec<f64>)>,
}

impl Series {
    fn add(&mut self, name: &str, unit: &str, v: f64) {
        match self.metrics.iter_mut().find(|(n, ..)| n == name) {
            Some((.., values)) => values.push(v),
            None => self
                .metrics
                .push((name.to_string(), unit.to_string(), vec![v])),
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        let (.., values) = self.metrics.iter().find(|(n, ..)| n == name)?;
        Some(trace::quartiles(values).1)
    }
}

/// Run workloads as child processes, `--repeat` times each; print medians
/// and quartiles and write the results file. Returns the exit code.
fn orchestrate(o: &Opts) -> i32 {
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes = o.trace.map_or(vec![false, true], |t| vec![t]);
    let repeat = o.repeat.unwrap_or(1);
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let seconds = o.seconds.unwrap_or(DEFAULT_SECONDS);
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| exe_dir().join("bench-e2e-results").join("results.json"));
    let spans = o
        .spans
        .clone()
        .unwrap_or_else(|| out.parent().unwrap_or(Path::new(".")).to_path_buf());
    let exe = std::env::current_exe().expect("current_exe");
    println!("{}", header(o, &format!("repeat={repeat}")));
    let mut code = 0;
    let mut all = Vec::new();
    for w in workloads {
        let mut series = Series {
            workload: w.name(),
            correct: true,
            failed: 0,
            digests: Vec::new(),
            metrics: Vec::new(),
        };
        for &traced in &modes {
            for _ in 0..repeat {
                let mut cmd = Command::new(&exe);
                cmd.args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
                cmd.args(["--trace", if traced { "1" } else { "0" }]);
                if o.smoke {
                    cmd.arg("--smoke");
                }
                if traced {
                    cmd.arg("--spans").arg(&spans);
                }
                let output = match cmd.output() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("bench-e2e: cannot run {}: {e}", exe.display());
                        return 1;
                    }
                };
                let text = String::from_utf8_lossy(&output.stdout);
                print!("{text}");
                if !output.status.success() {
                    eprintln!("bench-e2e: {} exited with {}", w.name(), output.status);
                    code = 1;
                }
                let parsed = text.lines().last().and_then(|l| json::parse(l).ok());
                let Some(result) = parsed else {
                    series.correct = false;
                    code = 1;
                    continue;
                };
                series.correct &= result.get("correct") == Some(&Json::Bool(true));
                series.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                if let Some(d) = text.lines().find_map(|l| l.strip_prefix("stats_digest ")) {
                    series.digests.push(d.to_string());
                }
                for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        series.add(name, unit, v);
                    }
                }
            }
        }
        code = code.max(i32::from(!series.correct));
        all.push(series);
    }
    print_summary(&all, repeat, seed);
    let doc = results_json(&all, repeat, seed, seconds, o.smoke);
    match out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&out, doc))
    {
        Ok(()) => println!("results written to {}", out.display()),
        Err(e) => {
            eprintln!("bench-e2e: cannot write {}: {e}", out.display());
            code = 1;
        }
    }
    code
}

fn print_summary(all: &[Series], repeat: usize, seed: u64) {
    println!(
        "\n== summary: {repeat} run(s) per workload and mode, seed {seed}, host_cores {}",
        host_cores()
    );
    for s in all {
        let same = s.digests.windows(2).all(|w| w[0] == w[1]);
        println!(
            "-- {}  correct={} failed={}  stats_digest {} ({})",
            s.workload,
            s.correct,
            s.failed,
            s.digests.first().map_or("-", String::as_str),
            if same {
                "identical across runs"
            } else {
                "DIFFERS across runs"
            }
        );
        println!(
            "   {:<30} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "iqr%"
        );
        for (name, unit, values) in &s.metrics {
            let (q1, med, q3) = trace::quartiles(values);
            let iqr = if med == 0.0 {
                0.0
            } else {
                100.0 * (q3 - q1) / med.abs()
            };
            println!("   {name:<30} {med:>14.4} {q1:>14.4} {q3:>14.4} {iqr:>8.2}  {unit}");
        }
        if let (Some(traced), Some(plain)) =
            (s.median("trace.latency_p50_ms"), s.median("latency_p50_ms"))
        {
            println!(
                "   trace overhead (traced vs untraced latency_p50_ms): {:+.2}%",
                100.0 * (traced / plain - 1.0)
            );
        }
    }
}

fn results_json(all: &[Series], repeat: usize, seed: u64, seconds: f64, smoke: bool) -> String {
    let workloads: Vec<String> = all
        .iter()
        .map(|s| {
            let metrics: Vec<String> = s
                .metrics
                .iter()
                .map(|(name, unit, values)| {
                    let vs: Vec<String> = values.iter().map(|&v| num(v)).collect();
                    format!(
                        "{}:{{\"unit\":{},\"values\":[{}]}}",
                        quote(name),
                        quote(unit),
                        vs.join(",")
                    )
                })
                .collect();
            let digests: Vec<String> = s.digests.iter().map(|d| quote(d)).collect();
            format!(
                "{}:{{\"correct\":{},\"failed\":{},\"digests\":[{}],\"metrics\":{{{}}}}}",
                quote(s.workload),
                s.correct,
                s.failed,
                digests.join(","),
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"host_cores\":{},\"commit\":{},\"seed\":{seed},\"seconds\":{},\"repeat\":{repeat},\"smoke\":{smoke},\"workloads\":{{{}}}}}\n",
        host_cores(),
        quote(&commit()),
        num(seconds),
        workloads.join(",")
    )
}

/// Verdict on one (workload, metric) pair from two sets of runs `a`
/// (parent) and `b` (change). `gain` is the change of the median, signed
/// so that positive is better. Runs are not paired in a results file, so
/// "wins" counts every (parent run, change run) pairing.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (&'static str, f64) {
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let (a1, am, a3) = trace::quartiles(a);
    let (_, bm, _) = trace::quartiles(b);
    let gain = if am == 0.0 {
        0.0
    } else {
        sign * (bm - am) / am.abs()
    };
    let spread = if am == 0.0 {
        0.0
    } else {
        (a3 - a1).abs() / am.abs()
    };
    let pairs = (a.len() * b.len()).max(1) as f64;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| sign * (y - x) > 0.0))
        .filter(|&w| w)
        .count() as f64;
    let v = if wins / pairs >= 0.9 && gain > spread {
        "improved"
    } else if spread > bound && wins < pairs {
        "unresolved"
    } else if gain < -bound {
        "worse"
    } else {
        "unchanged"
    };
    (v, gain)
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Apply `BENCHMARK.json`'s bounds to two sides, each a comma-separated
/// list of results files whose runs are pooled (so alternating single runs
/// of parent and change can be compared), and print one row per
/// (workload, end-to-end metric).
fn compare(a: &str, b: &str, bounds: &Path) -> Result<(), String> {
    let load_side = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',').map(|p| load_json(Path::new(p))).collect()
    };
    let (ra, rb, spec) = (load_side(a)?, load_side(b)?, load_json(bounds)?);
    println!(
        "# compare A={a} ({}) B={b} ({})",
        commit_of(&ra[0]),
        commit_of(&rb[0])
    );
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "gain%", "bound%"
    );
    let values = |side: &[Json], workload: &str, name: &str| -> Vec<f64> {
        side.iter()
            .filter_map(|r| {
                r.get("workloads")?
                    .get(workload)?
                    .get("metrics")?
                    .get(name)?
                    .get("values")
            })
            .flat_map(Json::as_arr)
            .filter_map(Json::as_f64)
            .collect()
    };
    for (workload, _) in ra[0].get("workloads").map_or(&[][..], Json::as_obj) {
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                return Err(format!("{}: malformed end_to_end entry", bounds.display()));
            };
            let (va, vb) = (values(&ra, workload, name), values(&rb, workload, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (v, gain) = verdict(&va, &vb, better == "lower", bound);
            println!(
                "{workload:<16} {name:<20} {:>14.4} {:>14.4} {:>+9.2} {:>7.1}  {v}",
                trace::quartiles(&va).1,
                trace::quartiles(&vb).1,
                100.0 * gain,
                100.0 * bound
            );
        }
    }
    Ok(())
}

fn commit_of(results: &Json) -> &str {
    results.get("commit").and_then(Json::as_str).unwrap_or("?")
}

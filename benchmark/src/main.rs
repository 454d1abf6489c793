//! The benchmark of record for this repository: four workloads measured
//! from outside the program (see `benchmark/README.md`).
//!
//! Run through `benchmark/run.sh`, which builds the release `hdsd-serve`
//! from the root workspace first and passes its path in.

mod decompose;
mod gen;
mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod serve;
mod server;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER, SLOT_MEANING, WORKLOADS};

/// Everything a workload needs to know about the run.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Smoke-test sizes; results are not comparable with full runs.
    pub quick: bool,
    /// Threads for the parallel kernels: `min(nproc, 4)`.
    pub threads: usize,
    /// The release `hdsd-serve` of the root workspace.
    pub server_bin: PathBuf,
    /// Where run directories and trace files go (inside the build directory).
    pub out_dir: PathBuf,
}

struct Args {
    workloads: Vec<&'static str>,
    check_repeat: bool,
    repo_root: PathBuf,
    run: Run,
}

const USAGE: &str = "usage: hdsd-benchmark --server-bin PATH --out-dir DIR --repo-root DIR \
[--workload decompose|serve_point|serve_analytic|serve_churn|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--check-repeat]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        check_repeat: false,
        repo_root: PathBuf::new(),
        run: Run {
            seed: 7,
            seconds: 25.0,
            traced: false,
            quick: false,
            threads: nproc.min(4),
            server_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
        },
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                args.workloads = match WORKLOADS.iter().find(|w| **w == name) {
                    Some(w) => vec![w],
                    None if name == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload {name:?}\n{USAGE}")),
                };
            }
            "--seed" => args.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.run.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                seconds_given = true;
            }
            // `--trace` alone turns tracing on; `--trace 0|1` is the driver's form.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.run.traced = false;
                    i += 1;
                }
                Some("1") => {
                    args.run.traced = true;
                    i += 1;
                }
                _ => args.run.traced = true,
            },
            "--quick" => args.run.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--server-bin" => args.run.server_bin = value()?.into(),
            "--out-dir" => args.run.out_dir = value()?.into(),
            "--repo-root" => args.repo_root = value()?.into(),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if args.run.quick && !seconds_given {
        args.run.seconds = 5.0;
    }
    for (flag, path) in [
        ("--server-bin", &args.run.server_bin),
        ("--out-dir", &args.run.out_dir),
        ("--repo-root", &args.repo_root),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!("{flag} is required\n{USAGE}"));
        }
    }
    Ok(args)
}

fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "decompose" => decompose::run(run),
        "serve_point" => serve::point(run),
        "serve_analytic" => serve::analytic(run),
        "serve_churn" => serve::churn(run),
        other => unreachable!("workload {other} passed parse_args"),
    }
}

/// The human-readable report: every metric by name with unit and sample
/// count, then the notes (stamps, hashes, budgets).
fn print_report(name: &str, run: &Run, o: &Outcome) {
    println!("== {name}: ops_attempted={} ops_failed={}", o.attempted, o.failed);
    if let Some(why) = &o.invalid {
        println!("INVALID RUN: {why}");
    }
    let (_, slots) = SLOT_MEANING.iter().find(|(w, _)| *w == name).expect("a known workload");
    for m in &END_TO_END {
        if let Some(v) = o.end_to_end.get(m.name) {
            // `t1_ms`..`t4_ms` carry a different quantity on each workload.
            let slot = ["t1_ms", "t2_ms", "t3_ms", "t4_ms"]
                .iter()
                .position(|t| *t == m.name)
                .map_or(String::new(), |i| format!("  [= {}]", slots[i]));
            println!("  {:<10} {:>14.4} {:<3} n={}{slot}", m.name, v.value, m.unit, v.samples);
        }
    }
    for (issue_name, unit, v) in &o.named {
        println!("  {issue_name:<28} {:>14.4} {unit:<5} n={}", v.value, v.samples);
    }
    if run.traced {
        for &(layer, unit, _) in PER_LAYER {
            if let Some(v) = o.layers.get(layer) {
                println!("  {layer:<40} {:>16.4} {unit:<6} n={}", v.value, v.samples);
            }
        }
    }
    for note in &o.notes {
        println!("  # {note}");
    }
}

/// `--check-repeat`: two sets back to back; every end-to-end metric of the
/// second must sit within its bound of the first.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 1..=2 {
        println!("==== set {set} of 2");
        let mut outcomes = Vec::new();
        for w in &args.workloads {
            let o = run_workload(w, &args.run)?;
            print_report(w, &args.run, &o);
            outcomes.push(o);
        }
        sets.push(outcomes);
    }
    let mut ok = true;
    println!("==== repeatability (second set against first)");
    for (i, w) in args.workloads.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.correct() && b.correct();
        for m in &END_TO_END {
            let (x, y) = (a.end_to_end[m.name].value, b.end_to_end[m.name].value);
            let diff = (y - x) / x;
            let breach = diff.abs() > m.bound;
            ok &= !breach;
            println!(
                "  {w:<15} {:<8} {x:>12.4} {y:>12.4} {:<3} diff {:>+7.2}% bound {:>4.0}%{}",
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    server::install_signal_handlers();
    server::tighten_timer_slack();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "hdsd-benchmark: git={} rustc={:?} nproc={} T={} seed={} seconds={} trace={} quick={}",
        env("HDSD_BENCH_GIT_SHA"),
        env("HDSD_BENCH_RUSTC"),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.run.threads,
        args.run.seed,
        args.run.seconds,
        u8::from(args.run.traced),
        args.run.quick,
    );
    if args.run.quick {
        println!("QUICK sizes: a smoke test, not comparable with full runs");
    }
    let prepared =
        server::check_binary_fresh(&args.run.server_bin, &args.repo_root).and_then(|()| {
            std::fs::create_dir_all(&args.run.out_dir)
                .map_err(|e| format!("create {}: {e}", args.run.out_dir.display()))
        });
    if let Err(e) = prepared {
        eprintln!("hdsd-benchmark: {e}");
        return ExitCode::from(2);
    }
    if args.check_repeat {
        return match check_repeat(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("hdsd-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut results = Vec::new();
    for w in &args.workloads {
        match run_workload(w, &args.run) {
            Ok(o) => {
                print_report(w, &args.run, &o);
                results.push(o.result_json(args.run.traced));
            }
            Err(e) => {
                // No result line: the caller must not mistake a broken run
                // for a measurement.
                eprintln!("hdsd-benchmark: {w}: {e}");
                return ExitCode::from(if e.contains("interrupted") { 130 } else { 2 });
            }
        }
    }
    // Result objects last, one per workload run, so the final line of
    // stdout is the (last) workload's result.
    for line in results {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

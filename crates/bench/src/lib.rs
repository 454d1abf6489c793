#![warn(missing_docs)]
//! # hdsd-bench
//!
//! The reproduction harness: one subcommand of the `repro` binary per
//! table/figure of the paper (see `src/bin/repro.rs`). This library holds
//! the experiments and their shared plumbing: environment parsing,
//! wall-clock timing, and plain-text table rendering so every experiment
//! prints rows comparable to the paper's.

pub mod experiments;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Runtime knobs shared by all experiments.
#[derive(Clone, Debug)]
pub struct Env {
    /// Dataset scale factor (1.0 = default laptop scale).
    pub scale: f64,
    /// Maximum worker threads for parallel runs.
    pub threads: usize,
    /// Directory searched for original SNAP files before falling back to
    /// synthetic stand-ins.
    pub data_dir: PathBuf,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            scale: std::env::var("HDSD_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.25),
            threads: hdsd_parallel::default_threads(),
            data_dir: std::env::var("HDSD_DATA_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("data")),
        }
    }
}

impl Env {
    /// Parses `--scale X`, `--threads N`, `--data-dir D` from an argument
    /// list, returning the env and the remaining positional arguments, or
    /// an error naming the flag whose value is missing or malformed.
    pub fn from_args(args: &[String]) -> Result<(Env, Vec<String>), String> {
        let mut env = Env::default();
        let mut rest = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            if !matches!(flag, "--scale" | "--threads" | "--data-dir") {
                rest.push(arg.clone());
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag {
                "--scale" => {
                    env.scale =
                        value.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0).ok_or_else(
                            || format!("--scale wants a positive number, got {value:?}"),
                        )?;
                }
                "--threads" => {
                    env.threads = value.parse().ok().filter(|&t| t > 0).ok_or_else(|| {
                        format!("--threads wants a positive integer, got {value:?}")
                    })?;
                }
                _ => env.data_dir = PathBuf::from(value),
            }
        }
        Ok((env, rest))
    }

    /// Loads a dataset honoring the data dir and scale.
    pub fn load(&self, d: hdsd_datasets::Dataset) -> hdsd_graph::CsrGraph {
        d.load_or_generate(&self.data_dir, self.scale)
    }
}

/// Runs `f` once, returning its result and wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `reps` times, returning the last result and the minimum wall
/// time (minimum is the standard noise-robust point estimate).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps >= 1);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let (t, d) = time(&mut f);
        best = best.min(d);
        out = Some(t);
    }
    (out.unwrap(), best)
}

/// Milliseconds with two decimals, right-aligned to 10 chars.
pub fn ms(d: Duration) -> String {
    format!("{:>10.2}", d.as_secs_f64() * 1e3)
}

/// Human-formatted count (12.3K / 4.5M / 1.2B).
pub fn human(n: u64) -> String {
    let f = n as f64;
    if f >= 1e9 {
        format!("{:.1}B", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.1}M", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.1}K", f / 1e3)
    } else {
        format!("{n}")
    }
}

/// A fixed-width plain-text table writer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints the header row.
    pub fn new(headers: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|&(_, w)| w).collect();
        let mut line = String::new();
        for ((h, _), w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{:>width$}  ", h, width = w));
        }
        println!("{line}");
        println!("{}", "-".repeat(line.len().min(120)));
        Table { widths }
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:>width$}  ", c, width = w));
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parses_flags() {
        let args = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (env, rest) =
            Env::from_args(&args("--scale 0.5 f1a --threads 3 --data-dir /tmp/x extra")).unwrap();
        assert_eq!(env.scale, 0.5);
        assert_eq!(env.threads, 3);
        assert_eq!(env.data_dir, PathBuf::from("/tmp/x"));
        assert_eq!(rest, vec!["f1a".to_string(), "extra".to_string()]);

        // A malformed, out-of-range or missing value is an error naming
        // its flag, never a silent fallback to the default.
        for (bad, flag) in [
            ("--scale abc", "--scale"),
            ("--scale 0", "--scale"),
            ("--scale -1", "--scale"),
            ("--scale inf", "--scale"),
            ("--scale NaN", "--scale"),
            ("--threads x", "--threads"),
            ("--threads 0", "--threads"),
            ("f8 --threads", "--threads"),
            ("f8 --data-dir", "--data-dir"),
        ] {
            let err = Env::from_args(&args(bad)).unwrap_err();
            assert!(err.starts_with(flag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(12), "12");
        assert_eq!(human(1_200), "1.2K");
        assert_eq!(human(3_400_000), "3.4M");
        assert_eq!(human(9_900_000_000), "9.9B");
    }

    #[test]
    fn time_best_runs_reps() {
        let mut count = 0;
        let (v, d) = time_best(3, || {
            count += 1;
            count
        });
        assert_eq!(v, 3);
        assert!(d <= Duration::from_secs(1));
    }
}

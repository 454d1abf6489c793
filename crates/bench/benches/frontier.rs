//! Frontier-scheduling and container-cache ablation.
//!
//! Runs And on a generated power-law graph with a long convergence tail and
//! compares, per clique space:
//!
//! * **scheduling**: `Frontier` (explicit worklist) vs `FlagScan` (full
//!   permutation walk + wake flags) vs `FullScan` (no notification) —
//!   recomputation counts come from `SchedulerStats`, so the numbers are
//!   exact, not sampled;
//! * **memory layout**: flat container cache vs the callback walk;
//! * **parallel**: the chunked flag scan with dynamic hand-out (with more
//!   than one thread `Frontier` and `FlagScan` are the same run, so one
//!   row stands for both).
//!
//! Everything is written to `BENCH_frontier.json` at the workspace root
//! (one self-contained JSON document, no dependencies) so the perf
//! trajectory is trackable across PRs. The run also *verifies* the two
//! headline claims: every configuration reproduces the peeling ground
//! truth exactly, and frontier scheduling performs at least 2× fewer
//! r-clique recomputations than the full-scan baseline.
//!
//! Run with: `cargo bench --bench frontier` (append `-- --quick` for a
//! smaller graph when smoke-testing).

use std::fmt::Write as _;
use std::time::Instant;

use hdsd_nucleus::{
    and, peel, CliqueSpace, CoreSpace, FlatContainers, LocalConfig, Order, SweepMode, TrussSpace,
    DEFAULT_CONTAINER_CACHE_BUDGET,
};
use hdsd_parallel::Policy;

struct RunRecord {
    space: String,
    mode: &'static str,
    cache: &'static str,
    threads: usize,
    policy: &'static str,
    sweeps: usize,
    converged: bool,
    processed: u64,
    skipped: u64,
    total_chunks: usize,
    wall_ms: f64,
    kappa_exact: bool,
}

fn mode_name(mode: SweepMode) -> &'static str {
    match mode {
        SweepMode::Frontier => "frontier",
        SweepMode::FlagScan => "flag_scan",
        SweepMode::FullScan => "full_scan",
    }
}

fn run_one<S: CliqueSpace>(
    space: &S,
    exact: &[u32],
    mode: SweepMode,
    cache: bool,
    threads: usize,
    policy: Policy,
) -> RunRecord {
    let mut cfg =
        if threads <= 1 { LocalConfig::sequential() } else { LocalConfig::with_threads(threads) }
            .sweep_mode(mode);
    cfg.parallel = cfg.parallel.policy(policy);
    if !cache {
        cfg = cfg.without_container_cache();
    }
    // Report what the sweep will actually use: spaces whose layout is
    // already flat (e.g. the core space) opt out of the cache regardless
    // of budget, so "flat" would be a lie for them.
    let cache_active = cache
        && space.prefers_flat_cache()
        && FlatContainers::estimate_bytes(space) <= DEFAULT_CONTAINER_CACHE_BUDGET;
    let start = Instant::now();
    let r = and(space, &cfg, &Order::Natural);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    RunRecord {
        space: space.name(),
        mode: mode_name(mode),
        cache: if cache_active { "flat" } else { "walk" },
        threads,
        policy: match policy {
            _ if threads <= 1 => "sequential",
            Policy::Dynamic => "dynamic",
            Policy::Static => "static",
        },
        sweeps: r.sweeps,
        converged: r.converged,
        processed: r.scheduler.items_processed,
        skipped: r.scheduler.items_skipped,
        total_chunks: r.scheduler.total_chunks(),
        wall_ms,
        kappa_exact: r.tau == exact,
    }
}

fn bench_space<S: CliqueSpace>(space: &S, records: &mut Vec<RunRecord>) {
    let exact = peel(space).kappa;
    // Scheduling ablation (sequential, cached where the space allows it).
    for mode in [SweepMode::Frontier, SweepMode::FlagScan, SweepMode::FullScan] {
        records.push(run_one(space, &exact, mode, true, 1, Policy::Dynamic));
    }
    // Cache ablation (frontier, sequential, no cache).
    records.push(run_one(space, &exact, SweepMode::Frontier, false, 1, Policy::Dynamic));
    // Parallel: the chunked flag scan, dynamic hand-out.
    let threads = hdsd_parallel::default_threads().clamp(2, 8);
    records.push(run_one(space, &exact, SweepMode::Frontier, true, threads, Policy::Dynamic));
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Holme–Kim: preferential attachment with triad closure — a power-law
    // graph whose dense core keeps updating long after the sparse fringe
    // has converged, i.e. exactly the long-tail workload the frontier
    // scheduler targets. ~4 edges per vertex.
    let (n, m_attach, p_triad, seed) =
        if quick { (4_000u32, 4u32, 0.5, 42u64) } else { (30_000, 4, 0.5, 42) };
    let g = hdsd_datasets::holme_kim(n, m_attach, p_triad, seed);
    eprintln!(
        "frontier ablation: holme_kim(n={n}, m={m_attach}, p={p_triad}, seed={seed}) -> {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    if !quick {
        assert!(g.num_edges() >= 100_000, "ablation graph must have >= 100k edges");
    }

    let mut records = Vec::new();
    bench_space(&CoreSpace::new(&g), &mut records);
    bench_space(&TrussSpace::precomputed(&g), &mut records);

    // Headline verification: identical κ everywhere, and frontier does at
    // least 2× fewer recomputations than the no-notification full scan.
    for r in &records {
        assert!(r.kappa_exact, "{} [{} {}] diverged from peeling", r.space, r.mode, r.cache);
        assert!(r.converged, "{} [{} {}] did not converge", r.space, r.mode, r.cache);
    }
    let mut comparisons = Vec::new();
    for space in ["(1,2) k-core", "(2,3) k-truss"] {
        // First matching record per mode = the sequential scheduling-
        // ablation run (the cache-ablation rerun comes later).
        let of = |mode: &str| {
            records
                .iter()
                .find(|r| r.space.contains(space) && r.mode == mode && r.threads == 1)
                .unwrap_or_else(|| panic!("missing {space}/{mode} record"))
        };
        let frontier = of("frontier");
        let full = of("full_scan");
        let ratio = full.processed as f64 / frontier.processed.max(1) as f64;
        eprintln!(
            "{space}: frontier {} recomputations vs full-scan {} ({ratio:.2}x fewer), {:.1} ms vs {:.1} ms",
            frontier.processed, full.processed, frontier.wall_ms, full.wall_ms
        );
        assert!(
            ratio >= 2.0,
            "{space}: frontier must do >=2x fewer recomputations (got {ratio:.2}x)"
        );
        comparisons.push((space, frontier.processed, full.processed, ratio));
    }

    // Emit the JSON document.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&hdsd_bench::stamp_json(quick));
    let _ = writeln!(out, "  \"bench\": \"frontier\",");
    let _ = writeln!(
        out,
        "  \"graph\": {{\"generator\": \"holme_kim\", \"n\": {n}, \"m_attach\": {m_attach}, \
         \"p_triad\": {p_triad}, \"seed\": {seed}, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    );
    out.push_str("  \"runs\": [\n");
    for (k, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"mode\": \"{}\", \"cache\": \"{}\", \"threads\": {}, \
             \"policy\": \"{}\", \"sweeps\": {}, \"converged\": {}, \"processed\": {}, \
             \"skipped\": {}, \"chunks\": {}, \"wall_ms\": {:.3}, \"kappa_exact\": {}}}{}",
            json_escape(&r.space),
            r.mode,
            r.cache,
            r.threads,
            r.policy,
            r.sweeps,
            r.converged,
            r.processed,
            r.skipped,
            r.total_chunks,
            r.wall_ms,
            r.kappa_exact,
            if k + 1 < records.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"frontier_vs_full_scan\": [\n");
    for (k, (space, fp, xp, ratio)) in comparisons.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"frontier_processed\": {fp}, \"full_scan_processed\": {xp}, \
             \"ratio\": {ratio:.3}}}{}",
            json_escape(space),
            if k + 1 < comparisons.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");

    // Quick mode is a smoke test; only full-size runs may overwrite the
    // tracked trend artifact.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_frontier.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json")
    };
    std::fs::write(path, &out).expect("write frontier ablation JSON");
    eprintln!("wrote {path}");
}

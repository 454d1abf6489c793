//! `decompose`: the paper's own product, in-process, with no service code
//! on the path — time to exact κ, local convergence, the parallel
//! kernels, and the hierarchy, over a graph larger than a core's cache.

use std::time::Instant;

use hdsd_graph::{CsrGraph, K4List, TriangleList};
use hdsd_hindex::HBuffer;
use hdsd_nucleus::{
    and, build_hierarchy, peel, peel_parallel, snd, CachedSpace, CliqueSpace, CoreSpace,
    LocalConfig, Nucleus34Space, Order, TrussSpace,
};
use hdsd_parallel::ParallelConfig;

use crate::gen::SPACE_KEYS;
use crate::metrics::Outcome;
use crate::server::{check_interrupted, peak_rss_mb};
use crate::stats::median;
use crate::trace::Trace;
use crate::Run;

/// Per-repetition samples, one vector per reported quantity.
#[derive(Default)]
struct Samples {
    exact: Vec<f64>,
    local: Vec<f64>,
    snd: Vec<f64>,
    par: Vec<f64>,
    hierarchy: Vec<f64>,
    /// Whole repetition, split by whether its spans were recorded.
    rep_traced: Vec<f64>,
    rep_untraced: Vec<f64>,
    space: [Vec<f64>; 4],
    peel: [Vec<f64>; 3],
    and: [Vec<f64>; 3],
    hier: [Vec<f64>; 3],
    par_peel: Vec<f64>,
    par_and: Vec<f64>,
}

/// Sweeps of the timed Snd stage: fewer than any seed needs to converge.
const SND_SWEEPS: usize = 8;

const PEEL_NAMES: [&str; 3] =
    ["nucleus.peel.core_ms", "nucleus.peel.truss_ms", "nucleus.peel.n34_ms"];
const AND_NAMES: [&str; 3] = ["nucleus.and.core_ms", "nucleus.and.truss_ms", "nucleus.and.n34_ms"];
const HIER_NAMES: [&str; 3] =
    ["nucleus.hierarchy.core_ms", "nucleus.hierarchy.truss_ms", "nucleus.hierarchy.n34_ms"];
const SPACE_NAMES: [&str; 4] = [
    "nucleus.space.truss_ms",
    "nucleus.space.cached_truss_ms",
    "nucleus.space.n34_ms",
    "nucleus.space.cached_n34_ms",
];
// Span names must be `'static`; one per (stage, space).
const PEEL_SPANS: [&str; 3] = ["nucleus.peel.core", "nucleus.peel.truss", "nucleus.peel.n34"];
const AND_SPANS: [&str; 3] = ["nucleus.and.core", "nucleus.and.truss", "nucleus.and.n34"];
const HIER_SPANS: [&str; 3] =
    ["nucleus.hierarchy.core", "nucleus.hierarchy.truss", "nucleus.hierarchy.n34"];

fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? << 10,
            None => size.strip_suffix('M')?.parse::<u64>().ok()? << 20,
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// One repetition of the whole pipeline. Returns the number of oracle
/// comparisons made.
fn repetition(
    g: &CsrGraph,
    run: &Run,
    rep: u64,
    trace: &mut Trace,
    s: &mut Samples,
    o: &mut Outcome,
) -> u64 {
    let ms = |secs: f64| secs * 1e3;
    let root = trace.begin("decompose.rep", None, rep);
    let rep_start = Instant::now();

    // exact: CSR in memory → exact κ of all three spaces.
    let t_exact = Instant::now();
    let exact_span = trace.begin("decompose.exact", root, rep);
    let (truss_space, t) =
        trace.time("nucleus.space.truss", exact_span, rep, || TrussSpace::precomputed(g));
    s.space[0].push(ms(t));
    let (truss, t) = trace
        .time("nucleus.space.cached_truss", exact_span, rep, || CachedSpace::build(&truss_space));
    s.space[1].push(ms(t));
    drop(truss_space);
    let (n34_space, t) =
        trace.time("nucleus.space.n34", exact_span, rep, || Nucleus34Space::precomputed(g));
    s.space[2].push(ms(t));
    let (n34, t) =
        trace.time("nucleus.space.cached_n34", exact_span, rep, || CachedSpace::build(&n34_space));
    s.space[3].push(ms(t));
    drop(n34_space);
    let (core, _) = trace.time("nucleus.space.cached_core", exact_span, rep, || {
        CachedSpace::build(&CoreSpace::new(g))
    });
    let spaces = [&core, &truss, &n34];
    let mut exact = Vec::with_capacity(3);
    for (i, space) in spaces.iter().enumerate() {
        let (r, t) = trace.time(PEEL_SPANS[i], exact_span, rep, || peel(*space));
        s.peel[i].push(ms(t));
        exact.push(r);
    }
    trace.end(exact_span);
    s.exact.push(ms(t_exact.elapsed().as_secs_f64()));
    o.layer("nucleus.peel.truss_scanned", exact[1].stats.containers_scanned as f64, 1);
    o.layer("nucleus.peel.truss_moves", exact[1].stats.bucket_moves as f64, 1);

    // local: sequential And to convergence; τ must equal κ.
    let mut checks = 0;
    let t_local = Instant::now();
    let local_span = trace.begin("decompose.local", root, rep);
    let sequential = LocalConfig::sequential();
    for (i, space) in spaces.iter().enumerate() {
        let (r, t) =
            trace.time(AND_SPANS[i], local_span, rep, || and(*space, &sequential, &Order::Natural));
        s.and[i].push(ms(t));
        checks += 1;
        if r.tau != exact[i].kappa {
            o.fail(format!("rep {rep}: And on {} did not converge to κ", SPACE_KEYS[i]));
        }
        if i == 1 {
            o.layer("nucleus.and.truss_sweeps", r.sweeps as f64, 1);
            o.layer("nucleus.and.truss_processed", r.total_processed() as f64, 1);
        }
    }
    trace.end(local_span);
    s.local.push(ms(t_local.elapsed().as_secs_f64()));

    // snd: SND_SWEEPS synchronous sweeps over truss. A fixed number, not
    // "to convergence": that takes 11 to 14 sweeps depending on the seed,
    // which alone would spread this time by a quarter. τ never undershoots
    // κ (Theorem 1); the run to convergence is a layer probe.
    let (partial, t) = trace.time("nucleus.snd.truss_sweeps", root, rep, || {
        snd(&truss, &sequential.max_iterations(SND_SWEEPS))
    });
    s.snd.push(ms(t));
    checks += 1;
    let undershot = partial.tau.iter().zip(&exact[1].kappa).any(|(t, k)| t < k);
    if undershot || (partial.converged && partial.tau != exact[1].kappa) {
        o.fail(format!(
            "rep {rep}: {} Snd sweeps on truss left τ below κ or off it",
            partial.sweeps
        ));
    }
    drop(partial);

    // par (traced runs only: a per-layer number, see the README): the
    // parallel kernels on truss at T threads; κ bit-identical.
    if run.traced {
        checks += parallel_stage(&truss, &exact[1].kappa, run, rep, root, trace, s, o);
    }

    // hierarchy: the forest of every space.
    let t_hier = Instant::now();
    let hier_span = trace.begin("decompose.hierarchy", root, rep);
    for (i, space) in spaces.iter().enumerate() {
        let (forest, t) =
            trace.time(HIER_SPANS[i], hier_span, rep, || build_hierarchy(*space, &exact[i].kappa));
        s.hier[i].push(ms(t));
        if i == 1 {
            o.layer("nucleus.hierarchy.truss_nodes", forest.len() as f64, 1);
        }
    }
    trace.end(hier_span);
    s.hierarchy.push(ms(t_hier.elapsed().as_secs_f64()));

    trace.end(root);
    let whole = ms(rep_start.elapsed().as_secs_f64());
    if trace.enabled() { &mut s.rep_traced } else { &mut s.rep_untraced }.push(whole);
    checks
}

/// The parallel kernels on truss at `run.threads` threads. Returns the
/// number of oracle comparisons made.
#[allow(clippy::too_many_arguments)]
fn parallel_stage(
    truss: &CachedSpace,
    kappa: &[u32],
    run: &Run,
    rep: u64,
    root: Option<usize>,
    trace: &mut Trace,
    s: &mut Samples,
    o: &mut Outcome,
) -> u64 {
    let ms = |secs: f64| secs * 1e3;
    let t_par = Instant::now();
    let par_span = trace.begin("decompose.par", root, rep);
    let (pp, t) = trace.time("nucleus.peel.par_truss", par_span, rep, || {
        peel_parallel(truss, ParallelConfig::with_threads(run.threads))
    });
    s.par_peel.push(ms(t));
    let (pa, t) = trace.time("nucleus.and.par_truss", par_span, rep, || {
        and(truss, &LocalConfig::with_threads(run.threads), &Order::Natural)
    });
    s.par_and.push(ms(t));
    trace.end(par_span);
    s.par.push(ms(t_par.elapsed().as_secs_f64()));
    if pp.kappa != kappa {
        o.fail(format!("rep {rep}: parallel peel on truss differs from the sequential peel"));
    }
    if pa.tau != kappa {
        o.fail(format!("rep {rep}: parallel And on truss differs from the sequential peel"));
    }
    let epilogue = pp.drain.map_or(0, |d| d.epilogue_items) as f64;
    o.layer("nucleus.peel.par_epilogue_share", epilogue / truss.num_cliques() as f64, 1);
    2
}

/// Layer probes that are not on the end-to-end path: run once, traced
/// runs only, after the repetitions.
fn layer_probes(g: &CsrGraph, trace: &mut Trace, o: &mut Outcome) -> u64 {
    let ms = |secs: f64| secs * 1e3;
    let req = u64::MAX;
    let edges = g.edges().to_vec();
    let (rebuilt, t) =
        trace.time("graph.csr_build", None, req, || hdsd_graph::graph_from_edges(edges));
    o.layer("graph.csr_build_ms", ms(t), 1);
    assert_eq!(rebuilt.num_edges(), g.num_edges());
    let (tl, t) = trace.time("graph.triangles", None, req, || TriangleList::build(g));
    o.layer("graph.triangles_ms", ms(t), 1);
    o.layer("graph.triangles", tl.len() as f64, 1);
    let (k4, t) = trace.time("graph.k4", None, req, || K4List::build(g, &tl));
    o.layer("graph.k4_ms", ms(t), 1);
    o.layer("graph.k4s", k4.len() as f64, 1);

    let truss = CachedSpace::build(&TrussSpace::with_triangles(g, &tl));
    let kappa = peel(&truss).kappa;
    let sequential = LocalConfig::sequential();
    let (full, t) = trace.time("nucleus.snd.truss", None, req, || snd(&truss, &sequential));
    o.layer("nucleus.snd.truss_ms", ms(t), 1);
    o.layer("nucleus.snd.truss_iterations", full.iterations_to_converge() as f64, 1);
    if full.tau != kappa {
        o.fail("Snd on truss did not converge to κ".to_string());
    }
    let three = snd(&truss, &sequential.max_iterations(3));
    let exact_after_3 = three.tau.iter().zip(&kappa).filter(|(t, k)| t == k).count();
    o.layer("nucleus.snd.truss_exact_share_i3", exact_after_3 as f64 / kappa.len() as f64, 1);

    // The h-index kernel over the rows And's first sweep sees: per edge,
    // per containing triangle, the smaller S-degree of the other two edges.
    let flat = truss.flat();
    let rows: Vec<Vec<u32>> = (0..flat.num_cliques())
        .map(|i| {
            flat.containers(i)
                .chunks(flat.group())
                .map(|others| others.iter().map(|&c| flat.degree(c as usize)).min().unwrap_or(0))
                .collect()
        })
        .collect();
    let mut h = HBuffer::new();
    let (sum, t) = trace.time("hindex.compute", None, req, || {
        rows.iter().map(|row| u64::from(h.compute(row))).sum::<u64>()
    });
    std::hint::black_box(sum);
    o.layer("hindex.compute_ns", t * 1e9 / rows.len() as f64, rows.len());
    1
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let n = if run.quick { 20_000 } else { 100_000 };

    // Set-up: generate the input (the generator ends in the CSR build).
    let mut setups = Vec::new();
    let mut g = None;
    for _ in 0..7 {
        check_interrupted()?;
        let t = Instant::now();
        g = Some(crate::gen::graph(n, run.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let g = g.expect("the set-ups ran");
    o.e2e("setup_s", median(&setups), setups.len());

    // Spans are recorded on every other repetition of a traced run; the
    // two halves give the tracing overhead.
    let mut trace = Trace::new(run.traced);
    let mut s = Samples::default();
    let started = Instant::now();
    let mut rep = 0u64;
    let min_reps = 3;
    while rep < min_reps || (!run.quick && started.elapsed().as_secs_f64() < run.seconds) {
        check_interrupted()?;
        trace.set_enabled(run.traced && rep.is_multiple_of(2));
        let checks = repetition(&g, run, rep, &mut trace, &mut s, &mut o);
        o.attempted += checks;
        rep += 1;
    }
    trace.set_enabled(run.traced);
    let reps = rep as usize;

    o.e2e("t1_ms", median(&s.exact), reps);
    o.e2e("t2_ms", median(&s.local), reps);
    o.e2e("t3_ms", median(&s.snd), reps);
    o.e2e("t4_ms", median(&s.hierarchy), reps);
    o.name("exact_s", "s", median(&s.exact) / 1e3, reps);
    o.name("local_s", "s", median(&s.local) / 1e3, reps);
    o.name("snd_s", "s", median(&s.snd) / 1e3, reps);
    o.name("hierarchy_s", "s", median(&s.hierarchy) / 1e3, reps);

    for i in 0..3 {
        o.layer(PEEL_NAMES[i], median(&s.peel[i]), reps);
        o.layer(AND_NAMES[i], median(&s.and[i]), reps);
        o.layer(HIER_NAMES[i], median(&s.hier[i]), reps);
    }
    for (name, samples) in SPACE_NAMES.iter().zip(&s.space) {
        o.layer(name, median(samples), reps);
    }
    if run.traced {
        let (par_peel, par_and) = (median(&s.par_peel), median(&s.par_and));
        o.name("par_s", "s", median(&s.par) / 1e3, reps);
        o.layer("nucleus.peel.par_truss_ms", par_peel, reps);
        o.layer("nucleus.and.par_truss_ms", par_and, reps);
        // Base of both ratios: the sequential kernel on the same space.
        o.layer("nucleus.peel.par_speedup", median(&s.peel[1]) / par_peel, reps);
        o.layer("nucleus.and.par_speedup", median(&s.and[1]) / par_and, reps);
    }

    if run.traced {
        let checks = layer_probes(&g, &mut trace, &mut o);
        o.attempted += checks;
        if !s.rep_untraced.is_empty() {
            let (with, without) = (median(&s.rep_traced), median(&s.rep_untraced));
            o.layer("trace.overhead_pct", (with - without) / without * 100.0, reps);
        }
        o.note(trace.write_for(run, "decompose")?);
        for (name, own_ms) in trace.self_times_ms() {
            o.note(format!("self time {name}: {own_ms:.1} ms"));
        }
    }

    o.e2e("rss_mb", peak_rss_mb("/proc/self/status")?, 1);
    o.name("rss_mb", "MB", o.end_to_end["rss_mb"].value, 1);
    let truss_bytes = CachedSpace::build(&TrussSpace::on_the_fly(&g)).flat().heap_bytes();
    o.note(format!(
        "G_big = holme_kim({n}, 8, 0.5, {}): {} vertices, {} edges; CSR {} bytes + flat truss \
         containers {} bytes; last-level cache {} bytes; T={} threads for the parallel kernels \
         (speed-ups are over the sequential kernel on the same space)",
        run.seed,
        g.num_vertices(),
        g.num_edges(),
        g.heap_bytes(),
        truss_bytes,
        llc_bytes().map_or("unknown".to_string(), |b| b.to_string()),
        run.threads,
    ));
    Ok(o)
}

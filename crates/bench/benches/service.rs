//! Serving benchmark for the `hdsd-service` engine.
//!
//! Measures the three serving paths the engine exists for and writes one
//! self-contained JSON document so the trend is trackable across PRs:
//!
//! * **point-query throughput** — resident-κ lookups per second;
//! * **budgeted-estimate latency** — `local_estimate_opts` at several
//!   exploration budgets (mean latency + mean explored ball size);
//! * **update refresh vs from-scratch** — per space, the splice and the
//!   κ refresh (a peel of the spliced rows) on mixed insert/delete batches
//!   against a cold build + peel of the same updated graph, and the forest
//!   repair against a cold forest build. The run *asserts* κ-exactness of
//!   every refresh and that every repaired forest has the cold forest's
//!   size.
//!
//! Run with `cargo bench -p hdsd-bench --bench service` (append
//! `-- --quick` for the smoke-test size; quick mode writes to `target/`).

use std::fmt::Write as _;
use std::time::Instant;

use hdsd_nucleus::{
    build_hierarchy, peel, CachedSpace, CoreSpace, LocalConfig, Nucleus34Space, QueryOptions,
    TrussSpace,
};
use hdsd_service::{Engine, EngineConfig, SpaceSel};

struct EstimateRecord {
    space: &'static str,
    budget: Option<usize>,
    iterations: usize,
    mean_us: f64,
    mean_explored: f64,
    truncated: usize,
}

struct RefreshRecord {
    space: String,
    processed: u64,
    awake: usize,
    splice_us: u64,
    refresh_us: u64,
    cold_build_us: u64,
    cold_peel_us: u64,
}

struct HierarchyRecord {
    space: String,
    repair_us: u64,
    rebuild_us: u64,
    preserved_nodes: usize,
    rebuilt_nodes: usize,
    preserved_fraction: f64,
    dirty_cliques: usize,
    scanned_scliques: usize,
}

use proptest::splitmix64 as splitmix;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, m_attach, thin) = if quick { (2_000u32, 5u32, 0.7) } else { (20_000, 6, 0.6) };
    let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(n, m_attach, 0.4, 7), thin, 7);
    eprintln!("service bench graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    let spaces = vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];
    let cfg = EngineConfig { spaces: spaces.clone(), local: LocalConfig::sequential() };
    let t_build = Instant::now();
    let mut engine = Engine::new(g.clone(), &cfg);
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    // Cold-start split per space (the flat-peel routing made the exact
    // peel the observable line item; see `stats` in the protocol).
    let cold_start: Vec<(String, u64, u64)> =
        engine.stats().spaces.iter().map(|s| (s.space.clone(), s.build_us, s.peel_us)).collect();
    for (space, b_us, p_us) in &cold_start {
        eprintln!("cold start {space}: snapshot build {b_us} µs, exact peel {p_us} µs");
    }
    eprintln!("engine built in {build_ms:.0} ms");

    // ── point-query throughput ────────────────────────────────────────
    let lookups: usize = if quick { 200_000 } else { 1_000_000 };
    let mut rng = 0xC0FFEEu64;
    let n_core = engine.num_cliques(SpaceSel::Core).unwrap();
    let n_truss = engine.num_cliques(SpaceSel::Truss).unwrap();
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for i in 0..lookups {
        let (sel, n_sel) =
            if i % 2 == 0 { (SpaceSel::Core, n_core) } else { (SpaceSel::Truss, n_truss) };
        let id = (splitmix(&mut rng) % n_sel as u64) as usize;
        checksum = checksum.wrapping_add(engine.kappa_of(sel, id).unwrap() as u64);
    }
    let lookup_secs = t0.elapsed().as_secs_f64();
    let lookups_per_sec = lookups as f64 / lookup_secs;
    eprintln!("point lookups: {lookups_per_sec:.0}/s (checksum {checksum})");

    // ── budgeted-estimate latency ─────────────────────────────────────
    let mut estimates = Vec::new();
    let queries: usize = if quick { 40 } else { 100 };
    for sel in [SpaceSel::Core, SpaceSel::Truss] {
        let n_sel = engine.num_cliques(sel).unwrap();
        for budget in [Some(64usize), Some(1024), None] {
            let iterations = 3;
            let opts = QueryOptions { iterations, budget, lower_bound: true, deadline: None };
            let mut total_us = 0f64;
            let mut total_explored = 0usize;
            let mut truncated = 0usize;
            let mut rng = 0xBEEFu64;
            for _ in 0..queries {
                let q = (splitmix(&mut rng) % n_sel as u64) as usize;
                let t = Instant::now();
                let est = engine.estimate(sel, q, &opts).unwrap();
                total_us += t.elapsed().as_secs_f64() * 1e6;
                total_explored += est.explored;
                truncated += est.truncated as usize;
            }
            estimates.push(EstimateRecord {
                space: sel.name(),
                budget,
                iterations,
                mean_us: total_us / queries as f64,
                mean_explored: total_explored as f64 / queries as f64,
                truncated,
            });
        }
    }
    for e in &estimates {
        eprintln!(
            "estimate {}: budget {:?} → {:.0} µs mean, {:.0} cliques explored, {} truncated",
            e.space, e.budget, e.mean_us, e.mean_explored, e.truncated
        );
    }

    // ── update refresh vs from-scratch decomposition ──────────────────
    // Make every hierarchy resident first: updates then *repair* the
    // forests in place, and the post-update region query below no longer
    // pays a rebuild.
    for &sel in &spaces {
        let t = Instant::now();
        let _ = engine.nuclei_at(sel, 1).unwrap();
        eprintln!(
            "hierarchy {} first build: {:.1} ms",
            sel.name(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }
    let batches: usize = if quick { 2 } else { 3 };
    let mut refreshes: Vec<RefreshRecord> = Vec::new();
    let mut hierarchies: Vec<HierarchyRecord> = Vec::new();
    let mut rng = 0xDECAFu64;
    let mut update_walls_us: Vec<u64> = Vec::new();
    let mut graph_delta_us: Vec<u64> = Vec::new();
    let mut repair_walls_us: Vec<u64> = Vec::new();
    let mut post_update_region_us: Vec<u64> = Vec::new();
    for _ in 0..batches {
        let nv = engine.graph().num_vertices() as u64;
        let ins: Vec<(u32, u32)> = (0..2)
            .map(|_| ((splitmix(&mut rng) % nv) as u32, (splitmix(&mut rng) % nv) as u32))
            .collect();
        let rm: Vec<(u32, u32)> = {
            let edges = engine.graph().edges();
            (0..3).map(|_| edges[(splitmix(&mut rng) % edges.len() as u64) as usize]).collect()
        };
        let report = engine.update(&ins, &rm);
        update_walls_us.push(report.wall_us);
        graph_delta_us.push(report.graph_delta_us);
        repair_walls_us.push(report.hierarchy_repair_us);

        // The acceptance measurement: the first region query after an
        // update used to rebuild the whole forest; with in-place repair it
        // is a plain index read + materialization.
        let t_region = Instant::now();
        let _ = engine.region_of(SpaceSel::Core, 0);
        post_update_region_us.push(t_region.elapsed().as_micros() as u64);

        // Cold baseline + exactness audit on the *updated* graph.
        let g2 = engine.graph().clone();
        for r in &report.spaces {
            let t_build = Instant::now();
            let cached = match r.space {
                "core" => CachedSpace::build(&CoreSpace::new(&g2)),
                "truss" => CachedSpace::build(&TrussSpace::on_the_fly(&g2)),
                _ => CachedSpace::build(&Nucleus34Space::on_the_fly(&g2)),
            };
            let cold_build_us = t_build.elapsed().as_micros() as u64;
            let t_peel = Instant::now();
            let exact = peel(&cached).kappa;
            let cold_peel_us = t_peel.elapsed().as_micros() as u64;
            let sel = SpaceSel::parse(r.space).unwrap();
            assert_eq!(
                engine.kappa_vector(sel).unwrap(),
                exact.as_slice(),
                "{} refresh diverged from from-scratch peel",
                r.space
            );
            refreshes.push(RefreshRecord {
                space: r.space.to_string(),
                processed: r.processed,
                awake: r.awake,
                splice_us: r.splice_us,
                refresh_us: r.refresh_us,
                cold_build_us,
                cold_peel_us,
            });

            // Hierarchy repair vs a from-scratch forest rebuild of the
            // same updated space.
            let hr = r.hierarchy_repair.as_ref().expect("hierarchies are resident in this bench");
            let t_rebuild = Instant::now();
            let rebuilt = build_hierarchy(&cached, &exact);
            let rebuild_us = t_rebuild.elapsed().as_micros() as u64;
            let total_nodes = hr.preserved_nodes + hr.rebuilt_nodes;
            assert_eq!(
                total_nodes,
                rebuilt.len(),
                "{}: repaired forest size diverged from a cold rebuild",
                r.space
            );
            hierarchies.push(HierarchyRecord {
                space: r.space.to_string(),
                repair_us: hr.repair_us,
                rebuild_us,
                preserved_nodes: hr.preserved_nodes,
                rebuilt_nodes: hr.rebuilt_nodes,
                preserved_fraction: hr.preserved_nodes as f64 / total_nodes.max(1) as f64,
                dirty_cliques: hr.dirty_cliques,
                scanned_scliques: hr.scanned_scliques,
            });
        }
    }
    for r in &refreshes {
        eprintln!(
            "refresh {}: splice {} µs + peel {} µs ({} cliques, {} touched) vs cold build {} µs \
             + peel {} µs",
            r.space,
            r.splice_us,
            r.refresh_us,
            r.processed,
            r.awake,
            r.cold_build_us,
            r.cold_peel_us
        );
    }
    for h in &hierarchies {
        eprintln!(
            "hierarchy {}: repair {} µs vs rebuild {} µs ({} preserved / {} rebuilt nodes, \
             {} s-cliques scanned)",
            h.space,
            h.repair_us,
            h.rebuild_us,
            h.preserved_nodes,
            h.rebuilt_nodes,
            h.scanned_scliques
        );
    }

    // ── emit the JSON artifact ────────────────────────────────────────
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&hdsd_bench::stamp_json(quick));
    let _ = writeln!(
        out,
        "  \"graph\": {{\"generator\": \"thin(holme_kim)\", \"n\": {n}, \"m_attach\": {m_attach}, \
         \"thin\": {thin}, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    );
    let _ = writeln!(out, "  \"engine_build_ms\": {build_ms:.1},");
    out.push_str("  \"cold_start\": [\n");
    for (i, (space, b_us, p_us)) in cold_start.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{space}\", \"build_us\": {b_us}, \"peel_us\": {p_us}}}{}",
            if i + 1 < cold_start.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"point_lookups\": {{\"count\": {lookups}, \"per_sec\": {lookups_per_sec:.0}}},"
    );
    out.push_str("  \"estimates\": [\n");
    for (i, e) in estimates.iter().enumerate() {
        let budget = e.budget.map_or("null".to_string(), |b| b.to_string());
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"budget\": {budget}, \"iterations\": {}, \
             \"mean_us\": {:.1}, \"mean_explored\": {:.1}, \"truncated\": {}}}{}",
            e.space,
            e.iterations,
            e.mean_us,
            e.mean_explored,
            e.truncated,
            if i + 1 < estimates.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"refreshes\": [\n");
    for (i, r) in refreshes.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"processed\": {}, \"awake\": {}, \"splice_us\": {}, \
             \"refresh_us\": {}, \"cold_build_us\": {}, \"cold_peel_us\": {}}}{}",
            r.space,
            r.processed,
            r.awake,
            r.splice_us,
            r.refresh_us,
            r.cold_build_us,
            r.cold_peel_us,
            if i + 1 < refreshes.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"hierarchy\": [\n");
    for (i, h) in hierarchies.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"space\": \"{}\", \"repair_us\": {}, \"rebuild_us\": {}, \
             \"preserved_nodes\": {}, \"rebuilt_nodes\": {}, \"preserved_fraction\": {:.4}, \
             \"dirty_cliques\": {}, \"scanned_scliques\": {}}}{}",
            h.space,
            h.repair_us,
            h.rebuild_us,
            h.preserved_nodes,
            h.rebuilt_nodes,
            h.preserved_fraction,
            h.dirty_cliques,
            h.scanned_scliques,
            if i + 1 < hierarchies.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / 1e3 / xs.len().max(1) as f64;
    let mean_update_ms = mean(&update_walls_us);
    let mean_delta_ms = mean(&graph_delta_us);
    let mean_repair_ms = mean(&repair_walls_us);
    let mean_region_ms = mean(&post_update_region_us);
    let _ = writeln!(out, "  \"mean_update_wall_ms\": {mean_update_ms:.1},");
    let _ = writeln!(out, "  \"mean_graph_delta_ms\": {mean_delta_ms:.1},");
    let _ = writeln!(out, "  \"mean_hierarchy_repair_ms\": {mean_repair_ms:.2},");
    let _ = writeln!(out, "  \"mean_post_update_region_ms\": {mean_region_ms:.2}");
    out.push_str("}\n");

    // Quick mode is a smoke test; only full-size runs may overwrite the
    // tracked trend artifact.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_service.quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json")
    };
    std::fs::write(path, &out).expect("write service bench JSON");
    eprintln!("wrote {path}");
}

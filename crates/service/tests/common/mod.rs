//! Shared by the durability harnesses (`crash_recovery.rs`,
//! `wal_fold.rs`): the seeded graph + batch-stream generator and the
//! engine / directory configuration both run against.
#![allow(dead_code)] // each harness uses its own subset

use hdsd_graph::CsrGraph;
use hdsd_nucleus::LocalConfig;
use hdsd_service::{DurableConfig, Engine, EngineConfig, FailPoints, FsyncPolicy, SpaceSel};
use proptest::splitmix64 as splitmix;

pub const SPACES: &[SpaceSel] = &[SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];

pub type Edge = (u32, u32);

pub struct Stream {
    pub base: CsrGraph,
    pub batches: Vec<(Vec<Edge>, Vec<Edge>)>,
}

/// A small random graph plus a stream of random edge batches. Ids may
/// exceed the current vertex count slightly (growth), removals may miss
/// (no-ops) — the engine-level semantics the WAL must reproduce exactly.
pub fn random_stream(seed: u64) -> Stream {
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let n = 22 + (splitmix(&mut rng) % 8) as u32;
    let base = hdsd_datasets::holme_kim(n, 2, 0.4, splitmix(&mut rng));
    let id_cap = n as u64 + 4;
    let n_batches = 4 + (splitmix(&mut rng) % 3) as usize;
    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        let mut insert: Vec<Edge> = Vec::new();
        for _ in 0..(1 + splitmix(&mut rng) % 3) {
            let u = (splitmix(&mut rng) % id_cap) as u32;
            let v = (splitmix(&mut rng) % id_cap) as u32;
            let e = (u.min(v), u.max(v));
            if u != v && !insert.contains(&e) {
                insert.push(e);
            }
        }
        let mut remove: Vec<Edge> = Vec::new();
        if splitmix(&mut rng).is_multiple_of(2) {
            let u = (splitmix(&mut rng) % id_cap) as u32;
            let v = (splitmix(&mut rng) % id_cap) as u32;
            if u != v && !insert.contains(&(u.min(v), u.max(v))) {
                remove.push((u.min(v), u.max(v)));
            }
        }
        if insert.is_empty() && remove.is_empty() {
            insert.push((0, 1 + (splitmix(&mut rng) % (id_cap - 1)) as u32));
        }
        batches.push((insert, remove));
    }
    Stream { base, batches }
}

pub fn engine_of(graph: CsrGraph) -> Engine {
    Engine::new(graph, &EngineConfig { spaces: SPACES.to_vec(), local: LocalConfig::sequential() })
}

pub fn durable_cfg(dir: &std::path::Path, failpoints: FailPoints) -> DurableConfig {
    DurableConfig { dir: dir.to_path_buf(), policy: FsyncPolicy::Always, failpoints }
}

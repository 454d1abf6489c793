//! The long-lived serving engine: one graph, per-space resident
//! decomposition state, and the request operations of the protocol.
//!
//! The engine answers the paper's §1/§6 query-driven scenario without
//! global recomputation:
//!
//! * **exact lookups** read the resident κ vectors (O(1));
//! * **budgeted estimates** run [`local_estimate_opts`] on an owned
//!   [`CachedSpace`], reading its rows in place into ball arrays kept
//!   per reader thread, and return the Theorem-1 interval
//!   `lower ≤ κ(q) ≤ estimate` plus exploration telemetry;
//! * **region queries** resolve against a lazily-built resident
//!   [`Hierarchy`] (Sarıyüce–Pınar's "keep the nucleus forest as the
//!   index" idea);
//! * **edge batches** run the update step of [`hdsd_nucleus::update`]:
//!   one [`GraphStep`] splices the CSR, then [`update_space`] splices each
//!   space's r-clique list and rows (one splice for every (r, s)),
//!   refreshes κ by peeling them (the paper's Theorem 4: one pass in κ
//!   order) and repairs a resident forest from the splice's touched set —
//!   nothing is rebuilt or re-enumerated globally, and a batch that
//!   changes nothing re-publishes the current epoch's contents;
//! * **snapshots** serialize graph + κ + hierarchies for fast restart.
//!
//! ## Epoch immutability
//!
//! Since PR 8 the resident state lives in an immutable, `Arc`-shared
//! [`EngineView`]: every read operation is `&self` on the view, and
//! [`Engine::update`] never mutates the current view — it builds the
//! *next* view off to the side (reusing the splice/repair delta
//! machinery plus cheap `Arc` adoption for anything untouched) and swaps
//! the engine's `Arc` over. The serving layer publishes that new view
//! through an [`crate::epoch::EpochCell`], so concurrent readers keep
//! answering from the epoch they pinned — wait-free, bit-stable — while
//! the writer works. The one piece of interior mutability is the
//! hierarchy index's `OnceLock`: a monotonic fill-once cache that lets
//! the *first* region query of an epoch materialize the forest without
//! `&mut` (every later reader of that epoch sees the identical index).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hdsd_graph::{CsrDelta, CsrGraph, TriangleList, VertexId};
use hdsd_nucleus::hierarchy::NucleusDensity;
use hdsd_nucleus::{
    build_hierarchy, build_hierarchy_within, local_estimate_opts, peel, update_space, CachedSpace,
    CancelToken, Cancelled, CliqueSpace, GraphStep, Hierarchy, LocalConfig, QueryEstimate,
    QueryOptions, Snapshot, SpaceSnapshot, SpaceStep,
};
use hdsd_telemetry::{labeled, span, Registry};

/// Which decomposition a request addresses (defined beside the update step
/// in `hdsd-nucleus`).
pub use hdsd_nucleus::SpaceSel;

/// The triangle list the cold builds of the truss and (3,4) spaces share,
/// built once when any of `spaces` needs it and dropped after them.
fn shared_triangles(graph: &CsrGraph, spaces: &[SpaceSel]) -> Option<TriangleList> {
    spaces.iter().any(|s| s.needs_triangles()).then(|| TriangleList::build(graph))
}

/// Engine construction options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Decompositions to keep resident. The (3,4) space costs the most to
    /// build; enable it when the workload asks for it.
    pub spaces: Vec<SpaceSel>,
    /// Unread: the κ refresh is a sequential peel whatever this says. The
    /// field keeps its spelling for the stand-alone `benchmark/` package.
    pub local: LocalConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            spaces: vec![SpaceSel::Core, SpaceSel::Truss],
            local: LocalConfig::sequential(),
        }
    }
}

/// Hierarchy plus the clique → node index used by region queries. Both
/// halves are `Arc`'d so a snapshot/checkpoint shares them zero-copy and
/// a repaired forest moves to the next epoch without cloning the nodes.
#[derive(Clone)]
struct HierarchyIndex {
    forest: Arc<Hierarchy>,
    /// For each r-clique, the node whose `own_cliques` contains it
    /// (`u32::MAX` for cliques in no nucleus).
    node_of: Arc<Vec<u32>>,
}

impl HierarchyIndex {
    fn build(space: &CachedSpace, kappa: &[u32]) -> Self {
        Self::from_forest(Arc::new(build_hierarchy(space, kappa)), space.num_cliques())
    }

    /// [`HierarchyIndex::build`] under a cancellation token: the s-clique
    /// scan and union–find passes abort at their chunk boundaries.
    fn build_within(
        space: &CachedSpace,
        kappa: &[u32],
        cancel: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let forest = build_hierarchy_within(space, kappa, cancel)?;
        Ok(Self::from_forest(Arc::new(forest), space.num_cliques()))
    }

    /// Wraps an existing forest (freshly built or repaired) with the
    /// clique → node inverted index.
    fn from_forest(forest: Arc<Hierarchy>, num_cliques: usize) -> Self {
        let node_of = Arc::new(forest.clique_to_node(num_cliques));
        HierarchyIndex { forest, node_of }
    }
}

/// One space's immutable resident state inside an [`EngineView`]: the
/// container snapshot and κ vector are `Arc`'d rows shared across epochs
/// (and into checkpoints), never refreshed in place.
struct SpaceView {
    sel: SpaceSel,
    cached: Arc<CachedSpace>,
    kappa: Arc<Vec<u32>>,
    /// Lazily materialized hierarchy index. `OnceLock` (not `Option`) so
    /// the first region/nuclei query of an epoch can fill it through
    /// `&self` — concurrent readers race benignly (first fill wins, all
    /// see the same index) and the writer checks `get()` at update time
    /// to decide whether the next epoch inherits a repaired forest.
    hierarchy: OnceLock<HierarchyIndex>,
    /// Wall time of the cold space materialization (snapshot build) at
    /// startup; 0 when the state was adopted from a snapshot restore.
    build_us: u64,
    /// Wall time of the cold exact peel at startup; 0 on snapshot restore
    /// (κ is adopted, nothing is peeled).
    peel_us: u64,
}

impl SpaceView {
    fn fresh(sel: SpaceSel, graph: &CsrGraph, triangles: Option<&TriangleList>) -> SpaceView {
        let t_build = Instant::now();
        let cached = {
            span!("space.build");
            sel.build_cached(graph, triangles)
        };
        let build_us = t_build.elapsed().as_micros() as u64;
        // `peel` sees the snapshot's resident flat rows (`as_flat`) and
        // runs the monomorphized flat engine — the cold-start hot path.
        let t_peel = Instant::now();
        let pr = {
            span!("space.peel");
            peel(&cached)
        };
        let peel_us = t_peel.elapsed().as_micros() as u64;
        // The peel's work counters used to be computed and dropped here;
        // flow them into the registry so a running daemon exposes them.
        let reg = Registry::global();
        let lbl = [("space", sel.name())];
        reg.counter(&labeled("peel_containers_scanned_total", &lbl))
            .add(pr.stats.containers_scanned);
        reg.counter(&labeled("peel_dead_containers_total", &lbl)).add(pr.stats.dead_containers);
        reg.counter(&labeled("peel_bucket_moves_total", &lbl)).add(pr.stats.bucket_moves);
        reg.histogram(&labeled("space_build_micros", &lbl)).record(build_us);
        reg.histogram(&labeled("space_peel_micros", &lbl)).record(peel_us);
        SpaceView {
            sel,
            cached: Arc::new(cached),
            kappa: Arc::new(pr.kappa),
            hierarchy: OnceLock::new(),
            build_us,
            peel_us,
        }
    }

    /// The same contents for the next epoch: every `Arc` shared, a resident
    /// hierarchy index carried over.
    fn share(&self) -> SpaceView {
        let hierarchy = OnceLock::new();
        if let Some(hi) = self.hierarchy.get() {
            let _ = hierarchy.set(hi.clone());
        }
        SpaceView {
            sel: self.sel,
            cached: Arc::clone(&self.cached),
            kappa: Arc::clone(&self.kappa),
            hierarchy,
            build_us: self.build_us,
            peel_us: self.peel_us,
        }
    }

    /// The resident hierarchy index, materializing it on first use. Safe
    /// under concurrent readers: `OnceLock` serializes initializers and
    /// every caller sees the same index for the lifetime of this epoch.
    fn ensure_hierarchy(&self) -> &HierarchyIndex {
        self.hierarchy.get_or_init(|| HierarchyIndex::build(&self.cached, &self.kappa))
    }

    /// [`SpaceView::ensure_hierarchy`] under a cancellation token. The
    /// cancellable build runs *outside* the `OnceLock` initializer (an
    /// initializer cannot fail), so two racing cold builds may both do the
    /// work and one result is discarded — the same benign race the
    /// fill-once cache already tolerates between readers. A cancelled
    /// build leaves the lock empty: the next query simply retries.
    fn ensure_hierarchy_under(&self, cancel: &CancelToken) -> Result<&HierarchyIndex, Cancelled> {
        if let Some(hi) = self.hierarchy.get() {
            return Ok(hi);
        }
        let built = HierarchyIndex::build_within(&self.cached, &self.kappa, cancel)?;
        Ok(self.hierarchy.get_or_init(|| built))
    }
}

/// Summary of one nucleus (a hierarchy node).
#[derive(Clone, Debug)]
pub struct NucleusSummary {
    /// Node id in the resident hierarchy.
    pub node: u32,
    /// Threshold k of the nucleus.
    pub k: u32,
    /// Total r-cliques inside (own + descendants).
    pub size: usize,
}

/// A materialized dense region around a query clique.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// Hierarchy node id.
    pub node: u32,
    /// Threshold k (equals κ of the query clique).
    pub k: u32,
    /// r-cliques in the region.
    pub size: usize,
    /// The region's vertex set, ascending.
    pub vertices: Vec<VertexId>,
    /// Density summary of the region's induced edges, counted on the graph
    /// in the same subtree walk that collects `vertices` (no subgraph is
    /// built).
    pub density: NucleusDensity,
}

/// Telemetry of one space's incremental hierarchy repair.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyRepairReport {
    /// Wall time of the repair (detach + bounded union–find + graft).
    pub repair_us: u64,
    /// Maximal untouched subtrees grafted back without reconstruction.
    pub preserved_subtrees: usize,
    /// Old forest nodes reused verbatim.
    pub preserved_nodes: usize,
    /// Nodes rebuilt by the bounded union–find pass.
    pub rebuilt_nodes: usize,
    /// r-cliques in the dirty set after closure.
    pub dirty_cliques: usize,
    /// s-cliques re-enumerated (a cold rebuild scans all of them).
    pub scanned_scliques: usize,
    /// True when the repair bailed out to a cold rebuild (no preservable
    /// subtree — typical for the core space's broad shallow forest).
    pub full_rebuild: bool,
}

/// Telemetry of one space's κ refresh.
#[derive(Clone, Debug)]
pub struct SpaceRefresh {
    /// Space name.
    pub space: &'static str,
    /// r-cliques the refresh peeled (the space's clique count; 0 for a
    /// batch that changed nothing).
    pub processed: u64,
    /// Surviving cliques whose container set the batch changed
    /// ([`hdsd_nucleus::SpaceDelta::touched`]) — what a forest repair is
    /// seeded with.
    pub awake: usize,
    /// Wall time of the space snapshot splice (container-cache patch).
    pub splice_us: u64,
    /// Wall time of the κ refresh (the peel of the spliced rows).
    pub refresh_us: u64,
    /// Incremental hierarchy repair telemetry, when a forest was resident
    /// (`None` when the space had no hierarchy built yet — nothing to
    /// repair, and nothing is invalidated either).
    pub hierarchy_repair: Option<HierarchyRepairReport>,
}

impl SpaceRefresh {
    /// The all-zero row of a batch that changed nothing.
    fn idle(sel: SpaceSel) -> SpaceRefresh {
        SpaceRefresh {
            space: sel.name(),
            processed: 0,
            awake: 0,
            splice_us: 0,
            refresh_us: 0,
            hierarchy_repair: None,
        }
    }

    /// The report row of one space's update step, recorded into the
    /// global registry on the way.
    fn record(sel: SpaceSel, up: &SpaceStep) -> SpaceRefresh {
        let hierarchy_repair = up.forest.as_ref().map(|(_, stats)| HierarchyRepairReport {
            repair_us: up.repair_us,
            preserved_subtrees: stats.preserved_subtrees,
            preserved_nodes: stats.preserved_nodes,
            rebuilt_nodes: stats.rebuilt_nodes,
            dirty_cliques: stats.dirty_cliques,
            scanned_scliques: stats.scanned_scliques,
            full_rebuild: stats.full_rebuild,
        });
        let processed = up.kappa.len() as u64;
        let reg = Registry::global();
        let lbl = [("space", sel.name())];
        reg.counter(&labeled("refresh_processed_total", &lbl)).add(processed);
        reg.counter(&labeled("refresh_awake_total", &lbl)).add(up.touched.len() as u64);
        reg.histogram(&labeled("update_splice_micros", &lbl)).record(up.splice_us);
        reg.histogram(&labeled("update_refresh_micros", &lbl)).record(up.refresh_us);
        if let Some(hr) = &hierarchy_repair {
            reg.histogram(&labeled("hierarchy_repair_micros", &lbl)).record(hr.repair_us);
            reg.counter(&labeled("repair_preserved_nodes_total", &lbl))
                .add(hr.preserved_nodes as u64);
            reg.counter(&labeled("repair_rebuilt_nodes_total", &lbl)).add(hr.rebuilt_nodes as u64);
            reg.counter(&labeled("repair_full_rebuilds_total", &lbl)).add(hr.full_rebuild as u64);
        }
        SpaceRefresh {
            space: sel.name(),
            processed,
            awake: up.touched.len(),
            splice_us: up.splice_us,
            refresh_us: up.refresh_us,
            hierarchy_repair,
        }
    }
}

/// Result of applying one edge batch.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Edges actually inserted (after dedup).
    pub inserted: u32,
    /// Edges actually removed.
    pub removed: u32,
    /// Wall time of the shared CSR splice before any space refresh.
    pub graph_delta_us: u64,
    /// Per-space refresh telemetry.
    pub spaces: Vec<SpaceRefresh>,
    /// Total wall time spent repairing resident hierarchies (all spaces);
    /// 0 when no forest was resident. Before PR 4 this cost was paid as a
    /// full rebuild by the next `region`/`nuclei` query instead.
    pub hierarchy_repair_us: u64,
    /// Wall time of the whole update (CSR splice + all refreshes).
    pub wall_us: u64,
}

impl UpdateReport {
    /// A report whose wall time is still to be stamped (by `publish`).
    fn unstamped(
        ed: &CsrDelta,
        graph_delta_us: u64,
        spaces: Vec<SpaceRefresh>,
        hierarchy_repair_us: u64,
    ) -> UpdateReport {
        UpdateReport {
            inserted: ed.inserted(),
            removed: ed.removed(),
            graph_delta_us,
            spaces,
            hierarchy_repair_us,
            wall_us: 0,
        }
    }
}

/// Point-in-time statistics of one resident space.
#[derive(Clone, Debug)]
pub struct SpaceStats {
    /// Space name (`core` / `truss` / `nucleus34`).
    pub space: String,
    /// r-clique count.
    pub cliques: usize,
    /// Maximum κ.
    pub max_kappa: u32,
    /// Whether a hierarchy forest is resident.
    pub hierarchy_resident: bool,
    /// Cold-start snapshot materialization time (0 on snapshot restore).
    pub build_us: u64,
    /// Cold-start exact peel time (0 on snapshot restore — κ is adopted).
    pub peel_us: u64,
}

/// Point-in-time engine statistics.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Vertices in the current graph.
    pub vertices: usize,
    /// Edges in the current graph.
    pub edges: usize,
    /// Edge batches applied since construction/restore.
    pub updates_applied: u64,
    /// Per-space statistics, including the cold-start cost split.
    pub spaces: Vec<SpaceStats>,
}

/// One immutable epoch of resident serving state: the graph and every
/// configured space's containers, κ vector and (lazily filled) hierarchy
/// index.
///
/// Views are published through an [`crate::epoch::EpochCell`] and shared
/// by `Arc` across reader threads; **nothing in a view is ever mutated
/// after publication** (the hierarchy `OnceLock` fills once, monotonic).
/// Every query method is therefore `&self` and safe to call from any
/// number of threads concurrently.
pub struct EngineView {
    graph: Arc<CsrGraph>,
    spaces: Vec<SpaceView>,
    updates_applied: u64,
}

impl EngineView {
    /// The graph of this epoch.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Configured spaces.
    pub fn spaces(&self) -> Vec<SpaceSel> {
        self.spaces.iter().map(|s| s.sel).collect()
    }

    fn state(&self, sel: SpaceSel) -> Result<&SpaceView, String> {
        self.spaces
            .iter()
            .find(|s| s.sel == sel)
            .ok_or_else(|| format!("space {:?} not resident (enable it at startup)", sel.name()))
    }

    /// Exact κ of r-clique `id` (a resident-vector read).
    pub fn kappa_of(&self, sel: SpaceSel, id: usize) -> Result<u32, String> {
        let st = self.state(sel)?;
        st.kappa.get(id).copied().ok_or_else(|| format!("clique id {id} out of range"))
    }

    /// Number of r-cliques in a space.
    pub fn num_cliques(&self, sel: SpaceSel) -> Result<usize, String> {
        Ok(self.state(sel)?.cached.num_cliques())
    }

    /// The full resident κ vector of a space.
    pub fn kappa_vector(&self, sel: SpaceSel) -> Result<&[u32], String> {
        Ok(&self.state(sel)?.kappa)
    }

    /// The vertices of r-clique `id`.
    pub fn clique_vertices(&self, sel: SpaceSel, id: usize) -> Result<Vec<VertexId>, String> {
        let st = self.state(sel)?;
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        Ok(st.cached.clique_vertices(id).to_vec())
    }

    /// Resolves an r-clique by its vertex set (vertex for core, endpoint
    /// pair for truss, triangle for (3,4)), in any order: a binary search
    /// in the space's lexicographic r-clique list
    /// ([`CachedSpace::clique_id`]) — no identity index to build or
    /// invalidate.
    pub fn resolve(&self, sel: SpaceSel, vertices: &[VertexId]) -> Result<usize, String> {
        let expect_r = sel.rs().0 as usize;
        if vertices.len() != expect_r {
            return Err(format!(
                "space {:?} addresses {expect_r}-cliques, got {} vertices",
                sel.name(),
                vertices.len()
            ));
        }
        let mut sorted = vertices.to_vec();
        sorted.sort_unstable();
        self.state(sel)?
            .cached
            .clique_id(&sorted)
            .ok_or_else(|| format!("{expect_r}-clique {sorted:?} not in graph"))
    }

    /// Budgeted local estimate with the Theorem-1 bound interval.
    pub fn estimate(
        &self,
        sel: SpaceSel,
        id: usize,
        opts: &QueryOptions,
    ) -> Result<QueryEstimate, String> {
        let st = self.state(sel)?;
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        Ok(local_estimate_opts(st.cached.as_ref(), id, opts))
    }

    /// The resident hierarchy forest of a space, building it if absent.
    /// The crash-recovery harness uses this to compare a recovered
    /// engine's forests against an uninterrupted reference.
    pub fn hierarchy_of(&self, sel: SpaceSel) -> Result<&Hierarchy, String> {
        let st = self.state(sel)?;
        Ok(&st.ensure_hierarchy().forest)
    }

    /// Whether the space's hierarchy index is already materialized in
    /// this epoch. Exact region answers are a tree walk when it is; when
    /// it is not, the first region query pays the full build — the cost
    /// the brownout controller avoids under load.
    pub fn hierarchy_resident(&self, sel: SpaceSel) -> Result<bool, String> {
        Ok(self.state(sel)?.hierarchy.get().is_some())
    }

    /// The maximal k-(r,s) nuclei at threshold `k`, largest first.
    pub fn nuclei_at(&self, sel: SpaceSel, k: u32) -> Result<Vec<NucleusSummary>, String> {
        self.nuclei_at_under(sel, k, &CancelToken::none())
    }

    /// [`EngineView::nuclei_at`] under a cancellation token: the request
    /// fails (instead of blocking the daemon) when the deadline passes or a
    /// flag is raised (client disconnect, load shed) before or during
    /// hierarchy materialization, which aborts at its chunk boundaries.
    pub fn nuclei_at_under(
        &self,
        sel: SpaceSel,
        k: u32,
        cancel: &CancelToken,
    ) -> Result<Vec<NucleusSummary>, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            // An empty space has an empty forest; answer without
            // materializing (and keeping resident) a trivial index.
            return Ok(Vec::new());
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        let mut out: Vec<NucleusSummary> = hi
            .forest
            .nuclei_at(k)
            .into_iter()
            .map(|node| NucleusSummary { node, k, size: hi.forest.nodes[node as usize].size })
            .collect();
        out.sort_by_key(|n| std::cmp::Reverse(n.size));
        Ok(out)
    }

    /// The densest region containing r-clique `id`: the maximal nucleus in
    /// which it first participates (its own node in the hierarchy).
    pub fn region_of(&self, sel: SpaceSel, id: usize) -> Result<RegionReport, String> {
        self.region_of_under(sel, id, &CancelToken::none())
    }

    /// [`EngineView::region_of`] under a full cancellation token.
    pub fn region_of_under(
        &self,
        sel: SpaceSel,
        id: usize,
        cancel: &CancelToken,
    ) -> Result<RegionReport, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            // No cliques to address: stable error, no trivial index built.
            return Err(format!("clique id {id} out of range"));
        }
        if id >= st.cached.num_cliques() {
            return Err(format!("clique id {id} out of range"));
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        let node = hi.node_of[id];
        if node == u32::MAX {
            return Err(format!("clique {id} participates in no s-clique (no nucleus)"));
        }
        Ok(self.materialize_node(st, node))
    }

    /// A materialized hierarchy node by id (used by the `nuclei` op's
    /// drill-down).
    pub fn node_region(&self, sel: SpaceSel, node: u32) -> Result<RegionReport, String> {
        self.node_region_under(sel, node, &CancelToken::none())
    }

    /// [`EngineView::node_region`] under a full cancellation token.
    pub fn node_region_under(
        &self,
        sel: SpaceSel,
        node: u32,
        cancel: &CancelToken,
    ) -> Result<RegionReport, String> {
        if cancel.is_armed() {
            cancel.check("before hierarchy lookup")?;
        }
        let st = self.state(sel)?;
        if st.cached.num_cliques() == 0 {
            return Err(format!("hierarchy node {node} out of range"));
        }
        let hi = st.ensure_hierarchy_under(cancel)?;
        if cancel.is_armed() {
            cancel.check("after hierarchy materialization")?;
        }
        if node as usize >= hi.forest.len() {
            return Err(format!("hierarchy node {node} out of range"));
        }
        Ok(self.materialize_node(st, node))
    }

    fn materialize_node(&self, st: &SpaceView, node: u32) -> RegionReport {
        let hi = st.hierarchy.get().expect("materialize_node follows ensure_hierarchy");
        let (density, vertices) = hi.forest.materialize(node, st.cached.as_ref(), &self.graph);
        RegionReport {
            node,
            k: hi.forest.nodes[node as usize].k,
            size: hi.forest.nodes[node as usize].size,
            vertices,
            density,
        }
    }

    /// Serializes this epoch (building any missing hierarchy so the
    /// snapshot restores with the full serving index — forest plus its
    /// clique → node lookup — resident, no reconstruction on restart).
    ///
    /// Zero-copy: the snapshot **shares** the view's graph, κ vectors and
    /// forests by `Arc` instead of cloning them — a checkpoint of a
    /// multi-gigabyte engine allocates a handful of pointers.
    pub fn to_snapshot(&self) -> Snapshot {
        let spaces = self
            .spaces
            .iter()
            .map(|st| {
                let hi = st.ensure_hierarchy();
                SpaceSnapshot {
                    rs: st.sel.rs(),
                    kappa: Arc::clone(&st.kappa),
                    hierarchy: Some(Arc::clone(&hi.forest)),
                    node_of: Some(Arc::clone(&hi.node_of)),
                }
            })
            .collect();
        Snapshot { graph: Arc::clone(&self.graph), spaces }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            vertices: self.graph.num_vertices(),
            edges: self.graph.num_edges(),
            updates_applied: self.updates_applied,
            spaces: self
                .spaces
                .iter()
                .map(|st| SpaceStats {
                    space: st.sel.name().to_string(),
                    cliques: st.cached.num_cliques(),
                    max_kappa: st.kappa.iter().copied().max().unwrap_or(0),
                    hierarchy_resident: st.hierarchy.get().is_some(),
                    build_us: st.build_us,
                    peel_us: st.peel_us,
                })
                .collect(),
        }
    }

    /// Publishes point-in-time graph size gauges to the global registry.
    fn publish_gauges(&self) {
        let reg = Registry::global();
        reg.gauge("graph_vertices").set(self.graph.num_vertices() as u64);
        reg.gauge("graph_edges").set(self.graph.num_edges() as u64);
    }
}

/// The long-lived query-serving engine: the single writer lane's handle
/// on the current [`EngineView`] plus the refresh configuration.
///
/// Reads delegate to the current view (and are `&self`); [`Engine::update`]
/// builds an entirely new view and swaps the engine's `Arc` — callers
/// holding an `Arc<EngineView>` from [`Engine::view`] keep reading the
/// epoch they hold.
///
/// # Examples
///
/// ```
/// use hdsd_service::{Engine, EngineConfig, SpaceSel};
///
/// // A triangle: every vertex sits in a 2-core.
/// let g = hdsd_graph::graph_from_edges([(0, 1), (0, 2), (1, 2)]);
/// let mut engine = Engine::new(g, &EngineConfig::default());
/// assert_eq!(engine.kappa_of(SpaceSel::Core, 0), Ok(2));
///
/// // Updates build the next epoch; the old view is unchanged.
/// let old = engine.view();
/// engine.update(&[(0, 3), (1, 3), (2, 3)], &[]); // close the K4
/// assert_eq!(old.kappa_of(SpaceSel::Core, 0), Ok(2));
/// assert_eq!(engine.kappa_of(SpaceSel::Core, 0), Ok(3));
/// ```
pub struct Engine {
    view: Arc<EngineView>,
}

impl Engine {
    /// Builds the engine with a full decomposition of every configured
    /// space. The triangle list is enumerated once, shared by the cold
    /// builds that need it, and dropped.
    pub fn new(graph: CsrGraph, cfg: &EngineConfig) -> Engine {
        let triangles = shared_triangles(&graph, &cfg.spaces);
        let spaces = cfg
            .spaces
            .iter()
            .map(|&sel| SpaceView::fresh(sel, &graph, triangles.as_ref()))
            .collect();
        let view = EngineView { graph: Arc::new(graph), spaces, updates_applied: 0 };
        view.publish_gauges();
        Engine { view: Arc::new(view) }
    }

    /// The current view (epoch) as a shareable handle. The serving layer
    /// publishes this through an [`crate::epoch::EpochCell`] after every
    /// update; tests and benches read it directly.
    pub fn view(&self) -> Arc<EngineView> {
        Arc::clone(&self.view)
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        self.view.graph()
    }

    /// Configured spaces.
    pub fn spaces(&self) -> Vec<SpaceSel> {
        self.view.spaces()
    }

    /// Exact κ of r-clique `id` (a resident-vector read).
    pub fn kappa_of(&self, sel: SpaceSel, id: usize) -> Result<u32, String> {
        self.view.kappa_of(sel, id)
    }

    /// Number of r-cliques in a space.
    pub fn num_cliques(&self, sel: SpaceSel) -> Result<usize, String> {
        self.view.num_cliques(sel)
    }

    /// The full resident κ vector of a space.
    pub fn kappa_vector(&self, sel: SpaceSel) -> Result<&[u32], String> {
        self.view.kappa_vector(sel)
    }

    /// The vertices of r-clique `id`.
    pub fn clique_vertices(&self, sel: SpaceSel, id: usize) -> Result<Vec<VertexId>, String> {
        self.view.clique_vertices(sel, id)
    }

    /// Resolves an r-clique by its vertex set. See [`EngineView::resolve`].
    pub fn resolve(&self, sel: SpaceSel, vertices: &[VertexId]) -> Result<usize, String> {
        self.view.resolve(sel, vertices)
    }

    /// Budgeted local estimate with the Theorem-1 bound interval.
    pub fn estimate(
        &self,
        sel: SpaceSel,
        id: usize,
        opts: &QueryOptions,
    ) -> Result<QueryEstimate, String> {
        self.view.estimate(sel, id, opts)
    }

    /// The resident hierarchy forest of a space, building it if absent.
    pub fn hierarchy_of(&self, sel: SpaceSel) -> Result<&Hierarchy, String> {
        self.view.hierarchy_of(sel)
    }

    /// The maximal k-(r,s) nuclei at threshold `k`, largest first.
    pub fn nuclei_at(&self, sel: SpaceSel, k: u32) -> Result<Vec<NucleusSummary>, String> {
        self.view.nuclei_at(sel, k)
    }

    /// The densest region containing r-clique `id`.
    pub fn region_of(&self, sel: SpaceSel, id: usize) -> Result<RegionReport, String> {
        self.view.region_of(sel, id)
    }

    /// A materialized hierarchy node by id.
    pub fn node_region(&self, sel: SpaceSel, node: u32) -> Result<RegionReport, String> {
        self.view.node_region(sel, node)
    }

    /// Applies an edge batch by building the **next epoch off to the
    /// side**: one [`GraphStep`] splices the CSR into a fresh value, and
    /// every resident space goes through the same
    /// [`update_space`] the property suites drive — its rows are spliced,
    /// κ is refreshed by peeling them, and a resident hierarchy is
    /// **repaired** (seeded with the splice's touched set) instead of
    /// invalidated. The current view is never touched — readers holding it
    /// keep answering bit-identically — and on return `self.view` is the
    /// new epoch, ready to publish.
    ///
    /// A batch that changes neither the edge set nor the vertex count
    /// ([`GraphStep::is_noop`]: an idempotent retry, a WAL record the
    /// checkpoint already holds) costs one CSR splice and nothing else: the
    /// next epoch shares every `Arc` of this one, and the per-space report
    /// rows are all zeros.
    ///
    /// This is a deliberately read-optimized trade: forest maintenance
    /// (including the cold build the repair degrades to when nothing is
    /// preservable, `full_rebuild` — routine for the core space's shallow
    /// forest) is paid here, at update time, keeping every subsequent
    /// region query rebuild-free. Update-heavy workloads that never touch
    /// `region`/`nuclei` simply never make a hierarchy resident and pay
    /// none of it. Nothing outside the forests is rebuilt globally.
    ///
    /// A region query racing the update may fill the *old* epoch's
    /// hierarchy `OnceLock` after this writer checked it; the new epoch
    /// then simply starts without that forest resident and the next
    /// region query rebuilds it lazily — stale-read tolerance, never a
    /// torn forest.
    pub fn update(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> UpdateReport {
        self.update_within(insert, remove, &CancelToken::none())
            .expect("an unarmed token never cancels")
    }

    /// [`Engine::update`] under a cancellation token, threaded into every
    /// space's κ refresh (the peel probes it as `"peel drain"`). Because
    /// the next epoch is built entirely off to the side, a mid-update trip
    /// is trivially sound: the partial next view is dropped, `self.view`
    /// still points at the old epoch, and readers never observe anything in
    /// between.
    ///
    /// Durability note: callers that append to a WAL **before** applying
    /// must only pass tokens that cannot trip here (or re-apply on
    /// restart) — an update cancelled after its WAL append would replay on
    /// recovery. The protocol layer therefore checks deadlines before the
    /// WAL append and hands this method an unarmed token for durable ops.
    pub fn update_within(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
        cancel: &CancelToken,
    ) -> Result<UpdateReport, Cancelled> {
        self.apply(insert, remove, 1, cancel)
    }

    /// Applies the net effect of `batches` logged batches as **one**
    /// update — one splice, one peel and one repair per space — while
    /// `updates_applied` advances by `batches`, as if each had been applied
    /// in turn. Recovery folds a WAL tail through this
    /// ([`crate::Durability::open`]); nobody can read the states in
    /// between, so nobody pays for them.
    pub fn update_folded(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
        batches: u64,
    ) -> UpdateReport {
        self.apply(insert, remove, batches, &CancelToken::none())
            .expect("an unarmed token never cancels")
    }

    /// The update: one [`GraphStep`], then one [`update_space`] per resident
    /// space, each result wrapped into the next epoch's [`SpaceView`].
    fn apply(
        &mut self,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
        batches: u64,
        cancel: &CancelToken,
    ) -> Result<UpdateReport, Cancelled> {
        if cancel.is_armed() {
            cancel.check("before update")?;
        }
        let start = Instant::now();
        let old = Arc::clone(&self.view);
        let step = {
            span!("update.graph_delta");
            GraphStep::new(&old.graph, insert, remove)
        };
        let graph_delta_us = start.elapsed().as_micros() as u64;
        if step.is_noop() {
            let next = EngineView {
                graph: Arc::clone(&old.graph),
                spaces: old.spaces.iter().map(SpaceView::share).collect(),
                updates_applied: old.updates_applied + batches,
            };
            let spaces = old.spaces.iter().map(|st| SpaceRefresh::idle(st.sel)).collect();
            let report = UpdateReport::unstamped(&step.delta, graph_delta_us, spaces, 0);
            return Ok(self.publish(next, start, report));
        }

        let mut reports = Vec::with_capacity(old.spaces.len());
        let mut new_spaces = Vec::with_capacity(old.spaces.len());
        for st in old.spaces.iter() {
            // The next epoch inherits a repaired forest iff this epoch has
            // one resident at this instant (see the race note above).
            let forest = st.hierarchy.get().map(|hi| hi.forest.as_ref());
            let up = update_space(&st.cached, forest, &step, cancel)?;
            reports.push(SpaceRefresh::record(st.sel, &up));
            let hierarchy = OnceLock::new();
            if let Some((forest, _)) = up.forest {
                let index = HierarchyIndex::from_forest(Arc::new(forest), up.cached.num_cliques());
                let _ = hierarchy.set(index);
            }
            new_spaces.push(SpaceView {
                sel: st.sel,
                cached: Arc::new(up.cached),
                kappa: Arc::new(up.kappa),
                hierarchy,
                build_us: st.build_us,
                peel_us: st.peel_us,
            });
        }
        let hierarchy_repair_us =
            reports.iter().filter_map(|r| r.hierarchy_repair.map(|h| h.repair_us)).sum();
        let GraphStep { new_graph, delta, .. } = step;
        let next = EngineView {
            graph: Arc::new(new_graph),
            spaces: new_spaces,
            updates_applied: old.updates_applied + batches,
        };
        let report = UpdateReport::unstamped(&delta, graph_delta_us, reports, hierarchy_repair_us);
        Ok(self.publish(next, start, report))
    }

    /// Swaps `next` in as the current epoch and closes the update's books
    /// (`report.wall_us` is stamped here).
    fn publish(
        &mut self,
        next: EngineView,
        start: Instant,
        mut report: UpdateReport,
    ) -> UpdateReport {
        report.wall_us = start.elapsed().as_micros() as u64;
        let reg = Registry::global();
        reg.counter("updates_applied_total").add(next.updates_applied - self.view.updates_applied);
        reg.histogram("update_wall_micros").record(report.wall_us);
        reg.histogram("update_graph_delta_micros").record(report.graph_delta_us);
        next.publish_gauges();
        self.view = Arc::new(next);
        report
    }

    /// Serializes the current epoch zero-copy. See
    /// [`EngineView::to_snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        self.view.to_snapshot()
    }

    /// Restores an engine from a snapshot: spaces are re-materialized from
    /// the graph (cheap relative to decomposing), κ and hierarchies are
    /// adopted as-is — `Arc`-shared with the snapshot, not copied — after
    /// a length check. `_local` is unread (see [`EngineConfig::local`]).
    pub fn from_snapshot(snap: Snapshot, _local: LocalConfig) -> Result<Engine, String> {
        let sels = snap
            .spaces
            .iter()
            .map(|sp| {
                SpaceSel::from_rs(sp.rs)
                    .ok_or_else(|| format!("snapshot contains unknown space {:?}", sp.rs))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let triangles = shared_triangles(&snap.graph, &sels);
        let mut spaces = Vec::with_capacity(snap.spaces.len());
        for (sp, sel) in snap.spaces.into_iter().zip(sels) {
            let t_build = Instant::now();
            let cached = sel.build_cached(&snap.graph, triangles.as_ref());
            let build_us = t_build.elapsed().as_micros() as u64;
            if cached.num_cliques() != sp.kappa.len() {
                return Err(format!(
                    "snapshot κ length {} does not match rebuilt {} space ({} cliques)",
                    sp.kappa.len(),
                    sel.name(),
                    cached.num_cliques()
                ));
            }
            // v3 snapshots carry the clique → node index (validated by the
            // reader); adopt it directly and fall back to the derivation
            // scan only when absent.
            let index = match (sp.hierarchy, sp.node_of) {
                (Some(forest), Some(node_of)) => Some(HierarchyIndex { forest, node_of }),
                (Some(forest), None) => Some(HierarchyIndex::from_forest(forest, sp.kappa.len())),
                (None, _) => None,
            };
            let hierarchy = OnceLock::new();
            if let Some(hi) = index {
                let _ = hierarchy.set(hi);
            }
            // κ is adopted, nothing is peeled: that is the point of
            // restoring from a snapshot, and peel_us = 0 records it.
            spaces.push(SpaceView {
                sel,
                cached: Arc::new(cached),
                kappa: sp.kappa,
                hierarchy,
                build_us,
                peel_us: 0,
            });
        }
        let view = EngineView { graph: snap.graph, spaces, updates_applied: 0 };
        view.publish_gauges();
        Ok(Engine { view: Arc::new(view) })
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> EngineStats {
        self.view.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;
    use hdsd_nucleus::{CoreSpace, Nucleus34Space, TrussSpace};

    fn demo_graph() -> CsrGraph {
        // Two K4s sharing the edge (2,3), plus a tail 5-6.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
            (5, 6),
        ])
    }

    fn full_config() -> EngineConfig {
        EngineConfig {
            spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34],
            local: LocalConfig::sequential(),
        }
    }

    #[test]
    fn lookups_match_peeling_across_spaces() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let engine = Engine::new(g.clone(), &full_config());
        assert_eq!(engine.kappa_of(SpaceSel::Core, 5).unwrap(), peel(&CoreSpace::new(&g)).kappa[5]);
        let kt = peel(&TrussSpace::precomputed(&g)).kappa;
        for e in [0usize, 17, 80] {
            assert_eq!(engine.kappa_of(SpaceSel::Truss, e).unwrap(), kt[e]);
        }
        // Vertex-addressed resolution agrees with id-addressed lookups.
        let (u, v) = g.edges()[17];
        let id = engine.resolve(SpaceSel::Truss, &[u, v]).unwrap();
        assert_eq!(id, 17);
        assert!(engine.kappa_of(SpaceSel::Truss, 1 << 20).is_err());
        assert!(engine.resolve(SpaceSel::Truss, &[0]).is_err());
    }

    #[test]
    fn resolve_round_trips_in_every_space_after_an_update() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let mut engine = Engine::new(g.clone(), &full_config());
        let removed = [g.edges()[5], g.edges()[40], g.edges()[90]];
        engine.update(&[(0, 7), (1, 7), (0, 1), (3, 121)], &removed);
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let n = engine.num_cliques(sel).unwrap();
            assert!(n > 0, "{}", sel.name());
            for id in 0..n {
                let mut vs = engine.clique_vertices(sel, id).unwrap();
                vs.reverse(); // any vertex order resolves
                assert_eq!(engine.resolve(sel, &vs), Ok(id), "{} clique {id}", sel.name());
            }
        }
        // Vertex tuples that are not cliques of the space.
        let (u, v) = removed[0];
        assert!(engine.resolve(SpaceSel::Core, &[122]).is_err());
        assert!(engine.resolve(SpaceSel::Truss, &[u, v]).is_err());
        assert!(engine.resolve(SpaceSel::Truss, &[u, u]).is_err());
        assert!(engine.resolve(SpaceSel::Nucleus34, &[u, v, 200]).is_err());
        assert!(engine.resolve(SpaceSel::Nucleus34, &[0, 1]).is_err());
    }

    #[test]
    fn estimates_bracket_exact_kappa() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.5, 11);
        let engine = Engine::new(g.clone(), &EngineConfig::default());
        let exact = peel(&CoreSpace::new(&g)).kappa;
        for q in [0usize, 40, 90] {
            let est = engine
                .estimate(
                    SpaceSel::Core,
                    q,
                    &QueryOptions {
                        iterations: 3,
                        budget: Some(500),
                        lower_bound: true,
                        deadline: None,
                    },
                )
                .unwrap();
            assert!(est.lower <= exact[q] && exact[q] <= est.estimate, "vertex {q}");
        }
    }

    #[test]
    fn region_and_nuclei_come_from_the_resident_hierarchy() {
        let engine = Engine::new(demo_graph(), &full_config());
        // Vertex 6 has κ=1; its densest region is the whole 1-core.
        let r = engine.region_of(SpaceSel::Core, 6).unwrap();
        assert_eq!(r.k, 1);
        assert_eq!(r.vertices.len(), 7);
        // Vertex 0's region: the 3-core spanning both K4s.
        let r0 = engine.region_of(SpaceSel::Core, 0).unwrap();
        assert_eq!(r0.k, 3);
        assert_eq!(r0.vertices, vec![0, 1, 2, 3, 4, 5]);
        // Truss: the K4s share edge (2,3), so triangle connectivity fuses
        // them into a single 2-truss spanning all six clique vertices.
        let e01 = engine.graph().edge_id(0, 1).unwrap() as usize;
        let rt = engine.region_of(SpaceSel::Truss, e01).unwrap();
        assert_eq!(rt.k, 2);
        assert_eq!(rt.vertices, vec![0, 1, 2, 3, 4, 5]);
        let nuclei = engine.nuclei_at(SpaceSel::Truss, 2).unwrap();
        assert_eq!(nuclei.len(), 1);
        let drill = engine.node_region(SpaceSel::Truss, nuclei[0].node).unwrap();
        assert_eq!(drill.vertices.len(), 6);
        // The (3,4) nuclei do NOT merge across the shared edge (the
        // paper's Figure-3 point): two 1-(3,4) nuclei.
        let n34 = engine.nuclei_at(SpaceSel::Nucleus34, 1).unwrap();
        assert_eq!(n34.len(), 2);
    }

    #[test]
    fn updates_keep_every_space_exact() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.6, 17);
        let mut engine = Engine::new(g, &full_config());
        for round in 0..3u32 {
            let rm: Vec<(u32, u32)> = engine
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize * 2)
                .step_by(37)
                .take(3)
                .collect();
            let ins: Vec<(u32, u32)> =
                (0..3).map(|i| (round * 5 + i, (round * 9 + 2 * i + 33) % 80)).collect();
            let report = engine.update(&ins, &rm);
            assert_eq!(report.spaces.len(), 3);
            let g2 = engine.graph().clone();
            assert_eq!(
                *engine.view().state(SpaceSel::Core).unwrap().kappa,
                peel(&CoreSpace::new(&g2)).kappa
            );
            assert_eq!(
                *engine.view().state(SpaceSel::Truss).unwrap().kappa,
                peel(&TrussSpace::precomputed(&g2)).kappa
            );
            assert_eq!(
                *engine.view().state(SpaceSel::Nucleus34).unwrap().kappa,
                peel(&Nucleus34Space::precomputed(&g2)).kappa
            );
            // Region queries still work against the refreshed state.
            let _ = engine.region_of(SpaceSel::Core, 0).unwrap();
        }
        assert_eq!(engine.stats().updates_applied, 3);
    }

    #[test]
    fn updates_repair_resident_hierarchies_instead_of_invalidating() {
        let g = hdsd_datasets::holme_kim(90, 4, 0.5, 41);
        let mut engine = Engine::new(g, &full_config());
        // Make every hierarchy resident, then update: the forests must
        // stay resident (repaired, not dropped) and match cold rebuilds.
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let _ = engine.nuclei_at(sel, 1).unwrap();
        }
        for round in 0..3u32 {
            let rm: Vec<(u32, u32)> = engine
                .graph()
                .edges()
                .iter()
                .copied()
                .skip(round as usize)
                .step_by(31)
                .take(3)
                .collect();
            let ins: Vec<(u32, u32)> =
                (0..3).map(|i| (round * 7 + i, (round * 13 + 3 * i + 40) % 90)).collect();
            let report = engine.update(&ins, &rm);
            for s in &report.spaces {
                assert!(
                    s.hierarchy_repair.is_some(),
                    "{}: resident hierarchy was not repaired",
                    s.space
                );
            }
            for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
                let view = engine.view();
                let st = view.state(sel).unwrap();
                let hi = st.hierarchy.get().expect("hierarchy must stay resident");
                hdsd_nucleus::assert_forest_eq(
                    &hi.forest,
                    &build_hierarchy(st.cached.as_ref(), &st.kappa),
                );
                // The inverted index matches the repaired forest.
                assert_eq!(*hi.node_of, hi.forest.clique_to_node(st.cached.num_cliques()));
            }
        }
        assert!(engine.stats().spaces.iter().all(|s| s.hierarchy_resident));
    }

    /// Checks every `region_of` and `node_region` answer of the current
    /// epoch against a brute-force reference over that epoch's graph and
    /// resident forest: member cliques → vertices → sort → dedup, and the
    /// induced subgraph those vertices span.
    fn assert_regions_match_reference(engine: &Engine) {
        let g = engine.graph();
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let forest = engine.hierarchy_of(sel).unwrap();
            let reference = |node: u32| {
                let mut verts = Vec::new();
                for c in forest.member_cliques(node) {
                    verts.extend(engine.clique_vertices(sel, c as usize).unwrap());
                }
                verts.sort_unstable();
                verts.dedup();
                let sub = hdsd_graph::induced_subgraph(g, &verts);
                (verts, sub.graph.num_edges(), hdsd_graph::density(&sub.graph))
            };
            let check = |r: RegionReport, node: u32| {
                let (verts, edges, density) = reference(node);
                assert_eq!(r.node, node);
                assert_eq!(r.k, forest.nodes[node as usize].k);
                assert_eq!(r.size, forest.nodes[node as usize].size);
                assert_eq!(r.density.vertices, verts.len(), "{sel:?} node {node}");
                assert_eq!(r.vertices, verts, "{sel:?} node {node}");
                assert_eq!(r.density.edges, edges, "{sel:?} node {node}");
                assert_eq!(r.density.density.to_bits(), density.to_bits(), "{sel:?} node {node}");
            };
            let node_of = forest.clique_to_node(engine.num_cliques(sel).unwrap());
            for (id, &node) in node_of.iter().enumerate() {
                match engine.region_of(sel, id) {
                    Ok(r) => check(r, node),
                    Err(e) => assert_eq!(node, u32::MAX, "{sel:?} clique {id}: {e}"),
                }
            }
            for node in 0..forest.len() as u32 {
                check(engine.node_region(sel, node).unwrap(), node);
            }
        }
    }

    #[test]
    fn regions_match_the_reference_in_every_epoch() {
        let g = hdsd_datasets::holme_kim(100, 4, 0.5, 23);
        let n = g.num_vertices() as u32;
        let mut engine = Engine::new(g, &full_config());
        assert_regions_match_reference(&engine);
        let clique = |vs: &[u32]| -> Vec<(u32, u32)> {
            let mut out = Vec::new();
            for (i, &u) in vs.iter().enumerate() {
                out.extend(vs[i + 1..].iter().map(|&v| (u, v)));
            }
            out
        };
        // Edits inside the graph, then two batches that grow it past the
        // old `n` (the second past a 64-vertex word boundary) with a K5 and
        // a K4 hung off old vertices, then removals that cut into both.
        let mut grow = clique(&[n, n + 1, n + 2, n + 3, n + 4]);
        grow.extend([(0, n), (1, n), (0, n + 1)]);
        let mut grow_more = clique(&[n + 30, n + 31, n + 32, n + 33]);
        grow_more.extend([(n + 4, n + 30), (n + 2, n + 31)]);
        let batches = [
            (
                vec![(2, 40), (3, 41), (2, 41)],
                engine.graph().edges()[5..40].iter().step_by(11).copied().collect(),
            ),
            (grow, vec![]),
            (grow_more, vec![(0, n)]),
            (vec![(5, 60)], vec![(n, n + 1), (n + 30, n + 31)]),
        ];
        for (ins, rm) in batches {
            let before = engine.graph().num_vertices();
            engine.update(&ins, &rm);
            assert!(engine.graph().num_vertices() >= before);
            assert_regions_match_reference(&engine);
        }
        assert!(engine.graph().num_vertices() as u32 > n + 33);
        assert_eq!(engine.stats().updates_applied, 4);
    }

    #[test]
    fn noop_batches_share_the_previous_epoch() {
        let g = hdsd_datasets::holme_kim(60, 4, 0.5, 8);
        let n = g.num_vertices() as u32;
        let present = g.edges()[3];
        let mut engine = Engine::new(g, &full_config());
        let _ = engine.nuclei_at(SpaceSel::Truss, 1).unwrap();
        let old = engine.view();
        // A present edge, a self-loop and an absent removal change nothing.
        let report = engine.update(&[present, (5, 5)], &[(n + 3, n + 4)]);
        assert_eq!((report.inserted, report.removed, report.hierarchy_repair_us), (0, 0, 0));
        for s in &report.spaces {
            assert_eq!((s.processed, s.awake, s.splice_us, s.refresh_us), (0, 0, 0, 0));
            assert!(s.hierarchy_repair.is_none());
        }
        let new = engine.view();
        assert_eq!(new.stats().updates_applied, old.stats().updates_applied + 1);
        assert!(Arc::ptr_eq(&old.graph, &new.graph));
        for (a, b) in old.spaces.iter().zip(&new.spaces) {
            assert!(Arc::ptr_eq(&a.cached, &b.cached), "{}", a.sel.name());
            assert!(Arc::ptr_eq(&a.kappa, &b.kappa), "{}", a.sel.name());
            match (a.hierarchy.get(), b.hierarchy.get()) {
                (Some(x), Some(y)) => {
                    assert!(Arc::ptr_eq(&x.forest, &y.forest));
                    assert!(Arc::ptr_eq(&x.node_of, &y.node_of));
                }
                (None, None) => {}
                _ => panic!("{}: hierarchy residency changed", a.sel.name()),
            }
        }
        // An insert naming a new vertex id grows the vertex set even when
        // its edge is dropped: that goes the long way and stays exact.
        let report = engine.update(&[(n + 1, n + 1)], &[]);
        assert_eq!((report.inserted, report.removed), (0, 0));
        assert_eq!(engine.graph().num_vertices() as u32, n + 2);
        assert_eq!(report.spaces[0].processed, u64::from(n) + 2);
        assert_eq!(engine.kappa_of(SpaceSel::Core, n as usize + 1), Ok(0));
    }

    #[test]
    fn a_tripped_update_leaves_the_old_view_published() {
        let g = hdsd_datasets::holme_kim(3000, 4, 0.5, 8);
        let mut engine = Engine::new(g, &full_config());
        let before = engine.view();
        // Probe 1 is "before update"; every later one is the peel's, once
        // per PEEL_CANCEL_CHUNK items — the second trips inside the core
        // peel, the fourth inside the truss peel (3000 vertices are three
        // probes).
        for nth in [2, 4, 5] {
            let err = engine
                .update_within(
                    &[(0, 1500), (1, 1501)],
                    &[],
                    &CancelToken::tripping_after_checks(nth),
                )
                .unwrap_err();
            assert_eq!(err.stage, "peel drain", "probe {nth}");
            assert!(Arc::ptr_eq(&before, &engine.view()), "probe {nth} published something");
        }
        assert_eq!(engine.stats().updates_applied, 0);
        // The same batch under a token that never trips applies.
        engine.update_within(&[(0, 1500), (1, 1501)], &[], &CancelToken::none()).unwrap();
        assert_eq!(engine.stats().updates_applied, 1);
        assert!(!Arc::ptr_eq(&before, &engine.view()));
    }

    #[test]
    fn updates_skip_repair_when_no_hierarchy_is_resident() {
        let g = hdsd_datasets::holme_kim(60, 4, 0.5, 8);
        let mut engine = Engine::new(g, &full_config());
        let report = engine.update(&[(0, 30)], &[]);
        assert_eq!(report.hierarchy_repair_us, 0);
        assert!(report.spaces.iter().all(|s| s.hierarchy_repair.is_none()));
        // Lazily built afterwards, the hierarchy serves the updated graph.
        let r = engine.region_of(SpaceSel::Core, 0).unwrap();
        assert!(r.k >= 1);
    }

    #[test]
    fn empty_graph_queries_return_stable_responses() {
        let g = hdsd_graph::graph_from_edges([]);
        let engine = Engine::new(g, &full_config());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            assert!(engine.nuclei_at(sel, 1).unwrap().is_empty());
            assert!(engine.region_of(sel, 0).unwrap_err().contains("out of range"));
            assert!(engine.node_region(sel, 0).unwrap_err().contains("out of range"));
        }
        // The early returns never materialized a trivial index.
        assert!(engine.stats().spaces.iter().all(|s| !s.hierarchy_resident));
    }

    #[test]
    fn snapshot_restore_adopts_the_persisted_clique_index() {
        let g = hdsd_datasets::holme_kim(70, 4, 0.5, 51);
        let engine = Engine::new(g, &full_config());
        let _ = engine.region_of(SpaceSel::Truss, 0).unwrap();
        let snap = engine.to_snapshot();
        for sp in &snap.spaces {
            let node_of = sp.node_of.as_deref().expect("v3 snapshots carry the index");
            assert_eq!(node_of, &sp.hierarchy.as_ref().unwrap().clique_to_node(sp.kappa.len()));
        }
        let back = Engine::from_snapshot(snap, LocalConfig::sequential()).unwrap();
        let (ev, bv) = (engine.view(), back.view());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let (a, b) = (ev.state(sel).unwrap(), bv.state(sel).unwrap());
            assert_eq!(
                a.hierarchy.get().unwrap().node_of,
                b.hierarchy.get().unwrap().node_of,
                "{}",
                sel.name()
            );
        }
    }

    #[test]
    fn stats_split_cold_start_into_build_and_peel() {
        // Large enough that every space's build and peel cross the 1 µs
        // timer resolution.
        let g = hdsd_datasets::holme_kim(1500, 6, 0.5, 29);
        let engine = Engine::new(g, &full_config());
        let fresh = engine.stats();
        assert!(fresh.spaces.iter().all(|s| s.build_us > 0), "{fresh:?}");
        assert!(fresh.spaces.iter().all(|s| s.peel_us > 0), "{fresh:?}");
        // A restored engine re-materializes spaces (build_us measured) but
        // adopts κ — the whole point of snapshots — so peel_us is 0.
        let snap = engine.to_snapshot();
        let back = Engine::from_snapshot(snap, LocalConfig::sequential()).unwrap();
        let restored = back.stats();
        assert!(restored.spaces.iter().all(|s| s.build_us > 0), "{restored:?}");
        assert!(restored.spaces.iter().all(|s| s.peel_us == 0), "{restored:?}");
    }

    #[test]
    fn snapshot_restore_preserves_answers() {
        let g = hdsd_datasets::holme_kim(100, 4, 0.5, 23);
        let mut engine = Engine::new(g, &full_config());
        engine.update(&[(0, 50), (1, 51)], &[]);
        let _ = engine.region_of(SpaceSel::Core, 0).unwrap();
        let snap = engine.to_snapshot();
        let mut back = Engine::from_snapshot(snap, LocalConfig::sequential()).unwrap();
        assert_eq!(back.graph().edges(), engine.graph().edges());
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            assert_eq!(
                back.view().state(sel).unwrap().kappa,
                engine.view().state(sel).unwrap().kappa,
                "{}",
                sel.name()
            );
            // Hierarchies were serialized resident.
            assert!(back.view().state(sel).unwrap().hierarchy.get().is_some());
        }
        // And the restored engine keeps serving + updating.
        let r = back.region_of(SpaceSel::Core, 0).unwrap();
        assert_eq!(r.vertices, engine.region_of(SpaceSel::Core, 0).unwrap().vertices);
        back.update(&[(2, 60)], &[]);
        let g2 = back.graph().clone();
        assert_eq!(
            *back.view().state(SpaceSel::Core).unwrap().kappa,
            peel(&CoreSpace::new(&g2)).kappa
        );
    }

    #[test]
    fn old_views_survive_updates_bit_identically() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.5, 13);
        let mut engine = Engine::new(g, &full_config());
        let old = engine.view();
        let old_kappa: Vec<u32> = old.kappa_vector(SpaceSel::Truss).unwrap().to_vec();
        let old_edges = old.graph().num_edges();
        engine.update(&[(0, 40), (1, 41)], &[]);
        engine.update(&[(2, 42)], &[]);
        // The pinned view still answers from its own epoch.
        assert_eq!(old.kappa_vector(SpaceSel::Truss).unwrap(), &old_kappa[..]);
        assert_eq!(old.graph().num_edges(), old_edges);
        assert_eq!(old.stats().updates_applied, 0);
        assert_eq!(engine.stats().updates_applied, 2);
        assert_ne!(engine.graph().num_edges(), old_edges);
    }
}

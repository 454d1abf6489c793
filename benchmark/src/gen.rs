//! Seeded inputs: graphs, request streams and arrival schedules.
//!
//! Everything the program under test sees is generated here from the
//! run's `--seed`; the same seed gives byte-identical files and request
//! lines (their hashes are printed with every result).

use std::collections::{HashMap, HashSet};

use hdsd_graph::CsrGraph;
use hdsd_service::{Engine, SpaceSel};

/// The three resident spaces, in the order the report lists them.
pub const SPACES: [SpaceSel; 3] = [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34];
/// Short per-space suffix used in metric names.
pub const SPACE_KEYS: [&str; 3] = ["core", "truss", "n34"];

/// SplitMix64 stream (the constants every generator in this repository shares).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per purpose by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "draw from an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw from `(0, 1]` (never 0, so its logarithm is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream: the fingerprint printed for inputs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty fingerprint.
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a request stream (lines joined by `\n`).
pub fn hash_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for line in lines {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    h.finish()
}

/// The serving / decomposition input: `holme_kim(n, 8, 0.5, seed)`.
pub fn graph(n: u32, seed: u64) -> CsrGraph {
    hdsd_datasets::holme_kim(n, 8, 0.5, seed)
}

/// Seeded Poisson arrivals at `rate` per second over `seconds`: the due
/// time of each request as an offset from the start of the phase.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// What the oracle must find in the reply to a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Exact κ of clique `id` of space `space` (index into [`SPACES`]).
    Kappa { space: usize, id: usize },
    /// A Theorem-1 interval around κ of the clique.
    Estimate { space: usize, id: usize },
    /// `EngineView::region_of` of the clique.
    Region { space: usize, id: usize },
    /// `EngineView::nuclei_at` at threshold `k`.
    Nuclei { space: usize, k: u32 },
    /// `EngineView::node_region` of the hierarchy node.
    Node { space: usize, node: u32 },
}

impl Expect {
    /// The protocol op this expectation belongs to.
    pub fn op(&self) -> &'static str {
        match self {
            Expect::Kappa { .. } => "kappa",
            Expect::Estimate { .. } => "estimate",
            Expect::Region { .. } => "region",
            Expect::Nuclei { .. } => "nuclei",
            Expect::Node { .. } => "node",
        }
    }
}

/// One generated request: the line sent and what must come back.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The JSON request line (no trailing newline).
    pub line: String,
    /// What the oracle checks in the reply.
    pub expect: Expect,
}

fn vertices_json(vs: &[u32]) -> String {
    let parts: Vec<String> = vs.iter().map(u32::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn kappa_request(oracle: &Engine, space: usize, id: usize, by_vertices: bool) -> Request {
    let name = SPACES[space].name();
    let line = if by_vertices {
        let vs = oracle.clique_vertices(SPACES[space], id).expect("id drawn below num_cliques");
        format!("{{\"op\":\"kappa\",\"space\":\"{name}\",\"vertices\":{}}}", vertices_json(&vs))
    } else {
        format!("{{\"op\":\"kappa\",\"space\":\"{name}\",\"id\":{id}}}")
    };
    Request { line, expect: Expect::Kappa { space, id } }
}

/// `serve_point` stream: `kappa`, space uniform over core/truss/34, half
/// addressed by id and half by vertices.
pub fn point_requests(oracle: &Engine, rng: &mut Rng, count: usize) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let space = rng.below(3);
            let n = oracle.num_cliques(SPACES[space]).expect("oracle holds all three spaces");
            let id = rng.below(n);
            kappa_request(oracle, space, id, rng.below(2) == 1)
        })
        .collect()
}

/// Per space: what the analytic stream draws from, each list sorted by
/// the size of the answer so that draws can be spread evenly over it.
pub struct AnalyticTargets {
    /// Cliques that sit in some nucleus (so `region` answers), ascending
    /// by the size of the nucleus they resolve to.
    in_nucleus: [Vec<u32>; 3],
    /// Hierarchy nodes, ascending by size.
    nodes: [Vec<u32>; 3],
    /// `k` sent with `nuclei`: the median of the space's distinct κ levels.
    pub median_level: [u32; 3],
}

impl AnalyticTargets {
    /// Reads the targets off the oracle (builds its hierarchies).
    pub fn new(oracle: &Engine) -> AnalyticTargets {
        let mut t = AnalyticTargets {
            in_nucleus: Default::default(),
            nodes: Default::default(),
            median_level: [0; 3],
        };
        for (s, &sel) in SPACES.iter().enumerate() {
            let forest = oracle.hierarchy_of(sel).expect("oracle holds all three spaces");
            let n = oracle.num_cliques(sel).expect("resident");
            let node_of = forest.clique_to_node(n);
            let size = |node: u32| forest.nodes[node as usize].size;
            t.in_nucleus[s] = (0..n as u32).filter(|&c| node_of[c as usize] != u32::MAX).collect();
            t.in_nucleus[s].sort_by_key(|&c| (size(node_of[c as usize]), c));
            t.nodes[s] = (0..forest.len() as u32).collect();
            t.nodes[s].sort_by_key(|&node| (size(node), node));
            let mut levels = oracle.kappa_vector(sel).expect("resident").to_vec();
            levels.sort_unstable();
            levels.dedup();
            levels.retain(|&k| k > 0);
            t.median_level[s] = levels.get(levels.len() / 2).copied().unwrap_or(1);
        }
        t
    }
}

/// What every generated `estimate` asks for: 3 iterations, 1024 cliques explored at most.
pub const ESTIMATE: hdsd_nucleus::QueryOptions = hdsd_nucleus::QueryOptions {
    iterations: 3,
    budget: Some(1024),
    lower_bound: true,
    deadline: None,
};

/// Draw `i` of `count` spread evenly over `sorted`: uniform within the
/// `i`-th of `count` equal strata. Over all `i` this is a uniform sample
/// of the list, but two seeds' samples cover the range of answer sizes
/// alike, so the heavy tail (one giant nucleus, thousands of tiny ones)
/// weighs the same in every run.
fn stratified(sorted: &[u32], i: usize, count: usize, rng: &mut Rng) -> u32 {
    let at = (i as f64 + rng.unit()) * sorted.len() as f64 / count as f64;
    sorted[(at as usize).min(sorted.len() - 1)]
}

/// The `serve_analytic` pool, grouped by op: `count / 2` `estimate`
/// (core/truss, [`ESTIMATE`]), `3 count / 10` `region`, `count / 10`
/// `nuclei`, `count / 10` `node`, spaces in rotation. Region and node
/// targets are [`stratified`] by answer size.
pub fn analytic_pool(targets: &AnalyticTargets, rng: &mut Rng, count: usize) -> Vec<Request> {
    let (estimates, regions, nuclei, nodes) = (count / 2, count * 3 / 10, count / 10, count / 10);
    let mut pool = Vec::with_capacity(count);
    for i in 0..estimates {
        let space = i % 2;
        let list = &targets.in_nucleus[space];
        let id = list[rng.below(list.len())];
        pool.push(Request {
            line: format!(
                "{{\"op\":\"estimate\",\"space\":\"{}\",\"id\":{id},\"iterations\":{},\
                 \"budget\":{}}}",
                SPACES[space].name(),
                ESTIMATE.iterations,
                ESTIMATE.budget.expect("estimates are budgeted"),
            ),
            expect: Expect::Estimate { space, id: id as usize },
        });
    }
    for i in 0..regions {
        let space = i % 3;
        let id = stratified(&targets.in_nucleus[space], i / 3, regions.div_ceil(3), rng);
        pool.push(Request {
            line: format!(
                "{{\"op\":\"region\",\"space\":\"{}\",\"id\":{id}}}",
                SPACES[space].name()
            ),
            expect: Expect::Region { space, id: id as usize },
        });
    }
    for i in 0..nuclei {
        let space = i % 3;
        let k = targets.median_level[space];
        pool.push(Request {
            line: format!("{{\"op\":\"nuclei\",\"space\":\"{}\",\"k\":{k}}}", SPACES[space].name()),
            expect: Expect::Nuclei { space, k },
        });
    }
    for i in 0..nodes {
        let space = i % 3;
        let node = stratified(&targets.nodes[space], i / 3, nodes.div_ceil(3), rng);
        pool.push(Request {
            line: format!(
                "{{\"op\":\"node\",\"space\":\"{}\",\"node\":{node}}}",
                SPACES[space].name()
            ),
            expect: Expect::Node { space, node },
        });
    }
    pool
}

/// A seeded shuffle of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One `update` batch of the churn stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// Edges inserted (absent before the batch).
    pub insert: Vec<(u32, u32)>,
    /// Edges removed (present before the batch).
    pub remove: Vec<(u32, u32)>,
}

impl Batch {
    /// The `update` request line for this batch.
    pub fn line(&self) -> String {
        let pairs = |edges: &[(u32, u32)]| {
            let parts: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
            parts.join(",")
        };
        format!(
            "{{\"op\":\"update\",\"insert\":[{}],\"remove\":[{}]}}",
            pairs(&self.insert),
            pairs(&self.remove)
        )
    }
}

/// The `serve_churn` write stream plus the edge set it leaves behind.
pub struct ChurnStream {
    /// The batches, in the order connection A sends them.
    pub batches: Vec<Batch>,
    /// The edge set after the last batch (canonical `u < v`, sorted).
    pub final_edges: Vec<(u32, u32)>,
}

/// Removals and insertions per batch: 8 + 8 (4 triangle-closing, 4 uniform).
const BATCH_REMOVALS: usize = 8;
const BATCH_CLOSING: usize = 4;
const BATCH_UNIFORM: usize = 4;

fn canonical(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// The evolving edge set the churn generator tracks so that every removal
/// hits a present edge and every insertion an absent one.
struct EdgeSet {
    edges: Vec<(u32, u32)>,
    position: HashMap<(u32, u32), usize>,
    adjacency: Vec<Vec<u32>>,
}

impl EdgeSet {
    fn new(g: &CsrGraph) -> EdgeSet {
        let edges = g.edges().to_vec();
        let position = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let adjacency = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
        EdgeSet { edges, position, adjacency }
    }

    fn contains(&self, e: (u32, u32)) -> bool {
        self.position.contains_key(&e)
    }

    fn insert(&mut self, e: (u32, u32)) {
        self.position.insert(e, self.edges.len());
        self.edges.push(e);
        self.adjacency[e.0 as usize].push(e.1);
        self.adjacency[e.1 as usize].push(e.0);
    }

    fn remove(&mut self, e: (u32, u32)) {
        let i = self.position.remove(&e).expect("removal of a present edge");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.position.insert(moved, i);
        }
        for (a, b) in [(e.0, e.1), (e.1, e.0)] {
            let row = &mut self.adjacency[a as usize];
            let at = row.iter().position(|&x| x == b).expect("adjacency mirrors the edge set");
            row.swap_remove(at);
        }
    }
}

/// Generates `count` churn batches over `g`, never removing an edge in
/// `protected` (the edges under the cliques connection B reads).
pub fn churn_stream(
    g: &CsrGraph,
    protected: &HashSet<(u32, u32)>,
    rng: &mut Rng,
    count: usize,
) -> ChurnStream {
    let n = g.num_vertices();
    let mut set = EdgeSet::new(g);
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let mut remove: Vec<(u32, u32)> = Vec::with_capacity(BATCH_REMOVALS);
        while remove.len() < BATCH_REMOVALS {
            let e = set.edges[rng.below(set.edges.len())];
            if !protected.contains(&e) && !remove.contains(&e) {
                remove.push(e);
            }
        }
        let mut insert: Vec<(u32, u32)> = Vec::with_capacity(BATCH_CLOSING + BATCH_UNIFORM);
        let mut attempts = 0;
        while insert.len() < BATCH_CLOSING + BATCH_UNIFORM {
            attempts += 1;
            // Triangle-closing first: two neighbours of one vertex. A vertex
            // with no open wedge falls through to a uniform pair.
            let closing = insert.len() < BATCH_CLOSING && attempts < 64;
            let e = if closing {
                let row = &set.adjacency[rng.below(n)];
                if row.len() < 2 {
                    continue;
                }
                canonical(row[rng.below(row.len())], row[rng.below(row.len())])
            } else {
                canonical(rng.below(n) as u32, rng.below(n) as u32)
            };
            if e.0 != e.1 && !set.contains(e) && !insert.contains(&e) && !remove.contains(&e) {
                insert.push(e);
            }
        }
        for &e in &remove {
            set.remove(e);
        }
        for &e in &insert {
            set.insert(e);
        }
        batches.push(Batch { insert, remove });
    }
    let mut final_edges = set.edges;
    final_edges.sort_unstable();
    ChurnStream { batches, final_edges }
}

/// A clique as `(space index, clique id)`.
pub type Target = (usize, usize);

/// Connection B's targets under churn: cliques addressed by vertices, and
/// the edges beneath them that the write stream must leave alone.
pub fn churn_read_targets(
    oracle: &Engine,
    rng: &mut Rng,
    per_space: usize,
) -> (Vec<Target>, HashSet<(u32, u32)>) {
    let mut targets = Vec::with_capacity(3 * per_space);
    let mut protected = HashSet::new();
    for (s, &sel) in SPACES.iter().enumerate() {
        let n = oracle.num_cliques(sel).expect("oracle holds all three spaces");
        for _ in 0..per_space {
            let id = rng.below(n);
            let vs = oracle.clique_vertices(sel, id).expect("id drawn below num_cliques");
            for (i, &u) in vs.iter().enumerate() {
                for &v in &vs[i + 1..] {
                    protected.insert(canonical(u, v));
                }
            }
            targets.push((s, id));
        }
    }
    (targets, protected)
}

/// Connection B's stream: `kappa` by vertices over the protected targets.
pub fn churn_read_requests(
    oracle: &Engine,
    targets: &[Target],
    rng: &mut Rng,
    count: usize,
) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let (space, id) = targets[rng.below(targets.len())];
            kappa_request(oracle, space, id, true)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_nucleus::LocalConfig;
    use hdsd_service::EngineConfig;

    fn oracle(seed: u64) -> Engine {
        let cfg = EngineConfig { spaces: SPACES.to_vec(), local: LocalConfig::sequential() };
        Engine::new(graph(400, seed), &cfg)
    }

    fn edge_list_bytes(g: &CsrGraph) -> Vec<u8> {
        // Next to the test binary: inside the build directory, like
        // everything else the benchmark writes.
        let exe = std::env::current_exe().unwrap();
        let path = exe.with_file_name(format!(
            "edge-list-{}-{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        hdsd_graph::write_edge_list(g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    fn all_streams(seed: u64) -> Vec<String> {
        let o = oracle(seed);
        let mut lines: Vec<String> =
            point_requests(&o, &mut Rng::new(seed, 1), 200).into_iter().map(|r| r.line).collect();
        let targets = AnalyticTargets::new(&o);
        lines.extend(
            analytic_pool(&targets, &mut Rng::new(seed, 2), 200).into_iter().map(|r| r.line),
        );
        let (reads, protected) = churn_read_targets(&o, &mut Rng::new(seed, 3), 20);
        lines.extend(
            churn_read_requests(&o, &reads, &mut Rng::new(seed, 4), 100)
                .into_iter()
                .map(|r| r.line),
        );
        let stream = churn_stream(o.graph(), &protected, &mut Rng::new(seed, 5), 20);
        lines.extend(stream.batches.iter().map(Batch::line));
        lines
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(edge_list_bytes(&graph(400, 7)), edge_list_bytes(&graph(400, 7)));
        assert_ne!(edge_list_bytes(&graph(400, 7)), edge_list_bytes(&graph(400, 8)));
        let (a, b, c) = (all_streams(7), all_streams(7), all_streams(8));
        assert_eq!(a, b);
        assert_eq!(
            hash_lines(a.iter().map(String::as_str)),
            hash_lines(b.iter().map(String::as_str))
        );
        assert_ne!(
            hash_lines(a.iter().map(String::as_str)),
            hash_lines(c.iter().map(String::as_str))
        );
    }

    #[test]
    fn analytic_pool_has_a_fixed_mix_and_covers_every_answer_size() {
        let o = oracle(5);
        let targets = AnalyticTargets::new(&o);
        let pool = analytic_pool(&targets, &mut Rng::new(5, 2), 200);
        let count = |op: &str| pool.iter().filter(|r| r.expect.op() == op).count();
        assert_eq!(
            (count("estimate"), count("region"), count("nuclei"), count("node")),
            (100, 60, 20, 20)
        );
        // Stratified draws walk the list in order: stratum by stratum.
        let sorted: Vec<u32> = (0..1000).collect();
        let mut rng = Rng::new(5, 3);
        let draws: Vec<u32> = (0..10).map(|i| stratified(&sorted, i, 10, &mut rng)).collect();
        for (i, &d) in draws.iter().enumerate() {
            assert!((i as u32 * 100..(i as u32 + 1) * 100).contains(&d), "draw {i} = {d}");
        }
        let mut order = shuffled(50, &mut rng);
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_schedule_meets_its_rate_within_two_percent() {
        for (seed, rate) in [(1u64, 2000.0), (2, 1000.0), (3, 500.0), (4, 100.0)] {
            let seconds = 100_000.0 / rate;
            let due = poisson_schedule(&mut Rng::new(seed, 9), rate, seconds);
            let achieved = due.len() as f64 / seconds;
            assert!((achieved / rate - 1.0).abs() < 0.02, "rate {rate}: achieved {achieved}");
            assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
            assert!(due.last().is_some_and(|&t| t < seconds));
        }
    }

    #[test]
    fn churn_batches_are_applicable_and_spare_protected_edges() {
        let o = oracle(11);
        let (_, protected) = churn_read_targets(&o, &mut Rng::new(11, 3), 10);
        let stream = churn_stream(o.graph(), &protected, &mut Rng::new(11, 5), 30);
        let mut present: HashSet<(u32, u32)> = o.graph().edges().iter().copied().collect();
        for b in &stream.batches {
            assert_eq!((b.remove.len(), b.insert.len()), (8, 8));
            for e in &b.remove {
                assert!(!protected.contains(e), "protected edge {e:?} removed");
                assert!(present.remove(e), "removal of absent edge {e:?}");
            }
            for e in &b.insert {
                assert!(e.0 < e.1 && present.insert(*e), "insertion of present edge {e:?}");
            }
        }
        let mut expected: Vec<(u32, u32)> = present.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(stream.final_edges, expected);
    }
}

#![warn(missing_docs)]
//! # hdsd — Hierarchical Dense Subgraph Discovery
//!
//! A production-quality Rust implementation of
//! *"Local Algorithms for Hierarchical Dense Subgraph Discovery"*
//! (Sarıyüce, Seshadhri, Pinar — PVLDB 12(1), 2018).
//!
//! The crate re-exports the full workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR graphs, builders, I/O, triangles, 4-cliques |
//! | [`hindex`] | linear-time h-index kernels |
//! | [`parallel`] | scoped-thread runtime with dynamic scheduling |
//! | [`metrics`] | Kendall-Tau, Spearman, error statistics |
//! | [`datasets`] | seeded generators + the paper's dataset registry |
//! | [`nucleus`] | peeling, Snd, And, degree levels, hierarchy, queries |
//!
//! ## What this implements
//!
//! A **k-(r,s) nucleus** generalizes k-cores (r=1, s=2) and k-trusses
//! (r=2, s=3): it is a maximal S-connected union of s-cliques in which
//! every r-clique participates in at least `k` s-cliques. The **κ index**
//! of an r-clique is the largest such `k`. The paper's contribution —
//! reproduced here — is a family of *local* algorithms that converge to
//! the exact κ indices by iterating h-index computations on neighborhood
//! values, enabling parallelism, approximation with per-iteration
//! guarantees, and query-driven evaluation, none of which global peeling
//! supports.
//!
//! ## Quick start
//!
//! ```
//! use hdsd::prelude::*;
//!
//! // Build a graph: two 4-cliques sharing an edge.
//! let g = hdsd::graph::graph_from_edges([
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
//!     (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
//! ]);
//!
//! // Exact truss decomposition by local iteration:
//! let space = TrussSpace::precomputed(&g);
//! let local = snd(&space, &LocalConfig::default());
//! let exact = peel(&space);
//! assert_eq!(local.tau, exact.kappa);
//!
//! // Hierarchy of dense subgraphs:
//! let forest = build_hierarchy(&space, &exact.kappa);
//! assert!(!forest.is_empty());
//! ```

pub use hdsd_datasets as datasets;
pub use hdsd_graph as graph;
pub use hdsd_hindex as hindex;
pub use hdsd_metrics as metrics;
pub use hdsd_nucleus as nucleus;
pub use hdsd_parallel as parallel;

/// Convenient top-level imports.
pub mod prelude {
    pub use hdsd_graph::{CsrGraph, GraphBuilder};
    pub use hdsd_nucleus::{
        and, and_opts, build_hierarchy, degree_levels, estimate_core_numbers,
        estimate_truss_numbers, local_estimate, peel, peel_parallel, snd, snd_with_observer,
        AndOptions, CachedSpace, CliqueSpace, ConvergenceResult, CoreSpace, LocalConfig,
        Nucleus34Space, Order, SweepMode, TrussSpace,
    };
    pub use hdsd_parallel::{ParallelConfig, SchedulerStats};
}

#![warn(missing_docs)]
//! # hdsd-nucleus
//!
//! Local algorithms for hierarchical dense subgraph discovery — a faithful
//! implementation of Sarıyüce, Seshadhri & Pinar (PVLDB 12(1), 2018).
//!
//! A **k-(r,s) nucleus** is a maximal union of s-cliques in which every
//! r-clique participates in at least `k` s-cliques (and the r-cliques are
//! S-connected). Setting (r,s) = (1,2) gives k-cores, (2,3) gives k-trusses,
//! and (3,4) gives the nucleus decomposition the paper showcases. The
//! **κ index** of an r-clique is the largest `k` for which it belongs to a
//! k-(r,s) nucleus.
//!
//! Three ways to compute κ:
//!
//! * [`peel()`] — exact global peeling (Algorithm 1), the baseline;
//! * [`snd()`] — synchronous iterated h-indices (Algorithm 2), local and
//!   embarrassingly parallel;
//! * [`and()`] — asynchronous iterated h-indices (Algorithm 3), converges
//!   faster, supports the notification mechanism and custom orders.
//!
//! Plus the surrounding machinery the paper's evaluation exercises:
//! degree levels and the Theorem-3 convergence bound ([`levels`]), the
//! nucleus hierarchy/forest ([`hierarchy`]), query-driven local estimation
//! ([`query`]), the edge-batch update step — splice, peel, forest repair —
//! that the serving engine runs ([`update`]), and the toy graphs from the
//! paper's figures ([`toys`]).
//!
//! ## Quick start
//!
//! ```
//! use hdsd_nucleus::prelude::*;
//! use hdsd_graph::graph_from_edges;
//!
//! // Two K4s sharing an edge, plus a tail.
//! let g = graph_from_edges([
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
//!     (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6),
//! ]);
//! let core = CoreSpace::new(&g);
//! let exact = peel(&core);                       // ground truth
//! let local = snd(&core, &LocalConfig::default()); // local algorithm
//! assert_eq!(local.tau, exact.kappa);
//! ```

pub mod api;
pub mod asynchronous;
pub mod cancel;
pub mod convergence;
pub mod delta;
pub mod export;
pub mod hierarchy;
pub mod levels;
pub mod peel;
pub mod query;
pub mod snd;
pub mod space;
pub mod toys;
pub mod update;

pub use api::{
    core_numbers, densest_nucleus, maximum_core_of, maximum_truss_of, nucleus34_numbers,
    truss_numbers,
};
pub use asynchronous::{and, and_opts, AndOptions, Order};
pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use convergence::{
    ConvergenceResult, IterationEvent, LocalConfig, SweepMode, DEFAULT_CONTAINER_CACHE_BUDGET,
};
pub use delta::{space_delta, SpaceDelta};
pub use export::{
    read_snapshot, write_hierarchy_dot, write_kappa_tsv, write_snapshot, Snapshot, SpaceSnapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_MIN_VERSION, SNAPSHOT_VERSION,
};
pub use hierarchy::{
    assert_forest_eq, build_hierarchy, build_hierarchy_within, repair_hierarchy, Hierarchy,
    HierarchyNode, RepairStats,
};
pub use levels::{degree_levels, DegreeLevels};
pub use peel::{
    peel, peel_flat, peel_parallel, peel_walk, DrainStats, PeelCancelled, PeelEngine, PeelResult,
    PeelStats, PEEL_CANCEL_CHUNK,
};
pub use query::{
    estimate_core_numbers, estimate_truss_numbers, local_estimate, local_estimate_opts,
    QueryEstimate, QueryOptions,
};
pub use snd::{snd, snd_with_observer};
pub use space::{CachedSpace, CliqueSpace, CoreSpace, FlatContainers, Nucleus34Space, TrussSpace};
pub use update::{rebuild_graph, refresh_kappa, update_space, GraphStep, SpaceSel, SpaceStep};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::api::{core_numbers, densest_nucleus, truss_numbers};
    pub use crate::asynchronous::{and, Order};
    pub use crate::convergence::{ConvergenceResult, LocalConfig, SweepMode};
    pub use crate::hierarchy::build_hierarchy;
    pub use crate::levels::degree_levels;
    pub use crate::peel::peel;
    pub use crate::snd::snd;
    pub use crate::space::{CachedSpace, CliqueSpace, CoreSpace, Nucleus34Space, TrussSpace};
}

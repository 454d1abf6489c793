#![warn(missing_docs)]
//! # hdsd-graph
//!
//! Compact graph substrate for hierarchical dense subgraph discovery.
//!
//! This crate provides the data structures that every algorithm in the
//! workspace is built on:
//!
//! * [`CsrGraph`] — an immutable, undirected simple graph in compressed
//!   sparse row form with stable *edge identifiers* (needed because k-truss
//!   assigns indices to edges, not vertices).
//! * [`GraphBuilder`] — deduplicating, self-loop-removing builder.
//! * [`orientation`] — degree and degeneracy orders and the oriented (DAG)
//!   view used for triangle / 4-clique enumeration without double counting,
//!   built in linear time and shareable between enumerators.
//! * [`cliques`] — the one k-clique lister: a depth-first walk over an
//!   orientation with a marked root out-list and depth labels below it.
//! * [`triangles`] — per-edge triangle counts and a materialized triangle
//!   list with edge-aligned incidence (the (2,3) substrate): the lister's
//!   k = 3 cliques, numbered canonically by counting sort.
//! * [`cliques4`] — per-triangle 4-clique counts and the K4 list (the (3,4)
//!   substrate): the lister's k = 4 cliques over the same orientation.
//! * [`delta`] — incremental maintenance: apply a mixed edge batch to an
//!   existing CSR by adjacency splicing, with stable edge-id remaps.
//! * [`io`] — SNAP-style edge-list reader/writer so the paper's original
//!   datasets can be dropped in unchanged.
//!
//! Vertices are `u32` ids, dense in `0..n`. Edges are `u32` ids, dense in
//! `0..m`, with canonical endpoints `(u, v)`, `u < v`.

pub mod builder;
pub mod cliques;
pub mod cliques4;
pub mod components;
pub mod csr;
pub mod delta;
pub mod io;
pub mod orientation;
pub mod subgraph;
pub mod triangles;

pub use builder::{csr_from_canonical_edges, graph_from_edges, GraphBuilder};
pub use cliques::for_each_clique;
pub use cliques4::{count_k4_per_triangle, total_k4, try_for_each_k4_of_triangle, K4List};
pub use components::{connected_components, ComponentLabels};
pub use csr::{CsrGraph, EdgeId, VertexId};
pub use delta::{apply_edge_batch, CsrDelta, NO_ID};
pub use io::{read_edge_list, read_graph_binary, write_edge_list, write_graph_binary};
pub use orientation::{degeneracy_order, degree_order, Orientation, VertexOrder};
pub use subgraph::{density, density_of, induced_subgraph, InducedSubgraph};
pub use triangles::{count_triangles_per_edge, total_triangles, TriangleList};

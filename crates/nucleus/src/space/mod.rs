//! The `(r, s)` clique-space abstraction.
//!
//! A [`CliqueSpace`] presents a graph as the paper's hypergraph-like view:
//! a universe of **r-cliques** (the objects that receive κ indices) and, for
//! each r-clique, its **containers** — the s-cliques it participates in,
//! each exposed as the list of the *other* r-cliques inside that s-clique.
//! Peeling, Snd and And are generic over this trait, so one implementation
//! of each algorithm serves k-core (1,2), k-truss (2,3), the (3,4) nucleus
//! and every other (r, s): [`CachedSpace::from_graph`] builds any `r < s`
//! as owned flat rows from the one clique lister of `hdsd-graph`.
//!
//! The paper's ρ computation maps directly onto this interface:
//! `ρ(S, R) = min_{R' ⊂ S, R' ≠ R} τ(R')` is the minimum of `τ` over the
//! `others` slice passed to the container callback, and
//! `Uτ(R) = H({ρ(S, R)})` aggregates one ρ per container.

pub mod cached;
pub mod core12;
pub mod flat;
mod generic;
pub mod nucleus34;
mod rows;
pub mod truss23;

pub(crate) use cached::find_tuple;
pub use cached::CachedSpace;
pub use core12::CoreSpace;
pub use flat::{others_per_container, FlatContainers};
pub(crate) use generic::combinations;
pub use nucleus34::Nucleus34Space;
pub(crate) use rows::resolve_rows;
pub use truss23::TrussSpace;

use hdsd_graph::VertexId;
use hdsd_hindex::HBuffer;

/// Maximum `binom(s, r) - 1` that [`CachedSpace`]'s container walk serves
/// from a fixed-size buffer: (1,2) → 1, (2,3) → 2, (3,4) → 3. Wider spaces,
/// such as (2,4) → 5, walk through one heap buffer per call.
pub const MAX_OTHERS_INLINE: usize = 3;

/// A universe of r-cliques and their s-clique containers.
///
/// Implementations must be `Sync`: the parallel algorithms call
/// [`CliqueSpace::for_each_container`] concurrently from many threads with
/// distinct `i`.
pub trait CliqueSpace: Sync {
    /// Number of r-cliques (κ indices to compute).
    fn num_cliques(&self) -> usize;

    /// Initial S-degrees: `d_s(R)` for every r-clique, i.e. τ₀.
    fn initial_degrees(&self) -> Vec<u32>;

    /// S-degree of a single r-clique.
    fn degree(&self, i: usize) -> u32;

    /// Calls `f` once per s-clique containing r-clique `i`, passing the ids
    /// of the *other* r-cliques in that s-clique (length `binom(s,r) − 1`).
    /// Stops early when `f` returns [`std::ops::ControlFlow::Break`] — this
    /// is what makes the paper's §4.4 "preserve τ" early exit possible.
    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        f: F,
    ) -> std::ops::ControlFlow<()>;

    /// Calls `f` once per s-clique containing r-clique `i` (no early exit).
    fn for_each_container<F: FnMut(&[usize])>(&self, i: usize, mut f: F) {
        let _ = self.try_for_each_container(i, |others| {
            f(others);
            std::ops::ControlFlow::Continue(())
        });
    }

    /// Calls `f` for every r-clique sharing at least one s-clique with `i`.
    /// May repeat ids; callers needing distinct neighbors must dedupe.
    fn for_each_neighbor<F: FnMut(usize)>(&self, i: usize, mut f: F) {
        self.for_each_container(i, |others| {
            for &o in others {
                f(o);
            }
        });
    }

    /// The `r` of this decomposition (1 = vertices, 2 = edges, 3 = triangles).
    fn r(&self) -> usize;

    /// The `s` of this decomposition (2 = edges, 3 = triangles, 4 = K4s).
    fn s(&self) -> usize;

    /// Appends the vertices of r-clique `i` to `out` (used when
    /// materializing nuclei as vertex sets).
    fn vertices_of(&self, i: usize, out: &mut Vec<VertexId>);

    /// Short human-readable name for reports, e.g. `"(2,3) k-truss"`.
    fn name(&self) -> String {
        format!("({},{}) nucleus", self.r(), self.s())
    }

    /// The space's resident [`FlatContainers`], when its containers are
    /// *already* materialized in that layout ([`CachedSpace`] overrides
    /// this). Lets every kernel (peel, And, Snd) run its flat engine on the
    /// rows in place instead of re-walking them through the callback
    /// interface — and without building a second copy of arrays that
    /// already exist.
    fn as_flat(&self) -> Option<&FlatContainers> {
        None
    }
}

/// Uniform access layer for the hot sweep loops: the same Snd/And kernels
/// run against either a [`CliqueSpace`] callback walk ([`WalkAccess`]) or a
/// materialized [`FlatContainers`] cache ([`FlatAccess`]). Monomorphized —
/// no dynamic dispatch on the per-container path.
pub(crate) trait SweepAccess: Sync {
    /// Number of r-cliques.
    fn len(&self) -> usize;

    /// Initial τ values (the S-degrees).
    fn initial(&self) -> Vec<u32>;

    /// Recomputes `H({ρ(S, R_i)})` for r-clique `i` against the τ values
    /// served by `read`, after the §4.4 preserve-τ shortcut against `old`.
    /// Returns the raw h-index (callers clamp).
    fn recompute<F: Fn(usize) -> u32>(&self, i: usize, old: u32, read: F, buf: &mut HBuffer)
        -> u32;

    /// Calls `f` for every r-clique sharing a container with `i` (the
    /// candidates the notification mechanism filters). May repeat ids.
    fn wake<F: FnMut(usize)>(&self, i: usize, f: F);
}

/// [`SweepAccess`] over the space's own container walk.
pub(crate) struct WalkAccess<'a, S: CliqueSpace>(pub &'a S);

impl<S: CliqueSpace> SweepAccess for WalkAccess<'_, S> {
    #[inline]
    fn len(&self) -> usize {
        self.0.num_cliques()
    }

    fn initial(&self) -> Vec<u32> {
        self.0.initial_degrees()
    }

    fn recompute<F: Fn(usize) -> u32>(
        &self,
        i: usize,
        old: u32,
        read: F,
        buf: &mut HBuffer,
    ) -> u32 {
        if old == 0 {
            return 0;
        }
        let rho_of = |others: &[usize]| -> u32 {
            let mut m = u32::MAX;
            for &o in others {
                m = m.min(read(o));
            }
            m
        };
        // §4.4: at least `old` containers with ρ ≥ old ⇒ H stays `old`.
        let mut qualifying = 0u32;
        let preserved = self
            .0
            .try_for_each_container(i, |others| {
                if rho_of(others) >= old {
                    qualifying += 1;
                    if qualifying >= old {
                        return std::ops::ControlFlow::Break(());
                    }
                }
                std::ops::ControlFlow::Continue(())
            })
            .is_break();
        if preserved {
            return old;
        }
        let deg = self.0.degree(i) as usize;
        let mut session = buf.session(deg);
        self.0.for_each_container(i, |others| session.push(rho_of(others)));
        session.finish()
    }

    #[inline]
    fn wake<F: FnMut(usize)>(&self, i: usize, f: F) {
        self.0.for_each_neighbor(i, f);
    }
}

/// [`SweepAccess`] over a materialized flat cache, using the fused
/// ρ-min + h-index kernels of `hdsd-hindex`.
pub(crate) struct FlatAccess<'a>(pub &'a FlatContainers);

impl SweepAccess for FlatAccess<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.num_cliques()
    }

    fn initial(&self) -> Vec<u32> {
        (0..self.0.num_cliques()).map(|i| self.0.degree(i)).collect()
    }

    fn recompute<F: Fn(usize) -> u32>(
        &self,
        i: usize,
        old: u32,
        read: F,
        buf: &mut HBuffer,
    ) -> u32 {
        if old == 0 {
            return 0;
        }
        let others = self.0.containers(i);
        let group = self.0.group();
        let tau_of = |o: u32| read(o as usize);
        if hdsd_hindex::fused_rho_preserves(others, group, old, tau_of) {
            return old;
        }
        buf.fused_rho_h(others, group, tau_of)
    }

    #[inline]
    fn wake<F: FnMut(usize)>(&self, i: usize, mut f: F) {
        for &o in self.0.containers(i) {
            f(o as usize);
        }
    }
}

/// Computes `ρ(S, R)` for one container: the minimum τ among the other
/// r-cliques of the s-clique. Defined here so every algorithm shares the
/// exact same semantics.
#[inline]
pub fn rho(tau: &[u32], others: &[usize]) -> u32 {
    debug_assert!(!others.is_empty());
    let mut m = u32::MAX;
    for &o in others {
        m = m.min(tau[o]);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_graph::graph_from_edges;

    #[test]
    fn rho_takes_minimum() {
        let tau = [5u32, 3, 9];
        assert_eq!(rho(&tau, &[0, 1, 2]), 3);
        assert_eq!(rho(&tau, &[2]), 9);
    }

    #[test]
    fn default_neighbor_iteration_flattens_containers() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let sp = CoreSpace::new(&g);
        let mut seen = Vec::new();
        sp.for_each_neighbor(0, |o| seen.push(o));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }
}

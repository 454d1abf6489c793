//! Incremental repair of the nucleus forest after an edge batch.
//!
//! Without it the serving engine would drop its forest on each batch and
//! pay a full [`super::build_hierarchy`] — a walk and a union–find over
//! the whole clique universe — on the next region query. Following
//! Sarıyüce–Pınar's *Fast Hierarchy Construction for Dense Subgraphs*
//! (VLDB 2016) observation that the forest can be assembled from **local
//! component information**, [`repair_hierarchy`]
//! rebuilds only the perturbed region of the forest and grafts the
//! untouched subtrees (the vast majority after a small batch) back intact.
//!
//! ## Why preserved subtrees are exactly reusable
//!
//! Call a (new-id) r-clique **dirty** when the batch may have changed its
//! κ or its container set: batch-created cliques, κ-changed cliques, and
//! cliques in a created/destroyed s-clique, closed one hop through
//! containers (because an s-clique's weight `w(S) = min κ(members)`
//! changes only when a member's κ does, every *clean* clique's containers
//! are unchanged **with unchanged weights**). Let `X` be an old forest
//! node none of whose subtree members is dirty or deleted. Then:
//!
//! * `X`'s component at threshold `k_X` cannot gain members — joining it
//!   needs an s-clique through a member with weight ≥ `k_X`, all such
//!   s-cliques are unchanged, and old-forest maximality bounds the
//!   external ones below `k_X`;
//! * it cannot lose members or restructure internally — member κ and
//!   internal s-cliques (weight ≥ `k_X` automatically) are unchanged.
//!
//! So the subtree rooted at `X` reappears in the post-batch forest
//! verbatim (modulo the positional clique-id remap); only its parent link
//! may differ. The repair therefore: (1) marks perturbed old nodes (own
//! dirty/deleted clique, closed upward to the roots), (2) collapses each
//! maximal preserved subtree into a union–find super-node pre-seeded with
//! its existing root node, and (3) runs the cold build's level walk
//! (`ForestBuilder::level_walk`, see the [`super`] module docs) over the
//! **non-preserved cliques only** — the same counting sort, reused buffer
//! and size-aware merge, bounded to the perturbed region. Nesting a
//! super-node under a node of lower threshold grafts the preserved subtree
//! under its new parent; preserved subtrees never merge at their own
//! threshold (the argument above), so their roots survive as-is.
//!
//! ## Why the level walk misses nothing
//!
//! The walk must reach every s-clique `S` with at least one non-preserved
//! member (an s-clique inside one preserved subtree is redundant under the
//! collapse, and none spans two preserved subtrees without a non-preserved
//! member — the lower subtree's component would not have been maximal).
//! It emits `S` from a *walked* member with κ = `w(S)`, so one must exist.
//! Suppose every member `p` with κ(p) = `w(S)` were preserved, and let `i`
//! be a non-preserved member. `p` is clean, so no member of `S` is
//! directly dirty (the one-hop closure would have dirtied `p`): `S` existed
//! before the batch with the same member κ. The old forest therefore owns
//! `i` in a descendant of `p`'s owner node, i.e. inside `p`'s preserved
//! subtree — contradicting that `i` is not preserved.
//!
//! Equivalence with a cold rebuild is not taken on faith: the
//! `hierarchy_repair_properties` suite proves canonical-form equality on
//! randomized graphs × batches × spaces (see [`super::canonical`]).

use hdsd_graph::NO_ID;

use super::{ForestBuilder, Hierarchy, HierarchyNode, TOMBSTONE};
use crate::cancel::CancelToken;
use crate::space::CliqueSpace;

/// Telemetry of one repair, for update reports and the pinned counts of
/// `hierarchy_repair_properties`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Maximal untouched subtrees grafted back without reconstruction.
    pub preserved_subtrees: usize,
    /// Old nodes reused verbatim (members of preserved subtrees).
    pub preserved_nodes: usize,
    /// Nodes of the result built by the quotient union–find pass.
    pub rebuilt_nodes: usize,
    /// r-cliques in the dirty set after the one-hop container closure —
    /// except on the `full_rebuild` short-circuit, which bails *before*
    /// paying the closure walk and therefore reports the pre-closure
    /// count. Compare rows across spaces/batches with that caveat.
    pub dirty_cliques: usize,
    /// s-cliques the level walk emitted and fed to the union–find (the
    /// bounded region; a cold rebuild processes every s-clique).
    pub scanned_scliques: usize,
    /// True when the repair detected up front that no subtree could
    /// survive (broad shallow forests — e.g. the core space on connected
    /// graphs — perturb every node through the root chain) and degraded
    /// to a cold [`super::build_hierarchy`], skipping the repair bookkeeping.
    pub full_rebuild: bool,
}

/// Repairs `old` (the forest of the pre-batch graph) into the forest of
/// the post-batch `space` with exact new `kappa`, reusing every subtree
/// the batch provably did not perturb.
///
/// `new_to_old` maps post-batch clique ids to pre-batch ids ([`NO_ID`] for
/// batch-created cliques) — the remap `crate::delta` produces.
///
/// ## The `dirty_seed` contract
///
/// `dirty_seed` (new ids) must contain every surviving clique whose
/// **container set** changed (a containing s-clique was created or
/// destroyed). The splice's touched set ([`crate::SpaceDelta::touched`]) is
/// exactly that set, and is what the update path passes. κ-changes are
/// derived internally (the old forest knows every old clique's κ — its
/// owning node's `k`), so callers need not compute them, and batch-created
/// cliques are always dirty regardless of the seed. Over-approximating the
/// seed costs time, never correctness.
///
/// # Panics
/// Panics when `kappa` or `new_to_old` don't match `space`, or when an id
/// in `dirty_seed`/`new_to_old` is out of range.
pub fn repair_hierarchy<S: CliqueSpace>(
    old: &Hierarchy,
    space: &S,
    kappa: &[u32],
    new_to_old: &[u32],
    old_num_cliques: usize,
    dirty_seed: &[u32],
) -> (Hierarchy, RepairStats) {
    hdsd_telemetry::span!("hierarchy.repair");
    let n = space.num_cliques();
    assert_eq!(kappa.len(), n, "kappa length must match clique count");
    assert_eq!(new_to_old.len(), n, "new_to_old length must match clique count");

    // Inverse remap + old clique → owning old node.
    let mut old_to_new = vec![NO_ID; old_num_cliques];
    for (new_id, &o) in new_to_old.iter().enumerate() {
        if o != NO_ID {
            old_to_new[o as usize] = new_id as u32;
        }
    }
    let old_node_of = old.clique_to_node(old_num_cliques);

    // Dirty = seed ∪ batch-created ∪ κ-changed (self-derived: an old
    // clique's κ is its owning node's k, or 0 when it was in no nucleus).
    let mut dirty = vec![false; n];
    for &i in dirty_seed {
        dirty[i as usize] = true;
    }
    for i in 0..n {
        let o = new_to_old[i];
        if o == NO_ID {
            dirty[i] = true;
            continue;
        }
        let old_kappa = match old_node_of[o as usize] {
            u32::MAX => 0,
            node => old.nodes[node as usize].k,
        };
        if old_kappa != kappa[i] {
            dirty[i] = true;
        }
    }

    // Cheap bail-out before any container walk: the one-hop closure below
    // only *adds* dirt, so if this pre-closure dirty set already perturbs
    // every old node, nothing can survive and the repair machinery would
    // be pure overhead on top of a cold build. Broad, shallow forests
    // (the core space on a connected graph routinely has only a handful
    // of nodes) hit this constantly.
    if mark_perturbed(old, &old_to_new, &dirty).iter().all(|&p| p) {
        let forest = super::build_hierarchy(space, kappa);
        let stats = RepairStats {
            rebuilt_nodes: forest.nodes.len(),
            dirty_cliques: dirty.iter().filter(|&&d| d).count(),
            full_rebuild: true,
            ..RepairStats::default()
        };
        return (forest, stats);
    }

    // Close one hop through containers so every s-clique with a
    // possibly-changed weight has only dirty members.
    let direct: Vec<usize> = (0..n).filter(|&i| dirty[i]).collect();
    for &i in &direct {
        space.for_each_neighbor(i, |o| dirty[o] = true);
    }
    let dirty_cliques = dirty.iter().filter(|&&d| d).count();

    let perturbed = mark_perturbed(old, &old_to_new, &dirty);
    let preserved_nodes = perturbed.iter().filter(|&&p| !p).count();

    // Copy the old arena: preserved nodes verbatim (own_cliques remapped to
    // new ids; preserved-subtree roots detached from their perturbed
    // parents), perturbed nodes as tombstones the finalize step drops.
    let nodes: Vec<HierarchyNode> = old
        .nodes
        .iter()
        .enumerate()
        .map(|(id, node)| {
            if perturbed[id] {
                return HierarchyNode {
                    k: TOMBSTONE,
                    parent: None,
                    children: Vec::new(),
                    own_cliques: Vec::new(),
                    size: 0,
                };
            }
            HierarchyNode {
                k: node.k,
                parent: node.parent.filter(|&p| !perturbed[p as usize]),
                children: node.children.clone(),
                own_cliques: node.own_cliques.iter().map(|&c| old_to_new[c as usize]).collect(),
                size: node.size,
            }
        })
        .collect();

    let mut fb = ForestBuilder { nodes, ..ForestBuilder::fresh(n) };

    // Collapse each maximal preserved subtree into a super-node: all its
    // member cliques union-found to one representative whose component is
    // pre-bound to the subtree's existing root node.
    let mut in_preserved = vec![false; n];
    let mut preserved_subtrees = 0usize;
    let mut walk: Vec<u32> = Vec::new();
    for id in 0..old.nodes.len() {
        let is_sub_root =
            !perturbed[id] && old.nodes[id].parent.is_none_or(|p| perturbed[p as usize]);
        if !is_sub_root {
            continue;
        }
        preserved_subtrees += 1;
        let mut rep = u32::MAX;
        walk.clear();
        walk.push(id as u32);
        while let Some(x) = walk.pop() {
            let node = &fb.nodes[x as usize];
            walk.extend_from_slice(&node.children);
            for &m in &node.own_cliques {
                debug_assert_ne!(m, NO_ID, "preserved subtree owns a deleted clique");
                in_preserved[m as usize] = true;
                if rep == u32::MAX {
                    rep = m;
                } else {
                    fb.parent[m as usize] = rep;
                }
            }
        }
        debug_assert_ne!(rep, u32::MAX, "preserved subtree has no member cliques");
        fb.node_of[rep as usize] = id as u32;
        fb.rank[rep as usize] = 1; // a star of depth one
    }

    // The bounded region: the level walk over the non-preserved cliques
    // only, which reaches every s-clique with at least one non-preserved
    // member (see "Why the level walk misses nothing" in the module docs).
    let scanned_scliques = fb
        .level_walk(space, kappa, |i| in_preserved[i], &CancelToken::none())
        .expect("an unarmed token never cancels");
    let forest = fb.finalize(old.rs);

    let stats = RepairStats {
        preserved_subtrees,
        preserved_nodes,
        rebuilt_nodes: forest.nodes.len() - preserved_nodes,
        dirty_cliques,
        scanned_scliques,
        full_rebuild: false,
    };
    (forest, stats)
}

/// Old nodes whose subtree owns a dirty or deleted clique, closed upward
/// (an ancestor's member set contains every descendant's members). Costs
/// one pass over the old `own_cliques` plus early-terminating parent-chain
/// walks — no container access.
fn mark_perturbed(old: &Hierarchy, old_to_new: &[u32], dirty: &[bool]) -> Vec<bool> {
    let mut perturbed = vec![false; old.nodes.len()];
    for (id, node) in old.nodes.iter().enumerate() {
        let hit = node.own_cliques.iter().any(|&c| {
            let nn = old_to_new[c as usize];
            nn == NO_ID || dirty[nn as usize]
        });
        if hit && !perturbed[id] {
            perturbed[id] = true;
            let mut at = id;
            while let Some(p) = old.nodes[at].parent {
                if perturbed[p as usize] {
                    break;
                }
                perturbed[p as usize] = true;
                at = p as usize;
            }
        }
    }
    perturbed
}

#[cfg(test)]
mod tests {
    use super::super::{assert_forest_eq, build_hierarchy};
    use super::*;
    use crate::peel::peel;
    use crate::space::{CachedSpace, CoreSpace};
    use hdsd_graph::graph_from_edges;

    /// Identity batch: nothing dirty, everything preserved, result equals
    /// the old forest.
    #[test]
    fn noop_repair_preserves_everything() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.5, 3);
        let sp = CachedSpace::build(&CoreSpace::new(&g));
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let identity: Vec<u32> = (0..sp.num_cliques() as u32).collect();
        let (repaired, stats) = h.repair(&sp, &kappa, &identity, sp.num_cliques(), &[]);
        assert_eq!(stats.rebuilt_nodes, 0, "{stats:?}");
        assert_eq!(stats.scanned_scliques, 0, "{stats:?}");
        assert_eq!(stats.preserved_nodes, h.len());
        assert_forest_eq(&repaired, &h);
        // Byte-for-byte, not just canonical: ids were never disturbed.
        assert_eq!(repaired.nodes, h.nodes);
    }

    /// Everything dirty: degenerates to a cold rebuild.
    #[test]
    fn fully_dirty_repair_matches_cold_build() {
        let g = graph_from_edges([
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
        ]);
        let sp = CachedSpace::build(&CoreSpace::new(&g));
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        let identity: Vec<u32> = (0..sp.num_cliques() as u32).collect();
        let all: Vec<u32> = identity.clone();
        let (repaired, stats) = h.repair(&sp, &kappa, &identity, sp.num_cliques(), &all);
        assert_eq!(stats.preserved_subtrees, 0);
        assert_forest_eq(&repaired, &h);
    }

    /// A localized change: the untouched K4's subtree is preserved.
    #[test]
    fn distant_component_is_preserved() {
        // Two far-apart components: a K4 and a triangle-with-tail.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (10, 11),
            (11, 12),
            (12, 10),
            (12, 13), // triangle + tail
        ];
        let g = graph_from_edges(edges);
        let sp = CachedSpace::build(&CoreSpace::new(&g));
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);

        // Batch: add an edge to the triangle side (13-10 closes a C4).
        let g2 = graph_from_edges(edges.iter().copied().chain([(13, 10)]));
        let sp2 = CachedSpace::build(&CoreSpace::new(&g2));
        let kappa2 = peel(&sp2).kappa;
        let identity: Vec<u32> = (0..sp2.num_cliques() as u32).collect();
        let (repaired, stats) = h.repair(&sp2, &kappa2, &identity, sp.num_cliques(), &[13, 10]);
        assert_forest_eq(&repaired, &build_hierarchy(&sp2, &kappa2));
        assert!(stats.preserved_subtrees >= 1, "K4 subtree should be preserved: {stats:?}");
        assert!(
            stats.scanned_scliques < 10 + 4, // fewer than the full s-clique count
            "repair re-scanned too much: {stats:?}"
        );
    }
}

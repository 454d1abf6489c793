//! The one place the kernels decide how to reach a space's containers.
//!
//! Peeling, And and Snd all run fastest over flat CSR rows
//! ([`FlatContainers`]) and all fall back to the space's callback walk.
//! Which of the two a run gets is the same three-step rule everywhere:
//!
//! 1. rows the space already owns ([`CliqueSpace::as_flat`], i.e. a
//!    [`CachedSpace`](super::CachedSpace)) are used in place — they cost
//!    nothing, so any `Some` budget admits them;
//! 2. otherwise rows are built for the run when their estimated footprint
//!    fits the byte budget ([`FlatContainers::build_within`]);
//! 3. otherwise the run walks.
//!
//! A budget of `None` means "walk", even over resident rows: it is how the
//! cache ablation (`LocalConfig::without_container_cache`) measures the
//! callback path on any space.

use std::borrow::Cow;

use super::{CliqueSpace, FlatContainers};

/// Resolves the rows a kernel run over `space` should use under `budget`
/// (see the module docs for the rule). `None` means "walk the space".
pub(crate) fn resolve_rows<S: CliqueSpace>(
    space: &S,
    budget: Option<usize>,
) -> Option<Cow<'_, FlatContainers>> {
    let budget = budget?;
    match space.as_flat() {
        Some(resident) => Some(Cow::Borrowed(resident)),
        None => FlatContainers::build_within(space, budget).map(Cow::Owned),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CachedSpace, CoreSpace, TrussSpace};
    use super::*;
    use crate::convergence::DEFAULT_CONTAINER_CACHE_BUDGET as BUDGET;

    #[test]
    fn resolution_follows_resident_then_budget_then_walk() {
        let g = hdsd_datasets::holme_kim(80, 4, 0.5, 3);
        let truss = TrussSpace::precomputed(&g);
        let need = FlatContainers::estimate_bytes(&truss);

        // Resident rows are used in place, never copied — this is the arm
        // And and Snd used to skip.
        let cached = CachedSpace::build(&truss);
        for budget in [BUDGET, 1] {
            match resolve_rows(&cached, Some(budget)) {
                Some(Cow::Borrowed(rows)) => assert!(std::ptr::eq(rows, cached.flat())),
                other => panic!("resident rows must be borrowed, got {other:?}"),
            }
        }

        // Any other space gets rows built within the budget…
        let core = CoreSpace::new(&g);
        for budget in [BUDGET, need] {
            assert!(matches!(resolve_rows(&truss, Some(budget)), Some(Cow::Owned(_))));
        }
        assert!(matches!(resolve_rows(&core, Some(BUDGET)), Some(Cow::Owned(_))));
        // …and walks one byte under it.
        assert!(resolve_rows(&truss, Some(need - 1)).is_none());
        let core_need = FlatContainers::estimate_bytes(&core);
        assert!(resolve_rows(&core, Some(core_need - 1)).is_none());

        // No budget means walk, resident rows or not.
        assert!(resolve_rows(&cached, None).is_none());
        assert!(resolve_rows(&truss, None).is_none());
        assert!(resolve_rows(&core, None).is_none());
    }
}

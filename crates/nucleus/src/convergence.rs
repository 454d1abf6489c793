//! Shared configuration, telemetry and result types for the local
//! (iterative h-index) algorithms.

use hdsd_parallel::{ParallelConfig, SchedulerStats};

/// How And visits awake r-cliques within an iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SweepMode {
    /// Frontier scheduling: visit only the awake r-cliques. The default —
    /// this is what makes late, nearly-converged iterations cheap.
    /// Sequentially a wake sets a bit, indexed by rank in the permutation,
    /// in the next iteration's bitset, and an iteration walks the set bits
    /// of its own bitset in rank order, so it costs `O(n/64)` word reads
    /// plus `O(frontier)` recomputations. With more than one thread the
    /// awake set is the §4.2.1 flag bitmap scanned in
    /// [`ParallelConfig::chunk`]-sized dynamic chunks, i.e. exactly what
    /// [`SweepMode::FlagScan`] runs in parallel.
    #[default]
    Frontier,
    /// The paper's literal §4.2.1 formulation: scan the full permutation
    /// every iteration and check a wake flag per r-clique. Recomputes
    /// the same work as `Frontier` to within a fraction of a percent (an
    /// idle r-clique woken mid-sweep at a later position is picked up one
    /// sweep earlier), but pays `O(n)` flag checks per sweep; kept as an
    /// ablation reference.
    FlagScan,
    /// No notification at all: recompute every r-clique every iteration
    /// (the Figure-8 baseline).
    FullScan,
}

/// Default byte budget for the flat container cache (256 MiB). Sweeps on
/// spaces that prefer the cache materialize it when the estimate fits; see
/// [`crate::space::FlatContainers`].
pub const DEFAULT_CONTAINER_CACHE_BUDGET: usize = 256 << 20;

/// Configuration of a Snd / And run.
#[derive(Clone, Copy, Debug)]
pub struct LocalConfig {
    /// Thread/scheduling configuration.
    pub parallel: ParallelConfig,
    /// Hard iteration cap, checked before every sweep (the final
    /// zero-update sweep included, and parallel And's certification sweep);
    /// `None` runs to convergence. `Some(0)` returns τ₀ untouched. Capped
    /// runs are the paper's approximation mode (τ_t is a valid upper bound
    /// on κ at every t, by Theorem 1), and a run the cap stops before its
    /// zero-update sweep reports `converged: false`.
    pub max_iterations: Option<usize>,
    /// Stability-based stopping (the paper's ground-truth-free quality
    /// indicator for runtime/accuracy decisions): stop once the fraction of
    /// r-cliques whose τ changed in a sweep drops to `1 − threshold` — i.e.
    /// stability ≥ threshold. `None` disables the rule.
    pub stability_threshold: Option<f64>,
    /// How And schedules awake r-cliques (ignored by Snd, which is
    /// synchronous by definition). Only consulted when notification is on.
    pub sweep_mode: SweepMode,
    /// Byte budget for building a flat container cache; `None` sweeps
    /// through the callback walk, even over a space with resident rows.
    /// With a budget, resident rows ([`crate::space::CliqueSpace::as_flat`])
    /// are swept in place at no cost, and any other space's rows are built
    /// when they fit the budget.
    pub container_cache_budget: Option<usize>,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            parallel: ParallelConfig::sequential(),
            max_iterations: None,
            stability_threshold: None,
            sweep_mode: SweepMode::Frontier,
            container_cache_budget: Some(DEFAULT_CONTAINER_CACHE_BUDGET),
        }
    }
}

impl LocalConfig {
    /// Sequential, run-to-convergence configuration.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel configuration with `t` threads.
    pub fn with_threads(t: usize) -> Self {
        LocalConfig { parallel: ParallelConfig::with_threads(t), ..Self::default() }
    }

    /// Caps the number of iterations (approximation mode).
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Stops once per-sweep stability (`1 − updates/|R|`) reaches
    /// `threshold` (clamped to `0.0..=1.0`). A threshold of 1.0 is exactly
    /// run-to-convergence; ~0.99 typically buys near-exact rankings at a
    /// fraction of the runtime (see Figure 7 / the `approximate_truss`
    /// example).
    pub fn stop_when_stable(mut self, threshold: f64) -> Self {
        self.stability_threshold = Some(threshold.clamp(0.0, 1.0));
        self
    }

    /// Selects how And schedules awake r-cliques (ablation knob).
    pub fn sweep_mode(mut self, mode: SweepMode) -> Self {
        self.sweep_mode = mode;
        self
    }

    /// Sets the flat-container-cache byte budget.
    pub fn container_cache_budget(mut self, bytes: usize) -> Self {
        self.container_cache_budget = Some(bytes);
        self
    }

    /// Disables the flat container cache (every sweep walks the space's
    /// containers through the callback interface).
    pub fn without_container_cache(mut self) -> Self {
        self.container_cache_budget = None;
        self
    }

    /// Whether a sweep with `updates` changed values out of `n` satisfies
    /// the configured stopping rule.
    pub(crate) fn stable_enough(&self, updates: usize, n: usize) -> bool {
        match self.stability_threshold {
            Some(th) if n > 0 => (1.0 - updates as f64 / n as f64) >= th && updates > 0,
            _ => false,
        }
    }
}

/// Snapshot handed to an observer after each iteration/sweep.
#[derive(Debug)]
pub struct IterationEvent<'a> {
    /// 1-based iteration number.
    pub iteration: usize,
    /// τ values after this iteration.
    pub tau: &'a [u32],
    /// Number of r-cliques whose τ changed in this iteration.
    pub updates: usize,
    /// Number of r-cliques whose τ was recomputed in this iteration
    /// (smaller than the universe when the notification mechanism skips
    /// idle r-cliques).
    pub processed: usize,
}

/// Result of an iterative local decomposition.
#[derive(Clone, Debug)]
pub struct ConvergenceResult {
    /// Final τ values. Equal to the exact κ indices when `converged`.
    pub tau: Vec<u32>,
    /// Total sweeps executed, including the final zero-update sweep. For
    /// Snd, FullScan and parallel And that sweep visits all n r-cliques
    /// and certifies convergence; under sequential `Frontier` and
    /// `FlagScan` it visits only what the frontier still holds (possibly
    /// nothing), and leaves it empty.
    pub sweeps: usize,
    /// Whether the run reached a fixed point, i.e. τ = κ (false when the
    /// iteration cap or the stability rule stopped it first). Sequential
    /// `Frontier` and `FlagScan` know it from an empty frontier (see the
    /// `asynchronous` module docs); the other runs from a zero-update sweep
    /// over all n.
    pub converged: bool,
    /// τ-updates per sweep.
    pub updates_per_iter: Vec<usize>,
    /// r-cliques recomputed per sweep.
    pub processed_per_iter: Vec<usize>,
    /// Scheduler telemetry aggregated over the whole run: chunk handout per
    /// worker plus the processed/skipped item split (frontier scheduling
    /// keeps `items_skipped` at zero by construction; the flag-scan mode
    /// counts every idle flag check it pays for).
    pub scheduler: SchedulerStats,
}

impl ConvergenceResult {
    /// Iterations the paper would report: sweeps that performed at least
    /// one update (the trailing zero-update sweep, and for parallel And
    /// any sweep that found nobody awake, are excluded).
    pub fn iterations_to_converge(&self) -> usize {
        self.updates_per_iter.iter().filter(|&&u| u > 0).count()
    }

    /// Total recomputation work across the run (Σ processed).
    pub fn total_processed(&self) -> u64 {
        self.processed_per_iter.iter().map(|&p| p as u64).sum()
    }

    /// Total updates across the run.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_iter.iter().map(|&u| u as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_to_converge_ignores_idle_sweeps() {
        let r = ConvergenceResult {
            tau: vec![],
            sweeps: 4,
            converged: true,
            updates_per_iter: vec![10, 3, 0, 0],
            processed_per_iter: vec![10, 10, 4, 0],
            scheduler: SchedulerStats::default(),
        };
        assert_eq!(r.iterations_to_converge(), 2);
        assert_eq!(r.total_processed(), 24);
        assert_eq!(r.total_updates(), 13);
    }

    #[test]
    fn config_builders() {
        let c = LocalConfig::with_threads(4).max_iterations(7);
        assert_eq!(c.parallel.threads, 4);
        assert_eq!(c.max_iterations, Some(7));
    }
}

//! Matching configuration: algorithm variants and resource budgets.

use std::time::Duration;

use crate::filters::FilterOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cooperative-cancellation handle.
///
/// Cloning yields another handle to the same flag; [`cancel`](Self::cancel)
/// is a monotonic `false → true` latch that the enumerator polls at its
/// backtrack-quantum boundary (every [`crate::exec::CANCEL_QUANTUM`] search
/// nodes), so a cancelled search stops within one quantum of additional
/// work and reports [`MatchOutcome::Cancelled`](crate::MatchOutcome::Cancelled).
/// This is the serving layer's cancellation primitive, but it is plain
/// library API: attach one to a [`Budget`] and keep a clone to cancel any
/// in-flight run from another thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token. Idempotent; never un-cancels.
    pub fn cancel(&self) {
        // SeqCst: not on the hot path (one store per cancellation), and
        // exempt from the Relaxed-allowlist bookkeeping.
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// How the CPI auxiliary structure is constructed (§4.1, §5).
///
/// The evaluation's CPI ablation (Figure 15) compares these three modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpiMode {
    /// `u.C` = every data vertex with label `l_q(u)`; no pruning
    /// (CFL-Match-Naive).
    Naive,
    /// Top-down construction only, Algorithm 3 (CFL-Match-TD).
    TopDown,
    /// Top-down construction plus bottom-up refinement, Algorithms 3 + 4
    /// (the full CFL-Match).
    TopDownRefined,
}

/// Which query decomposition drives the macro matching order (§3).
///
/// The framework ablation (Figure 14) compares these three modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionMode {
    /// No decomposition: the whole query is matched as one structure
    /// (the `Match` variant).
    None,
    /// Core-forest decomposition only (`CF-Match`): leaves are treated as
    /// ordinary forest vertices.
    CoreForest,
    /// Full core-forest-leaf decomposition (`CFL-Match`).
    CoreForestLeaf,
}

/// How root-to-leaf paths are prioritized when building the matching order
/// (§4.2.1), and which runtime vertex-selection rule — the
/// [`OrderingStrategy`](crate::exec::strategy::OrderingStrategy) plugged
/// into the search — follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderStrategy {
    /// The paper's greedy rule: minimize estimated embedding counts
    /// (Algorithm 2), and follow that plan verbatim during enumeration.
    /// Default, and the oracle the other strategies are differential-tested
    /// against.
    Greedy,
    /// Future-work exploration (§7): prefer paths that reach deeper into
    /// the k-core hierarchy of the query first (ties broken by the greedy
    /// rule), so the densest — most constrained — structure is matched
    /// earliest.
    CoreHierarchy,
    /// Ablation baseline: take paths in BFS discovery order with no
    /// cardinality estimation at all — isolates how much of CFL-Match's
    /// speed comes from Algorithm 2 itself.
    Arbitrary,
    /// DAF-style adaptive order: the static plan is [`Greedy`]'s, but at
    /// every depth the enumerator extends the unmatched CPI-tree vertex
    /// whose parent is mapped and whose candidate row for the current
    /// prefix is smallest. Prepares exactly what `Greedy` prepares, so the
    /// two share cached plans.
    ///
    /// [`Greedy`]: OrderStrategy::Greedy
    Adaptive,
}

/// Which backtracking rule prunes the search tree — the
/// [`PruningStrategy`](crate::exec::strategy::PruningStrategy) plugged
/// into the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PruningKind {
    /// Plain chronological backtracking (the paper's Algorithm 5). Default.
    #[default]
    Plain,
    /// DAF-style failing-set backtracking: track why each subtree failed
    /// and skip sibling candidates that provably reproduce the failure.
    FailingSet,
}

/// Resource limits for one matching invocation.
///
/// The paper reports up to a fixed number of embeddings (default `10^5`)
/// under a wall-clock limit, plotting "INF" on timeout; both knobs live
/// here, alongside the serving layer's cooperative [`CancelToken`].
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Stop after this many embeddings have been emitted (`None` = all).
    pub max_embeddings: Option<u64>,
    /// Stop after this much wall-clock time (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Stop when this token is cancelled (`None` = not cancellable).
    /// Checked at the same backtrack-quantum stride as `time_limit`.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits: enumerate every embedding.
    pub const UNLIMITED: Budget = Budget {
        max_embeddings: None,
        time_limit: None,
        cancel: None,
    };

    /// Limit only the number of embeddings.
    pub fn first(n: u64) -> Self {
        Budget {
            max_embeddings: Some(n),
            ..Self::UNLIMITED
        }
    }

    /// Adds a wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Attaches a cancellation token (keep a clone to trigger it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Full configuration of a CFL-Match run.
#[derive(Clone, Debug)]
pub struct MatchConfig {
    /// CPI construction mode.
    pub cpi: CpiMode,
    /// Query decomposition mode.
    pub decomposition: DecompositionMode,
    /// Path-ordering strategy, including the runtime adaptive rule.
    pub order: OrderStrategy,
    /// Backtrack-pruning strategy used during enumeration. Does not affect
    /// preparation, so it is deliberately excluded from the plan-cache
    /// signature — like `budget`.
    pub pruning: PruningKind,
    /// Optional candidate filters (§A.6 ablation knobs).
    pub filters: FilterOptions,
    /// Resource limits.
    pub budget: Budget,
    /// Ignored: the CPI build is serial. Kept only because the benchmark
    /// package reads it; removed with the next change to that package.
    pub build_threads: usize,
}

impl Default for MatchConfig {
    /// The paper's best variant: full CFL decomposition with a refined CPI
    /// and the default `10^5`-embedding report limit of the evaluation.
    fn default() -> Self {
        MatchConfig {
            cpi: CpiMode::TopDownRefined,
            decomposition: DecompositionMode::CoreForestLeaf,
            order: OrderStrategy::Greedy,
            pruning: PruningKind::Plain,
            filters: FilterOptions::default(),
            budget: Budget::first(100_000),
            build_threads: 1,
        }
    }
}

impl MatchConfig {
    /// CFL-Match with no budget limits (enumerate everything).
    pub fn exhaustive() -> Self {
        MatchConfig {
            budget: Budget::UNLIMITED,
            ..Self::default()
        }
    }

    /// The `Match` ablation variant (no decomposition).
    pub fn variant_match() -> Self {
        MatchConfig {
            decomposition: DecompositionMode::None,
            ..Self::default()
        }
    }

    /// The `CF-Match` ablation variant (core-forest only).
    pub fn variant_cf_match() -> Self {
        MatchConfig {
            decomposition: DecompositionMode::CoreForest,
            ..Self::default()
        }
    }

    /// The `CFL-Match-Naive` ablation variant.
    pub fn variant_naive_cpi() -> Self {
        MatchConfig {
            cpi: CpiMode::Naive,
            ..Self::default()
        }
    }

    /// The `CFL-Match-TD` ablation variant.
    pub fn variant_topdown_cpi() -> Self {
        MatchConfig {
            cpi: CpiMode::TopDown,
            ..Self::default()
        }
    }

    /// The future-work hierarchical-core ordering variant (§7).
    pub fn variant_core_hierarchy() -> Self {
        MatchConfig {
            order: OrderStrategy::CoreHierarchy,
            ..Self::default()
        }
    }

    /// Replaces the optional-filter configuration.
    pub fn with_filters(mut self, filters: FilterOptions) -> Self {
        self.filters = filters;
        self
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the backtrack-pruning strategy.
    pub fn with_pruning(mut self, pruning: PruningKind) -> Self {
        self.pruning = pruning;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_cfl() {
        let c = MatchConfig::default();
        assert_eq!(c.cpi, CpiMode::TopDownRefined);
        assert_eq!(c.decomposition, DecompositionMode::CoreForestLeaf);
        assert_eq!(c.budget.max_embeddings, Some(100_000));
    }

    #[test]
    fn variants_differ_only_where_expected() {
        assert_eq!(
            MatchConfig::variant_match().decomposition,
            DecompositionMode::None
        );
        assert_eq!(
            MatchConfig::variant_cf_match().decomposition,
            DecompositionMode::CoreForest
        );
        assert_eq!(MatchConfig::variant_naive_cpi().cpi, CpiMode::Naive);
        assert_eq!(MatchConfig::variant_topdown_cpi().cpi, CpiMode::TopDown);
        assert!(MatchConfig::exhaustive().budget.max_embeddings.is_none());
    }

    #[test]
    fn hierarchy_variant() {
        let c = MatchConfig::variant_core_hierarchy();
        assert_eq!(c.order, OrderStrategy::CoreHierarchy);
        assert_eq!(MatchConfig::default().order, OrderStrategy::Greedy);
    }

    #[test]
    fn strategy_defaults_and_builders() {
        let c = MatchConfig::default();
        assert_eq!(c.order, OrderStrategy::Greedy);
        assert_eq!(c.pruning, PruningKind::Plain);
        let c = c.with_pruning(PruningKind::FailingSet);
        assert_eq!(c.pruning, PruningKind::FailingSet);
    }

    #[test]
    fn budget_builders() {
        let b = Budget::first(10).with_time_limit(Duration::from_secs(1));
        assert_eq!(b.max_embeddings, Some(10));
        assert_eq!(b.time_limit, Some(Duration::from_secs(1)));
        assert!(Budget::UNLIMITED.max_embeddings.is_none());
    }
}

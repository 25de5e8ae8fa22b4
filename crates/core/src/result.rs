//! Results and instrumentation of a matching run.

use std::time::Duration;

use cfl_graph::VertexId;

/// One subgraph-isomorphic embedding: `mapping[u]` is the data vertex that
/// query vertex `u` maps to (Definition 2.1).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Embedding {
    /// Indexed by query vertex id.
    pub mapping: Vec<VertexId>,
}

impl Embedding {
    /// The data vertex mapped by query vertex `u`.
    #[inline]
    #[must_use]
    pub fn map(&self, u: VertexId) -> VertexId {
        self.mapping[u as usize]
    }
}

/// Why a matching run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "an outcome distinguishes exhaustive from truncated counts"]
pub enum MatchOutcome {
    /// Every embedding was enumerated.
    Complete,
    /// The `max_embeddings` budget was reached.
    LimitReached,
    /// The wall-clock budget was exceeded (the paper's "INF" points).
    TimedOut,
    /// The run's [`CancelToken`](crate::CancelToken) was cancelled; the
    /// search stopped within one backtrack quantum of the latch.
    Cancelled,
}

impl MatchOutcome {
    /// Whether the reported count is exhaustive.
    #[must_use]
    pub fn is_complete(self) -> bool {
        matches!(self, MatchOutcome::Complete)
    }

    /// Stable lowercase tag for wire formats and JSON reports
    /// (`"complete"`, `"limit"`, `"deadline"`, `"cancelled"`).
    #[must_use]
    pub fn as_tag(self) -> &'static str {
        match self {
            MatchOutcome::Complete => "complete",
            MatchOutcome::LimitReached => "limit",
            MatchOutcome::TimedOut => "deadline",
            MatchOutcome::Cancelled => "cancelled",
        }
    }
}

/// Incremental FNV-1a digest over a stream of embeddings.
///
/// The digest is a function of the embedding *sequence* — values and
/// order — so two runs agree iff they emitted the same embeddings in the
/// same order. The serving engine uses it to prove that a query answered
/// over a shared [`DataGraph`](crate::DataGraph) by an executor worker is
/// byte-identical to a serial one-shot run (`cfl match --checksum` prints
/// the same digest). Each mapping is folded as its length (u32 LE)
/// followed by its vertex ids (u32 LE), so embedding boundaries are
/// unambiguous.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmbeddingChecksum {
    hash: u64,
    count: u64,
}

impl Default for EmbeddingChecksum {
    fn default() -> Self {
        EmbeddingChecksum {
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a 64-bit offset basis
            count: 0,
        }
    }
}

impl EmbeddingChecksum {
    /// Fresh digest (FNV-1a offset basis, zero embeddings).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn fold(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one embedding into the digest.
    #[inline]
    pub fn update(&mut self, mapping: &[VertexId]) {
        self.fold(mapping.len() as u32);
        for &v in mapping {
            self.fold(v);
        }
        self.count += 1;
    }

    /// The digest so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Embeddings folded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Counters and phase timings for one matching run.
///
/// The evaluation splits total time into *query vertex ordering time* (CPI
/// construction + Algorithm 2) and *embedding enumeration time* (Figures 9
/// and 10); these fields support that split.
#[derive(Clone, Debug, Default)]
pub struct MatchStats {
    /// Time spent building the auxiliary structure (CPI).
    pub build_time: Duration,
    /// Time spent computing the matching order.
    pub ordering_time: Duration,
    /// Time spent enumerating embeddings.
    pub enumeration_time: Duration,
    /// Total candidate entries over all query vertices (CPI size proxy,
    /// Figure 16(d)).
    pub cpi_candidates: u64,
    /// Total adjacency-list entries in the CPI (the edge part of its size).
    pub cpi_edges: u64,
    /// Estimated CPI memory in bytes (Figure 16(d) y-axis).
    pub cpi_bytes: u64,
    /// Number of partial-mapping extensions attempted (search tree nodes).
    pub search_nodes: u64,
    /// Number of non-tree edge checks probed against `G`.
    pub nt_checks: u64,
    /// Detailed observability report (phase timers, per-filter pruning
    /// counters, enumeration statistics). `Some` on every CFL-Match run;
    /// `None` for the baseline algorithms, which record nothing.
    pub trace: Option<Box<cfl_trace::TraceReport>>,
}

impl MatchStats {
    /// Ordering + build time: what Figure 10 calls "query vertex ordering
    /// time" ("the time to compute the matching order and other auxiliary
    /// data structures that are required for computing the matching order").
    #[must_use]
    pub fn total_ordering_time(&self) -> Duration {
        self.build_time + self.ordering_time
    }
}

/// Summary of one matching run.
#[derive(Clone, Debug)]
#[must_use = "a report carries the outcome; dropping it loses completeness information"]
pub struct MatchReport {
    /// Why the run stopped.
    pub outcome: MatchOutcome,
    /// Number of embeddings emitted (≤ budget).
    pub embeddings: u64,
    /// Instrumentation.
    pub stats: MatchStats,
}

impl MatchReport {
    /// A report for a run that proved emptiness before enumeration (e.g. an
    /// empty candidate set).
    pub fn empty(stats: MatchStats) -> Self {
        MatchReport {
            outcome: MatchOutcome::Complete,
            embeddings: 0,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_accessor() {
        let e = Embedding {
            mapping: vec![5, 3, 9],
        };
        assert_eq!(e.map(0), 5);
        assert_eq!(e.map(2), 9);
    }

    #[test]
    fn outcome_flags() {
        assert!(MatchOutcome::Complete.is_complete());
        assert!(!MatchOutcome::LimitReached.is_complete());
        assert!(!MatchOutcome::TimedOut.is_complete());
        assert!(!MatchOutcome::Cancelled.is_complete());
    }

    #[test]
    fn empty_report_is_complete_with_zero_embeddings() {
        let stats = MatchStats {
            cpi_candidates: 7,
            ..Default::default()
        };
        let r = MatchReport::empty(stats);
        assert!(r.outcome.is_complete());
        assert_eq!(r.embeddings, 0);
        assert_eq!(r.stats.cpi_candidates, 7, "stats are preserved");
    }

    #[test]
    fn outcome_tags_are_stable() {
        assert_eq!(MatchOutcome::Complete.as_tag(), "complete");
        assert_eq!(MatchOutcome::LimitReached.as_tag(), "limit");
        assert_eq!(MatchOutcome::TimedOut.as_tag(), "deadline");
        assert_eq!(MatchOutcome::Cancelled.as_tag(), "cancelled");
    }

    #[test]
    fn checksum_is_order_and_boundary_sensitive() {
        let digest = |embs: &[&[u32]]| {
            let mut c = EmbeddingChecksum::new();
            for e in embs {
                c.update(e);
            }
            (c.digest(), c.count())
        };
        let (a, na) = digest(&[&[1, 2], &[3, 4]]);
        let (b, nb) = digest(&[&[3, 4], &[1, 2]]);
        assert_ne!(a, b, "order must matter");
        assert_eq!((na, nb), (2, 2));
        let (c, _) = digest(&[&[1, 2, 3], &[4]]);
        let (d, _) = digest(&[&[1], &[2, 3, 4]]);
        assert_ne!(c, d, "boundaries must matter");
        assert_eq!(digest(&[&[1, 2], &[3, 4]]), (a, 2), "deterministic");
        assert_ne!(
            EmbeddingChecksum::new().digest(),
            a,
            "empty digest is distinct"
        );
    }

    #[test]
    fn trace_defaults_to_none() {
        assert!(MatchStats::default().trace.is_none());
    }

    #[test]
    fn ordering_time_sums_build_and_order() {
        let stats = MatchStats {
            build_time: Duration::from_millis(3),
            ordering_time: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(stats.total_ordering_time(), Duration::from_millis(7));
    }
}

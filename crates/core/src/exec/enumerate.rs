//! Core- and forest-match enumeration (§4.2.2 Algorithm 5, §4.3).
//!
//! Walks the matching order depth-first. Candidates for the root come from
//! its CPI candidate set; candidates for every other vertex come from the
//! CPI adjacency row of its already-mapped BFS parent (so the data graph is
//! never scanned for tree edges). Non-tree edges — present only among core
//! vertices — are validated by probing `G` (`ValidateNT`), exactly as
//! Theorem 4.1 prescribes. Once all core and forest vertices are mapped the
//! leaf phase (§4.4) completes the embedding.
//!
//! The enumerator is generic over the two strategy traits of
//! [`super::strategy`]: which vertex to extend at each depth
//! ([`OrderingStrategy`]) and which sibling candidates to skip when a
//! subtree fails ([`PruningStrategy`]). The default combination
//! ([`StaticOrder`](super::strategy::StaticOrder),
//! [`PlainBacktrack`](super::strategy::PlainBacktrack)) monomorphizes every
//! hook to an inlined no-op, so it compiles to the paper's Algorithm 5
//! exactly; every combination enumerates the identical embedding set.
//!
//! The set primitives here are shared with CPI construction via
//! [`cfl_graph::intersect`]: `ValidateNT` probes maintained neighborhood
//! bitsets (the same bitset-membership strategy `build_rows` uses), and the
//! leaf phase computes `N_u^{u.p}(v) ∖ visited` with the kernel's
//! set-difference form.

use std::ops::ControlFlow;
use std::time::Instant;

use cfl_graph::{FixedBitSet, Graph, VertexId};

use super::leaf::LeafPhase;
use super::strategy::{OrderingStrategy, PruningStrategy};
use crate::config::{Budget, CancelToken};
use crate::cpi::Cpi;
use crate::order::OrderPlan;
use crate::result::MatchOutcome;

/// Sentinel for unmapped query vertices.
pub(crate) const UNMAPPED: VertexId = VertexId::MAX;

/// The backtrack quantum: how many search nodes may pass between
/// deadline/cancellation checks. A cancelled or expired search stops within
/// this many additional node expansions (the serving layer's cancellation
/// latency bound; `serve` tests pin it).
pub const CANCEL_QUANTUM: u64 = 4096;

pub(crate) struct Enumerator<'a, 's, O: OrderingStrategy, P: PruningStrategy> {
    q: &'a Graph,
    g: &'a Graph,
    cpi: &'a Cpi,
    plan: &'a OrderPlan,
    sink: super::SinkRef<'s>,
    leaf: LeafPhase,
    ordering: O,
    pruning: P,

    /// mapping[u] = data vertex for query vertex u, or UNMAPPED.
    pub mapping: Vec<VertexId>,
    /// pos[u] = position of mapping[u] within `cpi.candidates(u)`.
    pub pos: Vec<u32>,
    /// Data vertices already used by the partial embedding. Word-packed so
    /// the per-candidate membership test is one load + mask instead of a
    /// byte access over a `|V(G)|`-sized `Vec<bool>`.
    pub visited: FixedBitSet,
    /// Whether query vertex `u` is the source of some `ValidateNT` check
    /// (decided by the ordering strategy: with the static plan, whether
    /// `u` appears in a later step's `checks` list).
    is_check_source: Vec<bool>,
    /// For each check source `u`: the data-graph neighborhood of `mapping[u]`
    /// as a bitset, maintained while `u` is mapped. Turns every non-tree
    /// edge probe from an `O(log d)` adjacency binary search into an O(1)
    /// bit test. Non-sources carry zero-capacity (unallocated) sets.
    nt_mask: Vec<FixedBitSet>,

    pub emitted: u64,
    pub nodes: u64,
    pub nt_checks: u64,
    /// Hot-path trace counters: the depth histogram (one slot per order
    /// position, so a search node costs one indexed increment),
    /// backtracks and leaf nodes.
    tr: cfl_trace::EnumCounters,

    max_embeddings: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    timed_out: bool,
    cancelled: bool,
}

/// Inner control signal: stop the whole search.
pub(crate) struct Stop;

impl<'a, 's, O: OrderingStrategy, P: PruningStrategy> Enumerator<'a, 's, O, P> {
    pub(crate) fn new(
        q: &'a Graph,
        g: &'a Graph,
        cpi: &'a Cpi,
        plan: &'a OrderPlan,
        budget: Budget,
        sink: super::SinkRef<'s>,
    ) -> Self {
        let deadline = budget.time_limit.map(|d| Instant::now() + d);
        let ordering = O::new(q, cpi, plan);
        let pruning = P::new(q, g, plan);
        let is_check_source = ordering.check_sources(q, plan);
        let nt_mask = is_check_source
            .iter()
            .map(|&src| FixedBitSet::new(if src { g.num_vertices() } else { 0 }))
            .collect();
        Enumerator {
            q,
            g,
            cpi,
            plan,
            sink,
            leaf: LeafPhase::new(q.num_vertices()),
            ordering,
            pruning,
            mapping: vec![UNMAPPED; q.num_vertices()],
            pos: vec![0; q.num_vertices()],
            visited: FixedBitSet::new(g.num_vertices()),
            is_check_source,
            nt_mask,
            emitted: 0,
            nodes: 0,
            nt_checks: 0,
            tr: cfl_trace::EnumCounters::with_depths(plan.vertices.len()),
            max_embeddings: budget.max_embeddings.unwrap_or(u64::MAX),
            deadline,
            cancel: budget.cancel,
            timed_out: false,
            cancelled: false,
        }
    }

    /// Why a `Stop` break happened, in precedence order: an explicit
    /// cancellation wins over a deadline expiry, which wins over the
    /// embedding cap / sink stop.
    fn stop_outcome(&self) -> MatchOutcome {
        if self.cancelled {
            MatchOutcome::Cancelled
        } else if self.timed_out {
            MatchOutcome::TimedOut
        } else {
            MatchOutcome::LimitReached
        }
    }

    /// Runs the search to completion (or budget exhaustion).
    pub(crate) fn run(&mut self) -> MatchOutcome {
        if self.max_embeddings == 0 {
            return MatchOutcome::LimitReached;
        }
        match self.extend(0) {
            ControlFlow::Continue(()) => MatchOutcome::Complete,
            ControlFlow::Break(Stop) => self.stop_outcome(),
        }
    }

    /// Polls the cooperative stop signals (cancellation token, wall-clock
    /// deadline) once per [`CANCEL_QUANTUM`] search nodes. Both are
    /// monotonic latches, so observing them a quantum late only delays the
    /// stop — it never changes results that were already emitted.
    fn out_of_time(&mut self) -> bool {
        if self.nodes.is_multiple_of(CANCEL_QUANTUM) {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    self.cancelled = true;
                    return true;
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.timed_out = true;
                    return true;
                }
            }
        }
        false
    }

    fn extend(&mut self, depth: usize) -> ControlFlow<Stop> {
        if depth == self.plan.vertices.len() {
            self.pruning.on_complete(depth);
            return self.complete();
        }
        let cpi = self.cpi;
        let plan = self.plan;
        let slot = self
            .ordering
            .select(depth, cpi, plan, &self.mapping, &self.pos);
        let ov = &plan.vertices[slot];
        let u = ov.vertex;
        {
            let constraints = self.ordering.constraints(ov);
            self.pruning
                .enter(depth, u, ov.parent, constraints, &self.mapping);
        }
        match ov.parent {
            None => {
                // The root: iterate its full candidate set.
                for i in 0..cpi.candidates(u).len() {
                    if self.try_candidate(depth, slot, i as u32)? {
                        break;
                    }
                }
            }
            Some(p) => {
                let row = cpi.row(u, self.pos[p as usize] as usize);
                for &cand_pos in row {
                    if self.try_candidate(depth, slot, cand_pos)? {
                        break;
                    }
                }
            }
        }
        self.pruning.exit(depth, u);
        ControlFlow::Continue(())
    }

    /// Tries one candidate of the vertex at `slot` (chosen for `depth`).
    /// `Continue(true)` tells the caller's loop to skip the remaining
    /// sibling candidates (a pruning backjump).
    #[inline]
    fn try_candidate(
        &mut self,
        depth: usize,
        slot: usize,
        cand_pos: u32,
    ) -> ControlFlow<Stop, bool> {
        self.nodes += 1;
        self.tr.bump_node(depth);
        if self.out_of_time() {
            return ControlFlow::Break(Stop);
        }
        let ov = &self.plan.vertices[slot];
        let u = ov.vertex;
        let v = self.cpi.candidates(u)[cand_pos as usize];
        // Cheap invariant probes (§4.1): every CPI candidate carries the
        // query vertex's label, and every adjacency-row entry is a real
        // data edge to the mapped parent.
        debug_assert_eq!(self.g.label(v), self.q.label(u));
        debug_assert!(ov
            .parent
            .is_none_or(|p| self.g.has_edge(self.mapping[p as usize], v)));
        if self.visited.contains(v) {
            self.pruning.on_conflict(depth, u, v);
            return ControlFlow::Continue(false);
        }
        // ValidateNT: probe the maintained neighborhood bitset of every
        // mapped non-tree endpoint — one bit test per check instead of a
        // binary search over the mapped vertex's adjacency list. Static
        // constraint lists only hold earlier-ordered (mapped) vertices, so
        // the mapped test compiles out; dynamic orders validate each
        // non-tree edge from whichever endpoint is mapped second.
        let constraints = self.ordering.constraints(ov);
        for &w in constraints {
            if O::DYNAMIC && self.mapping[w as usize] == UNMAPPED {
                continue;
            }
            self.nt_checks += 1;
            debug_assert_eq!(
                self.nt_mask[w as usize].contains(v),
                self.g.has_edge(self.mapping[w as usize], v)
            );
            if !self.nt_mask[w as usize].contains(v) {
                self.pruning.on_check_fail(depth, u, w);
                return ControlFlow::Continue(false);
            }
        }
        self.mapping[u as usize] = v;
        self.pos[u as usize] = cand_pos;
        self.visited.insert(v);
        self.pruning.on_mapped(u, v);
        let check_source = self.is_check_source[u as usize];
        if check_source {
            self.nt_mask[u as usize].insert_all(self.g.neighbors(v));
        }
        let emitted_before = self.emitted;
        let r = self.extend(depth + 1);
        if check_source {
            self.nt_mask[u as usize].remove_all(self.g.neighbors(v));
        }
        self.visited.remove(v);
        self.mapping[u as usize] = UNMAPPED;
        self.tr.backtracks += 1;
        let skip = self
            .pruning
            .after_child(depth, u, self.emitted > emitted_before);
        r?;
        ControlFlow::Continue(skip)
    }

    /// All core + forest vertices are mapped: run the leaf phase (or emit
    /// directly when there are no leaves).
    fn complete(&mut self) -> ControlFlow<Stop> {
        if self.plan.leaves.is_empty() {
            return self.emit();
        }
        let mut leaf = std::mem::replace(&mut self.leaf, LeafPhase::new(0));
        let r = leaf.run(self);
        self.leaf = leaf;
        r
    }

    /// Emits the current full mapping. Called by the leaf phase too.
    pub(crate) fn emit(&mut self) -> ControlFlow<Stop> {
        debug_assert!(self.mapping.iter().all(|&v| v != UNMAPPED));
        self.emitted += 1;
        let keep_going = match self.sink.as_mut() {
            Some(sink) => sink(&self.mapping),
            None => true,
        };
        if !keep_going || self.emitted >= self.max_embeddings {
            return ControlFlow::Break(Stop);
        }
        ControlFlow::Continue(())
    }

    /// Counting shortcut used by the leaf phase when no sink is installed:
    /// bump the emitted counter by `n` embeddings at once.
    pub(crate) fn emit_bulk(&mut self, n: u64) -> ControlFlow<Stop> {
        debug_assert!(self.sink.is_none());
        self.emitted = self.emitted.saturating_add(n);
        if self.emitted >= self.max_embeddings {
            self.emitted = self.emitted.min(self.max_embeddings);
            return ControlFlow::Break(Stop);
        }
        ControlFlow::Continue(())
    }

    /// Whether embeddings are materialized (sink present) or only counted.
    pub(crate) fn counting_only(&self) -> bool {
        self.sink.is_none()
    }

    /// Counts one search node attempted by the leaf phase. Leaf
    /// assignments sit outside the matching order, so the trace records
    /// them in `leaf_nodes` rather than the depth histogram.
    pub(crate) fn bump_node(&mut self) -> ControlFlow<Stop> {
        self.nodes += 1;
        self.tr.leaf_nodes += 1;
        if self.out_of_time() {
            return ControlFlow::Break(Stop);
        }
        ControlFlow::Continue(())
    }

    pub(crate) fn query(&self) -> &'a Graph {
        self.q
    }

    /// The data graph (used by leaf-match debug probes).
    pub(crate) fn data(&self) -> &'a Graph {
        self.g
    }

    pub(crate) fn cpi(&self) -> &'a Cpi {
        self.cpi
    }

    pub(crate) fn plan(&self) -> &'a OrderPlan {
        self.plan
    }

    /// Drains this enumerator's counters into the run's enumeration
    /// record, summing the core/forest split from the depth histogram.
    pub(crate) fn take_trace(&mut self) -> cfl_trace::EnumTrace {
        let mut counters = std::mem::take(&mut self.tr);
        counters.backjumps += self.pruning.backjumps();
        counters.split_depths(self.plan.core_len);
        cfl_trace::EnumTrace {
            embeddings: self.emitted,
            nodes: self.nodes,
            nt_checks: self.nt_checks,
            counters,
        }
    }
}

// Allow `?` on ControlFlow<Stop> inside this module (stable since 1.55 via
// the Try impl for ControlFlow).

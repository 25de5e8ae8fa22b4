//! Bridge to the `cfl-verify` invariant checkers.
//!
//! [`verify_prepared`] re-derives every invariant of a prepared query —
//! the graph representation, the CFL decomposition (§3), the CPI (§4.1,
//! Algorithms 3–4) and the matching order (§4.2.1, Algorithm 2) — and
//! reports violations with vertex-level diagnostics. It is always
//! compiled, so `cfl verify` reaches it in every build. Only the `validate`
//! cargo feature makes [`prepare`](crate::prepare) call it (through
//! [`assert_valid`]) on every query; without the feature no checker call
//! site exists on the query path.

use cfl_graph::{BfsTree, Graph, VertexId};
use cfl_verify::{
    check_cpi, check_decomposition, check_graph, check_order, CpiCheckOptions, CpiView, DecompSpec,
    OrderSpec, OrderStep, PartClass, Report, TreeSpec,
};

use crate::config::{CpiMode, DecompositionMode, MatchConfig};
use crate::cpi::Cpi;
use crate::decompose::{CflDecomposition, Role};
use crate::exec::Prepared;
use crate::order::OrderPlan;

impl CpiView for Cpi {
    fn tree(&self) -> &BfsTree {
        &self.tree
    }
    fn candidates(&self, u: VertexId) -> &[VertexId] {
        Cpi::candidates(self, u)
    }
    fn row(&self, u: VertexId, parent_pos: usize) -> &[u32] {
        Cpi::row(self, u, parent_pos)
    }
    fn arena_totals(&self) -> Option<(u64, u64)> {
        Some(Cpi::arena_totals(self))
    }
}

fn part_class(role: Role) -> PartClass {
    match role {
        Role::Core => PartClass::Core,
        Role::Forest => PartClass::Forest,
        Role::Leaf => PartClass::Leaf,
    }
}

/// Mirrors the engine's decomposition into the checker's specification.
pub fn decomp_spec(
    decomp: &CflDecomposition,
    root: VertexId,
    mode: DecompositionMode,
) -> DecompSpec {
    DecompSpec {
        roles: decomp.roles.iter().map(|&r| part_class(r)).collect(),
        trees: decomp
            .trees
            .iter()
            .map(|t| TreeSpec {
                connection: t.connection,
                members: t.members.clone(),
            })
            .collect(),
        root,
        whole_core: mode == DecompositionMode::None,
        leaves_extracted: mode == DecompositionMode::CoreForestLeaf,
    }
}

/// Mirrors the engine's matching plan into the checker's specification.
pub fn order_spec(plan: &OrderPlan) -> OrderSpec {
    OrderSpec {
        steps: plan
            .vertices
            .iter()
            .map(|ov| OrderStep {
                vertex: ov.vertex,
                parent: ov.parent,
                checks: ov.checks.clone(),
            })
            .collect(),
        core_len: plan.core_len,
        leaves: plan.leaves.clone(),
    }
}

/// CPI checker options matching the construction mode and filter knobs the
/// index was built under. The naive construction applies only the label
/// filter and skips pruning entirely, so everything else is off for it.
pub fn cpi_check_options(config: &MatchConfig) -> CpiCheckOptions {
    let pruned = config.cpi != CpiMode::Naive;
    CpiCheckOptions {
        use_degree: pruned,
        use_nlf: pruned && config.filters.use_nlf,
        use_mnd: pruned && config.filters.use_mnd,
        expect_reachable: pruned,
        expect_refined: config.cpi == CpiMode::TopDownRefined,
    }
}

/// Re-derives and checks every invariant of a prepared query, returning the
/// accumulated report (clean when everything holds).
pub fn verify_prepared(q: &Graph, g: &Graph, prepared: &Prepared, config: &MatchConfig) -> Report {
    let mut report = Report::new();
    check_graph(q, &mut report);
    check_graph(g, &mut report);
    check_cpi(
        q,
        g,
        prepared.cpi.as_ref(),
        &cpi_check_options(config),
        &mut report,
    );
    check_decomposition(
        q,
        &decomp_spec(
            &prepared.decomposition,
            prepared.cpi.root(),
            config.decomposition,
        ),
        &mut report,
    );
    // The order plan is intentionally empty when emptiness was proven
    // during CPI construction; there is nothing to check then.
    if !prepared.provably_empty() {
        let roles: Vec<PartClass> = prepared
            .decomposition
            .roles
            .iter()
            .map(|&r| part_class(r))
            .collect();
        check_order(q, &roles, &order_spec(&prepared.plan), &mut report);
    }
    report
}

/// Panics with vertex-level diagnostics when any invariant is violated.
pub fn assert_valid(q: &Graph, g: &Graph, prepared: &Prepared, config: &MatchConfig) {
    let report = verify_prepared(q, g, prepared, config);
    assert!(
        report.is_clean(),
        "validate: invariant violations in prepared query:\n{report}"
    );
}

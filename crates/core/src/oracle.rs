//! Differential-testing hooks for external harnesses (feature `oracle`).
//!
//! The `cfl-fuzz` crate needs to compare the production flat-arena CPI
//! freeze against the naive nested reference representation, and plans
//! carried across deltas against cold builds; both live behind
//! crate-private APIs. This module packages those comparisons as
//! self-contained calls so the internals stay private. It is **not a
//! stable API** and is compiled only under the `oracle` feature.

use cfl_graph::{Graph, VertexId};

use crate::cache::{peek, PlanCache};
use crate::config::MatchConfig;
use crate::cpi::{refine, topdown};
use crate::filters::{FilterContext, GraphStats};

/// The [`Cpi::checksum`](crate::Cpi::checksum) of the plan `cache` holds
/// for `q` (or any label-preserving isomorph of it) at `epoch` under
/// `config`, if one is resident. Counts no lookup and leaves recency and
/// admission counts alone, so probing does not perturb the cache under
/// test.
pub fn cached_plan_checksum(
    cache: &PlanCache,
    q: &Graph,
    epoch: u64,
    config: &MatchConfig,
) -> Option<u64> {
    peek(cache, q, epoch, config).map(|plan| plan.cpi.checksum())
}

/// Builds the CPI for `(q, g)` twice — through the production flat-arena
/// freeze and through the nested reference freeze — and verifies they are
/// element-for-element equal, both before and after bottom-up refinement.
///
/// `q` must be connected and non-empty (callers generate queries by
/// spanning tree, so this holds by construction). Returns a description of
/// the first divergence found.
///
/// # Errors
/// An `Err` is a real differential finding: the flat freeze and the nested
/// reference disagree on candidates or rows.
pub fn flat_matches_nested(q: &Graph, g: &Graph) -> Result<(), String> {
    let qs = GraphStats::build(q);
    let gs = GraphStats::build(g);
    let ctx = FilterContext::new(q, g, &qs, &gs);
    for refined in [false, true] {
        let mut builder = topdown::top_down(&ctx, 0);
        if refined {
            refine::bottom_up(&ctx, &mut builder);
        }
        builder.prune_unreachable();
        let (cands, row_offsets, row_data) = builder.freeze_nested(q);
        let cpi = builder.freeze(q, g);

        for (u, nested) in cands.iter().enumerate() {
            let flat = cpi.candidates(u as VertexId);
            if flat != nested.as_slice() {
                return Err(format!(
                    "candidates diverge at u={u} (refined={refined}): \
                     flat={flat:?} nested={nested:?}"
                ));
            }
        }
        for u in 0..q.num_vertices() as VertexId {
            let Some(parent) = cpi.parent(u) else {
                continue;
            };
            let num_parent = cands[parent as usize].len();
            let offsets = &row_offsets[u as usize];
            if offsets.len() != num_parent + 1 {
                return Err(format!(
                    "nested offsets for u={u} have {} entries, expected {}",
                    offsets.len(),
                    num_parent + 1
                ));
            }
            for pos in 0..num_parent {
                let flat = cpi.row(u, pos);
                let nested =
                    &row_data[u as usize][offsets[pos] as usize..offsets[pos + 1] as usize];
                if flat != nested {
                    return Err(format!(
                        "row diverges at u={u} parent_pos={pos} (refined={refined}): \
                         flat={flat:?} nested={nested:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

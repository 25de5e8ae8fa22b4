//! Adversarial instances from the paper's motivating analyses, plus
//! deterministic stress shapes for the intersection-kernel family.
//!
//! * [`challenge1`] — Figure 1: the dissimilar-vertex Cartesian-product
//!   trap that motivates the CFL decomposition (§1, Challenge 1).
//! * [`near_clique_pathology`] — Figures 17/18 (§A.3): the near-clique
//!   instance on which TurboISO's materialized path embeddings explode
//!   exponentially (the authors report the original implementation
//!   *crashes*), while the CPI stays `O(|E(G)|·|V(q)|)`.
//! * [`triangle_fan`], [`power_law_wedge`], [`dense_circulant`] — the
//!   kernel stress sweep ([`kernel_stress_suite`]): instances whose
//!   candidate adjacency rows are long and similar-length, wildly skewed
//!   in length, or dense over a single label, so benchmarks exercise the
//!   bitset kernels and enumeration on CPI-shaped inputs rather than
//!   synthetic arrays alone.

use cfl_graph::{Graph, GraphBuilder, Label};

/// Labels used by the constructions.
const A: Label = Label(0);
const B: Label = Label(1);
const C: Label = Label(2);
const D: Label = Label(3);
const E: Label = Label(4);
const F: Label = Label(5);

/// The Figure 1 instance, parameterized by the branch widths (the paper
/// uses 100 C–D chains and 1000 E branches).
///
/// Query: `u1(A)–u2(B)–u3(C)–u4(D)` chain, `u1–u5(E)–u6(F)` chain, and the
/// non-tree edge `(u2, u5)`. Data: one A–B pair; `num_cd` C–D chains on the
/// B; `num_e` E vertices on the A of which only the first also connects to
/// the B and carries the F.
pub fn challenge1(num_cd: u32, num_e: u32) -> (Graph, Graph) {
    let q = cfl_graph::graph_from_edges(
        &[0, 1, 2, 3, 4, 5],
        &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 4)],
    )
    .unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    let va = b.add_vertex(A);
    let vb = b.add_vertex(B);
    b.add_edge(va, vb);
    for _ in 0..num_cd {
        let c = b.add_vertex(C);
        let d = b.add_vertex(D);
        b.add_edge(vb, c);
        b.add_edge(c, d);
    }
    for i in 0..num_e {
        let e = b.add_vertex(E);
        b.add_edge(va, e);
        if i == 0 {
            b.add_edge(vb, e);
            let f = b.add_vertex(F);
            b.add_edge(e, f);
        }
    }
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// The §A.3 near-clique instance (Figures 17/18).
///
/// Data graph: `n_clique` A-labeled vertices forming a near-clique — every
/// pair adjacent except consecutive pairs `(v_i, v_{i+1})` and the wrap
/// pair `(v_0, v_{n-1})` — plus a B and a C vertex attached to `v_0`.
///
/// Query: a chain of `chain_len` A vertices whose head carries a B leaf and
/// a C leaf, plus (when `with_nt_edge`) a non-tree edge between the second
/// and last chain vertices. The A-chain admits `∏_{j=1..len−1}(n−j−2)` path
/// embeddings from `v_0` — exponential in the chain length — which is
/// exactly what TurboISO materializes to rank paths (§A.3), while the CPI
/// stores only per-edge candidate adjacency.
pub fn near_clique_pathology(n_clique: u32, chain_len: u32, with_nt_edge: bool) -> (Graph, Graph) {
    assert!(n_clique >= 5 && chain_len >= 3);
    // Data graph.
    let mut b = GraphBuilder::new();
    for _ in 0..n_clique {
        b.add_vertex(A);
    }
    for i in 0..n_clique {
        for j in (i + 1)..n_clique {
            let consecutive = j == i + 1 || (i == 0 && j == n_clique - 1);
            if !consecutive {
                b.add_edge(i, j);
            }
        }
    }
    let vb = b.add_vertex(B);
    let vc = b.add_vertex(C);
    b.add_edge(0, vb);
    b.add_edge(0, vc);
    let g = b
        .build()
        .unwrap_or_else(|_| unreachable!("static data graph"));

    // Query: chain u0(A) … u_{chain_len-1}(A); head u0 also has B, C leaves.
    let mut qb = GraphBuilder::new();
    for _ in 0..chain_len {
        qb.add_vertex(A);
    }
    let ub = qb.add_vertex(B);
    let uc = qb.add_vertex(C);
    for i in 0..chain_len - 1 {
        qb.add_edge(i, i + 1);
    }
    qb.add_edge(0, ub);
    qb.add_edge(0, uc);
    if with_nt_edge {
        // Figure 18(c): a non-tree edge between the second chain vertex and
        // the tail, checked only after the whole chain is materialized.
        qb.add_edge(1, chain_len - 1);
    }
    (
        qb.build().unwrap_or_else(|_| unreachable!("static query")),
        g,
    )
}

/// Triangle-heavy instance: `num_hubs` A-labeled hubs each fanning over a
/// shared B-labeled ring of `ring` vertices (consecutive ring vertices
/// adjacent), so every hub closes `ring − 1` triangles and hub adjacency
/// rows are long and heavily overlapping. The query is the A–B–B triangle.
///
/// CPI construction intersects each hub row with the ring candidates
/// (long list vs long list — the merge regime), and every enumeration
/// step closes a triangle through a non-tree-edge bitset probe.
pub fn triangle_fan(num_hubs: u32, ring: u32) -> (Graph, Graph) {
    assert!(num_hubs >= 1 && ring >= 3);
    let q = cfl_graph::graph_from_edges(&[0, 1, 1], &[(0, 1), (1, 2), (2, 0)])
        .unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    let hubs: Vec<u32> = (0..num_hubs).map(|_| b.add_vertex(A)).collect();
    let rim: Vec<u32> = (0..ring).map(|_| b.add_vertex(B)).collect();
    for i in 0..ring as usize {
        b.add_edge(rim[i], rim[(i + 1) % ring as usize]);
    }
    for (hi, &h) in hubs.iter().enumerate() {
        // Each hub covers a sliding 3/4 window of the ring so hub rows
        // overlap pairwise without being identical.
        let span = (ring as usize * 3) / 4;
        for off in 0..span {
            b.add_edge(h, rim[(hi + off) % ring as usize]);
        }
    }
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// Skewed-degree instance: B-labeled probes whose degrees follow a
/// harmonic power law (`probe i` connects to `pool / (i + 1)` A vertices
/// of a shared pool), so candidate adjacency rows range from `pool` long
/// down to a handful. The query is the B–A–B wedge: matching intersects
/// the long head rows with the short tail rows, while same-label pools
/// keep candidate sets dense.
pub fn power_law_wedge(num_probes: u32, pool: u32) -> (Graph, Graph) {
    assert!(num_probes >= 2 && pool >= 2);
    let q = cfl_graph::graph_from_edges(&[1, 0, 1], &[(0, 1), (1, 2)])
        .unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    let shared: Vec<u32> = (0..pool).map(|_| b.add_vertex(A)).collect();
    for i in 0..num_probes {
        let p = b.add_vertex(B);
        let deg = (pool / (i + 1)).max(1);
        // Stride the pool so short rows are spread across the long rows'
        // value range.
        let stride = (pool / deg).max(1);
        for k in 0..deg {
            b.add_edge(p, shared[((k * stride) % pool) as usize]);
        }
    }
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// Dense single-label circulant: `n` A-labeled vertices where `v` is
/// adjacent to `v ± 1 .. v ± width` (mod `n`). One label means every
/// vertex is a candidate for every query vertex, and all adjacency rows
/// have identical length `2·width` — maximal pressure on the bitset
/// retain/intersect kernels and the word-at-a-time fast paths. The query
/// is the A–A–A triangle (circulants with `width ≥ 2` are triangle-rich).
pub fn dense_circulant(n: u32, width: u32) -> (Graph, Graph) {
    assert!(n >= 5 && width >= 2 && 2 * width < n);
    let q = cfl_graph::graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)])
        .unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(A);
    }
    for v in 0..n {
        for d in 1..=width {
            b.add_edge(v, (v + d) % n);
        }
    }
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// Deep-core-chain trap: a query cycle (all core) over a layered data
/// grid with `fanout^depth` partial embeddings, plus one forest branch
/// `r–t1(C)–t2(A)–t3(E)` whose `t2` can only map to the very vertex the
/// root already occupies — an injectivity conflict invisible to every
/// build-time filter (the CPI rows are all non-empty), discovered only
/// after the entire core product is materialized.
///
/// Plain backtracking re-enumerates the full core product for the doomed
/// root candidate, failing at `t2` every time. Failing-set pruning sees a
/// conflict class `{r, t1, t2}` that excludes every chain vertex and
/// backjumps from `t2` across the whole core straight to the root. A
/// second block (`a2`) keeps the instance satisfiable: its `t1` candidate
/// reaches a spare `A` vertex (`a3`, excluded from the root's candidates
/// by its missing `B` neighbor), yielding exactly two embeddings (the two
/// cycle orientations).
pub fn deep_chain_trap(depth: u32, fanout: u32) -> (Graph, Graph) {
    assert!(depth >= 2 && fanout >= 2);
    // Query: cycle r(A)–c1(B)–…–c_depth(B)–r, branch r–t1(C)–t2(A)–t3(E).
    let mut qb = GraphBuilder::new();
    let r = qb.add_vertex(A);
    let chain: Vec<u32> = (0..depth).map(|_| qb.add_vertex(B)).collect();
    qb.add_edge(r, chain[0]);
    for w in chain.windows(2) {
        qb.add_edge(w[0], w[1]);
    }
    qb.add_edge(chain[depth as usize - 1], r);
    let t1 = qb.add_vertex(C);
    let t2 = qb.add_vertex(A);
    let t3 = qb.add_vertex(E);
    qb.add_edge(r, t1);
    qb.add_edge(t1, t2);
    qb.add_edge(t2, t3);
    let q = qb.build().unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    // Trap block: root candidate `a` over a complete-bipartite B grid
    // (levels 1..depth, first and last level closing the cycle on `a`).
    let va = b.add_vertex(A);
    let mut prev: Vec<u32> = Vec::new();
    for level in 0..depth {
        let layer: Vec<u32> = (0..fanout).map(|_| b.add_vertex(B)).collect();
        if level == 0 {
            for &v in &layer {
                b.add_edge(va, v);
            }
        } else {
            for &p in &prev {
                for &v in &layer {
                    b.add_edge(p, v);
                }
            }
        }
        prev = layer;
    }
    for &v in &prev {
        b.add_edge(va, v);
    }
    // `fanout` C vertices feed t1. Each needs *two* A neighbors to clear
    // t1's NLF signature (t1 touches both r and t2 in the query), so each
    // sees `a` plus a decoy A vertex `x` — but `x` has no E neighbor, so
    // the NLF filter (and, failing that, the t3 leaf) rules it out for
    // t2, leaving t2's effective row exactly {a}: non-empty for every
    // build-time filter, doomed by injectivity at runtime.
    let decoy = b.add_vertex(A);
    for _ in 0..fanout {
        let c = b.add_vertex(C);
        b.add_edge(va, c);
        b.add_edge(c, decoy);
    }
    // Pendant E keeps `a` inside C(t2) under the NLF filter.
    let ea = b.add_vertex(E);
    b.add_edge(va, ea);

    // Satisfying block: a2 with a single data cycle, whose C vertex also
    // reaches a spare A vertex a3 (with the E pendant t3 needs).
    let va2 = b.add_vertex(A);
    let cyc: Vec<u32> = (0..depth).map(|_| b.add_vertex(B)).collect();
    b.add_edge(va2, cyc[0]);
    for w in cyc.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.add_edge(cyc[depth as usize - 1], va2);
    let t1p = b.add_vertex(C);
    b.add_edge(va2, t1p);
    let va3 = b.add_vertex(A);
    b.add_edge(t1p, va3);
    let e3 = b.add_vertex(E);
    b.add_edge(va3, e3);
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// High-fanout forest with a shared conflict vertex: the query hangs a
/// cheap "grabber" tree `r–p1(C)–p2(E)`, `num_filler` filler trees
/// `r–f(B)–leaf(F)` drawing from a shared `fanout`-sized B pool, and a
/// trapped tree `r–t1(D)–t2(C)–t3(E)` off one root. On the adversarial
/// block the grabber's and the trap's C candidates are the **same single
/// data vertex** `s`: the grabber (smallest tree estimate, ordered first)
/// takes it, the trap (largest estimate — `2·fanout` D candidates — so
/// the ascending tree order places it last) conflicts on it after every
/// filler combination.
///
/// Plain backtracking walks all `fanout ⋅ (fanout−1) ⋯` filler
/// assignments between grabber and trap, re-failing identically. The
/// failing set of the conflict, `{r, p1, t1, t2}`, excludes every filler
/// vertex, so failing-set pruning backjumps across the whole forest to
/// the grabber. A second block with disjoint C vertices for grabber and
/// trap stays satisfiable (`num_filler!` embeddings from the
/// interchangeable fillers).
pub fn conflict_forest(num_filler: u32, fanout: u32) -> (Graph, Graph) {
    assert!(num_filler >= 1 && fanout >= num_filler);
    let wide = 2 * fanout;
    let mut qb = GraphBuilder::new();
    let r = qb.add_vertex(A);
    let p1 = qb.add_vertex(C);
    let p2 = qb.add_vertex(E);
    qb.add_edge(r, p1);
    qb.add_edge(p1, p2);
    for _ in 0..num_filler {
        let f1 = qb.add_vertex(B);
        let f2 = qb.add_vertex(F);
        qb.add_edge(r, f1);
        qb.add_edge(f1, f2);
    }
    let t1 = qb.add_vertex(D);
    let t2 = qb.add_vertex(C);
    let t3 = qb.add_vertex(E);
    qb.add_edge(r, t1);
    qb.add_edge(t1, t2);
    qb.add_edge(t2, t3);
    let q = qb.build().unwrap_or_else(|_| unreachable!("static query"));

    let mut b = GraphBuilder::new();
    // Adversarial block: one shared C vertex `s` serving both p1 and t2.
    let va = b.add_vertex(A);
    let s = b.add_vertex(C);
    b.add_edge(va, s);
    let es = b.add_vertex(E);
    b.add_edge(s, es);
    for _ in 0..fanout {
        let bv = b.add_vertex(B);
        b.add_edge(va, bv);
        let fv = b.add_vertex(F);
        b.add_edge(bv, fv);
    }
    for _ in 0..wide {
        let d = b.add_vertex(D);
        b.add_edge(va, d);
        b.add_edge(d, s);
    }

    // Satisfiable block: grabber and trap resolve to distinct C vertices.
    let va2 = b.add_vertex(A);
    let sp = b.add_vertex(C);
    b.add_edge(va2, sp);
    let ep = b.add_vertex(E);
    b.add_edge(sp, ep);
    for _ in 0..num_filler {
        let bv = b.add_vertex(B);
        b.add_edge(va2, bv);
        let fv = b.add_vertex(F);
        b.add_edge(bv, fv);
    }
    let dp = b.add_vertex(D);
    b.add_edge(va2, dp);
    let spp = b.add_vertex(C);
    b.add_edge(dp, spp);
    let epp = b.add_vertex(E);
    b.add_edge(spp, epp);
    (
        q,
        b.build()
            .unwrap_or_else(|_| unreachable!("static data graph")),
    )
}

/// The pruning stress sweep: the two failing-set adversaries at bench
/// size, scaled like [`kernel_stress_suite`].
pub fn pruning_stress_suite(scale: u32) -> Vec<(&'static str, Graph, Graph)> {
    let s = scale.max(1);
    let (cq, cg) = deep_chain_trap(4 + s.min(2), (3 * s).clamp(3, 6));
    let (fq, fg) = conflict_forest((3 * s).min(6), (6 * s).min(12));
    vec![("deep_chain_trap", cq, cg), ("conflict_forest", fq, fg)]
}

/// The kernel stress sweep: one named instance per dispatcher regime,
/// sized by `scale` (1 = benchmark size; smaller values shrink every
/// dimension proportionally for quick runs, floored at valid shapes).
pub fn kernel_stress_suite(scale: u32) -> Vec<(&'static str, Graph, Graph)> {
    let s = scale.max(1);
    let (tq, tg) = triangle_fan(12 * s, (160 * s).max(8));
    let (pq, pg) = power_law_wedge(48 * s, (256 * s).max(8));
    let (dq, dg) = dense_circulant((220 * s).max(16), (24 * s).min((220 * s).max(16) / 2 - 1));
    vec![
        ("tri_fan", tq, tg),
        ("power_law_wedge", pq, pg),
        ("dense_circulant", dq, dg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn challenge1_shapes() {
        let (q, g) = challenge1(10, 50);
        assert_eq!(q.num_vertices(), 6);
        assert_eq!(g.num_vertices(), 2 + 20 + 50 + 1);
        // Exactly one E vertex carries an F and links back to B.
        let f_count = g.vertices().filter(|&v| g.label(v) == F).count();
        assert_eq!(f_count, 1);
    }

    #[test]
    fn near_clique_structure() {
        let (q, g) = near_clique_pathology(8, 4, true);
        // Near-clique: C(8,2) − 8 missing consecutive pairs.
        let clique_edges = 8 * 7 / 2 - 8;
        assert_eq!(g.num_edges(), clique_edges + 2);
        // Query: chain (3 edges) + 2 leaves + 1 NT edge.
        assert_eq!(q.num_edges(), 3 + 2 + 1);
        assert_eq!(q.num_vertices(), 6);
        let (q2, _) = near_clique_pathology(8, 4, false);
        assert_eq!(q2.num_edges(), 5);
    }

    #[test]
    fn pathology_instances_have_embeddings() {
        use cfl_baselines_check::count_ullmann;
        let (q, g) = near_clique_pathology(8, 3, false);
        assert!(count_ullmann(&q, &g) > 0);
        // The NT-edge variant stays satisfiable on a near-clique (it is the
        // *materialization volume*, not emptiness, that §A.3 analyzes).
        let (q2, g2) = near_clique_pathology(8, 4, true);
        assert!(count_ullmann(&q2, &g2) > 0);
    }

    #[test]
    fn triangle_fan_is_triangle_rich() {
        let (q, g) = triangle_fan(3, 12);
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(g.num_vertices(), 3 + 12);
        // Every hub row spans 3/4 of the ring.
        for h in 0..3u32 {
            assert_eq!(g.degree(h), 9);
        }
        assert!(cfl_baselines_check::count_ullmann(&q, &g) > 0);
    }

    #[test]
    fn power_law_wedge_has_skewed_rows() {
        let (q, g) = power_law_wedge(8, 64);
        assert_eq!(q.num_vertices(), 3);
        let probe_degrees: Vec<usize> = (64..64 + 8).map(|p| g.degree(p)).collect();
        assert_eq!(probe_degrees[0], 64, "head probe spans the pool");
        assert!(
            probe_degrees.last().copied().unwrap() <= 8,
            "tail probes are short: {probe_degrees:?}"
        );
        assert!(cfl_baselines_check::count_ullmann(&q, &g) > 0);
    }

    #[test]
    fn dense_circulant_shape_and_embeddings() {
        let (q, g) = dense_circulant(20, 3);
        assert_eq!(g.num_vertices(), 20);
        // Circulant regularity: every row is exactly 2·width long.
        assert!(g.vertices().all(|v| g.degree(v) == 6));
        assert!(cfl_baselines_check::count_ullmann(&q, &g) > 0);
    }

    #[test]
    fn deep_chain_trap_shape_and_embeddings() {
        let (q, g) = deep_chain_trap(3, 3);
        // Query: root + 3-chain cycle + 3 trap vertices.
        assert_eq!(q.num_vertices(), 7);
        assert_eq!(q.num_edges(), 7, "cycle (4 edges) + trap path (3)");
        // The doomed root candidate (vertex 0) sees fanout C vertices but
        // its trap resolves only back to itself; the satisfying block
        // yields exactly the two cycle orientations.
        assert_eq!(cfl_baselines_check::count_ullmann(&q, &g), 2);
    }

    #[test]
    fn conflict_forest_shape_and_embeddings() {
        let (q, g) = conflict_forest(2, 3);
        // Query: root + grabber(2) + 2 fillers(2 each) + trap(3).
        assert_eq!(q.num_vertices(), 1 + 2 + 4 + 3);
        assert!(cfl_graph::is_connected(&q));
        // Adversarial block: grabber and trap funnel into one shared C
        // vertex (id 1) — its A neighbor is the root candidate and its D
        // neighbors are the widened trap pool.
        assert_eq!(g.label(1), C);
        let d_neighbors = g.neighbors(1).iter().filter(|&&v| g.label(v) == D).count();
        assert_eq!(d_neighbors, 6, "trap pool is 2·fanout wide");
        // Satisfiable block: the interchangeable fillers give 2! embeddings.
        assert_eq!(cfl_baselines_check::count_ullmann(&q, &g), 2);
    }

    #[test]
    fn pruning_stress_suite_is_well_formed() {
        let suite = pruning_stress_suite(1);
        assert_eq!(suite.len(), 2);
        for (name, q, g) in &suite {
            assert!(cfl_graph::is_connected(q), "{name}");
            assert!(
                cfl_baselines_check::count_ullmann(q, g) > 0,
                "{name}: adversaries must stay satisfiable"
            );
        }
        assert_eq!(pruning_stress_suite(0).len(), 2);
    }

    #[test]
    fn kernel_stress_suite_is_well_formed() {
        let suite = kernel_stress_suite(1);
        assert_eq!(suite.len(), 3);
        for (name, q, g) in &suite {
            assert!(q.num_vertices() >= 3, "{name}");
            assert!(g.num_edges() > 0, "{name}");
            assert!(
                cfl_graph::is_connected(q),
                "{name}: query must be connected"
            );
        }
        // Scaled-down form stays valid (the quick-bench path).
        assert_eq!(kernel_stress_suite(0).len(), 3);
    }

    /// Minimal local oracle to avoid a dev-dependency cycle with
    /// `cfl-baselines` (which depends on `cfl-match`, not on this crate —
    /// but keeping datasets leaf-level keeps build graphs simple).
    mod cfl_baselines_check {
        use cfl_graph::Graph;

        pub fn count_ullmann(q: &Graph, g: &Graph) -> usize {
            let mut count = 0;
            let mut mapping = vec![u32::MAX; q.num_vertices()];
            let mut used = vec![false; g.num_vertices()];
            search(q, g, 0, &mut mapping, &mut used, &mut count);
            count
        }

        fn search(
            q: &Graph,
            g: &Graph,
            u: usize,
            mapping: &mut [u32],
            used: &mut [bool],
            count: &mut usize,
        ) {
            if u == q.num_vertices() {
                *count += 1;
                return;
            }
            for v in g.vertices() {
                if used[v as usize] || g.label(v) != q.label(u as u32) {
                    continue;
                }
                let ok = q.neighbors(u as u32).iter().all(|&w| {
                    mapping[w as usize] == u32::MAX || g.has_edge(mapping[w as usize], v)
                });
                if !ok {
                    continue;
                }
                mapping[u] = v;
                used[v as usize] = true;
                search(q, g, u + 1, mapping, used, count);
                used[v as usize] = false;
                mapping[u] = u32::MAX;
            }
        }
    }
}

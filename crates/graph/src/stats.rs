//! Per-vertex statistics used by candidate filtering (paper §A.6).
//!
//! * the **label index**: for each label, the sorted list of data vertices
//!   carrying it (drives the initial candidate retrieval);
//! * **NLF** (neighborhood label frequency, from SAPPER \[24\]): for each
//!   vertex, how many neighbors carry each label;
//! * **MND** (maximum neighbor degree, Definition A.1): the light-weight
//!   constant-time filter the paper introduces to cut NLF invocations.

use crate::graph::{Graph, VertexId};
use crate::label::Label;

/// Sorted per-label vertex lists over a graph.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    offsets: Vec<u32>,
    vertices: Vec<VertexId>,
    /// Per label, the degrees of its vertices sorted *descending* (spanned
    /// by the same `offsets`): "how many label-`l` vertices have degree
    /// ≥ d" — the light candidate count driving root selection — becomes
    /// one binary search instead of a scan of the whole label list.
    degrees_desc: Vec<u32>,
    /// The vertices aligned with `degrees_desc`: per label, sorted by
    /// `(degree desc, id asc)`. The vertices with degree ≥ d are exactly a
    /// prefix of the label's span, so enumerating them costs the size of
    /// the result instead of the size of the label list.
    by_degree: Vec<VertexId>,
}

impl LabelIndex {
    /// Builds the index in `O(|V| log |V|)` (the log factor pays for the
    /// per-label degree sort behind [`count_with_min_degree`](Self::count_with_min_degree)).
    pub fn build(g: &Graph) -> Self {
        let nl = g.num_labels();
        let mut counts = vec![0u32; nl];
        for &l in g.labels() {
            counts[l.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(nl + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut vertices = vec![0 as VertexId; g.num_vertices()];
        let mut cursor: Vec<u32> = offsets[..nl].to_vec();
        for v in g.vertices() {
            let l = g.label(v).index();
            vertices[cursor[l] as usize] = v;
            cursor[l] += 1;
        }
        let mut by_degree = vertices.clone();
        for l in 0..nl {
            by_degree[offsets[l] as usize..offsets[l + 1] as usize]
                .sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v) as u32), v));
        }
        let degrees_desc: Vec<u32> = by_degree.iter().map(|&v| g.degree(v) as u32).collect();
        Self {
            offsets,
            vertices,
            degrees_desc,
            by_degree,
        }
    }

    /// Re-derives the index for `g` after an edge-only delta. Labels are
    /// immutable, so per-label membership (`offsets`/`vertices`) is reused
    /// verbatim; only the degree-sorted spans of labels carried by a
    /// `touched` vertex (one whose incident edge set changed) are
    /// re-sorted against the new degrees.
    pub(crate) fn patched(&self, g: &Graph, touched: &[VertexId]) -> Self {
        let mut degrees_desc = self.degrees_desc.clone();
        let mut by_degree = self.by_degree.clone();
        let mut labels: Vec<usize> = touched.iter().map(|&v| g.label(v).index()).collect();
        labels.sort_unstable();
        labels.dedup();
        for l in labels {
            let lo = self.offsets[l] as usize;
            let hi = self.offsets[l + 1] as usize;
            let span = &mut by_degree[lo..hi];
            span.copy_from_slice(&self.vertices[lo..hi]);
            span.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v) as u32), v));
            for (i, &v) in span.iter().enumerate() {
                degrees_desc[lo + i] = g.degree(v) as u32;
            }
        }
        Self {
            offsets: self.offsets.clone(),
            vertices: self.vertices.clone(),
            degrees_desc,
            by_degree,
        }
    }

    /// Sorted vertices carrying `label`; empty for out-of-range labels.
    #[inline]
    pub fn vertices_with_label(&self, label: Label) -> &[VertexId] {
        let i = label.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.vertices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of vertices carrying `label` (label frequency).
    #[inline]
    pub fn frequency(&self, label: Label) -> usize {
        self.vertices_with_label(label).len()
    }

    /// Number of vertices carrying `label` with degree ≥ `min_degree`, in
    /// `O(log |frequency(label)|)` via the degree-sorted span — exactly
    /// `vertices_with_label(label).filter(|v| degree(v) >= min_degree).count()`.
    #[inline]
    pub fn count_with_min_degree(&self, label: Label, min_degree: u32) -> usize {
        let i = label.index();
        if i + 1 >= self.offsets.len() {
            return 0;
        }
        self.degrees_desc[self.offsets[i] as usize..self.offsets[i + 1] as usize]
            .partition_point(|&d| d >= min_degree)
    }

    /// The vertices carrying `label` with degree ≥ `min_degree`, as a
    /// slice ordered by `(degree desc, id asc)` — the matching prefix of
    /// the label's degree-sorted span, located by one binary search.
    #[inline]
    pub fn vertices_with_min_degree(&self, label: Label, min_degree: u32) -> &[VertexId] {
        let i = label.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        let lo = self.offsets[i] as usize;
        let n = self.count_with_min_degree(label, min_degree);
        &self.by_degree[lo..lo + n]
    }
}

/// Neighborhood label frequency signatures for every vertex.
///
/// Stored as a flat array of `(label, count)` pairs sorted by label per
/// vertex, so containment tests between a query vertex's signature and a
/// data vertex's signature are merge scans. Each vertex additionally
/// carries a packed 64-bit summary (see [`NlfIndex::packed`]) checked
/// branch-free before — and often instead of — the merge scan.
#[derive(Clone, Debug)]
pub struct NlfIndex {
    offsets: Vec<u32>,
    entries: Vec<(Label, u32)>,
    packed: Vec<u64>,
    exact: Vec<bool>,
}

/// Per-label thresholds encoded in the packed signature: label `l` with
/// count `c` sets bits `l * 4 + t` for `t < min(c, 4)`.
const PACKED_THRESHOLDS: u32 = 4;

/// Labels with a field in the packed signature: `64 / PACKED_THRESHOLDS`.
const PACKED_LABELS: u32 = 64 / PACKED_THRESHOLDS;

/// The packed-signature bits for `c` neighbors carrying label `l`: the low
/// `min(c, 4)` bits of label `l`'s 4-bit field. Labels ≥ 16 have no field
/// — wrapping them onto `l mod 16` would alias another label's counts —
/// so they set nothing, on the query side and the data side alike.
#[inline]
fn packed_bits(l: u32, c: u32) -> u64 {
    if l >= PACKED_LABELS {
        return 0;
    }
    ((1u64 << c.min(PACKED_THRESHOLDS)) - 1) << (l * PACKED_THRESHOLDS)
}

/// Whether the packed field captures the `(l, c)` signature entry exactly.
#[inline]
fn packed_captures(l: u32, c: u32) -> bool {
    l < PACKED_LABELS && c <= PACKED_THRESHOLDS
}

/// Below this label-count, finalizing a vertex scans the whole scratch
/// counter array (sequential, sorted for free) instead of collecting and
/// sorting the touched labels.
const DENSE_LABEL_SCAN: usize = 64;

impl NlfIndex {
    /// Builds NLF signatures in `O(Σ_v d(v))` using a scratch counter array.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_mnd(g).0
    }

    /// Builds the NLF index and the per-vertex maximum neighbor degree in
    /// one adjacency traversal (the two dominate per-query preparation on
    /// large data graphs, and fused they read each neighbor list once).
    ///
    /// Per finished vertex, the `(label, count)` signature is emitted in
    /// ascending label order either by scanning the scratch counters
    /// directly (small label universes: sequential and branch-predictable,
    /// no sort) or by sorting the touched labels (large universes relative
    /// to the vertex degree).
    pub fn build_with_mnd(g: &Graph) -> (Self, Vec<u32>) {
        let nl = g.num_labels();
        let nv = g.num_vertices();
        let mut scratch = vec![0u32; nl];
        let mut touched: Vec<u32> = Vec::new();
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut entries = Vec::with_capacity((g.num_edges() * 2).min(nv.saturating_mul(nl)));
        let mut packed = Vec::with_capacity(nv);
        let mut exact = Vec::with_capacity(nv);
        let mut mnd = vec![0u32; nv];
        offsets.push(0u32);
        for v in g.vertices() {
            let dense = nl <= DENSE_LABEL_SCAN || nl <= 4 * g.degree(v);
            let mut md = 0u32;
            for &w in g.neighbors(v) {
                let l = g.label(w).0;
                if !dense && scratch[l as usize] == 0 {
                    touched.push(l);
                }
                scratch[l as usize] += 1;
                md = md.max(g.degree(w) as u32);
            }
            mnd[v as usize] = md;
            let mut sig_packed = 0u64;
            let mut sig_exact = true;
            let mut emit = |l: u32, c: u32| {
                entries.push((Label(l), c));
                sig_exact &= packed_captures(l, c);
                sig_packed |= packed_bits(l, c);
            };
            if dense {
                for l in 0..nl as u32 {
                    let c = scratch[l as usize];
                    if c != 0 {
                        scratch[l as usize] = 0;
                        emit(l, c);
                    }
                }
            } else {
                touched.sort_unstable();
                for &l in &touched {
                    let c = scratch[l as usize];
                    scratch[l as usize] = 0;
                    emit(l, c);
                }
                touched.clear();
            }
            offsets.push(entries.len() as u32);
            packed.push(sig_packed);
            exact.push(sig_exact);
        }
        let nlf = Self {
            offsets,
            entries,
            packed,
            exact,
        };
        (nlf, mnd)
    }

    /// Re-derives the NLF index for `g` after an edge-only delta: clean
    /// vertices have their signature slices (and packed summaries) copied
    /// through, `touched` vertices are recounted from their new neighbor
    /// lists. Both emission paths of [`build_with_mnd`](Self::build_with_mnd)
    /// produce ascending-label signatures, so the spliced result is
    /// identical to a fresh build.
    pub(crate) fn patched(&self, g: &Graph, touched: &[VertexId]) -> Self {
        let nl = g.num_labels();
        let nv = g.num_vertices();
        let mut is_touched = vec![false; nv];
        for &v in touched {
            is_touched[v as usize] = true;
        }
        let mut scratch = vec![0u32; nl];
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut entries = Vec::with_capacity(self.entries.len());
        let mut packed = self.packed.clone();
        let mut exact = self.exact.clone();
        offsets.push(0u32);
        for v in g.vertices() {
            if is_touched[v as usize] {
                for &w in g.neighbors(v) {
                    scratch[g.label(w).index()] += 1;
                }
                let mut sig_packed = 0u64;
                let mut sig_exact = true;
                for l in 0..nl as u32 {
                    let c = scratch[l as usize];
                    if c != 0 {
                        scratch[l as usize] = 0;
                        entries.push((Label(l), c));
                        sig_exact &= packed_captures(l, c);
                        sig_packed |= packed_bits(l, c);
                    }
                }
                packed[v as usize] = sig_packed;
                exact[v as usize] = sig_exact;
            } else {
                entries.extend_from_slice(self.signature(v));
            }
            offsets.push(entries.len() as u32);
        }
        Self {
            offsets,
            entries,
            packed,
            exact,
        }
    }

    /// The `(label, count)` signature of `v`, sorted by label.
    #[inline]
    pub fn signature(&self, v: VertexId) -> &[(Label, u32)] {
        &self.entries[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// `d(v, l)`: number of neighbors of `v` with label `l` (paper §A.6).
    pub fn count(&self, v: VertexId, l: Label) -> u32 {
        let sig = self.signature(v);
        match sig.binary_search_by_key(&l, |&(lab, _)| lab) {
            Ok(i) => sig[i].1,
            Err(_) => 0,
        }
    }

    /// Packed 64-bit NLF summary of `v`: label `l < 16` with count `c`
    /// sets bits `l * 4 + t` for thresholds `t < min(c, 4)`; labels ≥ 16
    /// are left out.
    ///
    /// [`packed_dominates`](Self::packed_dominates) over two summaries is a
    /// *necessary* condition for [`dominates`](Self::dominates): domination
    /// implies threshold-bit containment in every label's field. It is also
    /// *sufficient* when the query-side signature reports
    /// [`packed_exact`](Self::packed_exact): every query label then owns a
    /// field no other label writes, on the data side too.
    #[inline]
    pub fn packed(&self, v: VertexId) -> u64 {
        self.packed[v as usize]
    }

    /// Whether the packed summary of `v` captures its full signature: every
    /// label in it is < 16 (so it has a field) and every per-label count is
    /// ≤ 4. For such a query vertex,
    /// [`packed_dominates`](Self::packed_dominates) is exact against any
    /// data vertex, whatever labels the data graph uses, and the merge scan
    /// can be skipped entirely.
    #[inline]
    pub fn packed_exact(&self, v: VertexId) -> bool {
        self.exact[v as usize]
    }

    /// Branch-free necessary condition for NLF domination over packed
    /// summaries: every threshold bit the query needs, the data vertex has.
    #[inline]
    pub const fn packed_dominates(data: u64, query: u64) -> bool {
        query & !data == 0
    }

    /// NLF containment: `true` iff for every label `l` in the signature of
    /// query vertex (given as `query_sig`), `d(data_v, l) >= d(query_u, l)`.
    ///
    /// Both signatures must be sorted by label (as produced by this index).
    pub fn dominates(data_sig: &[(Label, u32)], query_sig: &[(Label, u32)]) -> bool {
        let mut di = 0;
        for &(ql, qc) in query_sig {
            while di < data_sig.len() && data_sig[di].0 < ql {
                di += 1;
            }
            if di >= data_sig.len() || data_sig[di].0 != ql || data_sig[di].1 < qc {
                return false;
            }
        }
        true
    }
}

/// Label-grouped adjacency: every vertex's CSR neighbor slice reordered
/// so neighbors sharing a label sit contiguously — groups in ascending
/// label order, ascending vertex id within a group.
///
/// CPI construction only ever consumes the neighbors carrying *one*
/// specific label (the candidate label of the query vertex being built):
/// seed-list generation, candidate neighborhood masks, and adjacency-row
/// intersections all filter by it immediately. Serving the matching group
/// as a slice divides those scans by roughly the number of distinct
/// neighbor labels and drops the per-visit label probe entirely. Group
/// slices stay ascending, so they feed the bitset intersection kernels
/// ([`crate::intersect`]) unchanged.
#[derive(Clone, Debug)]
pub struct LabelAdjacency {
    /// Reordered adjacency arena; vertices tile it in id order exactly
    /// like the graph's CSR, each slice permuted to (label, id) order.
    nbr: Vec<VertexId>,
    /// Distinct neighbor labels per vertex, concatenated (ascending per
    /// vertex).
    group_labels: Vec<u32>,
    /// Start of each label group in `nbr`, aligned with `group_labels`,
    /// plus one global end sentinel. Groups tile `nbr`, so the entry
    /// after a vertex's last group — the next vertex's first group or the
    /// sentinel — is exactly that group's end.
    group_starts: Vec<u32>,
    /// Per-vertex spans into `group_labels` (`nv + 1` entries).
    group_offsets: Vec<u32>,
}

impl LabelAdjacency {
    /// Builds the grouped adjacency in `O(Σ_v d(v) log d(v))`.
    pub fn build(g: &Graph) -> Self {
        let nv = g.num_vertices();
        let mut nbr: Vec<VertexId> = Vec::with_capacity(g.num_edges() * 2);
        let mut group_labels: Vec<u32> = Vec::new();
        let mut group_starts: Vec<u32> = Vec::new();
        let mut group_offsets: Vec<u32> = Vec::with_capacity(nv + 1);
        group_offsets.push(0);
        let mut buf: Vec<VertexId> = Vec::new();
        for v in g.vertices() {
            buf.clear();
            buf.extend_from_slice(g.neighbors(v));
            buf.sort_unstable_by_key(|&w| (g.label(w).0, w));
            let base = nbr.len() as u32;
            let mut prev: Option<u32> = None;
            for (i, &w) in buf.iter().enumerate() {
                let l = g.label(w).0;
                if prev != Some(l) {
                    group_labels.push(l);
                    group_starts.push(base + i as u32);
                    prev = Some(l);
                }
            }
            nbr.extend_from_slice(&buf);
            group_offsets.push(group_labels.len() as u32);
        }
        group_starts.push(nbr.len() as u32);
        LabelAdjacency {
            nbr,
            group_labels,
            group_starts,
            group_offsets,
        }
    }

    /// Re-derives the grouped adjacency for `g` after an edge-only delta:
    /// rows of clean vertices are copied with their group starts rebased
    /// (row sizes upstream may have shifted the absolute offsets), rows of
    /// `touched` vertices are re-grouped from their new neighbor lists.
    pub(crate) fn patched(&self, g: &Graph, touched: &[VertexId]) -> Self {
        let nv = g.num_vertices();
        let mut is_touched = vec![false; nv];
        for &v in touched {
            is_touched[v as usize] = true;
        }
        let mut nbr: Vec<VertexId> = Vec::with_capacity(g.num_edges() * 2);
        let mut group_labels: Vec<u32> = Vec::with_capacity(self.group_labels.len());
        let mut group_starts: Vec<u32> = Vec::with_capacity(self.group_starts.len());
        let mut group_offsets: Vec<u32> = Vec::with_capacity(nv + 1);
        group_offsets.push(0);
        let mut buf: Vec<VertexId> = Vec::new();
        for v in g.vertices() {
            let base = nbr.len() as u32;
            if is_touched[v as usize] {
                buf.clear();
                buf.extend_from_slice(g.neighbors(v));
                buf.sort_unstable_by_key(|&w| (g.label(w).0, w));
                let mut prev: Option<u32> = None;
                for (i, &w) in buf.iter().enumerate() {
                    let l = g.label(w).0;
                    if prev != Some(l) {
                        group_labels.push(l);
                        group_starts.push(base + i as u32);
                        prev = Some(l);
                    }
                }
                nbr.extend_from_slice(&buf);
            } else {
                let glo = self.group_offsets[v as usize] as usize;
                let ghi = self.group_offsets[v as usize + 1] as usize;
                // Groups tile `nbr`, so the old row spans from this
                // vertex's first group start to the next group start (or
                // the sentinel).
                let s = self.group_starts[glo];
                let e = self.group_starts[ghi];
                nbr.extend_from_slice(&self.nbr[s as usize..e as usize]);
                for gi in glo..ghi {
                    group_labels.push(self.group_labels[gi]);
                    group_starts.push(base + (self.group_starts[gi] - s));
                }
            }
            group_offsets.push(group_labels.len() as u32);
        }
        group_starts.push(nbr.len() as u32);
        Self {
            nbr,
            group_labels,
            group_starts,
            group_offsets,
        }
    }

    /// The neighbors of `v` carrying `label`, ascending by vertex id —
    /// one binary search over `v`'s few distinct neighbor labels, then a
    /// contiguous slice.
    #[inline]
    pub fn neighbors_with_label(&self, v: VertexId, label: Label) -> &[VertexId] {
        let lo = self.group_offsets[v as usize] as usize;
        let hi = self.group_offsets[v as usize + 1] as usize;
        match self.group_labels[lo..hi].binary_search(&label.0) {
            Ok(i) => {
                let s = self.group_starts[lo + i] as usize;
                let e = self.group_starts[lo + i + 1] as usize;
                &self.nbr[s..e]
            }
            Err(_) => &[],
        }
    }
}

/// Bloom summaries of each vertex's 2-hop label neighborhood (after
/// l2Match's neighboring-label and label-pair filters).
///
/// Two 64-bit masks per vertex:
///
/// * [`ball`](Self::ball) — one bit per label (mod 64) appearing within
///   distance ≤ 2 of `v`, `v`'s own label included;
/// * [`pairs`](Self::pairs) — one bit per unordered label *pair* (hashed
///   into 64 bits) of an edge incident to `v`'s closed neighborhood.
///
/// A subgraph-isomorphism embedding contracts distances and preserves
/// edges, so for any query vertex `u` mapped to data vertex `v` both label
/// sets of `u` are subsets of `v`'s — which the masks witness as bitwise
/// containment ([`dominates`](Self::dominates)). Hash collisions merge
/// bits and can only *weaken* the test, never reject a true embedding.
#[derive(Clone, Debug)]
pub struct LabelPairIndex {
    ball: Vec<u64>,
    pairs: Vec<u64>,
}

impl LabelPairIndex {
    /// Builds both masks in four linear adjacency passes.
    pub fn build(g: &Graph) -> Self {
        let nv = g.num_vertices();
        // Pass 1: labels at distance ≤ 1 (closed neighborhood).
        let mut near = vec![0u64; nv];
        for v in g.vertices() {
            let mut m = label_bit(g.label(v));
            for &w in g.neighbors(v) {
                m |= label_bit(g.label(w));
            }
            near[v as usize] = m;
        }
        // Pass 2: OR the neighbors' distance-1 masks → distance ≤ 2.
        let mut ball = near.clone();
        for v in g.vertices() {
            let mut m = ball[v as usize];
            for &w in g.neighbors(v) {
                m |= near[w as usize];
            }
            ball[v as usize] = m;
        }
        // Pass 3: label pairs of the edges incident to each vertex.
        let mut incident = vec![0u64; nv];
        for v in g.vertices() {
            let lv = g.label(v);
            let mut m = 0u64;
            for &w in g.neighbors(v) {
                m |= pair_bit(lv, g.label(w));
            }
            incident[v as usize] = m;
        }
        // Pass 4: OR the neighbors' incident-pair masks → pairs of every
        // edge incident to the closed neighborhood.
        let mut pairs = incident.clone();
        for v in g.vertices() {
            let mut m = pairs[v as usize];
            for &w in g.neighbors(v) {
                m |= incident[w as usize];
            }
            pairs[v as usize] = m;
        }
        LabelPairIndex { ball, pairs }
    }

    /// Labels within distance ≤ 2 of `v`, one bit per label mod 64.
    #[inline]
    pub fn ball(&self, v: VertexId) -> u64 {
        self.ball[v as usize]
    }

    /// Label pairs of edges incident to `N[v]`, hashed into 64 bits.
    #[inline]
    pub fn pairs(&self, v: VertexId) -> u64 {
        self.pairs[v as usize]
    }

    /// Necessary condition for `query_u ↦ data_v`: every ball and pair bit
    /// the query vertex needs, the data vertex has.
    #[inline]
    pub fn dominates(&self, data_v: VertexId, query: &LabelPairIndex, query_u: VertexId) -> bool {
        query.ball[query_u as usize] & !self.ball[data_v as usize] == 0
            && query.pairs[query_u as usize] & !self.pairs[data_v as usize] == 0
    }
}

/// One bloom bit per label, folded mod 64.
#[inline]
fn label_bit(l: Label) -> u64 {
    1u64 << (l.0 & 63)
}

/// One bloom bit per *unordered* label pair: the pair is canonicalized to
/// `(min, max)` and mixed so nearby pairs spread over the 64-bit range.
#[inline]
fn pair_bit(a: Label, b: Label) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let mixed = (u64::from(lo) << 32 | u64::from(hi)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    1u64 << (mixed >> 58)
}

/// The per-graph filter tables — label index, NLF signatures, maximum
/// neighbor degrees, the label-grouped adjacency, and the 2-hop
/// label-pair blooms — bundled so they can be built together and memoized
/// on the graph they describe (see
/// [`Graph::stat_tables`](crate::Graph::stat_tables)).
#[derive(Clone, Debug)]
pub struct StatTables {
    /// Per-label sorted vertex lists.
    pub label_index: LabelIndex,
    /// Per-vertex neighborhood label frequencies (+ packed summaries).
    pub nlf: NlfIndex,
    /// Per-vertex maximum neighbor degree (Definition A.1).
    pub mnd: Vec<u32>,
    /// Label-grouped adjacency serving single-label neighbor slices.
    pub label_adj: LabelAdjacency,
    /// 2-hop label-ball and label-pair bloom masks (l2Match).
    pub label_pairs: LabelPairIndex,
}

impl StatTables {
    /// Builds all tables; the NLF and MND parts share one adjacency
    /// traversal, the rest are linear to log-linear passes.
    pub fn build(g: &Graph) -> Self {
        let (nlf, mnd) = NlfIndex::build_with_mnd(g);
        StatTables {
            label_index: LabelIndex::build(g),
            nlf,
            mnd,
            label_adj: LabelAdjacency::build(g),
            label_pairs: LabelPairIndex::build(g),
        }
    }

    /// Re-derives the tables for `g` after an edge-only delta, reusing
    /// every per-vertex row that provably did not change.
    ///
    /// `touched` must be the sorted, deduplicated set of vertices whose
    /// incident edge set differs between the graph these tables were built
    /// on and `g`; vertex labels must be identical in both graphs (deltas
    /// never relabel). Degree, NLF signature, and the grouped-adjacency row
    /// change only for touched vertices; MND can additionally change for
    /// their current neighbors (a neighbor's degree moved), and former
    /// neighbors lost through deletions are themselves touched. The result
    /// is bit-identical to `StatTables::build(g)` — the differential tests
    /// in `crate::delta` hold the two equal under randomized deltas.
    pub fn patched(&self, g: &Graph, touched: &[VertexId]) -> Self {
        let mut mnd = self.mnd.clone();
        let mut mnd_set: Vec<VertexId> = touched.to_vec();
        for &v in touched {
            mnd_set.extend_from_slice(g.neighbors(v));
        }
        mnd_set.sort_unstable();
        mnd_set.dedup();
        for &v in &mnd_set {
            mnd[v as usize] = g
                .neighbors(v)
                .iter()
                .map(|&w| g.degree(w) as u32)
                .max()
                .unwrap_or(0);
        }
        StatTables {
            label_index: self.label_index.patched(g, touched),
            nlf: self.nlf.patched(g, touched),
            mnd,
            label_adj: self.label_adj.patched(g, touched),
            // An edge delta dirties label-pair masks two hops out from the
            // touched vertices — a wider frontier than `touched` covers —
            // and the build is four linear passes, so recompute in full.
            label_pairs: LabelPairIndex::build(g),
        }
    }
}

/// Maximum neighbor degree per vertex (Definition A.1):
/// `mnd_g(u) = max_{u' ∈ N(u)} d_g(u')`, or 0 for isolated vertices.
pub fn max_neighbor_degrees(g: &Graph) -> Vec<u32> {
    let mut mnd = vec![0u32; g.num_vertices()];
    for v in g.vertices() {
        let m = g
            .neighbors(v)
            .iter()
            .map(|&w| g.degree(w) as u32)
            .max()
            .unwrap_or(0);
        mnd[v as usize] = m;
    }
    mnd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn star() -> Graph {
        // center 0 (label 0), leaves 1..=3 labels 1,1,2
        graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]).unwrap()
    }

    #[test]
    fn label_index_groups() {
        let g = star();
        let idx = LabelIndex::build(&g);
        assert_eq!(idx.vertices_with_label(Label(0)), &[0]);
        assert_eq!(idx.vertices_with_label(Label(1)), &[1, 2]);
        assert_eq!(idx.frequency(Label(2)), 1);
        assert_eq!(idx.frequency(Label(9)), 0);
    }

    #[test]
    fn count_with_min_degree_matches_scan() {
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1, 2, 2],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (1, 4),
                (3, 7),
            ],
        )
        .unwrap();
        let idx = LabelIndex::build(&g);
        for l in 0..4u32 {
            for d in 0..5u32 {
                let scan = idx
                    .vertices_with_label(Label(l))
                    .iter()
                    .filter(|&&v| g.degree(v) as u32 >= d)
                    .count();
                assert_eq!(
                    idx.count_with_min_degree(Label(l), d),
                    scan,
                    "label {l} min degree {d}"
                );
            }
        }
        assert_eq!(idx.count_with_min_degree(Label(9), 0), 0);
    }

    #[test]
    fn vertices_with_min_degree_is_the_filtered_set() {
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1, 2, 2],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (1, 4),
                (3, 7),
            ],
        )
        .unwrap();
        let idx = LabelIndex::build(&g);
        for l in 0..4u32 {
            for d in 0..5u32 {
                let mut got: Vec<_> = idx.vertices_with_min_degree(Label(l), d).to_vec();
                got.sort_unstable();
                let want: Vec<_> = idx
                    .vertices_with_label(Label(l))
                    .iter()
                    .copied()
                    .filter(|&v| g.degree(v) as u32 >= d)
                    .collect();
                assert_eq!(got, want, "label {l} min degree {d}");
                // The slice itself is (degree desc, id asc)-ordered.
                let span = idx.vertices_with_min_degree(Label(l), d);
                assert!(span
                    .windows(2)
                    .all(|w| (std::cmp::Reverse(g.degree(w[0])), w[0])
                        <= (std::cmp::Reverse(g.degree(w[1])), w[1])));
            }
        }
    }

    #[test]
    fn nlf_signatures() {
        let g = star();
        let nlf = NlfIndex::build(&g);
        assert_eq!(nlf.signature(0), &[(Label(1), 2), (Label(2), 1)]);
        assert_eq!(nlf.signature(1), &[(Label(0), 1)]);
        assert_eq!(nlf.count(0, Label(1)), 2);
        assert_eq!(nlf.count(0, Label(3)), 0);
    }

    #[test]
    fn nlf_dominates() {
        let data = [(Label(1), 2), (Label(2), 1)];
        assert!(NlfIndex::dominates(&data, &[(Label(1), 1)]));
        assert!(NlfIndex::dominates(&data, &data));
        assert!(!NlfIndex::dominates(&data, &[(Label(1), 3)]));
        assert!(!NlfIndex::dominates(&data, &[(Label(3), 1)]));
        assert!(NlfIndex::dominates(&data, &[]));
        assert!(!NlfIndex::dominates(&[], &[(Label(0), 1)]));
    }

    #[test]
    fn packed_signature_bits() {
        let g = star();
        let nlf = NlfIndex::build(&g);
        // Center 0: two label-1 neighbors, one label-2 neighbor.
        // Label 1 → bits 4,5; label 2 → bit 8.
        assert_eq!(nlf.packed(0), (1 << 4) | (1 << 5) | (1 << 8));
        // Leaves: one label-0 neighbor → bit 0.
        assert_eq!(nlf.packed(1), 1);
        assert!(g.num_labels() <= 16);
        assert!((0..4).all(|v| nlf.packed_exact(v)));
    }

    #[test]
    fn packed_dominates_agrees_with_merge_scan_when_exact() {
        // Several small vertices with varied neighborhoods; 3 labels ≤ 16
        // and max count 3 ≤ 4, so the packed test must be exact.
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1, 2, 2],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (1, 4),
                (3, 7),
            ],
        )
        .unwrap();
        let nlf = NlfIndex::build(&g);
        for u in g.vertices() {
            assert!(nlf.packed_exact(u));
            for v in g.vertices() {
                let scan = NlfIndex::dominates(nlf.signature(v), nlf.signature(u));
                let packed = NlfIndex::packed_dominates(nlf.packed(v), nlf.packed(u));
                assert_eq!(scan, packed, "u={u} v={v}");
            }
        }
    }

    #[test]
    fn packed_is_necessary_when_counts_overflow() {
        // Center with 6 label-1 neighbors: count 6 > 4 thresholds, so the
        // vertex is not packed-exact, but packed containment must still hold
        // wherever the merge scan reports domination.
        let g = graph_from_edges(
            &[0, 1, 1, 1, 1, 1, 1, 0, 1, 1],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (7, 8),
                (7, 9),
            ],
        )
        .unwrap();
        let nlf = NlfIndex::build(&g);
        assert!(!nlf.packed_exact(0));
        // Vertex 7 (two label-1 neighbors) is dominated by vertex 0 (six).
        assert!(NlfIndex::dominates(nlf.signature(0), nlf.signature(7)));
        assert!(NlfIndex::packed_dominates(nlf.packed(0), nlf.packed(7)));
        // And not vice versa; the packed test may or may not notice, but
        // must never reject a true domination.
        for u in g.vertices() {
            for v in g.vertices() {
                if NlfIndex::dominates(nlf.signature(v), nlf.signature(u)) {
                    assert!(
                        NlfIndex::packed_dominates(nlf.packed(v), nlf.packed(u)),
                        "packed test rejected a true domination u={u} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_not_exact_with_many_labels() {
        // A star over 17 labels: the center sees label 16, which has no
        // field, so only its summary is inexact. Each leaf sees one label-0
        // neighbor and stays exact whatever labels the graph holds.
        let labels: Vec<u32> = (0..17).collect();
        let edges: Vec<(u32, u32)> = (1..17).map(|i| (0, i)).collect();
        let g = graph_from_edges(&labels, &edges).unwrap();
        let nlf = NlfIndex::build(&g);
        assert!(!nlf.packed_exact(0));
        assert!((1..17).all(|v| nlf.packed_exact(v)));
        assert_eq!(nlf.packed(0) >> 60, 0b1, "label 15's field, no wrap");
    }

    #[test]
    fn packed_fields_do_not_alias_across_graphs() {
        // Query: u0 (label 0) needs two label-2 neighbors — ≤ 16 labels, so
        // its summary is exact. Data: v0 has one label-2 neighbor and two
        // label-18 ones. Folded modulo 16, label 18 would fill label 2's
        // field and the packed test would wrongly accept v0.
        let q = graph_from_edges(&[0, 2, 2], &[(0, 1), (0, 2)]).unwrap();
        let g = graph_from_edges(&[0, 2, 18, 18], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let (qn, gn) = (NlfIndex::build(&q), NlfIndex::build(&g));
        assert!(qn.packed_exact(0));
        assert!(!NlfIndex::dominates(gn.signature(0), qn.signature(0)));
        assert!(!NlfIndex::packed_dominates(gn.packed(0), qn.packed(0)));
        // Every label l ≥ 16 on the data side leaves the summary untouched.
        for l in 16..40 {
            let g = graph_from_edges(&[0, 2, l, l], &[(0, 1), (0, 2), (0, 3)]).unwrap();
            let gn = NlfIndex::build(&g);
            assert_eq!(gn.packed(0), 0b1 << 8, "label {l}");
            assert!(!NlfIndex::packed_dominates(gn.packed(0), qn.packed(0)));
        }
    }

    #[test]
    fn label_adjacency_groups_match_filtered_neighbors() {
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1, 2, 2],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (1, 4),
                (3, 7),
            ],
        )
        .unwrap();
        let adj = LabelAdjacency::build(&g);
        for v in g.vertices() {
            for l in 0..5u32 {
                let got = adj.neighbors_with_label(v, Label(l));
                let want: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| g.label(w) == Label(l))
                    .collect();
                assert_eq!(got, want.as_slice(), "v{v} label {l}");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending v{v} l{l}");
            }
        }
        // An isolated vertex serves empty slices for every label.
        let lonely = graph_from_edges(&[0, 1], &[]).unwrap();
        let adj = LabelAdjacency::build(&lonely);
        assert!(adj.neighbors_with_label(0, Label(1)).is_empty());
        assert!(adj.neighbors_with_label(1, Label(0)).is_empty());
    }

    #[test]
    fn label_pair_masks_cover_two_hop_labels() {
        // Path 0-1-2-3 with labels 0,1,2,3: vertex 0 sees labels {0,1,2}
        // within distance 2 but not label 3.
        let g = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let idx = LabelPairIndex::build(&g);
        let bit = |l: u32| 1u64 << (l & 63);
        assert_eq!(idx.ball(0), bit(0) | bit(1) | bit(2));
        assert_eq!(idx.ball(1), bit(0) | bit(1) | bit(2) | bit(3));
        // Pairs incident to N[0] = {0,1}: edges (0,1) and (1,2).
        assert_eq!(
            idx.pairs(0),
            pair_bit(Label(0), Label(1)) | pair_bit(Label(1), Label(2))
        );
        // pair_bit is symmetric.
        assert_eq!(pair_bit(Label(3), Label(7)), pair_bit(Label(7), Label(3)));
    }

    #[test]
    fn label_pair_dominates_is_necessary_for_embeddings() {
        // Query: triangle 0-1-2 labeled 0,1,2. Data: the same triangle plus
        // a pendant. Every query vertex must dominate its image (identity
        // embedding), and the label-2 query vertex must *not* dominate the
        // pendant data vertex 3 (label 2 but no 0-1 pair within one hop).
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = graph_from_edges(&[0, 1, 2, 2], &[(0, 1), (1, 2), (0, 2), (3, 0)]).unwrap();
        let qi = LabelPairIndex::build(&q);
        let gi = LabelPairIndex::build(&g);
        for u in q.vertices() {
            assert!(gi.dominates(u, &qi, u), "identity image of {u}");
        }
        assert!(!gi.dominates(3, &qi, 2), "pendant lacks the 1-2 edge pair");
    }

    #[test]
    fn mnd_values() {
        let g = star();
        let mnd = max_neighbor_degrees(&g);
        assert_eq!(mnd, vec![1, 3, 3, 3]);
        let lonely = graph_from_edges(&[0], &[]).unwrap();
        assert_eq!(max_neighbor_degrees(&lonely), vec![0]);
    }
}

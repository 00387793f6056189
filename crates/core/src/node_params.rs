//! The per-node parameters of Definition 2 (from HKNT22).
//!
//! All quantities are computed on the *residual* graph/palettes held by a
//! [`ColoringState`], restricted to a given active node set — matching the
//! paper's convention that "G" always means the current graph.  Lemma 18
//! shows each is computable in O(1) MPC rounds when `Δ ≤ √s`; the caller
//! charges that cost through `parcolor-mpc`.

use crate::instance::ColoringState;
use parcolor_exec::{par_fill, par_fill_in, par_map_chunks, resolve_workers, Executor, ScatterMut};
use parcolor_local::graph::{Graph, NodeId};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Node ids per stolen chunk of the parameter pass: large enough that a
/// chunk's bookkeeping vanishes next to its 2-hop scans.
pub(crate) const PARAM_CHUNK: usize = 1024;

/// Definition 2 parameters for one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeParams {
    /// Slack `s(v) = p(v) − d(v)`.
    pub slack: i64,
    /// Sparsity `ζ_v = [ (d(v) choose 2) − m(N(v)) ] / d(v)`.
    pub sparsity: f64,
    /// Discrepancy `η̄_v = Σ_{u∈N(v)} |Ψ(u) \ Ψ(v)| / |Ψ(u)|`.
    pub discrepancy: f64,
    /// Unevenness `η_v = Σ_{u∈N(v)} max(0, d(u) − d(v)) / (d(u) + 1)`.
    pub unevenness: f64,
    /// Slackability `σ̄_v = η̄_v + ζ_v`.
    pub slackability: f64,
    /// Strong slackability `σ_v = η_v + ζ_v`.
    pub strong_slackability: f64,
}

/// Parameters for a set of active nodes; absent nodes hold defaults.
#[derive(Clone, Debug)]
pub struct ParamTable {
    /// Parameters indexed by node id (defaults for inactive nodes).
    pub per_node: Vec<NodeParams>,
    /// Active degree by node id (0 outside the active mask).
    degree: Vec<u32>,
}

impl ParamTable {
    /// The parameters of `v`.
    pub fn get(&self, v: NodeId) -> &NodeParams {
        &self.per_node[v as usize]
    }

    /// Residual degree `d(v)` of an active `v` within the active set
    /// (the stage's graph); 0 for a node outside the mask.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v as usize] as usize
    }
}

/// Is `u` an *active uncolored* node for the purposes of the residual
/// graph?  Procedures pass the stage's membership mask.
pub type ActiveMask<'a> = &'a [bool];

/// A set of colors with an `f64` mass per color, open-addressed and
/// sized by how many colors it holds — never by a color value, so sparse
/// list colors up to `u32::MAX − 1` cost nothing extra.  It doubles when
/// more than half full.  A slot is live only while its tag equals the
/// table's current tag, so [`ColorTable::reset`] is a tag bump rather
/// than a clear.
///
/// Colors come from input palettes, so slots are chosen by
/// multiply-shift hashing with a random odd multiplier per table: crafted
/// colors cannot force every probe into one cluster.  No result depends on
/// the slot layout — membership is exact and [`ColorTable::entries`]
/// follows insertion order.
#[derive(Clone, Debug)]
pub(crate) struct ColorTable {
    keys: Vec<u32>,
    tags: Vec<u32>,
    mass: Vec<f64>,
    /// Live slots in insertion order.
    live: Vec<u32>,
    tag: u32,
    /// Random odd multiplier of the slot hash.
    mult: u64,
    /// `64 − log2(capacity)`: multiply-shift keeps the top bits.
    shift: u32,
}

impl ColorTable {
    /// An empty table with room for `colors` distinct colors before it
    /// first grows.
    pub(crate) fn with_capacity(colors: usize) -> Self {
        let cap = (2 * colors).next_power_of_two().max(8);
        ColorTable {
            keys: vec![0; cap],
            tags: vec![0; cap],
            mass: vec![0.0; cap],
            live: Vec::new(),
            tag: 1,
            mult: RandomState::new().hash_one(0u64) | 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Forget every color.
    pub(crate) fn reset(&mut self) {
        self.live.clear();
        if self.tag == u32::MAX {
            self.tags.fill(0);
            self.tag = 1;
        } else {
            self.tag += 1;
        }
    }

    /// Double the capacity, keeping every color, its mass and the
    /// insertion order.
    fn grow(&mut self) {
        let cap = 2 * self.keys.len();
        let keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let mass = std::mem::replace(&mut self.mass, vec![0.0; cap]);
        self.tags = vec![0; cap];
        self.tag = 1;
        self.shift = 64 - cap.trailing_zeros();
        for i in std::mem::take(&mut self.live) {
            let j = self.claim(keys[i as usize]);
            self.mass[j] = mass[i as usize];
        }
    }

    /// The slot holding `c`, or the empty slot where it would go.
    #[inline]
    fn slot(&self, c: u32) -> Result<usize, usize> {
        let mask = self.keys.len() - 1;
        let mut i = ((c as u64).wrapping_mul(self.mult) >> self.shift) as usize;
        loop {
            if self.tags[i] != self.tag {
                return Err(i);
            }
            if self.keys[i] == c {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `c`, inserting it at mass 0 if absent.
    #[inline]
    fn claim(&mut self, c: u32) -> usize {
        match self.slot(c) {
            Ok(i) => i,
            // Keep the load at most 1/2, so probes stay short and `slot`
            // always finds an empty slot.
            Err(_) if 2 * (self.live.len() + 1) > self.keys.len() => {
                self.grow();
                self.claim(c)
            }
            Err(i) => {
                self.keys[i] = c;
                self.tags[i] = self.tag;
                self.mass[i] = 0.0;
                self.live.push(i as u32);
                i
            }
        }
    }

    /// Insert `c`.
    #[inline]
    pub(crate) fn insert(&mut self, c: u32) {
        self.claim(c);
    }

    /// Whether `c` is in the set.
    #[inline]
    pub(crate) fn contains(&self, c: u32) -> bool {
        self.slot(c).is_ok()
    }

    /// Add `w` to the mass of `c` (inserting it at mass 0 first).
    #[inline]
    pub(crate) fn add(&mut self, c: u32, w: f64) {
        let i = self.claim(c);
        self.mass[i] += w;
    }

    /// `(color, mass)` of every color, in insertion order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.live
            .iter()
            .map(|&i| (self.keys[i as usize], self.mass[i as usize]))
    }
}

/// Active degree of every node (0 outside `active`), one pool pass.
fn active_degrees(g: &Graph, active: ActiveMask, workers: usize) -> Vec<u32> {
    let mut degree = vec![0u32; g.n()];
    par_fill(
        Executor::global(),
        workers,
        &mut degree,
        4 * PARAM_CHUNK,
        |start, stripe| {
            for (i, d) in stripe.iter_mut().enumerate() {
                let v = (start + i) as NodeId;
                if active[v as usize] {
                    *d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| active[u as usize])
                        .count() as u32;
                }
            }
        },
    );
    degree
}

/// The active subgraph of one stage as a CSR: row `v` is `N_act(v)`, the
/// neighbors of `v` inside the active mask in ascending order, and is
/// empty for a node outside the mask.  Node parameters and the ACD read
/// it in place of filtering `N(v)` through the mask on every visit.
///
/// Space `O(n + Σ_v d_act(v))`: one offset per node plus the rows.
/// `color_middle` builds it with the parameters and drops it right after
/// the ACD.
pub(crate) struct StageAdj {
    /// `offsets[v]..offsets[v + 1]` is the span of row `v`.
    offsets: Vec<usize>,
    /// The rows, back to back.
    targets: Vec<NodeId>,
}

impl StageAdj {
    /// Build the CSR of `active` on `workers` pool workers.  `degree` is
    /// the active degree of every node, so the offsets are its prefix sum
    /// and the rows are filled in one pool pass over node chunks, each
    /// chunk owning the disjoint span of its rows.
    pub(crate) fn build(g: &Graph, active: ActiveMask, degree: &[u32], workers: usize) -> Self {
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &d in degree {
            total += d as usize;
            offsets.push(total);
        }
        let mut targets = vec![0 as NodeId; total];
        let scatter = ScatterMut::new(&mut targets);
        let offsets_ref = &offsets;
        par_map_chunks(
            Executor::global(),
            workers,
            degree.len(),
            PARAM_CHUNK,
            |start, len| {
                let lo = offsets_ref[start];
                let hi = offsets_ref[start + len];
                // SAFETY: `offsets` is a non-decreasing prefix sum ending at
                // `targets.len()`, so the spans of disjoint node chunks are
                // disjoint and in bounds, and nothing reads `targets`
                // meanwhile.
                let span = unsafe { scatter.stripe_mut(lo, hi - lo) };
                let mut at = 0;
                for v in start..start + len {
                    if !active[v] {
                        continue;
                    }
                    for &u in g.neighbors(v as NodeId) {
                        if active[u as usize] {
                            span[at] = u;
                            at += 1;
                        }
                    }
                }
                assert_eq!(at, span.len(), "`degree` miscounts a row");
            },
        );
        StageAdj { offsets, targets }
    }

    /// The CSR of the mask `table` was computed on, at the auto worker
    /// count.
    pub(crate) fn of_table(g: &Graph, active: ActiveMask, table: &ParamTable) -> Self {
        Self::build(g, active, &table.degree, resolve_workers(0))
    }

    /// `N_act(v)`, ascending.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// One worker's reusable buffers for the parameter pass.
struct ParamScratch {
    /// Bitset of `N_act(v)` over all node ids; all zero between nodes.
    in_nv: Vec<u64>,
    /// `Ψ(v)`.
    pv: ColorTable,
}

/// Compute Definition 2's parameters for all nodes in `nodes` (which must
/// be uncolored and marked in `active`).  Degrees, sparsity and palettes
/// are all taken in the residual graph induced by `active`.  Runs on the
/// global pool at the auto worker count.
///
/// Time `O(n + Σ_{v active} d(v) + Σ_{v∈nodes} Σ_{u∈N_act(v)} (d_act(u) +
/// |Ψ(u)|))`, split over the workers; auxiliary space
/// `O(n + Σ_v d_act(v))` for the stage CSR ([`StageAdj`]) plus
/// `O(workers · (n/64 + max p(v)))` of scratch.
/// Active degrees are counted once into the table and their prefix sum
/// lays out the CSR, whose rows one pool pass fills.  Per node `v`:
///
/// * a load pass first reads the head of every active neighbor's CSR row
///   and palette, so those independent cache misses overlap instead of
///   stalling the dependent loops below one at a time;
/// * `m(N(v))` sets `N_act(v)` in a per-worker bitset (`n/8` bytes) and
///   counts each neighbor's row against it branch-free, then clears it;
/// * `|Ψ(u) \ Ψ(v)|` probes a tag-stamped open-addressed color set
///   holding `Ψ(v)`.
///
/// `discrepancy` and `unevenness` add their terms in `N_act(v)`'s
/// ascending order, so every value is bit-identical to a sequential pass
/// at every worker count.  The CSR is dropped before this returns; the
/// crate's ColorMiddle keeps it for the ACD instead.
pub fn compute_params(
    g: &Graph,
    state: &ColoringState,
    nodes: &[NodeId],
    active: ActiveMask,
) -> ParamTable {
    compute_params_on(g, state, nodes, active, 0).0
}

/// [`compute_params`] on `workers` pool workers (`0` = auto), also
/// returning the stage CSR it was computed on.
pub(crate) fn compute_params_on(
    g: &Graph,
    state: &ColoringState,
    nodes: &[NodeId],
    active: ActiveMask,
    workers: usize,
) -> (ParamTable, StageAdj) {
    let n = g.n();
    let workers = resolve_workers(workers).min(n.div_ceil(PARAM_CHUNK)).max(1);
    let degree = active_degrees(g, active, workers);
    let adj = StageAdj::build(g, active, &degree, workers);
    let mut member = vec![false; n];
    for &v in nodes {
        member[v as usize] = true;
    }
    let max_p = nodes
        .iter()
        .map(|&v| state.palette_size(v))
        .max()
        .unwrap_or(0);
    let mut scratches: Vec<ParamScratch> = (0..workers)
        .map(|_| ParamScratch {
            in_nv: vec![0; n.div_ceil(64)],
            pv: ColorTable::with_capacity(max_p),
        })
        .collect();
    let mut per_node = vec![NodeParams::default(); n];
    par_fill_in(
        Executor::global(),
        &mut scratches,
        &mut per_node,
        PARAM_CHUNK,
        |start, stripe, scratch| {
            for (i, out) in stripe.iter_mut().enumerate() {
                let v = (start + i) as NodeId;
                if member[v as usize] {
                    *out = node_params(state, &adj, v, scratch);
                }
            }
        },
    );
    (ParamTable { per_node, degree }, adj)
}

/// Definition 2's parameters of one node `v ∈ nodes`.
fn node_params(
    state: &ColoringState,
    adj: &StageAdj,
    v: NodeId,
    scratch: &mut ParamScratch,
) -> NodeParams {
    let nv = adj.row(v);
    let d = nv.len();
    // Load pass: touch the first word of every neighbor's row and
    // palette.  The reads are independent, so their misses overlap.
    let mut heads = 0u32;
    for &u in nv {
        heads ^= adj.row(u).first().copied().unwrap_or(0);
        heads ^= state.palette(u).first().copied().unwrap_or(0);
    }
    std::hint::black_box(heads);
    // m(N(v)) within the active subgraph: every row holds active nodes
    // only, so each neighbor's row counted against the bitset of `N_act(v)`
    // is its number of neighbors inside N(v).
    let in_nv = &mut scratch.in_nv;
    for &u in nv {
        in_nv[u as usize / 64] |= 1 << (u % 64);
    }
    let m_nv: usize = nv
        .iter()
        .map(|&u| {
            adj.row(u)
                .iter()
                .map(|&w| (in_nv[w as usize / 64] >> (w % 64) & 1) as usize)
                .sum::<usize>()
        })
        .sum::<usize>()
        / 2;
    for &u in nv {
        in_nv[u as usize / 64] = 0;
    }
    let sparsity = if d >= 2 {
        let pairs = (d * (d - 1) / 2) as f64;
        (pairs - m_nv as f64) / d as f64
    } else {
        0.0
    };
    let pv = &mut scratch.pv;
    let own = state.palette(v);
    pv.reset();
    for &c in own {
        pv.insert(c);
    }
    let mut discrepancy = 0.0;
    let mut unevenness = 0.0;
    for &u in nv {
        let pu = state.palette(u);
        if !pu.is_empty() {
            let outside = pu.iter().filter(|&&c| !pv.contains(c)).count();
            discrepancy += outside as f64 / pu.len() as f64;
        }
        let du = adj.row(u).len();
        unevenness += (du.saturating_sub(d)) as f64 / (du as f64 + 1.0);
    }
    NodeParams {
        slack: state.palette_size(v) as i64 - d as i64,
        sparsity,
        discrepancy,
        unevenness,
        slackability: discrepancy + sparsity,
        strong_slackability: unevenness + sparsity,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::{D1lcInstance, PaletteArena};
    use parcolor_local::graph::Graph;
    use parcolor_local::tape::SplitMix;
    use proptest::prelude::*;

    /// The reference: a direct per-node transcription of Definition 2
    /// that recounts every neighbor's active degree and binary-searches
    /// a sorted copy of `Ψ(v)`.
    fn oracle_params(
        g: &Graph,
        state: &ColoringState,
        nodes: &[NodeId],
        active: ActiveMask,
    ) -> Vec<NodeParams> {
        let mut per_node = vec![NodeParams::default(); g.n()];
        for &v in nodes {
            let nv: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| active[u as usize])
                .collect();
            let d = nv.len();
            let m_nv: usize = nv
                .iter()
                .map(|&u| {
                    g.neighbors(u)
                        .iter()
                        .filter(|&&w| active[w as usize] && nv.binary_search(&w).is_ok())
                        .count()
                })
                .sum::<usize>()
                / 2;
            let sparsity = if d >= 2 {
                let pairs = (d * (d - 1) / 2) as f64;
                (pairs - m_nv as f64) / d as f64
            } else {
                0.0
            };
            let mut pv: Vec<u32> = state.palette(v).to_vec();
            pv.sort_unstable();
            let mut discrepancy = 0.0;
            let mut unevenness = 0.0;
            for &u in &nv {
                let pu = state.palette(u);
                if !pu.is_empty() {
                    let outside = pu.iter().filter(|c| pv.binary_search(c).is_err()).count();
                    discrepancy += outside as f64 / pu.len() as f64;
                }
                let du = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| active[w as usize])
                    .count();
                unevenness += (du.saturating_sub(d)) as f64 / (du as f64 + 1.0);
            }
            per_node[v as usize] = NodeParams {
                slack: state.palette_size(v) as i64 - d as i64,
                sparsity,
                discrepancy,
                unevenness,
                slackability: discrepancy + sparsity,
                strong_slackability: unevenness + sparsity,
            };
        }
        per_node
    }

    fn bits(p: &NodeParams) -> [u64; 6] {
        [
            p.slack as u64,
            p.sparsity.to_bits(),
            p.discrepancy.to_bits(),
            p.unevenness.to_bits(),
            p.slackability.to_bits(),
            p.strong_slackability.to_bits(),
        ]
    }

    /// A stage: the graph, its coloring state, `nodes` and the mask.
    pub(crate) type Stage = (Graph, ColoringState, Vec<NodeId>, Vec<bool>);

    /// A random list instance on at most 71 nodes, partially colored, with
    /// an active mask over uncolored nodes and `nodes` a strict subset of
    /// it.  Colors come from a small pool spread over `0..=u32::MAX − 1`,
    /// so palettes overlap while color values stay sparse.
    pub(crate) fn random_stage(seed: u64) -> Stage {
        let mut rng = SplitMix::new(seed);
        let n = 2 + rng.below(70) as usize;
        stage_on(rng, n, 0)
    }

    /// [`random_stage`] on 5000–8000 nodes, with node 0 a hub wired to
    /// 100–300 spread-out nodes, uncolored and in `nodes`: the rows cross
    /// many fill chunks and the hub's row spans many bitset words.
    pub(crate) fn large_stage(seed: u64) -> Stage {
        let mut rng = SplitMix::new(seed);
        let n = 5000 + rng.below(3000) as usize;
        let hub = 100 + rng.below(200) as usize;
        stage_on(rng, n, hub)
    }

    /// The stage behind [`random_stage`] and [`large_stage`]; `hub > 0`
    /// wires node 0 to `hub` distinct nodes and keeps it in the stage.
    fn stage_on(mut rng: SplitMix, n: usize, hub: usize) -> Stage {
        let m = rng.below(4 * n as u64) as usize;
        let mut edges = Vec::new();
        for _ in 0..m {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a, b));
            }
        }
        edges.extend((0..hub).map(|j| (0, (1 + j * (n - 1) / hub) as NodeId)));
        let g = Graph::from_edges(n, &edges);
        let is_hub = |v: NodeId| hub > 0 && v == 0;
        let mut pool: Vec<u32> = (0..12).map(|_| rng.below(u32::MAX as u64) as u32).collect();
        pool.push(u32::MAX - 1);
        pool.push(0);
        let lists: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| {
                let len = g.degree(v) + 1 + rng.below(3) as usize;
                let mut list: Vec<u32> = (0..len)
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                // Pad with colors private to `v` so the deduplicated
                // palette keeps at least degree+1 colors.
                list.extend((0..len as u32).map(|i| u32::MAX - 2 - (v * 128 + i)));
                list
            })
            .collect();
        let inst = D1lcInstance::new(g.clone(), PaletteArena::from_lists(&lists));
        let mut state = ColoringState::new(&inst);
        // Color a random independent set with each node's first color.
        let mut taken = vec![false; n];
        let mut adoptions = Vec::new();
        for v in 0..n as NodeId {
            let free = !is_hub(v) && !g.neighbors(v).iter().any(|&u| taken[u as usize]);
            if rng.below(4) == 0 && free {
                taken[v as usize] = true;
                adoptions.push((v, state.palette(v)[0]));
            }
        }
        state.apply_adoptions(&g, &adoptions);
        let active: Vec<bool> = (0..n as NodeId)
            .map(|v| !state.is_colored(v) && (rng.below(5) != 0 || is_hub(v)))
            .collect();
        let mut nodes: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| active[v as usize] && (rng.below(4) != 0 || is_hub(v)))
            .collect();
        if nodes.len() == active.iter().filter(|&&a| a).count() {
            nodes.pop();
        }
        (g, state, nodes, active)
    }

    /// `compute_params_on` at `workers` against the oracle, bit for bit,
    /// and its CSR rows and degrees against the filtered adjacency.
    fn assert_matches_oracle(stage: &Stage, workers: usize) {
        let (g, state, nodes, active) = stage;
        let oracle = oracle_params(g, state, nodes, active);
        let (t, adj) = compute_params_on(g, state, nodes, active, workers);
        for v in 0..g.n() as NodeId {
            assert_eq!(bits(t.get(v)), bits(&oracle[v as usize]), "node {v}");
            let naive: Vec<NodeId> = if active[v as usize] {
                let row = g.neighbors(v).iter().copied();
                row.filter(|&u| active[u as usize]).collect()
            } else {
                Vec::new()
            };
            assert_eq!(adj.row(v), &naive[..], "row {v}");
            assert_eq!(t.degree(v), naive.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pool_pass_matches_the_oracle_bit_for_bit(seed in any::<u64>(), workers in 1usize..5) {
            assert_matches_oracle(&random_stage(seed), workers);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn large_stages_with_a_hub_match_the_oracle(seed in any::<u64>()) {
            let stage = large_stage(seed);
            let (g, _, nodes, active) = &stage;
            prop_assert!(g.n() >= 5000 && nodes.contains(&0));
            let hub_degree = g.neighbors(0).iter().filter(|&&u| active[u as usize]).count();
            prop_assert!(hub_degree > 64, "hub degree {hub_degree}");
            for workers in 1..=4 {
                assert_matches_oracle(&stage, workers);
            }
        }
    }

    #[test]
    fn color_table_grows_and_resets() {
        let mut t = ColorTable::with_capacity(2);
        t.add(u32::MAX - 1, 0.5);
        t.add(7, 1.0);
        t.add(u32::MAX - 1, 0.25);
        assert!(t.contains(u32::MAX - 1) && t.contains(7) && !t.contains(0));
        // Growing from 8 slots to 256 keeps colors, masses and order.
        let spread = |c: u32| c.wrapping_mul(0x0101_0101);
        for c in 0..100 {
            t.add(spread(c), 1.0);
        }
        let want: Vec<(u32, f64)> = [(u32::MAX - 1, 0.75), (7, 1.0)]
            .into_iter()
            .chain((0..100).map(|c| (spread(c), 1.0)))
            .collect();
        assert_eq!(t.entries().collect::<Vec<_>>(), want);
        t.reset();
        assert_eq!(t.entries().count(), 0);
        assert!(!t.contains(7) && !t.contains(spread(3)));
        // A wrapping tag clears the stamps instead of reviving old slots.
        t.insert(5);
        t.tag = u32::MAX;
        t.reset();
        assert!(!t.contains(5));
    }

    fn mask(n: usize, nodes: &[NodeId]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &v in nodes {
            m[v as usize] = true;
        }
        m
    }

    #[test]
    fn clique_has_zero_sparsity() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..4).collect();
        let act = mask(4, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        for v in 0..4 {
            assert_eq!(t.get(v).sparsity, 0.0);
            assert_eq!(t.get(v).slack, 1); // deg+1 palette
            assert_eq!(t.get(v).unevenness, 0.0); // regular
        }
    }

    #[test]
    fn star_center_is_sparse() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..5).collect();
        let act = mask(5, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        // center: d=4, no edges among leaves: ζ = (6-0)/4 = 1.5
        assert!((t.get(0).sparsity - 1.5).abs() < 1e-12);
        // leaf: d=1, ζ=0; unevenness = (4-1)/5 = 0.6
        assert_eq!(t.get(1).sparsity, 0.0);
        assert!((t.get(1).unevenness - 0.6).abs() < 1e-12);
    }

    #[test]
    fn identical_palettes_zero_discrepancy() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let pal = crate::instance::PaletteArena::from_lists(&[
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2, 3],
        ]);
        let inst = D1lcInstance::new(g.clone(), pal);
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..3).collect();
        let act = mask(3, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        assert_eq!(t.get(1).discrepancy, 0.0);
    }

    #[test]
    fn disjoint_palettes_full_discrepancy() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let pal = crate::instance::PaletteArena::from_lists(&[vec![1, 2], vec![3, 4]]);
        let inst = D1lcInstance::new(g.clone(), pal);
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = vec![0, 1];
        let act = mask(2, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        // one neighbor, all of whose palette is outside: η̄ = 1.0
        assert!((t.get(0).discrepancy - 1.0).abs() < 1e-12);
        assert!((t.get(0).slackability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inactive_neighbors_are_invisible() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        // Only 0 and 1 active: node 0's active degree is 1.
        let nodes: Vec<NodeId> = vec![0, 1];
        let act = mask(3, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.degree(2), 0, "outside the mask");
        // slack uses residual palette (3 colors) minus active degree 1 = 2
        assert_eq!(t.get(0).slack, 2);
    }
}

//! D1LC instances and the mutable coloring state.
//!
//! A **(degree+1)-list-coloring** instance (Section 2.1 of the paper) is a
//! graph plus a palette `Ψ(v)` per node with `|Ψ(v)| ≥ d(v) + 1`.  The
//! defining property that makes D1LC *self-reducible* (Definition 11) and
//! therefore derandomizable by the paper's framework: after any valid
//! partial coloring, the uncolored subgraph with the *residual* palettes
//! (original minus colored neighbors' colors) is again a D1LC instance.
//! [`ColoringState`] maintains exactly that residual view incrementally
//! and machine-checks the invariant.

use parcolor_exec::{par_fold, par_map_chunks, par_sort_unstable, Executor, ScatterMut};
use parcolor_local::graph::{Graph, NodeId};

/// Adoptions (conflict check) or affected nodes (palette pull) dealt per
/// steal by [`ColoringState::apply_adoptions`].  Batches up to one chunk —
/// the final greedy's one-node batches, small stages — run inline on the
/// caller without resolving a worker count.
const APPLY_CHUNK: usize = 2048;

/// Sentinel for "not colored yet".
pub const NO_COLOR: u32 = u32::MAX;

/// Immutable per-node palettes in a flat arena (no per-node allocation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaletteArena {
    offsets: Vec<u64>,
    colors: Vec<u32>,
}

impl PaletteArena {
    /// Build from per-node color lists.  Each list is deduplicated; order
    /// is preserved otherwise (first occurrence wins).
    ///
    /// Small lists dedup with a linear probe; above a cutoff the probe's
    /// `O(k²)` cost dominates instance construction, so larger lists
    /// sort-dedup `(color, first_position)` pairs and restore input order —
    /// `O(k log k)` with identical output.
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        const SORT_DEDUP_CUTOFF: usize = 32;
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u64);
        let mut colors = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for list in lists {
            for &c in list {
                assert!(c != NO_COLOR, "color value u32::MAX is reserved");
            }
            if list.len() <= SORT_DEDUP_CUTOFF {
                let start = colors.len();
                for &c in list {
                    if !colors[start..].contains(&c) {
                        colors.push(c);
                    }
                }
            } else {
                pairs.clear();
                pairs.extend(list.iter().enumerate().map(|(i, &c)| (c, i as u32)));
                // Keep the first occurrence of each color, then restore
                // input order by position.
                pairs.sort_unstable();
                pairs.dedup_by_key(|&mut (c, _)| c);
                pairs.sort_unstable_by_key(|&(_, pos)| pos);
                colors.extend(pairs.iter().map(|&(c, _)| c));
            }
            offsets.push(colors.len() as u64);
        }
        PaletteArena { offsets, colors }
    }

    /// The canonical (Δ+1)-coloring palette: every node gets `0..=deg`.
    /// This realizes the reduction "(Δ+1)-coloring ≤ D1LC" from the paper's
    /// introduction.
    ///
    /// Constructed straight into the flat arena: the lists `0..=deg` are
    /// already duplicate-free, so no intermediate per-node `Vec` (and no
    /// dedup pass) is needed — offsets are a prefix sum of `deg + 1`.
    pub fn degree_plus_one(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for v in 0..n as NodeId {
            total += g.degree(v) as u64 + 1;
            offsets.push(total);
        }
        let mut colors = Vec::with_capacity(total as usize);
        for v in 0..n as NodeId {
            colors.extend(0..=g.degree(v) as u32);
        }
        PaletteArena { offsets, colors }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Input palette of `v`.
    #[inline]
    pub fn palette(&self, v: NodeId) -> &[u32] {
        &self.colors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Input palette size of `v`.
    #[inline]
    pub fn size(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Total words of palette storage (for MPC space accounting).
    pub fn words(&self) -> usize {
        self.offsets.len() + self.colors.len()
    }
}

/// A D1LC problem instance.
#[derive(Clone, Debug)]
pub struct D1lcInstance {
    /// The input graph.
    pub graph: Graph,
    /// Per-node input palettes (`|Ψ(v)| ≥ d(v)+1`).
    pub palettes: PaletteArena,
}

impl D1lcInstance {
    /// Construct and validate an instance (panics on a broken promise).
    pub fn new(graph: Graph, palettes: PaletteArena) -> Self {
        let inst = D1lcInstance { graph, palettes };
        inst.validate().expect("invalid D1LC instance");
        inst
    }

    /// The (Δ+1)-coloring special case.
    pub fn delta_plus_one(graph: Graph) -> Self {
        let palettes = PaletteArena::degree_plus_one(&graph);
        D1lcInstance { graph, palettes }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Check the D1LC promise `|Ψ(v)| ≥ d(v) + 1` for every node.
    pub fn validate(&self) -> Result<(), String> {
        if self.palettes.n() != self.graph.n() {
            return Err("palette count != node count".into());
        }
        for v in 0..self.graph.n() as NodeId {
            if self.palettes.size(v) < self.graph.degree(v) + 1 {
                return Err(format!(
                    "node {v}: palette {} < degree {} + 1",
                    self.palettes.size(v),
                    self.graph.degree(v)
                ));
            }
        }
        Ok(())
    }

    /// Verify a complete coloring: every node colored from its own palette
    /// and no monochromatic edge.
    pub fn verify_coloring(&self, colors: &[u32]) -> Result<(), String> {
        if colors.len() != self.n() {
            return Err("wrong length".into());
        }
        for v in 0..self.n() as NodeId {
            let c = colors[v as usize];
            if c == NO_COLOR {
                return Err(format!("node {v} uncolored"));
            }
            if !self.palettes.palette(v).contains(&c) {
                return Err(format!("node {v}: color {c} not in palette"));
            }
        }
        if !self.graph.is_proper_coloring(colors) {
            return Err("monochromatic edge".into());
        }
        Ok(())
    }
}

/// Mutable residual state of a partially colored D1LC instance.
///
/// Maintains, for every uncolored node: its residual palette (input palette
/// minus the colors of colored neighbors) and its uncolored degree.  These
/// are exactly the quantities `p(v)` and `d(v)` of the paper's "current
/// graph G" (Section 2.1: "As we go on coloring the nodes … the color
/// palettes of the nodes will also change").
#[derive(Clone, Debug)]
pub struct ColoringState {
    n: usize,
    color: Vec<u32>,
    /// Residual palettes: arena with per-node live prefix `pal_len[v]`.
    pal_off: Vec<u64>,
    pal: Vec<u32>,
    pal_len: Vec<u32>,
    unc_deg: Vec<u32>,
    /// Epoch stamps marking "colored in the current batch" during updates.
    stamp: Vec<u32>,
    epoch: u32,
    colored_count: usize,
}

impl ColoringState {
    /// Fresh all-uncolored state over the instance.
    pub fn new(inst: &D1lcInstance) -> Self {
        let n = inst.n();
        let mut pal_off = Vec::with_capacity(n + 1);
        pal_off.push(0u64);
        let mut pal = Vec::new();
        let mut pal_len = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let p = inst.palettes.palette(v);
            pal.extend_from_slice(p);
            pal_off.push(pal.len() as u64);
            pal_len.push(p.len() as u32);
        }
        let unc_deg: Vec<u32> = (0..n as NodeId)
            .map(|v| inst.graph.degree(v) as u32)
            .collect();
        ColoringState {
            n,
            color: vec![NO_COLOR; n],
            pal_off,
            pal,
            pal_len,
            unc_deg,
            stamp: vec![0; n],
            epoch: 0,
            colored_count: 0,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current color of `v` (`NO_COLOR` if uncolored).
    #[inline]
    pub fn color(&self, v: NodeId) -> u32 {
        self.color[v as usize]
    }

    /// Whether `v` has committed a color.
    #[inline]
    pub fn is_colored(&self, v: NodeId) -> bool {
        self.color[v as usize] != NO_COLOR
    }

    /// Number of colored nodes.
    pub fn colored_count(&self) -> usize {
        self.colored_count
    }

    /// Number of uncolored nodes.
    pub fn uncolored_count(&self) -> usize {
        self.n - self.colored_count
    }

    /// Residual palette of `v` (meaningless once `v` is colored).
    #[inline]
    pub fn palette(&self, v: NodeId) -> &[u32] {
        let start = self.pal_off[v as usize] as usize;
        &self.pal[start..start + self.pal_len[v as usize] as usize]
    }

    /// Residual palette size `p(v)`.
    #[inline]
    pub fn palette_size(&self, v: NodeId) -> usize {
        self.pal_len[v as usize] as usize
    }

    /// Uncolored degree `d(v)` in the residual graph.
    #[inline]
    pub fn uncolored_degree(&self, v: NodeId) -> usize {
        self.unc_deg[v as usize] as usize
    }

    /// Slack `s(v) = p(v) − d(v)` (Definition 2).
    #[inline]
    pub fn slack(&self, v: NodeId) -> i64 {
        self.pal_len[v as usize] as i64 - self.unc_deg[v as usize] as i64
    }

    /// All uncolored node ids, ascending.
    pub fn uncolored_nodes(&self) -> Vec<NodeId> {
        (0..self.n as NodeId)
            .filter(|&v| !self.is_colored(v))
            .collect()
    }

    /// Apply a batch of simultaneous adoptions `(v, c)`.
    ///
    /// Preconditions (checked): every `v` is uncolored, `c` is in `v`'s
    /// residual palette, and the batch is internally conflict-free (no two
    /// *adjacent* nodes adopt the same color).  Procedures guarantee the
    /// last point by symmetric abstention; it is re-verified here because a
    /// violation would silently corrupt the whole run.
    ///
    /// Runs on every hardware thread (or `PARCOLOR_THREADS`); the result
    /// is identical at any worker count.  Cost: `O(Σ_{(v,c)} d(v))` for
    /// the conflict check and the neighbor collection, a sort of the
    /// affected nodes, and `O(Σ_u d(u) · p(u))` worst case for the palette
    /// pull.
    pub fn apply_adoptions(&mut self, g: &Graph, adoptions: &[(NodeId, u32)]) {
        self.apply_adoptions_on(g, adoptions, 0);
    }

    /// [`ColoringState::apply_adoptions`] on `workers` pool workers (`0` =
    /// auto).  The conflict check and the palette pull run on the pool;
    /// each affected node removes its neighbors' colors in neighbor order,
    /// exactly as a sequential pass would, so palettes — contents *and*
    /// order — are identical at every worker count.
    pub(crate) fn apply_adoptions_on(
        &mut self,
        g: &Graph,
        adoptions: &[(NodeId, u32)],
        workers: usize,
    ) {
        if adoptions.is_empty() {
            return;
        }
        let pool = Executor::global();
        let workers_for = |len: usize| {
            if len > APPLY_CHUNK {
                parcolor_exec::resolve_workers(workers)
            } else {
                1
            }
        };
        self.epoch += 1;
        let epoch = self.epoch;
        // Commit colors (and stamp) sequentially: one cheap pass.
        for &(v, c) in adoptions {
            assert!(!self.is_colored(v), "node {v} adopted twice");
            assert!(
                self.palette(v).contains(&c),
                "node {v}: adopted color {c} not in residual palette"
            );
            self.color[v as usize] = c;
            self.stamp[v as usize] = epoch;
            self.colored_count += 1;
        }
        // Verify conflict-freedom among the batch (read-only).  The fold
        // keeps the lowest conflicting batch position, so the report
        // names the same pair as a sequential scan.
        let (stamp, color) = (&self.stamp, &self.color);
        let clash = |(v, c): (NodeId, u32)| {
            g.neighbors(v)
                .iter()
                .copied()
                .find(|&u| stamp[u as usize] == epoch && color[u as usize] == c)
        };
        let first = par_fold(
            pool,
            workers_for(adoptions.len()),
            0..adoptions.len() as u64,
            APPLY_CHUNK as u64,
            || (),
            || u64::MAX,
            |start, len, acc: u64, _| {
                (start..start + len)
                    .find(|&i| clash(adoptions[i as usize]).is_some())
                    .map_or(acc, |i| acc.min(i))
            },
            u64::min,
        );
        if let Some(&(v, c)) = adoptions.get(first as usize) {
            let u = clash((v, c)).expect("the fold found a conflict here");
            panic!("conflicting adoptions: {v} and {u} both took {c}");
        }
        let mut affected: Vec<NodeId> = adoptions
            .iter()
            .flat_map(|&(v, _)| g.neighbors(v).iter().copied())
            .filter(|&u| !self.is_colored(u))
            .collect();
        par_sort_unstable(pool, workers_for(affected.len()), &mut affected);
        affected.dedup();
        // Pull-based neighbor updates on the pool: `affected` is strictly
        // increasing, so every node's palette region, length and degree
        // slot is written by exactly one worker.
        let pal_off = &self.pal_off;
        let pal = ScatterMut::new(&mut self.pal);
        let pal_len = ScatterMut::new(&mut self.pal_len);
        let unc_deg = ScatterMut::new(&mut self.unc_deg);
        par_map_chunks(
            pool,
            workers_for(affected.len()),
            affected.len(),
            APPLY_CHUNK,
            |start, len| {
                for &u in &affected[start..start + len] {
                    let u = u as usize;
                    // SAFETY: each `u` appears once in `affected`, so its
                    // length and degree slots and its palette region —
                    // inside `pal_off[u]..pal_off[u + 1]`, since the live
                    // prefix only shrinks — are disjoint from every other
                    // worker's, and nothing reads them during the pull.
                    let (live_slot, deg_slot, slice) = unsafe {
                        let live_slot = &mut pal_len.stripe_mut(u, 1)[0];
                        let slice = pal.stripe_mut(pal_off[u] as usize, *live_slot as usize);
                        (live_slot, &mut unc_deg.stripe_mut(u, 1)[0], slice)
                    };
                    let mut live = slice.len();
                    for &w in g.neighbors(u as NodeId) {
                        if stamp[w as usize] == epoch {
                            *deg_slot -= 1;
                            let c = color[w as usize];
                            // Remove c from the live palette prefix if present.
                            if let Some(pos) = slice[..live].iter().position(|&x| x == c) {
                                slice.swap(pos, live - 1);
                                live -= 1;
                            }
                        }
                    }
                    *live_slot = live as u32;
                }
            },
        );
    }

    /// The D1LC invariant `p(v) ≥ d(v) + 1` on every uncolored node — the
    /// self-reducibility property (Definition 11) that the entire pipeline
    /// depends on.  Returns the first violating node, if any.
    pub fn invariant_violation(&self) -> Option<NodeId> {
        (0..self.n as NodeId)
            .find(|&v| !self.is_colored(v) && self.pal_len[v as usize] <= self.unc_deg[v as usize])
    }

    /// Verify properness of the colored part against the graph.
    pub fn verify_partial(&self, g: &Graph) -> Result<(), String> {
        for v in 0..self.n as NodeId {
            if !self.is_colored(v) {
                continue;
            }
            for &u in g.neighbors(v) {
                if self.is_colored(u) && self.color(u) == self.color(v) {
                    return Err(format!("edge {v}-{u} monochromatic ({})", self.color(v)));
                }
            }
        }
        Ok(())
    }

    /// Extract the residual D1LC instance induced on `nodes` (all must be
    /// uncolored).  Returns the instance and the map new-id → old-id.
    /// This is the `O(1)`-round re-input computation of Definition 11.
    pub fn residual_instance(&self, g: &Graph, nodes: &[NodeId]) -> (D1lcInstance, Vec<NodeId>) {
        debug_assert!(nodes.iter().all(|&v| !self.is_colored(v)));
        let (sub, map) = g.induced(nodes);
        let lists: Vec<Vec<u32>> = map.iter().map(|&old| self.palette(old).to_vec()).collect();
        let palettes = PaletteArena::from_lists(&lists);
        (D1lcInstance::new(sub, palettes), map)
    }

    /// Residual instance with palettes filtered by a predicate (used by
    /// `LowSpacePartition`'s color-bin restriction).  The caller is
    /// responsible for the filtered instance satisfying the D1LC promise
    /// (Lemma 23 selects hash functions that guarantee it); this method
    /// checks and reports rather than asserting.
    pub fn restricted_instance<F>(
        &self,
        g: &Graph,
        nodes: &[NodeId],
        keep_color: F,
    ) -> Result<(D1lcInstance, Vec<NodeId>), String>
    where
        F: Fn(u32) -> bool + Sync,
    {
        debug_assert!(nodes.iter().all(|&v| !self.is_colored(v)));
        let (sub, map) = g.induced(nodes);
        let lists: Vec<Vec<u32>> = map
            .iter()
            .map(|&old| {
                self.palette(old)
                    .iter()
                    .copied()
                    .filter(|&c| keep_color(c))
                    .collect()
            })
            .collect();
        for (new_v, list) in lists.iter().enumerate() {
            if list.len() < sub.degree(new_v as NodeId) + 1 {
                return Err(format!(
                    "restricted palette of node {} (orig {}) too small: {} ≤ degree {}",
                    new_v,
                    map[new_v],
                    list.len(),
                    sub.degree(new_v as NodeId)
                ));
            }
        }
        let palettes = PaletteArena::from_lists(&lists);
        Ok((D1lcInstance::new(sub, palettes), map))
    }

    /// Final colors; errors if any node is uncolored.
    pub fn into_colors(self) -> Result<Vec<u32>, String> {
        if self.colored_count != self.n {
            return Err(format!(
                "{} nodes still uncolored",
                self.n - self.colored_count
            ));
        }
        Ok(self.color)
    }

    /// Colors vector including `NO_COLOR` sentinels (partial view).
    pub fn colors(&self) -> &[u32] {
        &self.color
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, ((i + 1) % n as NodeId)))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn inst_cycle(n: usize) -> D1lcInstance {
        D1lcInstance::delta_plus_one(cycle(n))
    }

    #[test]
    fn delta_plus_one_palettes() {
        let inst = inst_cycle(5);
        assert!(inst.validate().is_ok());
        assert_eq!(inst.palettes.palette(0), &[0, 1, 2]);
    }

    #[test]
    fn palette_arena_dedups() {
        let pa = PaletteArena::from_lists(&[vec![1, 2, 2, 3], vec![5]]);
        assert_eq!(pa.palette(0), &[1, 2, 3]);
        assert_eq!(pa.size(1), 1);
    }

    #[test]
    #[should_panic]
    fn reserved_color_rejected() {
        PaletteArena::from_lists(&[vec![NO_COLOR]]);
    }

    #[test]
    fn large_list_sort_dedup_preserves_first_occurrence_order() {
        // Above the sort-dedup cutoff: interleaved duplicates across a
        // list long enough to take the O(k log k) path.
        let list: Vec<u32> = (0..120u32).map(|i| (i * 7 + 3) % 40).collect();
        let mut expect: Vec<u32> = Vec::new();
        for &c in &list {
            if !expect.contains(&c) {
                expect.push(c);
            }
        }
        let pa = PaletteArena::from_lists(&[list]);
        assert_eq!(pa.palette(0), &expect[..]);
    }

    #[test]
    fn degree_plus_one_matches_from_lists() {
        // The direct arena construction must equal the list-based one.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let direct = PaletteArena::degree_plus_one(&g);
        let lists: Vec<Vec<u32>> = (0..g.n() as NodeId)
            .map(|v| (0..=g.degree(v) as u32).collect())
            .collect();
        assert_eq!(direct, PaletteArena::from_lists(&lists));
    }

    #[test]
    fn adoption_updates_neighbors() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 1)]);
        assert!(st.is_colored(0));
        assert_eq!(st.uncolored_degree(1), 1);
        assert_eq!(st.uncolored_degree(3), 1);
        assert_eq!(st.uncolored_degree(2), 2);
        assert!(!st.palette(1).contains(&1));
        assert!(!st.palette(3).contains(&1));
        assert!(st.palette(2).contains(&1));
        assert!(st.invariant_violation().is_none());
    }

    #[test]
    fn simultaneous_nonadjacent_same_color_ok() {
        let inst = inst_cycle(6);
        let mut st = ColoringState::new(&inst);
        // 0 and 3 are not adjacent in C6.
        st.apply_adoptions(&inst.graph, &[(0, 2), (3, 2)]);
        assert!(st.verify_partial(&inst.graph).is_ok());
        // node 1 neighbors 0 and 2: only one of them colored; degree 1 left
        assert_eq!(st.uncolored_degree(1), 1);
        // palette of 2 lost color 2 once (from node 3), not twice
        assert_eq!(st.palette_size(2), 2);
    }

    #[test]
    #[should_panic(expected = "conflicting adoptions")]
    fn adjacent_same_color_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 1), (1, 1)]);
    }

    /// A batch split across workers reports the conflict at the lowest
    /// batch position, as a sequential scan would.
    #[test]
    #[should_panic(expected = "conflicting adoptions: 7000 and 7001 both took 0")]
    fn split_batch_reports_first_conflict() {
        let inst = inst_cycle(10_000);
        let mut st = ColoringState::new(&inst);
        let mut batch: Vec<(NodeId, u32)> = (0..10_000).step_by(2).map(|v| (v, 0)).collect();
        batch.extend([(9001, 0), (7001, 0)]);
        st.apply_adoptions_on(&inst.graph, &batch, 4);
    }

    #[test]
    #[should_panic(expected = "not in residual palette")]
    fn color_outside_palette_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 99)]);
    }

    #[test]
    #[should_panic(expected = "adopted twice")]
    fn double_coloring_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0)]);
        st.apply_adoptions(&inst.graph, &[(0, 1)]);
    }

    #[test]
    fn slack_grows_when_neighbor_colored_with_foreign_color() {
        // Star: center 0 with 3 leaves; palettes deg+1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let inst = D1lcInstance::delta_plus_one(g);
        let mut st = ColoringState::new(&inst);
        assert_eq!(st.slack(0), 1);
        // Leaf 1 has palette {0,1}; give it color 1.
        st.apply_adoptions(&inst.graph, &[(1, 1)]);
        // Center: palette {0,1,2,3} loses 1 → 3 colors, degree 2 → slack 1.
        assert_eq!(st.slack(0), 1);
        // Leaf 2 takes color 1 as well (not adjacent to leaf 1):
        st.apply_adoptions(&inst.graph, &[(2, 1)]);
        // Center palette already lost 1 → stays 3, degree 1 → slack 2.
        assert_eq!(st.slack(0), 2);
    }

    #[test]
    fn residual_instance_is_valid_d1lc() {
        let inst = inst_cycle(6);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0), (3, 0)]);
        let remaining = st.uncolored_nodes();
        let (sub, map) = st.residual_instance(&inst.graph, &remaining);
        assert_eq!(sub.n(), 4);
        assert!(sub.validate().is_ok());
        assert_eq!(map, vec![1, 2, 4, 5]);
    }

    #[test]
    fn restricted_instance_checks_promise() {
        let inst = inst_cycle(4);
        let st = ColoringState::new(&inst);
        // Keeping only color 0 gives palettes of size 1 < degree+1.
        let r = st.restricted_instance(&inst.graph, &st.uncolored_nodes(), |c| c == 0);
        assert!(r.is_err());
        // Keeping everything works.
        let r = st.restricted_instance(&inst.graph, &st.uncolored_nodes(), |_| true);
        assert!(r.is_ok());
    }

    #[test]
    fn into_colors_requires_completion() {
        let inst = inst_cycle(3);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0)]);
        assert!(st.clone().into_colors().is_err());
        st.apply_adoptions(&inst.graph, &[(1, 1)]);
        st.apply_adoptions(&inst.graph, &[(2, 2)]);
        let colors = st.into_colors().unwrap();
        assert!(inst.verify_coloring(&colors).is_ok());
    }

    #[test]
    fn verify_coloring_catches_palette_violation() {
        let inst = inst_cycle(3);
        // proper but node 0 uses color 5 ∉ palette {0,1,2}
        assert!(inst.verify_coloring(&[5, 1, 2]).is_err());
        assert!(inst.verify_coloring(&[0, 1, 2]).is_ok());
    }

    /// SplitMix-style mixer for deterministic pseudo-random test data.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The sequential reference of `apply_adoptions`' palette pull: commit,
    /// then walk the affected nodes in ascending order and swap-remove
    /// each stamped neighbor's color in neighbor order.
    fn apply_sequential(st: &mut ColoringState, g: &Graph, adoptions: &[(NodeId, u32)]) {
        st.epoch += 1;
        for &(v, c) in adoptions {
            st.color[v as usize] = c;
            st.stamp[v as usize] = st.epoch;
            st.colored_count += 1;
        }
        let mut affected: Vec<NodeId> = adoptions
            .iter()
            .flat_map(|&(v, _)| g.neighbors(v).iter().copied())
            .filter(|&u| !st.is_colored(u))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for u in affected {
            let start = st.pal_off[u as usize] as usize;
            let mut live = st.pal_len[u as usize] as usize;
            for &w in g.neighbors(u) {
                if st.stamp[w as usize] == st.epoch {
                    st.unc_deg[u as usize] -= 1;
                    let c = st.color[w as usize];
                    let pal = &mut st.pal[start..start + live];
                    if let Some(pos) = pal.iter().position(|&x| x == c) {
                        pal.swap(pos, live - 1);
                        live -= 1;
                    }
                }
            }
            st.pal_len[u as usize] = live as u32;
        }
    }

    /// A conflict-free random batch: uncolored nodes in a scrambled
    /// order, each taking a random residual color no earlier batch
    /// neighbor took.
    fn random_batch(st: &ColoringState, g: &Graph, round: u64) -> Vec<(NodeId, u32)> {
        let mut order: Vec<NodeId> = st.uncolored_nodes();
        order.sort_by_key(|&v| mix(v as u64 ^ round << 40));
        let mut taken = vec![NO_COLOR; st.n()];
        let mut batch = Vec::new();
        for v in order.into_iter().take(st.uncolored_count() / 2 + 1) {
            let pal = st.palette(v);
            let c = pal[(mix(v as u64 + round) % pal.len() as u64) as usize];
            if g.neighbors(v).iter().all(|&u| taken[u as usize] != c) {
                taken[v as usize] = c;
                batch.push((v, c));
            }
        }
        batch
    }

    /// The pooled pull must leave colors, palettes (contents and order)
    /// and uncolored degrees exactly as the sequential reference does, at
    /// every worker count, on batches large enough to split.
    #[test]
    fn pooled_apply_matches_sequential_reference() {
        let n = 12_000usize;
        let edges: Vec<(NodeId, NodeId)> = (0..5 * n as u64)
            .map(|i| {
                (
                    (mix(2 * i) % n as u64) as NodeId,
                    (mix(2 * i + 1) % n as u64) as NodeId,
                )
            })
            .filter(|&(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(n, &edges);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        for workers in [1usize, 2, 4] {
            let mut pooled = ColoringState::new(&inst);
            let mut reference = pooled.clone();
            for round in 0..4 {
                let batch = random_batch(&reference, &g, round);
                if round == 0 {
                    assert!(batch.len() > 2 * APPLY_CHUNK, "batch too small to split");
                }
                apply_sequential(&mut reference, &g, &batch);
                pooled.apply_adoptions_on(&g, &batch, workers);
                assert_eq!(pooled.colors(), reference.colors(), "workers {workers}");
                assert_eq!(pooled.colored_count, reference.colored_count);
                assert_eq!(pooled.unc_deg, reference.unc_deg, "workers {workers}");
                for v in 0..n as NodeId {
                    assert_eq!(
                        pooled.palette(v),
                        reference.palette(v),
                        "workers {workers} round {round} node {v}"
                    );
                }
            }
            assert!(pooled.invariant_violation().is_none());
        }
    }

    #[test]
    fn big_batch_parallel_update_consistent() {
        // Match a sequential reference on a larger cycle.
        let n = 1000;
        let inst = inst_cycle(n);
        let mut st = ColoringState::new(&inst);
        // Color all even nodes with color 0 (independent set in C_1000).
        let batch: Vec<(NodeId, u32)> = (0..n as NodeId).step_by(2).map(|v| (v, 0)).collect();
        st.apply_adoptions(&inst.graph, &batch);
        assert!(st.verify_partial(&inst.graph).is_ok());
        for v in (1..n as NodeId).step_by(2) {
            assert_eq!(st.uncolored_degree(v), 0);
            assert_eq!(st.palette_size(v), 2); // {0,1,2} minus 0
            assert!(st.slack(v) >= 1);
        }
        assert!(st.invariant_violation().is_none());
    }
}

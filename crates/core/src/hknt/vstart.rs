//! Identification of `Vstart` — the sparse nodes for which slack is hard
//! to generate (Section 5.2 / Lemma 21 of the paper).
//!
//! The breakdown (all thresholds are the ε₁…ε₅ constants of `Params`):
//!
//! ```text
//! Vbalanced = sparse v with ≥ ε₁·d(v) neighbors of degree > 2d(v)/3
//! Vdisc     = sparse v with discrepancy η̄_v ≥ ε₂·d(v)
//! Veasy     = Vbalanced ∪ Vdisc ∪ Vuneven ∪ {sparse v: ≥ ε₃·d(v) dense neighbors}
//! Vheavy    = sparse v ∉ Veasy with Σ_{c heavy} H(c) ≥ ε₄·d(v)
//! Vstart    = sparse v ∉ (Veasy ∪ Vheavy) with ≥ ε₅·d(v) neighbors in Veasy
//! ```
//!
//! where `H(c) = Σ_{u∈N(v)} [c ∈ Ψ(u)] / p(u)` is the expected number of
//! neighbors that would pick `c` in a uniform trial, and `c` is *heavy*
//! when `H(c)` is at least a constant.

use crate::config::Params;
use crate::hknt::acd::{Acd, NodeClass};
use crate::instance::ColoringState;
use crate::node_params::{ColorTable, ParamTable, PARAM_CHUNK};
use parcolor_exec::{par_fill, par_fill_in, resolve_workers, Executor};
use parcolor_local::graph::{Graph, NodeId};

/// The subsets computed on the way to `Vstart` (exposed for tests and the
/// E5 diagnostics).
#[derive(Clone, Debug, Default)]
pub struct VstartSets {
    /// `Vbalanced`: sparse nodes with many similar-degree neighbors.
    pub balanced: Vec<NodeId>,
    /// `Vdisc`: sparse nodes with high discrepancy.
    pub disc: Vec<NodeId>,
    /// `Veasy`: the union that easily generates slack.
    pub easy: Vec<NodeId>,
    /// `Vheavy`: heavy-color mass nodes.
    pub heavy: Vec<NodeId>,
    /// `Vstart`: the hard-to-slack set, colored first via temporary slack.
    pub start: Vec<NodeId>,
}

/// Per-sparse-node membership bits of the filters.
const BALANCED: u8 = 1;
const DISC: u8 = 2;
const MANY_DENSE: u8 = 4;
const HEAVY: u8 = 8;
const START: u8 = 16;

/// One worker's `H(c)` accumulator plus its heavy colors.
struct HeavyScratch {
    mass: ColorTable,
    heavy: Vec<(u32, f64)>,
}

/// Compute `Vstart` for the current stage, on `params.workers` pool
/// workers, reading active degrees from `table`.
///
/// Time `O(n + Σ_{v sparse} Σ_{u∈N(v)} (1 + |Ψ(u)|))`, split over the
/// workers, plus sorting each node's heavy colors; auxiliary space
/// `O(n + workers · max_v |∪_{u∈N(v)} Ψ(u)|)`.  `H(c)` adds its terms in
/// `N(v)`'s ascending order and the heavy masses are summed in ascending
/// color order, so `Vheavy` is bit-identical at every worker count and
/// in every run.
pub fn identify_vstart(
    g: &Graph,
    state: &ColoringState,
    acd: &Acd,
    table: &ParamTable,
    active: &[bool],
    params: &Params,
) -> VstartSets {
    let n = g.n();
    let sparse: Vec<NodeId> = acd.sparse_nodes();
    let workers = resolve_workers(params.workers)
        .min(sparse.len().div_ceil(PARAM_CHUNK))
        .max(1);
    let pool = Executor::global();
    let mut flags = vec![0u8; sparse.len()];

    // Vbalanced, Vdisc and the many-dense-neighbors part of Veasy.
    par_fill(pool, workers, &mut flags, PARAM_CHUNK, |start, stripe| {
        for (f, &v) in stripe.iter_mut().zip(&sparse[start..]) {
            let d = table.degree(v);
            let (mut big, mut dense_nb) = (0usize, 0usize);
            for &u in g.neighbors(v) {
                big += (active[u as usize] && table.degree(u) * 3 > 2 * d) as usize;
                dense_nb += matches!(acd.class[u as usize], NodeClass::Dense(_)) as usize;
            }
            if big as f64 >= params.eps1 * d as f64 {
                *f |= BALANCED;
            }
            if table.get(v).discrepancy >= params.eps2 * d as f64 {
                *f |= DISC;
            }
            if dense_nb as f64 >= params.eps3 * d as f64 {
                *f |= MANY_DENSE;
            }
        }
    });

    // Veasy.
    let mut easy_mask: Vec<bool> = acd.class.iter().map(|&c| c == NodeClass::Uneven).collect();
    for (&f, &v) in flags.iter().zip(&sparse) {
        if f != 0 {
            easy_mask[v as usize] = true;
        }
    }

    // Vheavy and Vstart in one pass: Vstart reads only `v`'s own heavy
    // bit and the easy mask, which is complete by now.
    let mut scratches: Vec<HeavyScratch> = (0..workers)
        .map(|_| HeavyScratch {
            mass: ColorTable::with_capacity(0),
            heavy: Vec::new(),
        })
        .collect();
    par_fill_in(
        pool,
        &mut scratches,
        &mut flags,
        PARAM_CHUNK,
        |start, stripe, scratch| {
            for (f, &v) in stripe.iter_mut().zip(&sparse[start..]) {
                if easy_mask[v as usize] {
                    continue;
                }
                let d = table.degree(v) as f64;
                if heavy_mass(g, state, active, params.heavy_const, v, scratch) >= params.eps4 * d {
                    *f |= HEAVY;
                    continue;
                }
                let easy_nb = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| easy_mask[u as usize])
                    .count();
                if easy_nb as f64 >= params.eps5 * d {
                    *f |= START;
                }
            }
        },
    );

    let with = |bit: u8| -> Vec<NodeId> {
        sparse
            .iter()
            .zip(&flags)
            .filter(|&(_, &f)| f & bit != 0)
            .map(|(&v, _)| v)
            .collect()
    };
    VstartSets {
        balanced: with(BALANCED),
        disc: with(DISC),
        easy: (0..n as NodeId)
            .filter(|&v| easy_mask[v as usize])
            .collect(),
        heavy: with(HEAVY),
        start: with(START),
    }
}

/// `Σ_{c heavy} H(c)` at `v`: the per-color masses accumulate in
/// neighbor order, and the heavy ones are summed in ascending color
/// order.
fn heavy_mass(
    g: &Graph,
    state: &ColoringState,
    active: &[bool],
    heavy_const: f64,
    v: NodeId,
    scratch: &mut HeavyScratch,
) -> f64 {
    let mass = &mut scratch.mass;
    mass.reset();
    for &u in g.neighbors(v) {
        if !active[u as usize] || state.is_colored(u) {
            continue;
        }
        let pu = state.palette(u);
        if pu.is_empty() {
            continue;
        }
        let w = 1.0 / pu.len() as f64;
        for &c in pu {
            mass.add(c, w);
        }
    }
    let heavy = &mut scratch.heavy;
    heavy.clear();
    heavy.extend(mass.entries().filter(|&(_, m)| m >= heavy_const));
    heavy.sort_unstable_by_key(|&(c, _)| c);
    heavy.iter().map(|&(_, m)| m).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hknt::acd::compute_acd;
    use crate::instance::D1lcInstance;
    use crate::node_params::compute_params;
    use std::collections::BTreeMap;

    fn analyze(g: &Graph) -> (VstartSets, Acd) {
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let active = vec![true; g.n()];
        let p = Params::default();
        let table = compute_params(g, &st, &nodes, &active);
        let acd = compute_acd(g, &nodes, &active, &table, &p);
        let vs = identify_vstart(g, &st, &acd, &table, &active, &p);
        (vs, acd)
    }

    /// Hubs with many low-degree neighbors whose palettes share a small
    /// pool of sparse colors (so `H(c)` reaches the heavy threshold),
    /// partially colored, with a few random edges on top.
    fn heavy_instance(seed: u64) -> (Graph, ColoringState, Vec<bool>) {
        let mut rng = parcolor_local::tape::SplitMix::new(seed);
        let n = 40 + rng.below(40) as usize;
        let mut edges = Vec::new();
        for hub in 0..3u32 {
            for _ in 0..8 + rng.below(16) {
                let leaf = 3 + rng.below(n as u64 - 3) as u32;
                edges.push((hub, leaf));
            }
        }
        for _ in 0..rng.below(n as u64) {
            let a = 3 + rng.below(n as u64 - 3) as u32;
            let b = 3 + rng.below(n as u64 - 3) as u32;
            if a != b {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(n, &edges);
        let pool = [0, 17, 1 << 20, 3 << 29, u32::MAX - 2, u32::MAX - 1];
        let lists: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| {
                let want = g.degree(v) + 1 + rng.below(2) as usize;
                let mut list: Vec<u32> = Vec::new();
                for _ in 0..want {
                    let c = pool[rng.below(pool.len() as u64) as usize];
                    if !list.contains(&c) {
                        list.push(c);
                    }
                }
                list.extend((list.len()..want).map(|i| 1000 + v * 256 + i as u32));
                list
            })
            .collect();
        let inst = D1lcInstance::new(g.clone(), crate::instance::PaletteArena::from_lists(&lists));
        let mut st = ColoringState::new(&inst);
        let mut taken = vec![false; n];
        let mut adoptions = Vec::new();
        for v in 3..n as NodeId {
            if rng.below(6) == 0 && !g.neighbors(v).iter().any(|&u| taken[u as usize]) {
                taken[v as usize] = true;
                adoptions.push((v, st.palette(v)[0]));
            }
        }
        st.apply_adoptions(&g, &adoptions);
        let active: Vec<bool> = (0..n as NodeId).map(|v| !st.is_colored(v)).collect();
        (g, st, active)
    }

    #[test]
    fn heavy_matches_an_ordered_map_oracle() {
        let mut heavy_seen = 0;
        for seed in 0..64u64 {
            let (g, st, active) = heavy_instance(seed);
            let nodes: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| active[v as usize])
                .collect();
            let p = Params::default().with_workers(1 + seed as usize % 3);
            let table = compute_params(&g, &st, &nodes, &active);
            let acd = compute_acd(&g, &nodes, &active, &table, &p);
            let vs = identify_vstart(&g, &st, &acd, &table, &active, &p);
            let oracle: Vec<NodeId> = acd
                .sparse_nodes()
                .into_iter()
                .filter(|v| !vs.easy.contains(v))
                .filter(|&v| {
                    let mut h: BTreeMap<u32, f64> = BTreeMap::new();
                    for &u in g.neighbors(v) {
                        if !active[u as usize] || st.is_colored(u) {
                            continue;
                        }
                        let pu = st.palette(u);
                        for &c in pu {
                            *h.entry(c).or_insert(0.0) += 1.0 / pu.len() as f64;
                        }
                    }
                    let mass: f64 = h.values().filter(|&&m| m >= p.heavy_const).sum();
                    let d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| active[u as usize])
                        .count();
                    mass >= p.eps4 * d as f64
                })
                .collect();
            assert_eq!(vs.heavy, oracle, "seed {seed}");
            heavy_seen += vs.heavy.len();
        }
        assert!(heavy_seen > 0, "no instance exercised Vheavy");
    }

    #[test]
    fn star_leaves_are_not_start() {
        // Star: center sparse (ζ large); leaves are uneven.
        let edges: Vec<_> = (1..20u32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(20, &edges);
        let (vs, acd) = analyze(&g);
        assert_eq!(acd.class[1], NodeClass::Uneven);
        // Leaves are uneven → in Veasy, never in Vstart.
        assert!(!vs.start.contains(&1));
    }

    #[test]
    fn subsets_are_disjoint_from_start() {
        // Random-ish sparse graph.
        let mut edges = Vec::new();
        let mut rng = parcolor_local::tape::SplitMix::new(9);
        for _ in 0..200 {
            let a = rng.below(60) as u32;
            let b = rng.below(60) as u32;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let g = Graph::from_edges(60, &edges);
        let (vs, _) = analyze(&g);
        for v in &vs.start {
            assert!(!vs.easy.contains(v), "start∩easy at {v}");
            assert!(!vs.heavy.contains(v), "start∩heavy at {v}");
        }
    }

    #[test]
    fn balanced_detects_regular_sparse_graphs() {
        // In a degree-regular sparse graph every neighbor has degree
        // > 2d/3, so all sparse nodes are balanced (hence easy).
        let edges: Vec<_> = (0..40u32).map(|i| (i, (i + 1) % 40)).collect();
        let g = Graph::from_edges(40, &edges);
        let (vs, acd) = analyze(&g);
        let sparse = acd.sparse_nodes();
        assert!(!sparse.is_empty());
        for v in &sparse {
            assert!(vs.balanced.contains(v), "ring node {v} not balanced");
        }
        assert!(vs.start.is_empty());
    }

    #[test]
    fn identical_palettes_make_heavy_colors() {
        // Dense-ish bipartite-ish sparse graph where palettes coincide:
        // H(c) ≈ Σ 1/p — heaviness requires enough neighbors.
        // K_{5,5} minus a matching is sparse (no triangles at all).
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 5..10u32 {
                if b - 5 != a {
                    edges.push((a, b));
                }
            }
        }
        let g = Graph::from_edges(10, &edges);
        let pal: Vec<Vec<u32>> = (0..10).map(|_| (0..5).collect()).collect();
        let inst = D1lcInstance::new(g.clone(), crate::instance::PaletteArena::from_lists(&pal));
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..10).collect();
        let active = vec![true; 10];
        let p = Params::default();
        let table = compute_params(&g, &st, &nodes, &active);
        let acd = compute_acd(&g, &nodes, &active, &table, &p);
        let vs = identify_vstart(&g, &st, &acd, &table, &active, &p);
        // Bipartite graph: all nodes sparse (zero triangles → high ζ).
        assert_eq!(acd.sparse_nodes().len(), 10);
        // With 4 neighbors all sharing a 5-color palette, every color has
        // H(c) = 4/5 < 1 (not heavy) — heavy set empty; but each node is
        // "balanced" (regular), so easy and not start.
        assert!(vs.start.is_empty());
    }
}

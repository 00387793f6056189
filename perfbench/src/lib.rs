//! Measurement code of the repository benchmark.
//!
//! The benchmark times the `parcolor solve` path in process —
//! `load_graph` → `instance_of` → `Solver::solve` → `write_coloring` —
//! on three generated workloads, and checks every coloring.  A separate
//! traced pass times the public entry points of each layer from the
//! outside: seed search through a wrapping [`SeedSearcher`], and the
//! preprocessing layers (node parameters, ACD, Vstart, partition) by
//! calling them directly on the input the solve hands them.  Nothing in
//! the library is instrumented; every span here sits around a call into
//! a public item.
//!
//! `run.py` next to this crate drives the binary and prints the result.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parcolor_cli::{instance_of, load_graph, pcg::write_pcg, write_coloring};
use parcolor_core::framework::{BlockEval, LocalSeedSearcher, SeedSearcher, SimScratch};
use parcolor_core::hknt::acd::compute_acd;
use parcolor_core::hknt::vstart::identify_vstart;
use parcolor_core::node_params::compute_params;
use parcolor_core::reduce::low_space_partition;
use parcolor_core::{
    ColoringState, D1lcInstance, Graph, NodeId, Params, SeedSelection, SeedStrategy, Solution,
    Solver,
};
use parcolor_graphgen as gen;

/// One benchmark workload: a graph family at a fixed size plus the
/// solver parameters it runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `gnm` n = 10^6, m = 4·10^6 with `parcolor solve`'s own params.
    SparseGnm,
    /// `power_law` n = 3·10^5, γ = 2.5, average degree 8 with the CLI
    /// params; the only workload whose Δ forces LowSpaceColorReduce.
    PowerlawPartition,
    /// `gnm` n = 10^5, m = 4·10^5 with `Params::default()`'s exhaustive
    /// search over all 2^10 seeds per step.
    ExhaustiveSearch,
}

/// Every workload, in the order the benchmark documents them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::SparseGnm,
    Workload::PowerlawPartition,
    Workload::ExhaustiveSearch,
];

/// Input size: the benchmark's sizes, or a few thousand nodes for the
/// self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A few thousand nodes per workload.
    Tiny,
}

impl Size {
    /// Parse `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

impl Workload {
    /// Look a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseGnm => "sparse_gnm",
            Workload::PowerlawPartition => "powerlaw_partition",
            Workload::ExhaustiveSearch => "exhaustive_search",
        }
    }

    /// Generate the workload graph from `seed`.
    pub fn generate(self, size: Size, seed: u64) -> Graph {
        match (self, size) {
            (Workload::SparseGnm, Size::Full) => gen::gnm(1_000_000, 4_000_000, seed),
            (Workload::SparseGnm, Size::Tiny) => gen::gnm(4_000, 16_000, seed),
            (Workload::PowerlawPartition, Size::Full) => gen::power_law(300_000, 2.5, 8.0, seed),
            (Workload::PowerlawPartition, Size::Tiny) => gen::power_law(5_000, 2.5, 8.0, seed),
            (Workload::ExhaustiveSearch, Size::Full) => gen::gnm(100_000, 400_000, seed),
            (Workload::ExhaustiveSearch, Size::Tiny) => gen::gnm(2_000, 8_000, seed),
        }
    }

    /// Solver parameters: `parcolor solve`'s defaults (2^6 seed bits,
    /// `FixedSubset(16)`, auto workers) or, for `exhaustive_search`,
    /// `Params::default()` with one worker per hardware thread.
    pub fn params(self) -> Params {
        match self {
            Workload::SparseGnm | Workload::PowerlawPartition => Params::default()
                .with_seed_bits(6)
                .with_strategy(SeedStrategy::FixedSubset(16))
                .with_workers(0),
            Workload::ExhaustiveSearch => Params::default().with_workers(host_threads()),
        }
    }
}

/// Hardware threads of this host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// FNV-1a over the color vector — the hash the golden tests pin.
pub fn coloring_hash(colors: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &c in colors {
        h ^= c as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generate the workload graph and write it as `.pcg`: the benchmark's
/// set-up.  Returns the graph so callers can report its shape.
pub fn setup(workload: Workload, size: Size, seed: u64, pcg: &Path) -> Result<Graph, String> {
    let g = workload.generate(size, seed);
    let f = File::create(pcg).map_err(|e| format!("cannot create {}: {e}", pcg.display()))?;
    let mut w = BufWriter::new(f);
    write_pcg(&mut w, &g)
        .and_then(|_| w.flush())
        .map_err(|e| format!("cannot write {}: {e}", pcg.display()))?;
    Ok(g)
}

/// One pass over the `parcolor solve` path, with its phase times.
pub struct PathRun {
    /// The instance the solve ran on (kept for checking).
    pub inst: D1lcInstance,
    /// The solver's output.
    pub solution: Solution,
    /// `load_graph`.
    pub load: Duration,
    /// `instance_of`.
    pub instance: Duration,
    /// `Solver::solve` (which verifies before returning).
    pub solve: Duration,
    /// `write_coloring` into a buffered file, flushed.
    pub write: Duration,
}

impl PathRun {
    /// Wall time of the whole path.
    pub fn total(&self) -> Duration {
        self.load + self.instance + self.solve + self.write
    }
}

/// Run the `parcolor solve` path: open `pcg`, solve, write the coloring
/// to `out`.
pub fn run_path(pcg: &Path, out: &Path, solver: &Solver) -> Result<PathRun, String> {
    let t = Instant::now();
    let g = load_graph(pcg.to_str().ok_or("non-UTF-8 input path")?)?;
    let load = t.elapsed();

    let t = Instant::now();
    let inst = instance_of(g);
    let instance = t.elapsed();

    let t = Instant::now();
    let solution = solver.solve(&inst);
    let solve = t.elapsed();

    let t = Instant::now();
    let f = File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut w = BufWriter::new(f);
    write_coloring(&mut w, &solution.colors)
        .and_then(|_| w.flush())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    drop(w);
    let write = t.elapsed();

    Ok(PathRun {
        inst,
        solution,
        load,
        instance,
        solve,
        write,
    })
}

/// Check a finished run: the coloring must pass `verify_coloring`.
/// Returns the coloring hash.
pub fn check(run: &PathRun) -> Result<u64, String> {
    run.inst.verify_coloring(&run.solution.colors)?;
    Ok(coloring_hash(&run.solution.colors))
}

/// Totals a [`TracingSearcher`] accumulated.
#[derive(Clone, Debug, Default)]
pub struct SearchTrace {
    /// Calls to `select`.
    pub searches: u64,
    /// Wall time inside `select`, summed.
    pub search_s: f64,
    /// Sum of `SeedSelection::evaluated`.
    pub seeds_evaluated: u64,
    /// Calls of the block evaluator.
    pub blocks: u64,
    /// Time inside the block evaluator, summed across workers.
    pub block_busy_s: f64,
    /// Σ search wall × workers the search was given.
    pub capacity_s: f64,
    /// Σ cost of the chosen seed.
    pub chosen_cost: f64,
    /// Σ mean cost over the evaluated seeds.
    pub mean_cost: f64,
}

/// A [`SeedSearcher`] that runs [`LocalSeedSearcher`] and records how
/// long each search and each block evaluation took.  It hands the
/// inner searcher the same arguments, so it selects the same seeds.
#[derive(Default)]
pub struct TracingSearcher {
    searches: AtomicU64,
    search_ns: AtomicU64,
    evaluated: AtomicU64,
    blocks: AtomicU64,
    busy_ns: AtomicU64,
    capacity_ns: AtomicU64,
    costs: Mutex<(f64, f64)>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl TracingSearcher {
    /// The totals so far.
    pub fn snapshot(&self) -> SearchTrace {
        let (chosen_cost, mean_cost) = *self.costs.lock().expect("cost totals poisoned");
        SearchTrace {
            searches: self.searches.load(Relaxed),
            search_s: self.search_ns.load(Relaxed) as f64 * 1e-9,
            seeds_evaluated: self.evaluated.load(Relaxed),
            blocks: self.blocks.load(Relaxed),
            block_busy_s: self.busy_ns.load(Relaxed) as f64 * 1e-9,
            capacity_s: self.capacity_ns.load(Relaxed) as f64 * 1e-9,
            chosen_cost,
            mean_cost,
        }
    }
}

impl SeedSearcher for TracingSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        let timed_block = |seed0: u64, costs: &mut [f64], scratch: &mut SimScratch| {
            let t = Instant::now();
            eval_block(seed0, costs, scratch);
            self.busy_ns.fetch_add(nanos(t.elapsed()), Relaxed);
            self.blocks.fetch_add(1, Relaxed);
        };
        let t = Instant::now();
        let sel = LocalSeedSearcher.select(seed_bits, strategy, workers, n, &timed_block);
        let wall = t.elapsed();
        let pool = parcolor_exec::resolve_workers(workers) as u64;
        self.searches.fetch_add(1, Relaxed);
        self.search_ns.fetch_add(nanos(wall), Relaxed);
        self.capacity_ns.fetch_add(nanos(wall) * pool, Relaxed);
        self.evaluated.fetch_add(sel.evaluated, Relaxed);
        let mut costs = self.costs.lock().expect("cost totals poisoned");
        costs.0 += sel.cost;
        costs.1 += sel.mean_cost;
        sel
    }
}

/// A traced run of the path: the phase times plus the seed-search
/// totals of this one solve.
pub struct TracedRun {
    /// The path run (phase times, instance, solution).
    pub run: PathRun,
    /// Seed-search totals of the solve.
    pub search: SearchTrace,
}

/// Run the path once with every seed search routed through a fresh
/// [`TracingSearcher`].
pub fn run_traced(pcg: &Path, out: &Path, params: &Params) -> Result<TracedRun, String> {
    let searcher = Arc::new(TracingSearcher::default());
    let solver = Solver::deterministic(params.clone()).with_seed_searcher(searcher.clone());
    let run = run_path(pcg, out, &solver)?;
    Ok(TracedRun {
        run,
        search: searcher.snapshot(),
    })
}

/// The input of the solve's first ColorMiddle stage, rebuilt from the
/// public `Params` schedule.
pub struct Stage<'a> {
    /// The instance the stage runs on: the input itself, or a
    /// sub-instance of the partition (a bin or `G_mid`).
    pub inst: Cow<'a, D1lcInstance>,
    /// The stage's nodes: uncolored nodes above a range floor.
    pub nodes: Vec<NodeId>,
    /// Whether `inst` is the top-level input (no partition ran first).
    pub top_level: bool,
}

/// Rebuild the input the solve's first ColorMiddle received, given the
/// solve's final `colors`.
///
/// Mirrors `Solver::solve`'s walk.  While Δ exceeds the mid-degree
/// threshold the solver partitions, then recurses into the restricted
/// bins in bin order, then the last bin, then `G_mid`.  The last bin and
/// `G_mid` see the palettes left by the colors chosen before them; a
/// colored node never changes color, so those are its final colors.  On
/// a sub-instance within the threshold the first stage runs on the
/// nodes whose degree exceeds the highest range floor that leaves more
/// than `greedy_cutoff` of them.
/// `None` means the solve ran no ColorMiddle.
pub fn first_stage<'a>(
    inst: &'a D1lcInstance,
    params: &Params,
    colors: &[u32],
) -> Option<Stage<'a>> {
    first_stage_in(Cow::Borrowed(inst), colors, params, inst.n().max(2), true)
}

fn first_stage_in<'a>(
    inst: Cow<'a, D1lcInstance>,
    colors: &[u32],
    params: &Params,
    n_orig: usize,
    top_level: bool,
) -> Option<Stage<'a>> {
    let threshold = params.mid_degree_threshold(n_orig);
    if inst.graph.max_degree() <= threshold {
        return mid_stage(inst, params, n_orig, top_level);
    }
    let mut state = ColoringState::new(&inst);
    let g = &inst.graph;
    let bins = params.partition_bins(n_orig);
    let part = low_space_partition(g, &state, &state.uncolored_nodes(), threshold, bins, 256);
    let sub_colors =
        |map: &[NodeId]| -> Vec<u32> { map.iter().map(|&v| colors[v as usize]).collect() };
    let adopt = |state: &mut ColoringState, nodes: &[NodeId]| {
        let adoptions: Vec<(NodeId, u32)> = nodes
            .iter()
            .filter(|&&v| !state.is_colored(v))
            .map(|&v| (v, colors[v as usize]))
            .collect();
        state.apply_adoptions(g, &adoptions);
    };

    for (b, nodes) in part.bins.iter().take(bins - 1).enumerate() {
        if nodes.is_empty() {
            continue;
        }
        let (sub, map) = state
            .restricted_instance(g, nodes, |c| part.color_hash.eval(c as u64) as usize == b)
            .ok()?;
        let found = first_stage_in(Cow::Owned(sub), &sub_colors(&map), params, n_orig, false);
        if found.is_some() {
            return found;
        }
    }
    for nodes in &part.bins[..bins - 1] {
        adopt(&mut state, nodes);
    }
    let uncolored = |state: &ColoringState, nodes: &[NodeId]| -> Vec<NodeId> {
        nodes
            .iter()
            .copied()
            .filter(|&v| !state.is_colored(v))
            .collect()
    };
    let last = uncolored(&state, &part.bins[bins - 1]);
    if !last.is_empty() {
        let (sub, map) = state.residual_instance(g, &last);
        let found = first_stage_in(Cow::Owned(sub), &sub_colors(&map), params, n_orig, false);
        if found.is_some() {
            return found;
        }
        adopt(&mut state, &last);
    }
    // `G_mid` goes straight to the mid-degree stage, without partitioning.
    let mid = uncolored(&state, &part.mid);
    if mid.is_empty() {
        return None;
    }
    let (sub, _) = state.residual_instance(g, &mid);
    mid_stage(Cow::Owned(sub), params, n_orig, false)
}

/// The first stage of `mid_degree_color` on `inst`: nothing is colored
/// before it, so the first range whose high-degree set exceeds the
/// greedy cutoff runs it.
fn mid_stage<'a>(
    inst: Cow<'a, D1lcInstance>,
    params: &Params,
    n_orig: usize,
    top_level: bool,
) -> Option<Stage<'a>> {
    let state = ColoringState::new(&inst);
    let nodes = range_floors(params, n_orig).into_iter().find_map(|floor| {
        let high: Vec<NodeId> = state
            .uncolored_nodes()
            .into_iter()
            .filter(|&v| state.uncolored_degree(v) > floor)
            .collect();
        (high.len() > params.greedy_cutoff).then_some(high)
    })?;
    Some(Stage {
        inst,
        nodes,
        top_level,
    })
}

/// The degree-range floors of the mid-degree stage, highest first: the
/// low-degree threshold of `n`, then the threshold of each floor in turn.
fn range_floors(params: &Params, n_orig: usize) -> Vec<usize> {
    let mut floors = Vec::new();
    let mut t = params.low_degree_threshold(n_orig);
    loop {
        floors.push(t);
        if !params.multi_range || t <= 8 {
            break;
        }
        let next = params.low_degree_threshold(t);
        if next >= t {
            break;
        }
        t = next;
    }
    floors
}

/// Per-layer numbers of the preprocessing layers on one stage input.
#[derive(Clone, Debug, Default)]
pub struct StageTrace {
    /// Nodes in the stage.
    pub nodes: usize,
    /// `compute_params`.
    pub node_params_s: f64,
    /// Σ_{v ∈ stage} Σ_{u ∈ N(v)} d(u) — the Σd² term of node parameters.
    pub two_hop_work: u64,
    /// `compute_acd`.
    pub acd_s: f64,
    /// Almost-cliques the ACD found.
    pub acd_cliques: usize,
    /// `identify_vstart`.
    pub vstart_s: f64,
    /// `|Vstart|`.
    pub vstart_nodes: usize,
}

/// Time node parameters, the ACD and Vstart on a stage input, in the
/// order ColorMiddle calls them.
pub fn trace_stage(stage: &Stage, params: &Params) -> StageTrace {
    let g = &stage.inst.graph;
    let state = ColoringState::new(&stage.inst);
    let mut active = vec![false; g.n()];
    for &v in &stage.nodes {
        active[v as usize] = true;
    }
    let two_hop_work = stage
        .nodes
        .iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .map(|&u| g.degree(u) as u64)
                .sum::<u64>()
        })
        .sum();

    let t = Instant::now();
    let table = compute_params(g, &state, &stage.nodes, &active);
    let node_params_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let acd = compute_acd(g, &stage.nodes, &active, &table, params);
    let acd_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let vs = identify_vstart(g, &state, &acd, &table, &active, params);
    let vstart_s = t.elapsed().as_secs_f64();

    StageTrace {
        nodes: stage.nodes.len(),
        node_params_s,
        two_hop_work,
        acd_s,
        acd_cliques: acd.cliques.len(),
        vstart_s,
        vstart_nodes: vs.start.len(),
    }
}

/// Time one `low_space_partition` level on the top-level input, with the
/// threshold and bin count the solver would use.
pub fn time_partition(inst: &D1lcInstance, params: &Params) -> f64 {
    let n_orig = inst.n().max(2);
    let state = ColoringState::new(inst);
    let nodes = state.uncolored_nodes();
    let t = Instant::now();
    let part = low_space_partition(
        &inst.graph,
        &state,
        &nodes,
        params.mid_degree_threshold(n_orig),
        params.partition_bins(n_orig),
        256,
    );
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(part);
    s
}

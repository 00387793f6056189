//! E6 — seed-selection strategies compared on the same procedure: the
//! exhaustive argmin, the bitwise method of conditional expectations
//! (the paper's MPC implementation), the deterministic fixed-subset
//! surrogate, and an unoptimized single seed.
//!
//! Two matrices follow, each asserting bit-identity across worker counts:
//! the sharded seed search at `seed_bits = 16` and the node-striped round
//! simulation.  Both land in `BENCH_seed_search.json`.

use parcolor_bench::{f1, f2, s, scaled, timed, Table};
use parcolor_core::framework::{NormalProcedure, SimScratch};
use parcolor_core::hknt::procs::{SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::{D1lcInstance, NodeId};
use parcolor_graphgen::gnm;
use parcolor_local::tape::Randomness;
use parcolor_prg::{select_seed_blocks_n, ChunkAssignment, Prg, SeedStrategy, SEED_BLOCK};

fn main() {
    println!("# E6: seed-selection strategies (one TryRandomColor step)\n");
    let n = scaled(4_000, 800);
    let g = gnm(n, n * 4, 5);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);

    let seed_bits = 10;
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;

    let mut t = Table::new(&[
        "strategy",
        "seeds evaluated",
        "chosen failures",
        "space mean",
        "space min",
        "guarantee",
        "ms",
    ]);
    for (name, strat) in [
        ("Exhaustive", SeedStrategy::Exhaustive),
        ("BitwiseCondExp", SeedStrategy::BitwiseCondExp),
        ("FixedSubset(32)", SeedStrategy::FixedSubset(32)),
        ("FixedSubset(8)", SeedStrategy::FixedSubset(8)),
        ("SingleSeed(0)", SeedStrategy::SingleSeed(0)),
    ] {
        let (sel, ms) = timed(|| {
            select_seed_blocks_n(
                seed_bits,
                strat,
                0,
                || SimScratch::new(n),
                |seed0, costs, scratch| {
                    let tapes = prg.block_tapes(seed0, &chunks);
                    let refs: [&dyn Randomness; SEED_BLOCK] =
                        std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                    proc.seed_cost_block(&state, &refs[..costs.len()], scratch, costs);
                },
            )
        });
        t.row(&[
            s(name),
            s(sel.evaluated),
            f1(sel.cost),
            f2(sel.mean_cost),
            f1(sel.min_cost),
            s(if sel.satisfies_guarantee() {
                "OK"
            } else {
                "n/a"
            }),
            f1(ms),
        ]);
    }
    t.print();
    println!("\nBitwiseCondExp must land at or below the mean (Lemma 10); Exhaustive");
    println!("gives the floor; FixedSubset trades a little quality for throughput.");

    let worker_rows = workers_matrix();
    let engine_rows = engine_parallel_matrix();
    write_seed_search_json(&worker_rows, &engine_rows);
}

/// Node-striped parallel round simulation: one `TryRandomColor` round on
/// a large instance, evaluated through `simulate_into` at `workers ∈
/// {1, 2, 4, 8}`.  The adoptions MUST be identical at every worker count
/// (positional splice of pure stripes) — asserted here, so CI fails if
/// striping ever changes a round outcome.
fn engine_parallel_matrix() -> Vec<String> {
    use parcolor_local::tape::CryptoTape;
    let n = scaled(400_000, 40_000);
    let g = gnm(n, n * 6, 11);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Auto, 5);
    let tape = CryptoTape::new(0xE6E6);
    let reps = scaled(20, 4);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n# Node-striped round simulation, workers matrix (n = {n}, m = {}, \
         {reps} rounds, host threads = {host_threads})",
        g.m()
    );
    let mut t = Table::new(&["workers", "ms", "speedup vs 1", "adoptions"]);
    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    let mut reference: Option<Vec<(NodeId, u32)>> = None;
    let pool = parcolor_exec::Executor::global();
    for workers in [1usize, 2, 4, 8] {
        let mut scratch = SimScratch::new(n);
        // Warm-up evaluates once outside the timing (pool spawn, page
        // faults, arena growth).
        proc.simulate_into(&state, &tape, &mut scratch, pool, workers);
        let (_, ms) = timed(|| {
            for _ in 0..reps {
                proc.simulate_into(&state, &tape, &mut scratch, pool, workers);
            }
        });
        match &reference {
            None => {
                base_ms = ms;
                reference = Some(scratch.adoptions.clone());
            }
            Some(adoptions) => {
                assert_eq!(
                    &scratch.adoptions, adoptions,
                    "workers = {workers}: striped simulation changed the round outcome"
                );
            }
        }
        let scaling = base_ms / ms.max(1e-9);
        t.row(&[s(workers), f1(ms), f2(scaling), s(scratch.adoptions.len())]);
        rows.push(format!(
            "    {{\"workers\": {workers}, \"ms\": {ms:.1}, \"speedup_vs_1\": {scaling:.2}, \
             \"host_threads\": {host_threads}}}"
        ));
    }
    t.print();
    println!("\nIdentical adoptions at every worker count (asserted).");
    rows
}

/// Sharded seed search: the same block search at `workers ∈ {1, 2, 4, 8}`.
/// The chosen seed/cost MUST be identical at every worker count (the
/// stolen-block fold is grouping-invariant) — this function asserts it,
/// which is what fails CI if sharding ever changes a selection.
fn workers_matrix() -> Vec<String> {
    let seed_bits = 16u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n# Sharded seed search, workers matrix (seed_bits = {seed_bits}, n = {n}, \
         m = {}, host threads = {host_threads})",
        g.m()
    );
    let mut t = Table::new(&["workers", "ms", "speedup vs 1", "chosen seed", "cost"]);
    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    let mut reference: Option<(u64, f64)> = None;
    for workers in [1usize, 2, 4, 8] {
        let (sel, ms) = timed(|| {
            select_seed_blocks_n(
                seed_bits,
                SeedStrategy::Exhaustive,
                workers,
                || SimScratch::new(n),
                |seed0, costs, scratch| {
                    let tapes = prg.block_tapes(seed0, &chunks);
                    let refs: [&dyn Randomness; SEED_BLOCK] =
                        std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                    proc.seed_cost_block(&state, &refs[..costs.len()], scratch, costs);
                },
            )
        });
        match reference {
            None => {
                base_ms = ms;
                reference = Some((sel.seed, sel.cost));
            }
            Some((seed, cost)) => {
                assert_eq!(
                    (seed, cost),
                    (sel.seed, sel.cost),
                    "workers = {workers}: sharded seed search changed the selection"
                );
            }
        }
        let scaling = base_ms / ms.max(1e-9);
        t.row(&[s(workers), f1(ms), f2(scaling), s(sel.seed), f1(sel.cost)]);
        rows.push(format!(
            "    {{\"workers\": {workers}, \"ms\": {ms:.1}, \"speedup_vs_1\": {scaling:.2}, \
             \"chosen_seed\": {}, \"chosen_cost\": {}, \"host_threads\": {host_threads}}}",
            sel.seed, sel.cost
        ));
    }
    t.print();
    println!("\nIdentical chosen seed/cost at every worker count (asserted).");
    rows
}

fn write_seed_search_json(workers: &[String], engine: &[String]) {
    let json = format!(
        "{{\n  \"experiment\": \"e6_seed_search_fastpath\",\n  \"simd_path\": \"{}\",\n  \
         \"workers_matrix\": [\n{}\n  ],\n  \
         \"engine_parallel\": [\n{}\n  ]\n}}\n",
        parcolor_core::simd::active_path(),
        workers.join(",\n"),
        engine.join(",\n")
    );
    match std::fs::write("BENCH_seed_search.json", &json) {
        Ok(()) => println!("\nwrote BENCH_seed_search.json"),
        Err(e) => eprintln!("\ncannot write BENCH_seed_search.json: {e}"),
    }
}

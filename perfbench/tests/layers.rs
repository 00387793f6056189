//! Self-tests of the benchmark's measurement code, on the tiny sizes.

use parcolor_cli::instance_of;
use parcolor_core::{D1lcInstance, Solution, Solver};
use parcolor_perfbench::{
    first_stage, run_path, run_traced, setup, trace_stage, Size, Workload, WORKLOADS,
};

fn solve(w: Workload, seed: u64) -> (D1lcInstance, Solution) {
    let inst = instance_of(w.generate(Size::Tiny, seed));
    let sol = Solver::deterministic(w.params()).solve(&inst);
    (inst, sol)
}

#[test]
fn rebuilt_first_stage_is_the_one_the_solve_ran() {
    for w in WORKLOADS {
        for seed in [1, 2] {
            let (inst, sol) = solve(w, seed);
            let stage = first_stage(&inst, &w.params(), &sol.colors)
                .unwrap_or_else(|| panic!("{}: no stage rebuilt", w.name()));
            let ran = sol.stats.mid_reports.first().map(|r| r.stage_size);
            assert_eq!(Some(stage.nodes.len()), ran, "{} seed {seed}", w.name());
            // Only the partition workload hands its first stage a
            // sub-instance; the gnm workloads run it on the input itself.
            assert_eq!(
                stage.top_level,
                w != Workload::PowerlawPartition,
                "{}",
                w.name()
            );
            let layers = trace_stage(&stage, &w.params());
            assert_eq!(layers.nodes, stage.nodes.len());
            assert!(layers.two_hop_work > 0);
        }
    }
}

#[test]
fn traced_solve_selects_the_untraced_coloring() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-layers");
    std::fs::create_dir_all(&dir).unwrap();
    for w in WORKLOADS {
        let pcg = dir.join(format!("{}.pcg", w.name()));
        let out = dir.join(format!("{}.coloring", w.name()));
        setup(w, Size::Tiny, 4, &pcg).unwrap();
        let plain = run_path(&pcg, &out, &Solver::deterministic(w.params())).unwrap();
        let traced = run_traced(&pcg, &out, &w.params()).unwrap();
        assert_eq!(
            plain.solution.colors,
            traced.run.solution.colors,
            "{}",
            w.name()
        );
        let steps = traced.run.solution.stats.steps.len() as u64;
        assert_eq!(traced.search.searches, steps, "{}", w.name());
        assert!(traced.search.blocks > 0 && traced.search.seeds_evaluated > 0);
        assert!(traced.search.block_busy_s <= traced.search.capacity_s * 1.05);
    }
}

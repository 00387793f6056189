//! `perfbench` — the measuring binary behind `run.py`.
//!
//! ```text
//! perfbench setup --workload W --seed S --dir D [--size full|tiny]
//! perfbench solve --workload W --seed S --dir D --seconds T [--size full|tiny]
//! perfbench trace --workload W --seed S --dir D --seconds T [--size full|tiny]
//! ```
//!
//! * `setup` generates the workload graph and writes `D/<W>-<S>-<size>.pcg`.
//! * `solve` runs the `parcolor solve` path on that file in a closed loop
//!   (one solve at a time) until `T` seconds and at least three solves
//!   have passed, checking every coloring.
//! * `trace` alternates an untraced and a traced solve while the next
//!   pair still fits in `T` seconds (at least one pair), then times each
//!   layer's public entry point once.
//!
//! Each mode prints one JSON object as its last line of standard output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use parcolor_core::baselines::{colors_used, greedy_sequential};
use parcolor_core::Solver;
use parcolor_perfbench::{
    check, first_stage, host_threads, run_path, run_traced, setup, time_partition, trace_stage,
    PathRun, Size, Workload,
};

/// Fewest solves an untraced run times, however long they take, so that
/// `solve_s` is always a median of at least three.
const MIN_SOLVES: u64 = 3;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    size: Size,
    dir: PathBuf,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().cloned().ok_or("missing mode")?;
    if !["setup", "solve", "trace"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode}"));
    }
    let (mut workload, mut seed, mut size, mut dir, mut seconds) =
        (None, None, Size::Full, None, 0.0);
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--size" => size = Size::parse(value).ok_or(format!("bad size {value}"))?,
            "--dir" => dir = Some(PathBuf::from(value)),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        size,
        dir: dir.ok_or("missing --dir")?,
        seconds,
    })
}

/// A flat JSON object written field by field.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.0.push(format!("\"{key}\": {v}"));
        self
    }
    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push(format!("\"{key}\": {v}"));
        self
    }
    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push(format!("\"{key}\": \"{v}\""));
        self
    }
    fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }
    fn strs(&mut self, key: &str, vs: &[String]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("\"{v}\"")).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }
    /// `{"name": {"value": v, "unit": u}}` entries, as the result's
    /// `metrics` object holds them.
    fn metric(&mut self, name: &str, v: f64, unit: &str) -> &mut Self {
        assert!(v.is_finite(), "{name} is not finite: {v}");
        self.0.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
        self
    }
    fn object(&mut self, key: &str, inner: &Json) -> &mut Self {
        self.0.push(format!("\"{key}\": {}", inner.render()));
        self
    }
    fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    assert!(k > 0, "median of nothing");
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Solve outcomes of one process: attempts, hashes of checked colorings,
/// and a note per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    hashes: Vec<String>,
    failures: Vec<String>,
}

impl Tally {
    /// Run one solve under `catch_unwind` and check it; a panic, an I/O
    /// error or a coloring that fails `verify_coloring` is a failure.
    fn attempt<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
        run_of: impl Fn(&T) -> &PathRun,
    ) -> Option<T> {
        self.attempted += 1;
        let out = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => match check(run_of(&r)) {
                Ok(h) => {
                    self.hashes.push(format!("{h:016x}"));
                    return Some(r);
                }
                Err(e) => format!("{what}: invalid coloring: {e}"),
            },
            Ok(Err(e)) => format!("{what}: {e}"),
            Err(_) => format!("{what}: panicked"),
        };
        eprintln!("perfbench: {out}");
        self.failures.push(out);
        None
    }

    fn write(&self, j: &mut Json) {
        j.int("attempted", self.attempted)
            .strs("hashes", &self.hashes)
            .strs("failures", &self.failures);
    }
}

fn context(j: &mut Json, args: &Args, workers: usize) {
    j.str("workload", args.workload.name())
        .int("seed", args.seed)
        .int("host_threads", host_threads() as u64)
        .int("workers", parcolor_exec::resolve_workers(workers) as u64)
        .str("simd_path", parcolor_core::simd::active_path().name());
}

fn paths(args: &Args) -> (PathBuf, PathBuf) {
    let size = match args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let stem = format!("{}-{}-{size}", args.workload.name(), args.seed);
    (
        args.dir.join(format!("{stem}.pcg")),
        args.dir.join(format!("{stem}.coloring")),
    )
}

fn cmd_setup(args: &Args) -> Result<Json, String> {
    let (pcg, _) = paths(args);
    let t = Instant::now();
    let g = setup(args.workload, args.size, args.seed, &pcg)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut j = Json::default();
    j.num("setup_s", setup_s)
        .int("n", g.n() as u64)
        .int("m", g.m() as u64)
        .int("max_degree", g.max_degree() as u64);
    Ok(j)
}

fn cmd_solve(args: &Args) -> Result<Json, String> {
    let (pcg, out) = paths(args);
    let params = args.workload.params();
    let solver = Solver::deterministic(params.clone());
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut result = Json::default();
    let start = Instant::now();
    loop {
        if let Some(run) = tally.attempt("solve", || run_path(&pcg, &out, &solver), |r| r) {
            samples.push(run.total().as_secs_f64());
            if samples.len() == 1 {
                // The first solve's peak is what one `parcolor solve`
                // process reaches; later solves add allocator reuse.
                let cost = run.solution.cost;
                result
                    .num(
                        "peak_rss_mb",
                        parcolor_bench::peak_rss() as f64 / (1024.0 * 1024.0),
                    )
                    .int("colors_used", colors_used(&run.solution.colors) as u64)
                    .int("mpc_rounds", cost.mpc_rounds)
                    .int("local_rounds", cost.local_rounds)
                    .int("max_machine_words", cost.max_machine_words);
            }
        }
        if tally.attempted >= MIN_SOLVES && start.elapsed() >= Duration::from_secs_f64(args.seconds)
        {
            break;
        }
    }
    let mut j = Json::default();
    context(&mut j, args, params.workers);
    tally.write(&mut j);
    j.nums("solve_s", &samples);
    j.0.extend(result.0);
    Ok(j)
}

fn cmd_trace(args: &Args) -> Result<Json, String> {
    let (pcg, out) = paths(args);
    let params = args.workload.params();
    let solver = Solver::deterministic(params.clone());
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Medians over the traced solves of every timed quantity.
    let (mut load, mut instance, mut write) = (vec![], vec![], vec![]);
    let (mut search, mut busy, mut util, mut share, mut outside) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    // Pairs run while the next one still fits in `seconds` (at least one).
    let start = Instant::now();
    loop {
        let pair = Instant::now();
        if let Some(run) = tally.attempt("untraced solve", || run_path(&pcg, &out, &solver), |r| r)
        {
            untraced.push(run.total().as_secs_f64());
        }
        if let Some(t) = tally.attempt(
            "traced solve",
            || run_traced(&pcg, &out, &params),
            |t| &t.run,
        ) {
            let solve_s = t.run.solve.as_secs_f64();
            traced.push(t.run.total().as_secs_f64());
            load.push(t.run.load.as_secs_f64());
            instance.push(t.run.instance.as_secs_f64());
            write.push(t.run.write.as_secs_f64());
            search.push(t.search.search_s);
            busy.push(t.search.block_busy_s);
            util.push(ratio(t.search.block_busy_s, t.search.capacity_s));
            share.push(ratio(t.search.search_s, solve_s));
            outside.push(solve_s - t.search.search_s);
            last = Some(t);
        }
        if start.elapsed() + pair.elapsed() > Duration::from_secs_f64(args.seconds) {
            break;
        }
    }
    let mut m = Json::default();
    let mut j = Json::default();
    context(&mut j, args, params.workers);
    if let (Some(t), false) = (last, untraced.is_empty()) {
        let sol = &t.run.solution;
        let stats = &sol.stats;
        let (active, adopted, failures) = stats.steps.iter().fold((0, 0, 0), |a, s| {
            (a.0 + s.active, a.1 + s.adopted, a.2 + s.failures)
        });

        // The rebuilt first-stage input must be the one the solve used.
        let stage = first_stage(&t.run.inst, &params, &sol.colors);
        let ran = stats.mid_reports.first().map(|r| r.stage_size);
        if ran != stage.as_ref().map(|s| s.nodes.len()) {
            let note = format!(
                "rebuilt first stage has {:?} nodes, the solve's had {ran:?}",
                stage.as_ref().map(|s| s.nodes.len())
            );
            eprintln!("perfbench: {note}");
            tally.failures.push(note);
        }
        let layers = stage
            .as_ref()
            .map(|s| trace_stage(s, &params))
            .unwrap_or_default();
        let partition_s = time_partition(&t.run.inst, &params);

        // `attempt` already verified this coloring; this call is timed.
        let tv = Instant::now();
        std::hint::black_box(t.run.inst.verify_coloring(&sol.colors).is_ok());
        let verify_s = tv.elapsed().as_secs_f64();
        let tg = Instant::now();
        let (_, greedy) = greedy_sequential(&t.run.inst);
        let greedy_s = tg.elapsed().as_secs_f64();

        let traced_s = median(&traced);
        let untraced_s = median(&untraced);
        m.metric("load_s", median(&load), "s")
            .metric("instance_s", median(&instance), "s")
            .metric("write_s", median(&write), "s")
            .metric("seed_search_s", median(&search), "s")
            .metric("seed_searches", t.search.searches as f64, "count")
            .metric("seeds_evaluated", t.search.seeds_evaluated as f64, "count")
            .metric("seed_blocks", t.search.blocks as f64, "count")
            .metric("seed_block_busy_s", median(&busy), "s")
            .metric("seed_pool_utilization", median(&util), "ratio")
            .metric("seed_search_share", median(&share), "ratio")
            .metric("outside_search_s", median(&outside), "s")
            .metric(
                "chosen_to_mean_cost",
                ratio(t.search.chosen_cost, t.search.mean_cost),
                "ratio",
            )
            .metric("steps", stats.steps.len() as f64, "count")
            .metric("ssp_failures", failures as f64, "count")
            .metric(
                "adopted_per_active",
                ratio(adopted as f64, active as f64),
                "ratio",
            )
            .metric("node_params_s", layers.node_params_s, "s")
            .metric("node_params_nodes", layers.nodes as f64, "count")
            .metric("two_hop_work", layers.two_hop_work as f64, "count")
            .metric("acd_s", layers.acd_s, "s")
            .metric("acd_cliques", layers.acd_cliques as f64, "count")
            .metric("vstart_s", layers.vstart_s, "s")
            .metric("vstart_nodes", layers.vstart_nodes as f64, "count")
            .metric("partition_s", partition_s, "s")
            .metric("partitions", stats.partitions as f64, "count")
            .metric("partition_depth", stats.max_partition_depth as f64, "count")
            .metric("lowdeg_nodes", stats.lowdeg_finished as f64, "count")
            .metric(
                "greedy_finished_nodes",
                stats.greedy_finished as f64,
                "count",
            )
            .metric("verify_s", verify_s, "s")
            .metric(
                "budget_violations",
                sol.cost.budget_violations as f64,
                "count",
            )
            .metric("greedy_s", greedy_s, "s")
            .metric("greedy_colors", greedy.distinct_colors as f64, "count")
            .metric(
                "tracing_overhead_frac",
                (traced_s - untraced_s) / untraced_s,
                "ratio",
            );
        j.num("untraced_s", untraced_s).num("traced_s", traced_s);
    }
    tally.write(&mut j);
    j.object("metrics", &m);
    Ok(j)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.dir.display());
        exit(1);
    }
    let result = match args.mode.as_str() {
        "setup" => cmd_setup(&args),
        "solve" => cmd_solve(&args),
        _ => cmd_trace(&args),
    };
    match result {
        Ok(j) => println!("{}", j.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}

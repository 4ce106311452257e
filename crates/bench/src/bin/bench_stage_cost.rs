//! Stage-pricing throughput benchmark: how many continuous-batching
//! stages per second can the executor price for the shape classes that
//! dominate the paper's sweeps?
//!
//! Two pricing paths are measured for each class:
//!
//! * **full** — `SystemExecutor::stage_cost(&StageShape)`: the grouped
//!   one-shot path, re-grouping the batch every stage;
//! * **delta** — `SystemExecutor::stage_cost_delta(&StageDelta)`: the
//!   incremental path, carrying batch state across stages and pricing
//!   pure-advance decode stages in O(1) and mixed stages from the
//!   carried groups with memoized stage constants (for `mixed`, every
//!   stage admits the class's prefill and retires the previous one as
//!   it joins, so each stage has the full path's shape).
//!
//! Classes:
//!
//! * `decode_only` — Mixtral-8x7B, batch 64, contexts advancing from
//!   2048 (Duplex+PE+ET, the busiest Fig. 11 system);
//! * `mixed` — the same stage with one 2048-token prefill riding along;
//! * `moe_heavy` — GLaM (64 experts, 8-device node), batch 128.
//!
//! One more entry, `open_loop_delta`, prices through the delta path
//! the recorded stage stream of a saturated open-loop run on the
//! `mixed` system (batch 256, Gaussian 128-token prompts and 32-token
//! outputs, Poisson at 50k qps): ~67 decode groups, ~8 admissions and
//! ~8 retirements per stage, the shape of `perfbench`'s
//! `prefill_open`. `open_loop_cold` prices the same stream once per
//! pass on a fresh, unwarmed executor, so its MoE memo misses (each a
//! table-priced expert split) are part of the timing.
//!
//! `sampled_skew` is `decode_only` on the delta path under Zipf-1.0
//! sampled expert routing: every stage draws each MoE layer's
//! histogram and prices it, with no memo. Neither of these two entries
//! has a baseline in `ci/bench_baseline.json`.
//!
//! Contexts advance every stage, as in a real decode loop. Every entry
//! repeats its timed loop (a pass, on a freshly built and warmed
//! executor) until the passes total at least 0.2 s of wall time
//! ([`duplex_bench::run_repeated`]) and reports the median pass as
//! `stages_per_sec`, with the pass count as `passes`. Results print as
//! a table and land in `BENCH_stage_cost.json` in the current directory
//! so CI can track the perf trajectory across PRs.

use std::time::Instant;

use duplex::model::ops::StageShape;
use duplex::model::ModelConfig;
use duplex::sched::{
    Simulation, SimulationConfig, StageDelta, StageExecutor, StageOutcome, Workload,
};
use duplex::system::{SystemConfig, SystemExecutor};
use duplex_bench::{print_table, run_repeated};

struct ShapeClass {
    name: &'static str,
    model: ModelConfig,
    system: SystemConfig,
    batch: usize,
    start_ctx: u64,
    prefill: Option<u64>,
}

fn classes() -> Vec<ShapeClass> {
    vec![
        ShapeClass {
            name: "decode_only",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            batch: 64,
            start_ctx: 2048,
            prefill: None,
        },
        ShapeClass {
            name: "mixed",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            batch: 63,
            start_ctx: 2048,
            prefill: Some(2048),
        },
        ShapeClass {
            name: "moe_heavy",
            model: ModelConfig::glam(),
            system: SystemConfig::duplex_pe_et(8, 1),
            batch: 128,
            start_ctx: 1024,
            prefill: None,
        },
    ]
}

fn shape_at(class: &ShapeClass, stage: u64) -> StageShape {
    let ctx = vec![class.start_ctx + stage; class.batch];
    match class.prefill {
        Some(p) => StageShape::mixed(&ctx, &[p]),
        None => StageShape::decode_only(&ctx),
    }
}

/// Time `stages` stage pricings per pass: `pass` builds and warms an
/// executor, then returns a closure that prices one stage. Returns the
/// median pass's stages/s and the pass count.
fn timed<F: FnMut()>(stages: u64, mut pass: impl FnMut() -> F) -> (f64, usize) {
    let ((), wall_s, passes) = run_repeated(|| {
        let mut price = pass();
        let start = Instant::now();
        for _ in 0..stages {
            price();
        }
        ((), start.elapsed().as_secs_f64())
    });
    (stages as f64 / wall_s, passes)
}

/// Price `stages` advancing stages through the full path: stages/s and
/// passes.
fn measure_full(class: &ShapeClass, stages: u64) -> (f64, usize) {
    timed(stages, || {
        let mut ex = SystemExecutor::new(class.system.clone(), class.model.clone(), 7);
        // Warm up the executor (engine construction, first pricings).
        for s in 0..(stages / 10).max(1) {
            ex.stage_cost(&shape_at(class, s));
        }
        let mut s = 0;
        move || {
            ex.stage_cost(&shape_at(class, s));
            s += 1;
        }
    })
}

/// Price `stages` advancing stages through the incremental delta path
/// (admit the cohort once, then advance it, with the class's prefill
/// riding along on every stage), under Zipf-`skew` sampled routing when
/// given: stages/s and passes.
fn measure_delta(class: &ShapeClass, skew: Option<f64>, stages: u64) -> (f64, usize) {
    timed(stages, || {
        let mut ex = SystemExecutor::new(class.system.clone(), class.model.clone(), 7);
        if let Some(skew) = skew {
            ex.set_expert_skew(skew);
        }
        // Admit the cohort so it decodes from `start_ctx` onward,
        // mirroring the contexts the full-path measurement walks.
        let mut admit = StageDelta::start();
        admit.admit = vec![class.start_ctx - 1; class.batch];
        ex.stage_cost_delta(&admit);
        let mut step = StageDelta::default();
        if let Some(prefill) = class.prefill {
            // From the second prefill on, the previous one retires as
            // it joins the decode set, keeping the batch at the class's
            // shape.
            step.admit.push(prefill);
            ex.stage_cost_delta(&step);
            step.retire.push(prefill + 1);
        }
        for _ in 0..(stages / 10).max(1) {
            ex.stage_cost_delta(&step);
        }
        move || {
            ex.stage_cost_delta(&step);
        }
    })
}

/// A saturated open-loop run whose stage stream the delta path prices:
/// arrivals far above what `batch` serves, so admission is
/// batch-limited and nearly every stage admits and retires requests.
struct OpenLoop {
    model: ModelConfig,
    system: SystemConfig,
    batch: usize,
    mean_input: u64,
    mean_output: u64,
    qps: f64,
}

fn open_loop() -> OpenLoop {
    OpenLoop {
        model: ModelConfig::mixtral_8x7b(),
        system: SystemConfig::duplex_pe_et(4, 1),
        batch: 256,
        mean_input: 128,
        mean_output: 32,
        qps: 50_000.0,
    }
}

/// Stages of the recorded open-loop stream; the measurement replays it
/// in a loop, each replay starting from its fresh first delta.
const OPEN_LOOP_STAGES: usize = 4096;

/// Executor that prices stages on a [`SystemExecutor`] and keeps a copy
/// of every delta it is handed.
struct Recorder {
    inner: SystemExecutor,
    deltas: Vec<StageDelta>,
}

impl StageExecutor for Recorder {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        self.inner.execute(shape)
    }

    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        self.deltas.push(delta.clone());
        self.inner.execute_delta(delta, shape)
    }

    fn needs_shape(&self) -> bool {
        self.inner.needs_shape()
    }
}

/// The first [`OPEN_LOOP_STAGES`] deltas of `run`.
fn record_open_loop(run: &OpenLoop) -> Vec<StageDelta> {
    let inner = SystemExecutor::new(run.system.clone(), run.model.clone(), 7);
    let config = SimulationConfig {
        max_batch: run.batch,
        kv_capacity_bytes: inner.kv_capacity_bytes(),
        kv_bytes_per_token: run.model.kv_bytes_per_token(),
        max_stages: OPEN_LOOP_STAGES,
        record_stages: false,
    };
    let workload = Workload::gaussian(run.mean_input, run.mean_output);
    let mut recorder = Recorder {
        inner,
        deltas: Vec::new(),
    };
    Simulation::poisson(config, workload, run.qps, usize::MAX).run(&mut recorder);
    recorder.deltas
}

/// Price `stages` stages of the recorded stream `deltas` of `run`
/// through the incremental delta path, after one warm-up replay:
/// stages/s and passes.
fn measure_open_loop(run: &OpenLoop, deltas: &[StageDelta], stages: u64) -> (f64, usize) {
    timed(stages, || {
        let mut ex = SystemExecutor::new(run.system.clone(), run.model.clone(), 7);
        for delta in deltas {
            ex.stage_cost_delta(delta);
        }
        let mut stream = deltas.iter().cycle();
        move || {
            ex.stage_cost_delta(stream.next().expect("the stream cycles"));
        }
    })
}

/// Price the recorded stream `deltas` of `run` once per pass, each on
/// a fresh executor with nothing warmed: stages/s and passes.
fn measure_open_loop_cold(run: &OpenLoop, deltas: &[StageDelta]) -> (f64, usize) {
    timed(deltas.len() as u64, || {
        let mut ex = SystemExecutor::new(run.system.clone(), run.model.clone(), 7);
        let mut stream = deltas.iter();
        move || {
            ex.stage_cost_delta(stream.next().expect("one replay a pass"));
        }
    })
}

fn json_escape_free(name: &str) -> &str {
    // Class names are static identifiers; assert rather than escape.
    assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    name
}

fn main() {
    let scale = duplex_bench::scale_from_args();
    let quick = scale == duplex::experiments::Scale::quick();
    let stages: u64 = if quick { 300 } else { 3000 };
    // The delta path is one (mixed) to two (decode) orders of magnitude
    // faster; a pass prices more stages so it stays long enough to time.
    let delta_stages: u64 = if quick { 30_000 } else { 1_000_000 };

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    let mut push = |name: String,
                    model: &ModelConfig,
                    system: &SystemConfig,
                    batch: usize,
                    (sps, passes): (f64, usize),
                    n: u64| {
        rows.push(vec![
            name.clone(),
            model.name.clone(),
            system.name.clone(),
            batch.to_string(),
            passes.to_string(),
            format!("{sps:.0}"),
        ]);
        json_entries.push(format!(
            "    \"{}\": {{\"stages_per_sec\": {:.1}, \"model\": \"{}\", \"system\": \"{}\", \"batch\": {}, \"stages\": {}, \"passes\": {}}}",
            json_escape_free(&name),
            sps,
            model.name,
            system.name,
            batch,
            n,
            passes
        ));
    };
    for class in classes() {
        let (model, system) = (&class.model, &class.system);
        let timing = measure_full(&class, stages);
        let name = class.name.to_string();
        push(name, model, system, class.batch, timing, stages);
        let timing = measure_delta(&class, None, delta_stages);
        let name = format!("{}_delta", class.name);
        push(name, model, system, class.batch, timing, delta_stages);
        if class.name == "decode_only" {
            // Sampled stages cost about as much as full-path ones.
            let timing = measure_delta(&class, Some(1.0), stages);
            let name = "sampled_skew".to_string();
            push(name, model, system, class.batch, timing, stages);
        }
    }
    let run = open_loop();
    let deltas = record_open_loop(&run);
    let timing = measure_open_loop(&run, &deltas, delta_stages);
    let (name, model, system) = ("open_loop_delta".to_string(), &run.model, &run.system);
    push(name, model, system, run.batch, timing, delta_stages);
    let timing = measure_open_loop_cold(&run, &deltas);
    let name = "open_loop_cold".to_string();
    push(name, model, system, run.batch, timing, deltas.len() as u64);
    print_table(
        "Stage-cost throughput (full vs incremental delta path)",
        &["Class", "Model", "System", "Batch", "Passes", "stages/s"],
        &rows,
    );

    let json = format!(
        "{{\n  \"schema\": \"duplex-bench/stage-cost/v2\",\n  \"mode\": \"{}\",\n  \"classes\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "paper" },
        json_entries.join(",\n")
    );
    let path = "BENCH_stage_cost.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

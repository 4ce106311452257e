//! End-to-end simulation throughput benchmark: how many simulated
//! continuous-batching stages per second does the whole stack sustain —
//! scheduler loop (lazy request generation, admission, retirement,
//! streaming metrics) plus incremental stage pricing — not just the
//! pricing kernel that `bench_stage_cost` isolates?
//!
//! Scenarios:
//!
//! * `closed_mixtral_b64` — Mixtral-8x7B on Duplex+PE+ET (4 devices),
//!   closed-loop Gaussian (1024, 1024), batch 64: the Fig. 11 shape;
//! * `closed_glam_b128` — GLaM on an 8-device node, batch 128: the
//!   MoE-heavy end of the sweep;
//! * `open_loop_1m` — a million Poisson-arrival requests at batch 256
//!   with per-stage records disabled: exercises O(batch) scheduler
//!   memory (quick mode runs 50k requests).
//!
//! Each entry repeats its whole run (a pass) until the passes total at
//! least 0.2 s of wall time ([`duplex_bench::run_repeated`]), and
//! reports the median pass: a closed entry's pass takes milliseconds,
//! too short to time once.
//!
//! Results print as a table and land in `BENCH_sim.json` next to
//! `BENCH_stage_cost.json` so CI tracks both the pricing kernel and
//! the full loop.

use std::time::Instant;

use duplex::model::ModelConfig;
use duplex::sched::{SimReport, Simulation, SimulationConfig, Workload};
use duplex::system::{SystemConfig, SystemExecutor};
use duplex_bench::{print_table, run_repeated};

struct Scenario {
    name: &'static str,
    model: ModelConfig,
    system: SystemConfig,
    workload: Workload,
    max_batch: usize,
    requests: usize,
    qps: Option<f64>,
    record_stages: bool,
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "closed_mixtral_b64",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            workload: Workload::gaussian(1024, 1024),
            max_batch: 64,
            requests: if quick { 200 } else { 2000 },
            qps: None,
            record_stages: true,
        },
        Scenario {
            name: "closed_glam_b128",
            model: ModelConfig::glam(),
            system: SystemConfig::duplex_pe_et(8, 1),
            workload: Workload::gaussian(512, 512),
            max_batch: 128,
            requests: if quick { 400 } else { 4000 },
            qps: None,
            record_stages: true,
        },
        Scenario {
            name: "open_loop_1m",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            workload: Workload::gaussian(128, 32),
            max_batch: 256,
            requests: if quick { 50_000 } else { 1_000_000 },
            // Saturating offered load: admission is batch-limited, so
            // the loop stays busy end to end.
            qps: Some(50_000.0),
            record_stages: false,
        },
    ]
}

fn run_scenario(s: &Scenario) -> (SimReport, f64) {
    let mut ex = SystemExecutor::new(s.system.clone(), s.model.clone(), 7);
    let cfg = SimulationConfig {
        max_batch: s.max_batch,
        kv_capacity_bytes: ex.kv_capacity_bytes(),
        kv_bytes_per_token: s.model.kv_bytes_per_token(),
        max_stages: usize::MAX,
        record_stages: s.record_stages,
    };
    let sim = match s.qps {
        Some(qps) => Simulation::poisson(cfg, s.workload.clone(), qps, s.requests),
        None => Simulation::closed_loop(cfg, s.workload.clone(), s.requests),
    };
    let start = Instant::now();
    let report = sim.run(&mut ex);
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let scale = duplex_bench::scale_from_args();
    let quick = scale == duplex::experiments::Scale::quick();

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    for s in scenarios(quick) {
        let (report, wall_s, passes) = run_repeated(|| run_scenario(&s));
        assert_eq!(
            report.completed.len(),
            s.requests,
            "{}: all requests complete",
            s.name
        );
        let stages = report.stage_stats.stages;
        let stages_per_sec = stages as f64 / wall_s;
        let host_tokens_per_sec = report.generated_tokens() as f64 / wall_s;
        rows.push(vec![
            s.name.to_string(),
            s.model.name.clone(),
            format!("{}", s.requests),
            format!("{stages}"),
            format!("{passes}"),
            format!("{:.4}", wall_s),
            format!("{stages_per_sec:.0}"),
            format!("{host_tokens_per_sec:.0}"),
        ]);
        json_entries.push(format!(
            "    \"{}\": {{\"stages_per_sec\": {:.1}, \"host_tokens_per_sec\": {:.1}, \"host_fc_tokens_per_sec\": {:.1}, \"wall_s\": {:.4}, \"passes\": {}, \"stages\": {}, \"requests\": {}, \"model\": \"{}\", \"system\": \"{}\", \"batch\": {}}}",
            s.name,
            stages_per_sec,
            host_tokens_per_sec,
            report.fc_tokens() as f64 / wall_s,
            wall_s,
            passes,
            stages,
            s.requests,
            s.model.name,
            s.system.name,
            s.max_batch
        ));
    }
    print_table(
        "End-to-end simulation throughput (scheduler + incremental pricing)",
        &[
            "Scenario",
            "Model",
            "Requests",
            "Stages",
            "Passes",
            "Median wall s",
            "stages/s",
            "host tokens/s",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"schema\": \"duplex-bench/sim/v2\",\n  \"mode\": \"{}\",\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "paper" },
        json_entries.join(",\n")
    );
    let path = "BENCH_sim.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

//! Preemption drill: the KV-bound near-saturation scenario of the CI
//! acceptance gate, run under every contender for the batch tier's
//! fate, side by side:
//!
//! * `priority-edf` — EDF admission, no relief valve: interactive
//!   work waits behind running batch decodes;
//! * `shed-batch` — admission-side load shedding: batch arrivals defer
//!   near saturation, queueing delay pays for attainment;
//! * `preempt` — batch-tier decodes pause mid-flight (priced KV
//!   swap-out or recompute-on-resume, whichever the cost model says is
//!   cheaper for that victim) and resume once the pressure passes;
//! * `preempt-mux` — same, plus RevMUX-style slot-sharing: paused
//!   decodes resume multiplexed into shared batch slots at a quality
//!   exchange rate (shown on its own bursty drill below, where paused
//!   backlogs actually pile up).
//!
//! The point of the first table: preemption lifts interactive
//! attainment without dropping batch work — paused service is
//! deferred, not lost.
//!
//! Run with `cargo run --release --example preemption_drill`.

use duplex::model::ops::StageShape;
use duplex::sched::{
    Arrivals, ClusterSimulation, KvLinkSpec, PreemptMode, PreemptSpec, PreemptionPolicy,
    PriorityTiers, ReplicaConfig, RouterKind, Scenario, SchedulingPolicy, ShedBatchTier, SimReport,
    SimulationConfig, SloTier, StageExecutor, StageOutcome, Workload,
};

/// The gate's executor: stage cost linear in prefill tokens and decode
/// rows, so pausing a decode visibly frees both time and KV budget.
struct LinearCost;
impl StageExecutor for LinearCost {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        let prefill: u64 = shape.prefill_len.iter().sum();
        StageOutcome {
            seconds: 0.002 + 1.5e-4 * prefill as f64 + 1e-4 * shape.decode_ctx.len() as f64,
        }
    }
}

/// Fixed per-stage latency for the bursty multiplex drill.
struct Fixed(f64);
impl StageExecutor for Fixed {
    fn execute(&mut self, _: &StageShape) -> StageOutcome {
        StageOutcome { seconds: self.0 }
    }
}

/// The gate's cost model: crossover at 150 resident tokens, so the
/// 64..~256-token victim spread exercises both restore paths.
fn gate_spec() -> PreemptSpec {
    PreemptSpec::new()
        .with_swap_link(KvLinkSpec::new(2e4, 7.5e-3))
        .with_recompute_rate(1e4)
}

fn gate_scenario() -> Scenario {
    Scenario::new(
        "preempt-drill",
        Workload::gaussian(64, 192).with_seed(21),
        Arrivals::Poisson { qps: 16.0 },
        400,
    )
    .with_tiers(vec![
        SloTier::new("interactive", 0.5, 0, 0.035, 0.0),
        SloTier::new("batch", 0.5, 2, 60.0, 0.0),
    ])
    .with_prefill_chunk(64)
}

/// Serve `scenario` on a one-replica fleet (the router never chooses)
/// and return the replica's report.
fn run_solo(
    cfg: SimulationConfig,
    scenario: Scenario,
    policy: Box<dyn SchedulingPolicy>,
    executor: impl StageExecutor,
) -> SimReport {
    ClusterSimulation::new(vec![ReplicaConfig::new(cfg)], scenario)
        .run(
            RouterKind::RoundRobin.build().as_mut(),
            &mut [policy],
            &mut [executor],
        )
        .replicas
        .remove(0)
}

fn run_gate(policy: Box<dyn SchedulingPolicy>) -> SimReport {
    // KV-bound: capacity fits ~5 concurrent (input + output)
    // reservations, so running batch decodes block interactive
    // admission on bytes, not slots — the regime where shedding can
    // only refuse new work while preemption reclaims running work.
    let cfg = SimulationConfig {
        max_batch: 8,
        kv_capacity_bytes: 1536,
        kv_bytes_per_token: 1,
        ..SimulationConfig::default()
    };
    run_solo(cfg, gate_scenario(), policy, LinearCost)
}

fn row(name: &str, report: &SimReport) {
    println!(
        "{:<14} {:>6} {:>9.3} {:>9} {:>8} {:>6} {:>6} {:>7} {:>9.3}",
        name,
        report.completed.len(),
        report.slo.tiers[0].attainment(),
        report.slo.tiers[1].good_tokens,
        report.preempt.preemptions,
        report.preempt.swaps,
        report.preempt.recomputes,
        report.preempt.mux_slots,
        report.preempt.paused_time_s,
    );
}

fn main() {
    println!("400 requests at 16 qps, 8 slots, 1536-byte KV budget (KV-bound):");
    println!("50% interactive (35 ms TBT deadline), 50% batch-tier (lax).\n");
    println!(
        "{:<14} {:>6} {:>9} {:>9} {:>8} {:>6} {:>6} {:>7} {:>9}",
        "Policy", "done", "int. att", "batch tok", "preempt", "swap", "recomp", "mux", "paused s"
    );
    row("priority-edf", &run_gate(Box::new(PriorityTiers)));
    let shed = ShedBatchTier::new(Box::new(PriorityTiers), 0.5, 2);
    row("shed-batch", &run_gate(Box::new(shed)));
    let preempt = PreemptionPolicy::new(Box::new(PriorityTiers), gate_spec());
    row("preempt", &run_gate(Box::new(preempt)));

    println!("\nShedding buys interactive attainment by deferring batch admission;");
    println!("preemption buys more of it by reclaiming running work: victims park");
    println!("(KV swap-out) or re-prefill (recompute), whichever the cost model");
    println!("prices cheaper per victim, and every one of them completes.\n");

    // The multiplex drill: bursty interactive arrivals pause several
    // batch decodes at once (SwapOnly keeps their contexts parked),
    // and once a burst drains the multiplexer packs compatible paused
    // victims into shared decode rows at a 0.9 quality credit.
    let mux_scenario = || {
        Scenario::new(
            "mux-drill",
            Workload::gaussian(64, 192).with_seed(11),
            Arrivals::Bursty {
                base_qps: 1.0,
                burst_qps: 40.0,
                mean_off_s: 0.8,
                mean_on_s: 0.15,
            },
            80,
        )
        .with_tiers(vec![
            SloTier::new("interactive", 0.4, 0, 0.08, 0.0),
            SloTier::new("batch", 0.6, 2, 120.0, 0.0),
        ])
    };
    let mux_cfg = SimulationConfig {
        max_batch: 4,
        ..SimulationConfig::default()
    };
    let spec = PreemptSpec::new()
        .with_mode(PreemptMode::SwapOnly)
        .with_threshold(0.75);
    let mux_policy = PreemptionPolicy::new(Box::new(PriorityTiers), spec).with_multiplex();
    let report = run_solo(mux_cfg, mux_scenario(), Box::new(mux_policy), Fixed(0.01));
    println!("Bursty multiplex drill (80 requests, 4 slots, 40 qps bursts):");
    println!(
        "preempt-mux packed {} shared slots ({} multiplexed tokens) out of {} pauses; all {} requests completed.",
        report.preempt.mux_slots,
        report.preempt.mux_tokens,
        report.preempt.preemptions,
        report.completed.len()
    );
}

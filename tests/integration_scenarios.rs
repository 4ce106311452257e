//! Seeded determinism of the workload/scenario subsystem: the same
//! `Workload`/`Arrivals` seed must produce *byte-identical* report
//! summaries across two runs. This guards the lazy request generation
//! (PR 2) and the scenario scheduler's independent RNG streams — any
//! hidden nondeterminism (iteration order, shared RNG, wall-clock
//! leakage) shows up as a summary mismatch.

use duplex::experiments::{run_cluster, scenario_suite, Scale};
use duplex::model::ops::StageShape;
use duplex::model::ModelConfig;
use duplex::sched::{
    Arrivals, ClusterReport, ClusterSimulation, ConversationSpec, KvLinkSpec, PolicyKind,
    PreemptMode, PreemptSpec, PreemptionPolicy, PriorityTiers, ReplicaConfig, RouterKind, Scenario,
    SchedulingPolicy, ShedBatchTier, SimReport, Simulation, SimulationConfig, SloTier,
    StageExecutor, StageOutcome, TraceRequest, Workload,
};
use duplex::system::{SystemConfig, SystemExecutor};

/// Every aggregate of a report, rendered with exact bit patterns so
/// equality is byte-for-byte, not approximate.
fn summary(report: &SimReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "stages={} mixed={} batch_sum={} token_sum={}\n",
        report.stage_stats.stages,
        report.stage_stats.mixed,
        report.stage_stats.batch_sum,
        report.stage_stats.token_sum,
    ));
    out.push_str(&format!(
        "total_time_bits={:016x} completed={}\n",
        report.total_time_s.to_bits(),
        report.completed.len()
    ));
    for r in &report.completed {
        out.push_str(&format!(
            "req id={} arrival={:016x} in={} out={} first={:016x} last={:016x} tokens={}\n",
            r.request.id,
            r.request.arrival_s.to_bits(),
            r.request.input_len,
            r.request.output_len,
            r.first_token_s.to_bits(),
            r.last_token_s.to_bits(),
            r.tokens,
        ));
    }
    let tbt = report.tbt();
    out.push_str(&format!(
        "tbt p50={:016x} p99={:016x} mean={:016x} count={}\n",
        tbt.p50.to_bits(),
        tbt.p99.to_bits(),
        tbt.mean.to_bits(),
        tbt.count
    ));
    for t in &report.slo.tiers {
        out.push_str(&format!(
            "tier {} completed={} met={} good={}\n",
            t.name, t.completed, t.met, t.good_tokens
        ));
    }
    out.push_str(&format!("kv_reuse={:?}\n", report.kv_reuse));
    out
}

fn executor() -> SystemExecutor {
    SystemExecutor::new(
        SystemConfig::duplex_pe_et(4, 1),
        ModelConfig::mixtral_8x7b(),
        7,
    )
}

fn sim_config(ex: &SystemExecutor, max_batch: usize) -> SimulationConfig {
    SimulationConfig {
        max_batch,
        kv_capacity_bytes: ex.kv_capacity_bytes(),
        kv_bytes_per_token: ex.model().kv_bytes_per_token(),
        ..SimulationConfig::default()
    }
}

/// Serve `scenario` on a one-replica fleet (the router never chooses)
/// and return the replica's report.
fn solo<E: StageExecutor>(
    cfg: SimulationConfig,
    scenario: Scenario,
    policy: Box<dyn SchedulingPolicy>,
    executor: &mut E,
) -> SimReport {
    ClusterSimulation::new(vec![ReplicaConfig::new(cfg)], scenario)
        .run(
            RouterKind::RoundRobin.build().as_mut(),
            &mut [policy],
            std::slice::from_mut(executor),
        )
        .replicas
        .remove(0)
}

#[test]
fn base_simulation_is_seed_deterministic() {
    let run = || {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let w = Workload::gaussian(128, 16).with_seed(42);
        Simulation::poisson(cfg, w, 400.0, 40).run(&mut ex)
    };
    assert_eq!(summary(&run()), summary(&run()));
}

#[test]
fn bursty_scenario_is_seed_deterministic() {
    let run = || {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "bursty",
            Workload::gaussian(96, 12).with_seed(7),
            Arrivals::Bursty {
                base_qps: 10.0,
                burst_qps: 800.0,
                mean_off_s: 0.05,
                mean_on_s: 0.02,
            },
            30,
        );
        solo(cfg, scenario, PolicyKind::Fcfs.build(), &mut ex)
    };
    assert_eq!(summary(&run()), summary(&run()));
}

#[test]
fn diurnal_scenario_is_seed_deterministic() {
    let run = || {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "diurnal",
            Workload::gaussian(96, 12).with_seed(9),
            Arrivals::Diurnal {
                mean_qps: 300.0,
                period_s: 0.5,
                amplitude: 0.8,
            },
            30,
        );
        solo(
            cfg,
            scenario,
            PolicyKind::ShortestPromptFirst.build(),
            &mut ex,
        )
    };
    assert_eq!(summary(&run()), summary(&run()));
}

#[test]
fn multi_turn_tiered_scenario_is_seed_deterministic() {
    let run = || {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "chat",
            Workload::gaussian(64, 8).with_seed(3),
            Arrivals::Poisson { qps: 500.0 },
            20,
        )
        .with_conversation(ConversationSpec::chat(0.8, 3, 0.01, 24))
        .with_tiers(Scenario::default_tiers(0.005));
        solo(cfg, scenario, PolicyKind::PriorityTiers.build(), &mut ex)
    };
    let a = run();
    let b = run();
    assert_eq!(summary(&a), summary(&b));
    // And the scenario actually exercised follow-ups + SLO accounting.
    assert!(a.completed.len() > 20);
    assert!(a.slo.completed() > 0);
}

#[test]
fn chunked_prefill_scenario_is_seed_deterministic() {
    // Chunked prefill adds held prefill-with-past slices and delayed
    // decode joins to the stage stream; the whole pipeline (scheduler,
    // chunk budgeting, delta fast path) must stay byte-identical across
    // runs of the same seed.
    let run = || {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "chunked",
            Workload::gaussian(384, 24).with_seed(13),
            Arrivals::Poisson { qps: 250.0 },
            25,
        )
        .with_conversation(ConversationSpec::chat(0.6, 3, 0.01, 48))
        .with_tiers(Scenario::default_tiers(0.004))
        .with_prefill_chunk(96);
        solo(cfg, scenario, PolicyKind::PriorityTiers.build(), &mut ex)
    };
    let a = run();
    let b = run();
    assert_eq!(summary(&a), summary(&b));
    // The run actually chunked: more stages than generated tokens'
    // share of stages alone would need, and mixed stages dominate the
    // admission phases.
    assert!(a.stage_stats.mixed > 25, "{:?}", a.stage_stats);
    assert!(a.completed.len() >= 25);

    // The per-tier TBT digests are part of the deterministic surface
    // too (they drive the CI latency gate).
    let tails_a: Vec<u64> = a
        .slo
        .tiers
        .iter()
        .map(|t| t.tbt_p99_s().to_bits())
        .collect();
    let tails_b: Vec<u64> = b
        .slo
        .tiers
        .iter()
        .map(|t| t.tbt_p99_s().to_bits())
        .collect();
    assert_eq!(tails_a, tails_b);
}

#[test]
fn chunked_and_unchunked_complete_the_same_requests() {
    let run = |chunk: u64| {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "pair",
            Workload::gaussian(384, 16).with_seed(29),
            Arrivals::Poisson { qps: 400.0 },
            20,
        )
        .with_prefill_chunk(chunk);
        solo(cfg, scenario, PolicyKind::Fcfs.build(), &mut ex)
    };
    let plain = run(0);
    let chunked = run(128);
    assert_eq!(plain.completed.len(), chunked.completed.len());
    assert_eq!(plain.total_tokens(), chunked.total_tokens());
    assert!(chunked.stage_stats.stages > plain.stage_stats.stages);
}

#[test]
fn trace_replay_is_deterministic_and_seed_independent() {
    // A trace pins arrivals and shapes, so even *different* workload
    // seeds must replay identically.
    let trace: Vec<TraceRequest> = (0..25u64)
        .map(|i| TraceRequest {
            arrival_s: i as f64 * 0.003,
            input_len: 64 + (i % 5) * 32,
            output_len: 8 + (i % 3) * 4,
        })
        .collect();
    let run = |seed: u64| {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let scenario = Scenario::new(
            "replay",
            Workload::gaussian(999, 99).with_seed(seed),
            Arrivals::trace(trace.clone()),
            25,
        );
        solo(cfg, scenario, PolicyKind::Fcfs.build(), &mut ex)
    };
    assert_eq!(summary(&run(1)), summary(&run(1)));
    assert_eq!(summary(&run(1)), summary(&run(2)));
}

/// Byte-exact rendering of a whole fleet report: every replica's
/// summary plus the merged fleet aggregates.
fn cluster_summary(report: &ClusterReport) -> String {
    let mut out = format!(
        "router={} total_time_bits={:016x} completed={} imbalance_bits={:016x}\n",
        report.router,
        report.total_time_s.to_bits(),
        report.completed(),
        report.load_imbalance().to_bits(),
    );
    let fleet_tbt = report.tbt();
    out.push_str(&format!(
        "fleet tbt p99={:016x} mean={:016x} count={} kv_reuse={:?}\n",
        fleet_tbt.p99.to_bits(),
        fleet_tbt.mean.to_bits(),
        fleet_tbt.count,
        report.kv_reuse(),
    ));
    for t in &report.slo().tiers {
        out.push_str(&format!(
            "fleet tier {} completed={} met={} good={}\n",
            t.name, t.completed, t.met, t.good_tokens
        ));
    }
    for (i, r) in report.replicas.iter().enumerate() {
        out.push_str(&format!("--- replica {i} ---\n"));
        out.push_str(&summary(r));
    }
    out
}

fn cluster_scenario() -> Scenario {
    Scenario::new(
        "cluster",
        Workload::gaussian(96, 10).with_seed(29),
        Arrivals::Bursty {
            base_qps: 50.0,
            burst_qps: 900.0,
            mean_off_s: 0.05,
            mean_on_s: 0.03,
        },
        40,
    )
    .with_conversation(ConversationSpec::chat(0.8, 3, 0.01, 24))
    .with_tiers(Scenario::default_tiers(0.005))
}

fn run_cluster_fleet(kind: RouterKind) -> ClusterReport {
    // A heterogeneous 3-replica fleet: two Duplex nodes and one GPU
    // node, each with its own executor and KV budget.
    let systems = [
        SystemConfig::duplex_pe_et(4, 1),
        SystemConfig::duplex_pe_et(4, 1),
        SystemConfig::gpu(4, 1),
    ];
    let model = ModelConfig::mixtral_8x7b();
    let mut executors: Vec<SystemExecutor> = systems
        .iter()
        .map(|s| SystemExecutor::new(s.clone(), model.clone(), 7))
        .collect();
    let configs: Vec<ReplicaConfig> = executors
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            ReplicaConfig::new(sim_config(ex, 8)).with_weight(if i < 2 { 2.0 } else { 1.0 })
        })
        .collect();
    let mut policies: Vec<Box<dyn SchedulingPolicy>> =
        (0..3).map(|_| PolicyKind::PriorityTiers.build()).collect();
    ClusterSimulation::new(configs, cluster_scenario()).run(
        kind.build().as_mut(),
        &mut policies,
        &mut executors,
    )
}

#[test]
fn cluster_reports_are_seed_deterministic() {
    // The whole fleet — global arrival stream, router placement,
    // per-replica scheduling, merged digests — must be byte-identical
    // across runs for every shipped router.
    for kind in RouterKind::ALL {
        let a = run_cluster_fleet(kind);
        let b = run_cluster_fleet(kind);
        assert_eq!(
            cluster_summary(&a),
            cluster_summary(&b),
            "router {}",
            kind.name()
        );
        // And the fleet actually exercised multi-turn + tiers.
        assert!(a.completed() > 40, "follow-ups ran ({})", a.completed());
        assert!(a.slo().completed() > 0);
    }
}

#[test]
fn cluster_routers_place_differently_but_serve_everything() {
    let rr = run_cluster_fleet(RouterKind::RoundRobin);
    let aff = run_cluster_fleet(RouterKind::SessionAffinity);
    // Placement changes retirement order, retirement order changes
    // which continuation dice each conversation draws, so the offered
    // round count itself varies a little between routers. Every router
    // must still serve at least every initial request, and the fleets
    // stay within a few follow-up rounds of each other.
    assert!(rr.completed() >= 40, "rr serves every initial request");
    assert!(
        aff.completed() >= 40,
        "affinity serves every initial request"
    );
    let (lo, hi) = (
        rr.completed().min(aff.completed()),
        rr.completed().max(aff.completed()),
    );
    assert!(
        hi - lo <= hi / 10,
        "offered rounds stay comparable: rr {} vs affinity {}",
        rr.completed(),
        aff.completed()
    );
    assert_ne!(
        cluster_summary(&rr),
        cluster_summary(&aff),
        "routers actually change placement"
    );
    // Affinity finds resident histories that round-robin scatters.
    assert!(aff.kv_reuse().reuse_fraction() > rr.kv_reuse().reuse_fraction());
}

/// Deterministic linear stage cost: the preemption acceptance gate
/// needs exact control of stage timing, independent of the system
/// crate's cost model.
struct LinearCost;
impl StageExecutor for LinearCost {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        let prefill: u64 = shape.prefill_len.iter().sum();
        StageOutcome {
            seconds: 0.002 + 1.5e-4 * prefill as f64 + 1e-4 * shape.decode_ctx.len() as f64,
        }
    }
}

fn preempt_scenario() -> Scenario {
    Scenario::new(
        "preempt-gate",
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

fn run_preempt_gate(policy: Box<dyn SchedulingPolicy>) -> SimReport {
    // KV-bound: capacity fits ~5 concurrent (input + output)
    // reservations, so running batch decodes block interactive
    // admission on bytes, not slots.
    let cfg = SimulationConfig {
        max_batch: 8,
        kv_capacity_bytes: 1536,
        kv_bytes_per_token: 1,
        ..SimulationConfig::default()
    };
    solo(cfg, preempt_scenario(), policy, &mut LinearCost)
}

#[test]
fn preemption_lifts_interactive_attainment_over_shedding() {
    // The acceptance gate for the preemptive scheduler (ISSUE 10):
    // near saturation, pausing batch-tier decodes (priced KV swap-out
    // or recompute, whichever the cost model says is cheaper for that
    // victim) must beat admission-side shedding on interactive SLO
    // attainment while keeping at least 90% of the batch tier's
    // goodput.
    let shed = run_preempt_gate(Box::new(ShedBatchTier::new(
        Box::new(PriorityTiers),
        0.5,
        2,
    )));
    // Crossover at 150 resident tokens: the 64..~256-token victim
    // spread straddles it, so both restore paths see traffic.
    let spec = PreemptSpec::new()
        .with_swap_link(KvLinkSpec::new(2e4, 7.5e-3))
        .with_recompute_rate(1e4);
    let preempt = run_preempt_gate(Box::new(PreemptionPolicy::new(
        Box::new(PriorityTiers),
        spec,
    )));

    assert_eq!(shed.completed.len(), 400);
    assert_eq!(preempt.completed.len(), 400, "paused work is never dropped");
    let interactive = |r: &SimReport| r.slo.tiers[0].attainment();
    assert!(
        interactive(&preempt) > interactive(&shed) + 0.05,
        "preempt {} vs shed {}",
        interactive(&preempt),
        interactive(&shed)
    );
    let batch_good = |r: &SimReport| r.slo.tiers[1].good_tokens;
    assert!(
        batch_good(&preempt) as f64 >= 0.9 * batch_good(&shed) as f64,
        "batch goodput {} vs shed {}",
        batch_good(&preempt),
        batch_good(&shed)
    );

    // Under one Auto spec both restore paths ran: the per-victim
    // cost-model choice split the ctx spread across swap and
    // recompute. The single-mode runs pin that it really is the mode
    // doing the splitting, not chance.
    assert!(preempt.preempt.preemptions > 0);
    assert!(preempt.preempt.swaps > 0, "{:?}", preempt.preempt);
    assert!(preempt.preempt.recomputes > 0, "{:?}", preempt.preempt);
    assert_eq!(preempt.preempt.resumes, preempt.preempt.preemptions);
    let swap_only = run_preempt_gate(Box::new(PreemptionPolicy::new(
        Box::new(PriorityTiers),
        spec.with_mode(PreemptMode::SwapOnly),
    )));
    assert!(
        swap_only.preempt.swaps > preempt.preempt.swaps,
        "forcing SwapOnly parks victims the cost model would recompute: {:?} vs {:?}",
        swap_only.preempt,
        preempt.preempt
    );
    let recompute_only = run_preempt_gate(Box::new(PreemptionPolicy::new(
        Box::new(PriorityTiers),
        spec.with_mode(PreemptMode::RecomputeOnly),
    )));
    assert_eq!(recompute_only.preempt.swaps, 0, "RecomputeOnly never parks");

    // The preempting run is part of the deterministic surface.
    let again = run_preempt_gate(Box::new(PreemptionPolicy::new(
        Box::new(PriorityTiers),
        spec,
    )));
    assert_eq!(summary(&preempt), summary(&again));
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the summary is sensitive at all.
    let run = |seed: u64| {
        let mut ex = executor();
        let cfg = sim_config(&ex, 8);
        let w = Workload::gaussian(128, 16).with_seed(seed);
        Simulation::poisson(cfg, w, 400.0, 40).run(&mut ex)
    };
    assert_ne!(summary(&run(1)), summary(&run(2)));
}

/// FNV-1a 64 over a report's text: the hash the suite pins hold.
fn fnv1a64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every scenario of the quick suite under every policy, hashed.
fn suite_hashes() -> Vec<(String, [u64; 6])> {
    let model = ModelConfig::mixtral_8x7b();
    let system = SystemConfig::duplex_pe_et(4, 1);
    scenario_suite(&Scale::quick(), &model, &system, 64)
        .into_iter()
        .map(|spec| {
            let hashes = PolicyKind::ALL.map(|kind| {
                let mut spec = spec.clone();
                spec.policy = kind;
                // One replica, so the router never chooses.
                let fleet = run_cluster(&spec, RouterKind::RoundRobin.build().as_mut());
                let report = &fleet.replicas[0];
                // `summary` leaves out the preemption counters.
                fnv1a64(&format!(
                    "{}preempt={:?}\n",
                    summary(report),
                    report.preempt
                ))
            });
            (spec.name, hashes)
        })
        .collect()
}

/// The quick scenario suite's reports, pinned per (scenario, policy)
/// pair: FNV-1a 64 of `summary` plus the preemption counters, one hash
/// per policy in `PolicyKind::ALL` order (fcfs, spf, priority-edf,
/// shed-batch, preempt, preempt-mux). Without tiers every policy but
/// shortest-prompt-first admits in arrival order, and the
/// near-saturation trio shares one shape, so many pins repeat.
const SUITE_PINS: [(&str, [u64; 6]); 11] = [
    (
        "bursty",
        [
            0x7749f2f6a34e39a5,
            0xaea3b87081e352f2,
            0x7749f2f6a34e39a5,
            0x7749f2f6a34e39a5,
            0x7749f2f6a34e39a5,
            0x7749f2f6a34e39a5,
        ],
    ),
    (
        "diurnal",
        [
            0xdc61cfb8cff66f07,
            0x927dd6318f505b83,
            0xdc61cfb8cff66f07,
            0xdc61cfb8cff66f07,
            0xdc61cfb8cff66f07,
            0xdc61cfb8cff66f07,
        ],
    ),
    (
        "multi_turn",
        [
            0xa7c4ad42f1096399,
            0x6ffa650613082ebd,
            0xa7c4ad42f1096399,
            0xa7c4ad42f1096399,
            0xa7c4ad42f1096399,
            0xa7c4ad42f1096399,
        ],
    ),
    (
        "slo_tiered",
        [
            0x71151f3a7942232e,
            0xa2e71c2fc3cfb40d,
            0x461152aa7333d867,
            0x32a60cb96ce97a31,
            0xca5850750789a1c8,
            0x0a9af1ec3112036c,
        ],
    ),
    (
        "slo_shed",
        [
            0x03a5f531defb80ff,
            0x0f5e6fd4cd4f625d,
            0x46d97d6c954b5169,
            0x83ee362bba2b54d5,
            0x6aea43d15706a0b0,
            0xb04304e78816be98,
        ],
    ),
    (
        "slo_preempt",
        [
            0x03a5f531defb80ff,
            0x0f5e6fd4cd4f625d,
            0x46d97d6c954b5169,
            0x83ee362bba2b54d5,
            0x6aea43d15706a0b0,
            0xb04304e78816be98,
        ],
    ),
    (
        "slo_multiplex",
        [
            0x03a5f531defb80ff,
            0x0f5e6fd4cd4f625d,
            0x46d97d6c954b5169,
            0x83ee362bba2b54d5,
            0x6aea43d15706a0b0,
            0xb04304e78816be98,
        ],
    ),
    (
        "trace_replay",
        [
            0xccf166bf216b4e09,
            0x2ffaec522cd0f14c,
            0xccf166bf216b4e09,
            0xccf166bf216b4e09,
            0xccf166bf216b4e09,
            0xccf166bf216b4e09,
        ],
    ),
    (
        "long_prefill",
        [
            0x5d6c232b503aa21e,
            0x5d6c232b503aa21e,
            0x5d6c232b503aa21e,
            0x5d6c232b503aa21e,
            0x5d6c232b503aa21e,
            0x5d6c232b503aa21e,
        ],
    ),
    (
        "long_prefill_chunked",
        [
            0x55a704a9a4ab90ae,
            0x55a704a9a4ab90ae,
            0x55a704a9a4ab90ae,
            0x55a704a9a4ab90ae,
            0x55a704a9a4ab90ae,
            0x55a704a9a4ab90ae,
        ],
    ),
    (
        "long_prefill_adaptive",
        [
            0xa557c0c4df541b39,
            0xa557c0c4df541b39,
            0xa557c0c4df541b39,
            0xa557c0c4df541b39,
            0xa557c0c4df541b39,
            0xa557c0c4df541b39,
        ],
    ),
];

#[test]
fn scenario_suite_reports_are_pinned() {
    let hashes = suite_hashes();
    assert_eq!(hashes.len(), SUITE_PINS.len());
    for ((name, got), (pin_name, pin)) in hashes.iter().zip(SUITE_PINS) {
        assert_eq!(name, pin_name);
        for ((g, p), kind) in got.iter().zip(pin).zip(PolicyKind::ALL) {
            assert_eq!(*g, p, "{name} under {}: {g:#018x}", kind.name());
        }
    }
}

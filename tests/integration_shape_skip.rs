//! Shape skipping is invisible: an executor that tells the schedulers
//! it does not read decode contexts (`StageExecutor::needs_shape`
//! returns false) gets shapes without them and prices every stage from
//! the delta alone. Both drivers of the batching loop (`Simulation`
//! and `ClusterSimulation`, with one replica or several) must then
//! produce reports, and the executor must accumulate costs,
//! identical to the bit to a plain `SystemExecutor` run. Debug builds
//! of the plain executor always ask for the shape, so under
//! `cargo test` this compares the skipping path with the materialized
//! one.

use duplex::model::ops::StageShape;
use duplex::model::ModelConfig;
use duplex::sched::{
    Arrivals, BatchCheckpoint, ClusterSimulation, ConversationSpec, KvLinkSpec, PreemptSpec,
    PreemptionPolicy, PriorityTiers, ReplicaConfig, RouterKind, Scenario, SchedulingPolicy,
    SimReport, Simulation, SimulationConfig, SloTier, StageDelta, StageExecutor, StageOutcome,
    Workload,
};
use duplex::system::{StageCost, SystemConfig, SystemExecutor};

/// Prices through `SystemExecutor::stage_cost_delta` and declares that
/// it never reads the shape's decode contexts.
struct DeltaOnly {
    ex: SystemExecutor,
    total: StageCost,
    /// Stages that carried an intermediate prefill chunk.
    chunked: usize,
}

impl DeltaOnly {
    fn new(ex: SystemExecutor) -> Self {
        Self {
            ex,
            total: StageCost::default(),
            chunked: 0,
        }
    }
}

impl StageExecutor for DeltaOnly {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        unreachable!("both batching loops announce every stage as a delta: {shape:?}")
    }

    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        assert!(
            shape.decode_ctx.is_empty(),
            "the scheduler materialized decode contexts nobody reads"
        );
        let cost = self.ex.stage_cost_delta(delta);
        self.total += cost;
        self.chunked += usize::from(!delta.chunk.is_empty());
        StageOutcome {
            seconds: cost.seconds,
        }
    }

    fn needs_shape(&self) -> bool {
        false
    }

    fn export_batch(&self) -> Option<BatchCheckpoint> {
        self.ex.export_batch()
    }

    fn import_batch(&mut self, checkpoint: &BatchCheckpoint) {
        self.ex.import_batch(checkpoint);
    }
}

/// Mixtral on a 4-device Duplex node; `skew` switches expert routing
/// from the closed-form expectation to seeded per-stage draws.
fn executor(skew: Option<f64>) -> SystemExecutor {
    let mut ex = SystemExecutor::new(
        SystemConfig::duplex_pe_et(4, 1),
        ModelConfig::mixtral_8x7b(),
        7,
    );
    if let Some(skew) = skew {
        ex.set_expert_skew(skew);
    }
    ex
}

const ROUTINGS: [Option<f64>; 2] = [None, Some(1.2)];

/// Debug output prints every float in its shortest round-trip form, so
/// equal renderings mean equal bits.
fn assert_same<T: std::fmt::Debug>(a: &T, b: &T, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// Each completed request streamed exactly its tokens (a prefill
/// always samples one), so no retirement came late.
fn assert_retired_on_time(report: &SimReport) {
    for r in &report.completed {
        assert_eq!(r.tokens, r.request.output_len.max(1), "{:?}", r.request);
    }
}

fn sim_config(max_batch: usize) -> SimulationConfig {
    SimulationConfig {
        max_batch,
        kv_bytes_per_token: ModelConfig::mixtral_8x7b().kv_bytes_per_token(),
        ..SimulationConfig::default()
    }
}

/// One `Simulation` setup; `qps: None` is closed-loop.
struct SimCase {
    name: &'static str,
    config: SimulationConfig,
    workload: Workload,
    qps: Option<f64>,
    requests: usize,
}

impl SimCase {
    fn build(&self) -> Simulation {
        let (config, workload) = (self.config, self.workload.clone());
        match self.qps {
            None => Simulation::closed_loop(config, workload, self.requests),
            Some(qps) => Simulation::poisson(config, workload, qps, self.requests),
        }
    }
}

#[test]
fn simulation_skipping_the_shape_matches_the_materialized_run() {
    // Output lengths around 3 with a 60% spread include many
    // single-token requests, several finishing on the same stage.
    let short = Workload::gaussian(48, 3).with_cv(0.6).with_seed(5);
    let long = Workload::gaussian(160, 24).with_cv(0.5).with_seed(9);
    let kv_per_token = ModelConfig::mixtral_8x7b().kv_bytes_per_token();
    let case = |name, config, workload: &Workload, qps, requests| SimCase {
        name,
        config,
        workload: workload.clone(),
        qps,
        requests,
    };
    let cases = [
        case("closed short", sim_config(16), &short, None, 120),
        case("closed long", sim_config(12), &long, None, 60),
        case(
            "closed kv-capped",
            SimulationConfig {
                // About four average reservations fit.
                kv_capacity_bytes: 4 * 184 * kv_per_token,
                ..sim_config(16)
            },
            &long,
            None,
            40,
        ),
        case("poisson", sim_config(8), &short, Some(400.0), 150),
        case(
            "truncated",
            SimulationConfig {
                max_stages: 37,
                ..sim_config(6)
            },
            &long,
            None,
            60,
        ),
    ];
    for skew in ROUTINGS {
        for c in &cases {
            let what = format!("{}, skew {skew:?}", c.name);
            let mut plain = executor(skew);
            let mut skip = DeltaOnly::new(executor(skew));
            let a = c.build().run(&mut plain);
            let b = c.build().run(&mut skip);
            assert_same(&a, &b, &what);
            assert_same(plain.total_cost(), &skip.total, &what);
            assert_retired_on_time(&a);
            assert!(a.stage_stats.stages > 0, "{what}");
        }
    }
    let a = cases[0].build().run(&mut executor(None));
    assert!(
        a.completed.iter().any(|r| r.request.output_len == 1),
        "single-token requests are covered"
    );
    let capped = cases[2].build().run(&mut executor(None));
    assert!(
        capped.stages.iter().all(|s| s.batch < 16),
        "the KV budget caps the batch"
    );
    let truncated = cases[4].build().run(&mut executor(None));
    assert!(
        truncated.completed.len() < 60,
        "the stage cap truncates the run"
    );
}

fn serving_scenario() -> Scenario {
    // Interactive bursts pause batch-tier decodes several at a time,
    // and the multiplexer packs the paused ones into shared slots.
    Scenario::new(
        "shape-skip",
        Workload::gaussian(64, 48).with_cv(0.5).with_seed(11),
        Arrivals::Bursty {
            base_qps: 2.0,
            burst_qps: 80.0,
            mean_off_s: 0.4,
            mean_on_s: 0.1,
        },
        40,
    )
    .with_tiers(vec![
        SloTier::new("interactive", 0.4, 0, 0.08, 0.0),
        SloTier::new("batch", 0.6, 2, 120.0, 0.0),
    ])
    .with_conversation(ConversationSpec::chat(0.6, 3, 0.05, 24))
    .with_prefill_chunk(48)
}

fn preempting_policy() -> PreemptionPolicy {
    let spec = PreemptSpec::new()
        .with_threshold(0.75)
        .with_swap_link(KvLinkSpec::new(2e9, 1e-4))
        .with_recompute_rate(1e4);
    PreemptionPolicy::new(Box::new(PriorityTiers), spec).with_multiplex()
}

fn scenario_config() -> SimulationConfig {
    sim_config(4)
}

/// Serve the serving scenario on a one-replica fleet (the router never
/// chooses) and return the replica's report.
fn solo_run<E: StageExecutor>(executor: &mut E) -> SimReport {
    let mut policies: [Box<dyn SchedulingPolicy>; 1] = [Box::new(preempting_policy())];
    ClusterSimulation::new(
        vec![ReplicaConfig::new(scenario_config())],
        serving_scenario(),
    )
    .run(
        RouterKind::RoundRobin.build().as_mut(),
        &mut policies,
        std::slice::from_mut(executor),
    )
    .replicas
    .remove(0)
}

#[test]
fn scenario_skipping_the_shape_matches_the_materialized_run() {
    for skew in ROUTINGS {
        let what = format!("skew {skew:?}");
        let mut plain = executor(skew);
        let mut skip = DeltaOnly::new(executor(skew));
        let a = solo_run(&mut plain);
        let b = solo_run(&mut skip);
        assert_same(&a, &b, &what);
        assert_same(plain.total_cost(), &skip.total, &what);
        // The run exercised what the scenario scheduler adds.
        assert!(a.kv_reuse.reuse_hits > 0, "{what}: {:?}", a.kv_reuse);
        assert!(a.preempt.preemptions > 0, "{what}: {:?}", a.preempt);
        assert!(a.preempt.mux_slots > 0, "{what}: {:?}", a.preempt);
        assert!(skip.chunked > 0, "{what}: prompts were chunked");
    }
}

#[test]
fn fleet_skipping_the_shape_matches_the_materialized_run() {
    let configs = vec![ReplicaConfig::new(scenario_config()); 2];
    let policies = || -> Vec<Box<dyn SchedulingPolicy>> {
        (0..2)
            .map(|_| Box::new(preempting_policy()) as Box<dyn SchedulingPolicy>)
            .collect()
    };
    let sim = || ClusterSimulation::new(configs.clone(), serving_scenario());
    for skew in ROUTINGS {
        let what = format!("skew {skew:?}");
        let mut plain = [executor(skew), executor(skew)];
        let mut skip = [
            DeltaOnly::new(executor(skew)),
            DeltaOnly::new(executor(skew)),
        ];
        let router = || RouterKind::SessionAffinity.build();
        let a = sim().run(router().as_mut(), &mut policies(), &mut plain);
        let b = sim().run(router().as_mut(), &mut policies(), &mut skip);
        assert_same(&a, &b, &what);
        for (p, s) in plain.iter().zip(&skip) {
            assert_same(p.total_cost(), &s.total, &what);
        }
        assert!(a.completed() > 40, "{what}: follow-ups ran");

        // A mid-run snapshot resumed on fresh skipping executors picks
        // up the carried batch state and finishes the same run.
        let mut first = [
            DeltaOnly::new(executor(skew)),
            DeltaOnly::new(executor(skew)),
        ];
        let paused = sim().run_until(
            router().as_mut(),
            &mut policies(),
            &mut first,
            0.5 * a.total_time_s,
        );
        let snapshot = paused.snapshot().expect("the run pauses mid-way");
        let mut second = [
            DeltaOnly::new(executor(skew)),
            DeltaOnly::new(executor(skew)),
        ];
        let resumed = sim()
            .resume(&snapshot, router().as_mut(), &mut policies(), &mut second)
            .expect("the snapshot matches the fleet");
        assert_same(&resumed, &a, &format!("{what}, resumed"));
    }
}

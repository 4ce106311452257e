//! Cross-crate property tests: invariants of the full pipeline under
//! randomized stage shapes, workloads and splits.

use duplex::compute::kernel::GemmShape;
use duplex::compute::Engine;
use duplex::model::ops::StageShape;
use duplex::model::{ExpertRouter, ModelConfig};
use duplex::sched::{
    Arrivals, AutoscalePolicy, ClusterSimulation, ClusterSnapshot, ConversationSpec, DisaggPlan,
    FaultEvent, FaultKind, FaultPlan, KvLinkSpec, LatencyDigest, PendingRequest, Placement,
    PolicyKind, PoolRole, PreemptMode, PreemptSpec, PreemptionPolicy, PriorityTiers, ReplicaConfig,
    ReplicaSnapshot, Request, RetryPolicy, RouterKind, Scenario, ScenarioSimulation,
    SchedulingPolicy, Simulation, SimulationConfig, SloStats, StageDelta, StageExecutor,
    StageOutcome, TierStats, Workload,
};
use duplex::system::coproc::{split_experts, SplitScratch};
use duplex::system::{StageCost, SystemConfig, SystemExecutor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative difference, safe around zero.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Executor that prices every stage through the per-request reference
/// path, ignoring deltas — the oracle for the incremental executor.
/// (`stage_cost_reference` is a pure query, so the wrapper accumulates
/// energy itself.)
struct ReferenceExec {
    ex: SystemExecutor,
    energy_j: f64,
}

impl ReferenceExec {
    fn new(ex: SystemExecutor) -> Self {
        Self { ex, energy_j: 0.0 }
    }
}

impl StageExecutor for ReferenceExec {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        let cost = self.ex.stage_cost_reference(shape);
        self.energy_j += cost.energy.total();
        StageOutcome {
            seconds: cost.seconds,
        }
    }
}

/// The expert split with fresh lists per call: a stable sort by PIM
/// time, then every prefix split evaluated; returns the PIM and xPU
/// experts and their seconds. The oracle for the buffer-based
/// `split_experts`.
fn split_experts_allocating(costs: &[(f64, f64)]) -> (Vec<usize>, Vec<usize>, f64, f64) {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[a].0.partial_cmp(&costs[b].0).unwrap());
    let mut xpu_suffix = vec![0.0f64; order.len() + 1];
    for i in (0..order.len()).rev() {
        xpu_suffix[i] = xpu_suffix[i + 1] + costs[order[i]].1;
    }
    let (mut best_k, mut best_makespan, mut pim_prefix) = (0, f64::INFINITY, 0.0f64);
    for k in 0..=order.len() {
        let makespan = pim_prefix.max(xpu_suffix[k]);
        if makespan < best_makespan {
            (best_k, best_makespan) = (k, makespan);
        }
        if k < order.len() {
            pim_prefix += costs[order[k]].0;
        }
    }
    let pim: Vec<usize> = order[..best_k].to_vec();
    let xpu: Vec<usize> = order[best_k..].to_vec();
    let pim_s: f64 = pim.iter().map(|&i| costs[i].0).sum();
    let xpu_s: f64 = xpu.iter().map(|&i| costs[i].1).sum();
    (pim, xpu, pim_s, xpu_s)
}

/// The least makespan over all 2^n assignments of experts to units.
fn split_experts_exhaustive(costs: &[(f64, f64)]) -> f64 {
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << costs.len()) {
        let (mut pim, mut xpu) = (0.0f64, 0.0f64);
        for (i, c) in costs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                pim += c.0;
            } else {
                xpu += c.1;
            }
        }
        best = best.min(pim.max(xpu));
    }
    best
}

/// Every field of a stage cost, as bits.
fn cost_bits(c: &StageCost) -> [u64; 12] {
    [
        c.seconds,
        c.time.fc,
        c.time.attn_prefill,
        c.time.attn_decode,
        c.time.moe,
        c.time.comm,
        c.energy.fc_dram,
        c.energy.fc_comp,
        c.energy.attn_dram,
        c.energy.attn_comp,
        c.energy.moe_dram,
        c.energy.moe_comp,
    ]
    .map(f64::to_bits)
}

/// Prices every stage on the delta path and, next to it, prices the
/// scheduler's materialized shape on the grouped full path of a second
/// executor, recording every mixed stage whose two costs differ in any
/// bit.
struct CarriedVsGrouped {
    carried: SystemExecutor,
    grouped: SystemExecutor,
    mixed: usize,
    mismatches: Vec<String>,
}

impl StageExecutor for CarriedVsGrouped {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        unreachable!("the scenario scheduler announces every stage as a delta: {shape:?}")
    }

    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        let a = self.carried.stage_cost_delta(delta);
        let b = self.grouped.stage_cost(shape);
        if shape.is_mixed() {
            self.mixed += 1;
            if cost_bits(&a) != cost_bits(&b) {
                self.mismatches.push(format!("{delta:?}: {a:?} vs {b:?}"));
            }
        }
        StageOutcome { seconds: a.seconds }
    }
}

/// Constant-latency executor for fault-drill properties, where the
/// interesting state lives in the scheduler, not the pricing.
#[derive(Clone, Copy)]
struct FixedStage(f64);

impl StageExecutor for FixedStage {
    fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
        StageOutcome { seconds: self.0 }
    }
}

/// Linear per-token executor for the disaggregation oracle: every
/// stage costs the same dyadic constant per token processed, so total
/// priced seconds depend only on the token population, never on how
/// stages batch it or which replica runs it. It accumulates its own
/// charge so fleets can be compared by summing executors.
struct TokenLinear {
    per_token: f64,
    total_s: f64,
}

impl TokenLinear {
    fn fleet(n: usize) -> Vec<Self> {
        (0..n)
            .map(|_| Self {
                // A power of two: integer token counts price exactly,
                // so cross-fleet totals compare without rounding slop.
                per_token: 1.0 / 512.0,
                total_s: 0.0,
            })
            .collect()
    }
}

impl StageExecutor for TokenLinear {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        let tokens = shape.decode_ctx.len() as u64 + shape.prefill_len.iter().sum::<u64>();
        let seconds = self.per_token * tokens as f64;
        self.total_s += seconds;
        StageOutcome { seconds }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grouped fast path (grouped attention ops + expected-value
    /// routing + memoized kernel pricing + per-layer MoE collapse) is
    /// cost-equivalent to the per-request reference path on every
    /// system preset, for arbitrary stage shapes: same seconds, same
    /// per-class breakdown, same energy, within 1e-9 relative.
    #[test]
    fn grouped_fast_path_equals_reference(
        decode_ctx in proptest::collection::vec(16u64..3000, 1..20),
        prefill_len in proptest::collection::vec(64u64..1500, 0..3),
        dup_ctx in proptest::option::of(16u64..3000),
        seed in 0u64..1000,
    ) {
        // Duplicate one context several times so grouping has work to do.
        let mut decode_ctx = decode_ctx;
        if let Some(c) = dup_ctx {
            for _ in 0..4 {
                decode_ctx.push(c);
            }
        }
        let shape = StageShape::mixed(&decode_ctx, &prefill_len);
        let model = ModelConfig::mixtral_8x7b();
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex(4, 1),
            SystemConfig::duplex_pe(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::bank_pim(4, 1),
            SystemConfig::hetero(),
        ] {
            let name = system.name.clone();
            let mut fast = SystemExecutor::new(system.clone(), model.clone(), seed);
            let mut naive = SystemExecutor::new(system, model.clone(), seed);
            let a = fast.stage_cost(&shape);
            let b = naive.stage_cost_reference(&shape);
            prop_assert!(rel_diff(a.seconds, b.seconds) < 1e-9, "{name}: seconds");
            prop_assert!(rel_diff(a.time.fc, b.time.fc) < 1e-9, "{name}: fc");
            prop_assert!(
                rel_diff(a.time.attn_prefill, b.time.attn_prefill) < 1e-9,
                "{name}: attn_prefill"
            );
            prop_assert!(
                rel_diff(a.time.attn_decode, b.time.attn_decode) < 1e-9,
                "{name}: attn_decode"
            );
            prop_assert!(rel_diff(a.time.moe, b.time.moe) < 1e-9, "{name}: moe");
            prop_assert!(rel_diff(a.time.comm, b.time.comm) < 1e-9, "{name}: comm");
            prop_assert!(rel_diff(a.energy.total(), b.energy.total()) < 1e-9, "{name}: energy");
        }
    }

    /// Same equivalence on a two-node cluster (data-parallel round-robin
    /// placement of grouped multiplicities) with the Grok1 model.
    #[test]
    fn grouped_fast_path_equals_reference_two_nodes(
        decode_ctx in proptest::collection::vec(64u64..2000, 1..16),
        seed in 0u64..100,
    ) {
        let shape = StageShape::decode_only(&decode_ctx);
        let model = ModelConfig::grok1();
        let mut fast =
            SystemExecutor::new(SystemConfig::duplex_pe_et(8, 2), model.clone(), seed);
        let mut naive = SystemExecutor::new(SystemConfig::duplex_pe_et(8, 2), model, seed);
        let a = fast.stage_cost(&shape);
        let b = naive.stage_cost_reference(&shape);
        prop_assert!(rel_diff(a.seconds, b.seconds) < 1e-9, "seconds");
        prop_assert!(rel_diff(a.energy.total(), b.energy.total()) < 1e-9, "energy");
    }

    /// The incremental delta path equals the per-request reference path
    /// over full randomized serving traces: the scheduler emits
    /// admissions, retirements and pure advances from a Gaussian
    /// workload (optionally under Poisson arrivals), and every stage's
    /// latency — hence the whole simulated timeline — must match within
    /// 1e-9 relative.
    #[test]
    fn incremental_trace_equals_reference(
        mean_in in 32u64..512,
        mean_out in 4u64..32,
        requests in 4usize..20,
        batch in 1usize..12,
        seed in 0u64..1000,
        qps in proptest::option::of(1.0f64..50.0),
        duplex_system in 0u8..2,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = if duplex_system == 1 {
            SystemConfig::duplex_pe_et(4, 1)
        } else {
            SystemConfig::gpu(4, 1)
        };
        let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = ReferenceExec::new(SystemExecutor::new(system, model.clone(), 1));
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: inc.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let workload = Workload::gaussian(mean_in, mean_out).with_seed(seed);
        let mk = |w: Workload| match qps {
            Some(q) => Simulation::poisson(cfg, w, q, requests),
            None => Simulation::closed_loop(cfg, w, requests),
        };
        let a = mk(workload.clone()).run(&mut inc);
        let b = mk(workload).run(&mut oracle);
        prop_assert_eq!(a.stages.len(), b.stages.len());
        for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
            prop_assert_eq!(sa.batch, sb.batch);
            prop_assert!(
                rel_diff(sa.seconds, sb.seconds) < 1e-9,
                "stage {}: incremental {} vs reference {}",
                i, sa.seconds, sb.seconds
            );
        }
        prop_assert!(rel_diff(a.total_time_s, b.total_time_s) < 1e-9, "total time");
        prop_assert!(
            rel_diff(inc.total_cost().energy.total(), oracle.energy_j) < 1e-9,
            "energy"
        );
    }

    /// The delta path stays pinned to the reference oracle over
    /// *scenario* traces too: bursty on/off arrivals, policy-driven
    /// admission, SLO tiers, multi-turn conversations whose reuse
    /// admissions prefill a suffix but cross-attend their resident
    /// history (prefill-with-past via `StageDelta::admit_ctx`), and
    /// chunked prefill splitting long prompts into held
    /// prefill-with-past slices (`StageDelta::chunk`). Every stage
    /// latency and the whole timeline must match within 1e-9 relative.
    #[test]
    fn scenario_trace_equals_reference(
        mean_in in 32u64..256,
        mean_out in 4u64..24,
        requests in 4usize..14,
        batch in 1usize..10,
        seed in 0u64..1000,
        burst_qps in 20.0f64..2000.0,
        multi_turn_bit in 0u8..2,
        chunk in proptest::option::of(8u64..64),
        policy_idx in 0usize..4,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = ReferenceExec::new(SystemExecutor::new(system, model.clone(), 1));
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: inc.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let workload = Workload::gaussian(mean_in, mean_out).with_seed(seed);
        let arrivals = Arrivals::Bursty {
            base_qps: 0.0,
            burst_qps,
            mean_off_s: 0.5,
            mean_on_s: 0.2,
        };
        let multi_turn = multi_turn_bit == 1;
        let mk = || {
            let mut s = Scenario::new("prop", workload.clone(), arrivals.clone(), requests)
                .with_tiers(Scenario::default_tiers(0.01))
                .with_prefill_chunk(chunk.unwrap_or(0));
            if multi_turn {
                s = s.with_conversation(ConversationSpec::chat(0.7, 3, 0.05, 16));
            }
            s
        };
        let kind = PolicyKind::ALL[policy_idx];
        let a = ScenarioSimulation::new(cfg, mk()).run(kind.build().as_mut(), &mut inc);
        let b = ScenarioSimulation::new(cfg, mk()).run(kind.build().as_mut(), &mut oracle);
        prop_assert_eq!(a.stages.len(), b.stages.len());
        for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
            prop_assert_eq!(sa.batch, sb.batch);
            prop_assert!(
                rel_diff(sa.seconds, sb.seconds) < 1e-9,
                "stage {}: incremental {} vs reference {}",
                i, sa.seconds, sb.seconds
            );
        }
        prop_assert!(rel_diff(a.total_time_s, b.total_time_s) < 1e-9, "total time");
        prop_assert!(
            rel_diff(inc.total_cost().energy.total(), oracle.energy_j) < 1e-9,
            "energy"
        );
        prop_assert_eq!(a.completed.len(), b.completed.len());
        prop_assert_eq!(a.kv_reuse, b.kv_reuse);
        if multi_turn {
            prop_assert!(a.completed.len() >= requests);
        }
    }

    /// Mixed stages priced from the carried batch state cost exactly
    /// what the grouped full path charges for the scheduler's
    /// materialized shape, in every field to the bit, over scenario
    /// traces with reuse admissions, held chunks and every admission
    /// policy, on a one- and a two-node system.
    #[test]
    fn carried_mixed_stages_equal_grouped_full_path(
        mean_in in 32u64..256,
        mean_out in 4u64..24,
        requests in 4usize..14,
        batch in 1usize..10,
        seed in 0u64..1000,
        burst_qps in 20.0f64..2000.0,
        multi_turn_bit in 0u8..2,
        chunk in proptest::option::of(8u64..64),
        policy_idx in 0usize..4,
        two_nodes in 0u8..2,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1 + u32::from(two_nodes));
        let mut exec = CarriedVsGrouped {
            carried: SystemExecutor::new(system.clone(), model.clone(), 1),
            grouped: SystemExecutor::new(system, model.clone(), 1),
            mixed: 0,
            mismatches: Vec::new(),
        };
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: exec.carried.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let arrivals = Arrivals::Bursty {
            base_qps: 0.0,
            burst_qps,
            mean_off_s: 0.5,
            mean_on_s: 0.2,
        };
        let mut scenario = Scenario::new(
            "prop",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            arrivals,
            requests,
        )
        .with_prefill_chunk(chunk.unwrap_or(0));
        if multi_turn_bit == 1 {
            scenario = scenario.with_conversation(ConversationSpec::chat(0.7, 3, 0.05, 16));
        }
        let kind = PolicyKind::ALL[policy_idx];
        ScenarioSimulation::new(cfg, scenario).run(kind.build().as_mut(), &mut exec);
        prop_assert!(exec.mixed > 0);
        prop_assert!(exec.mismatches.is_empty(), "{:#?}", exec.mismatches);
    }

    /// A one-replica cluster is the plain scenario scheduler, bit for
    /// bit: same stage stream, same timeline, same completions — for
    /// every shipped router, over randomized scenarios (conversations,
    /// tiers, chunking) on a real `SystemExecutor`.
    #[test]
    fn one_replica_cluster_equals_scenario_simulation(
        mean_in in 32u64..256,
        mean_out in 4u64..24,
        requests in 4usize..14,
        batch in 1usize..10,
        seed in 0u64..1000,
        qps in 20.0f64..2000.0,
        multi_turn_bit in 0u8..2,
        chunk in proptest::option::of(8u64..64),
        policy_idx in 0usize..4,
        router_idx in 0usize..RouterKind::ALL.len(),
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut plain_ex = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut cluster_ex = SystemExecutor::new(system, model.clone(), 1);
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: plain_ex.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let mk = || {
            let mut s = Scenario::new(
                "prop",
                Workload::gaussian(mean_in, mean_out).with_seed(seed),
                Arrivals::Poisson { qps },
                requests,
            )
            .with_tiers(Scenario::default_tiers(0.01))
            .with_prefill_chunk(chunk.unwrap_or(0));
            if multi_turn_bit == 1 {
                s = s.with_conversation(ConversationSpec::chat(0.7, 3, 0.05, 16));
            }
            s
        };
        let kind = PolicyKind::ALL[policy_idx];
        let plain = ScenarioSimulation::new(cfg, mk()).run(kind.build().as_mut(), &mut plain_ex);
        let mut policies: Vec<Box<dyn SchedulingPolicy>> = vec![kind.build()];
        let cluster = ClusterSimulation::new(vec![ReplicaConfig::new(cfg)], mk()).run(
            RouterKind::ALL[router_idx].build().as_mut(),
            &mut policies,
            std::slice::from_mut(&mut cluster_ex),
        );
        let r = &cluster.replicas[0];
        prop_assert_eq!(&r.stage_stats, &plain.stage_stats);
        prop_assert_eq!(r.total_time_s.to_bits(), plain.total_time_s.to_bits());
        prop_assert_eq!(r.completed.len(), plain.completed.len());
        for (a, b) in r.completed.iter().zip(&plain.completed) {
            prop_assert_eq!(a.request, b.request);
            prop_assert_eq!(a.first_token_s.to_bits(), b.first_token_s.to_bits());
            prop_assert_eq!(a.last_token_s.to_bits(), b.last_token_s.to_bits());
        }
        prop_assert_eq!(r.kv_reuse, plain.kv_reuse);
        prop_assert_eq!(
            plain_ex.total_cost().energy.total().to_bits(),
            cluster_ex.total_cost().energy.total().to_bits()
        );
    }

    /// Fleet totals stay pinned to the reference oracle: running the
    /// same routed fleet once on the incremental delta path and once
    /// through per-request `stage_cost_reference` pricing must agree
    /// per replica — timeline and energy — within 1e-9 relative.
    /// (Round-robin placement is pricing-independent, so both runs
    /// route identically.)
    #[test]
    fn cluster_totals_equal_reference_pricing_sum(
        mean_in in 32u64..256,
        mean_out in 4u64..24,
        requests in 6usize..18,
        batch in 1usize..8,
        seed in 0u64..1000,
        qps in 50.0f64..2000.0,
        replicas in 2usize..5,
        multi_turn_bit in 0u8..2,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut fast: Vec<SystemExecutor> = (0..replicas)
            .map(|_| SystemExecutor::new(system.clone(), model.clone(), 1))
            .collect();
        let mut oracle: Vec<ReferenceExec> = (0..replicas)
            .map(|_| ReferenceExec::new(SystemExecutor::new(system.clone(), model.clone(), 1)))
            .collect();
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: fast[0].kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let mk = || {
            let mut s = Scenario::new(
                "prop",
                Workload::gaussian(mean_in, mean_out).with_seed(seed),
                Arrivals::Poisson { qps },
                requests,
            );
            if multi_turn_bit == 1 {
                s = s.with_conversation(ConversationSpec::chat(0.6, 3, 0.05, 16));
            }
            s
        };
        let configs = vec![ReplicaConfig::new(cfg); replicas];
        let mut p1: Vec<Box<dyn SchedulingPolicy>> =
            (0..replicas).map(|_| PolicyKind::Fcfs.build()).collect();
        let a = ClusterSimulation::new(configs.clone(), mk()).run(
            &mut duplex::sched::RoundRobin::default(),
            &mut p1,
            &mut fast,
        );
        let mut p2: Vec<Box<dyn SchedulingPolicy>> =
            (0..replicas).map(|_| PolicyKind::Fcfs.build()).collect();
        let b = ClusterSimulation::new(configs, mk()).run(
            &mut duplex::sched::RoundRobin::default(),
            &mut p2,
            &mut oracle,
        );
        prop_assert_eq!(a.completed(), b.completed());
        prop_assert_eq!(a.generated_tokens(), b.generated_tokens());
        for (ra, rb) in a.replicas.iter().zip(&b.replicas) {
            prop_assert_eq!(ra.stage_stats.stages, rb.stage_stats.stages);
            prop_assert!(
                rel_diff(ra.total_time_s, rb.total_time_s) < 1e-9,
                "replica time {} vs reference {}",
                ra.total_time_s,
                rb.total_time_s
            );
        }
        prop_assert!(rel_diff(a.total_time_s, b.total_time_s) < 1e-9);
        // Fleet energy: the sum of per-replica delta-path totals must
        // match the sum of reference-priced totals.
        let fast_energy: f64 = fast.iter().map(|e| e.total_cost().energy.total()).sum();
        let oracle_energy: f64 = oracle.iter().map(|e| e.energy_j).sum();
        prop_assert!(
            rel_diff(fast_energy, oracle_energy) < 1e-9,
            "fleet energy {} vs reference {}",
            fast_energy,
            oracle_energy
        );
    }

    /// The grouped fast path equals the per-request reference for
    /// arbitrary prefill-with-past stages: random `(new, past)` pairs,
    /// held chunk slices, duplicated groups — the tentpole's exactness
    /// claim at the single-stage level.
    #[test]
    fn prefill_with_past_grouped_equals_reference(
        decode_ctx in proptest::collection::vec(16u64..2000, 0..12),
        prefills in proptest::collection::vec((16u64..512, 0u64..2048, 0u8..2), 1..6),
        dup in 0u8..2,
        seed in 0u64..500,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let mut shape = StageShape::decode_only(&decode_ctx);
        for &(len, past, hold) in &prefills {
            shape.push_prefill(len, past, hold == 1);
        }
        if dup == 1 {
            // Duplicate the first prefill so grouping has work to do.
            let (len, past, hold) = (
                shape.prefill_len[0],
                shape.prefill_past_of(0),
                !shape.prefill_samples(0),
            );
            shape.push_prefill(len, past, hold);
        }
        for system in [
            SystemConfig::gpu(4, 1),
            SystemConfig::duplex_pe_et(4, 1),
            SystemConfig::hetero(),
        ] {
            let name = system.name.clone();
            let mut fast = SystemExecutor::new(system.clone(), model.clone(), seed);
            let mut naive = SystemExecutor::new(system, model.clone(), seed);
            let a = fast.stage_cost(&shape);
            let b = naive.stage_cost_reference(&shape);
            prop_assert!(rel_diff(a.seconds, b.seconds) < 1e-9, "{name}: seconds");
            prop_assert!(
                rel_diff(a.time.attn_prefill, b.time.attn_prefill) < 1e-9,
                "{name}: attn_prefill"
            );
            prop_assert!(rel_diff(a.energy.total(), b.energy.total()) < 1e-9, "{name}: energy");
        }
    }

    /// Same trace equivalence on the two-node Grok cluster, where
    /// incremental pricing must also reproduce round-robin data-parallel
    /// placement of the carried groups.
    #[test]
    fn incremental_trace_equals_reference_two_nodes(
        mean_out in 4u64..24,
        requests in 4usize..12,
        batch in 1usize..8,
        seed in 0u64..200,
    ) {
        let model = ModelConfig::grok1();
        let system = SystemConfig::duplex_pe_et(8, 2);
        let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = ReferenceExec::new(SystemExecutor::new(system, model.clone(), 1));
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: inc.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let workload = Workload::gaussian(128, mean_out).with_seed(seed);
        let a = Simulation::closed_loop(cfg, workload.clone(), requests).run(&mut inc);
        let b = Simulation::closed_loop(cfg, workload, requests).run(&mut oracle);
        prop_assert_eq!(a.stages.len(), b.stages.len());
        for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
            prop_assert!(
                rel_diff(sa.seconds, sb.seconds) < 1e-9,
                "stage {}: incremental {} vs reference {}",
                i, sa.seconds, sb.seconds
            );
        }
        prop_assert!(rel_diff(a.total_time_s, b.total_time_s) < 1e-9, "total time");
    }

    /// Stage costs are positive, finite, and co-processing never makes a
    /// stage slower than the serialized breakdown.
    #[test]
    fn stage_cost_sane(
        batch in 1usize..24,
        ctx in 16u64..3000,
        prefill in proptest::option::of(64u64..1500),
        seed in 0u64..1000,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        for system in [SystemConfig::gpu(4, 1), SystemConfig::duplex_pe(4, 1)] {
            let mut ex = SystemExecutor::new(system, model.clone(), seed);
            let shape = match prefill {
                Some(p) => StageShape::mixed(&vec![ctx; batch], &[p]),
                None => StageShape::decode_only(&vec![ctx; batch]),
            };
            let c = ex.stage_cost(&shape);
            prop_assert!(c.seconds.is_finite() && c.seconds > 0.0);
            prop_assert!(c.seconds <= c.time.total() + 1e-12);
            prop_assert!(c.energy.total() > 0.0);
        }
    }

    /// More decode requests never make a stage cheaper.
    #[test]
    fn stage_cost_monotone_in_batch(batch in 1usize..16, ctx in 64u64..2048) {
        let model = ModelConfig::mixtral_8x7b();
        let mut ex = SystemExecutor::new(SystemConfig::gpu(4, 1), model, 0);
        let small = ex.stage_cost(&StageShape::decode_only(&vec![ctx; batch]));
        let large = ex.stage_cost(&StageShape::decode_only(&vec![ctx; batch * 2]));
        prop_assert!(large.seconds >= small.seconds * 0.999);
    }

    /// The expert split never exceeds either single-unit assignment.
    #[test]
    fn expert_split_bounded(costs in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..24)) {
        let mut scratch = SplitScratch::default();
        let s = split_experts(costs.len(), |i| costs[i], &mut scratch);
        let all_pim: f64 = costs.iter().map(|c| c.0).sum();
        let all_xpu: f64 = costs.iter().map(|c| c.1).sum();
        prop_assert!(s.makespan() <= all_pim + 1e-9);
        prop_assert!(s.makespan() <= all_xpu + 1e-9);
        prop_assert_eq!(s.pim_experts().len() + s.xpu_experts().len(), costs.len());
    }

    /// The buffer-based split equals the allocating one to the bit,
    /// with its buffers left over from a split of another list, on
    /// continuous costs and on coarse ones full of ties. No split of
    /// all 2^n partitions beats it by more than rounding.
    #[test]
    fn buffered_expert_split_matches_its_oracles(
        continuous in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..14),
        coarse in proptest::collection::vec((0u32..6, 0u32..6), 0..14),
        previous in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..24),
    ) {
        let coarse: Vec<(f64, f64)> = coarse
            .iter()
            .map(|&(p, x)| (f64::from(p) * 0.25, f64::from(x) * 0.25))
            .collect();
        let mut scratch = SplitScratch::default();
        for costs in [&continuous, &coarse] {
            split_experts(previous.len(), |i| previous[i], &mut scratch);
            let s = split_experts(costs.len(), |i| costs[i], &mut scratch);
            let (pim, xpu, pim_s, xpu_s) = split_experts_allocating(costs);
            prop_assert_eq!(s.pim_experts(), &pim[..]);
            prop_assert_eq!(s.xpu_experts(), &xpu[..]);
            prop_assert_eq!(s.pim_seconds.to_bits(), pim_s.to_bits());
            prop_assert_eq!(s.xpu_seconds.to_bits(), xpu_s.to_bits());
            let optimum = split_experts_exhaustive(costs);
            prop_assert!(optimum <= s.makespan() * (1.0 + 1e-12), "{} < {}", s.makespan(), optimum);
        }
    }

    /// Router counts always sum to tokens * top_k, for any expert count.
    #[test]
    fn router_conserves_tokens(
        n_experts in 1u32..96,
        tokens in 0u64..5000,
        seed in 0u64..500,
        skew in 0.0f64..2.0,
    ) {
        let top_k = 1 + (seed % u64::from(n_experts)) as u32;
        let router = ExpertRouter::zipf(n_experts, top_k.min(n_experts), skew);
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = router.route(&mut rng, tokens);
        prop_assert_eq!(counts.iter().sum::<u64>(), tokens * u64::from(router.top_k()));
    }

    /// Roofline: more DRAM bytes never make a GEMM faster; more tokens
    /// never lower total time.
    #[test]
    fn kernel_cost_monotone(m in 1u64..512, bytes in 1u64..200_000_000) {
        let pim = Engine::logic_pim();
        let shape = GemmShape { m, n: 14336, k: 4096 };
        let a = pim.gemm_cost(shape, bytes);
        let b = pim.gemm_cost(shape, bytes * 2);
        prop_assert!(b.seconds >= a.seconds - 1e-15);
        let taller = GemmShape { m: m * 2, ..shape };
        let c = pim.gemm_cost(taller, bytes);
        prop_assert!(c.seconds >= a.seconds - 1e-15);
    }

    /// Fleet aggregation is order-independent: merging per-replica
    /// digests and SLO counters in any replica order yields the same
    /// population — counts exactly, floating-point accumulators to
    /// within reassociation noise.
    #[test]
    fn digest_and_slo_merge_are_order_independent(
        groups in proptest::collection::vec(
            proptest::collection::vec(1e-6f64..10.0, 0..40), 2..6),
        perm_seed in 0u64..10_000,
    ) {
        // Seeded Fisher-Yates: a uniform permutation of the replicas.
        let mut perm: Vec<usize> = (0..groups.len()).collect();
        let mut rng = StdRng::seed_from_u64(perm_seed);
        for i in (1..perm.len()).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let replica = |samples: &[f64]| {
            let mut digest = LatencyDigest::default();
            for &s in samples {
                digest.record(s);
            }
            let met = (samples.len() / 2) as u64;
            let slo = SloStats {
                tiers: vec![TierStats {
                    name: "interactive".into(),
                    t2ft_deadline_s: 0.01,
                    tbt_deadline_s: 0.001,
                    completed: samples.len() as u64,
                    met,
                    good_tokens: 32 * met,
                    tbt_digest: digest.clone(),
                }],
            };
            (digest, slo)
        };
        let mut fwd_digest = LatencyDigest::default();
        let mut fwd_slo = SloStats::default();
        for g in &groups {
            let (d, s) = replica(g);
            fwd_digest.merge(&d);
            fwd_slo.merge(&s);
        }
        let mut perm_digest = LatencyDigest::default();
        let mut perm_slo = SloStats::default();
        for &i in &perm {
            let (d, s) = replica(&groups[i]);
            perm_digest.merge(&d);
            perm_slo.merge(&s);
        }
        // Counts (and everything derived from them) are exact.
        prop_assert_eq!(fwd_digest.count(), perm_digest.count());
        let (a, b) = (fwd_digest.summary(), perm_digest.summary());
        prop_assert_eq!(a.count, b.count);
        // Quantiles and means come from f64 bucket sums: equal up to
        // reassociation of the per-replica additions.
        prop_assert!(rel_diff(a.p50, b.p50) < 1e-12);
        prop_assert!(rel_diff(a.p99, b.p99) < 1e-12);
        prop_assert!(rel_diff(a.mean, b.mean) < 1e-12);
        let (ft, pt) = (&fwd_slo.tiers, &perm_slo.tiers);
        prop_assert_eq!(ft.len(), pt.len());
        for (x, y) in ft.iter().zip(pt) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!(x.completed, y.completed);
            prop_assert_eq!(x.met, y.met);
            prop_assert_eq!(x.good_tokens, y.good_tokens);
            prop_assert_eq!(x.tbt_digest.count(), y.tbt_digest.count());
        }
        prop_assert!(rel_diff(fwd_slo.attainment(), perm_slo.attainment()) < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash → retry → recover is deterministic machinery, not noise:
    /// on a 3-replica fleet with conversations and SLO tiers, a
    /// randomized mid-run crash (random time, outage length, retry
    /// budget) must (a) inject the crash and retry or keep every
    /// request as its budget says, and (b) survive a snapshot taken
    /// mid-outage — JSON round-trip included — resuming to the exact
    /// uninterrupted report. Both claims hold for every shipped router.
    #[test]
    fn crash_retry_recover_is_deterministic_and_resumable(
        mean_in in 32u64..128,
        mean_out in 4u64..16,
        requests in 8usize..20,
        seed in 0u64..1000,
        qps in 100.0f64..800.0,
        crash_frac in 0.2f64..0.6,
        down_s in 0.005f64..0.05,
        max_retries in 0u32..4,
    ) {
        let cfg = SimulationConfig {
            max_batch: 4,
            kv_capacity_bytes: 1 << 30,
            kv_bytes_per_token: 64,
            ..SimulationConfig::default()
        };
        let mk = || Scenario::new(
            "prop-crash",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Poisson { qps },
            requests,
        )
        .with_tiers(Scenario::default_tiers(0.01))
        .with_conversation(ConversationSpec::chat(0.7, 3, 0.05, 16));
        let span_est = requests as f64 / qps;
        let crash_at = crash_frac * span_est;
        let plan = FaultPlan::new(vec![FaultEvent::new(
            crash_at,
            0,
            FaultKind::Crash { down_s },
        )])
        .with_retry(RetryPolicy::new(max_retries).with_backoff(0.001, 2.0))
        .with_warmup(0.01, 2.0)
        .with_recovery_tracking(0.7, span_est / 20.0, 0.05);
        let configs = vec![ReplicaConfig::new(cfg); 3];
        for kind in RouterKind::ALL {
            let mk_sim =
                || ClusterSimulation::new(configs.clone(), mk()).with_faults(plan.clone());
            let mk_pol = || -> Vec<Box<dyn SchedulingPolicy>> {
                (0..3).map(|_| PolicyKind::PriorityTiers.build()).collect()
            };
            let full = mk_sim().run(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 3],
            );
            prop_assert_eq!(full.recovery.faults_injected, 1);
            if max_retries == 0 {
                prop_assert_eq!(full.recovery.retries_issued, 0);
            } else {
                prop_assert_eq!(full.recovery.requests_dropped, 0);
            }

            // Pause mid-outage (the crashed replica is still down),
            // push the snapshot through JSON, resume fresh.
            let stop_s = crash_at + 0.5 * down_s;
            let paused = mk_sim().run_until(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 3],
                stop_s,
            );
            if let Some(snapshot) = paused.snapshot() {
                let restored = ClusterSnapshot::from_json(&snapshot.to_json())
                    .expect("the wire format round-trips");
                prop_assert_eq!(&restored, &snapshot);
                let resumed = mk_sim()
                    .resume(
                        &restored,
                        kind.build().as_mut(),
                        &mut mk_pol(),
                        &mut [FixedStage(0.002); 3],
                    )
                    .expect("the snapshot matches the fleet");
                prop_assert_eq!(&resumed, &full);
            }
        }
    }

    /// Elastic autoscaling is deterministic machinery too: on a
    /// 5-replica pool over randomized diurnal load (amplitude, period,
    /// offered rate) with randomized autoscaler thresholds and
    /// provisioning, the run must (a) complete every request, (b)
    /// survive a snapshot taken mid-run — pool membership, hysteresis
    /// streaks and in-flight scale events all live — resuming through
    /// JSON to the exact uninterrupted report, and (c) never bill the
    /// fleet below the configured replica floor.
    #[test]
    fn autoscaling_is_deterministic_resumable_and_floored(
        mean_in in 32u64..128,
        mean_out in 4u64..16,
        requests in 12usize..24,
        seed in 0u64..1000,
        qps in 200.0f64..900.0,
        amplitude in 0.3f64..0.95,
        periods in 1.5f64..4.0,
        up_pressure in 0.6f64..1.6,
        down_pressure in 0.05f64..0.45,
        up_windows in 1u32..3,
        down_windows in 1u32..4,
        provision_s in 0.001f64..0.02,
        warmup_s in 0.0f64..0.01,
        min_replicas in 1usize..4,
        stop_frac in 0.15f64..0.85,
    ) {
        let cfg = SimulationConfig {
            max_batch: 4,
            kv_capacity_bytes: 1 << 30,
            kv_bytes_per_token: 64,
            ..SimulationConfig::default()
        };
        let span_est = requests as f64 / qps;
        let mk = || Scenario::new(
            "prop-autoscale",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Diurnal {
                mean_qps: qps,
                period_s: span_est / periods,
                amplitude,
            },
            requests,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let policy = AutoscalePolicy::new(min_replicas)
            .with_pressure(up_pressure, down_pressure)
            .with_cadence(span_est / 40.0, up_windows, down_windows)
            .with_cooldown(span_est / 40.0)
            .with_provisioning(provision_s, warmup_s, 1.5);
        let configs = vec![ReplicaConfig::new(cfg); 5];
        let kind = RouterKind::LeastOutstandingWork;
        let mk_sim =
            || ClusterSimulation::new(configs.clone(), mk()).with_autoscale(policy.clone());
        let mk_pol = || -> Vec<Box<dyn SchedulingPolicy>> {
            (0..5).map(|_| PolicyKind::PriorityTiers.build()).collect()
        };
        let full = mk_sim().run(
            kind.build().as_mut(),
            &mut mk_pol(),
            &mut [FixedStage(0.002); 5],
        );
        prop_assert_eq!(full.completed(), requests);

        // The floor holds: every drain the autoscaler issued left at
        // least `min_replicas` admitting, so the fleet can never have
        // billed less than the floor's share of the run — and the pool
        // can never have been over-drained into negative membership.
        prop_assert!(full.scaling.scale_downs <= full.scaling.scale_ups);
        let floor_bill = min_replicas as f64 * full.total_time_s;
        prop_assert!(
            full.replica_seconds >= floor_bill - 1e-9,
            "billed {} replica-seconds, the floor alone is {}",
            full.replica_seconds,
            floor_bill
        );
        if full.scaling.scale_ups > 0 {
            prop_assert!(full.scaling.scale_up_lag_s > 0.0);
        }

        // Pause mid-run, push the snapshot through JSON, resume fresh.
        let stop_s = stop_frac * full.total_time_s;
        let paused = mk_sim().run_until(
            kind.build().as_mut(),
            &mut mk_pol(),
            &mut [FixedStage(0.002); 5],
            stop_s,
        );
        if let Some(snapshot) = paused.snapshot() {
            let restored = ClusterSnapshot::from_json(&snapshot.to_json())
                .expect("the wire format round-trips");
            prop_assert_eq!(&restored, &snapshot);
            let resumed = mk_sim()
                .resume(
                    &restored,
                    kind.build().as_mut(),
                    &mut mk_pol(),
                    &mut [FixedStage(0.002); 5],
                )
                .expect("the snapshot matches the fleet");
            prop_assert_eq!(&resumed, &full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Disaggregation moves work, it does not invent any: over a free
    /// interconnect (infinite bandwidth, zero latency) and identical
    /// replicas, a prefill/decode pool split prices exactly the same
    /// total stage seconds as the colocated oracle under a linear
    /// per-token executor — the prompt runs as held chunks on the
    /// prefill pool plus a one-token context join on the decode pool,
    /// the same token population the colocated fleet prices in one
    /// admission. Holds for every shipped router.
    #[test]
    fn zero_cost_link_disagg_prices_the_colocated_token_population(
        mean_in in 16u64..96,
        mean_out in 4u64..16,
        requests in 8usize..20,
        seed in 0u64..1000,
        qps in 100.0f64..800.0,
    ) {
        let cfg = SimulationConfig {
            max_batch: 4,
            kv_capacity_bytes: 1 << 30,
            kv_bytes_per_token: 64,
            ..SimulationConfig::default()
        };
        let mk = || Scenario::new(
            "prop-disagg",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Poisson { qps },
            requests,
        );
        let configs = vec![ReplicaConfig::new(cfg); 4];
        let free_link = KvLinkSpec::new(f64::INFINITY, 0.0);
        let mk_pol = || -> Vec<Box<dyn SchedulingPolicy>> {
            (0..4).map(|_| PolicyKind::Fcfs.build()).collect()
        };
        for kind in RouterKind::ALL {
            let mut colo_ex = TokenLinear::fleet(4);
            let colocated = ClusterSimulation::new(configs.clone(), mk()).run(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut colo_ex,
            );
            let mut split_ex = TokenLinear::fleet(4);
            let split = ClusterSimulation::new(configs.clone(), mk())
                .with_disagg(DisaggPlan::new(vec![0, 1]))
                .with_kv_link(free_link)
                .run(kind.build().as_mut(), &mut mk_pol(), &mut split_ex);

            prop_assert_eq!(colocated.completed(), requests);
            prop_assert_eq!(split.completed(), requests);
            prop_assert_eq!(split.disagg.handoffs as usize, requests);
            prop_assert_eq!(split.disagg.reprefills, 0);
            prop_assert_eq!(split.disagg.transfer_seconds, 0.0);

            let colo_s: f64 = colo_ex.iter().map(|e| e.total_s).sum();
            let split_s: f64 = split_ex.iter().map(|e| e.total_s).sum();
            prop_assert!(
                rel_diff(colo_s, split_s) <= 1e-9,
                "router {:?}: colocated priced {colo_s} stage-seconds, the pool split {split_s}",
                kind
            );
        }
    }

    /// The placement API's compatibility contract: on a fleet with no
    /// prefill pool, every shipped router's two-dimensional
    /// [`Router::place`] is byte-identical to its one-dimensional
    /// [`Router::decide`] lifted into `prefill == decode` — for any
    /// snapshot the balancer might poll and any request sequence, with
    /// router state evolving in lockstep across the whole sequence.
    #[test]
    fn colocated_place_is_decide_lifted_for_every_router(
        fleet in proptest::collection::vec(
            (0usize..8, 0usize..8, 0u64..5000, 0u64..(1 << 20), 0.5f64..2.0, 0u8..2),
            2..6,
        ),
        traffic in proptest::collection::vec(
            (1u64..2048, 1u64..256, 0u64..500, 0u64..64),
            1..12,
        ),
    ) {
        let replicas: Vec<ReplicaSnapshot> = fleet
            .iter()
            .enumerate()
            .map(|(i, &(in_flight, queued, outstanding, kv, weight, accepts))| {
                ReplicaSnapshot {
                    now_s: 0.0,
                    in_flight,
                    queued,
                    max_batch: 8,
                    outstanding_tokens: outstanding,
                    kv_reserved_bytes: kv,
                    kv_capacity_bytes: 1 << 30,
                    weight,
                    resident_history_tokens: 0,
                    // Routers may only avoid non-accepting replicas
                    // while an accepting one exists; pin one.
                    accepting: accepts == 1 || i == 0,
                    role: PoolRole::Colocated,
                    transfer_backlog_bytes: 0,
                }
            })
            .collect();
        for kind in RouterKind::ALL {
            let mut placed = kind.build();
            let mut decided = kind.build();
            for (i, &(input, output, conversation, history)) in traffic.iter().enumerate() {
                let pending = PendingRequest {
                    request: Request {
                        id: i as u64,
                        arrival_s: i as f64 * 1e-3,
                        input_len: input,
                        output_len: output,
                    },
                    tier: 0,
                    priority: 0,
                    deadline_s: f64::INFINITY,
                    conversation,
                    round: 1,
                    history_tokens: history.min(input.saturating_sub(1)),
                    skipped: 0,
                };
                let two_d = placed.place(&pending, &replicas);
                let one_d = Placement::from_decision(decided.decide(&pending, &replicas));
                prop_assert!(
                    two_d == one_d,
                    "router {:?}, request {}: place {:?} != lifted decide {:?}",
                    kind,
                    i,
                    two_d,
                    one_d
                );
                prop_assert!(two_d.is_colocated());
            }
            prop_assert_eq!(placed.export_state(), decided.export_state());
        }
    }

    /// A disaggregated fleet is deterministic machinery end to end: on
    /// a 2+2 pool split over a priced interconnect, the run must (a)
    /// hand every request off from the prefill pool, and (b) survive a
    /// snapshot taken at a random fraction of the run — admission-time
    /// decode assignments mid-transfer — resuming through JSON to the
    /// exact uninterrupted report. Both claims hold for every shipped
    /// router.
    #[test]
    fn disaggregated_serving_is_deterministic_and_resumable(
        mean_in in 32u64..128,
        mean_out in 4u64..16,
        requests in 8usize..20,
        seed in 0u64..1000,
        qps in 100.0f64..800.0,
        link_bytes_per_s in 1e5f64..1e7,
        link_latency_s in 0.0f64..0.005,
        stop_frac in 0.15f64..0.85,
    ) {
        let cfg = SimulationConfig {
            max_batch: 4,
            kv_capacity_bytes: 1 << 30,
            kv_bytes_per_token: 64,
            ..SimulationConfig::default()
        };
        let mk = || Scenario::new(
            "prop-disagg-snap",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Poisson { qps },
            requests,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let link = KvLinkSpec::new(link_bytes_per_s, link_latency_s);
        let configs = vec![ReplicaConfig::new(cfg); 4];
        for kind in RouterKind::ALL {
            let mk_sim = || {
                ClusterSimulation::new(configs.clone(), mk())
                    .with_disagg(DisaggPlan::new(vec![0, 1]))
                    .with_kv_link(link)
            };
            let mk_pol = || -> Vec<Box<dyn SchedulingPolicy>> {
                (0..4).map(|_| PolicyKind::PriorityTiers.build()).collect()
            };
            let full = mk_sim().run(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 4],
            );
            prop_assert_eq!(full.completed(), requests);
            prop_assert_eq!(full.disagg.handoffs as usize, requests);
            prop_assert!(full.disagg.kv_bytes_shipped > 0);

            // Pause mid-run, push the snapshot through JSON, resume fresh.
            let stop_s = stop_frac * full.total_time_s;
            let paused = mk_sim().run_until(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 4],
                stop_s,
            );
            if let Some(snapshot) = paused.snapshot() {
                let restored = ClusterSnapshot::from_json(&snapshot.to_json())
                    .expect("the wire format round-trips");
                prop_assert_eq!(&restored, &snapshot);
                let resumed = mk_sim()
                    .resume(
                        &restored,
                        kind.build().as_mut(),
                        &mut mk_pol(),
                        &mut [FixedStage(0.002); 4],
                    )
                    .expect("the snapshot matches the fleet");
                prop_assert_eq!(&resumed, &full);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Preemption keeps the incremental fast path honest: with pauses
    /// retiring victims mid-decode, swap restores rejoining at full
    /// context and recomputes re-prefilling from scratch, the delta
    /// path must still price every stage exactly like the per-request
    /// `stage_cost_reference` oracle — within 1e-9 relative — over
    /// randomized preemption thresholds, swap/recompute price ratios
    /// and multiplex settings.
    #[test]
    fn preemptive_trace_equals_reference(
        mean_in in 32u64..192,
        mean_out in 16u64..64,
        requests in 8usize..20,
        batch in 2usize..6,
        seed in 0u64..1000,
        qps in 100.0f64..1200.0,
        threshold in 0.5f64..0.95,
        swap_gb_s in 1e8f64..1e10,
        swap_lat in 1e-4f64..5e-3,
        recompute_rate in 1e3f64..1e5,
        mode_idx in 0usize..3,
        chunk in proptest::option::of(8u64..64),
        mux_bit in 0u8..2,
    ) {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let mut inc = SystemExecutor::new(system.clone(), model.clone(), 1);
        let mut oracle = ReferenceExec::new(SystemExecutor::new(system, model.clone(), 1));
        let cfg = SimulationConfig {
            max_batch: batch,
            kv_capacity_bytes: inc.kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            ..SimulationConfig::default()
        };
        let mk = || Scenario::new(
            "prop-preempt",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Poisson { qps },
            requests,
        )
        .with_tiers(Scenario::default_tiers(0.01))
        .with_prefill_chunk(chunk.unwrap_or(0));
        let mode = [PreemptMode::Auto, PreemptMode::SwapOnly, PreemptMode::RecomputeOnly][mode_idx];
        let spec = PreemptSpec::new()
            .with_threshold(threshold)
            .with_swap_link(KvLinkSpec::new(swap_gb_s, swap_lat))
            .with_recompute_rate(recompute_rate)
            .with_mode(mode);
        let mk_pol = || {
            let p = PreemptionPolicy::new(Box::new(PriorityTiers), spec);
            if mux_bit == 1 {
                p.with_multiplex()
            } else {
                p
            }
        };
        let a = ScenarioSimulation::new(cfg, mk()).run(&mut mk_pol(), &mut inc);
        let b = ScenarioSimulation::new(cfg, mk()).run(&mut mk_pol(), &mut oracle);
        prop_assert_eq!(a.stages.len(), b.stages.len());
        for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
            prop_assert_eq!(sa.batch, sb.batch);
            prop_assert!(sa.batch <= batch, "stage {} holds {} requests", i, sa.batch);
            prop_assert!(
                rel_diff(sa.seconds, sb.seconds) < 1e-9,
                "stage {}: incremental {} vs reference {}",
                i, sa.seconds, sb.seconds
            );
        }
        prop_assert!(rel_diff(a.total_time_s, b.total_time_s) < 1e-9, "total time");
        prop_assert!(
            rel_diff(inc.total_cost().energy.total(), oracle.energy_j) < 1e-9,
            "energy"
        );
        prop_assert_eq!(a.completed.len(), b.completed.len());
        prop_assert_eq!(a.completed.len(), requests);
        // Identical pricing means identical scheduling decisions:
        // the preemption machinery itself replays exactly.
        prop_assert_eq!(a.preempt, b.preempt);
        match mode {
            PreemptMode::SwapOnly => {}
            PreemptMode::RecomputeOnly => prop_assert_eq!(a.preempt.swaps, 0),
            PreemptMode::Auto => {}
        }
    }

    /// A preempting fleet is deterministic machinery end to end: on a
    /// 3-replica cluster with conversations, tiers and randomized
    /// preemption specs, a snapshot taken mid-run — paused requests
    /// and multiplex slots in flight — survives the JSON wire format
    /// and resumes to the exact uninterrupted report, under every
    /// shipped router.
    #[test]
    fn preemptive_cluster_is_deterministic_and_resumable(
        mean_in in 32u64..128,
        mean_out in 8u64..24,
        requests in 8usize..20,
        seed in 0u64..1000,
        qps in 100.0f64..800.0,
        threshold in 0.5f64..0.95,
        swap_gb_s in 1e8f64..1e10,
        swap_lat in 1e-4f64..5e-3,
        recompute_rate in 1e3f64..1e5,
        mode_idx in 0usize..3,
        mux_bit in 0u8..2,
        stop_frac in 0.15f64..0.85,
    ) {
        let cfg = SimulationConfig {
            max_batch: 4,
            kv_capacity_bytes: 1 << 22,
            kv_bytes_per_token: 64,
            ..SimulationConfig::default()
        };
        let mk = || Scenario::new(
            "prop-preempt-fleet",
            Workload::gaussian(mean_in, mean_out).with_seed(seed),
            Arrivals::Poisson { qps },
            requests,
        )
        .with_tiers(Scenario::default_tiers(0.01))
        .with_conversation(ConversationSpec::chat(0.7, 3, 0.05, 16));
        let mode = [PreemptMode::Auto, PreemptMode::SwapOnly, PreemptMode::RecomputeOnly][mode_idx];
        let spec = PreemptSpec::new()
            .with_threshold(threshold)
            .with_swap_link(KvLinkSpec::new(swap_gb_s, swap_lat))
            .with_recompute_rate(recompute_rate)
            .with_mode(mode);
        let mk_pol = || -> Vec<Box<dyn SchedulingPolicy>> {
            (0..3)
                .map(|_| {
                    let p = PreemptionPolicy::new(Box::new(PriorityTiers), spec);
                    let p = if mux_bit == 1 {
                        p.with_multiplex()
                    } else {
                        p
                    };
                    Box::new(p) as Box<dyn SchedulingPolicy>
                })
                .collect()
        };
        let configs = vec![ReplicaConfig::new(cfg); 3];
        for kind in RouterKind::ALL {
            let mk_sim = || ClusterSimulation::new(configs.clone(), mk());
            let full = mk_sim().run(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 3],
            );

            // Pause mid-run, push the snapshot through JSON, resume
            // fresh. Paused requests and multiplex slots in flight at
            // the stop ride the snapshot.
            let stop_s = stop_frac * full.total_time_s;
            let paused = mk_sim().run_until(
                kind.build().as_mut(),
                &mut mk_pol(),
                &mut [FixedStage(0.002); 3],
                stop_s,
            );
            if let Some(snapshot) = paused.snapshot() {
                let restored = ClusterSnapshot::from_json(&snapshot.to_json())
                    .expect("the wire format round-trips");
                prop_assert_eq!(&restored, &snapshot);
                let resumed = mk_sim()
                    .resume(
                        &restored,
                        kind.build().as_mut(),
                        &mut mk_pol(),
                        &mut [FixedStage(0.002); 3],
                    )
                    .expect("the snapshot matches the fleet");
                prop_assert_eq!(&resumed, &full);
            }
        }
    }
}

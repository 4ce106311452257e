//! Stage-level continuous batching (ORCA-style, Sec. II-C).
//!
//! Each iteration of the loop is one *stage*: every active request
//! advances by one token; newly arrived requests are admitted as
//! prefills when the batch slot count and the KV-cache budget allow.
//! A stage with at least one prefill is *mixed*; otherwise it is
//! *decoding-only*. KV capacity is reserved at admission for the
//! request's maximum context (Lin + Lout), which is what limits batch
//! size on capacity-constrained systems (Fig. 5(c), Fig. 16).
//!
//! This module holds the executor contract ([`StageExecutor`]) and the
//! paper's single-system run, [`Simulation`]. The batching loop itself
//! is the scenario scheduler's one-replica machine (`ReplicaSim` in
//! [`crate::scenario`]), which every entry point shares. A
//! `Simulation` drives it under FCFS admission with no tiers,
//! conversations or chunking, and feeds it *lazily*: a request leaves
//! the [`RequestSource`](crate::RequestSource) only once it has arrived
//! and a batch slot is free for it. FCFS admits the queue head first
//! and blocks on KV at the head, so this admits exactly what feeding
//! every arrival would, while an open-loop run over millions of
//! requests holds O(batch) scheduler state, not O(total requests).

use duplex_model::ops::StageShape;

use crate::delta::StageDelta;
use crate::metrics::SimReport;
use crate::policy::Fcfs;
use crate::scenario::{ReplicaSim, Scenario, ScenarioStream};
use crate::workload::{Arrivals, Workload};

/// How long a stage took; produced by the system crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageOutcome {
    /// Stage latency in seconds.
    pub seconds: f64,
}

/// Executor-side batch state captured by a cluster snapshot: the
/// carried decode groups, the decode-join contexts pending from the
/// previous stage, and the executor's RNG stream (sampled expert
/// routing draws from it, so resuming must continue the same stream
/// for bit-identical pricing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCheckpoint {
    /// Run-length-encoded decode groups as `(ctx, reqs)`, ascending.
    pub decode_groups: Vec<(u64, u64)>,
    /// Contexts admitted by the previous delta, joining decode next
    /// stage at `ctx + 1`.
    pub pending_joins: Vec<u64>,
    /// The executor's RNG state (xoshiro256** words).
    pub rng: [u64; 4],
}

/// Prices one stage of work. Implemented by the system crate's
/// execution engines; test doubles return fixed latencies.
///
/// The batching loops announce every stage through
/// [`execute_delta`](Self::execute_delta). The shape they pass always
/// carries the stage's prefills; it carries the decode contexts only
/// when [`needs_shape`](Self::needs_shape) returns true, which it does
/// by default.
pub trait StageExecutor {
    /// Execute one stage and report its latency. Implementations may
    /// accumulate their own side channels (energy, breakdowns).
    fn execute(&mut self, shape: &StageShape) -> StageOutcome;

    /// Execute one stage described incrementally: `delta` is the change
    /// relative to the previously executed stage (see [`StageDelta`]
    /// for the invariants), `shape` the materialized equivalent (whose
    /// `decode_ctx` may be empty, see [`needs_shape`](Self::needs_shape)).
    ///
    /// Executors that carry batch state across stages override this and
    /// price pure-advance stages in O(1) from the delta; the default
    /// simply prices the materialized shape.
    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        let _ = delta;
        self.execute(shape)
    }

    /// Whether the next [`execute_delta`](Self::execute_delta) reads
    /// the decode contexts of the shape it is handed. The default is
    /// true, which suits every executor that prices shapes.
    ///
    /// When this returns false, the scheduler may hand over a shape
    /// whose `decode_ctx` is empty (its prefill fields are always
    /// filled), so the executor must price the stage from the delta
    /// alone. It may only do so while the delta stream is unbroken:
    /// every stage since the run's fresh delta, or since an
    /// [`import_batch`](Self::import_batch), came through
    /// `execute_delta`.
    fn needs_shape(&self) -> bool {
        true
    }

    /// Export the executor's carried batch state for a cluster
    /// snapshot. Stateless executors (the default) have nothing to
    /// carry and return `None`, and a snapshot without a checkpoint
    /// skips [`import_batch`](Self::import_batch) on resume.
    fn export_batch(&self) -> Option<BatchCheckpoint> {
        None
    }

    /// Restore a previously exported batch state so that resumed
    /// stages price bit-identically to the uninterrupted run. The
    /// default ignores the checkpoint (stateless executors re-derive
    /// everything from the first fresh delta or shape).
    fn import_batch(&mut self, checkpoint: &BatchCheckpoint) {
        let _ = checkpoint;
    }
}

/// Scheduler limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Maximum requests per stage (the paper's "batch size").
    pub max_batch: usize,
    /// KV-cache byte budget across the serving system.
    pub kv_capacity_bytes: u64,
    /// KV bytes per token of context (from the model config).
    pub kv_bytes_per_token: u64,
    /// Safety cap on simulated stages.
    pub max_stages: usize,
    /// Keep a [`StageRecord`](crate::StageRecord) per stage in the
    /// report. Disable for million-request runs: the aggregate
    /// [`StageStats`](crate::StageStats) (throughput, stage mix, mean
    /// batch) are maintained either way.
    pub record_stages: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            kv_capacity_bytes: u64::MAX,
            kv_bytes_per_token: 1,
            max_stages: 2_000_000,
            record_stages: true,
        }
    }
}

/// A configured simulation, ready to run against a [`StageExecutor`].
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    scenario: Scenario,
}

impl Simulation {
    /// Closed-loop serving: `total_requests` drawn from `workload`, all
    /// backlogged at time zero; a finished request is replaced at the
    /// next stage boundary.
    pub fn closed_loop(
        config: SimulationConfig,
        workload: Workload,
        total_requests: usize,
    ) -> Self {
        Self::new(config, workload, Arrivals::ClosedLoop, total_requests)
    }

    /// Open-loop serving: `total_requests` Poisson arrivals at `qps`.
    ///
    /// # Panics
    ///
    /// Panics when `qps` is not positive.
    pub fn poisson(
        config: SimulationConfig,
        workload: Workload,
        qps: f64,
        total_requests: usize,
    ) -> Self {
        Self::new(config, workload, Arrivals::Poisson { qps }, total_requests)
    }

    pub(crate) fn new(
        config: SimulationConfig,
        workload: Workload,
        arrivals: Arrivals,
        total_requests: usize,
    ) -> Self {
        arrivals.validate();
        Self {
            config,
            scenario: Scenario::new("simulation", workload, arrivals, total_requests),
        }
    }

    /// Run to completion (or the stage cap) and report.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is 0, or when one request's KV
    /// reservation exceeds the whole capacity.
    pub fn run<E: StageExecutor + ?Sized>(self, executor: &mut E) -> SimReport {
        let mut stream = ScenarioStream::new(&self.scenario);
        let mut replica = ReplicaSim::new(self.config, &self.scenario);
        // A stage retires at most `max_batch` requests, so the log is
        // sized once instead of doubling (and briefly held twice) on
        // its way to a long run's length.
        let retirable = self.config.max_stages.saturating_mul(self.config.max_batch);
        replica.reserve_completions(self.scenario.requests.min(retirable));
        while replica.can_accept() {
            // Queue arrivals only while they could take a free slot
            // this stage; an idle replica takes the next arrival (and
            // any tied with it) and jumps its clock there.
            let slots = replica.unclaimed_slots();
            let mut bound = None;
            if slots > 0 {
                let horizon = match replica.next_start() {
                    Some(t) => t,
                    None => match stream.next_arrival_time() {
                        Some(t) => t.max(replica.clock()),
                        None => break,
                    },
                };
                for _ in 0..slots {
                    let Some(p) = stream.pop_arrived(horizon) else {
                        break;
                    };
                    replica.deliver(p);
                }
                // The next arrival bounds a run of quiet stages only
                // while a slot could take it; a full batch takes none.
                bound = stream.next_arrival_time();
            }
            replica.step(&mut Fcfs, executor, bound);
        }
        replica.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);
    impl StageExecutor for Fixed {
        fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
            StageOutcome { seconds: self.0 }
        }
    }

    /// Executor that records the shapes and deltas it saw.
    struct Recording {
        shapes: Vec<StageShape>,
        deltas: Vec<StageDelta>,
    }
    impl Recording {
        fn new() -> Self {
            Self {
                shapes: Vec::new(),
                deltas: Vec::new(),
            }
        }
    }
    impl StageExecutor for Recording {
        fn execute(&mut self, shape: &StageShape) -> StageOutcome {
            self.shapes.push(shape.clone());
            StageOutcome { seconds: 0.01 }
        }
        fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
            self.deltas.push(delta.clone());
            self.execute(shape)
        }
    }

    fn config(max_batch: usize) -> SimulationConfig {
        SimulationConfig {
            max_batch,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let sim = Simulation::closed_loop(config(8), Workload::fixed(64, 5), 20);
        let report = sim.run(&mut Fixed(0.01));
        assert_eq!(report.completed.len(), 20);
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.request.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        for r in &report.completed {
            assert_eq!(r.tokens, r.request.output_len);
        }
        // Every admitted prompt prefills in full.
        let prompts: u64 = report.completed.iter().map(|r| r.request.input_len).sum();
        assert_eq!(report.kv_reuse.prefilled_tokens, prompts);
        assert_eq!(report.kv_reuse.reuse_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "needs 20 KV bytes")]
    fn a_request_larger_than_the_kv_capacity_fails() {
        let cfg = SimulationConfig {
            kv_capacity_bytes: 10,
            ..config(4)
        };
        Simulation::closed_loop(cfg, Workload::fixed(16, 4), 3).run(&mut Fixed(0.01));
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_batch_fails_before_the_first_stage() {
        Simulation::closed_loop(config(0), Workload::fixed(16, 4), 3).run(&mut Fixed(0.01));
    }

    #[test]
    fn stage_count_matches_closed_loop_math() {
        // 4 requests, batch 2, Lout 3: two waves of 3 stages each.
        let sim = Simulation::closed_loop(config(2), Workload::fixed(16, 3), 4);
        let report = sim.run(&mut Fixed(0.01));
        assert_eq!(report.stages.len(), 6);
        assert_eq!(report.stages.iter().filter(|s| s.mixed).count(), 2);
    }

    #[test]
    fn decode_only_dominates_long_outputs() {
        // Fig. 5(a): one prefill stage, Lout decode stages per request.
        let sim = Simulation::closed_loop(config(4), Workload::fixed(128, 64), 16);
        let report = sim.run(&mut Fixed(0.001));
        assert!(
            report.decode_only_fraction() > 0.8,
            "{}",
            report.decode_only_fraction()
        );
    }

    #[test]
    fn kv_capacity_limits_batch() {
        let cfg = SimulationConfig {
            max_batch: 8,
            kv_capacity_bytes: 2 * (16 + 4), // room for exactly two requests
            kv_bytes_per_token: 1,
            ..SimulationConfig::default()
        };
        let sim = Simulation::closed_loop(cfg, Workload::fixed(16, 4), 12);
        let report = sim.run(&mut Fixed(0.01));
        assert_eq!(report.completed.len(), 12);
        assert!(
            report.stages.iter().all(|s| s.batch <= 2),
            "batch capped by KV capacity"
        );
    }

    #[test]
    fn mixed_stage_shapes_carry_prompt_lengths() {
        let sim = Simulation::closed_loop(config(2), Workload::fixed(100, 2), 2);
        let mut rec = Recording::new();
        let report = sim.run(&mut rec);
        assert_eq!(report.completed.len(), 2);
        assert_eq!(rec.shapes[0].prefill_len, vec![100, 100]);
        assert!(rec.shapes[0].decode_ctx.is_empty());
        // Next stage: both decoding with ctx = Lin + 1.
        assert_eq!(rec.shapes[1].decode_ctx, vec![101, 101]);
    }

    #[test]
    fn deltas_describe_the_stage_stream() {
        // Batch 2, Lout 2, 4 requests: admit 2, decode, retire 2 +
        // admit 2, decode, done.
        let sim = Simulation::closed_loop(config(2), Workload::fixed(100, 2), 4);
        let mut rec = Recording::new();
        sim.run(&mut rec);
        assert_eq!(rec.deltas.len(), 4);
        assert!(rec.deltas[0].fresh, "first delta resets executor state");
        assert_eq!(rec.deltas[0].admit, vec![100, 100]);
        assert!(rec.deltas[0].retire.is_empty());
        assert!(rec.deltas[1].is_pure_advance());
        // Both requests retire after the second stage with post-advance
        // context Lin + Lout = 102, and the next wave is admitted.
        assert_eq!(rec.deltas[2].admit, vec![100, 100]);
        assert_eq!(rec.deltas[2].retire, vec![102, 102]);
        assert!(rec.deltas[3].is_pure_advance());
    }

    #[test]
    fn deltas_replay_to_the_materialized_shapes() {
        // Applying each delta to a mirror multiset reproduces exactly
        // the decode contexts the scheduler materialized.
        let w = Workload::gaussian(64, 6).with_seed(11);
        let sim = Simulation::closed_loop(config(4), w, 12);
        let mut rec = Recording::new();
        sim.run(&mut rec);
        let mut mirror: Vec<u64> = Vec::new(); // decode contexts
        let mut pending: Vec<u64> = Vec::new(); // admitted last stage
        for (delta, shape) in rec.deltas.iter().zip(&rec.shapes) {
            if delta.fresh {
                mirror.clear();
                pending.clear();
            }
            for c in &mut mirror {
                *c += 1;
            }
            mirror.extend(pending.drain(..).map(|p| p + 1));
            for r in &delta.retire {
                let pos = mirror
                    .iter()
                    .position(|c| c == r)
                    .expect("retired ctx present");
                mirror.swap_remove(pos);
            }
            pending.extend_from_slice(&delta.admit);
            let mut want = shape.decode_ctx.clone();
            want.sort_unstable();
            let mut got = mirror.clone();
            got.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(delta.admit, shape.prefill_len);
        }
    }

    /// A closed-loop run over explicit `(input, output)` lengths, in
    /// admission order.
    fn trace_sim(max_batch: usize, lens: &[(u64, u64)]) -> Simulation {
        let requests = lens
            .iter()
            .map(|&(input_len, output_len)| crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len,
                output_len,
            })
            .collect();
        Simulation::new(
            config(max_batch),
            Workload::fixed(1, 1),
            Arrivals::trace(requests),
            lens.len(),
        )
    }

    /// The full-sweep rule: after every stage each request advances one
    /// token, the stage's prefills join the batch with one token, and a
    /// `swap_remove` scan over the whole batch retires every request
    /// with all its tokens. Runs at most `max_stages` stages. Returns
    /// the completed ids in order and, per stage, the post-advance
    /// contexts it retired.
    fn full_sweep(
        max_batch: usize,
        max_stages: usize,
        lens: &[(u64, u64)],
    ) -> (Vec<u64>, Vec<Vec<u64>>) {
        // (id, input, output, generated)
        let mut active: Vec<(u64, u64, u64, u64)> = Vec::new();
        let (mut next, mut completed, mut retired) = (0, Vec::new(), Vec::new());
        while completed.len() < lens.len() && retired.len() < max_stages {
            let admit = (max_batch - active.len()).min(lens.len() - next);
            for a in &mut active {
                a.3 += 1;
            }
            for (id, &(input, output)) in lens.iter().enumerate().skip(next).take(admit) {
                active.push((id as u64, input, output, 1));
            }
            next += admit;
            let mut stage = Vec::new();
            let mut i = 0;
            while i < active.len() {
                if active[i].3 >= active[i].2 {
                    let (id, input, _, generated) = active.swap_remove(i);
                    stage.push(input + generated);
                    completed.push(id);
                } else {
                    i += 1;
                }
            }
            retired.push(stage);
        }
        (completed, retired)
    }

    fn assert_full_sweep_order(max_batch: usize, lens: &[(u64, u64)]) {
        assert_sweep_order_up_to(max_batch, usize::MAX, lens);
    }

    /// [`assert_full_sweep_order`] over a run capped at `max_stages`.
    fn assert_sweep_order_up_to(max_batch: usize, max_stages: usize, lens: &[(u64, u64)]) {
        let mut rec = Recording::new();
        let mut sim = trace_sim(max_batch, lens);
        sim.config.max_stages = max_stages;
        let report = sim.run(&mut rec);
        let (ids, retired) = full_sweep(max_batch, max_stages, lens);
        let got: Vec<u64> = report.completed.iter().map(|r| r.request.id).collect();
        assert_eq!(got, ids, "completion order");
        assert_eq!(rec.deltas.len(), retired.len(), "stage count");
        // Stage k's retirements ride the delta of stage k + 1; the last
        // stage's are never announced.
        for k in 1..retired.len() {
            assert_eq!(rec.deltas[k].retire, retired[k - 1], "delta {k}");
        }
        for r in &report.completed {
            assert_eq!(r.tokens, r.request.output_len.max(1));
        }
    }

    #[test]
    fn retirement_order_follows_the_full_sweep() {
        // Single-token requests 1 and 6 retire on their prefill
        // stages; 0, 4 and 2 finish together on stage 2, and 3 with 7
        // on stage 4, so the swap_remove scan reorders the batch.
        let lens: Vec<(u64, u64)> = [3, 1, 3, 5, 3, 5, 1, 2]
            .into_iter()
            .zip(10..)
            .map(|(output, input)| (input, output))
            .collect();
        let mut rec = Recording::new();
        let report = trace_sim(5, &lens).run(&mut rec);
        let ids: Vec<u64> = report.completed.iter().map(|r| r.request.id).collect();
        assert_eq!(ids, vec![1, 0, 4, 2, 6, 3, 7, 5]);
        let retires: Vec<&[u64]> = rec.deltas.iter().map(|d| &d.retire[..]).collect();
        assert_eq!(
            retires,
            vec![&[][..], &[12], &[], &[13, 17, 15], &[17], &[18, 19]],
        );
        assert_full_sweep_order(5, &lens);
    }

    #[test]
    fn retirement_order_follows_the_full_sweep_on_mixed_lengths() {
        // Pseudo-random lengths with many length-1 and tied finishes.
        let lens: Vec<(u64, u64)> = (0..97u64)
            .map(|i| (8 + (i * 37) % 53, 1 + (i * 7919) % 5 * ((i % 3) + 1) / 2))
            .collect();
        assert!(lens.iter().filter(|l| l.1 == 1).count() > 10);
        for max_batch in [1, 3, 8, 32] {
            assert_full_sweep_order(max_batch, &lens);
        }
    }

    #[test]
    fn retirement_order_follows_the_full_sweep_on_long_outputs() {
        // Outputs up to 97 tokens at batches up to the whole trace, so
        // the sweep's gate skips long idle stretches and the batch
        // grows and drains while requests are due.
        let lens: Vec<(u64, u64)> = (0..150u64)
            .map(|i| (16 + i % 7, 1 + (i * 7919) % 97))
            .collect();
        for max_batch in [1, 5, 16, 40, 150] {
            assert_full_sweep_order(max_batch, &lens);
        }
    }

    #[test]
    fn requests_without_decode_tokens_retire_at_their_prefill() {
        // Every source clamps `output_len` 0 to 1: both sample their
        // only token in the prefill stage and retire there, next to
        // requests that keep decoding.
        let lens = [(9, 0), (10, 3), (11, 1), (12, 0), (13, 2), (14, 1), (15, 1)];
        let mut rec = Recording::new();
        let report = trace_sim(4, &lens).run(&mut rec);
        let ids: Vec<u64> = report.completed.iter().map(|r| r.request.id).collect();
        assert_eq!(ids, vec![0, 3, 2, 5, 6, 1, 4]);
        for max_batch in [1, 2, 4, 7] {
            assert_full_sweep_order(max_batch, &lens);
        }
    }

    #[test]
    fn due_tails_retire_from_the_slot_they_move_into() {
        // Stage 1 retires position 0, then the due tail (position 3)
        // that the sweep moves into it and examines again; the
        // survivors trade places, so on stage 4 request 2 retires
        // before request 1.
        let lens = [(10, 2), (11, 5), (12, 5), (13, 2)];
        let mut rec = Recording::new();
        let report = trace_sim(4, &lens).run(&mut rec);
        let ids: Vec<u64> = report.completed.iter().map(|r| r.request.id).collect();
        assert_eq!(ids, vec![0, 3, 2, 1]);
        assert_eq!(rec.deltas[2].retire, vec![12, 15]);
        // Chains of due tails, with a non-due request between them.
        let lens = [
            (10, 2),
            (11, 5),
            (12, 2),
            (13, 2),
            (14, 2),
            (15, 4),
            (16, 2),
        ];
        for max_batch in [3, 5, 7] {
            assert_full_sweep_order(max_batch, &lens);
        }
    }

    #[test]
    fn truncated_runs_follow_the_full_sweep() {
        let lens: Vec<(u64, u64)> = (0..60u64)
            .map(|i| (8 + i % 11, 1 + (i * 31) % 23))
            .collect();
        for (max_batch, max_stages) in [(1, 7), (4, 1), (4, 13), (16, 30), (32, 2)] {
            assert_sweep_order_up_to(max_batch, max_stages, &lens);
        }
    }

    #[test]
    fn poisson_idle_time_advances_clock() {
        let cfg = config(4);
        let sim = Simulation::poisson(cfg, Workload::fixed(8, 2).with_seed(3), 0.5, 5);
        let report = sim.run(&mut Fixed(0.001));
        assert_eq!(report.completed.len(), 5);
        // With ~2 s between arrivals and 2 ms of service, E2E stays tiny
        // while total time spans the arrival horizon.
        assert!(report.total_time_s > 5.0, "got {}", report.total_time_s);
        assert!(report.e2e().p50 < 0.05);
    }

    #[test]
    fn overload_grows_queueing_delay() {
        // Service takes 1 s/stage; Lout = 4 stages per request at batch 1
        // => capacity 0.25 req/s. Inject 2 req/s: T2FT must blow up.
        let cfg = config(1);
        let w = Workload::fixed(8, 4).with_seed(7);
        let light = Simulation::poisson(cfg, w.clone(), 0.05, 10).run(&mut Fixed(1.0));
        let heavy = Simulation::poisson(cfg, w, 2.0, 10).run(&mut Fixed(1.0));
        assert!(heavy.t2ft().p50 > 4.0 * light.t2ft().p50.max(0.001));
    }

    #[test]
    fn tbt_equals_stage_latency_in_steady_state() {
        let sim = Simulation::closed_loop(config(4), Workload::fixed(32, 16), 4);
        let report = sim.run(&mut Fixed(0.02));
        let tbt = report.tbt();
        assert!((tbt.p50 - 0.02).abs() < 1e-9);
        assert!((tbt.p99 - 0.02).abs() < 1e-9);
    }

    #[test]
    fn stage_cap_stops_runaway() {
        let cfg = SimulationConfig {
            max_stages: 5,
            ..config(1)
        };
        let sim = Simulation::closed_loop(cfg, Workload::fixed(8, 100), 3);
        let report = sim.run(&mut Fixed(0.01));
        assert_eq!(report.stages.len(), 5);
        assert!(report.completed.is_empty());
    }

    #[test]
    fn the_completion_log_is_reserved_within_the_stage_cap() {
        // 2^40 requests would reserve terabytes; ten stages of batch 32
        // retire at most 320.
        let cfg = SimulationConfig {
            max_stages: 10,
            ..config(32)
        };
        let sim = Simulation::closed_loop(cfg, Workload::fixed(4, 2), 1 << 40);
        let report = sim.run(&mut Fixed(0.01));
        assert_eq!(report.stage_stats.stages, 10);
        assert!(!report.completed.is_empty());
        assert!(report.completed.capacity() <= 10 * 32);
    }

    #[test]
    fn unrecorded_stages_keep_aggregates() {
        let w = Workload::fixed(64, 5);
        let recorded = Simulation::closed_loop(config(8), w.clone(), 20).run(&mut Fixed(0.01));
        let cfg = SimulationConfig {
            record_stages: false,
            ..config(8)
        };
        let bare = Simulation::closed_loop(cfg, w, 20).run(&mut Fixed(0.01));
        assert!(bare.stages.is_empty());
        assert_eq!(bare.stage_stats, recorded.stage_stats);
        assert_eq!(bare.generated_tokens(), recorded.generated_tokens());
        assert_eq!(bare.mean_batch(), recorded.mean_batch());
        assert_eq!(bare.decode_only_fraction(), recorded.decode_only_fraction());
        assert_eq!(bare.completed.len(), recorded.completed.len());
    }
}

//! The scenario scheduler: SLO tiers, pluggable admission policies,
//! and multi-turn conversations with reuse-aware KV accounting.
//!
//! The base [`crate::Simulation`] reproduces the paper's setup: one
//! synthetic workload shape, FIFO admission. A [`ScenarioSimulation`]
//! generalizes it along three axes:
//!
//! * **arrivals** — any [`Arrivals`] process, including the bursty
//!   on/off and diurnal curves and recorded-trace replay;
//! * **multi-turn conversations** — a completed request may spawn a
//!   follow-up after an exponential think time, carrying its whole
//!   history as the new prompt. Finished histories are *parked* in a
//!   [`PagedKvCache`]; if a follow-up arrives while its history is
//!   still resident, only the new turn's tokens prefill (prefix reuse)
//!   and the admission announces the split through
//!   [`StageDelta::admit_ctx`], keeping the incremental executor's
//!   carried batch state exact;
//! * **SLO tiers and policies** — requests draw a [`SloTier`]
//!   (deadline + priority) and a [`SchedulingPolicy`] picks admission
//!   order; the report gains per-tier attainment and goodput.
//!
//! Internally the run is split into two pieces the cluster scheduler
//! ([`crate::cluster`]) reuses verbatim: a `ScenarioStream` owning
//! the arrival process, tier draws and follow-up spawning, and a
//! `ReplicaSim` owning one continuous-batching event loop (queues,
//! KV accounting, stage formation, metrics). A plain
//! [`ScenarioSimulation`] is exactly a one-replica cluster, and the
//! base [`crate::Simulation`] is a one-replica FCFS run fed lazily.
//!
//! # The batching loop
//!
//! `ReplicaSim` is the only batching loop, built for paper-scale runs:
//!
//! * each stage is announced to the executor as a [`StageDelta`]
//!   (advance + admissions + retirements) alongside a [`StageShape`].
//!   The shape's prefills are always filled; its decode contexts are
//!   materialized only for executors whose
//!   [`StageExecutor::needs_shape`] says they read them, so an
//!   incremental executor prices a pure-decode stage in O(1);
//! * a *quiet* stage skips stage formation. It is one whose delta
//!   only advances the batch (the last stage admitted and retired
//!   nothing), with nothing chunking, paused or multiplexed, and
//!   nothing admissible: the queue is empty, or the batch is full and
//!   no preemption is armed. Every formation phase would be a no-op
//!   there, so the stage goes straight to execution and the same
//!   accounting as any other (clock, timeline, stage record, TBT
//!   digests, retirement sweep). ~98.5% of a closed-loop decode run's
//!   stages are quiet; a saturated open-loop run has almost none;
//! * consecutive quiet stages run inside one `step` call. The caller
//!   passes a bound, the earliest time its next iteration could hand
//!   the replica something new: `run_window` its window bound (the
//!   fleet's next arrival or control-plane event), `ScenarioSimulation`
//!   the stream's next arrival, and the base `Simulation` the stream's
//!   next arrival while a batch slot is unclaimed (no bound while the
//!   batch is full). The run returns after the first stage that
//!   retires a request, reaches the stage cap, ends at or after the
//!   bound, or leaves a routed arrival due in the inbox. Until then
//!   nothing a caller's iteration could change has changed, so each
//!   skipped iteration would have stepped the same quiet stage;
//! * a decoding request stores a stage stamp rather than a token
//!   counter, so advancing the batch touches no request;
//! * the retirement sweep runs only on stages where some request is
//!   due, and scans a dense vector of finish stages kept beside the
//!   batch rather than the requests themselves;
//! * per-request accounting is O(1) (first/last token timestamps);
//!   token gaps stream into a fixed-size digest once per stage.
//!
//! Scenario and cluster runs hand every arrival to the replica
//! (policies rank the whole waiting queue, routers place on arrival),
//! so their memory is O(waiting). The base `Simulation` queues an
//! arrival only once a batch slot is free for it, which keeps its
//! memory O(batch).
//!
//! # Reused prefixes price exactly
//!
//! A reuse-admitted follow-up prefills only its suffix but decodes over
//! its full history (`admit_ctx`), exactly like prefix caching. The
//! admission announces the split to the executor *and* to the stage
//! shape (`prefill_past`), so the suffix's cross-attention over the
//! resident history is charged exactly — the pricing approximation
//! that previously underpriced long-history turns is closed; see
//! `duplex_model::ops::StageShape` on prefill-with-past.
//!
//! # Chunked prefill
//!
//! A long prompt in a mixed stage stalls every decoding request for the
//! whole prefill, spiking the token-between-token tail. With
//! [`Scenario::prefill_chunk`] set, each stage prefills at most that
//! many prompt tokens: a long prompt is split into bounded slices
//! processed across consecutive stages, each slice a prefill-with-past
//! over the slices before it (announced via [`StageDelta::chunk`]).
//! Only the final slice samples the first token and joins the decode
//! set, so decode requests interleave with short mixed stages instead
//! of one long one. Throughput is nearly unchanged (the same tokens are
//! processed; only per-chunk launch overheads repeat), while the
//! mixed-stage TBT p99 drops by roughly the prompt/chunk ratio.
//!
//! A fixed budget throttles prefill bandwidth even when nobody is
//! decoding; [`Scenario::with_prefill_chunk_adaptive`] instead scales
//! the budget with the current decode-batch occupancy (see
//! [`AdaptiveChunk`]), spending idle stages on big prefill slices and
//! tightening the budget only when a full decode cohort is exposed to
//! the prefill stall.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use duplex_model::kv_cache::{EvictionPolicy, PagedKvCache};
use duplex_model::ops::StageShape;

use crate::delta::StageDelta;
use crate::metrics::{
    BucketMemo, KvReuseStats, LatencyDigest, SimReport, SloStats, StageRecord, StageStats,
    TierStats,
};
use crate::policy::{PolicyContext, SchedulingPolicy};
use crate::preempt::{MultiplexSpec, PreemptSpec, PreemptStats};
use crate::request::{Request, RequestRecord};
use crate::router::PoolRole;
use crate::scheduler::{SimulationConfig, StageExecutor};
use crate::snapshot::{
    ActiveState, ChunkingState, DigestState, KvState, MuxMemberState, MuxState, PausedState,
    ReplicaState, ResumeState, StreamState, TierState,
};
use crate::trace::TraceRecorder;
use crate::workload::{exp_sample, sample_len, Arrivals, RequestSource, Workload};

/// One service tier: a share of traffic, a priority, and deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTier {
    /// Display name.
    pub name: String,
    /// Relative share of arriving requests landing in this tier.
    pub weight: f64,
    /// Admission priority (lower = more urgent) for tier-aware
    /// policies.
    pub priority: u32,
    /// Time-to-first-token deadline in seconds.
    pub t2ft_deadline_s: f64,
    /// Mean token-between-token deadline in seconds (0 = no TBT SLO).
    pub tbt_deadline_s: f64,
}

impl SloTier {
    /// A tier with the given share, priority and deadlines.
    pub fn new(name: &str, weight: f64, priority: u32, t2ft_s: f64, tbt_s: f64) -> Self {
        assert!(weight > 0.0, "tier weight must be positive");
        assert!(t2ft_s > 0.0, "t2ft deadline must be positive");
        assert!(tbt_s >= 0.0, "tbt deadline must be non-negative");
        Self {
            name: name.into(),
            weight,
            priority,
            t2ft_deadline_s: t2ft_s,
            tbt_deadline_s: tbt_s,
        }
    }
}

/// Multi-turn conversation behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversationSpec {
    /// Probability that a completed round spawns a follow-up.
    pub followup_prob: f64,
    /// Hard cap on rounds per conversation (>= 1, counts the first).
    pub max_rounds: u32,
    /// Mean think time between a reply and the follow-up, seconds.
    pub mean_think_s: f64,
    /// Mean new-user-turn prompt tokens appended each round (sampled
    /// with the workload's cv).
    pub turn_tokens: u64,
    /// Page size (tokens) of the parked-history KV pool.
    pub page_tokens: u64,
}

impl ConversationSpec {
    /// A chat-like spec: geometric continuation at `followup_prob`.
    pub fn chat(followup_prob: f64, max_rounds: u32, mean_think_s: f64, turn_tokens: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&followup_prob),
            "probability in [0, 1]"
        );
        assert!(max_rounds >= 1, "at least one round");
        assert!(
            mean_think_s > 0.0 && turn_tokens > 0,
            "think time and turn must be positive"
        );
        Self {
            followup_prob,
            max_rounds,
            mean_think_s,
            turn_tokens,
            page_tokens: 16,
        }
    }
}

/// A per-stage prefill budget that adapts to decode occupancy: a full
/// decode cohort gets the latency-protecting `min_tokens` budget, an
/// idle batch gets `max_tokens` of prefill bandwidth, and occupancies
/// in between interpolate linearly. This closes the fixed-chunk
/// throughput gap near saturation noted in
/// `duplex::experiments::scenario_suite`: the fixed budget throttles
/// prefill even when no decoding request would feel the stall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveChunk {
    /// Budget when every batch slot is decoding (most TBT-sensitive).
    pub min_tokens: u64,
    /// Budget when nothing is decoding (prefill bandwidth is free).
    pub max_tokens: u64,
}

impl AdaptiveChunk {
    /// The stage budget at `decoding` active requests out of
    /// `max_batch` slots: linear from `max_tokens` (idle) down to
    /// `min_tokens` (full).
    pub fn budget(&self, decoding: usize, max_batch: usize) -> u64 {
        let slots = max_batch.max(1) as u64;
        let occupied = (decoding as u64).min(slots);
        let span = self.max_tokens - self.min_tokens;
        (self.max_tokens - span * occupied / slots).max(1)
    }
}

/// A complete serving scenario: shapes, arrivals, conversations, SLOs.
///
/// Construct with [`Scenario::new`] plus the `with_*` builders — the
/// struct is `#[non_exhaustive]`, so literal construction outside this
/// crate is not supported (new knobs may be added without a breaking
/// change).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Request-shape distribution (also seeds all scenario RNG).
    pub workload: Workload,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Initial requests (= conversations when multi-turn); follow-up
    /// rounds come on top. Clamped to the trace length under replay.
    pub requests: usize,
    /// Multi-turn behavior; `None` for single-shot requests.
    pub conversation: Option<ConversationSpec>,
    /// Service tiers; empty runs without SLO accounting.
    pub tiers: Vec<SloTier>,
    /// Per-stage prefill token budget: prompts longer than this are
    /// split into chunks across consecutive stages (see the
    /// [module docs](self)). 0 disables chunking (whole-prompt
    /// prefills, the paper's behavior).
    pub prefill_chunk: u64,
    /// Occupancy-adaptive prefill budget; overrides the fixed
    /// [`Scenario::prefill_chunk`] when set.
    pub adaptive_chunk: Option<AdaptiveChunk>,
}

impl Scenario {
    /// A single-shot scenario without tiers.
    pub fn new(name: &str, workload: Workload, arrivals: Arrivals, requests: usize) -> Self {
        Self {
            name: name.into(),
            workload,
            arrivals,
            requests,
            conversation: None,
            tiers: Vec::new(),
            prefill_chunk: 0,
            adaptive_chunk: None,
        }
    }

    /// Attach a conversation spec.
    pub fn with_conversation(mut self, spec: ConversationSpec) -> Self {
        self.conversation = Some(spec);
        self
    }

    /// Bound each stage's prefill work to `tokens` prompt tokens
    /// (chunked prefill; 0 disables).
    pub fn with_prefill_chunk(mut self, tokens: u64) -> Self {
        self.prefill_chunk = tokens;
        self
    }

    /// Scale the per-stage prefill budget with decode occupancy: from
    /// `max_tokens` when the batch is idle down to `min_tokens` when
    /// every slot decodes (see [`AdaptiveChunk`]).
    pub fn with_prefill_chunk_adaptive(mut self, min_tokens: u64, max_tokens: u64) -> Self {
        assert!(min_tokens > 0, "adaptive chunk floor must be positive");
        assert!(
            max_tokens >= min_tokens,
            "adaptive chunk ceiling below its floor"
        );
        self.adaptive_chunk = Some(AdaptiveChunk {
            min_tokens,
            max_tokens,
        });
        self
    }

    /// Attach SLO tiers.
    pub fn with_tiers(mut self, tiers: Vec<SloTier>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Whether any stage may carry a prefill budget (fixed or
    /// adaptive).
    pub fn chunked(&self) -> bool {
        self.prefill_chunk > 0 || self.adaptive_chunk.is_some()
    }

    /// Validate the scenario and clamp its request count to the trace
    /// length under replay — the shared front door of
    /// [`ScenarioSimulation::new`] and
    /// [`crate::cluster::ClusterSimulation::new`], so the two entry
    /// points cannot drift.
    ///
    /// # Panics
    ///
    /// Panics when tiers are declared with a non-positive total
    /// weight.
    pub(crate) fn normalized(mut self) -> Self {
        if let Arrivals::Trace { requests } = &self.arrivals {
            self.requests = self.requests.min(requests.len());
        }
        let total_weight: f64 = self.tiers.iter().map(|t| t.weight).sum();
        assert!(
            self.tiers.is_empty() || total_weight > 0.0,
            "tier weights must sum to a positive value"
        );
        self
    }

    /// The paper-external default tier set: interactive / standard /
    /// batch at 60/30/10% with tightening deadlines. Deadlines are in
    /// units of `stage_s`, a rough per-stage latency for the system
    /// under test, so the same tiers make sense at quick and paper
    /// scales.
    pub fn default_tiers(stage_s: f64) -> Vec<SloTier> {
        vec![
            SloTier::new("interactive", 0.6, 0, 10.0 * stage_s, 1.8 * stage_s),
            SloTier::new("standard", 0.3, 1, 60.0 * stage_s, 4.0 * stage_s),
            SloTier::new("batch", 0.1, 2, 1000.0 * stage_s, 0.0),
        ]
    }
}

/// A request waiting for admission, as shown to a
/// [`SchedulingPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRequest {
    /// The request; `input_len` is the *full* prompt including any
    /// conversation history.
    pub request: Request,
    /// Index into the scenario's tier list (0 when untiered).
    pub tier: usize,
    /// The tier's priority (0 when untiered).
    pub priority: u32,
    /// Absolute T2FT deadline (arrival + tier deadline; infinity when
    /// untiered).
    pub deadline_s: f64,
    /// Conversation id (the root request's id).
    pub conversation: u64,
    /// 1-based round within the conversation.
    pub round: u32,
    /// Prompt prefix that may still be KV-resident from the previous
    /// round (0 for fresh requests).
    pub history_tokens: u64,
    /// Admissions that have gone past this request while it waited —
    /// the aging signal for starvation guards (see
    /// [`crate::policy::ShortestPromptFirst`]).
    pub skipped: u64,
}

/// A request in the decode batch. Every request advances one token per
/// stage, so its progress follows from the replica's stage count: it
/// has generated `stages - stamp` tokens once `stages` stages have run.
#[derive(Debug)]
struct ActiveRequest {
    pending: PendingRequest,
    /// Stage count minus tokens generated. In the within-step
    /// `admitted`/`resumed` scratch it holds the tokens generated
    /// before the joining stage instead, until the join re-stamps it.
    stamp: u64,
    first_token_s: f64,
}

/// A request whose prompt is being prefilled in chunks: admitted (its
/// KV is reserved, it holds a batch slot) but not yet decoding.
#[derive(Debug)]
struct ChunkingRequest {
    pending: PendingRequest,
    /// Resident history its chunks attend over (prefix reuse).
    history: u64,
    /// New prompt tokens already prefilled by earlier chunks.
    processed: u64,
    /// Total new tokens to prefill (input_len - resident history).
    prefill_total: u64,
    /// Mid-decode state carried by a recompute-on-resume re-prefill
    /// (`None` for ordinary prompts): the final slice restores this
    /// instead of sampling a first token.
    resumed: Option<ResumeCarry>,
}

/// Mid-decode progress a preempted request carries through its
/// recompute re-prefill: generation continues where the pause left
/// off, and the original first-token time survives for T2FT.
#[derive(Debug, Clone, Copy)]
struct ResumeCarry {
    generated: u64,
    first_token_s: f64,
}

/// A batch-tier decode paused by the preemption policy: off the batch
/// (its slot and KV reservation are released) but not abandoned — it
/// resumes deterministically once slots free up. `swapped` records the
/// cost model's choice: the context is parked in the replica's paged
/// pool (restored later as a priced transfer) or dropped for a full
/// re-prefill.
#[derive(Debug)]
struct PausedRequest {
    pending: PendingRequest,
    /// Tokens generated before the pause.
    generated: u64,
    first_token_s: f64,
    /// Resident context at the pause: prompt + generated tokens.
    ctx: u64,
    /// KV swap-out (true) vs recompute-on-resume (false).
    swapped: bool,
    /// Replica clock at the pause, for the paused-time metric.
    paused_at_s: f64,
}

/// One member of a multiplex slot: a batch-tier request advancing one
/// token per stage on the slot's shared compute.
#[derive(Debug)]
struct MuxMember {
    pending: PendingRequest,
    generated: u64,
    first_token_s: f64,
}

/// A multiplex slot: several compatible paused batch-tier requests
/// sharing one batch slot (RevMUX-style). The slot is one ordinary
/// decode row in the stage — it joined at the longest member's context
/// and advances one token per stage — while every live member
/// generates a token per stage, credited to goodput at the slot's
/// quality exchange rate.
#[derive(Debug)]
struct MuxSlot {
    /// Decode context the slot joined at (max member context).
    ctx: u64,
    /// Tokens the slot has advanced since joining.
    generated: u64,
    /// KV bytes reserved for the slot (released when it retires).
    kv_bytes: u64,
    /// Goodput credit per multiplexed token, from the
    /// [`crate::MultiplexSpec`] at formation time.
    quality: f64,
    members: Vec<MuxMember>,
}

impl MuxSlot {
    /// Post-advance decode context for the stage being formed (same
    /// convention as [`ActiveRequest::decode_ctx`]).
    fn decode_ctx(&self) -> u64 {
        self.ctx + self.generated
    }

    /// Members still generating.
    fn live_members(&self) -> u64 {
        self.members
            .iter()
            .filter(|m| m.generated < m.pending.request.output_len)
            .count() as u64
    }
}

impl ActiveRequest {
    /// A request joining the batch with `generated` tokens already
    /// behind it (0 for a fresh prefill).
    fn joining(pending: PendingRequest, generated: u64, first_token_s: f64) -> Self {
        Self {
            pending,
            stamp: generated,
            first_token_s,
        }
    }

    /// Tokens generated once the replica has run `stages` stages.
    fn generated(&self, stages: u64) -> u64 {
        stages - self.stamp
    }

    /// Context attended while decoding the stage after `stages`: the
    /// prompt plus every token generated so far.
    fn decode_ctx(&self, stages: u64) -> u64 {
        self.pending.request.input_len + self.generated(stages)
    }

    /// The stage count at which the request has all its tokens. A
    /// prefill always samples one token, so `output_len == 0` finishes
    /// on its prefill stage too.
    fn finish(&self) -> u64 {
        self.stamp + self.pending.request.output_len
    }

    fn kv_reserved(&self, bytes_per_token: u64) -> u64 {
        self.pending.request.max_kv_tokens() * bytes_per_token
    }
}

/// Re-audit the incrementally kept batch state against a full re-derive
/// every this many stages (debug builds only). Per-stage re-summing
/// would make debug runs quadratic in batch x stages.
const KV_AUDIT_PERIOD: u64 = 256;

/// The scenario-global side of a run: the arrival process, tier draws,
/// follow-up spawning and (optionally) trace recording. One stream
/// feeds every replica of a cluster; the replicas never touch RNG, so
/// the draw order — and with it seeded determinism — is fixed by the
/// global event order alone.
pub(crate) struct ScenarioStream<'a> {
    workload: Workload,
    conversation: Option<ConversationSpec>,
    tiers: Vec<SloTier>,
    tier_weight_total: f64,
    source: RequestSource,
    rng: StdRng,
    drawn: usize,
    requests: usize,
    next_id: u64,
    peeked: Option<Request>,
    /// Follow-ups not yet arrived, sorted by descending arrival time
    /// (pop from the back).
    followups: Vec<PendingRequest>,
    recorder: Option<&'a mut TraceRecorder>,
}

impl<'a> ScenarioStream<'a> {
    pub(crate) fn new(scenario: &Scenario, recorder: Option<&'a mut TraceRecorder>) -> Self {
        let total_weight: f64 = scenario.tiers.iter().map(|t| t.weight).sum();
        assert!(
            scenario.tiers.is_empty() || total_weight > 0.0,
            "tier weights must sum to a positive value"
        );
        Self {
            workload: scenario.workload.clone(),
            conversation: scenario.conversation,
            tiers: scenario.tiers.clone(),
            tier_weight_total: total_weight,
            source: RequestSource::new(scenario.workload.clone(), scenario.arrivals.clone()),
            // Scenario-side draws (tier assignment, think times,
            // follow-up lengths) use an independent stream so they
            // never perturb the arrival process.
            rng: StdRng::seed_from_u64(scenario.workload.seed ^ 0x5C3A_A110),
            drawn: 0,
            requests: scenario.requests,
            next_id: scenario.requests as u64,
            peeked: None,
            followups: Vec::new(),
            recorder,
        }
    }

    fn peek_source(&mut self) -> Option<&Request> {
        if self.peeked.is_none() && self.drawn < self.requests {
            self.peeked = Some(self.source.next_request());
            self.drawn += 1;
        }
        self.peeked.as_ref()
    }

    /// Arrival time of the next request (source or follow-up), if any.
    pub(crate) fn next_arrival_time(&mut self) -> Option<f64> {
        let source = self.peek_source().map(|r| r.arrival_s);
        let follow = self.followups.last().map(|f| f.request.arrival_s);
        match (source, follow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Pop the earliest pending arrival (source wins exact ties so the
    /// one-replica cluster reproduces the plain scheduler's queue
    /// order), drawing its tier when it comes from the source.
    pub(crate) fn pop_next(&mut self) -> Option<PendingRequest> {
        self.pop_arrived(f64::INFINITY)
    }

    /// [`pop_next`](Self::pop_next), when that arrival comes by
    /// `horizon`.
    pub(crate) fn pop_arrived(&mut self, horizon: f64) -> Option<PendingRequest> {
        let source = self.peek_source().map(|r| r.arrival_s);
        let follow = self.followups.last().map(|f| f.request.arrival_s);
        let (from_source, arrival_s) = match (source, follow) {
            (Some(a), Some(b)) => (a <= b, a.min(b)),
            (Some(a), None) => (true, a),
            (None, Some(b)) => (false, b),
            (None, None) => return None,
        };
        if arrival_s > horizon {
            return None;
        }
        let pending = if from_source {
            let request = self.peeked.take().expect("peeked request exists");
            let tier = self.draw_tier();
            make_pending(request, tier, &self.tiers)
        } else {
            self.followups.pop().expect("checked non-empty")
        };
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record_request(&pending.request);
        }
        Some(pending)
    }

    fn draw_tier(&mut self) -> usize {
        if self.tiers.is_empty() {
            return 0;
        }
        let mut u: f64 = self.rng.random::<f64>() * self.tier_weight_total;
        for (i, t) in self.tiers.iter().enumerate() {
            u -= t.weight;
            if u < 0.0 {
                return i;
            }
        }
        self.tiers.len() - 1
    }

    /// Roll the continuation die for a finished round.
    fn roll_followup(&mut self, prob: f64) -> bool {
        self.rng.random::<f64>() < prob
    }

    /// Draw think time and lengths for the next round and queue the
    /// follow-up (absolute arrival time).
    fn spawn_followup(&mut self, done: &PendingRequest, history: u64, now_s: f64) {
        let spec = self.conversation.expect("spawn requires a conversation");
        let think = exp_sample(&mut self.rng, 1.0 / spec.mean_think_s);
        let turn = sample_len(&mut self.rng, spec.turn_tokens, self.workload.cv);
        let output = sample_len(&mut self.rng, self.workload.mean_output, self.workload.cv);
        let request = Request {
            id: self.next_id,
            arrival_s: now_s + think,
            input_len: history + turn,
            output_len: output,
        };
        self.next_id += 1;
        let follow = PendingRequest {
            deadline_s: request.arrival_s
                + self
                    .tiers
                    .get(done.tier)
                    .map_or(f64::INFINITY, |t| t.t2ft_deadline_s),
            request,
            tier: done.tier,
            priority: done.priority,
            conversation: done.conversation,
            round: done.round + 1,
            history_tokens: history,
            skipped: 0,
        };
        // Keep descending arrival order (pop from back).
        let pos = self
            .followups
            .partition_point(|f| f.request.arrival_s > follow.request.arrival_s);
        self.followups.insert(pos, follow);
    }

    /// Re-enqueue a request that left the fleet (crash retry, drain
    /// reroute) so it flows back through the router at its (possibly
    /// rewritten) arrival time. Rides the follow-up queue: the request
    /// merges into the global arrival order and is captured by stream
    /// snapshots like any other queued arrival. No RNG is drawn — the
    /// request keeps its identity, tier and history.
    pub(crate) fn requeue(&mut self, p: PendingRequest) {
        let pos = self
            .followups
            .partition_point(|f| f.request.arrival_s > p.request.arrival_s);
        self.followups.insert(pos, p);
    }

    /// Capture the stream's dynamic state (both RNG streams, draw
    /// counters, the peeked request and queued follow-ups) for a
    /// [`crate::ClusterSnapshot`]. Static configuration (workload,
    /// tiers, conversation spec) is not captured: a resume rebuilds it
    /// from the same [`Scenario`].
    pub(crate) fn export_state(&self) -> StreamState {
        let (source_rng, source_next_id, source_clock, source_burst_on, source_phase_until) =
            self.source.export_state();
        StreamState {
            source_rng,
            source_next_id,
            source_clock,
            source_burst_on,
            source_phase_until,
            rng: self.rng.state(),
            drawn: self.drawn as u64,
            next_id: self.next_id,
            peeked: self.peeked,
            followups: self.followups.clone(),
        }
    }

    /// Restore state captured by [`export_state`](Self::export_state)
    /// onto a freshly built stream for the same scenario.
    pub(crate) fn import_state(&mut self, s: &StreamState) {
        self.source.import_state(
            s.source_rng,
            s.source_next_id,
            s.source_clock,
            s.source_burst_on,
            s.source_phase_until,
        );
        self.rng = StdRng::from_state(s.rng);
        self.drawn = s.drawn as usize;
        self.next_id = s.next_id;
        self.peeked = s.peeked;
        self.followups = s.followups.clone();
    }
}

fn make_pending(request: Request, tier: usize, tiers: &[SloTier]) -> PendingRequest {
    let (priority, deadline_s) = tiers.get(tier).map_or((0, f64::INFINITY), |t| {
        (t.priority, request.arrival_s + t.t2ft_deadline_s)
    });
    PendingRequest {
        request,
        tier,
        priority,
        deadline_s,
        conversation: request.id,
        round: 1,
        history_tokens: 0,
        skipped: 0,
    }
}

/// A conversation-lifecycle action buffered during
/// [`ReplicaSim::step`] and applied to the shared [`ScenarioStream`]
/// at the next merge point, in buffer order. Deferring these (instead
/// of mutating the stream mid-step) is what makes replica stepping
/// side-effect-free between synchronization points.
pub(crate) enum RetireEvent {
    /// A round below the conversation's round cap finished: roll the
    /// continuation die; on success park `history` tokens and spawn
    /// the follow-up round (think time measured from `now_s`), on
    /// failure release the conversation's parked KV.
    MaybeFollowup {
        /// The finished round, owning conversation identity and tier.
        pending: PendingRequest,
        /// Prompt + generated tokens: the parked-history length.
        history: u64,
        /// The replica clock when the round retired.
        now_s: f64,
    },
    /// The round cap was reached: drop parked KV, no die roll.
    Release {
        /// The conversation whose KV is released.
        conversation: u64,
    },
}

/// A finished prefill waiting to ship to its decode replica: buffered
/// during [`ReplicaSim::step`] exactly like [`RetireEvent`]s and
/// delivered by the cluster at the next merge point, where the KV
/// transfer is priced over the pool interconnect.
pub(crate) struct HandoffEvent {
    /// The request whose prompt just finished prefilling here.
    pub(crate) pending: PendingRequest,
    /// The replica clock when the last prefill slice completed.
    pub(crate) done_s: f64,
}

/// One replica's continuous-batching event loop: routed requests enter
/// through [`ReplicaSim::enqueue`], [`ReplicaSim::step`] forms and
/// executes one stage, and the accumulated metrics leave through
/// [`ReplicaSim::into_report`]. The plain [`ScenarioSimulation`] is a
/// one-replica instance of exactly this machine.
pub(crate) struct ReplicaSim {
    config: SimulationConfig,
    tiers: Vec<SloTier>,
    conversation: Option<ConversationSpec>,
    prefill_chunk: u64,
    adaptive_chunk: Option<AdaptiveChunk>,
    /// Whether deltas must carry decode-join contexts: reuse
    /// admissions and chunked final slices join above their prefilled
    /// length.
    announce_ctx: bool,
    /// Routed requests not yet folded into the waiting queue, sorted
    /// by descending arrival time (pop from the back).
    inbox: Vec<PendingRequest>,
    pending: Vec<PendingRequest>,
    active: Vec<ActiveRequest>,
    /// The finish stage of each active request, by position: the
    /// retirement sweep scans this dense copy instead of the requests.
    finish: Vec<u64>,
    /// Smallest finish stage in the active set: stages before it
    /// retire nothing, so they skip the sweep.
    next_due: u64,
    /// Within-step scratch: fresh prefills joining the stage being
    /// formed. Empty at merge points.
    admitted: Vec<ActiveRequest>,
    /// Requests mid-way through a chunked prompt prefill, in admission
    /// order (each stage continues them FIFO).
    chunking: Vec<ChunkingRequest>,
    /// Batch-tier decodes paused by the preemption policy, in pause
    /// order (resumed FIFO).
    paused: Vec<PausedRequest>,
    /// Within-step scratch: paused requests rejoining the stage being
    /// formed (one-token swap joins and final recompute slices). They
    /// keep their mid-decode state, unlike `admitted` — drained into
    /// `active` after the stage executes. Empty at merge points.
    resumed: Vec<ActiveRequest>,
    /// Live multiplex slots: each is one decode row shared by several
    /// batch-tier requests.
    mux: Vec<MuxSlot>,
    /// Within-step scratch: multiplex slots joining the stage being
    /// formed. Empty at merge points.
    mux_admitted: Vec<MuxSlot>,
    /// Preemption and multiplexing counters.
    preempt: PreemptStats,
    /// Finished conversations' KV, parked between turns. Recompute
    /// policy: an evicted history is simply re-prefilled.
    parked: Option<PagedKvCache>,
    reserved: u64,
    clock: f64,
    delta: StageDelta,
    shape: StageShape,
    completed: Vec<RequestRecord>,
    stages: Vec<StageRecord>,
    stage_stats: StageStats,
    tbt_digest: LatencyDigest,
    /// The TBT bucket of recent stage latencies, shared by the fleet
    /// and tier digests. Not part of any report or snapshot.
    tbt_bucket: BucketMemo,
    tier_stats: Vec<TierStats>,
    /// Reused per-stage tier-occupancy counts for per-tier TBT.
    tier_active: Vec<u64>,
    kv_reuse: KvReuseStats,
    /// Conversation events buffered by [`ReplicaSim::step`], applied
    /// at the next merge point (capacity reused across steps).
    retire_events: Vec<RetireEvent>,
    /// Pool role under disaggregated serving: `Colocated` replicas run
    /// both phases (the default, byte-identical to the pre-pool
    /// behavior), `Prefill` replicas only run prompts and hand the KV
    /// off, `Decode` replicas receive those handoffs as parked KV.
    role: PoolRole,
    /// Finished prefill-pool prompts awaiting KV transfer, buffered
    /// like `retire_events` and drained by the cluster at merge points.
    handoffs: Vec<HandoffEvent>,
    /// Within-step scratch: prompts whose final prefill slice is in the
    /// stage being formed; they become [`HandoffEvent`]s once the stage
    /// executes and the clock advances (capacity reused across steps).
    finished_prefills: Vec<PendingRequest>,
    /// Router-facing admission flag: false while a fault plan has this
    /// replica down or draining. Orthogonal to the stage cap.
    admitting: bool,
    /// Whether the replica is finishing its batch under a drain fault.
    draining: bool,
    /// Virtual-time multiplier on stage latency (restart warm-up,
    /// transient slowdown). 1.0 is bit-exact pass-through.
    perf_factor: f64,
    /// When this replica last went down (crash applied, drain handoff
    /// completed, or parked in the standby pool); `None` while up.
    down_since: Option<f64>,
    /// Closed down time accumulated by earlier outages, in virtual
    /// seconds (the open interval, if any, is closed by `restart`).
    down_seconds: f64,
    /// During-failure SLO windows `[start, end)` from the fault plan
    /// (empty without one) and the per-window, per-tier
    /// (completed, met) counts.
    fault_windows: Vec<(f64, f64)>,
    window_counts: Vec<Vec<(u64, u64)>>,
    /// Generated-token timeline: bucket width (0 = disabled) and
    /// per-bucket token counts in bucket order.
    timeline_bucket_s: f64,
    timeline: Vec<(u64, u64)>,
}

impl ReplicaSim {
    /// # Panics
    ///
    /// Panics when `config.max_batch` is 0: no stage could ever run.
    pub(crate) fn new(config: SimulationConfig, scenario: &Scenario) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        let parked = scenario.conversation.as_ref().map(|spec| {
            PagedKvCache::new(
                config.kv_capacity_bytes,
                spec.page_tokens,
                config.kv_bytes_per_token.max(1),
                EvictionPolicy::Recompute,
            )
        });
        let tier_stats: Vec<TierStats> = scenario
            .tiers
            .iter()
            .map(|t| TierStats {
                name: t.name.clone(),
                t2ft_deadline_s: t.t2ft_deadline_s,
                tbt_deadline_s: t.tbt_deadline_s,
                ..TierStats::default()
            })
            .collect();
        Self {
            tiers: scenario.tiers.clone(),
            conversation: scenario.conversation,
            prefill_chunk: scenario.prefill_chunk,
            adaptive_chunk: scenario.adaptive_chunk,
            announce_ctx: scenario.conversation.is_some() || scenario.chunked(),
            inbox: Vec::new(),
            pending: Vec::new(),
            active: Vec::new(),
            finish: Vec::new(),
            next_due: u64::MAX,
            admitted: Vec::new(),
            chunking: Vec::new(),
            paused: Vec::new(),
            resumed: Vec::new(),
            mux: Vec::new(),
            mux_admitted: Vec::new(),
            preempt: PreemptStats::default(),
            parked,
            reserved: 0,
            clock: 0.0,
            delta: StageDelta::start(),
            shape: StageShape::default(),
            completed: Vec::new(),
            stages: Vec::new(),
            stage_stats: StageStats::default(),
            tbt_digest: LatencyDigest::default(),
            tbt_bucket: BucketMemo::default(),
            tier_active: vec![0; tier_stats.len()],
            tier_stats,
            kv_reuse: KvReuseStats::default(),
            retire_events: Vec::new(),
            role: PoolRole::Colocated,
            handoffs: Vec::new(),
            finished_prefills: Vec::new(),
            admitting: true,
            draining: false,
            perf_factor: 1.0,
            down_since: None,
            down_seconds: 0.0,
            fault_windows: Vec::new(),
            window_counts: Vec::new(),
            timeline_bucket_s: 0.0,
            timeline: Vec::new(),
            config,
        }
    }

    /// Hand a routed request to this replica.
    pub(crate) fn enqueue(&mut self, p: PendingRequest) {
        let pos = self
            .inbox
            .partition_point(|q| q.request.arrival_s > p.request.arrival_s);
        self.inbox.insert(pos, p);
    }

    /// Hand over a request from a time-ordered feed: an arrived one
    /// joins the waiting queue directly, a later one waits in the
    /// inbox for the idle jump.
    pub(crate) fn deliver(&mut self, p: PendingRequest) {
        if p.request.arrival_s <= self.clock {
            self.pending.push(p);
        } else {
            self.enqueue(p);
        }
    }

    /// Batch slots that no in-flight or queued request has a claim on.
    pub(crate) fn unclaimed_slots(&self) -> usize {
        let claimed = self.active.len()
            + self.chunking.len()
            + self.mux.len()
            + self.pending.len()
            + self.inbox.len();
        self.config.max_batch.saturating_sub(claimed)
    }

    pub(crate) fn in_flight(&self) -> bool {
        !self.active.is_empty()
            || !self.chunking.is_empty()
            || !self.admitted.is_empty()
            || !self.resumed.is_empty()
            || !self.mux.is_empty()
            || !self.mux_admitted.is_empty()
            // Paused work still belongs to this replica: it must resume
            // and finish here before the replica counts as drained.
            || !self.paused.is_empty()
    }

    /// Whether the stage cap still allows this replica to run.
    pub(crate) fn can_accept(&self) -> bool {
        (self.stage_stats.stages as usize) < self.config.max_stages
    }

    /// When this replica's next stage would start: its clock while it
    /// has work, the earliest routed arrival while idle, `None` when
    /// drained (or stage-capped).
    pub(crate) fn next_start(&self) -> Option<f64> {
        if !self.can_accept() {
            return None;
        }
        if self.in_flight() || !self.pending.is_empty() {
            return Some(self.clock);
        }
        self.inbox
            .last()
            .map(|p| self.clock.max(p.request.arrival_s))
    }

    /// Resident tokens of this conversation's parked history in this
    /// replica's KV pool (0 when absent) — the session-affinity
    /// routing signal. A stale entry from an earlier round reports its
    /// own (shorter) prefix length.
    pub(crate) fn resident_history(&self, conversation: u64) -> u64 {
        self.parked
            .as_ref()
            .and_then(|cache| cache.resident_tokens(conversation))
            .unwrap_or(0)
    }

    /// Router-facing load metrics: (in-flight requests, queued
    /// requests, outstanding work in tokens). A queued follow-up is
    /// charged the prefill *this* replica would actually run: its
    /// history counts as reused only up to the prefix parked here —
    /// a spilled follow-up re-prefills everything, and the load says
    /// so. Exact O(queue) walk per snapshot; revisit with running
    /// counters if fleets outgrow the suite's backlog sizes.
    pub(crate) fn load(&self) -> (usize, usize, u64) {
        let mux_members: usize = self.mux.iter().map(|s| s.live_members() as usize).sum();
        let in_flight = self.active.len() + self.admitted.len() + self.chunking.len() + mux_members;
        // Paused requests are queued-but-displaced: they will re-enter
        // this replica's batch, so the router prices them as queue.
        let queued = self.pending.len() + self.inbox.len() + self.paused.len();
        let stages = self.stage_stats.stages;
        let mut tokens: u64 = self
            .active
            .iter()
            .map(|a| {
                a.pending
                    .request
                    .output_len
                    .saturating_sub(a.generated(stages))
            })
            .sum();
        tokens += self
            .chunking
            .iter()
            .map(|c| c.prefill_total - c.processed + c.pending.request.output_len)
            .sum::<u64>();
        tokens += self
            .mux
            .iter()
            .flat_map(|s| s.members.iter())
            .map(|m| m.pending.request.output_len.saturating_sub(m.generated))
            .sum::<u64>();
        tokens += self
            .paused
            .iter()
            .map(|p| {
                // A recompute resume re-prefills the whole paused
                // context before generation continues.
                let reprefill = if p.swapped { 0 } else { p.ctx };
                reprefill + p.pending.request.output_len.saturating_sub(p.generated)
            })
            .sum::<u64>();
        tokens += self
            .pending
            .iter()
            .chain(self.inbox.iter())
            .map(|p| {
                let reused = self.resident_history(p.conversation).min(p.history_tokens);
                p.request.input_len - reused + p.request.output_len
            })
            .sum::<u64>();
        (in_flight, queued, tokens)
    }

    /// KV bytes of swapped-out paused contexts parked in this
    /// replica's pool — displaced state still bound to this replica,
    /// advertised to routers through
    /// [`crate::router::ReplicaSnapshot::transfer_backlog_bytes`].
    pub(crate) fn paused_swap_bytes(&self) -> u64 {
        self.paused
            .iter()
            .filter(|p| p.swapped)
            .map(|p| p.ctx * self.config.kv_bytes_per_token)
            .sum()
    }

    /// Arm the preemption machinery before the run starts (and before
    /// any snapshot import) when `policy` preempts: resumes join the
    /// batch above their prefilled length, so deltas must announce
    /// decode-join contexts, and swap-out needs a parked pool even in
    /// single-shot scenarios. A no-op for plain policies.
    pub(crate) fn prepare_preempt(&mut self, policy: &dyn SchedulingPolicy) {
        if policy.preempt_spec().is_none() {
            return;
        }
        self.announce_ctx = true;
        if self.parked.is_none() {
            self.parked = Some(PagedKvCache::new(
                self.config.kv_capacity_bytes,
                Self::HANDOFF_PAGE_TOKENS,
                self.config.kv_bytes_per_token.max(1),
                EvictionPolicy::Recompute,
            ));
        }
    }

    /// KV bytes reserved by in-flight work, and the replica's budget.
    pub(crate) fn kv_usage(&self) -> (u64, u64) {
        (self.reserved, self.config.kv_capacity_bytes)
    }

    pub(crate) fn clock(&self) -> f64 {
        self.clock
    }

    pub(crate) fn max_batch(&self) -> usize {
        self.config.max_batch
    }

    /// Router-facing admission: the stage cap allows more work *and*
    /// no fault has this replica down or draining. What dispatch
    /// advertises as [`crate::router::ReplicaSnapshot::accepting`].
    pub(crate) fn is_admitting(&self) -> bool {
        self.admitting && self.can_accept()
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining
    }

    /// Arm fault-plan recording: the during-failure SLO windows (one
    /// per scripted fault) and the generated-token timeline bucket.
    /// Must be called before the run starts (and before any snapshot
    /// import) so no-fault runs skip the recording entirely.
    pub(crate) fn set_fault_recording(&mut self, windows: Vec<(f64, f64)>, bucket_s: f64) {
        self.window_counts = vec![vec![(0, 0); self.tier_stats.len()]; windows.len()];
        self.fault_windows = windows;
        self.timeline_bucket_s = bucket_s;
    }

    /// Scale this replica's stage latency (warm-up, slowdown; 1.0 =
    /// nominal).
    pub(crate) fn set_perf_factor(&mut self, factor: f64) {
        self.perf_factor = factor;
    }

    /// Page granularity for the parked pool a decode replica creates to
    /// receive prefill handoffs when the scenario itself has no
    /// conversation spec (and hence no pool of its own).
    const HANDOFF_PAGE_TOKENS: u64 = 16;

    /// Assign this replica's pool role before the run starts (or before
    /// a snapshot import). A `Decode` replica must announce decode-join
    /// contexts — handed-off prompts join above their shipped KV — and
    /// needs a parked pool to receive that KV even in single-shot
    /// scenarios.
    pub(crate) fn set_role(&mut self, role: PoolRole) {
        self.role = role;
        if role == PoolRole::Decode {
            self.announce_ctx = true;
            if self.parked.is_none() {
                self.parked = Some(PagedKvCache::new(
                    self.config.kv_capacity_bytes,
                    Self::HANDOFF_PAGE_TOKENS,
                    self.config.kv_bytes_per_token.max(1),
                    EvictionPolicy::Recompute,
                ));
            }
        }
    }

    pub(crate) fn role(&self) -> PoolRole {
        self.role
    }

    /// Whether [`ReplicaSim::step`] buffered finished prefills whose KV
    /// must ship to the decode pool before this replica's window can
    /// continue.
    pub(crate) fn has_handoffs(&self) -> bool {
        !self.handoffs.is_empty()
    }

    /// Take the buffered prefill→decode handoffs, in completion order.
    pub(crate) fn take_handoffs(&mut self) -> Vec<HandoffEvent> {
        std::mem::take(&mut self.handoffs)
    }

    /// Hard-crash this replica at a merge point: every queued,
    /// chunking and decoding request is lost (returned sorted by
    /// request id for deterministic retry order), the parked KV pool
    /// is wiped, and the replica stops admitting until restarted. The
    /// carried stage delta resets to a fresh one, so the executor's
    /// next `execute_delta` rebuilds its batch state from scratch.
    pub(crate) fn crash(&mut self) -> Vec<PendingRequest> {
        debug_assert!(
            self.admitted.is_empty()
                && self.resumed.is_empty()
                && self.mux_admitted.is_empty()
                && self.retire_events.is_empty()
                && self.handoffs.is_empty(),
            "crash applied outside a merge point"
        );
        let mut lost: Vec<PendingRequest> = Vec::new();
        lost.append(&mut self.inbox);
        lost.append(&mut self.pending);
        lost.extend(self.chunking.drain(..).map(|c| c.pending));
        lost.extend(self.active.drain(..).map(|a| a.pending));
        self.finish.clear();
        self.next_due = u64::MAX;
        // Paused requests and multiplex-slot members die with the
        // replica like any other in-flight decode (their parked KV is
        // wiped below either way).
        lost.extend(self.paused.drain(..).map(|p| p.pending));
        lost.extend(
            self.mux
                .drain(..)
                .flat_map(|s| s.members.into_iter().map(|m| m.pending)),
        );
        lost.sort_by_key(|p| p.request.id);
        for n in self.tier_active.iter_mut() {
            *n = 0;
        }
        self.reserved = 0;
        self.delta = StageDelta::start();
        if self.parked.is_some() {
            // Wipe the parked pool (conversation histories or received
            // prefill handoffs alike are gone with the replica).
            let page_tokens = self
                .conversation
                .as_ref()
                .map_or(Self::HANDOFF_PAGE_TOKENS, |spec| spec.page_tokens);
            self.parked = Some(PagedKvCache::new(
                self.config.kv_capacity_bytes,
                page_tokens,
                self.config.kv_bytes_per_token.max(1),
                EvictionPolicy::Recompute,
            ));
        }
        self.admitting = false;
        self.draining = false;
        lost
    }

    /// Begin a graceful drain: stop admitting, return the
    /// queued-but-unstarted requests (sorted by request id) for
    /// rerouting, keep the in-flight batch running. The cluster
    /// completes the drain (KV handoff, down window) once
    /// [`ReplicaSim::in_flight`] empties.
    pub(crate) fn begin_drain(&mut self) -> Vec<PendingRequest> {
        let mut displaced: Vec<PendingRequest> = Vec::new();
        displaced.append(&mut self.inbox);
        displaced.append(&mut self.pending);
        displaced.sort_by_key(|p| p.request.id);
        self.admitting = false;
        self.draining = true;
        displaced
    }

    /// The drain's batch finished and its KV was handed off: the
    /// replica is now plain down (not admitting) until restarted.
    pub(crate) fn finish_drain(&mut self) {
        debug_assert!(self.draining && !self.in_flight());
        self.draining = false;
    }

    /// Bring a downed replica back at virtual time `at`: it admits
    /// again, its clock cannot run before the restart, and the open
    /// down interval (if any) closes into the down-time total.
    pub(crate) fn restart(&mut self, at: f64) {
        if let Some(since) = self.down_since.take() {
            self.down_seconds += (at - since).max(0.0);
        }
        self.admitting = true;
        self.clock = self.clock.max(at);
    }

    /// Record that this replica went down at virtual time `at` (the
    /// fault time for a crash, the handoff completion for a drain, the
    /// provisioning time for a scale-down): provisioned "up" time
    /// stops accruing until [`ReplicaSim::restart`]. Idempotent while
    /// already down.
    pub(crate) fn mark_down(&mut self, at: f64) {
        if self.down_since.is_none() {
            self.down_since = Some(at);
        }
    }

    /// Park this replica in the standby pool before the run starts:
    /// it does not admit and counts as down from time 0 until an
    /// autoscaler provisions it via [`ReplicaSim::restart`].
    pub(crate) fn deactivate(&mut self) {
        debug_assert!(
            !self.in_flight() && self.inbox.is_empty() && self.pending.is_empty(),
            "only an untouched replica can join the standby pool"
        );
        self.admitting = false;
        self.draining = false;
        self.down_since = Some(0.0);
    }

    /// Virtual seconds this replica spent down in `[0, until]`: closed
    /// outages plus the still-open one, if any. `until` minus this is
    /// the replica's provisioned (billable) up time.
    pub(crate) fn down_seconds_until(&self, until: f64) -> f64 {
        self.down_seconds + self.down_since.map_or(0.0, |s| (until - s).max(0.0))
    }

    /// Cumulative (met, completed) SLO counts of the first
    /// (interactive) tier — the autoscaler differences these between
    /// evaluations for its windowed attainment signal.
    pub(crate) fn interactive_slo_counts(&self) -> (u64, u64) {
        self.tier_stats
            .first()
            .map_or((0, 0), |t| (t.met, t.completed))
    }

    /// Resident parked tokens of `conversation` (None when absent or
    /// evicted) — the migration-source probe.
    pub(crate) fn parked_tokens(&self, conversation: u64) -> Option<u64> {
        self.parked
            .as_ref()
            .and_then(|cache| cache.resident_tokens(conversation))
    }

    /// Drop `conversation`'s parked entry (its pages just shipped
    /// elsewhere).
    pub(crate) fn release_parked(&mut self, conversation: u64) {
        if let Some(cache) = self.parked.as_mut() {
            cache.release(conversation);
        }
    }

    /// Park a migrated conversation history here. Returns false when
    /// the entry cannot fit even after evicting everything else (the
    /// migration is abandoned and the conversation re-prefills later).
    pub(crate) fn receive_parked(&mut self, conversation: u64, tokens: u64) -> bool {
        let Some(cache) = self.parked.as_mut() else {
            return false;
        };
        // A stale shorter prefix of the same conversation may already
        // be parked here; the shipped entry supersedes it.
        cache.release(conversation);
        match cache.admit(conversation, tokens) {
            Ok(evicted) => {
                self.kv_reuse.parked_evictions += evicted.len() as u64;
                true
            }
            Err(_) => false,
        }
    }

    /// Take every parked entry for a drain handoff, in deterministic
    /// (request-id) order: resident `(conversation, tokens)` pairs.
    /// Leaves the pool empty.
    pub(crate) fn take_parked(&mut self) -> Vec<(u64, u64)> {
        let Some(cache) = self.parked.as_mut() else {
            return Vec::new();
        };
        let (_, entries) = cache.export_entries();
        let mut moved = Vec::new();
        for e in &entries {
            cache.release(e.request);
            if e.resident {
                moved.push((e.request, e.tokens));
            }
        }
        moved
    }

    /// Charge a KV-migration transfer to this (receiving) replica's
    /// clock: the interconnect and the pool are busy for `seconds`.
    pub(crate) fn add_transfer_time(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    /// Per-fault during-failure SLO counts (window x tier), for the
    /// cluster's recovery report.
    pub(crate) fn window_counts(&self) -> &[Vec<(u64, u64)>] {
        &self.window_counts
    }

    /// The generated-token timeline (bucket index, tokens), for the
    /// cluster's recovery report.
    pub(crate) fn timeline(&self) -> &[(u64, u64)] {
        &self.timeline
    }

    /// Deterministic victim choice for preemption: among active
    /// requests at or below the victim priority class (larger value =
    /// more batch-like), pick the most batch-like first, break ties
    /// toward the smallest resident context (cheapest to resume), then
    /// the smallest request id.
    fn pick_victim(&self, victim_priority: u32) -> Option<usize> {
        let stages = self.stage_stats.stages;
        let mut best: Option<usize> = None;
        for (i, a) in self.active.iter().enumerate() {
            if a.pending.priority < victim_priority {
                continue;
            }
            let key = (
                std::cmp::Reverse(a.pending.priority),
                a.decode_ctx(stages),
                a.pending.request.id,
            );
            best = match best {
                Some(b) => {
                    let cur = &self.active[b];
                    let cur_key = (
                        std::cmp::Reverse(cur.pending.priority),
                        cur.decode_ctx(stages),
                        cur.pending.request.id,
                    );
                    if key < cur_key {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
                None => Some(i),
            };
        }
        best
    }

    /// Pause one active decode mid-flight: retire it from the stage
    /// delta exactly as a completion would (the batch-state advance
    /// then matches), release its slot and KV reservation, and park
    /// its context when the cost model prefers swap-out and the pool
    /// accepts it — otherwise the context is dropped for a
    /// recompute-on-resume.
    fn pause_victim(&mut self, idx: usize, spec: &PreemptSpec) {
        let bytes_per_token = self.config.kv_bytes_per_token;
        let stages = self.stage_stats.stages;
        let victim = self.active.swap_remove(idx);
        if self.finish.swap_remove(idx) == self.next_due {
            self.next_due = self.finish.iter().copied().min().unwrap_or(u64::MAX);
        }
        if !self.tier_active.is_empty() {
            self.tier_active[victim.pending.tier] -= 1;
        }
        self.reserved -= victim.kv_reserved(bytes_per_token);
        let ctx = victim.decode_ctx(stages);
        self.delta.retire.push(ctx);
        let swapped = spec.prefers_swap(ctx, ctx * bytes_per_token)
            && self.receive_parked(victim.pending.conversation, ctx);
        self.preempt.preemptions += 1;
        self.paused.push(PausedRequest {
            generated: victim.generated(stages),
            pending: victim.pending,
            first_token_s: victim.first_token_s,
            ctx,
            swapped,
            paused_at_s: self.clock,
        });
    }

    /// Whether a paused request's swapped-out context is still fully
    /// resident in the parked pool (it may have been evicted under KV
    /// pressure since the pause, which forces a recompute instead).
    fn swap_resident(&self, pr: &PausedRequest) -> bool {
        pr.swapped
            && self
                .parked
                .as_ref()
                .and_then(|c| c.resident_tokens(pr.pending.conversation))
                .is_some_and(|t| t >= pr.ctx)
    }

    /// Greedy FIFO multiplex-slot formation: anchor on the oldest
    /// swapped-resident paused request, pack later ones whose contexts
    /// agree within the tolerance (up to `lanes` members), and price
    /// each member's KV restore on the clock. Returns `None` when no
    /// two compatible members exist or the slot's padded KV
    /// reservation cannot fit.
    fn form_mux_slot(&mut self, spec: &PreemptSpec, mspec: &MultiplexSpec) -> Option<MuxSlot> {
        let bytes_per_token = self.config.kv_bytes_per_token;
        let anchor = (0..self.paused.len()).find(|&i| self.swap_resident(&self.paused[i]))?;
        let anchor_ctx = self.paused[anchor].ctx;
        let mut picked = vec![anchor];
        for i in anchor + 1..self.paused.len() {
            if picked.len() >= mspec.lanes {
                break;
            }
            let pr = &self.paused[i];
            if pr.ctx.abs_diff(anchor_ctx) <= mspec.ctx_tolerance && self.swap_resident(pr) {
                picked.push(i);
            }
        }
        if picked.len() < 2 {
            return None;
        }
        let slot_ctx = picked
            .iter()
            .map(|&i| self.paused[i].ctx)
            .max()
            .expect("picked is non-empty");
        let max_remaining = picked
            .iter()
            .map(|&i| {
                let pr = &self.paused[i];
                pr.pending.request.output_len - pr.generated
            })
            .max()
            .expect("picked is non-empty");
        // The slot is padded to the longest member and decodes until
        // the longest remaining stream finishes.
        let kv_bytes = (slot_ctx + max_remaining) * bytes_per_token;
        if self.reserved.saturating_add(kv_bytes) > self.config.kv_capacity_bytes {
            return None;
        }
        let mut members = Vec::with_capacity(picked.len());
        // Remove back-to-front so earlier indices stay valid, then
        // restore FIFO order below.
        for &i in picked.iter().rev() {
            let pr = self.paused.remove(i);
            self.preempt.paused_time_s += (self.clock - pr.paused_at_s).max(0.0);
            if let Some(cache) = self.parked.as_mut() {
                cache.release(pr.pending.conversation);
            }
            let restore = spec.swap_restore_seconds(pr.ctx * bytes_per_token);
            self.clock += restore;
            self.preempt.swap_restore_seconds += restore;
            self.preempt.swaps += 1;
            self.preempt.resumes += 1;
            members.push(MuxMember {
                pending: pr.pending,
                generated: pr.generated,
                first_token_s: pr.first_token_s,
            });
        }
        members.reverse();
        self.preempt.mux_slots += 1;
        Some(MuxSlot {
            ctx: slot_ctx,
            generated: 0,
            kv_bytes,
            quality: mspec.quality,
            members,
        })
    }

    /// Resume paused work into this stage's free slots, multiplexed
    /// slots first, then individual FIFO resumes (swap restore when the
    /// parked context survived, recompute otherwise).
    fn resume_paused(
        &mut self,
        multiplex: Option<MultiplexSpec>,
        spec: &PreemptSpec,
        force: bool,
        budget: &mut u64,
    ) {
        let bytes_per_token = self.config.kv_bytes_per_token;
        let occupied = self.active.len()
            + self.admitted.len()
            + self.chunking.len()
            + self.finished_prefills.len()
            + self.mux.len()
            + self.mux_admitted.len();
        let free = self.config.max_batch.saturating_sub(occupied);
        let mut allowance = free;
        if force {
            allowance = allowance.max(1);
            *budget = (*budget).max(1);
        }
        if let Some(mspec) = multiplex {
            while allowance > 0 && *budget > 0 {
                let Some(slot) = self.form_mux_slot(spec, &mspec) else {
                    break;
                };
                // One-token join at the slot's padded context: the
                // slot decodes one row that all members share.
                self.delta.admit.push(1);
                if self.announce_ctx {
                    self.delta.admit_ctx.push(slot.ctx);
                }
                self.shape.push_prefill(1, slot.ctx - 1, false);
                self.reserved += slot.kv_bytes;
                *budget -= 1;
                allowance -= 1;
                self.mux_admitted.push(slot);
            }
        }
        while allowance > 0 && *budget > 0 {
            let Some(front) = self.paused.first() else {
                break;
            };
            let need = front.pending.request.max_kv_tokens() * bytes_per_token;
            if self.reserved.saturating_add(need) > self.config.kv_capacity_bytes {
                // Head-of-line block: wait for retirements rather
                // than resuming out of order.
                break;
            }
            let pr = self.paused.remove(0);
            let use_swap = self.swap_resident(&pr);
            self.preempt.paused_time_s += (self.clock - pr.paused_at_s).max(0.0);
            self.preempt.resumes += 1;
            self.reserved += need;
            if pr.swapped {
                // Release the parked context (restored below, or
                // stale after an eviction forced recompute).
                if let Some(cache) = self.parked.as_mut() {
                    cache.release(pr.pending.conversation);
                }
            }
            if let Some(cache) = self.parked.as_mut() {
                while self.reserved + cache.resident_bytes() > self.config.kv_capacity_bytes {
                    cache
                        .evict_one()
                        .expect("over budget implies a parked victim");
                    self.kv_reuse.parked_evictions += 1;
                }
            }
            if use_swap {
                // Priced restore of the parked KV, then a one-token
                // rejoin at the parked context.
                let restore = spec.swap_restore_seconds(pr.ctx * bytes_per_token);
                self.clock += restore;
                self.preempt.swap_restore_seconds += restore;
                self.preempt.swaps += 1;
                self.delta.admit.push(1);
                if self.announce_ctx {
                    self.delta.admit_ctx.push(pr.ctx);
                }
                self.shape.push_prefill(1, pr.ctx - 1, false);
                *budget -= 1;
                self.resumed.push(ActiveRequest::joining(
                    pr.pending,
                    pr.generated,
                    pr.first_token_s,
                ));
            } else {
                self.preempt.recomputes += 1;
                let total = pr.ctx;
                self.kv_reuse.prefilled_tokens += total;
                let slice = total.min(*budget);
                *budget -= slice;
                if slice < total {
                    self.delta.chunk.push((slice, 0));
                    self.shape.push_prefill(slice, 0, true);
                    self.chunking.push(ChunkingRequest {
                        pending: pr.pending,
                        history: 0,
                        processed: slice,
                        prefill_total: total,
                        resumed: Some(ResumeCarry {
                            generated: pr.generated,
                            first_token_s: pr.first_token_s,
                        }),
                    });
                } else {
                    self.delta.admit.push(total);
                    if self.announce_ctx {
                        self.delta.admit_ctx.push(total);
                    }
                    self.shape.push_prefill(total, 0, false);
                    self.resumed.push(ActiveRequest::joining(
                        pr.pending,
                        pr.generated,
                        pr.first_token_s,
                    ));
                }
            }
            allowance -= 1;
        }
    }

    /// Form and execute one stage at this replica's `next_start` time,
    /// or, when that stage is quiet, a run of quiet stages (see
    /// [`ReplicaSim::quiet_stage`]).
    ///
    /// `bound` is the earliest time at which the caller's next loop
    /// iteration could hand this replica something new, `None` when
    /// nothing could: the window bound under [`ReplicaSim::run_window`]
    /// (the fleet's next arrival or control-plane event), the stream's
    /// next arrival under [`ScenarioSimulation`], and under
    /// [`crate::Simulation`] the stream's next arrival while a batch
    /// slot is unclaimed, `None` while the batch is full. A bound at or
    /// before the replica's clock runs exactly one stage.
    ///
    /// `step` never touches the shared [`ScenarioStream`]: completed
    /// conversations are *buffered* as [`RetireEvent`]s in retirement
    /// order, and the caller applies them against the stream with
    /// [`ReplicaSim::drain_retire_events`]. Draining immediately after
    /// each step reproduces the historical inline behavior exactly
    /// (same RNG sequence, same parked-KV operation order); the
    /// cluster drains at its merge points instead, which is what lets
    /// each replica step a whole window between router events.
    pub(crate) fn step<P: SchedulingPolicy + ?Sized, E: StageExecutor + ?Sized>(
        &mut self,
        policy: &mut P,
        executor: &mut E,
        bound: Option<f64>,
    ) {
        // Idle replicas jump to their earliest routed arrival.
        if !self.in_flight() && self.pending.is_empty() {
            if let Some(p) = self.inbox.last() {
                self.clock = self.clock.max(p.request.arrival_s);
            }
        }
        // ---- fold arrived inbox entries into the waiting queue ----
        while self
            .inbox
            .last()
            .is_some_and(|p| p.request.arrival_s <= self.clock)
        {
            self.pending
                .push(self.inbox.pop().expect("checked non-empty"));
        }

        // ---- quiet stage: the batch only advances ----
        // Every formation phase below is a no-op when the last stage
        // changed nothing (a pure-advance delta), nothing is chunking,
        // paused or multiplexed, and nothing can be admitted: the
        // queue is empty, or the batch is full and no preemption is
        // armed to make room. Such a stage skips formation and the
        // joiner phases; it executes and accounts like any other.
        let quiet = self.delta.is_pure_advance()
            && !self.active.is_empty()
            && self.chunking.is_empty()
            && self.paused.is_empty()
            && self.mux.is_empty()
            && (self.pending.is_empty()
                || (self.active.len() >= self.config.max_batch && policy.preempt_spec().is_none()));
        if quiet {
            self.quiet_stage(executor, bound);
            return;
        }
        if !self.form_stage(policy) {
            return;
        }
        let stages = self.execute_stage(executor);
        self.seat_joiners(stages);
        self.sweep_due(stages);
        self.retire_mux();
        self.audit(stages);
    }

    /// A run of quiet stages, each the full stage minus its no-op
    /// phases. While a stage retires nothing, the active set, the
    /// waiting queue and the chunking, paused and multiplexed state
    /// stay as they were, so the next stage is quiet too unless the
    /// caller hands over something new; the run goes on inside this
    /// call and returns after the first stage that
    ///
    /// * retires a request (its delta is no longer a pure advance),
    /// * reaches the stage cap,
    /// * ends at or after `bound` (see [`ReplicaSim::step`]),
    /// * or leaves a routed arrival due in the inbox.
    ///
    /// Every stage of the run goes through the same accounting as a
    /// full one. Kept out of line: inlined into `step`, it slowed
    /// open-loop runs, whose stages are nearly all full ones, by ~1.5%.
    #[inline(never)]
    fn quiet_stage<E: StageExecutor + ?Sized>(&mut self, executor: &mut E, bound: Option<f64>) {
        // Nothing a quiet stage does touches the inbox, so its earliest
        // arrival bounds the run like the caller's bound.
        let mut stop = bound.unwrap_or(f64::INFINITY);
        if let Some(p) = self.inbox.last() {
            stop = stop.min(p.request.arrival_s);
        }
        loop {
            let stages = self.execute_stage(executor);
            self.sweep_due(stages);
            self.audit(stages);
            if !self.delta.is_pure_advance() || !self.can_accept() || self.clock >= stop {
                return;
            }
        }
    }

    /// Form the next stage into the carried delta and shape: preempt,
    /// continue chunked prompts, resume paused work, and admit from the
    /// waiting queue. Returns false when no stage runs (a prefill-pool
    /// replica handed off one-token prompts and holds nothing else).
    fn form_stage<P: SchedulingPolicy + ?Sized>(&mut self, policy: &mut P) -> bool {
        let bytes_per_token = self.config.kv_bytes_per_token;
        // ---- preemptive slot reclaim ----
        // When the policy arms preemption and urgent (interactive)
        // work is waiting behind a saturated batch, pause batch-tier
        // decodes mid-flight: each victim retires from the stage delta
        // exactly as a completion would, releases its slot and KV
        // reservation, and parks (swap-out) or drops (recompute) its
        // context per the cost model. Paused work resumes below once
        // slots free up — nothing is dropped.
        if let Some(spec) = policy.preempt_spec().copied() {
            if self.role != PoolRole::Prefill && !self.active.is_empty() {
                let urgent = self
                    .pending
                    .iter()
                    .filter(|p| p.priority < spec.urgent_priority)
                    .count();
                let occupied = self.active.len() + self.chunking.len() + self.mux.len();
                let occupancy = occupied as f64 / self.config.max_batch as f64;
                // The cheapest urgent KV need: when even it cannot
                // fit, capacity (not slots) is the binding constraint
                // and preemption frees reservations — regardless of
                // how many batch *slots* are occupied.
                let urgent_min_need = self
                    .pending
                    .iter()
                    .filter(|p| p.priority < spec.urgent_priority)
                    .map(|p| p.request.max_kv_tokens() * bytes_per_token)
                    .min()
                    .unwrap_or(0);
                let kv_blocked =
                    self.reserved.saturating_add(urgent_min_need) > self.config.kv_capacity_bytes;
                if urgent > 0 && (occupancy >= spec.utilization_threshold || kv_blocked) {
                    let mut preempts = 0;
                    while preempts < spec.max_preempts_per_stage {
                        let occupied = self.active.len() + self.chunking.len() + self.mux.len();
                        let free = self.config.max_batch.saturating_sub(occupied);
                        let slot_short = urgent > free;
                        let kv_short = self.reserved.saturating_add(urgent_min_need)
                            > self.config.kv_capacity_bytes;
                        if !(slot_short || kv_short) {
                            break;
                        }
                        let Some(idx) = self.pick_victim(spec.victim_priority) else {
                            break;
                        };
                        self.pause_victim(idx, &spec);
                        preempts += 1;
                    }
                }
            }
        }

        // ---- per-stage prefill token budget (chunked prefill) ----
        let stage_budget = if let Some(adaptive) = self.adaptive_chunk {
            adaptive.budget(self.active.len(), self.config.max_batch)
        } else if self.prefill_chunk == 0 {
            u64::MAX
        } else {
            self.prefill_chunk
        };
        let mut budget = stage_budget;

        // ---- continue in-flight chunked prompts, FIFO ----
        let mut ci = 0;
        while ci < self.chunking.len() && budget > 0 {
            let c = &mut self.chunking[ci];
            let remaining = c.prefill_total - c.processed;
            let slice = remaining.min(budget);
            let past = c.history + c.processed;
            budget -= slice;
            if slice == remaining {
                if self.role == PoolRole::Prefill {
                    // Final slice of a prefill-pool prompt: held like
                    // any other chunk (the decode replica samples the
                    // first token at the join), then ships after this
                    // stage executes.
                    self.delta.chunk.push((slice, past));
                    self.shape.push_prefill(slice, past, true);
                    let done = self.chunking.remove(ci);
                    self.finished_prefills.push(done.pending);
                    continue;
                }
                // Final slice: samples the first token and joins the
                // decode set at the full prompt context. A resumed
                // recompute joins at its paused context (history +
                // prefill_total) and keeps its original counters.
                self.delta.admit.push(slice);
                if self.announce_ctx {
                    let join_ctx = match &c.resumed {
                        Some(_) => c.history + c.prefill_total,
                        None => c.pending.request.input_len,
                    };
                    self.delta.admit_ctx.push(join_ctx);
                }
                self.shape.push_prefill(slice, past, false);
                let done = self.chunking.remove(ci);
                match done.resumed {
                    Some(carry) => self.resumed.push(ActiveRequest::joining(
                        done.pending,
                        carry.generated,
                        carry.first_token_s,
                    )),
                    None => self
                        .admitted
                        .push(ActiveRequest::joining(done.pending, 0, 0.0)),
                }
            } else {
                self.delta.chunk.push((slice, past));
                self.shape.push_prefill(slice, past, true);
                c.processed += slice;
                ci += 1;
            }
        }

        // ---- resume paused work ----
        // Paused requests re-enter FIFO once slots free up, leaving
        // room for urgent arrivals. A swapped-out victim whose parked
        // context is still resident restores it as a priced link
        // transfer and rejoins as a one-token prefill; otherwise it
        // re-prefills its whole context with no history (recompute:
        // the kept token ids are teacher-forced) and resumes its
        // counters at the join. When multiplexing is armed, compatible
        // swapped victims pack into shared decode slots first.
        if !self.paused.is_empty() && self.role != PoolRole::Prefill {
            let spec = policy.preempt_spec().copied().unwrap_or_default();
            let urgent = self
                .pending
                .iter()
                .filter(|p| p.priority < spec.urgent_priority)
                .count();
            let occupied = self.active.len()
                + self.admitted.len()
                + self.chunking.len()
                + self.finished_prefills.len()
                + self.mux.len()
                + self.mux_admitted.len();
            // With the batch otherwise empty and nothing to admit, at
            // least one resume must land this stage, or the replica
            // would execute an empty shape and the clock would never
            // advance.
            let force = occupied == 0 && self.pending.is_empty();
            // Resumes yield to waiting urgent work entirely: a
            // recompute re-prefill would eat the stage budget the
            // urgent prompt needs, re-creating the very head-of-line
            // blocking preemption exists to remove.
            if urgent == 0 || force {
                self.resume_paused(policy.multiplex_spec().copied(), &spec, force, &mut budget);
            }
        }

        // ---- policy-driven admission ----
        // `finished_prefills` holds this stage's final slices: they
        // still occupy batch slots until the stage executes (always
        // empty outside prefill-pool replicas).
        let mut in_flight = self.active.len()
            + self.admitted.len()
            + self.chunking.len()
            + self.finished_prefills.len()
            + self.resumed.len()
            + self.mux.len()
            + self.mux_admitted.len();
        while in_flight < self.config.max_batch && !self.pending.is_empty() && budget > 0 {
            let pctx = PolicyContext {
                now_s: self.clock,
                prefill_chunk: (stage_budget != u64::MAX).then_some(stage_budget),
                in_flight,
                max_batch: self.config.max_batch,
            };
            let Some(idx) = policy.admit_now(&self.pending, &pctx) else {
                // Admission control deferred the rest of the queue.
                assert!(
                    self.in_flight(),
                    "policy deferred every admission with an empty batch"
                );
                break;
            };
            assert!(
                idx < self.pending.len(),
                "policy picked index {idx} of {}",
                self.pending.len()
            );
            // A prefill-pool replica only ever holds the prompt's KV
            // (the decode reservation happens at the decode replica);
            // colocated and decode replicas reserve the full budget.
            let need = if self.role == PoolRole::Prefill {
                self.pending[idx].request.input_len * bytes_per_token
            } else {
                self.pending[idx].request.max_kv_tokens() * bytes_per_token
            };
            if self.reserved.saturating_add(need) > self.config.kv_capacity_bytes {
                // Even evicting every parked history cannot admit:
                // wait for retirements (head-of-line block).
                assert!(
                    !(self.active.is_empty()
                        && self.admitted.is_empty()
                        && self.chunking.is_empty()
                        && self.reserved == 0),
                    "request {} needs {need} KV bytes, capacity {}",
                    self.pending[idx].request.id,
                    self.config.kv_capacity_bytes
                );
                break;
            }
            let p = self.pending.swap_remove(idx);
            // Everyone still waiting was passed over by this
            // admission: the aging signal for starvation guards.
            for q in self.pending.iter_mut() {
                q.skipped += 1;
            }
            // Reuse-aware accounting: claim a resident history (its
            // bytes migrate from the parked pool into the active
            // reservation), then evict other parked histories until
            // the new reservation fits.
            let mut prefill = p.request.input_len;
            if let Some(cache) = self.parked.as_mut() {
                if p.history_tokens > 0 {
                    // The parked entry may be *stale*: in a cluster, an
                    // earlier round parked here while later rounds ran
                    // elsewhere. Histories are append-only, so a stale
                    // entry is a valid prefix — reuse exactly the
                    // resident tokens, never the full history the
                    // request wishes were here.
                    match cache.resident_tokens(p.conversation) {
                        Some(resident_tokens) => {
                            let reused = resident_tokens.min(p.history_tokens);
                            cache.release(p.conversation);
                            prefill = p.request.input_len - reused;
                            self.kv_reuse.reuse_hits += 1;
                            self.kv_reuse.reused_prefill_tokens += reused;
                        }
                        None => self.kv_reuse.reuse_misses += 1,
                    }
                }
                while self.reserved + cache.resident_bytes() + need > self.config.kv_capacity_bytes
                {
                    cache
                        .evict_one()
                        .expect("over budget implies a parked victim");
                    self.kv_reuse.parked_evictions += 1;
                }
            }
            self.reserved += need;
            // The new tokens cross-attend over any reused history.
            let resident = p.request.input_len - prefill;
            if self.role == PoolRole::Prefill {
                // Prefill pool: run all but the final prompt token here
                // — that one prefills at the decode replica when the
                // shipped KV joins its batch — and never decode.
                let total = prefill.saturating_sub(1);
                self.kv_reuse.prefilled_tokens += total;
                if total == 0 {
                    // One-token prompt: the KV handoff is the whole
                    // job, no stage work at all.
                    self.reserved -= need;
                    self.handoffs.push(HandoffEvent {
                        pending: p,
                        done_s: self.clock,
                    });
                    continue;
                }
                in_flight += 1;
                let slice = total.min(budget);
                budget -= slice;
                self.delta.chunk.push((slice, resident));
                self.shape.push_prefill(slice, resident, true);
                if slice == total {
                    self.finished_prefills.push(p);
                } else {
                    self.chunking.push(ChunkingRequest {
                        pending: p,
                        history: resident,
                        processed: slice,
                        prefill_total: total,
                        resumed: None,
                    });
                }
                continue;
            }
            in_flight += 1;
            self.kv_reuse.prefilled_tokens += prefill;
            let slice = prefill.min(budget);
            budget -= slice;
            if slice < prefill {
                // Prompt longer than the remaining budget: start
                // chunking — this slice attends, writes KV, holds.
                self.delta.chunk.push((slice, resident));
                self.shape.push_prefill(slice, resident, true);
                self.chunking.push(ChunkingRequest {
                    pending: p,
                    history: resident,
                    processed: slice,
                    prefill_total: prefill,
                    resumed: None,
                });
            } else {
                self.delta.admit.push(prefill);
                if self.announce_ctx {
                    self.delta.admit_ctx.push(p.request.input_len);
                }
                self.shape.push_prefill(prefill, resident, false);
                self.admitted.push(ActiveRequest::joining(p, 0, 0.0));
            }
        }

        // A prefill-pool stage may consist entirely of final slices
        // (nothing survives into `chunking`), and one-token prompts
        // hand off with no stage at all.
        if !self.in_flight() && self.finished_prefills.is_empty() {
            assert!(
                !self.handoffs.is_empty(),
                "step called with no admissible work (queue {} requests)",
                self.pending.len() + self.inbox.len()
            );
            return false;
        }
        true
    }

    /// Execute the formed stage and account it: the clock (scaled by
    /// `perf_factor`), the token timeline, the stage record and stats,
    /// and the fleet and per-tier TBT digests. Returns the stage count
    /// after this stage. Inlined into the full and the quiet stage.
    #[inline(always)]
    fn execute_stage<E: StageExecutor + ?Sized>(&mut self, executor: &mut E) -> u64 {
        self.shape.decode_ctx.clear();
        if executor.needs_shape() {
            let stages = self.stage_stats.stages;
            self.shape
                .decode_ctx
                .extend(self.active.iter().map(|a| a.decode_ctx(stages)));
            // Each mux slot decodes exactly one shared row.
            self.shape
                .decode_ctx
                .extend(self.mux.iter().map(MuxSlot::decode_ctx));
        }
        debug_assert_eq!(
            self.shape.prefill_len.len(),
            self.admitted.len()
                + self.resumed.len()
                + self.mux_admitted.len()
                + self.delta.chunk.len()
        );
        let outcome = executor.execute_delta(&self.delta, &self.shape);
        self.delta.clear();
        // `perf_factor` is 1.0 outside fault plans, and x * 1.0 == x
        // is bit-exact in IEEE 754, so no-fault runs are unchanged.
        let stage_seconds = outcome.seconds * self.perf_factor;
        self.clock += stage_seconds;
        // Live multiplexed streams: ongoing slots decode one token per
        // live member per stage; joining slots sample first tokens.
        let mux_live: u64 = self.mux.iter().map(MuxSlot::live_members).sum();
        // Recovery timeline: bucket the tokens this stage generated
        // (decodes plus sampled first tokens) by virtual time.
        if self.timeline_bucket_s > 0.0 {
            let mux_joining: u64 = self.mux_admitted.iter().map(MuxSlot::live_members).sum();
            let tokens = (self.active.len() + self.admitted.len() + self.resumed.len()) as u64
                + mux_live
                + mux_joining;
            if tokens > 0 {
                let bucket = (self.clock / self.timeline_bucket_s) as u64;
                match self.timeline.last_mut() {
                    Some((b, n)) if *b == bucket => *n += tokens,
                    _ => self.timeline.push((bucket, tokens)),
                }
            }
        }
        let decoding = self.active.len() + self.mux.len();
        let record = StageRecord {
            seconds: stage_seconds,
            mixed: self.shape.is_mixed(),
            batch: decoding + self.shape.prefill_len.len(),
            tokens: decoding as u64 + self.shape.prefill_len.iter().sum::<u64>(),
        };
        self.stage_stats.record(&record);
        if self.config.record_stages {
            self.stages.push(record);
        }
        self.shape.clear_prefills();
        // One TBT sample per decoding request (multiplexed members
        // included — they each stream a token per stage); `tier_active`
        // tracks the active set's per-tier counts incrementally
        // (updated on admit and retire below), and the bucket index is
        // looked up once and shared across the fleet and tier digests.
        if !self.active.is_empty() || mux_live > 0 {
            let bucket = self.tbt_bucket.bucket(stage_seconds);
            self.tbt_digest
                .record_n_in(bucket, stage_seconds, self.active.len() as u64 + mux_live);
            for (stats, &n) in self.tier_stats.iter_mut().zip(&self.tier_active) {
                stats.tbt_digest.record_n_in(bucket, stage_seconds, n);
            }
        }
        self.stage_stats.stages
    }

    /// Seat the executed stage's joiners and advance the multiplexed
    /// streams: ship finished prefill-pool prompts, count a token per
    /// live mux member, and move fresh prefills, resumes and joining
    /// mux slots into the batch.
    fn seat_joiners(&mut self, stages: u64) {
        let bytes_per_token = self.config.kv_bytes_per_token;
        // Finished prefill-pool prompts ship after the stage that ran
        // their last slice: stamp the post-stage clock, release the
        // prompt KV this replica held while prefilling, and buffer the
        // handoff for the cluster's merge point.
        if !self.finished_prefills.is_empty() {
            let done_s = self.clock;
            for p in self.finished_prefills.drain(..) {
                self.reserved -= p.request.input_len * bytes_per_token;
                self.handoffs.push(HandoffEvent { pending: p, done_s });
            }
        }
        // Active requests advance with the stage count alone (see
        // `ActiveRequest::stamp`); multiplexed members count tokens.
        for slot in &mut self.mux {
            slot.generated += 1;
            for m in &mut slot.members {
                if m.generated < m.pending.request.output_len {
                    m.generated += 1;
                    self.preempt.mux_tokens += 1;
                }
            }
        }
        // Seat the stage's joiners, fresh prefills first. Each stamp
        // continues the count from the tokens the request carried in
        // plus the one its join sampled. Only a fresh prefill carries
        // none: its first token is this one. Resumed requests keep
        // their original first-token time.
        for mut a in self.admitted.drain(..).chain(self.resumed.drain(..)) {
            if a.stamp == 0 {
                a.first_token_s = self.clock;
            }
            a.stamp = stages - 1 - a.stamp;
            if !self.tier_active.is_empty() {
                self.tier_active[a.pending.tier] += 1;
            }
            let finish = a.finish();
            self.next_due = self.next_due.min(finish);
            self.finish.push(finish);
            self.active.push(a);
        }
        for mut slot in self.mux_admitted.drain(..) {
            slot.generated = 1;
            for m in &mut slot.members {
                m.generated += 1;
                self.preempt.mux_tokens += 1;
                if !self.tier_active.is_empty() {
                    self.tier_active[m.pending.tier] += 1;
                }
            }
            self.mux.push(slot);
        }
    }

    /// Retire, account SLOs and buffer follow-ups for every decode due
    /// at stage `stages`. Inlined into the full and the quiet stage.
    #[inline(always)]
    fn sweep_due(&mut self, stages: u64) {
        // A `swap_remove` sweep from position 0 over the dense finish
        // vector, in lockstep with the batch; it runs only on stages
        // where some request is due, and finds the next one due among
        // the rest.
        if self.next_due <= stages {
            // The vectors leave `self` for the sweep, so the scan keeps
            // them and the running minimum in registers.
            let mut active = std::mem::take(&mut self.active);
            let mut finish = std::mem::take(&mut self.finish);
            let mut next_due = u64::MAX;
            let mut i = 0;
            while i < finish.len() {
                if finish[i] > stages {
                    next_due = next_due.min(finish[i]);
                    i += 1;
                    continue;
                }
                finish.swap_remove(i);
                self.retire(active.swap_remove(i), stages);
            }
            self.active = active;
            self.finish = finish;
            self.next_due = next_due;
        }
    }

    /// Retire finished multiplex members, then emptied slots.
    fn retire_mux(&mut self) {
        // A member leaves its slot when its stream completes; goodput
        // is scaled by the slot's quality exchange rate (the price of
        // sharing compute). The slot row keeps decoding for the
        // members still streaming and retires only once empty.
        let mut si = 0;
        while si < self.mux.len() {
            let quality = self.mux[si].quality;
            let mut mi = 0;
            while mi < self.mux[si].members.len() {
                let m = &self.mux[si].members[mi];
                if m.generated < m.pending.request.output_len {
                    mi += 1;
                    continue;
                }
                let done = self.mux[si].members.swap_remove(mi);
                self.complete(done.pending, done.first_token_s, done.generated, quality);
            }
            if self.mux[si].members.is_empty() {
                let slot = self.mux.swap_remove(si);
                self.delta.retire.push(slot.decode_ctx());
                self.reserved -= slot.kv_bytes;
            } else {
                si += 1;
            }
        }
    }

    /// Retire a finished decode after stage `stages`: release its KV
    /// reservation, announce its post-advance context on the next
    /// delta, and account it. Kept out of line so the sweep that calls
    /// it stays a tight scan.
    #[inline(never)]
    fn retire(&mut self, done: ActiveRequest, stages: u64) {
        self.reserved -= done.kv_reserved(self.config.kv_bytes_per_token);
        self.delta.retire.push(done.decode_ctx(stages));
        let tokens = done.generated(stages);
        self.complete(done.pending, done.first_token_s, tokens, 1.0);
    }

    /// Account a request that has all its tokens: its tier occupancy,
    /// completion record, SLO counters (goodput credited at `quality`
    /// per token) and during-failure windows, and the conversation
    /// event its retirement buffers.
    fn complete(&mut self, pending: PendingRequest, first_token_s: f64, tokens: u64, quality: f64) {
        let record = RequestRecord {
            first_token_s,
            last_token_s: self.clock,
            tokens,
            request: pending.request,
        };
        if !self.tier_stats.is_empty() {
            self.tier_active[pending.tier] -= 1;
            let tier = &self.tiers[pending.tier];
            let stats = &mut self.tier_stats[pending.tier];
            stats.completed += 1;
            // The T2FT deadline is checked against the *absolute*
            // deadline stamped at spawn time: a crash-retried request
            // keeps its original deadline even though its arrival was
            // rewritten to the retry time.
            let met_t2ft = record.first_token_s <= pending.deadline_s;
            let met_tbt = tier.tbt_deadline_s == 0.0 || record.mean_tbt() <= tier.tbt_deadline_s;
            let met = met_t2ft && met_tbt;
            if met {
                stats.met += 1;
                stats.good_tokens += (record.tokens as f64 * quality) as u64;
            }
            // During-failure SLO windows (fault plans only).
            for (wi, &(start, end)) in self.fault_windows.iter().enumerate() {
                if record.last_token_s >= start && record.last_token_s < end {
                    let cell = &mut self.window_counts[wi][pending.tier];
                    cell.0 += 1;
                    if met {
                        cell.1 += 1;
                    }
                }
            }
        }
        if let Some(spec) = &self.conversation {
            if pending.round < spec.max_rounds {
                // The continuation die, history parking and follow-up
                // spawn all happen at drain time (they need the shared
                // stream); `now_s` is captured so a deferred drain
                // prices think time identically.
                self.retire_events.push(RetireEvent::MaybeFollowup {
                    history: pending.request.input_len + tokens,
                    now_s: self.clock,
                    pending,
                });
            } else {
                // Round cap: the conversation is over, no die roll.
                self.retire_events.push(RetireEvent::Release {
                    conversation: pending.conversation,
                });
            }
        }
        self.completed.push(record);
    }

    /// Re-derive the incrementally kept batch state and compare (debug
    /// builds, after every [`KV_AUDIT_PERIOD`]-th stage): the KV
    /// reservation against a re-sum over in-flight work, and the finish
    /// vector and `next_due` against the active set.
    fn audit(&self, stages: u64) {
        if !cfg!(debug_assertions) || !stages.is_multiple_of(KV_AUDIT_PERIOD) {
            return;
        }
        let bytes_per_token = self.config.kv_bytes_per_token;
        let chunk_tokens = |c: &ChunkingRequest| {
            if self.role == PoolRole::Prefill {
                c.pending.request.input_len
            } else {
                c.pending.request.max_kv_tokens()
            }
        };
        let resum = self
            .active
            .iter()
            .map(|a| a.kv_reserved(bytes_per_token))
            .chain(
                self.chunking
                    .iter()
                    .map(|c| chunk_tokens(c) * bytes_per_token),
            )
            .chain(self.mux.iter().map(|m| m.kv_bytes))
            .sum::<u64>();
        assert_eq!(
            self.reserved, resum,
            "incremental KV reservation drifted from the in-flight set"
        );
        assert!(
            self.finish
                .iter()
                .copied()
                .eq(self.active.iter().map(ActiveRequest::finish)),
            "finish stages drifted from the active set"
        );
        assert_eq!(
            self.next_due,
            self.finish.iter().copied().min().unwrap_or(u64::MAX),
            "next_due drifted from the active set"
        );
    }

    /// Whether [`ReplicaSim::step`] buffered conversation events that
    /// must be applied to the stream before this replica's parked KV
    /// pool (or the global arrival order) can be observed again.
    pub(crate) fn has_retire_events(&self) -> bool {
        !self.retire_events.is_empty()
    }

    /// Apply the buffered [`RetireEvent`]s against the shared stream,
    /// in the order they were buffered: roll continuation dice, park
    /// finished histories, spawn follow-up rounds, release closed
    /// conversations. Calling this right after [`ReplicaSim::step`]
    /// reproduces the inline retirement semantics bit for bit.
    pub(crate) fn drain_retire_events(&mut self, stream: &mut ScenarioStream<'_>) {
        if self.retire_events.is_empty() {
            return;
        }
        let spec = self
            .conversation
            .as_ref()
            .expect("retire events imply a conversation spec");
        let followup_prob = spec.followup_prob;
        let cache = self
            .parked
            .as_mut()
            .expect("a conversation spec implies a parked pool");
        let mut events = std::mem::take(&mut self.retire_events);
        for event in events.drain(..) {
            match event {
                RetireEvent::MaybeFollowup {
                    pending,
                    history,
                    now_s,
                } => {
                    if stream.roll_followup(followup_prob) {
                        // Park the history; if it cannot fit alone the
                        // follow-up simply re-prefills.
                        if let Ok(evicted) = cache.admit(pending.conversation, history) {
                            self.kv_reuse.parked_evictions += evicted.len() as u64;
                        }
                        stream.spawn_followup(&pending, history, now_s);
                    } else {
                        // The conversation is over; drop any parked KV.
                        cache.release(pending.conversation);
                    }
                }
                RetireEvent::Release { conversation } => cache.release(conversation),
            }
        }
        // Hand the (now empty) buffer back so its capacity is reused.
        self.retire_events = events;
    }

    /// Step this replica repeatedly until its next stage would start at
    /// or after `bound` (`None` = unbounded), it drains, or a step
    /// buffers retire events — the per-replica half of the cluster's
    /// clock-merge protocol. Stopping at the first buffered event is
    /// what keeps windows deterministic: everything after it could
    /// depend on the continuation die or on parked-KV bytes freed by a
    /// release, both of which are resolved only at merge time. Each
    /// step gets `bound` too, so a run of quiet stages stops where this
    /// loop would have.
    pub(crate) fn run_window<E: StageExecutor + ?Sized>(
        &mut self,
        bound: Option<f64>,
        policy: &mut dyn SchedulingPolicy,
        executor: &mut E,
    ) {
        while let Some(t) = self.next_start() {
            if bound.is_some_and(|b| t >= b) {
                break;
            }
            self.step(policy, executor, bound);
            if self.has_retire_events() || self.has_handoffs() {
                break;
            }
        }
    }

    /// Fold the accumulated metrics into a report.
    pub(crate) fn into_report(self) -> SimReport {
        SimReport {
            completed: self.completed,
            stages: self.stages,
            stage_stats: self.stage_stats,
            tbt_digest: self.tbt_digest,
            total_time_s: self.clock,
            slo: SloStats {
                tiers: self.tier_stats,
            },
            kv_reuse: self.kv_reuse,
            preempt: self.preempt,
        }
    }

    /// Capture this replica's dynamic state for a
    /// [`crate::ClusterSnapshot`]. Only valid at a merge point, where
    /// the admission and retire-event buffers are empty; the carried
    /// [`StageDelta`] `fresh` flag and retirement list are the only
    /// cross-step stage state, and both are captured. The executor's
    /// batch checkpoint is filled in by the cluster (which owns the
    /// executors).
    pub(crate) fn export_state(&self) -> ReplicaState {
        assert!(
            self.admitted.is_empty(),
            "snapshot outside a merge point: admissions in flight"
        );
        assert!(
            self.resumed.is_empty() && self.mux_admitted.is_empty(),
            "snapshot outside a merge point: resumes in flight"
        );
        assert!(
            self.retire_events.is_empty(),
            "snapshot outside a merge point: undrained retire events"
        );
        assert!(
            self.handoffs.is_empty(),
            "snapshot outside a merge point: undelivered prefill handoffs"
        );
        debug_assert!(
            self.delta.admit.is_empty()
                && self.delta.admit_ctx.is_empty()
                && self.delta.chunk.is_empty(),
            "per-stage delta fields must be clear between steps"
        );
        ReplicaState {
            inbox: self.inbox.clone(),
            pending: self.pending.clone(),
            active: self
                .active
                .iter()
                .map(|a| ActiveState {
                    pending: a.pending.clone(),
                    generated: a.generated(self.stage_stats.stages),
                    first_token_s: a.first_token_s,
                })
                .collect(),
            chunking: self
                .chunking
                .iter()
                .map(|c| ChunkingState {
                    pending: c.pending.clone(),
                    history: c.history,
                    processed: c.processed,
                    prefill_total: c.prefill_total,
                    resumed: c.resumed.map(|r| ResumeState {
                        generated: r.generated,
                        first_token_s: r.first_token_s,
                    }),
                })
                .collect(),
            paused: self
                .paused
                .iter()
                .map(|p| PausedState {
                    pending: p.pending.clone(),
                    generated: p.generated,
                    first_token_s: p.first_token_s,
                    ctx: p.ctx,
                    swapped: p.swapped,
                    paused_at_s: p.paused_at_s,
                })
                .collect(),
            mux: self
                .mux
                .iter()
                .map(|s| MuxState {
                    ctx: s.ctx,
                    generated: s.generated,
                    kv_bytes: s.kv_bytes,
                    quality: s.quality,
                    members: s
                        .members
                        .iter()
                        .map(|m| MuxMemberState {
                            pending: m.pending.clone(),
                            generated: m.generated,
                            first_token_s: m.first_token_s,
                        })
                        .collect(),
                })
                .collect(),
            preempt: self.preempt,
            parked: self.parked.as_ref().map(|cache| {
                let (clock, entries) = cache.export_entries();
                KvState { clock, entries }
            }),
            reserved: self.reserved,
            clock: self.clock,
            delta_fresh: self.delta.fresh,
            delta_retire: self.delta.retire.clone(),
            completed: self.completed.clone(),
            stages: self.stages.clone(),
            stage_stats: self.stage_stats,
            tbt_digest: digest_state(&self.tbt_digest),
            tiers: self
                .tier_stats
                .iter()
                .map(|t| TierState {
                    completed: t.completed,
                    met: t.met,
                    good_tokens: t.good_tokens,
                    tbt: digest_state(&t.tbt_digest),
                })
                .collect(),
            kv_reuse: self.kv_reuse,
            admitting: self.admitting,
            draining: self.draining,
            perf_factor: self.perf_factor,
            down_since: self.down_since,
            down_seconds: self.down_seconds,
            timeline: self.timeline.clone(),
            window_counts: self.window_counts.clone(),
            batch: None,
        }
    }

    /// Restore state captured by [`export_state`](Self::export_state)
    /// onto a freshly built replica for the same scenario and config.
    /// `tier_active` is derived state and is recounted from the active
    /// set (identical to its incremental maintenance).
    pub(crate) fn import_state(&mut self, s: &ReplicaState) {
        self.inbox = s.inbox.clone();
        self.pending = s.pending.clone();
        // Re-stamp the active set against the snapshot's stage count so
        // every carried token count continues.
        self.active = s
            .active
            .iter()
            .map(|a| ActiveRequest {
                pending: a.pending.clone(),
                stamp: s.stage_stats.stages - a.generated,
                first_token_s: a.first_token_s,
            })
            .collect();
        self.finish = self.active.iter().map(ActiveRequest::finish).collect();
        self.next_due = self.finish.iter().copied().min().unwrap_or(u64::MAX);
        self.chunking = s
            .chunking
            .iter()
            .map(|c| ChunkingRequest {
                pending: c.pending.clone(),
                history: c.history,
                processed: c.processed,
                prefill_total: c.prefill_total,
                resumed: c.resumed.as_ref().map(|r| ResumeCarry {
                    generated: r.generated,
                    first_token_s: r.first_token_s,
                }),
            })
            .collect();
        self.paused = s
            .paused
            .iter()
            .map(|p| PausedRequest {
                pending: p.pending.clone(),
                generated: p.generated,
                first_token_s: p.first_token_s,
                ctx: p.ctx,
                swapped: p.swapped,
                paused_at_s: p.paused_at_s,
            })
            .collect();
        self.mux = s
            .mux
            .iter()
            .map(|m| MuxSlot {
                ctx: m.ctx,
                generated: m.generated,
                kv_bytes: m.kv_bytes,
                quality: m.quality,
                members: m
                    .members
                    .iter()
                    .map(|mm| MuxMember {
                        pending: mm.pending.clone(),
                        generated: mm.generated,
                        first_token_s: mm.first_token_s,
                    })
                    .collect(),
            })
            .collect();
        self.preempt = s.preempt;
        match (&mut self.parked, &s.parked) {
            (Some(cache), Some(kv)) => cache.import_entries(kv.clock, &kv.entries),
            (None, None) => {}
            (None, Some(kv)) => {
                // A preempting policy swapped contexts out on a
                // scenario with no conversation pool of its own:
                // recreate the pool exactly as `prepare_preempt` does.
                let mut cache = PagedKvCache::new(
                    self.config.kv_capacity_bytes,
                    Self::HANDOFF_PAGE_TOKENS,
                    self.config.kv_bytes_per_token.max(1),
                    EvictionPolicy::Recompute,
                );
                cache.import_entries(kv.clock, &kv.entries);
                self.parked = Some(cache);
            }
            (Some(_), None) => panic!("snapshot parked-KV state does not match the scenario"),
        }
        self.reserved = s.reserved;
        self.clock = s.clock;
        self.delta = StageDelta::start();
        if !s.delta_fresh {
            self.delta.clear();
        }
        self.delta.retire.extend_from_slice(&s.delta_retire);
        self.completed = s.completed.clone();
        self.stages = s.stages.clone();
        self.stage_stats = s.stage_stats;
        self.tbt_digest = import_digest(&s.tbt_digest);
        assert_eq!(
            self.tier_stats.len(),
            s.tiers.len(),
            "snapshot tier set does not match the scenario"
        );
        for (t, ts) in self.tier_stats.iter_mut().zip(&s.tiers) {
            t.completed = ts.completed;
            t.met = ts.met;
            t.good_tokens = ts.good_tokens;
            t.tbt_digest = import_digest(&ts.tbt);
        }
        for n in self.tier_active.iter_mut() {
            *n = 0;
        }
        if !self.tier_active.is_empty() {
            for a in &self.active {
                self.tier_active[a.pending.tier] += 1;
            }
            // Live multiplexed members count toward their tiers too.
            for slot in &self.mux {
                for m in &slot.members {
                    if m.generated < m.pending.request.output_len {
                        self.tier_active[m.pending.tier] += 1;
                    }
                }
            }
        }
        self.kv_reuse = s.kv_reuse;
        self.admitting = s.admitting;
        self.draining = s.draining;
        self.perf_factor = s.perf_factor;
        self.down_since = s.down_since;
        self.down_seconds = s.down_seconds;
        self.timeline = s.timeline.clone();
        // `set_fault_recording` sized these from the plan before the
        // import; the cluster validates the snapshot shape up front.
        self.window_counts = s.window_counts.clone();
    }
}

fn digest_state(d: &LatencyDigest) -> DigestState {
    let (buckets, count, sum) = d.export_state();
    DigestState {
        buckets,
        count,
        sum,
    }
}

fn import_digest(s: &DigestState) -> LatencyDigest {
    LatencyDigest::import_state(&s.buckets, s.count, s.sum)
}

/// A configured scenario run, ready for a policy and an executor.
#[derive(Debug)]
pub struct ScenarioSimulation {
    config: SimulationConfig,
    scenario: Scenario,
}

impl ScenarioSimulation {
    /// Bind a scenario to scheduler limits. Under trace replay the
    /// request count is clamped to the trace length.
    pub fn new(config: SimulationConfig, scenario: Scenario) -> Self {
        Self {
            config,
            scenario: scenario.normalized(),
        }
    }

    /// Run to completion (or the stage cap) under `policy` and report.
    pub fn run<E: StageExecutor + ?Sized>(
        self,
        policy: &mut dyn SchedulingPolicy,
        executor: &mut E,
    ) -> SimReport {
        self.run_inner(policy, executor, None)
    }

    /// Run like [`ScenarioSimulation::run`] while recording every
    /// admitted request (initial arrivals *and* spawned follow-up
    /// rounds, with absolute arrival times and full prompts) into
    /// `recorder`, ready for [`crate::Arrivals::Trace`] replay.
    pub fn run_recording<E: StageExecutor + ?Sized>(
        self,
        policy: &mut dyn SchedulingPolicy,
        executor: &mut E,
        recorder: &mut TraceRecorder,
    ) -> SimReport {
        self.run_inner(policy, executor, Some(recorder))
    }

    fn run_inner<E: StageExecutor + ?Sized>(
        self,
        policy: &mut dyn SchedulingPolicy,
        executor: &mut E,
        recorder: Option<&mut TraceRecorder>,
    ) -> SimReport {
        let Self { config, scenario } = self;
        let mut stream = ScenarioStream::new(&scenario, recorder);
        let mut replica = ReplicaSim::new(config, &scenario);
        replica.prepare_preempt(policy);
        loop {
            // Deliver every arrival due by the replica's next stage
            // start (all of them, when it is idle).
            while let Some(t_a) = stream.next_arrival_time() {
                match replica.next_start() {
                    Some(t) if t_a > t => break,
                    None if !replica.can_accept() => break,
                    _ => {
                        let p = stream.pop_next().expect("arrival time implies a request");
                        replica.enqueue(p);
                    }
                }
            }
            if replica.next_start().is_none() {
                break;
            }
            let bound = stream.next_arrival_time();
            replica.step(policy, executor, bound);
            // Draining right after the step keeps the RNG-draw and
            // parked-KV operation order identical to the historical
            // inline retirement path.
            replica.drain_retire_events(&mut stream);
        }
        replica.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fcfs, PriorityTiers, ShortestPromptFirst};
    use crate::scheduler::StageOutcome;
    use crate::trace::parse_trace;

    struct Fixed(f64);
    impl StageExecutor for Fixed {
        fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
            StageOutcome { seconds: self.0 }
        }
    }

    /// Records every delta/shape pair, for contract checks.
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

    fn run_scenario(
        scenario: Scenario,
        cfg: SimulationConfig,
        policy: &mut dyn SchedulingPolicy,
    ) -> SimReport {
        ScenarioSimulation::new(cfg, scenario).run(policy, &mut Fixed(0.01))
    }

    #[test]
    fn single_shot_matches_base_semantics() {
        let scenario = Scenario::new("plain", Workload::fixed(64, 5), Arrivals::ClosedLoop, 20);
        let report = run_scenario(scenario, config(8), &mut Fcfs);
        assert_eq!(report.completed.len(), 20);
        for r in &report.completed {
            assert_eq!(r.tokens, r.request.output_len);
        }
        assert!(report.slo.is_empty());
        assert_eq!(report.kv_reuse.reuse_hits, 0);
    }

    /// Records every delta and prices a stage by its size, so the
    /// clock depends on how each stage was formed.
    #[derive(Default)]
    struct Priced {
        deltas: Vec<StageDelta>,
    }
    impl StageExecutor for Priced {
        fn execute(&mut self, shape: &StageShape) -> StageOutcome {
            StageOutcome {
                seconds: 1e-3 + 1e-6 * shape.tokens() as f64 + 1e-8 * shape.decode_ctx.len() as f64,
            }
        }
        fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
            self.deltas.push(delta.clone());
            self.execute(shape)
        }
    }

    #[test]
    fn fcfs_scenario_equals_base_simulation_timeline() {
        // `Simulation` feeds its replica lazily (an arrival is queued
        // only once a slot is free for it); an FCFS scenario with no
        // tiers, conversations or chunking queues every arrival. Both
        // must give the same run, to the bit.
        let trace = |lens: &[(u64, u64)]| {
            Arrivals::trace(
                lens.iter()
                    .enumerate()
                    .map(|(i, &(input_len, output_len))| crate::trace::TraceRequest {
                        arrival_s: 2e-3 * (i / 3) as f64,
                        input_len,
                        output_len,
                    })
                    .collect(),
            )
        };
        let short = [(9, 0), (10, 3), (11, 1), (12, 0), (13, 2), (14, 1), (15, 1)];
        let w = Workload::gaussian(64, 6).with_seed(11);
        let kv_limited = SimulationConfig {
            kv_capacity_bytes: 200,
            ..config(8)
        };
        let truncated = SimulationConfig {
            max_stages: 17,
            ..config(3)
        };
        let runs = [
            ("closed", config(4), Arrivals::ClosedLoop, w.clone(), 40),
            (
                "idle gaps",
                config(4),
                Arrivals::Poisson { qps: 50.0 },
                w.clone(),
                40,
            ),
            (
                "saturated",
                config(4),
                Arrivals::Poisson { qps: 5e3 },
                w.clone(),
                60,
            ),
            (
                "kv head block",
                kv_limited,
                Arrivals::ClosedLoop,
                w.clone(),
                30,
            ),
            (
                "kv open",
                kv_limited,
                Arrivals::Poisson { qps: 2e3 },
                w.clone(),
                30,
            ),
            (
                "output 0 and 1",
                config(2),
                trace(&short),
                w.clone(),
                short.len(),
            ),
            ("truncated", truncated, Arrivals::ClosedLoop, w, 20),
        ];
        for (name, cfg, arrivals, workload, n) in runs {
            let mut lazy_ex = Priced::default();
            let lazy =
                crate::scheduler::Simulation::new(cfg, workload.clone(), arrivals.clone(), n)
                    .run(&mut lazy_ex);
            let mut eager_ex = Priced::default();
            let scenario = Scenario::new(name, workload, arrivals, n);
            let eager = ScenarioSimulation::new(cfg, scenario).run(&mut Fcfs, &mut eager_ex);
            assert!(!lazy.completed.is_empty(), "{name}");
            assert_eq!(lazy, eager, "{name}");
            assert_eq!(lazy_ex.deltas, eager_ex.deltas, "{name}");
            assert_eq!(
                lazy.total_time_s.to_bits(),
                eager.total_time_s.to_bits(),
                "{name}"
            );
            for (a, b) in lazy.completed.iter().zip(&eager.completed) {
                assert_eq!(
                    a.first_token_s.to_bits(),
                    b.first_token_s.to_bits(),
                    "{name}"
                );
                assert_eq!(a.last_token_s.to_bits(), b.last_token_s.to_bits(), "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_batch_fails_before_the_first_stage() {
        let scenario = Scenario::new("empty", Workload::fixed(8, 2), Arrivals::ClosedLoop, 3);
        run_scenario(scenario, config(0), &mut Fcfs);
    }

    #[test]
    fn bursty_arrivals_flow_through() {
        let scenario = Scenario::new(
            "bursty",
            Workload::fixed(32, 4).with_seed(3),
            Arrivals::Bursty {
                base_qps: 0.0,
                burst_qps: 500.0,
                mean_off_s: 0.5,
                mean_on_s: 0.1,
            },
            40,
        );
        let report = run_scenario(scenario, config(8), &mut Fcfs);
        assert_eq!(report.completed.len(), 40);
        assert!(report.total_time_s > 0.0);
    }

    #[test]
    fn multi_turn_spawns_followups_and_reuses_kv() {
        let scenario = Scenario::new(
            "chat",
            Workload::fixed(64, 8).with_seed(5),
            Arrivals::Poisson { qps: 200.0 },
            20,
        )
        .with_conversation(ConversationSpec::chat(1.0, 3, 0.001, 16));
        let report = run_scenario(scenario, config(16), &mut Fcfs);
        // Every conversation runs exactly 3 rounds at prob 1.0.
        assert_eq!(report.completed.len(), 60);
        assert!(report.kv_reuse.reuse_hits > 0, "{:?}", report.kv_reuse);
        assert!(report.kv_reuse.reused_prefill_tokens > 0);
        // Follow-up prompts grow: round 2 input = 64 + 8 + 16 = 88.
        let follow = report
            .completed
            .iter()
            .find(|r| r.request.id >= 20)
            .expect("follow-ups completed");
        assert!(follow.request.input_len >= 88);
    }

    #[test]
    fn reuse_admissions_announce_admit_ctx() {
        let scenario = Scenario::new(
            "chat",
            Workload::fixed(64, 4).with_seed(1),
            Arrivals::ClosedLoop,
            2,
        )
        .with_conversation(ConversationSpec::chat(1.0, 2, 0.001, 16));
        let mut rec = Recording::new();
        let report = ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        assert_eq!(report.completed.len(), 4);
        // Find the admission of a follow-up with resident history:
        // prefill (admit) is the 20-token suffix? No: turn=16, output=4
        // => suffix = 16 + 4 = 20... admit is input - history = 16.
        let reuse_delta = rec
            .deltas
            .iter()
            .find(|d| !d.admit_ctx.is_empty() && d.admit_ctx != d.admit)
            .expect("a reuse admission exists");
        let (i, _) = reuse_delta
            .admit_ctx
            .iter()
            .enumerate()
            .find(|(i, ctx)| **ctx != reuse_delta.admit[*i])
            .expect("mismatched entry");
        // Full prompt is history (64 + 4) + turn 16 = 84; prefill is 16.
        assert_eq!(reuse_delta.admit_ctx[i], 84);
        assert_eq!(reuse_delta.admit[i], 16);
        // The shape's prefill matches the suffix, and decode contexts in
        // later stages include the full history.
        assert!(report.kv_reuse.reuse_hits >= 1);
    }

    #[test]
    fn evicted_history_reprefills_in_full() {
        // KV capacity fits barely more than one conversation: parking a
        // history evicts the other's, so reuse misses happen.
        let cfg = SimulationConfig {
            max_batch: 2,
            kv_capacity_bytes: 260,
            kv_bytes_per_token: 1,
            ..SimulationConfig::default()
        };
        let scenario = Scenario::new(
            "tight",
            Workload::fixed(64, 8).with_seed(9),
            Arrivals::Poisson { qps: 50.0 },
            6,
        )
        .with_conversation(ConversationSpec::chat(1.0, 2, 0.01, 16));
        let report = run_scenario(scenario, cfg, &mut Fcfs);
        assert_eq!(report.completed.len(), 12);
        assert!(
            report.kv_reuse.reuse_misses + report.kv_reuse.parked_evictions > 0,
            "{:?}",
            report.kv_reuse
        );
    }

    #[test]
    fn tiers_report_attainment_and_goodput() {
        let tiers = vec![
            SloTier::new("interactive", 0.5, 0, 0.05, 0.02),
            SloTier::new("batch", 0.5, 1, 100.0, 0.0),
        ];
        let scenario = Scenario::new(
            "tiered",
            Workload::fixed(32, 8).with_seed(2),
            Arrivals::Poisson { qps: 100.0 },
            40,
        )
        .with_tiers(tiers);
        let report = run_scenario(scenario, config(4), &mut PriorityTiers);
        assert_eq!(report.completed.len(), 40);
        assert_eq!(report.slo.tiers.len(), 2);
        assert_eq!(report.slo.completed(), 40);
        // The generous batch tier always attains; overall attainment is
        // a proper fraction.
        let batch = &report.slo.tiers[1];
        assert_eq!(batch.met, batch.completed);
        assert!(report.slo_attainment() > 0.0 && report.slo_attainment() <= 1.0);
        assert!(report.goodput_tokens_per_s() > 0.0);
        assert!(report.goodput_tokens_per_s() <= report.generation_throughput() + 1e-9);
    }

    #[test]
    fn spf_admits_short_prompts_first() {
        // Two long prompts and one short arrive together; batch 1.
        let trace = vec![
            crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len: 500,
                output_len: 2,
            },
            crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len: 400,
                output_len: 2,
            },
            crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len: 10,
                output_len: 2,
            },
        ];
        let scenario = Scenario::new("spf", Workload::fixed(1, 1), Arrivals::trace(trace), 3);
        let mut rec = Recording::new();
        ScenarioSimulation::new(config(1), scenario.clone())
            .run(&mut ShortestPromptFirst::default(), &mut rec);
        assert_eq!(rec.shapes[0].prefill_len, vec![10]);
        let mut rec2 = Recording::new();
        ScenarioSimulation::new(config(1), scenario).run(&mut Fcfs, &mut rec2);
        assert_eq!(rec2.shapes[0].prefill_len, vec![500]);
    }

    #[test]
    fn aging_rescues_a_starving_long_prompt() {
        // One 500-token prompt plus a dense stream of 10-token prompts
        // at batch 1: unguarded shortest-prompt-first admits every
        // short first — with an unbounded stream the long prompt would
        // starve forever. The aging guard admits it after 6 skipped
        // admissions.
        let mk_trace = || {
            let mut trace = vec![crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len: 500,
                output_len: 2,
            }];
            for i in 0..60u32 {
                trace.push(crate::trace::TraceRequest {
                    arrival_s: f64::from(i) * 0.001,
                    input_len: 10,
                    output_len: 2,
                });
            }
            trace
        };
        let run = |policy: &mut dyn SchedulingPolicy| {
            let scenario = Scenario::new(
                "starve",
                Workload::fixed(1, 1),
                Arrivals::trace(mk_trace()),
                61,
            );
            ScenarioSimulation::new(config(1), scenario).run(policy, &mut Fixed(0.01))
        };
        let long_first_token = |report: &SimReport| {
            report
                .completed
                .iter()
                .find(|r| r.request.input_len == 500)
                .expect("long prompt completes in a finite trace")
                .first_token_s
        };

        let unguarded = run(&mut ShortestPromptFirst::unguarded());
        let guarded = run(&mut ShortestPromptFirst::with_aging(6));
        let t_unguarded = long_first_token(&unguarded);
        let t_guarded = long_first_token(&guarded);
        // Unguarded: every one of the 60 shorts (2 stages each) goes
        // first; the long prompt is served dead last.
        assert!(
            t_unguarded > 60.0 * 2.0 * 0.01 - 1e-9,
            "unguarded long prompt served at {t_unguarded}"
        );
        // Aged after 6 skipped admissions: served an order of magnitude
        // earlier, and the stream is not reordered wholesale.
        assert!(
            t_guarded < t_unguarded / 4.0,
            "guarded {t_guarded} vs unguarded {t_unguarded}"
        );
        assert_eq!(guarded.completed.len(), 61);
    }

    #[test]
    fn trace_replay_clamps_request_count() {
        let trace = vec![
            crate::trace::TraceRequest {
                arrival_s: 0.0,
                input_len: 16,
                output_len: 2,
            },
            crate::trace::TraceRequest {
                arrival_s: 0.1,
                input_len: 16,
                output_len: 2,
            },
        ];
        let scenario = Scenario::new("trace", Workload::fixed(1, 1), Arrivals::trace(trace), 1000);
        let report = run_scenario(scenario, config(4), &mut Fcfs);
        assert_eq!(report.completed.len(), 2);
    }

    #[test]
    fn stage_cap_stops_runaway() {
        let cfg = SimulationConfig {
            max_stages: 5,
            ..config(1)
        };
        let scenario = Scenario::new("cap", Workload::fixed(8, 100), Arrivals::ClosedLoop, 3);
        let report = run_scenario(scenario, cfg, &mut Fcfs);
        assert_eq!(report.stage_stats.stages, 5);
        assert!(report.completed.is_empty());
    }

    /// Prices every stage at 0.25 s, a binary fraction, so stage `k`
    /// starts at exactly `0.25 * k`; records every delta.
    #[derive(Default)]
    struct Quarter(Vec<StageDelta>);
    impl StageExecutor for Quarter {
        fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
            StageOutcome { seconds: 0.25 }
        }
        fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
            self.0.push(delta.clone());
            self.execute(shape)
        }
    }

    /// A replica with `max_batch` slots and the given SLO tiers.
    fn replica(max_batch: usize, tiers: Vec<SloTier>) -> ReplicaSim {
        let scenario = Scenario::new("quiet", Workload::fixed(4, 4), Arrivals::ClosedLoop, 1)
            .with_tiers(tiers);
        ReplicaSim::new(config(max_batch), &scenario)
    }

    /// Run `replica` as a fleet window with no later event steps it:
    /// every request routed up front, every step unbounded. See
    /// [`drive`] for `requests`. Returns the drained replica and every
    /// delta it sent.
    fn drive_replica<P: SchedulingPolicy>(
        replica: ReplicaSim,
        requests: &[(f64, u64, u64, usize)],
        policy: &mut P,
    ) -> (ReplicaSim, Vec<StageDelta>) {
        let (replica, deltas, _) = drive(replica, requests, policy, true, false);
        (replica, deltas)
    }

    /// Drive `replica` over `requests` (`(arrival_s, input, output,
    /// tier)`, in arrival order, ids in order) like one of the callers
    /// does. `upfront` routes every request into the inbox first and
    /// steps with no bound, as a fleet window with no later event
    /// does; otherwise requests are fed lazily like
    /// `ScenarioSimulation::run` feeds its stream, every arrival due by
    /// the next stage start, and each step is bounded by the next
    /// undelivered arrival. `single` instead bounds every step at the
    /// replica's clock, which runs exactly one stage per call. Returns
    /// the drained replica, every delta it sent and the `step` calls.
    fn drive<P: SchedulingPolicy>(
        mut replica: ReplicaSim,
        requests: &[(f64, u64, u64, usize)],
        policy: &mut P,
        upfront: bool,
        single: bool,
    ) -> (ReplicaSim, Vec<StageDelta>, usize) {
        replica.prepare_preempt(policy);
        let mut feed: Vec<PendingRequest> = requests
            .iter()
            .enumerate()
            .map(|(id, &(arrival_s, input_len, output_len, tier))| {
                let request = Request {
                    id: id as u64,
                    arrival_s,
                    input_len,
                    output_len,
                };
                make_pending(request, tier, &replica.tiers)
            })
            .rev()
            .collect();
        if upfront {
            for p in feed.drain(..).rev() {
                replica.enqueue(p);
            }
        }
        let mut ex = Quarter::default();
        let mut calls = 0;
        loop {
            while let Some(p) = feed.last() {
                match replica.next_start() {
                    Some(t) if p.request.arrival_s > t => break,
                    None if !replica.can_accept() => break,
                    _ => replica.enqueue(feed.pop().expect("checked non-empty")),
                }
            }
            if replica.next_start().is_none() {
                break;
            }
            let bound = if single {
                Some(replica.clock())
            } else {
                feed.last().map(|p| p.request.arrival_s)
            };
            replica.step(policy, &mut ex, bound);
            calls += 1;
        }
        (replica, ex.0, calls)
    }

    /// The stages whose delta only advances the batch.
    fn pure_stages(deltas: &[StageDelta]) -> Vec<usize> {
        (0..deltas.len())
            .filter(|&i| deltas[i].is_pure_advance())
            .collect()
    }

    fn two_tiers() -> Vec<SloTier> {
        vec![
            SloTier::new("interactive", 0.5, 0, 10.0, 0.0),
            SloTier::new("batch", 0.5, 2, 60.0, 0.0),
        ]
    }

    #[test]
    fn a_full_batch_admits_its_queue_head_after_the_first_retirement() {
        // Stage 0 admits ids 0 and 1 and fills the batch; id 2 waits
        // through quiet stages 1 and 2. Id 0 samples its third and last
        // token in stage 2, so stage 3 retires it and admits id 2.
        let (replica, deltas) = drive_replica(
            replica(2, Vec::new()),
            &[(0.0, 4, 3, 0), (0.0, 4, 5, 0), (0.0, 4, 2, 0)],
            &mut Fcfs,
        );
        assert_eq!(deltas[0].admit, vec![4, 4]);
        assert_eq!(deltas[3].admit, vec![4]);
        assert_eq!(
            deltas[3].retire,
            vec![4 + 3],
            "id 0 at its post-advance context"
        );
        assert_eq!(pure_stages(&deltas), vec![1, 2, 4]);
        let head = replica.completed.iter().find(|r| r.request.id == 2);
        assert_eq!(head.map(|r| r.first_token_s), Some(1.0), "after stage 3");
    }

    #[test]
    fn an_armed_preemption_pauses_a_victim_on_the_arrivals_first_stage() {
        // Ids 0-2 fill a 3-slot batch at stage 0; id 1 is the batch-tier
        // decode with the shortest context, so it is the victim.
        // Urgent id 3 arrives at 0.6 s, inside stage 2 [0.5, 0.75):
        // stage 3 pauses id 1 and admits id 3. Ids 2 and 3 both finish
        // in stage 5, and urgent id 4 (arrived at 1.3 s) takes one of
        // the two slots in stage 6, ahead of the resume. Stage 7's
        // delta would be a pure advance, but the free slot and the
        // paused victim make it a resume.
        let mut policy = crate::preempt::PreemptionPolicy::new(
            Box::new(PriorityTiers),
            crate::preempt::PreemptSpec::new(),
        );
        let (replica, deltas) = drive_replica(
            replica(3, two_tiers()),
            &[
                (0.0, 8, 40, 1),
                (0.0, 4, 40, 1),
                (0.0, 4, 6, 0),
                (0.6, 4, 3, 0),
                (1.3, 4, 10, 0),
            ],
            &mut policy,
        );
        assert_eq!(deltas[3].retire, vec![4 + 3], "id 1 paused at stage 3");
        assert_eq!(deltas[3].admit, vec![4], "id 3 admitted at stage 3");
        assert_eq!(deltas[6].retire.len(), 2);
        assert_eq!(deltas[6].admit, vec![4], "id 4 admitted at stage 6");
        assert_eq!(deltas[7].admit.len(), 1, "id 1 resumes at stage 7");
        assert_eq!(&pure_stages(&deltas)[..4], &[1, 2, 4, 5]);
        assert_eq!(replica.preempt.preemptions, 1);
        assert_eq!(replica.preempt.resumes, 1);
        assert_eq!(replica.completed.len(), 5);
    }

    #[test]
    fn an_arrival_exactly_at_the_clock_joins_that_stage() {
        // Stage 2 starts at exactly 0.5 s, when id 2 arrives; the batch
        // has a free slot, so the stage admits it.
        let (_, deltas) = drive_replica(
            replica(4, Vec::new()),
            &[(0.0, 4, 10, 0), (0.0, 4, 10, 0), (0.5, 4, 10, 0)],
            &mut Fcfs,
        );
        assert_eq!(deltas[0].admit, vec![4, 4]);
        assert!(deltas[1].is_pure_advance());
        assert_eq!(deltas[2].admit, vec![4]);
    }

    #[test]
    fn the_stage_cap_lands_exactly_inside_a_run_of_quiet_stages() {
        let cfg = SimulationConfig {
            max_stages: 5,
            ..config(2)
        };
        let workload = Workload::fixed(4, 50);
        let mut ex = Quarter::default();
        let lazy = crate::scheduler::Simulation::closed_loop(cfg, workload.clone(), 4).run(&mut ex);
        let scenario = Scenario::new("cap", workload, Arrivals::ClosedLoop, 4);
        let mut eager_ex = Quarter::default();
        let eager = ScenarioSimulation::new(cfg, scenario).run(&mut Fcfs, &mut eager_ex);
        for (report, deltas) in [(lazy, ex.0), (eager, eager_ex.0)] {
            assert_eq!(report.stage_stats.stages, 5);
            assert_eq!(report.stages.len(), 5);
            assert_eq!(pure_stages(&deltas), vec![1, 2, 3, 4]);
            assert!(report.completed.is_empty());
        }
    }

    #[test]
    fn quiet_stages_keep_tier_tbt_and_the_timeline_whole() {
        // A tiered replica recording a fault-plan timeline in 1 s
        // buckets (four stages each), with staggered arrivals so quiet
        // stages alternate with admitting and retiring ones. Every
        // generated token lands in the timeline, and every decoding
        // token after a request's first adds one TBT sample to its
        // tier and to the fleet digest.
        let requests: Vec<(f64, u64, u64, usize)> = (0..12)
            .map(|i| (0.3 * i as f64, 4 + i, 3 + (7 * i) % 11, (i % 2) as usize))
            .collect();
        let mut tiered = replica(3, two_tiers());
        tiered.set_fault_recording(vec![(0.0, 100.0)], 1.0);
        let (replica, deltas) = drive_replica(tiered, &requests, &mut PriorityTiers);
        assert_eq!(replica.completed.len(), requests.len());
        let pure = pure_stages(&deltas).len();
        assert!(
            pure > 10 && pure < deltas.len() - 10,
            "{pure} of {}",
            deltas.len()
        );
        let tokens: u64 = replica.completed.iter().map(|r| r.tokens).sum();
        let timeline: u64 = replica.timeline().iter().map(|&(_, n)| n).sum();
        assert_eq!(timeline, tokens);
        let gaps = |tier: Option<usize>| -> u64 {
            replica
                .completed
                .iter()
                .filter(|r| tier.is_none_or(|t| requests[r.request.id as usize].3 == t))
                .map(|r| r.tokens - 1)
                .sum()
        };
        assert_eq!(replica.tbt_digest.count(), gaps(None));
        for t in 0..2 {
            assert_eq!(
                replica.tier_stats[t].tbt_digest.count(),
                gaps(Some(t)),
                "tier {t}"
            );
        }
    }

    #[test]
    fn tbt_buckets_are_looked_up_once_per_bucket_change() {
        // Closed loop with a full batch and long outputs: quiet stages
        // keep one latency, so the TBT bucket memo refills only when a
        // mixed stage jumps away and back. A lookup path that calls `ln`
        // every stage refills on every stage and fails here, though
        // every output is the same.
        let mut replica = ReplicaSim::new(
            config(16),
            &Scenario::new("long", Workload::fixed(4, 4), Arrivals::ClosedLoop, 1),
        );
        let mut lcg = 7u64;
        for id in 0..96 {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let request = Request {
                id,
                arrival_s: 0.0,
                input_len: 128 + (lcg >> 33) % 896,
                output_len: 200 + (lcg >> 45) % 400,
            };
            replica.enqueue(make_pending(request, 0, &[]));
        }
        let mut ex = Priced::default();
        while replica.next_start().is_some() {
            replica.step(&mut Fcfs, &mut ex, None);
        }
        assert_eq!(replica.completed.len(), 96);
        let stats = replica.stage_stats;
        assert_eq!((stats.stages, stats.mixed), (2680, 81));
        // Measured: 159 refills, 5.9% of stages, at most two per mixed
        // stage. The floor catches a lookup that bypasses the memo.
        let refills = replica.tbt_bucket.refills();
        assert!(
            (stats.mixed..=2 * stats.mixed).contains(&refills),
            "{refills} refills in {} stages",
            stats.stages
        );
    }

    /// Run one case under both feeds, each with its natural bounds and
    /// one stage per call, and demand identical runs. Returns the
    /// report and the fewest calls a natural run took.
    fn assert_runs_match_single_steps<P: SchedulingPolicy>(
        name: &str,
        make: impl Fn() -> ReplicaSim,
        requests: &[(f64, u64, u64, usize)],
        policy: &mut P,
    ) -> (SimReport, usize) {
        let mut fewest = usize::MAX;
        let mut report = SimReport::default();
        for upfront in [false, true] {
            let (run, run_deltas, run_calls) = drive(make(), requests, policy, upfront, false);
            let (one, one_deltas, one_calls) = drive(make(), requests, policy, upfront, true);
            let case = format!("{name}, upfront {upfront}");
            assert_eq!(run.timeline(), one.timeline(), "{case}");
            let (run, one) = (run.into_report(), one.into_report());
            assert_eq!(
                run.total_time_s.to_bits(),
                one.total_time_s.to_bits(),
                "{case}"
            );
            assert_eq!(run.stages, one.stages, "{case}");
            assert_eq!(run.stage_stats, one.stage_stats, "{case}");
            assert_eq!(run.tbt_digest, one.tbt_digest, "{case}");
            assert_eq!(run, one, "{case}");
            assert_eq!(run_deltas, one_deltas, "{case}");
            assert_eq!(
                one_calls as u64, one.stage_stats.stages,
                "{case}: one stage per call"
            );
            fewest = fewest.min(run_calls);
            report = run;
        }
        (report, fewest)
    }

    #[test]
    fn runs_of_quiet_stages_match_single_steps() {
        let staggered = |n: u64| -> Vec<(f64, u64, u64, usize)> {
            (0..n)
                .map(|i| (0.0, 4 + i, 6 + (7 * i) % 23, (i % 2) as usize))
                .collect()
        };
        let plain = |max_batch: usize| move || replica(max_batch, Vec::new());

        // Closed loop with a full batch: ten backlogged requests, four
        // slots, long stretches of quiet stages between retirements.
        let (report, calls) =
            assert_runs_match_single_steps("closed", plain(4), &staggered(10), &mut Fcfs);
        let stages = report.stage_stats.stages;
        assert!(
            calls * 2 < stages as usize,
            "{calls} calls, {stages} stages"
        );

        // Poisson-like arrivals with idle gaps and free slots.
        let sparse = [
            (0.0, 4, 9, 0),
            (0.1, 6, 20, 0),
            (3.05, 5, 12, 0),
            (3.3, 4, 3, 0),
            (9.7, 8, 15, 0),
            (14.0, 4, 2, 0),
        ];
        let (report, calls) =
            assert_runs_match_single_steps("sparse", plain(4), &sparse, &mut Fcfs);
        let stages = report.stage_stats.stages;
        assert!(
            calls * 2 < stages as usize,
            "{calls} calls, {stages} stages"
        );

        // Arrivals exactly at the end of a quiet stage (stage k ends at
        // 0.25 * (k + 1)), with a slot free and with the batch full.
        let on_stage_ends = [
            (0.0, 4, 30, 0),
            (0.0, 4, 30, 0),
            (1.5, 4, 20, 0),
            (2.0, 4, 20, 0),
            (3.75, 4, 5, 0),
        ];
        let (report, _) =
            assert_runs_match_single_steps("stage ends", plain(3), &on_stage_ends, &mut Fcfs);
        let joiner = report.completed.iter().find(|r| r.request.id == 2);
        assert_eq!(
            joiner.map(|r| r.first_token_s),
            Some(1.75),
            "joins at 1.5 s"
        );

        // The stage cap lands inside a run.
        let capped = || {
            let cfg = SimulationConfig {
                max_stages: 11,
                ..config(2)
            };
            ReplicaSim::new(
                cfg,
                &Scenario::new("cap", Workload::fixed(4, 4), Arrivals::ClosedLoop, 1),
            )
        };
        let (report, _) = assert_runs_match_single_steps("cap", capped, &staggered(4), &mut Fcfs);
        assert_eq!(report.stage_stats.stages, 11);

        // Fault-plan timeline buckets of 1 s (four stages each) cross
        // the runs.
        let recording = || {
            let mut r = replica(3, two_tiers());
            r.set_fault_recording(vec![(0.0, 100.0)], 1.0);
            r
        };
        assert_runs_match_single_steps("timeline", recording, &staggered(9), &mut PriorityTiers);

        // Preemption armed with a full batch and a waiting queue.
        let mut preempting = crate::preempt::PreemptionPolicy::new(
            Box::new(PriorityTiers),
            crate::preempt::PreemptSpec::new(),
        );
        // Batch-tier work fills the three slots and queues behind them;
        // urgent arrivals then pause batch-tier victims.
        let crowded = [
            (0.0, 8, 40, 1),
            (0.0, 4, 40, 1),
            (0.0, 4, 30, 1),
            (0.0, 4, 20, 1),
            (0.0, 6, 25, 1),
            (0.6, 4, 3, 0),
            (1.3, 4, 10, 0),
            (5.1, 4, 6, 0),
        ];
        let (report, _) = assert_runs_match_single_steps(
            "preempt",
            || replica(3, two_tiers()),
            &crowded,
            &mut preempting,
        );
        assert!(report.preempt.preemptions > 0, "{:?}", report.preempt);

        // SLO tiers with staggered arrivals.
        let tiered: Vec<(f64, u64, u64, usize)> = (0..12)
            .map(|i| (0.3 * i as f64, 4 + i, 3 + (7 * i) % 11, (i % 2) as usize))
            .collect();
        assert_runs_match_single_steps(
            "tiers",
            || replica(3, two_tiers()),
            &tiered,
            &mut PriorityTiers,
        );
    }

    #[test]
    fn chunked_prefill_splits_long_prompts() {
        // One 300-token prompt under a 128-token budget: two held
        // chunks, then a 44-token final slice that samples and joins.
        let scenario = Scenario::new("chunk", Workload::fixed(300, 3), Arrivals::ClosedLoop, 1)
            .with_prefill_chunk(128);
        let mut rec = Recording::new();
        let report = ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        assert_eq!(report.completed.len(), 1);

        assert_eq!(rec.shapes[0].prefill_len, vec![128]);
        assert_eq!(rec.shapes[0].prefill_hold, vec![true]);
        assert_eq!(rec.deltas[0].chunk, vec![(128, 0)]);
        assert!(rec.deltas[0].admit.is_empty());

        assert_eq!(rec.shapes[1].prefill_len, vec![128]);
        assert_eq!(rec.shapes[1].prefill_past, vec![128]);
        assert_eq!(rec.deltas[1].chunk, vec![(128, 128)]);

        assert_eq!(rec.shapes[2].prefill_len, vec![44]);
        assert_eq!(rec.shapes[2].prefill_past, vec![256]);
        assert!(rec.shapes[2].prefill_samples(0), "final slice samples");
        assert_eq!(rec.deltas[2].admit, vec![44]);
        assert_eq!(rec.deltas[2].admit_ctx, vec![300], "joins at full prompt");

        // Decoding over the full context from the next stage on.
        assert_eq!(rec.shapes[3].decode_ctx, vec![301]);
        assert!(rec.shapes[3].prefill_len.is_empty());
        // First token lands after the final slice: 3 prefill stages.
        let done = &report.completed[0];
        assert!((done.t2ft() - 0.03).abs() < 1e-9, "t2ft {}", done.t2ft());
    }

    #[test]
    fn chunk_budget_bounds_every_stage() {
        // A burst of long prompts: no stage may prefill more than the
        // budget, decodes interleave, and everything still completes.
        let scenario = Scenario::new(
            "budget",
            Workload::fixed(200, 6).with_seed(3),
            Arrivals::Poisson { qps: 500.0 },
            12,
        )
        .with_prefill_chunk(96);
        let mut rec = Recording::new();
        let report = ScenarioSimulation::new(config(6), scenario).run(&mut Fcfs, &mut rec);
        assert_eq!(report.completed.len(), 12);
        for (i, shape) in rec.shapes.iter().enumerate() {
            let prefill: u64 = shape.prefill_len.iter().sum();
            assert!(prefill <= 96, "stage {i} prefills {prefill} tokens");
        }
        // The budget forces held chunks to actually occur.
        assert!(rec.deltas.iter().any(|d| !d.chunk.is_empty()));
        // Chunks attend over their prompt's earlier slices.
        assert!(rec
            .deltas
            .iter()
            .flat_map(|d| &d.chunk)
            .any(|&(_, past)| past > 0));
    }

    #[test]
    fn chunked_run_matches_unchunked_completions() {
        let mk = |chunk: u64| {
            let scenario = Scenario::new(
                "cmp",
                Workload::gaussian(220, 8).with_seed(11),
                Arrivals::Poisson { qps: 300.0 },
                15,
            )
            .with_prefill_chunk(chunk);
            run_scenario(scenario, config(4), &mut Fcfs)
        };
        let plain = mk(0);
        let chunked = mk(64);
        assert_eq!(plain.completed.len(), chunked.completed.len());
        // Chunking only adds stages (slices), never loses tokens.
        assert!(chunked.stage_stats.stages > plain.stage_stats.stages);
        assert_eq!(plain.total_tokens(), chunked.total_tokens());
        assert_eq!(
            plain.stage_stats.token_sum, chunked.stage_stats.token_sum,
            "same FC tokens processed overall"
        );
    }

    #[test]
    fn shedding_batch_tier_lifts_interactive_attainment_near_saturation() {
        // A shape-aware executor: prefills stall the whole batch (the
        // mixed-stage spike chunked prefill also fights), decodes are
        // cheap. Near saturation, plain EDF admits batch-tier prompts
        // into every open slot, so interactive decoders keep eating
        // mixed-stage latency and miss their TBT deadline; the
        // shedding wrapper defers batch admissions while occupancy is
        // high, pushing those prefills into emptier moments.
        struct Linear;
        impl StageExecutor for Linear {
            fn execute(&mut self, shape: &StageShape) -> StageOutcome {
                let prefill: u64 = shape.prefill_len.iter().sum();
                StageOutcome {
                    seconds: 0.002 + 1.5e-4 * prefill as f64 + 1e-4 * shape.decode_ctx.len() as f64,
                }
            }
        }
        let tiers = vec![
            SloTier::new("interactive", 0.5, 0, 0.6, 0.0048),
            SloTier::new("batch", 0.5, 2, 60.0, 0.0),
        ];
        let mk = |policy: &mut dyn SchedulingPolicy| {
            let scenario = Scenario::new(
                "shed",
                Workload::gaussian(64, 16).with_seed(21),
                Arrivals::Poisson { qps: 55.0 },
                400,
            )
            .with_tiers(tiers.clone());
            ScenarioSimulation::new(config(8), scenario).run(policy, &mut Linear)
        };
        let edf = mk(&mut PriorityTiers);
        let shed = mk(&mut crate::policy::ShedBatchTier::new(
            Box::new(PriorityTiers),
            0.5,
            2,
        ));
        assert_eq!(edf.completed.len(), 400);
        assert_eq!(shed.completed.len(), 400, "shedding defers, never drops");
        let interactive = |r: &SimReport| r.slo.tiers[0].attainment();
        assert!(
            interactive(&shed) > interactive(&edf) + 0.05,
            "shed {} vs edf {}",
            interactive(&shed),
            interactive(&edf)
        );
        // The price is batch-tier queueing delay, not lost work.
        let batch = |r: &SimReport| r.slo.tiers[1].completed;
        assert_eq!(batch(&shed), batch(&edf));
    }

    #[test]
    fn preemption_beats_shedding_when_batch_decodes_hog_slots() {
        // KV-bound regime: running batch decodes reserve their full
        // (input + output) KV budget, and the capacity only fits a few
        // at once. Admission-side control (ShedBatchTier) can only
        // defer *new* batch prompts — it cannot free bytes a running
        // decode already reserved, so an interactive arrival
        // head-of-line blocks until a natural retirement and misses
        // its tight T2FT deadline. Preemption pauses a victim at the
        // very next stage, releasing its reservation: the interactive
        // prompt admits within milliseconds.
        struct Linear;
        impl StageExecutor for Linear {
            fn execute(&mut self, shape: &StageShape) -> StageOutcome {
                let prefill: u64 = shape.prefill_len.iter().sum();
                StageOutcome {
                    seconds: 0.002 + 1.5e-4 * prefill as f64 + 1e-4 * shape.decode_ctx.len() as f64,
                }
            }
        }
        let tiers = vec![
            SloTier::new("interactive", 0.5, 0, 0.035, 0.0),
            SloTier::new("batch", 0.5, 2, 60.0, 0.0),
        ];
        let mk = |policy: &mut dyn SchedulingPolicy| {
            let scenario = Scenario::new(
                "preempt",
                Workload::gaussian(64, 192).with_seed(21),
                Arrivals::Poisson { qps: 16.0 },
                400,
            )
            .with_tiers(tiers.clone())
            // Chunked prefill bounds every stage (fresh prompts and
            // recompute re-prefills alike), so T2FT is dominated by
            // the wait for KV headroom — the thing under test.
            .with_prefill_chunk(64);
            let cfg = SimulationConfig {
                // ~5 concurrent requests' worth of (input + output)
                // reservations: KV, not batch slots, is the binding
                // constraint.
                kv_capacity_bytes: 1280,
                ..config(8)
            };
            ScenarioSimulation::new(cfg, scenario).run(policy, &mut Linear)
        };
        let shed = mk(&mut crate::policy::ShedBatchTier::new(
            Box::new(PriorityTiers),
            0.5,
            2,
        ));
        // Crossover at ctx = 7.5e-3 / (1e-4 - 5e-5) = 150 resident
        // tokens (1 KV byte per token here): short victims re-prefill,
        // long ones swap — both paths must see traffic.
        let spec = crate::preempt::PreemptSpec::new()
            .with_swap_link(2e4, 7.5e-3)
            .with_recompute_rate(1e4);
        let preempt = mk(&mut crate::preempt::PreemptionPolicy::new(
            Box::new(PriorityTiers),
            spec,
        ));
        assert_eq!(shed.completed.len(), 400);
        assert_eq!(preempt.completed.len(), 400, "paused work is never dropped");
        let interactive = |r: &SimReport| r.slo.tiers[0].attainment();
        assert!(
            interactive(&preempt) > interactive(&shed) + 0.05,
            "preempt {} vs shed {}",
            interactive(&preempt),
            interactive(&shed)
        );
        // The price is bounded: batch-tier goodput stays within 10%.
        let batch_good = |r: &SimReport| r.slo.tiers[1].good_tokens;
        assert!(
            batch_good(&preempt) as f64 >= 0.9 * batch_good(&shed) as f64,
            "batch goodput {} vs shed {}",
            batch_good(&preempt),
            batch_good(&shed)
        );
        // The cost model split victims across both restore paths, and
        // every pause eventually resumed.
        assert!(preempt.preempt.preemptions > 0);
        assert!(
            preempt.preempt.swaps > 0,
            "no swap-outs: {:?}",
            preempt.preempt
        );
        assert!(
            preempt.preempt.recomputes > 0,
            "no recomputes: {:?}",
            preempt.preempt
        );
        assert_eq!(preempt.preempt.resumes, preempt.preempt.preemptions);
        assert!(preempt.preempt.paused_time_s > 0.0);
        // Seed-determinism: the preempting run replays bit-for-bit.
        let again = mk(&mut crate::preempt::PreemptionPolicy::new(
            Box::new(PriorityTiers),
            spec,
        ));
        assert_eq!(preempt.completed, again.completed);
        assert_eq!(preempt.preempt, again.preempt);
    }

    #[test]
    fn multiplex_packs_paused_decodes_into_shared_slots() {
        // Slot-bound regime with bursty interactive arrivals: bursts
        // pause several batch decodes at once (SwapOnly keeps their
        // contexts parked), and once the burst drains, the multiplexer
        // packs compatible paused victims into one shared decode row
        // instead of giving each its own slot back. Members pay a
        // quality exchange rate on their goodput.
        let tiers = vec![
            SloTier::new("interactive", 0.4, 0, 0.08, 0.0),
            SloTier::new("batch", 0.6, 2, 120.0, 0.0),
        ];
        let spec = crate::preempt::PreemptSpec::new()
            .with_mode(crate::preempt::PreemptMode::SwapOnly)
            .with_threshold(0.75);
        let mspec = crate::preempt::MultiplexSpec::new();
        let mk = || {
            let scenario = Scenario::new(
                "mux",
                Workload::gaussian(64, 192).with_seed(11),
                Arrivals::Bursty {
                    base_qps: 1.0,
                    burst_qps: 40.0,
                    mean_off_s: 0.8,
                    mean_on_s: 0.15,
                },
                80,
            )
            .with_tiers(tiers.clone());
            let mut policy = crate::preempt::PreemptionPolicy::new(Box::new(PriorityTiers), spec)
                .with_multiplex(mspec);
            ScenarioSimulation::new(config(4), scenario).run(&mut policy, &mut Fixed(0.01))
        };
        let report = mk();
        assert_eq!(report.completed.len(), 80, "mux members all finish");
        assert!(
            report.preempt.mux_slots > 0,
            "no shared slots formed: {:?}",
            report.preempt
        );
        assert!(report.preempt.mux_tokens > 0);
        assert!(report.preempt.swaps > 0);
        assert_eq!(report.preempt.recomputes, 0, "SwapOnly never recomputes");
        assert_eq!(report.preempt.resumes, report.preempt.preemptions);
        // Replays bit-for-bit.
        let again = mk();
        assert_eq!(report.completed, again.completed);
        assert_eq!(report.preempt, again.preempt);
    }

    #[test]
    fn adaptive_chunk_budget_interpolates_on_occupancy() {
        let a = AdaptiveChunk {
            min_tokens: 64,
            max_tokens: 512,
        };
        assert_eq!(a.budget(0, 8), 512, "idle batch gets the ceiling");
        assert_eq!(a.budget(8, 8), 64, "full batch gets the floor");
        assert_eq!(a.budget(4, 8), 288, "half occupancy interpolates");
        assert_eq!(a.budget(16, 8), 64, "overfull clamps to the floor");
        // Degenerate: zero-slot batches never divide by zero.
        assert!(a.budget(0, 0) >= 1);
    }

    #[test]
    fn adaptive_chunk_widens_idle_prefills_and_bounds_busy_ones() {
        // Long prompts trickle in while a decode cohort persists: the
        // first (idle) admission may prefill up to the ceiling, while
        // stages with decoders in flight stay near the floor.
        let mk = |scenario: Scenario| {
            let mut rec = Recording::new();
            let report = ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
            (report, rec)
        };
        let base = Scenario::new(
            "adaptive",
            Workload::fixed(400, 24).with_seed(5),
            Arrivals::Poisson { qps: 200.0 },
            8,
        );
        let (fixed_report, fixed_rec) = mk(base.clone().with_prefill_chunk(64));
        let (adapt_report, adapt_rec) = mk(base.with_prefill_chunk_adaptive(64, 512));
        assert_eq!(fixed_report.completed.len(), adapt_report.completed.len());
        assert_eq!(fixed_report.total_tokens(), adapt_report.total_tokens());
        // The adaptive run used idle bandwidth: at least one stage
        // prefills beyond the fixed budget ...
        let max_prefill = |rec: &Recording| {
            rec.shapes
                .iter()
                .map(|s| s.prefill_len.iter().sum::<u64>())
                .max()
                .unwrap_or(0)
        };
        assert!(max_prefill(&adapt_rec) > 64, "idle stages widen");
        assert!(max_prefill(&fixed_rec) <= 64, "fixed stays bounded");
        // ... and stages with a full decode cohort stay at the floor.
        for (delta, shape) in adapt_rec.deltas.iter().zip(&adapt_rec.shapes) {
            let _ = delta;
            if shape.decode_ctx.len() >= 4 {
                let prefill: u64 = shape.prefill_len.iter().sum();
                assert!(prefill <= 64, "busy stage prefills {prefill}");
            }
        }
        // Fewer stages overall: idle slices are bigger.
        assert!(adapt_report.stage_stats.stages <= fixed_report.stage_stats.stages);
    }

    #[test]
    fn adaptive_chunk_is_exact_against_the_delta_contract() {
        // The adaptive budget reuses the chunking machinery, so the
        // delta/shape mirror must still replay exactly.
        let scenario = Scenario::new(
            "adaptchat",
            Workload::gaussian(180, 6).with_seed(23),
            Arrivals::Poisson { qps: 400.0 },
            10,
        )
        .with_conversation(ConversationSpec::chat(0.8, 3, 0.002, 48))
        .with_prefill_chunk_adaptive(48, 160);
        let mut rec = Recording::new();
        ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        assert!(rec.deltas.iter().any(|d| !d.chunk.is_empty()));
        assert_deltas_mirror_shapes(&rec);
    }

    #[test]
    fn recorder_round_trips_through_trace_replay() {
        // Record a bursty run's admissions, replay the JSON trace, and
        // the replayed run must reproduce the timeline byte for byte.
        let scenario = Scenario::new(
            "record",
            Workload::gaussian(48, 6).with_seed(17),
            Arrivals::Bursty {
                base_qps: 0.0,
                burst_qps: 400.0,
                mean_off_s: 0.05,
                mean_on_s: 0.02,
            },
            24,
        );
        let mut recorder = TraceRecorder::new();
        let original = ScenarioSimulation::new(config(4), scenario).run_recording(
            &mut Fcfs,
            &mut Fixed(0.01),
            &mut recorder,
        );
        assert_eq!(recorder.len(), 24);

        let parsed = parse_trace(&recorder.to_json()).expect("recorded trace parses");
        assert_eq!(parsed.len(), 24);
        let replay = Scenario::new(
            "replay",
            Workload::fixed(1, 1),
            Arrivals::trace(parsed),
            1000,
        );
        let replayed = ScenarioSimulation::new(config(4), replay).run(&mut Fcfs, &mut Fixed(0.01));
        assert_eq!(replayed.completed.len(), original.completed.len());
        assert_eq!(replayed.stage_stats, original.stage_stats);
        assert_eq!(
            replayed.total_time_s.to_bits(),
            original.total_time_s.to_bits()
        );
    }

    #[test]
    fn recorder_captures_followup_rounds() {
        let scenario = Scenario::new(
            "chatrec",
            Workload::fixed(64, 4).with_seed(1),
            Arrivals::ClosedLoop,
            2,
        )
        .with_conversation(ConversationSpec::chat(1.0, 2, 0.001, 16));
        let mut recorder = TraceRecorder::new();
        let report = ScenarioSimulation::new(config(4), scenario).run_recording(
            &mut Fcfs,
            &mut Fixed(0.01),
            &mut recorder,
        );
        assert_eq!(report.completed.len(), 4);
        // Two conversations x two rounds: the follow-ups appear with
        // their full (history + turn) prompts.
        assert_eq!(recorder.len(), 4);
        assert!(recorder.trace().iter().any(|r| r.input_len == 84));
    }

    fn assert_deltas_mirror_shapes(rec: &Recording) {
        let mut mirror: Vec<u64> = Vec::new();
        let mut pend: Vec<u64> = Vec::new();
        for (delta, shape) in rec.deltas.iter().zip(&rec.shapes) {
            if delta.fresh {
                mirror.clear();
                pend.clear();
            }
            for c in &mut mirror {
                *c += 1;
            }
            mirror.extend(pend.drain(..).map(|p| p + 1));
            for r in &delta.retire {
                let pos = mirror
                    .iter()
                    .position(|c| c == r)
                    .expect("retired ctx present");
                mirror.swap_remove(pos);
            }
            pend.extend_from_slice(delta.join_contexts());
            let mut want = shape.decode_ctx.clone();
            want.sort_unstable();
            let mut got = mirror.clone();
            got.sort_unstable();
            assert_eq!(got, want);
            // Prefills = admissions (len, past, sampling) + chunks
            // (len, past, held), as multisets.
            let mut want_pre: Vec<(u64, u64, bool)> = (0..delta.admit.len())
                .map(|i| (delta.admit[i], delta.admit_past(i), false))
                .chain(delta.chunk.iter().map(|&(len, past)| (len, past, true)))
                .collect();
            let mut got_pre: Vec<(u64, u64, bool)> = (0..shape.prefill_len.len())
                .map(|i| {
                    (
                        shape.prefill_len[i],
                        shape.prefill_past_of(i),
                        !shape.prefill_samples(i),
                    )
                })
                .collect();
            want_pre.sort_unstable();
            got_pre.sort_unstable();
            assert_eq!(got_pre, want_pre);
        }
    }

    #[test]
    fn chunked_deltas_replay_to_materialized_shapes() {
        // The delta/shape contract under chunking + conversations:
        // decode membership follows admit/retire alone, and each
        // stage's prefills are exactly the delta's admissions (with
        // their reuse past) plus its held chunks.
        let scenario = Scenario::new(
            "chunkchat",
            Workload::gaussian(180, 6).with_seed(23),
            Arrivals::Poisson { qps: 400.0 },
            10,
        )
        .with_conversation(ConversationSpec::chat(0.8, 3, 0.002, 48))
        .with_prefill_chunk(80);
        let mut rec = Recording::new();
        ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        assert!(rec.deltas.iter().any(|d| !d.chunk.is_empty()));
        assert_deltas_mirror_shapes(&rec);
    }

    #[test]
    fn reuse_admissions_carry_past_in_the_shape() {
        let scenario = Scenario::new(
            "chat",
            Workload::fixed(64, 4).with_seed(1),
            Arrivals::ClosedLoop,
            2,
        )
        .with_conversation(ConversationSpec::chat(1.0, 2, 0.001, 16));
        let mut rec = Recording::new();
        ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        // A reused follow-up prefills its 16-token suffix over the
        // 68-token resident history, and the shape says so.
        let (i, shape) = rec
            .shapes
            .iter()
            .enumerate()
            .find(|(_, s)| !s.prefill_past.is_empty() && s.prefill_past.iter().any(|&p| p > 0))
            .expect("a reuse admission with past exists");
        let j = shape
            .prefill_past
            .iter()
            .position(|&p| p > 0)
            .expect("past");
        assert_eq!(shape.prefill_past[j], 68);
        assert_eq!(shape.prefill_len[j], 16);
        assert_eq!(rec.deltas[i].admit_past(j), 68);
    }

    #[test]
    fn deltas_replay_to_materialized_shapes_with_reuse() {
        // The delta stream must mirror the shapes exactly, including
        // reuse admissions joining at their full history context.
        let scenario = Scenario::new(
            "chat",
            Workload::gaussian(48, 6).with_seed(7),
            Arrivals::Poisson { qps: 300.0 },
            10,
        )
        .with_conversation(ConversationSpec::chat(0.7, 3, 0.002, 12));
        let mut rec = Recording::new();
        ScenarioSimulation::new(config(4), scenario).run(&mut Fcfs, &mut rec);
        let mut mirror: Vec<u64> = Vec::new();
        let mut pend: Vec<u64> = Vec::new();
        for (delta, shape) in rec.deltas.iter().zip(&rec.shapes) {
            if delta.fresh {
                mirror.clear();
                pend.clear();
            }
            for c in &mut mirror {
                *c += 1;
            }
            mirror.extend(pend.drain(..).map(|p| p + 1));
            for r in &delta.retire {
                let pos = mirror
                    .iter()
                    .position(|c| c == r)
                    .expect("retired ctx present");
                mirror.swap_remove(pos);
            }
            pend.extend_from_slice(delta.join_contexts());
            let mut want = shape.decode_ctx.clone();
            want.sort_unstable();
            let mut got = mirror.clone();
            got.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(delta.admit, shape.prefill_len);
        }
    }
}

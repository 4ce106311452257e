//! Snapshot and resume for cluster simulations.
//!
//! A [`ClusterSnapshot`] captures the *complete* dynamic state of a
//! [`crate::ClusterSimulation`] at a merge-point boundary: the shared
//! arrival stream (both RNG streams, the peeked request, queued
//! follow-up rounds), the router's cursor, and per replica the queues,
//! active set, chunked prefills, parked-KV pool, carried stage delta,
//! accumulated metrics, and the executor's batch checkpoint
//! ([`crate::BatchCheckpoint`]: decode groups + RNG). Resuming from a
//! snapshot continues the run **bit-identically**: the final
//! [`crate::ClusterReport`] equals the uninterrupted run's report,
//! field for field — this is asserted by the integration tests for
//! every shipped router.
//!
//! # What a snapshot does *not* carry
//!
//! Static configuration (scenario, scheduler limits, model/system
//! parameters) is supplied again at resume time and must match the
//! original run; only dynamic state is serialized. Executor-side
//! *energy and time accumulators* are also out of scope — they never
//! flow into the [`crate::ClusterReport`], so a resumed run reports
//! identical fleet metrics while the executor's internal lifetime
//! totals restart from zero.
//!
//! # Serialization
//!
//! [`ClusterSnapshot::to_json`] writes a self-describing JSON document
//! (schema id `duplex/cluster-snapshot/v5`) that
//! [`ClusterSnapshot::from_json`] parses back. Version 2 extended v1
//! with fault-drill state: per-replica admission/drain flags, the
//! fault perf factor, the generated-token timeline, per-fault SLO
//! window counters, the fleet's [`RecoveryStats`], and the pending
//! fault event queue. Version 3 extends v2 with elastic-fleet state:
//! per-replica down-time accounting, load-trigger arming, and the
//! autoscale runtime (pending scale events, pool membership,
//! hysteresis streaks, scale counters). Version 4 extends v3 with
//! disaggregated-placement state: the admission-time decode
//! assignments of every request still prefilling, plus the fleet's
//! handoff/transfer counters. Older documents are rejected with a
//! message naming both versions rather than silently resuming without
//! the newer state. Exactness rules:
//!
//! * every `u64` is a quoted decimal string (RNG words use all 64
//!   bits, beyond `f64`'s integer range);
//! * every `f64` is a quoted decimal string of its IEEE-754 bit
//!   pattern (`f64::to_bits`), so infinities (untiered deadlines) and
//!   exact clock values round-trip without parsing loss;
//! * booleans are plain JSON booleans.

use std::collections::BTreeMap;

use crate::fault::RecoveryStats;
use crate::json::{self, JsonValue};
use crate::metrics::{KvReuseStats, StageRecord, StageStats};
use crate::preempt::PreemptStats;
use crate::request::{Request, RequestRecord};
use crate::scenario::PendingRequest;
use crate::scheduler::BatchCheckpoint;
use duplex_model::kv_cache::KvEntrySnapshot;

/// The shared arrival stream's dynamic state (see
/// `crate::scenario::ScenarioStream`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamState {
    pub(crate) source_rng: [u64; 4],
    pub(crate) source_next_id: u64,
    pub(crate) source_clock: f64,
    pub(crate) source_burst_on: bool,
    pub(crate) source_phase_until: f64,
    /// The scenario-side RNG (tier draws, think times, follow-ups).
    pub(crate) rng: [u64; 4],
    pub(crate) drawn: u64,
    pub(crate) next_id: u64,
    pub(crate) peeked: Option<Request>,
    /// Spawned but not yet arrived follow-ups, descending arrival.
    pub(crate) followups: Vec<PendingRequest>,
}

/// One decoding request's state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveState {
    pub(crate) pending: PendingRequest,
    pub(crate) generated: u64,
    pub(crate) first_token_s: f64,
}

/// One mid-chunking request's state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChunkingState {
    pub(crate) pending: PendingRequest,
    pub(crate) history: u64,
    pub(crate) processed: u64,
    pub(crate) prefill_total: u64,
    /// Mid-decode carry of a recompute-on-resume re-prefill (`None`
    /// for ordinary prompts).
    pub(crate) resumed: Option<ResumeState>,
}

/// Mid-decode progress carried through a recompute re-prefill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResumeState {
    pub(crate) generated: u64,
    pub(crate) first_token_s: f64,
}

/// One preempted (paused) request's state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PausedState {
    pub(crate) pending: PendingRequest,
    pub(crate) generated: u64,
    pub(crate) first_token_s: f64,
    pub(crate) ctx: u64,
    pub(crate) swapped: bool,
    pub(crate) paused_at_s: f64,
}

/// One multiplex-slot member's state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MuxMemberState {
    pub(crate) pending: PendingRequest,
    pub(crate) generated: u64,
    pub(crate) first_token_s: f64,
}

/// One multiplex slot's state (a shared decode row).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MuxState {
    pub(crate) ctx: u64,
    pub(crate) generated: u64,
    pub(crate) kv_bytes: u64,
    pub(crate) quality: f64,
    pub(crate) members: Vec<MuxMemberState>,
}

/// A parked-KV pool's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KvState {
    pub(crate) clock: u64,
    pub(crate) entries: Vec<KvEntrySnapshot>,
}

/// A latency digest's population: sparse nonzero buckets plus the
/// record-order global count and sum (the sum is not bit-recomputable
/// from the buckets).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DigestState {
    pub(crate) buckets: Vec<(u64, u64, f64)>,
    pub(crate) count: u64,
    pub(crate) sum: f64,
}

/// One SLO tier's counters (names and deadlines are configuration,
/// rebuilt from the scenario on resume).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierState {
    pub(crate) completed: u64,
    pub(crate) met: u64,
    pub(crate) good_tokens: u64,
    pub(crate) tbt: DigestState,
}

/// One replica's dynamic state at a merge point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplicaState {
    pub(crate) inbox: Vec<PendingRequest>,
    pub(crate) pending: Vec<PendingRequest>,
    pub(crate) active: Vec<ActiveState>,
    pub(crate) chunking: Vec<ChunkingState>,
    /// Preempted requests awaiting resume, in pause (FIFO) order.
    pub(crate) paused: Vec<PausedState>,
    /// Live multiplex slots (shared decode rows).
    pub(crate) mux: Vec<MuxState>,
    /// Preemption counters accumulated so far.
    pub(crate) preempt: PreemptStats,
    pub(crate) parked: Option<KvState>,
    pub(crate) reserved: u64,
    pub(crate) clock: f64,
    /// Carried [`crate::StageDelta`] state: `fresh` is true only on a
    /// replica that has never stepped; `retire` carries the previous
    /// stage's retirements into the next delta.
    pub(crate) delta_fresh: bool,
    pub(crate) delta_retire: Vec<u64>,
    pub(crate) completed: Vec<RequestRecord>,
    pub(crate) stages: Vec<StageRecord>,
    pub(crate) stage_stats: StageStats,
    pub(crate) tbt_digest: DigestState,
    pub(crate) tiers: Vec<TierState>,
    pub(crate) kv_reuse: KvReuseStats,
    /// Whether faults currently allow this replica to admit requests.
    pub(crate) admitting: bool,
    /// Whether the replica is gracefully draining towards a handoff.
    pub(crate) draining: bool,
    /// Stage-time multiplier from an active slowdown or warm-up.
    pub(crate) perf_factor: f64,
    /// When the replica last went down (`None` while up).
    pub(crate) down_since: Option<f64>,
    /// Down time accumulated by earlier, closed outages.
    pub(crate) down_seconds: f64,
    /// Generated-token recovery timeline as `(bucket, tokens)` pairs.
    pub(crate) timeline: Vec<(u64, u64)>,
    /// Per scripted fault, per SLO tier: `(completed, met)` inside the
    /// fault's measurement window.
    pub(crate) window_counts: Vec<Vec<(u64, u64)>>,
    /// The replica executor's carried batch state (`None` for
    /// stateless executors).
    pub(crate) batch: Option<BatchCheckpoint>,
}

impl ReplicaState {
    /// Whether the executor checkpoint agrees with this replica's
    /// decode set. The executor's next stage advances the checkpoint's
    /// groups by one, joins the pending contexts at one past their
    /// length and removes the carried retirements (a fresh delta drops
    /// the checkpoint first); what remains must be the decode contexts
    /// of the active requests and multiplex slots, as a multiset.
    /// Stateless executors carry no checkpoint and always agree.
    pub(crate) fn batch_matches_decode_set(&self) -> bool {
        let Some(batch) = &self.batch else {
            return true;
        };
        let mut carried: BTreeMap<u64, u64> = BTreeMap::new();
        if !self.delta_fresh {
            let joins = batch.pending_joins.iter().map(|&ctx| (ctx, 1));
            for (ctx, reqs) in batch.decode_groups.iter().copied().chain(joins) {
                let Some(next) = ctx.checked_add(1) else {
                    return false;
                };
                let n = carried.entry(next).or_default();
                *n = n.saturating_add(reqs);
            }
        }
        for ctx in &self.delta_retire {
            match carried.get_mut(ctx) {
                Some(n) if *n > 0 => *n -= 1,
                _ => return false,
            }
        }
        carried.retain(|_, n| *n > 0);
        let mut decoding: BTreeMap<u64, u64> = BTreeMap::new();
        let active = self
            .active
            .iter()
            .map(|a| a.pending.request.input_len.checked_add(a.generated));
        let mux = self.mux.iter().map(|m| m.ctx.checked_add(m.generated));
        for ctx in active.chain(mux) {
            let Some(ctx) = ctx else {
                return false;
            };
            *decoding.entry(ctx).or_default() += 1;
        }
        carried == decoding
    }
}

/// The fault runtime's dynamic state: the pending event queue
/// (`(at_s bits, seq, code, replica-or-fault index)` with codes
/// 0 = apply scripted fault, 1 = restart, 2 = clear slowdown), the
/// event sequence counter, per-request retry attempts, in-progress
/// drains as `(replica, down_s bits, fault at_s bits)`, and per load
/// trigger its `(fires so far, re-armed-at bits)` pair.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultState {
    pub(crate) events: Vec<(u64, u64, u64, u64)>,
    pub(crate) seq: u64,
    pub(crate) attempts: Vec<(u64, u64)>,
    pub(crate) draining_down: Vec<(u64, u64, u64)>,
    pub(crate) triggers: Vec<(u64, u64)>,
}

/// The autoscale runtime's dynamic state: the pending scale-event
/// queue (`(at_s bits, seq, code, replica, lag bits)` with codes
/// 0 = evaluate, 1 = replica joins, 2 = clear warm-up), the event
/// sequence counter, pool/draining membership per replica, the
/// hysteresis streaks, the SLO-window watermark, and the scale
/// counters mirrored from [`crate::ScaleStats`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AutoscaleState {
    pub(crate) events: Vec<(u64, u64, u64, u64, u64)>,
    pub(crate) seq: u64,
    pub(crate) pool: Vec<bool>,
    pub(crate) draining: Vec<bool>,
    pub(crate) up_streak: u64,
    pub(crate) down_streak: u64,
    /// First evaluation time of the running up-streak (`None` between
    /// streaks).
    pub(crate) streak_start: Option<f64>,
    pub(crate) cooldown_until: f64,
    /// `(met, completed)` interactive-tier totals at the last
    /// evaluation — the window delta baseline.
    pub(crate) last_slo: (u64, u64),
    pub(crate) scale_ups: u64,
    pub(crate) scale_downs: u64,
    pub(crate) scale_up_lag_s: f64,
}

/// The disaggregation runtime's dynamic state: the admission-time
/// decode assignment of every request still prefilling, as
/// `(request id, decode replica, KV bytes to ship)` triples sorted by
/// request id, plus the fleet's handoff/transfer counters mirrored
/// from [`crate::DisaggStats`]. Per-replica handoff buffers are
/// provably empty at merge points, so assignments are the *entire*
/// in-flight transfer state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DisaggState {
    pub(crate) assignments: Vec<(u64, u64, u64)>,
    pub(crate) handoffs: u64,
    pub(crate) kv_bytes_shipped: u64,
    pub(crate) transfer_seconds: f64,
    pub(crate) reprefills: u64,
}

/// A paused cluster run: everything needed to continue it later —
/// in-process via `crate::ClusterSimulation::resume`, or across
/// processes through [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json).
///
/// # Bit-exact resume and the clock-merge invariant
///
/// Snapshots are only taken at *merge points* of the cluster's
/// clock-merge protocol — the loop boundary where every replica has
/// drained its buffered retire events and no admissions are in
/// flight. At that boundary the entire run state is exactly the
/// fields captured here, so `run_until` + `resume` replays the same
/// event sequence, RNG draws, and floating-point accumulations as an
/// uninterrupted `run`, and the final report is byte-identical. This
/// is why faults, scale events and disaggregated handoffs all act at
/// merge points: a snapshot never has to capture one half-applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The virtual time the run paused at (the requested `stop_s`
    /// bound's merge point; informational).
    pub(crate) taken_at_s: f64,
    /// Opaque router state (see `Router::export_state`).
    pub(crate) router: Vec<u64>,
    pub(crate) stream: StreamState,
    pub(crate) replicas: Vec<ReplicaState>,
    /// Fleet-wide fault/recovery counters accumulated so far.
    pub(crate) stats: RecoveryStats,
    /// Fault runtime state; present exactly when the run has a
    /// [`crate::FaultPlan`] attached.
    pub(crate) fault: Option<FaultState>,
    /// Autoscale runtime state; present exactly when the run has an
    /// [`crate::AutoscalePolicy`] attached.
    pub(crate) autoscale: Option<AutoscaleState>,
    /// Disaggregation runtime state; present exactly when the run has
    /// a [`crate::DisaggPlan`] attached.
    pub(crate) disagg: Option<DisaggState>,
}

/// The schema id written by [`ClusterSnapshot::to_json`].
const SCHEMA: &str = "duplex/cluster-snapshot/v5";
/// Retired schema ids, recognized only to produce a clear error.
const RETIRED_SCHEMAS: [&str; 4] = [
    "duplex/cluster-snapshot/v1",
    "duplex/cluster-snapshot/v2",
    "duplex/cluster-snapshot/v3",
    "duplex/cluster-snapshot/v4",
];

impl ClusterSnapshot {
    /// The virtual time the run paused at.
    pub fn taken_at_s(&self) -> f64 {
        self.taken_at_s
    }

    /// Number of replica states captured.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Serialize to the `duplex/cluster-snapshot/v5` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj_open();
        w.str_field("schema", SCHEMA);
        w.f64_field("taken_at_s", self.taken_at_s);
        w.key("router");
        w.u64_array(&self.router);
        w.key("stream");
        write_stream(&mut w, &self.stream);
        w.key("replicas");
        w.arr_open();
        for r in &self.replicas {
            w.item();
            write_replica(&mut w, r);
        }
        w.arr_close();
        w.key("stats");
        write_stats(&mut w, &self.stats);
        w.key("fault");
        match &self.fault {
            Some(f) => write_fault(&mut w, f),
            None => w.out.push_str("null"),
        }
        w.key("autoscale");
        match &self.autoscale {
            Some(a) => write_autoscale(&mut w, a),
            None => w.out.push_str("null"),
        }
        w.key("disagg");
        match &self.disagg {
            Some(d) => write_disagg(&mut w, d),
            None => w.out.push_str("null"),
        }
        w.obj_close();
        w.out
    }

    /// Parse a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when the text is
    /// not valid JSON, the schema id is wrong (a retired schema's error
    /// says to re-take the snapshot), or a field is missing or
    /// mistyped.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = get_str(&v, "schema")?;
        if schema != SCHEMA {
            return Err(if RETIRED_SCHEMAS.contains(&schema) {
                format!(
                    "snapshot schema {schema:?} is retired and cannot be resumed; \
                     re-take it as {SCHEMA:?}"
                )
            } else {
                format!("unsupported snapshot schema {schema:?} (expected {SCHEMA:?})")
            });
        }
        let fault = match get(&v, "fault")? {
            JsonValue::Null => None,
            f => Some(read_fault(f)?),
        };
        let autoscale = match get(&v, "autoscale")? {
            JsonValue::Null => None,
            a => Some(read_autoscale(a)?),
        };
        let disagg = match get(&v, "disagg")? {
            JsonValue::Null => None,
            d => Some(read_disagg(d)?),
        };
        Ok(ClusterSnapshot {
            taken_at_s: get_f64(&v, "taken_at_s")?,
            router: get_u64_array(&v, "router")?,
            stream: read_stream(get(&v, "stream")?)?,
            replicas: get_arr(&v, "replicas")?
                .iter()
                .map(read_replica)
                .collect::<Result<Vec<_>, _>>()?,
            stats: read_stats(get(&v, "stats")?)?,
            fault,
            autoscale,
            disagg,
        })
    }
}

// ---------------------------------------------------------------- //
// JSON writing: a minimal comma-tracking emitter. All u64 values are
// quoted decimal strings; all f64 values are quoted decimal strings
// of their to_bits pattern.

struct Writer {
    out: String,
    /// Whether the current container already holds an element.
    needs_comma: Vec<bool>,
}

impl Writer {
    fn new() -> Self {
        Self {
            out: String::new(),
            needs_comma: Vec::new(),
        }
    }

    fn sep(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    fn obj_open(&mut self) {
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn obj_close(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    fn arr_open(&mut self) {
        self.out.push('[');
        self.needs_comma.push(false);
    }

    fn arr_close(&mut self) {
        self.out.push(']');
        self.needs_comma.pop();
    }

    /// Start an array element (value written by the caller).
    fn item(&mut self) {
        self.sep();
    }

    /// Start an object field (value written by the caller).
    fn key(&mut self, name: &str) {
        self.sep();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
    }

    fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.u64_value(value);
    }

    fn u64_value(&mut self, value: u64) {
        self.out.push('"');
        self.out.push_str(&value.to_string());
        self.out.push('"');
    }

    fn f64_field(&mut self, name: &str, value: f64) {
        self.key(name);
        self.f64_value(value);
    }

    fn f64_value(&mut self, value: f64) {
        self.u64_value(value.to_bits());
    }

    fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn u64_array(&mut self, values: &[u64]) {
        self.arr_open();
        for &v in values {
            self.item();
            self.u64_value(v);
        }
        self.arr_close();
    }

    fn bool_array(&mut self, values: &[bool]) {
        self.arr_open();
        for &v in values {
            self.item();
            self.out.push_str(if v { "true" } else { "false" });
        }
        self.arr_close();
    }
}

fn write_request(w: &mut Writer, r: &Request) {
    w.obj_open();
    w.u64_field("id", r.id);
    w.f64_field("arrival_s", r.arrival_s);
    w.u64_field("input_len", r.input_len);
    w.u64_field("output_len", r.output_len);
    w.obj_close();
}

fn write_pending(w: &mut Writer, p: &PendingRequest) {
    w.obj_open();
    w.key("request");
    write_request(w, &p.request);
    w.u64_field("tier", p.tier as u64);
    w.u64_field("priority", u64::from(p.priority));
    w.f64_field("deadline_s", p.deadline_s);
    w.u64_field("conversation", p.conversation);
    w.u64_field("round", u64::from(p.round));
    w.u64_field("history_tokens", p.history_tokens);
    w.u64_field("skipped", p.skipped);
    w.obj_close();
}

fn write_pending_list(w: &mut Writer, list: &[PendingRequest]) {
    w.arr_open();
    for p in list {
        w.item();
        write_pending(w, p);
    }
    w.arr_close();
}

fn write_digest(w: &mut Writer, d: &DigestState) {
    w.obj_open();
    w.u64_field("count", d.count);
    w.f64_field("sum", d.sum);
    w.key("buckets");
    w.arr_open();
    for &(i, n, sum) in &d.buckets {
        w.item();
        w.arr_open();
        w.item();
        w.u64_value(i);
        w.item();
        w.u64_value(n);
        w.item();
        w.f64_value(sum);
        w.arr_close();
    }
    w.arr_close();
    w.obj_close();
}

fn write_stream(w: &mut Writer, s: &StreamState) {
    w.obj_open();
    w.key("source_rng");
    w.u64_array(&s.source_rng);
    w.u64_field("source_next_id", s.source_next_id);
    w.f64_field("source_clock", s.source_clock);
    w.bool_field("source_burst_on", s.source_burst_on);
    w.f64_field("source_phase_until", s.source_phase_until);
    w.key("rng");
    w.u64_array(&s.rng);
    w.u64_field("drawn", s.drawn);
    w.u64_field("next_id", s.next_id);
    w.key("peeked");
    match &s.peeked {
        Some(r) => write_request(w, r),
        None => w.out.push_str("null"),
    }
    w.key("followups");
    write_pending_list(w, &s.followups);
    w.obj_close();
}

fn write_stats(w: &mut Writer, s: &RecoveryStats) {
    w.obj_open();
    w.u64_field("faults_injected", s.faults_injected);
    w.u64_field("requests_lost", s.requests_lost);
    w.u64_field("retries_issued", s.retries_issued);
    w.u64_field("requests_dropped", s.requests_dropped);
    w.u64_field("kv_bytes_migrated", s.kv_bytes_migrated);
    w.u64_field("kv_migrations", s.kv_migrations);
    w.f64_field("migration_seconds", s.migration_seconds);
    w.u64_field("triggers_fired", s.triggers_fired);
    w.u64_field("requests_deferred", s.requests_deferred);
    w.obj_close();
}

fn write_fault(w: &mut Writer, f: &FaultState) {
    w.obj_open();
    w.key("events");
    w.arr_open();
    for &(at, seq, code, arg) in &f.events {
        w.item();
        w.u64_array(&[at, seq, code, arg]);
    }
    w.arr_close();
    w.u64_field("seq", f.seq);
    w.key("attempts");
    w.arr_open();
    for &(id, n) in &f.attempts {
        w.item();
        w.u64_array(&[id, n]);
    }
    w.arr_close();
    w.key("draining_down");
    w.arr_open();
    for &(replica, down, at) in &f.draining_down {
        w.item();
        w.u64_array(&[replica, down, at]);
    }
    w.arr_close();
    w.key("triggers");
    w.arr_open();
    for &(fires, armed_at) in &f.triggers {
        w.item();
        w.u64_array(&[fires, armed_at]);
    }
    w.arr_close();
    w.obj_close();
}

fn write_autoscale(w: &mut Writer, a: &AutoscaleState) {
    w.obj_open();
    w.key("events");
    w.arr_open();
    for &(at, seq, code, arg, lag) in &a.events {
        w.item();
        w.u64_array(&[at, seq, code, arg, lag]);
    }
    w.arr_close();
    w.u64_field("seq", a.seq);
    w.key("pool");
    w.bool_array(&a.pool);
    w.key("draining");
    w.bool_array(&a.draining);
    w.u64_field("up_streak", a.up_streak);
    w.u64_field("down_streak", a.down_streak);
    w.key("streak_start");
    match a.streak_start {
        Some(t) => w.f64_value(t),
        None => w.out.push_str("null"),
    }
    w.f64_field("cooldown_until", a.cooldown_until);
    w.u64_field("slo_met", a.last_slo.0);
    w.u64_field("slo_completed", a.last_slo.1);
    w.u64_field("scale_ups", a.scale_ups);
    w.u64_field("scale_downs", a.scale_downs);
    w.f64_field("scale_up_lag_s", a.scale_up_lag_s);
    w.obj_close();
}

fn write_disagg(w: &mut Writer, d: &DisaggState) {
    w.obj_open();
    w.key("assignments");
    w.arr_open();
    for &(id, decode, bytes) in &d.assignments {
        w.item();
        w.u64_array(&[id, decode, bytes]);
    }
    w.arr_close();
    w.u64_field("handoffs", d.handoffs);
    w.u64_field("kv_bytes_shipped", d.kv_bytes_shipped);
    w.f64_field("transfer_seconds", d.transfer_seconds);
    w.u64_field("reprefills", d.reprefills);
    w.obj_close();
}

fn write_replica(w: &mut Writer, r: &ReplicaState) {
    w.obj_open();
    w.key("inbox");
    write_pending_list(w, &r.inbox);
    w.key("pending");
    write_pending_list(w, &r.pending);
    w.key("active");
    w.arr_open();
    for a in &r.active {
        w.item();
        w.obj_open();
        w.key("pending");
        write_pending(w, &a.pending);
        w.u64_field("generated", a.generated);
        w.f64_field("first_token_s", a.first_token_s);
        w.obj_close();
    }
    w.arr_close();
    w.key("chunking");
    w.arr_open();
    for c in &r.chunking {
        w.item();
        w.obj_open();
        w.key("pending");
        write_pending(w, &c.pending);
        w.u64_field("history", c.history);
        w.u64_field("processed", c.processed);
        w.u64_field("prefill_total", c.prefill_total);
        w.key("resumed");
        match &c.resumed {
            Some(rc) => {
                w.obj_open();
                w.u64_field("generated", rc.generated);
                w.f64_field("first_token_s", rc.first_token_s);
                w.obj_close();
            }
            None => w.out.push_str("null"),
        }
        w.obj_close();
    }
    w.arr_close();
    w.key("paused");
    w.arr_open();
    for p in &r.paused {
        w.item();
        w.obj_open();
        w.key("pending");
        write_pending(w, &p.pending);
        w.u64_field("generated", p.generated);
        w.f64_field("first_token_s", p.first_token_s);
        w.u64_field("ctx", p.ctx);
        w.bool_field("swapped", p.swapped);
        w.f64_field("paused_at_s", p.paused_at_s);
        w.obj_close();
    }
    w.arr_close();
    w.key("mux");
    w.arr_open();
    for s in &r.mux {
        w.item();
        w.obj_open();
        w.u64_field("ctx", s.ctx);
        w.u64_field("generated", s.generated);
        w.u64_field("kv_bytes", s.kv_bytes);
        w.f64_field("quality", s.quality);
        w.key("members");
        w.arr_open();
        for m in &s.members {
            w.item();
            w.obj_open();
            w.key("pending");
            write_pending(w, &m.pending);
            w.u64_field("generated", m.generated);
            w.f64_field("first_token_s", m.first_token_s);
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
    }
    w.arr_close();
    w.key("preempt");
    w.obj_open();
    w.u64_field("preemptions", r.preempt.preemptions);
    w.u64_field("swaps", r.preempt.swaps);
    w.u64_field("recomputes", r.preempt.recomputes);
    w.u64_field("resumes", r.preempt.resumes);
    w.f64_field("swap_restore_seconds", r.preempt.swap_restore_seconds);
    w.f64_field("paused_time_s", r.preempt.paused_time_s);
    w.u64_field("mux_slots", r.preempt.mux_slots);
    w.u64_field("mux_tokens", r.preempt.mux_tokens);
    w.obj_close();
    w.key("parked");
    match &r.parked {
        Some(kv) => {
            w.obj_open();
            w.u64_field("clock", kv.clock);
            w.key("entries");
            w.arr_open();
            for e in &kv.entries {
                w.item();
                w.obj_open();
                w.u64_field("request", e.request);
                w.u64_field("pages", e.pages);
                w.u64_field("tokens", e.tokens);
                w.u64_field("last_touch", e.last_touch);
                w.bool_field("resident", e.resident);
                w.obj_close();
            }
            w.arr_close();
            w.obj_close();
        }
        None => w.out.push_str("null"),
    }
    w.u64_field("reserved", r.reserved);
    w.f64_field("clock", r.clock);
    w.bool_field("delta_fresh", r.delta_fresh);
    w.key("delta_retire");
    w.u64_array(&r.delta_retire);
    w.key("completed");
    w.arr_open();
    for rec in &r.completed {
        w.item();
        w.obj_open();
        w.key("request");
        write_request(w, &rec.request);
        w.f64_field("first_token_s", rec.first_token_s);
        w.f64_field("last_token_s", rec.last_token_s);
        w.u64_field("tokens", rec.tokens);
        w.obj_close();
    }
    w.arr_close();
    w.key("stages");
    w.arr_open();
    for s in &r.stages {
        w.item();
        w.obj_open();
        w.f64_field("seconds", s.seconds);
        w.bool_field("mixed", s.mixed);
        w.u64_field("batch", s.batch as u64);
        w.u64_field("tokens", s.tokens);
        w.obj_close();
    }
    w.arr_close();
    w.key("stage_stats");
    w.obj_open();
    w.u64_field("stages", r.stage_stats.stages);
    w.u64_field("mixed", r.stage_stats.mixed);
    w.u64_field("batch_sum", r.stage_stats.batch_sum);
    w.u64_field("token_sum", r.stage_stats.token_sum);
    w.obj_close();
    w.key("tbt_digest");
    write_digest(w, &r.tbt_digest);
    w.key("tiers");
    w.arr_open();
    for t in &r.tiers {
        w.item();
        w.obj_open();
        w.u64_field("completed", t.completed);
        w.u64_field("met", t.met);
        w.u64_field("good_tokens", t.good_tokens);
        w.key("tbt");
        write_digest(w, &t.tbt);
        w.obj_close();
    }
    w.arr_close();
    w.key("kv_reuse");
    w.obj_open();
    w.u64_field("reused_prefill_tokens", r.kv_reuse.reused_prefill_tokens);
    w.u64_field("prefilled_tokens", r.kv_reuse.prefilled_tokens);
    w.u64_field("parked_evictions", r.kv_reuse.parked_evictions);
    w.u64_field("reuse_hits", r.kv_reuse.reuse_hits);
    w.u64_field("reuse_misses", r.kv_reuse.reuse_misses);
    w.obj_close();
    w.bool_field("admitting", r.admitting);
    w.bool_field("draining", r.draining);
    w.f64_field("perf_factor", r.perf_factor);
    w.key("down_since");
    match r.down_since {
        Some(t) => w.f64_value(t),
        None => w.out.push_str("null"),
    }
    w.f64_field("down_seconds", r.down_seconds);
    w.key("timeline");
    w.arr_open();
    for &(bucket, tokens) in &r.timeline {
        w.item();
        w.u64_array(&[bucket, tokens]);
    }
    w.arr_close();
    w.key("window_counts");
    w.arr_open();
    for window in &r.window_counts {
        w.item();
        w.arr_open();
        for &(completed, met) in window {
            w.item();
            w.u64_array(&[completed, met]);
        }
        w.arr_close();
    }
    w.arr_close();
    w.key("batch");
    match &r.batch {
        Some(b) => {
            w.obj_open();
            w.key("decode_groups");
            w.arr_open();
            for &(ctx, reqs) in &b.decode_groups {
                w.item();
                w.arr_open();
                w.item();
                w.u64_value(ctx);
                w.item();
                w.u64_value(reqs);
                w.arr_close();
            }
            w.arr_close();
            w.key("pending_joins");
            w.u64_array(&b.pending_joins);
            w.key("rng");
            w.u64_array(&b.rng);
            w.obj_close();
        }
        None => w.out.push_str("null"),
    }
    w.obj_close();
}

// ---------------------------------------------------------------- //
// JSON reading: field-by-field decoding over `json::parse` output.

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn u64_of(v: &JsonValue, what: &str) -> Result<u64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what} is not a quoted integer"))?;
    s.parse::<u64>()
        .map_err(|e| format!("{what}: bad integer {s:?}: {e}"))
}

fn f64_of(v: &JsonValue, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(u64_of(v, what)?))
}

fn bool_of(v: &JsonValue, what: &str) -> Result<bool, String> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{what} is not a boolean")),
    }
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    u64_of(get(v, key)?, key)
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    f64_of(get(v, key)?, key)
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    bool_of(get(v, key)?, key)
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    get(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

fn get_u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    get_arr(v, key)?.iter().map(|x| u64_of(x, key)).collect()
}

/// Decode a fixed-width row of quoted u64s (`["1","2",...]`).
fn u64_row(v: &JsonValue, width: usize, what: &str) -> Result<Vec<u64>, String> {
    let row = v
        .as_array()
        .filter(|a| a.len() == width)
        .ok_or_else(|| format!("{what} is not a {width}-element array"))?;
    row.iter().map(|x| u64_of(x, what)).collect()
}

fn u64_pair(v: &JsonValue, what: &str) -> Result<(u64, u64), String> {
    let row = u64_row(v, 2, what)?;
    Ok((row[0], row[1]))
}

fn read_request(v: &JsonValue) -> Result<Request, String> {
    Ok(Request {
        id: get_u64(v, "id")?,
        arrival_s: get_f64(v, "arrival_s")?,
        input_len: get_u64(v, "input_len")?,
        output_len: get_u64(v, "output_len")?,
    })
}

fn read_pending(v: &JsonValue) -> Result<PendingRequest, String> {
    Ok(PendingRequest {
        request: read_request(get(v, "request")?)?,
        tier: get_u64(v, "tier")? as usize,
        priority: get_u64(v, "priority")? as u32,
        deadline_s: get_f64(v, "deadline_s")?,
        conversation: get_u64(v, "conversation")?,
        round: get_u64(v, "round")? as u32,
        history_tokens: get_u64(v, "history_tokens")?,
        skipped: get_u64(v, "skipped")?,
    })
}

fn read_pending_list(v: &JsonValue, key: &str) -> Result<Vec<PendingRequest>, String> {
    get_arr(v, key)?.iter().map(read_pending).collect()
}

fn read_digest(v: &JsonValue) -> Result<DigestState, String> {
    let buckets = get_arr(v, "buckets")?
        .iter()
        .map(|b| {
            let triple = b
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or("digest bucket is not a 3-element array")?;
            Ok((
                u64_of(&triple[0], "bucket index")?,
                u64_of(&triple[1], "bucket count")?,
                f64_of(&triple[2], "bucket sum")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(DigestState {
        buckets,
        count: get_u64(v, "count")?,
        sum: get_f64(v, "sum")?,
    })
}

fn read_stream(v: &JsonValue) -> Result<StreamState, String> {
    let peeked = match get(v, "peeked")? {
        JsonValue::Null => None,
        r => Some(read_request(r)?),
    };
    Ok(StreamState {
        source_rng: rng_words(v, "source_rng")?,
        source_next_id: get_u64(v, "source_next_id")?,
        source_clock: get_f64(v, "source_clock")?,
        source_burst_on: get_bool(v, "source_burst_on")?,
        source_phase_until: get_f64(v, "source_phase_until")?,
        rng: rng_words(v, "rng")?,
        drawn: get_u64(v, "drawn")?,
        next_id: get_u64(v, "next_id")?,
        peeked,
        followups: read_pending_list(v, "followups")?,
    })
}

fn rng_words(v: &JsonValue, key: &str) -> Result<[u64; 4], String> {
    let words = get_u64_array(v, key)?;
    words
        .try_into()
        .map_err(|_| format!("field {key:?} is not a 4-word RNG state"))
}

fn read_stats(v: &JsonValue) -> Result<RecoveryStats, String> {
    Ok(RecoveryStats {
        faults_injected: get_u64(v, "faults_injected")?,
        requests_lost: get_u64(v, "requests_lost")?,
        retries_issued: get_u64(v, "retries_issued")?,
        requests_dropped: get_u64(v, "requests_dropped")?,
        kv_bytes_migrated: get_u64(v, "kv_bytes_migrated")?,
        kv_migrations: get_u64(v, "kv_migrations")?,
        migration_seconds: get_f64(v, "migration_seconds")?,
        triggers_fired: get_u64(v, "triggers_fired")?,
        requests_deferred: get_u64(v, "requests_deferred")?,
    })
}

fn read_fault(v: &JsonValue) -> Result<FaultState, String> {
    let events = get_arr(v, "events")?
        .iter()
        .map(|e| {
            let row = u64_row(e, 4, "fault event")?;
            Ok((row[0], row[1], row[2], row[3]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let attempts = get_arr(v, "attempts")?
        .iter()
        .map(|a| u64_pair(a, "retry attempt"))
        .collect::<Result<Vec<_>, String>>()?;
    let draining_down = get_arr(v, "draining_down")?
        .iter()
        .map(|d| {
            let row = u64_row(d, 3, "drain state")?;
            Ok((row[0], row[1], row[2]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let triggers = get_arr(v, "triggers")?
        .iter()
        .map(|t| u64_pair(t, "trigger state"))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FaultState {
        events,
        seq: get_u64(v, "seq")?,
        attempts,
        draining_down,
        triggers,
    })
}

fn read_autoscale(v: &JsonValue) -> Result<AutoscaleState, String> {
    let events = get_arr(v, "events")?
        .iter()
        .map(|e| {
            let row = u64_row(e, 5, "scale event")?;
            Ok((row[0], row[1], row[2], row[3], row[4]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pool = get_arr(v, "pool")?
        .iter()
        .map(|b| bool_of(b, "pool membership"))
        .collect::<Result<Vec<_>, String>>()?;
    let draining = get_arr(v, "draining")?
        .iter()
        .map(|b| bool_of(b, "scale-down drain flag"))
        .collect::<Result<Vec<_>, String>>()?;
    let streak_start = match get(v, "streak_start")? {
        JsonValue::Null => None,
        t => Some(f64_of(t, "streak_start")?),
    };
    Ok(AutoscaleState {
        events,
        seq: get_u64(v, "seq")?,
        pool,
        draining,
        up_streak: get_u64(v, "up_streak")?,
        down_streak: get_u64(v, "down_streak")?,
        streak_start,
        cooldown_until: get_f64(v, "cooldown_until")?,
        last_slo: (get_u64(v, "slo_met")?, get_u64(v, "slo_completed")?),
        scale_ups: get_u64(v, "scale_ups")?,
        scale_downs: get_u64(v, "scale_downs")?,
        scale_up_lag_s: get_f64(v, "scale_up_lag_s")?,
    })
}

fn read_disagg(v: &JsonValue) -> Result<DisaggState, String> {
    let assignments = get_arr(v, "assignments")?
        .iter()
        .map(|a| {
            let row = u64_row(a, 3, "disagg assignment")?;
            Ok((row[0], row[1], row[2]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(DisaggState {
        assignments,
        handoffs: get_u64(v, "handoffs")?,
        kv_bytes_shipped: get_u64(v, "kv_bytes_shipped")?,
        transfer_seconds: get_f64(v, "transfer_seconds")?,
        reprefills: get_u64(v, "reprefills")?,
    })
}

fn read_replica(v: &JsonValue) -> Result<ReplicaState, String> {
    let active = get_arr(v, "active")?
        .iter()
        .map(|a| {
            Ok(ActiveState {
                pending: read_pending(get(a, "pending")?)?,
                generated: get_u64(a, "generated")?,
                first_token_s: get_f64(a, "first_token_s")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let chunking = get_arr(v, "chunking")?
        .iter()
        .map(|c| {
            Ok(ChunkingState {
                pending: read_pending(get(c, "pending")?)?,
                history: get_u64(c, "history")?,
                processed: get_u64(c, "processed")?,
                prefill_total: get_u64(c, "prefill_total")?,
                resumed: match get(c, "resumed")? {
                    JsonValue::Null => None,
                    rc => Some(ResumeState {
                        generated: get_u64(rc, "generated")?,
                        first_token_s: get_f64(rc, "first_token_s")?,
                    }),
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let paused = get_arr(v, "paused")?
        .iter()
        .map(|p| {
            Ok(PausedState {
                pending: read_pending(get(p, "pending")?)?,
                generated: get_u64(p, "generated")?,
                first_token_s: get_f64(p, "first_token_s")?,
                ctx: get_u64(p, "ctx")?,
                swapped: get_bool(p, "swapped")?,
                paused_at_s: get_f64(p, "paused_at_s")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mux = get_arr(v, "mux")?
        .iter()
        .map(|s| {
            let members = get_arr(s, "members")?
                .iter()
                .map(|m| {
                    Ok(MuxMemberState {
                        pending: read_pending(get(m, "pending")?)?,
                        generated: get_u64(m, "generated")?,
                        first_token_s: get_f64(m, "first_token_s")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(MuxState {
                ctx: get_u64(s, "ctx")?,
                generated: get_u64(s, "generated")?,
                kv_bytes: get_u64(s, "kv_bytes")?,
                quality: get_f64(s, "quality")?,
                members,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pp = get(v, "preempt")?;
    let preempt = PreemptStats {
        preemptions: get_u64(pp, "preemptions")?,
        swaps: get_u64(pp, "swaps")?,
        recomputes: get_u64(pp, "recomputes")?,
        resumes: get_u64(pp, "resumes")?,
        swap_restore_seconds: get_f64(pp, "swap_restore_seconds")?,
        paused_time_s: get_f64(pp, "paused_time_s")?,
        mux_slots: get_u64(pp, "mux_slots")?,
        mux_tokens: get_u64(pp, "mux_tokens")?,
    };
    let parked = match get(v, "parked")? {
        JsonValue::Null => None,
        kv => {
            let entries = get_arr(kv, "entries")?
                .iter()
                .map(|e| {
                    Ok(KvEntrySnapshot {
                        request: get_u64(e, "request")?,
                        pages: get_u64(e, "pages")?,
                        tokens: get_u64(e, "tokens")?,
                        last_touch: get_u64(e, "last_touch")?,
                        resident: get_bool(e, "resident")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Some(KvState {
                clock: get_u64(kv, "clock")?,
                entries,
            })
        }
    };
    let completed = get_arr(v, "completed")?
        .iter()
        .map(|r| {
            Ok(RequestRecord {
                request: read_request(get(r, "request")?)?,
                first_token_s: get_f64(r, "first_token_s")?,
                last_token_s: get_f64(r, "last_token_s")?,
                tokens: get_u64(r, "tokens")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stages = get_arr(v, "stages")?
        .iter()
        .map(|s| {
            Ok(StageRecord {
                seconds: get_f64(s, "seconds")?,
                mixed: get_bool(s, "mixed")?,
                batch: get_u64(s, "batch")? as usize,
                tokens: get_u64(s, "tokens")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let ss = get(v, "stage_stats")?;
    let stage_stats = StageStats {
        stages: get_u64(ss, "stages")?,
        mixed: get_u64(ss, "mixed")?,
        batch_sum: get_u64(ss, "batch_sum")?,
        token_sum: get_u64(ss, "token_sum")?,
    };
    let tiers = get_arr(v, "tiers")?
        .iter()
        .map(|t| {
            Ok(TierState {
                completed: get_u64(t, "completed")?,
                met: get_u64(t, "met")?,
                good_tokens: get_u64(t, "good_tokens")?,
                tbt: read_digest(get(t, "tbt")?)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let kvr = get(v, "kv_reuse")?;
    let kv_reuse = KvReuseStats {
        reused_prefill_tokens: get_u64(kvr, "reused_prefill_tokens")?,
        prefilled_tokens: get_u64(kvr, "prefilled_tokens")?,
        parked_evictions: get_u64(kvr, "parked_evictions")?,
        reuse_hits: get_u64(kvr, "reuse_hits")?,
        reuse_misses: get_u64(kvr, "reuse_misses")?,
    };
    let batch = match get(v, "batch")? {
        JsonValue::Null => None,
        b => {
            let decode_groups = get_arr(b, "decode_groups")?
                .iter()
                .map(|g| {
                    let pair = g
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or("decode group is not a 2-element array")?;
                    Ok((
                        u64_of(&pair[0], "group ctx")?,
                        u64_of(&pair[1], "group reqs")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Some(BatchCheckpoint {
                decode_groups,
                pending_joins: get_u64_array(b, "pending_joins")?,
                rng: rng_words(b, "rng")?,
            })
        }
    };
    let timeline = get_arr(v, "timeline")?
        .iter()
        .map(|p| u64_pair(p, "timeline entry"))
        .collect::<Result<Vec<_>, String>>()?;
    let window_counts = get_arr(v, "window_counts")?
        .iter()
        .map(|window| {
            window
                .as_array()
                .ok_or("a fault window's counts are not an array")?
                .iter()
                .map(|p| u64_pair(p, "window tier counts"))
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ReplicaState {
        inbox: read_pending_list(v, "inbox")?,
        pending: read_pending_list(v, "pending")?,
        active,
        chunking,
        paused,
        mux,
        preempt,
        parked,
        reserved: get_u64(v, "reserved")?,
        clock: get_f64(v, "clock")?,
        delta_fresh: get_bool(v, "delta_fresh")?,
        delta_retire: get_u64_array(v, "delta_retire")?,
        completed,
        stages,
        stage_stats,
        tbt_digest: read_digest(get(v, "tbt_digest")?)?,
        tiers,
        kv_reuse,
        admitting: get_bool(v, "admitting")?,
        draining: get_bool(v, "draining")?,
        perf_factor: get_f64(v, "perf_factor")?,
        down_since: match get(v, "down_since")? {
            JsonValue::Null => None,
            t => Some(f64_of(t, "down_since")?),
        },
        down_seconds: get_f64(v, "down_seconds")?,
        timeline,
        window_counts,
        batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(id: u64) -> PendingRequest {
        PendingRequest {
            request: Request {
                id,
                arrival_s: 1.25,
                input_len: 64,
                output_len: 16,
            },
            tier: 1,
            priority: 2,
            deadline_s: f64::INFINITY,
            conversation: id,
            round: 3,
            history_tokens: 48,
            skipped: 5,
        }
    }

    fn sample() -> ClusterSnapshot {
        ClusterSnapshot {
            taken_at_s: 12.5,
            router: vec![3],
            stream: StreamState {
                source_rng: [u64::MAX, 1, 2, 3],
                source_next_id: 7,
                source_clock: 0.1 + 0.2, // not exactly 0.3: bit-exactness probe
                source_burst_on: true,
                source_phase_until: 9.75,
                rng: [4, 5, 6, u64::MAX - 1],
                drawn: 7,
                next_id: 40,
                peeked: Some(Request {
                    id: 8,
                    arrival_s: 13.0,
                    input_len: 100,
                    output_len: 10,
                }),
                followups: vec![pending(30)],
            },
            replicas: vec![ReplicaState {
                inbox: vec![pending(31)],
                pending: vec![pending(32), pending(33)],
                active: vec![ActiveState {
                    pending: pending(34),
                    generated: 4,
                    first_token_s: 11.0,
                }],
                chunking: vec![ChunkingState {
                    pending: pending(35),
                    history: 16,
                    processed: 32,
                    prefill_total: 48,
                    resumed: Some(ResumeState {
                        generated: 6,
                        first_token_s: 10.75,
                    }),
                }],
                paused: vec![PausedState {
                    pending: pending(36),
                    generated: 5,
                    first_token_s: 11.5,
                    ctx: 69,
                    swapped: true,
                    paused_at_s: 12.0,
                }],
                mux: vec![MuxState {
                    ctx: 72,
                    generated: 2,
                    kv_bytes: 4096,
                    quality: 0.9,
                    members: vec![MuxMemberState {
                        pending: pending(37),
                        generated: 7,
                        first_token_s: 11.25,
                    }],
                }],
                preempt: PreemptStats {
                    preemptions: 3,
                    swaps: 2,
                    recomputes: 1,
                    resumes: 2,
                    swap_restore_seconds: 0.125,
                    paused_time_s: 0.5,
                    mux_slots: 1,
                    mux_tokens: 9,
                },
                parked: Some(KvState {
                    clock: 17,
                    entries: vec![KvEntrySnapshot {
                        request: 2,
                        pages: 5,
                        tokens: 70,
                        last_touch: 16,
                        resident: true,
                    }],
                }),
                reserved: 1024,
                clock: 12.25,
                delta_fresh: false,
                delta_retire: vec![80, 81],
                completed: vec![RequestRecord {
                    request: Request {
                        id: 1,
                        arrival_s: 0.5,
                        input_len: 64,
                        output_len: 16,
                    },
                    first_token_s: 1.0,
                    last_token_s: 2.0,
                    tokens: 16,
                }],
                stages: vec![StageRecord {
                    seconds: 0.01,
                    mixed: true,
                    batch: 3,
                    tokens: 67,
                }],
                stage_stats: StageStats {
                    stages: 10,
                    mixed: 2,
                    batch_sum: 30,
                    token_sum: 200,
                },
                tbt_digest: DigestState {
                    buckets: vec![(100, 5, 0.05)],
                    count: 5,
                    sum: 0.05,
                },
                tiers: vec![TierState {
                    completed: 3,
                    met: 2,
                    good_tokens: 32,
                    tbt: DigestState {
                        buckets: vec![],
                        count: 0,
                        sum: 0.0,
                    },
                }],
                kv_reuse: KvReuseStats {
                    reused_prefill_tokens: 100,
                    prefilled_tokens: 400,
                    parked_evictions: 1,
                    reuse_hits: 2,
                    reuse_misses: 1,
                },
                admitting: false,
                draining: true,
                perf_factor: 0.5,
                down_since: Some(10.5),
                down_seconds: 1.75,
                timeline: vec![(3, 40), (4, 12)],
                window_counts: vec![vec![(2, 1)]],
                batch: Some(BatchCheckpoint {
                    decode_groups: vec![(68, 1), (90, 2)],
                    pending_joins: vec![64],
                    rng: [9, 10, 11, 12],
                }),
            }],
            stats: RecoveryStats {
                faults_injected: 1,
                requests_lost: 4,
                retries_issued: 3,
                requests_dropped: 1,
                kv_bytes_migrated: 7 << 20,
                kv_migrations: 2,
                migration_seconds: 0.25e-3,
                triggers_fired: 1,
                requests_deferred: 6,
            },
            fault: Some(FaultState {
                events: vec![(4.5f64.to_bits(), 1, 1, 0), (6.0f64.to_bits(), 2, 2, 0)],
                seq: 3,
                attempts: vec![(31, 1), (40, 2)],
                draining_down: vec![(0, 1.5f64.to_bits(), 4.0f64.to_bits())],
                triggers: vec![(1, 9.5f64.to_bits())],
            }),
            autoscale: Some(AutoscaleState {
                events: vec![
                    (12.5f64.to_bits(), 4, 0, 0, 0),
                    (13.0f64.to_bits(), 5, 1, 0, 2.5f64.to_bits()),
                ],
                seq: 6,
                pool: vec![false],
                draining: vec![true],
                up_streak: 2,
                down_streak: 0,
                streak_start: Some(11.5),
                cooldown_until: 14.0,
                last_slo: (2, 3),
                scale_ups: 1,
                scale_downs: 1,
                scale_up_lag_s: 2.5,
            }),
            disagg: Some(DisaggState {
                assignments: vec![(35, 1, 4800), (42, 0, 6400)],
                handoffs: 9,
                kv_bytes_shipped: 3 << 20,
                transfer_seconds: 0.75e-3,
                reprefills: 1,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json();
        let back = ClusterSnapshot::from_json(&text).expect("parses");
        assert_eq!(back, snap);
        // Including the non-representable-in-decimal float and the
        // full-width RNG words.
        assert_eq!(
            back.stream.source_clock.to_bits(),
            (0.1 + 0.2_f64).to_bits()
        );
        assert_eq!(back.stream.source_rng[0], u64::MAX);
        assert_eq!(back.replicas[0].pending[0].deadline_s, f64::INFINITY);
    }

    #[test]
    fn from_json_rejects_other_schemas_and_garbage() {
        assert!(ClusterSnapshot::from_json("{}").is_err());
        assert!(ClusterSnapshot::from_json("not json").is_err());
        let wrong = r#"{"schema": "duplex-bench/cluster/v1"}"#;
        let err = ClusterSnapshot::from_json(wrong).expect_err("wrong schema");
        assert!(err.contains("schema"), "{err}");
        assert!(err.contains(SCHEMA), "names the expected schema: {err}");
    }

    #[test]
    fn from_json_explains_the_retired_v1_schema() {
        assert_retake_error(RETIRED_SCHEMAS[0]);
    }

    #[test]
    fn from_json_explains_the_retired_v2_schema() {
        assert_retake_error(RETIRED_SCHEMAS[1]);
    }

    #[test]
    fn from_json_explains_the_retired_v3_schema() {
        assert_retake_error(RETIRED_SCHEMAS[2]);
    }

    #[test]
    fn from_json_explains_the_retired_v4_schema() {
        assert_retake_error(RETIRED_SCHEMAS[3]);
    }

    /// Every retired schema gets the one "re-take" error, naming the
    /// schema it found and the current one.
    fn assert_retake_error(retired: &str) {
        let doc = format!(r#"{{"schema": "{retired}"}}"#);
        let err = ClusterSnapshot::from_json(&doc).expect_err("retired schema rejected");
        assert!(err.contains(retired), "names the schema it found: {err}");
        assert!(err.contains(SCHEMA), "names the current schema: {err}");
        assert!(err.contains("re-take"), "tells the user what to do: {err}");
    }

    #[test]
    fn corrupt_disagg_state_is_a_described_error_not_a_panic() {
        let full = sample().to_json();
        // Truncate a 3-element assignment triple to 2 elements.
        let text = full.replace("[\"35\",\"1\",\"4800\"]", "[\"35\",\"1\"]");
        assert_ne!(text, full, "the fixture assignment row was found");
        let err = ClusterSnapshot::from_json(&text).expect_err("bad assignment");
        assert!(err.contains("disagg assignment"), "{err}");
        // A non-integer handoff counter.
        let text = full.replace("\"handoffs\":\"9\"", "\"handoffs\":\"lots\"");
        assert_ne!(text, full);
        let err = ClusterSnapshot::from_json(&text).expect_err("bad counter");
        assert!(err.contains("handoffs"), "{err}");
    }

    #[test]
    fn missing_fields_name_the_culprit() {
        let mut snap = sample();
        snap.replicas.clear();
        let text = snap.to_json().replace("\"taken_at_s\"", "\"taken_at\"");
        let err = ClusterSnapshot::from_json(&text).expect_err("missing field");
        assert!(err.contains("taken_at_s"), "{err}");
    }

    #[test]
    fn corrupt_fault_state_is_a_described_error_not_a_panic() {
        let snap = sample();
        // Truncate a 4-element fault event row to 3 elements.
        let full = snap.to_json();
        let seq1 = format!("\"{}\",\"1\",\"1\",\"0\"", 4.5f64.to_bits());
        let cut = format!("\"{}\",\"1\",\"1\"", 4.5f64.to_bits());
        let text = full.replace(&seq1, &cut);
        assert_ne!(text, full, "the fixture event row was found");
        let err = ClusterSnapshot::from_json(&text).expect_err("bad event row");
        assert!(err.contains("fault event"), "{err}");
        // A timeline entry that is not a ["bucket","tokens"] pair.
        let text = full.replace("[\"3\",\"40\"]", "[\"3\"]");
        assert_ne!(text, full);
        let err = ClusterSnapshot::from_json(&text).expect_err("bad timeline");
        assert!(err.contains("timeline entry"), "{err}");
        // A non-integer recovery counter.
        let text = full.replace("\"requests_lost\":\"4\"", "\"requests_lost\":\"many\"");
        assert_ne!(text, full);
        let err = ClusterSnapshot::from_json(&text).expect_err("bad counter");
        assert!(err.contains("requests_lost"), "{err}");
    }

    #[test]
    fn a_faultless_snapshot_round_trips_with_null_fault_state() {
        let mut snap = sample();
        snap.fault = None;
        snap.autoscale = None;
        snap.disagg = None;
        snap.stats = RecoveryStats::default();
        let back = ClusterSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
        assert!(back.fault.is_none());
        assert!(back.autoscale.is_none());
        assert!(back.disagg.is_none());
    }
}

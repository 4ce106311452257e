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
//! per-replica down-time accounting, load-trigger arming (a retired
//! key, now always empty), and the
//! autoscale runtime (pending scale events, pool membership,
//! hysteresis streaks, scale counters). Version 4 extends v3 with
//! disaggregated-placement state: the admission-time decode
//! assignments of every request still prefilling, plus the fleet's
//! handoff/transfer counters. Version 5 extends v4 with preemption
//! state: per replica the paused requests, the multiplex slots and
//! the preemption counters, plus the recompute carry of a chunking
//! re-prefill. Older documents are rejected with a message naming
//! both versions rather than silently resuming without the newer
//! state.
//!
//! Each state type lists its JSON keys once, in wire order, in the
//! `wire!` declarations at the end of this module; that one list
//! drives both writing and reading, so a new field is declared in one
//! place. Exactness rules:
//!
//! * every integer is a quoted decimal `u64` string (RNG words use all
//!   64 bits, beyond `f64`'s integer range);
//! * every `f64` is a quoted decimal string of its IEEE-754 bit
//!   pattern (`f64::to_bits`), so infinities (untiered deadlines) and
//!   exact clock values round-trip without parsing loss;
//! * booleans are plain JSON booleans, and an absent value is `null`.

use std::collections::BTreeMap;

use crate::fault::RecoveryStats;
use crate::json::{self, JsonValue};
use crate::metrics::{KvReuseStats, StageRecord, StageStats};
use crate::preempt::PreemptStats;
use crate::request::{Request, RequestRecord};
use crate::scenario::{
    ChunkingRequest, MuxMember, MuxSlot, PausedRequest, PendingRequest, ResumeCarry,
};
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

/// One decoding request's state. The runtime keeps a stage stamp
/// instead of `generated`, so this is the one in-flight request type
/// with a snapshot form of its own.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveState {
    pub(crate) pending: PendingRequest,
    pub(crate) generated: u64,
    pub(crate) first_token_s: f64,
}

/// A parked-KV pool's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KvState {
    pub(crate) clock: u64,
    pub(crate) entries: Vec<KvEntrySnapshot>,
}

/// A latency digest's population: sparse nonzero buckets as
/// `(index, count, sum)` plus the record-order global count and sum
/// (the sum is not bit-recomputable from the buckets).
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
    pub(crate) chunking: Vec<ChunkingRequest>,
    /// Preempted requests awaiting resume, in pause (FIFO) order.
    pub(crate) paused: Vec<PausedRequest>,
    /// Live multiplex slots (shared decode rows).
    pub(crate) mux: Vec<MuxSlot>,
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
    /// Every request the replica carries: queued, decoding, chunking,
    /// paused and multiplexed.
    pub(crate) fn carried(&self) -> impl Iterator<Item = &PendingRequest> {
        let members = self.mux.iter().flat_map(|slot| &slot.members);
        self.inbox
            .iter()
            .chain(&self.pending)
            .chain(self.active.iter().map(|a| &a.pending))
            .chain(self.chunking.iter().map(|c| &c.pending))
            .chain(self.paused.iter().map(|p| &p.pending))
            .chain(members.map(|m| &m.pending))
    }

    /// Whether this replica would start a stage at its clock: it has
    /// work in flight or waiting, under a stage cap of `max_stages`
    /// (the state behind `ReplicaSim::next_start` answering the clock).
    pub(crate) fn would_start(&self, max_stages: usize) -> bool {
        let work = !(self.active.is_empty()
            && self.chunking.is_empty()
            && self.paused.is_empty()
            && self.mux.is_empty()
            && self.pending.is_empty());
        work && (self.stage_stats.stages as usize) < max_stages
    }

    /// Every per-request time the replica carries, with its request and
    /// what it is: inbox arrivals, pause times, and the first-token
    /// times of decoding, paused, recomputing and multiplexed requests.
    pub(crate) fn carried_times(&self) -> impl Iterator<Item = (&PendingRequest, &str, f64)> {
        let members = self.mux.iter().flat_map(|slot| &slot.members);
        let carries = self
            .chunking
            .iter()
            .filter_map(|c| Some((&c.pending, c.resumed?.first_token_s)));
        let first_tokens = self
            .active
            .iter()
            .map(|a| (&a.pending, a.first_token_s))
            .chain(self.paused.iter().map(|p| (&p.pending, p.first_token_s)))
            .chain(carries)
            .chain(members.map(|m| (&m.pending, m.first_token_s)));
        let arrivals = self
            .inbox
            .iter()
            .map(|p| (p, "arrival", p.request.arrival_s));
        let pauses = self
            .paused
            .iter()
            .map(|p| (&p.pending, "pause", p.paused_at_s));
        arrivals
            .chain(pauses)
            .chain(first_tokens.map(|(p, t)| (p, "first token", t)))
    }

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
/// 0 = apply scripted fault, 1 = restart, 2 = clear warm-up), the
/// event sequence counter, per-request retry attempts, and in-progress
/// drains as `(replica, down_s bits, fault at_s bits)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultState {
    pub(crate) events: Vec<(u64, u64, u64, u64)>,
    pub(crate) seq: u64,
    pub(crate) attempts: Vec<(u64, u64)>,
    pub(crate) draining_down: Vec<(u64, u64, u64)>,
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
    pub(crate) up_streak: u32,
    pub(crate) down_streak: u32,
    /// First evaluation time of the running up-streak (`None` between
    /// streaks).
    pub(crate) streak_start: Option<f64>,
    pub(crate) cooldown_until: f64,
    /// Interactive-tier met and completed totals at the last
    /// evaluation — the window delta baseline.
    pub(crate) slo_met: u64,
    pub(crate) slo_completed: u64,
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
        let mut doc = self.put();
        if let JsonValue::Obj(members) = &mut doc {
            members.insert(0, ("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned())));
        }
        json::emit(&doc)
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
        let Some(schema) = v.get("schema").and_then(JsonValue::as_str) else {
            return Err("missing or non-string field \"schema\"".into());
        };
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
        Self::take(&v, "snapshot")
    }
}

// ---------------------------------------------------------------- //
// The wire codec: one `Wire` form per leaf value, and one field list
// per state type that drives both directions.

/// A value's JSON wire form. `what` names the value in errors: its
/// key, or the label of the fixed-width row it belongs to.
trait Wire: Sized {
    fn put(&self) -> JsonValue;
    fn take(v: &JsonValue, what: &str) -> Result<Self, String>;
}

impl Wire for u64 {
    fn put(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{what} is not a quoted integer"))?;
        s.parse()
            .map_err(|e| format!("{what}: bad integer {s:?}: {e}"))
    }
}

/// Narrower integers travel as `u64` and must fit on the way back.
macro_rules! narrow_wire {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self) -> JsonValue {
                (*self as u64).put()
            }

            fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
                <$t>::try_from(u64::take(v, what)?).map_err(|e| format!("{what}: {e}"))
            }
        }
    )+};
}

narrow_wire!(u32, usize);

impl Wire for f64 {
    fn put(&self) -> JsonValue {
        self.to_bits().put()
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        u64::take(v, what).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn put(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("{what} is not a boolean")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::put)
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::take(v, what).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::put).collect())
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("field {what:?} is not an array"))?
            .iter()
            .map(|x| T::take(x, what))
            .collect()
    }
}

impl Wire for [u64; 4] {
    fn put(&self) -> JsonValue {
        self.to_vec().put()
    }

    fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
        Vec::<u64>::take(v, what)?
            .try_into()
            .map_err(|_| format!("field {what:?} is not a 4-word RNG state"))
    }
}

/// Tuples are fixed-width rows: `[a, b, ...]`.
macro_rules! row_wire {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self) -> JsonValue {
                JsonValue::Arr(vec![$(self.$i.put()),+])
            }

            fn take(v: &JsonValue, what: &str) -> Result<Self, String> {
                let row = v
                    .as_array()
                    .filter(|row| row.len() == $n)
                    .ok_or_else(|| format!("{what} is not a {}-element array", $n))?;
                Ok(($($t::take(&row[$i], what)?,)+))
            }
        }
    };
}

row_wire!(2: A 0, B 1);
row_wire!(3: A 0, B 1, C 2);
row_wire!(4: A 0, B 1, C 2, D 3);
row_wire!(5: A 0, B 1, C 2, D 3, E 4);

/// Read the member `key` of object `v`.
fn field<T: Wire>(v: &JsonValue, key: &str, what: &str) -> Result<T, String> {
    T::take(
        v.get(key).ok_or_else(|| format!("missing field {key:?}"))?,
        what,
    )
}

/// Read the retired member `key` of object `v`, which must still hold
/// its type's default.
fn retired<T: Wire + Default + PartialEq>(
    v: &JsonValue,
    key: &str,
    what: &str,
) -> Result<(), String> {
    if field::<T>(v, key, what)? == T::default() {
        Ok(())
    } else {
        Err(format!(
            "field {key:?} is retired and must be zero or empty"
        ))
    }
}

/// Declare each state type's wire fields once, in wire order: the key
/// is the field name, and `as "label"` names a row field's elements
/// in errors. The keys after `; retired` belong to removed features and
/// have no field: each is written as its type's default, so the bytes
/// do not change, and read back only while it holds that default.
macro_rules! wire {
    ($($ty:ident {
        $($f:ident $(as $label:literal)?),+ $(,)?
        $(; retired $($r:ident $(as $rlabel:literal)?: $rt:ty),+ $(,)?)?
    })+) => {$(
        impl Wire for $ty {
            fn put(&self) -> JsonValue {
                JsonValue::Obj(vec![
                    $((stringify!($f).to_owned(), self.$f.put()),)+
                    $($((stringify!($r).to_owned(), <$rt>::default().put()),)+)?
                ])
            }

            fn take(v: &JsonValue, _: &str) -> Result<Self, String> {
                let value = $ty {
                    $($f: field(v, stringify!($f), [$($label,)? stringify!($f)][0])?,)+
                };
                $($(retired::<$rt>(v, stringify!($r), [$($rlabel,)? stringify!($r)][0])?;)+)?
                Ok(value)
            }
        }
    )+};
}

wire! {
    Request { id, arrival_s, input_len, output_len }
    PendingRequest {
        request, tier, priority, deadline_s, conversation, round, history_tokens, skipped,
    }
    RequestRecord { request, first_token_s, last_token_s, tokens }
    StreamState {
        source_rng, source_next_id, source_clock, source_burst_on, source_phase_until, rng,
        drawn, next_id, peeked, followups,
    }
    DigestState { count, sum, buckets as "digest bucket" }
    TierState { completed, met, good_tokens, tbt }
    ActiveState { pending, generated, first_token_s }
    ChunkingRequest { pending, history, processed, prefill_total, resumed }
    ResumeCarry { generated, first_token_s }
    PausedRequest { pending, generated, first_token_s, ctx, swapped, paused_at_s }
    MuxSlot { ctx, generated, kv_bytes, quality, members }
    MuxMember { pending, generated, first_token_s }
    PreemptStats {
        preemptions, swaps, recomputes, resumes, swap_restore_seconds, paused_time_s,
        mux_slots, mux_tokens,
    }
    KvState { clock, entries }
    KvEntrySnapshot { request, pages, tokens, last_touch, resident }
    StageRecord { seconds, mixed, batch, tokens }
    StageStats { stages, mixed, batch_sum, token_sum }
    KvReuseStats {
        reused_prefill_tokens, prefilled_tokens, parked_evictions, reuse_hits, reuse_misses,
    }
    BatchCheckpoint { decode_groups as "decode group", pending_joins, rng }
    ReplicaState {
        inbox, pending, active, chunking, paused, mux, preempt, parked, reserved, clock,
        delta_fresh, delta_retire, completed, stages, stage_stats, tbt_digest, tiers, kv_reuse,
        admitting, draining, perf_factor, down_since, down_seconds,
        timeline as "timeline entry", window_counts as "window tier counts", batch,
    }
    RecoveryStats {
        faults_injected, requests_lost, retries_issued, requests_dropped, kv_bytes_migrated,
        kv_migrations, migration_seconds;
        retired triggers_fired: u64, requests_deferred: u64,
    }
    FaultState {
        events as "fault event", seq, attempts as "retry attempt",
        draining_down as "drain state";
        retired triggers as "trigger state": Vec<(u64, u64)>,
    }
    AutoscaleState {
        events as "scale event", seq, pool, draining, up_streak, down_streak, streak_start,
        cooldown_until, slo_met, slo_completed, scale_ups, scale_downs, scale_up_lag_s,
    }
    DisaggState {
        assignments as "disagg assignment", handoffs, kv_bytes_shipped, transfer_seconds,
        reprefills,
    }
    ClusterSnapshot { taken_at_s, router, stream, replicas, stats, fault, autoscale, disagg }
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
                chunking: vec![ChunkingRequest {
                    pending: pending(35),
                    history: 16,
                    processed: 32,
                    prefill_total: 48,
                    resumed: Some(ResumeCarry {
                        generated: 6,
                        first_token_s: 10.75,
                    }),
                }],
                paused: vec![PausedRequest {
                    pending: pending(36),
                    generated: 5,
                    first_token_s: 11.5,
                    ctx: 69,
                    swapped: true,
                    paused_at_s: 12.0,
                }],
                mux: vec![MuxSlot {
                    ctx: 72,
                    generated: 2,
                    kv_bytes: 4096,
                    quality: 0.9,
                    members: vec![MuxMember {
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
            },
            fault: Some(FaultState {
                events: vec![(4.5f64.to_bits(), 1, 1, 0), (6.0f64.to_bits(), 2, 2, 0)],
                seq: 3,
                attempts: vec![(31, 1), (40, 2)],
                draining_down: vec![(0, 1.5f64.to_bits(), 4.0f64.to_bits())],
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
                slo_met: 2,
                slo_completed: 3,
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
        // Every key the full fixture writes is required: renaming its
        // first occurrence is an error that names it.
        fn keys(v: &JsonValue, out: &mut Vec<String>) {
            match v {
                JsonValue::Obj(members) => {
                    for (k, item) in members {
                        if !out.contains(k) {
                            out.push(k.clone());
                        }
                        keys(item, out);
                    }
                }
                JsonValue::Arr(items) => items.iter().for_each(|item| keys(item, out)),
                _ => {}
            }
        }
        let full = sample().to_json();
        let mut all = Vec::new();
        keys(&json::parse(&full).expect("parses"), &mut all);
        assert!(all.len() > 100, "{} keys", all.len());
        for key in all {
            let quoted = format!("\"{key}\"");
            let at = full
                .find(&format!("{quoted}:"))
                .expect("the key is written");
            let text = format!("{}\"{key}_\"{}", &full[..at], &full[at + quoted.len()..]);
            let err = ClusterSnapshot::from_json(&text).expect_err(&key);
            assert!(err.contains(&quoted), "{key}: {err}");
        }
    }

    #[test]
    fn sample_snapshot_bytes_are_pinned() {
        // The fixture fills every optional and preemption-only field
        // (paused requests, multiplex slots, a recompute carry, the
        // streak start, an outage, an executor checkpoint), so this
        // pins the place of every key in the v5 wire format.
        let text = sample().to_json();
        assert_eq!(
            (crate::fnv1a64(text.as_bytes()), text.len()),
            (0xe874_61af_b9f6_24bf, 5_174)
        );
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

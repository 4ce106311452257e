//! Continuous-batching serving scheduler for the Duplex simulator.
//!
//! This crate is the "serving scheduler" half of the paper's simulator
//! (Sec. VI): it owns requests, forms stages, and collects latency
//! metrics, while delegating "how long does this stage take" to a
//! [`StageExecutor`] implemented by the system crate.
//!
//! * [`request`] — requests and per-request completion records
//!   (T2FT, TBT, E2E as defined in Sec. II-C / Fig. 2).
//! * [`workload`] — Gaussian (Lin, Lout) sampling, closed-loop refill
//!   and open-loop Poisson arrivals, exactly the synthetic setup of
//!   Sec. VI.
//! * [`scheduler`] — stage-level continuous batching: every ongoing
//!   request advances one token per stage; new requests join as
//!   prefills when the batch and the KV-cache budget allow, making the
//!   stage *mixed*; otherwise the stage is *decoding-only*. Holds the
//!   executor contract and the paper's single-system [`Simulation`],
//!   which runs on the scenario scheduler's batching loop and feeds it
//!   lazily: a request leaves the stream only once a batch slot is
//!   free.
//! * [`delta`] — the incremental stage contract: each stage is also
//!   announced as a [`StageDelta`] (advance + admissions +
//!   retirements), letting executors that carry batch state price
//!   pure-decode stages in O(changes) instead of O(batch).
//! * [`metrics`] — percentile summaries, streaming latency digests,
//!   SLO attainment / goodput counters and the simulation report.
//! * [`scenario`] — the scenario scheduler: SLO tiers, policy-driven
//!   admission, and multi-turn conversations with reuse-aware KV
//!   accounting through `duplex_model::kv_cache`. A scenario runs on a
//!   [`ClusterSimulation`]; one system is a one-replica fleet.
//! * [`policy`] — pluggable admission policies (FCFS,
//!   shortest-prompt-first, priority tiers with SLO deadlines, and
//!   the batch-tier load-shedding wrapper).
//! * [`preempt`] — preemptive scheduling: a [`PreemptionPolicy`]
//!   pauses batch-tier decodes mid-flight when interactive work would
//!   otherwise wait, choosing per victim between priced KV swap-out
//!   and recompute-on-resume, and optionally multiplexes compatible
//!   paused requests into shared batch slots (fractional slots at a
//!   quality exchange rate). The full admission/preemption stack is
//!   documented in `docs/scheduling.md`.
//! * [`cluster`] / [`router`] — multi-replica serving: a fleet of
//!   independent replicas on one shared virtual clock behind a
//!   pluggable request router (round-robin, least-outstanding-work,
//!   session affinity, migration-aware affinity), with per-replica and
//!   merged fleet reports. Routers place requests in two dimensions
//!   ([`router::Placement`]): a [`cluster::DisaggPlan`] splits the
//!   fleet into dedicated prefill and decode pools with priced KV
//!   handoffs between them, and colocated serving is the degenerate
//!   `prefill == decode` case (see `docs/placement-api.md`).
//! * [`fault`] — deterministic fault injection for cluster runs:
//!   scripted crashes and drains, retry/reroute of lost requests,
//!   priced cross-replica KV migration, and recovery metrics.
//! * [`autoscale`] — elastic fleets: an [`AutoscalePolicy`] watches
//!   windowed queue pressure, decode occupancy and SLO attainment at
//!   the cluster's clock-merge points and provisions standby replicas
//!   (warm-up + priced parked-KV steal) or drains surplus ones back
//!   into the pool, deterministically.
//! * [`trace`] / [`json`] — arrival-trace files replayed through
//!   [`Arrivals::Trace`], and the minimal JSON reader behind them.
//!
//! # Example
//!
//! Run a toy simulation where every stage takes a fixed 10 ms:
//!
//! ```
//! use duplex_model::ops::StageShape;
//! use duplex_sched::{Simulation, SimulationConfig, StageExecutor, StageOutcome, Workload};
//!
//! struct Fixed;
//! impl StageExecutor for Fixed {
//!     fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
//!         StageOutcome { seconds: 0.010 }
//!     }
//! }
//!
//! let config = SimulationConfig {
//!     max_batch: 8,
//!     kv_capacity_bytes: u64::MAX,
//!     kv_bytes_per_token: 1,
//!     ..SimulationConfig::default()
//! };
//! let workload = Workload::fixed(128, 32).with_seed(1);
//! let report = Simulation::closed_loop(config, workload, 16).run(&mut Fixed);
//! assert_eq!(report.completed.len(), 16);
//! assert!(report.throughput_tokens_per_s() > 0.0);
//! ```
//!
//! # Construction pattern
//!
//! The public configuration structs ([`Scenario`], [`ReplicaConfig`],
//! the core crate's `ClusterSpec`, …) are `#[non_exhaustive]`: build
//! them with their `new` constructor plus `with_*` builder methods
//! (`Scenario::new(..).with_tiers(..)`,
//! `ReplicaConfig::new(..).with_weight(..)`), never with struct
//! literals. New fields then extend the API without breaking
//! downstream construction sites — every pre-9 PR listed "struct
//! literals" as a breaking change; the builders end that.

pub mod autoscale;
pub mod cluster;
pub mod delta;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod policy;
pub mod preempt;
pub mod request;
pub mod router;
pub mod scenario;
pub mod scheduler;
pub mod snapshot;
pub mod trace;
pub mod workload;

pub use autoscale::{AutoscalePolicy, ScaleStats};
pub use cluster::{
    ClusterConfig, ClusterReport, ClusterRun, ClusterSimulation, DisaggPlan, DisaggStats,
    ReplicaConfig,
};
pub use delta::StageDelta;
pub use fault::{
    FaultEvent, FaultKind, FaultOutcome, FaultPlan, FaultWindowStats, KvLinkSpec, RecoveryStats,
    RetryPolicy,
};
pub use metrics::{
    KvReuseStats, LatencyDigest, LatencySummary, SimReport, SloStats, StageRecord, StageStats,
    TierStats,
};
pub use policy::{
    Fcfs, PolicyContext, PolicyKind, PriorityTiers, SchedulingPolicy, ShedBatchTier,
    ShortestPromptFirst,
};
pub use preempt::{MultiplexSpec, PreemptMode, PreemptSpec, PreemptStats, PreemptionPolicy};
pub use request::{Request, RequestRecord};
pub use router::{
    AffinityCore, ClusterContext, KvMigration, LeastOutstandingWork, Placement, PoolRole,
    PoolTarget, ReplicaSnapshot, RoundRobin, RouteDecision, Router, RouterKind, SessionAffinity,
};
pub use scenario::{AdaptiveChunk, ConversationSpec, PendingRequest, Scenario, SloTier};
pub use scheduler::{BatchCheckpoint, Simulation, SimulationConfig, StageExecutor, StageOutcome};
pub use snapshot::ClusterSnapshot;
pub use trace::TraceRequest;
pub use workload::{Arrivals, RequestSource, Workload};

/// `count` seeded hostile strings for the text loaders: even cases are
/// up to 64 random bytes, half drawn from JSON punctuation, literals
/// and digits so the parser gets past the first byte; odd cases are one
/// of `valid` with one to four byte edits (overwrite, insert, delete,
/// truncate). Invalid UTF-8 is replaced, as a file read lossily would.
#[cfg(test)]
pub(crate) fn hostile_strings(valid: &[&str], count: usize, seed: u64) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsnul\\/\n\t";
    let mut rng = StdRng::seed_from_u64(seed);
    let mut below = |n: usize| rng.random_below(n as u64) as usize;
    (0..count)
        .map(|i| {
            let bytes = if i % 2 == 0 {
                let len = below(65);
                (0..len)
                    .map(|_| match below(2) {
                        0 => JSONISH[below(JSONISH.len())],
                        _ => below(256) as u8,
                    })
                    .collect()
            } else {
                let mut doc = valid[below(valid.len())].as_bytes().to_vec();
                for _ in 0..=below(4) {
                    let at = below(doc.len() + 1);
                    match below(4) {
                        0 if at < doc.len() => doc[at] = below(256) as u8,
                        1 => doc.insert(at, JSONISH[below(JSONISH.len())]),
                        2 if at < doc.len() => drop(doc.remove(at)),
                        _ => doc.truncate(at.max(doc.len() / 2)),
                    }
                }
                doc
            };
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

/// FNV-1a, 64-bit: the hash behind the byte and stream pins.
#[cfg(test)]
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

//! Multi-replica cluster serving: N independent replicas — each its
//! own continuous-batching scheduler, KV cache and executor — behind a
//! pluggable [`Router`], multiplexed on one shared virtual clock.
//!
//! A [`ClusterSimulation`] scales the scenario scheduler
//! ([`crate::scenario`]) from one serving instance to a fleet:
//!
//! * **one global arrival stream** — the scenario's arrival process,
//!   tier draws and multi-turn follow-up spawning stay global (a
//!   conversation's next round can land on any replica), so seeded
//!   determinism is preserved: the RNG draw order is fixed by the
//!   global event order alone;
//! * **a [`Router`] decides placement** — every arriving request is
//!   routed exactly once, at its arrival time, against per-replica
//!   [`ReplicaSnapshot`]s (queue depth, outstanding tokens, KV
//!   residency of the request's conversation). Session-affinity
//!   routing is what lets multi-turn KV reuse survive behind the load
//!   balancer;
//! * **replicas run asynchronously on a shared virtual clock** — the
//!   driver alternates *dispatch* phases (route every arrival due by
//!   the fleet's next stage start) with *window* phases (each replica
//!   independently steps up to the next global synchronization point);
//!   replicas may be heterogeneous (different [`SimulationConfig`]s,
//!   different executors, different capacity
//!   [`ReplicaConfig::weight`]s);
//! * **reports merge losslessly** — per-replica [`SimReport`]s plus a
//!   fleet view built with the metrics `merge` APIs
//!   ([`crate::LatencyDigest::merge`] and friends): fleet percentiles
//!   are the percentiles of the concatenated per-replica populations,
//!   not an average of averages.
//!
//! A one-replica cluster is how a scenario runs on a single system: its
//! router has nothing to choose, so every router gives the same report
//! to the bit (the cross-crate proptests pin this), and an FCFS
//! one-replica run equals the lazily fed [`crate::Simulation`].
//!
//! # The clock-merge protocol
//!
//! Between synchronization points, replicas share **nothing**: a
//! `ReplicaSim` step touches only replica-local
//! state, and every action that would touch shared state (the arrival
//! stream's RNG, follow-up queue, or the replica's parked-KV pool
//! whose occupancy those actions change) is buffered as an ordered
//! `RetireEvent`. A window runs each replica in turn, in index order,
//! until its next stage would start at or after the **window bound**
//! — the next global arrival time, or the next fault or scale event —
//! or until a step buffers events; the driver then applies every
//! replica's buffered events against the shared stream *in
//! replica-index order*.
//!
//! These merge points are the only instants at which the whole fleet
//! stands at one consistent virtual time, so every fleet-level
//! mechanism acts there and nowhere else: routing places arrivals
//! against per-replica snapshots taken at the merge point, scripted
//! faults ([`FaultPlan`]) land there, the autoscaler
//! ([`AutoscalePolicy`]) evaluates and provisions there, disaggregated
//! prefill→decode handoffs are delivered there, and a
//! [`ClusterSnapshot`] captures one, so a resumed run replays the same
//! RNG draws, routing decisions and reports to the bit. With the merge
//! order fixed, a run is a pure function of its configuration and
//! seed.
//!
//! **Control-plane events.** The fault plan and the autoscaler share one
//! control plane with one queue of timed events (scripted faults,
//! restarts, warm-up clears, evaluation ticks, joins) and one schedule
//! counter. The earliest event, by virtual time and then by schedule
//! order whatever its kind, is due once no stage starts and no arrival
//! routes before it; a fully-down fleet's held arrivals do not block. At
//! a merge point the plane applies the earliest due event; when none is
//! due it completes the lowest-index drain whose batch has emptied, as
//! the drain's owner directs (a fault drain schedules its restart, a
//! scale-down parks the replica in the standby pool); it stops when
//! neither is left. The earliest pending event also ends the next
//! window. A fault on a replica parked in the standby pool or
//! provisioning toward a join only counts as injected. The latest drain
//! to begin on a replica owns it: a drain fault on a replica the
//! autoscaler is scaling down takes the drain over, so the replica
//! restarts instead of returning to the pool and no scale-down counts.
//! A crash ends any drain; the restarted replica serves again and
//! counts in the autoscaler's signals. A snapshot writes the queue
//! split by kind into its fault and autoscale sections, each with the
//! shared counter, along with the retry, drain and pool state and the
//! pending disaggregation assignments.
//!
//! # The fleet KV link
//!
//! A fleet has one KV interconnect, a [`KvLinkSpec`] set with
//! [`ClusterSimulation::with_kv_link`] ([`KvLinkSpec::default`] when
//! unset). Every cross-replica KV move is priced over it, charged to
//! the receiving replica's clock: router-requested migrations, fault
//! drain and autoscale scale-down handoffs, autoscale-join steals and
//! disaggregated prefill→decode handoffs. A migration-aware router
//! should be built against the same link.
//!
//! # Disaggregated prefill/decode pools
//!
//! [`ClusterSimulation::with_disagg`] partitions the fleet into a
//! prefill pool and a decode pool (see [`DisaggPlan`] and
//! `docs/placement-api.md`). Arrivals are then placed in two
//! dimensions at once via [`Router::place`]: a prefill replica runs
//! the prompt (chunked or whole, minus its final token) and buffers a
//! handoff event when it finishes; the
//! cluster delivers the handoff at the next merge point, pricing the
//! KV transfer over the fleet KV link against the decode
//! replica chosen at *admission* time, where the request joins the
//! decode batch through the ordinary reuse-admission path (a one-token
//! prefill above the shipped context). Handoffs are buffered
//! replica-locally exactly like retire events and applied at the merge
//! point in replica-index order. Colocated mode (no plan) is the
//! degenerate case and is byte-identical to the pre-pool behavior.
//!
//! # Example
//!
//! Four fixed-latency replicas behind least-outstanding-work routing:
//!
//! ```
//! use duplex_model::ops::StageShape;
//! use duplex_sched::cluster::{ClusterSimulation, ReplicaConfig};
//! use duplex_sched::router::LeastOutstandingWork;
//! use duplex_sched::{
//!     Arrivals, PolicyKind, Scenario, SimulationConfig, StageExecutor, StageOutcome, Workload,
//! };
//!
//! struct Fixed;
//! impl StageExecutor for Fixed {
//!     fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
//!         StageOutcome { seconds: 0.010 }
//!     }
//! }
//!
//! let config = SimulationConfig { max_batch: 4, ..SimulationConfig::default() };
//! let scenario = Scenario::new(
//!     "fleet",
//!     Workload::fixed(64, 8).with_seed(7),
//!     Arrivals::Poisson { qps: 400.0 },
//!     32,
//! );
//! let cluster = ClusterSimulation::new(vec![ReplicaConfig::new(config); 4], scenario);
//! let mut policies: Vec<_> = (0..4).map(|_| PolicyKind::Fcfs.build()).collect();
//! let mut executors = vec![Fixed, Fixed, Fixed, Fixed];
//! let report = cluster.run(&mut LeastOutstandingWork, &mut policies, &mut executors);
//! assert_eq!(report.completed(), 32);
//! assert!(report.replicas.iter().filter(|r| !r.completed.is_empty()).count() > 1);
//! ```

use crate::autoscale::{AutoscalePolicy, ScaleStats};
use crate::fault::{
    FaultKind, FaultOutcome, FaultPlan, FaultWindowStats, KvLinkSpec, RecoveryStats,
};
use crate::metrics::{
    KvReuseStats, LatencyDigest, LatencySummary, SimReport, SloStats, StageStats, DIGEST_BUCKETS,
};
use crate::policy::SchedulingPolicy;
use crate::router::{weighted_load, PoolRole, ReplicaSnapshot, Router};
use crate::scenario::{
    kv_reservation, PendingRequest, ReplicaSim, Scenario, ScenarioStream, SloTier,
};
use crate::scheduler::{SimulationConfig, StageExecutor};
use crate::snapshot::{AutoscaleState, ClusterSnapshot, DisaggState, FaultState};

/// How far past a snapshot's pause time a carried time may lead: a
/// simulated day, far more in-flight work than any drill or suite run
/// carries (their clocks lead by milliseconds).
const MAX_CLOCK_LEAD_S: f64 = 86_400.0;

/// Check a time a snapshot carries: at least 0 and at most
/// [`MAX_CLOCK_LEAD_S`] plus `delay_s` past the pause at `taken_at_s`
/// (so NaN fails, and +inf passes only for an infinite `delay_s`).
/// A replica steps past the pause only through stages it had work for,
/// and the stream draws arrivals only a short way ahead, so real times
/// lead the pause by little. A far-future time would have an autoscaled
/// fleet tick its evaluator once per interval all the way there, which
/// never ends in practice. `delay_s` is 0 except for control-plane
/// events, which a queue schedules up to its longest configured delay
/// past a time it has reached.
/// The error names the time; callers prefix what carried it.
fn check_clock(t: f64, taken_at_s: f64, delay_s: f64) -> Result<(), String> {
    if t >= 0.0 && t <= taken_at_s + delay_s + MAX_CLOCK_LEAD_S {
        return Ok(());
    }
    let delay = if delay_s > 0.0 {
        format!(" and {delay_s:e} s")
    } else {
        String::new()
    };
    Err(format!(
        "{t:e} s is not within a day{delay} of the pause at {taken_at_s:e} s"
    ))
}

/// Fleets always step serially, so this type carries no settings.
/// Kept only for the benchmark package (`perfbench`); goes in a later
/// benchmark change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterConfig;

impl ClusterConfig {
    /// Always 1: replica windows step one at a time. Kept only for the
    /// benchmark package; goes in a later benchmark change.
    pub fn effective_threads(&self) -> usize {
        1
    }
}

/// One replica's scheduler limits plus its relative serving capacity.
///
/// Construct with [`ReplicaConfig::new`] plus the `with_*` builders —
/// the struct is `#[non_exhaustive]`, so literal construction outside
/// this crate is not supported.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ReplicaConfig {
    /// The replica-local scheduler limits (batch slots, KV budget).
    pub sim: SimulationConfig,
    /// Relative serving capacity for weight-aware routers (see
    /// [`ReplicaSnapshot::weight`]); 1.0 for homogeneous fleets.
    pub weight: f64,
}

impl ReplicaConfig {
    /// A unit-weight replica.
    pub fn new(sim: SimulationConfig) -> Self {
        Self { sim, weight: 1.0 }
    }

    /// Set the relative capacity weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "capacity weight must be positive");
        self.weight = weight;
        self
    }
}

/// A prefill/decode pool split for a fleet: the listed replicas form
/// the prefill pool, every other replica the decode pool, and finished
/// prompts ship their KV over the fleet's KV link (see the module docs
/// and `docs/placement-api.md`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DisaggPlan {
    /// Replica indices serving the prefill pool.
    pub prefill_replicas: Vec<usize>,
}

impl DisaggPlan {
    /// A split with the given prefill-pool members.
    pub fn new(prefill_replicas: Vec<usize>) -> Self {
        Self { prefill_replicas }
    }

    /// The role this plan assigns to replica `i`.
    pub fn role_of(&self, i: usize) -> PoolRole {
        if self.prefill_replicas.contains(&i) {
            PoolRole::Prefill
        } else {
            PoolRole::Decode
        }
    }
}

/// Prefill→decode transfer accounting for a disaggregated run (all
/// zeros in colocated mode).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct DisaggStats {
    /// Prompts handed from the prefill pool to the decode pool.
    pub handoffs: u64,
    /// KV bytes shipped over the pool interconnect.
    pub kv_bytes_shipped: u64,
    /// Virtual seconds of handoff transfer time charged to decode
    /// replicas.
    pub transfer_seconds: f64,
    /// Handoffs whose decode replica could not hold the shipped KV:
    /// the prompt re-prefilled there from scratch instead.
    pub reprefills: u64,
}

/// Live disaggregation state for one cluster run: the admission-time
/// decode assignments of every request currently prefilling, plus
/// transfer accounting. Assignments mutate only at dispatch and merge
/// points, so windows stay side-effect-free.
struct DisaggRuntime<'p> {
    plan: &'p DisaggPlan,
    /// `(request id, decode replica, KV bytes to ship)`, sorted by id.
    assignments: Vec<(u64, usize, u64)>,
    stats: DisaggStats,
}

impl<'p> DisaggRuntime<'p> {
    fn new(plan: &'p DisaggPlan) -> Self {
        Self {
            plan,
            assignments: Vec::new(),
            stats: DisaggStats::default(),
        }
    }

    /// Record a placement's decode half at admission time.
    fn record(&mut self, request: u64, decode: usize, bytes: u64) {
        let i = self.assignments.partition_point(|&(id, _, _)| id < request);
        self.assignments.insert(i, (request, decode, bytes));
    }

    /// Take the assignment of a finished prefill.
    fn take(&mut self, request: u64) -> Option<(usize, u64)> {
        let i = self
            .assignments
            .binary_search_by_key(&request, |&(id, _, _)| id)
            .ok()?;
        let (_, decode, bytes) = self.assignments.remove(i);
        Some((decode, bytes))
    }

    /// Pending joins headed for decode replica `i`: `(count, bytes)` —
    /// the router-visible transfer backlog.
    fn backlog_for(&self, i: usize) -> (usize, u64) {
        self.assignments
            .iter()
            .filter(|&&(_, d, _)| d == i)
            .fold((0, 0), |(n, b), &(_, _, bytes)| (n + 1, b + bytes))
    }

    fn export_state(&self) -> DisaggState {
        DisaggState {
            assignments: self
                .assignments
                .iter()
                .map(|&(id, d, b)| (id, d as u64, b))
                .collect(),
            handoffs: self.stats.handoffs,
            kv_bytes_shipped: self.stats.kv_bytes_shipped,
            transfer_seconds: self.stats.transfer_seconds,
            reprefills: self.stats.reprefills,
        }
    }

    /// Restore state captured by [`DisaggRuntime::export_state`],
    /// rejecting assignments to replicas outside the plan's decode pool
    /// or the `replicas`-replica fleet.
    fn import_state(&mut self, s: &DisaggState, replicas: usize) -> Result<(), String> {
        if let Some(&(id, target, _)) = s
            .assignments
            .iter()
            .find(|&&(_, t, _)| self.plan.role_of(t as usize) != PoolRole::Decode)
        {
            return Err(format!(
                "snapshot assigns request {id} to replica {target}, which is not in the \
                 decode pool"
            ));
        }
        if let Some(&(id, target, _)) = s
            .assignments
            .iter()
            .find(|&&(_, t, _)| t as usize >= replicas)
        {
            return Err(format!(
                "snapshot assigns request {id} to replica {target} of {replicas}"
            ));
        }
        self.assignments = s
            .assignments
            .iter()
            .map(|&(id, d, b)| (id, d as usize, b))
            .collect();
        self.stats = DisaggStats {
            handoffs: s.handoffs,
            kv_bytes_shipped: s.kv_bytes_shipped,
            transfer_seconds: s.transfer_seconds,
            reprefills: s.reprefills,
        };
        Ok(())
    }
}

/// Fleet-level result: the per-replica [`SimReport`]s plus merged
/// views built with the metrics `merge` APIs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// One report per replica, in replica order.
    pub replicas: Vec<SimReport>,
    /// Router display name the run used.
    pub router: String,
    /// Fleet wall clock: the latest replica-local finish time.
    pub total_time_s: f64,
    /// Fault/recovery counters (all zeros without a
    /// [`FaultPlan`], except KV-migration stats, which a
    /// migration-aware router can also accrue on a healthy fleet).
    pub recovery: RecoveryStats,
    /// Per-injected-fault recovery outcomes (empty without a plan).
    pub faults: Vec<FaultOutcome>,
    /// Provisioned replica time: virtual seconds of *up* (admitting or
    /// draining, i.e. billable) replica time summed over the fleet.
    /// A static N-replica fleet spends exactly `N * total_time_s`; an
    /// autoscaled fleet spends less — this is the cost side of the
    /// attainment-vs-cost tradeoff the autoscale drill gates.
    pub replica_seconds: f64,
    /// Scale-event counters (all zeros without an
    /// [`AutoscalePolicy`]).
    pub scaling: ScaleStats,
    /// Prefill→decode handoff counters (all zeros without a
    /// [`DisaggPlan`]).
    pub disagg: DisaggStats,
}

impl ClusterReport {
    /// Requests completed across the fleet.
    pub fn completed(&self) -> usize {
        self.replicas.iter().map(|r| r.completed.len()).sum()
    }

    /// Generated tokens across the fleet (in-flight tokens counted).
    pub fn generated_tokens(&self) -> u64 {
        self.replicas.iter().map(SimReport::generated_tokens).sum()
    }

    /// Stages executed across the fleet.
    pub fn stages(&self) -> u64 {
        self.replicas.iter().map(|r| r.stage_stats.stages).sum()
    }

    /// Merged stage counters across the fleet.
    pub fn stage_stats(&self) -> StageStats {
        let mut total = StageStats::default();
        for r in &self.replicas {
            total.merge(&r.stage_stats);
        }
        total
    }

    /// Fleet generation throughput: every replica's tokens over the
    /// shared clock.
    pub fn generation_throughput(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.generated_tokens() as f64 / self.total_time_s
    }

    /// The fleet's token-gap population: every replica's TBT digest
    /// merged, so percentiles are over the concatenated streams.
    pub fn tbt_digest(&self) -> LatencyDigest {
        let mut merged = LatencyDigest::default();
        for r in &self.replicas {
            merged.merge(&r.tbt_digest);
        }
        merged
    }

    /// Fleet TBT summary (from the merged digest).
    pub fn tbt(&self) -> LatencySummary {
        self.tbt_digest().summary()
    }

    /// Fleet T2FT summary over all completed requests.
    pub fn t2ft(&self) -> LatencySummary {
        let samples: Vec<f64> = self
            .replicas
            .iter()
            .flat_map(|r| r.completed.iter().map(|c| c.t2ft()))
            .collect();
        LatencySummary::of(&samples)
    }

    /// Merged per-tier SLO accounting across the fleet.
    pub fn slo(&self) -> SloStats {
        let mut merged = SloStats::default();
        for r in &self.replicas {
            merged.merge(&r.slo);
        }
        merged
    }

    /// Fleet SLO attainment (0 without tiers).
    pub fn slo_attainment(&self) -> f64 {
        self.slo().attainment()
    }

    /// Fleet goodput: SLO-attaining output tokens per second of shared
    /// clock.
    pub fn goodput_tokens_per_s(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.slo().good_tokens() as f64 / self.total_time_s
    }

    /// Merged prefix-reuse accounting across the fleet.
    pub fn kv_reuse(&self) -> KvReuseStats {
        let mut merged = KvReuseStats::default();
        for r in &self.replicas {
            merged.merge(&r.kv_reuse);
        }
        merged
    }

    /// Merged preemption/multiplexing counters across the fleet (all
    /// zero unless a replica ran a [`crate::PreemptionPolicy`]).
    pub fn preempt(&self) -> crate::preempt::PreemptStats {
        let mut merged = crate::preempt::PreemptStats::default();
        for r in &self.replicas {
            merged.merge(&r.preempt);
        }
        merged
    }

    /// Worst-case recovery time across the run's injected faults:
    /// virtual seconds from a fault to the fleet token rate returning
    /// within the plan's threshold of its pre-fault level (0 without
    /// faults; a never-recovered fault counts its remaining run span).
    pub fn recovery_time_s(&self) -> f64 {
        self.faults
            .iter()
            .map(|f| f.recovery_time_s)
            .fold(0.0, f64::max)
    }

    /// During-failure SLO attainment of the first (interactive) tier,
    /// merged over every fault's window; 0 when no interactive request
    /// retired inside any window.
    pub fn fault_interactive_attainment(&self) -> f64 {
        let (completed, met) = self
            .faults
            .iter()
            .filter_map(|f| f.windows.first())
            .fold((0u64, 0u64), |(c, m), w| (c + w.completed, m + w.met));
        if completed == 0 {
            return 0.0;
        }
        met as f64 / completed as f64
    }

    /// Load imbalance across replicas: the hottest replica's generated
    /// tokens over the fleet mean. 1.0 is perfectly balanced; N means
    /// one replica did N times its fair share (0 with no tokens).
    pub fn load_imbalance(&self) -> f64 {
        let per_replica: Vec<u64> = self
            .replicas
            .iter()
            .map(SimReport::generated_tokens)
            .collect();
        let total: u64 = per_replica.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / per_replica.len() as f64;
        per_replica.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// The earliest of `times` (the first of equal times).
fn earliest(times: impl IntoIterator<Item = f64>) -> Option<f64> {
    times.into_iter().fold(None, |acc, t| match acc {
        Some(best) if best <= t => Some(best),
        _ => Some(t),
    })
}

/// The fleet's earliest next stage start, across replicas.
fn fleet_next_start(replicas: &[ReplicaSim]) -> Option<f64> {
    earliest(replicas.iter().filter_map(ReplicaSim::next_start))
}

/// The replica passing `keep` with the least [`weighted_load`] (the
/// most with `most`); ties go to the lowest index. `None` when no
/// replica passes.
fn pick_by_load(
    configs: &[ReplicaConfig],
    replicas: &[ReplicaSim],
    most: bool,
    keep: impl Fn(usize, &ReplicaSim) -> bool,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (j, r) in replicas.iter().enumerate() {
        if !keep(j, r) {
            continue;
        }
        let (in_flight, queued, outstanding) = r.load();
        let load = weighted_load(in_flight + queued, outstanding, configs[j].weight);
        match best {
            Some((_, b)) if (if most { b >= load } else { b <= load }) => {}
            _ => best = Some((j, load)),
        }
    }
    best.map(|(j, _)| j)
}

/// Move every parked KV history off replica `from` — one batched
/// transfer to `to`, priced over `link` against the receiver's clock.
/// Histories the receiver cannot hold, and all of them when there is no
/// receiver, are dropped.
fn hand_off_parked(
    configs: &[ReplicaConfig],
    replicas: &mut [ReplicaSim],
    from: usize,
    to: Option<usize>,
    link: KvLinkSpec,
    stats: &mut RecoveryStats,
) {
    let moved = replicas[from].take_parked();
    let Some(to) = to else {
        return;
    };
    let mut bytes = 0u64;
    for (conversation, tokens) in moved {
        if replicas[to].receive_parked(conversation, tokens) {
            bytes += tokens * configs[from].sim.kv_bytes_per_token.max(1);
            stats.kv_migrations += 1;
        }
    }
    if bytes > 0 {
        let seconds = replicas[to].receive_transfer(link, bytes);
        stats.kv_bytes_migrated += bytes;
        stats.migration_seconds += seconds;
    }
}

/// Route every arrival due by the fleet's next stage start. Returns
/// when the next arrival is strictly later than the fleet's next stage
/// start (route it later, at its own time), when it lies at or past
/// `limit` (a pending fault event: the routing decision must see the
/// post-fault fleet), when the stream is drained, or when no replica is
/// admitting (the whole fleet is down or stage-capped; down fleets
/// *hold* their arrivals for the fault boundary to restart a replica).
///
/// Router-requested KV migrations execute here: the parked pages move
/// source → target and the transfer is priced over `link` against the
/// receiving replica's clock.
///
/// Under a [`DisaggPlan`] the router's [`Router::place`] picks one
/// replica per pool; the request runs its prompt at the prefill half
/// and the decode half is recorded as an assignment, consumed when the
/// finished prefill's handoff is delivered at a merge point. Routing
/// holds arrivals while either pool is entirely down (mirroring the
/// fully-down colocated behavior).
#[allow(clippy::too_many_arguments)]
fn dispatch_arrivals(
    stream: &mut ScenarioStream,
    router: &mut dyn Router,
    configs: &[ReplicaConfig],
    replicas: &mut [ReplicaSim],
    snapshots: &mut Vec<ReplicaSnapshot>,
    limit: Option<f64>,
    link: KvLinkSpec,
    stats: &mut RecoveryStats,
    mut disagg: Option<&mut DisaggRuntime<'_>>,
) {
    while let Some(t_a) = stream.next_arrival_time() {
        if limit.is_some_and(|l| t_a >= l) {
            break;
        }
        let pools_up = match disagg {
            Some(_) => {
                replicas
                    .iter()
                    .any(|r| r.role() == PoolRole::Prefill && r.is_admitting())
                    && replicas
                        .iter()
                        .any(|r| r.role() == PoolRole::Decode && r.is_admitting())
            }
            None => replicas.iter().any(ReplicaSim::is_admitting),
        };
        if !pools_up {
            break;
        }
        match fleet_next_start(replicas) {
            // The next stage forms before this arrival: route it
            // later, at its own time.
            Some(t) if t_a > t => break,
            _ => {
                let p = stream.pop_next().expect("arrival time implies a request");
                snapshots.clear();
                snapshots.extend(configs.iter().zip(replicas.iter()).enumerate().map(
                    |(i, (cfg, r))| {
                        let (in_flight, mut queued, outstanding_tokens) = r.load();
                        let (kv_reserved_bytes, kv_capacity_bytes) = r.kv_usage();
                        // Pending prefill-pool joins count against
                        // their decode target's queue and surface
                        // as transfer backlog (none in colocated
                        // mode, so the snapshot is unchanged).
                        // Paused-and-parked preempted contexts are
                        // backlog too: they re-enter as priced
                        // restores, not affinity-routable histories.
                        let (joins, mut transfer_backlog_bytes) =
                            disagg.as_deref().map_or((0, 0), |d| d.backlog_for(i));
                        transfer_backlog_bytes += r.paused_swap_bytes();
                        queued += joins;
                        ReplicaSnapshot {
                            now_s: r.clock(),
                            in_flight,
                            queued,
                            max_batch: r.max_batch(),
                            outstanding_tokens,
                            kv_reserved_bytes,
                            kv_capacity_bytes,
                            weight: cfg.weight,
                            resident_history_tokens: r.resident_history(p.conversation),
                            accepting: r.is_admitting(),
                            role: r.role(),
                            transfer_backlog_bytes,
                        }
                    },
                ));
                let placement = router.place(&p, snapshots);
                let target = placement.prefill;
                assert!(
                    target < replicas.len(),
                    "router picked replica {target} of {}",
                    replicas.len()
                );
                assert!(
                    replicas[target].is_admitting(),
                    "router picked a non-admitting replica while one admits"
                );
                if !placement.is_colocated() {
                    let d = disagg
                        .as_deref_mut()
                        .expect("a split placement implies a disaggregation plan");
                    assert!(
                        placement.decode < replicas.len(),
                        "router picked decode replica {} of {}",
                        placement.decode,
                        replicas.len()
                    );
                    let bytes = p.request.input_len.saturating_sub(1)
                        * configs[target].sim.kv_bytes_per_token.max(1);
                    d.record(p.request.id, placement.decode, bytes);
                }
                if let Some(src) = placement.migrate_from {
                    if src < replicas.len() && src != target {
                        migrate_parked(configs, replicas, src, target, p.conversation, link, stats);
                    }
                }
                replicas[target].enqueue(p);
            }
        }
    }
}

/// Ship `conversation`'s parked KV from `src` to `target` (no-op when
/// nothing is resident or the target cannot hold it), pricing the
/// transfer over `link` against the target's clock.
fn migrate_parked(
    configs: &[ReplicaConfig],
    replicas: &mut [ReplicaSim],
    src: usize,
    target: usize,
    conversation: u64,
    link: KvLinkSpec,
    stats: &mut RecoveryStats,
) {
    let Some(tokens) = replicas[src].parked_tokens(conversation) else {
        return;
    };
    if !replicas[target].receive_parked(conversation, tokens) {
        return;
    }
    replicas[src].release_parked(conversation);
    let bytes = tokens * configs[src].sim.kv_bytes_per_token.max(1);
    let seconds = replicas[target].receive_transfer(link, bytes);
    stats.kv_bytes_migrated += bytes;
    stats.kv_migrations += 1;
    stats.migration_seconds += seconds;
}

/// Deliver every buffered prefill→decode handoff, in replica-index
/// order (the merge half of disaggregated serving): ship the prompt KV
/// to the decode replica assigned at admission time, price the
/// transfer over `link` against the receiver's clock, and
/// enqueue the request there — it joins the decode batch through the
/// ordinary reuse-admission path as a one-token prefill above the
/// shipped context. A decode replica that went down (or cannot hold
/// the KV) degrades gracefully: another decode replica is picked, or
/// the prompt re-prefills from scratch.
fn drain_handoffs(
    stream: &mut ScenarioStream,
    configs: &[ReplicaConfig],
    replicas: &mut [ReplicaSim],
    link: KvLinkSpec,
    disagg: &mut DisaggRuntime<'_>,
) {
    for i in 0..replicas.len() {
        if !replicas[i].has_handoffs() {
            continue;
        }
        for ev in replicas[i].take_handoffs() {
            let mut p = ev.pending;
            let assigned = disagg.take(p.request.id);
            // The admission-time target may have gone down since: fall
            // back to the least-loaded admitting decode replica.
            let target = match assigned {
                Some((d, _)) if replicas[d].is_admitting() => Some(d),
                _ => pick_by_load(configs, replicas, false, |_, r| {
                    r.role() == PoolRole::Decode && r.is_admitting()
                }),
            };
            let Some(d) = target else {
                // The whole decode pool is down: the request re-enters
                // the arrival stream and is re-placed once a decode
                // replica recovers.
                p.request.arrival_s = ev.done_s;
                p.history_tokens = 0;
                stream.requeue(p);
                continue;
            };
            let bytes = assigned.map_or_else(
                || p.request.input_len.saturating_sub(1) * configs[i].sim.kv_bytes_per_token.max(1),
                |(_, b)| b,
            );
            let join_tokens = p.request.input_len.saturating_sub(1);
            disagg.stats.handoffs += 1;
            if join_tokens > 0 && replicas[d].receive_parked(p.conversation, join_tokens) {
                let seconds = replicas[d].receive_transfer(link, bytes);
                disagg.stats.kv_bytes_shipped += bytes;
                disagg.stats.transfer_seconds += seconds;
                p.history_tokens = join_tokens;
                // The decode replica cannot start the join before the
                // prefill finished; its absolute SLO deadline (stamped
                // at spawn) is unchanged.
                p.request.arrival_s = ev.done_s + seconds;
            } else {
                // Nothing to ship (one-token prompt) or no room at the
                // receiver even after evicting parked histories: the
                // prompt re-prefills at the decode replica, unpriced.
                if join_tokens > 0 {
                    disagg.stats.reprefills += 1;
                }
                p.history_tokens = 0;
                p.request.arrival_s = ev.done_s;
            }
            replicas[d].enqueue(p);
        }
    }
}

/// The control plane's event queue on the virtual clock (see
/// "Control-plane events" in the module docs).
#[derive(Default)]
struct EventQueue {
    /// `(at_s, seq, event)` in schedule order; `seq` is the
    /// deterministic tiebreak for equal times.
    events: Vec<(f64, u64, Event)>,
    /// The next schedule-order number.
    seq: u64,
}

impl EventQueue {
    fn schedule(&mut self, at_s: f64, event: Event) {
        self.events.push((at_s, self.seq, event));
        self.seq += 1;
    }

    /// Earliest pending event time (folds into the dispatch/window
    /// `limit`).
    fn next_at(&self) -> Option<f64> {
        earliest(self.events.iter().map(|e| e.0))
    }

    /// Remove and return the earliest `(at_s, seq)` event if the fleet
    /// frontier has reached it: no stage starts and no arrival routes
    /// before it. A fully-down fleet's *held* arrivals don't block (they
    /// may predate the very restart that will release them).
    fn pop_due(
        &mut self,
        replicas: &[ReplicaSim],
        stream: &mut ScenarioStream,
    ) -> Option<(f64, Event)> {
        let (idx, &(at_s, _, _)) = self.events.iter().enumerate().min_by(|(_, a), (_, b)| {
            a.0.partial_cmp(&b.0)
                .expect("event times are never NaN")
                .then(a.1.cmp(&b.1))
        })?;
        let stage_ok = fleet_next_start(replicas).is_none_or(|t| t >= at_s);
        let arrival_ok = stream.next_arrival_time().is_none_or(|t| t >= at_s)
            || !replicas.iter().any(ReplicaSim::is_admitting);
        (stage_ok && arrival_ok).then(|| (at_s, self.events.remove(idx).2))
    }

    /// Decode one snapshot section's rows `(at_s bits, seq, row)` (see
    /// [`Event::row`]) for a plan of `faults` faults on a
    /// `replicas`-replica fleet, from a snapshot taken at `taken_at_s`.
    /// A NaN time is rejected because the due rule cannot order it;
    /// every other time must pass [`check_clock`] with the section's
    /// longest configured delay `delay_s`, except a restart at +inf (an
    /// outage that never ends).
    fn import(
        rows: impl Iterator<Item = (u64, u64, (bool, u64, u64, u64))>,
        (taken_at_s, delay_s): (f64, f64),
        (faults, replicas): (usize, usize),
    ) -> Result<Vec<(f64, u64, Event)>, String> {
        rows.map(|(at_bits, seq, row)| {
            let kind = if row.0 { "scale" } else { "fault" };
            let (at_s, event) = (
                f64::from_bits(at_bits),
                Event::from_row(row, faults, replicas)?,
            );
            if at_s.is_nan() {
                return Err(format!("snapshot {kind} event has a NaN time"));
            }
            if !(at_s == f64::INFINITY && matches!(event, Event::Restart(_))) {
                check_clock(at_s, taken_at_s, delay_s)
                    .map_err(|e| format!("snapshot {kind} event at {e}"))?;
            }
            Ok((at_s, seq, event))
        })
        .collect()
    }
}

/// A control-plane event. The first three come from the fault plan and
/// travel in the snapshot's fault section, the last three from the
/// autoscaler and travel in its autoscale section.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Apply plan fault `faults[i]`.
    Apply(usize),
    /// Bring replica `i` back up after a fault.
    Restart(usize),
    /// End replica `i`'s post-restart warm-up.
    ClearSlow(usize),
    /// Evaluate the fleet signals (and reschedule the next tick).
    Eval,
    /// A provisioned pool replica joins the serving fleet; `lag_s` is
    /// the decision-to-join lag it will be credited with.
    ScaleUp { replica: usize, lag_s: f64 },
    /// End a joiner's warm-up window.
    ClearWarmup(usize),
}

impl Event {
    /// The event's snapshot row `(scale, code, arg, lag bits)`: `scale`
    /// picks the section, [`AutoscaleState`] over [`FaultState`], whose
    /// docs list the codes.
    fn row(self) -> (bool, u64, u64, u64) {
        match self {
            Event::Apply(i) => (false, 0, i as u64, 0),
            Event::Restart(i) => (false, 1, i as u64, 0),
            Event::ClearSlow(i) => (false, 2, i as u64, 0),
            Event::Eval => (true, 0, 0, 0),
            Event::ScaleUp { replica, lag_s } => (true, 1, replica as u64, lag_s.to_bits()),
            Event::ClearWarmup(i) => (true, 2, i as u64, 0),
        }
    }

    /// Inverse of [`Event::row`] for a plan of `faults` faults on a
    /// `replicas`-replica fleet.
    fn from_row(
        (scale, code, arg, lag): (bool, u64, u64, u64),
        faults: usize,
        replicas: usize,
    ) -> Result<Self, String> {
        let i = arg as usize;
        match (scale, code) {
            (false, 0) if i < faults => Ok(Event::Apply(i)),
            (false, 1) if i < replicas => Ok(Event::Restart(i)),
            (false, 2) if i < replicas => Ok(Event::ClearSlow(i)),
            (true, 0) => Ok(Event::Eval),
            (true, 1) if i < replicas => Ok(Event::ScaleUp {
                replica: i,
                lag_s: f64::from_bits(lag),
            }),
            (true, 2) if i < replicas => Ok(Event::ClearWarmup(i)),
            _ => Err(format!(
                "snapshot {} event has code {code} with out-of-range argument {arg}",
                if scale { "scale" } else { "fault" }
            )),
        }
    }
}

/// Who owns a replica's drain, and so what completing it does. The
/// latest drain to begin on a replica owns it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drain {
    /// A plan drain fault at `at_s`: the replica restarts `down_s` after
    /// its handoff.
    Fault { down_s: f64, at_s: f64 },
    /// An autoscale scale-down: the replica returns to the standby pool.
    ScaleDown,
}

/// The autoscaler's state: its policy, the standby pool and the
/// hysteresis state the evaluator carries from tick to tick.
struct Autoscaler<'p> {
    policy: &'p AutoscalePolicy,
    /// Standby-pool membership: `pool[i]` while replica `i` is parked.
    pool: Vec<bool>,
    up_streak: u32,
    down_streak: u32,
    /// First evaluation time of the running up-streak.
    streak_start: Option<f64>,
    cooldown_until: f64,
    /// `(met, completed)` interactive totals at the last evaluation —
    /// the baseline the next window delta is taken against.
    last_slo: (u64, u64),
    stats: ScaleStats,
}

/// The fleet's control plane: the fault plan and the autoscaler behind
/// one event queue (scripted faults, the restarts and warm-up clears
/// they schedule, evaluation ticks, joins), per-request retry counts
/// and the owner of each in-progress drain. All of it is merge-point
/// state: events apply only when every replica's frontier has reached
/// the event time, which is what keeps faulted and elastic runs
/// seed-deterministic and resumable from a mid-event snapshot. A fleet
/// with neither a plan nor a policy has none.
struct ControlPlane<'p> {
    faults: Option<&'p FaultPlan>,
    scaler: Option<Autoscaler<'p>>,
    /// The fleet's KV link, pricing drain handoffs and join steals.
    link: KvLinkSpec,
    queue: EventQueue,
    /// Retry counts per lost request id, sorted by id.
    attempts: Vec<(u64, u32)>,
    /// Per replica: the owner of its drain. A crash ends the drain but
    /// leaves the owner, so its row stays on the wire.
    drains: Vec<Option<Drain>>,
}

impl<'p> ControlPlane<'p> {
    fn new(
        faults: Option<&'p FaultPlan>,
        policy: Option<&'p AutoscalePolicy>,
        replica_count: usize,
        link: KvLinkSpec,
    ) -> Option<Self> {
        if faults.is_none() && policy.is_none() {
            return None;
        }
        let mut queue = EventQueue::default();
        for (i, f) in faults.iter().flat_map(|plan| &plan.faults).enumerate() {
            queue.schedule(f.at_s, Event::Apply(i));
        }
        let scaler = policy.map(|policy| {
            queue.schedule(policy.interval_s, Event::Eval);
            Autoscaler {
                policy,
                pool: (0..replica_count)
                    .map(|i| i >= policy.min_replicas)
                    .collect(),
                up_streak: 0,
                down_streak: 0,
                streak_start: None,
                cooldown_until: 0.0,
                last_slo: (0, 0),
                stats: ScaleStats::default(),
            }
        });
        Some(Self {
            faults,
            scaler,
            link,
            queue,
            attempts: Vec::new(),
            drains: vec![None; replica_count],
        })
    }

    fn plan(&self) -> &'p FaultPlan {
        self.faults.expect("fault events come from a fault plan")
    }

    fn scaler(&mut self) -> &mut Autoscaler<'p> {
        self.scaler
            .as_mut()
            .expect("scale events come from an autoscale policy")
    }

    /// Retry count of `request` after one more loss (1-based).
    fn bump_attempts(&mut self, request: u64) -> u32 {
        match self.attempts.binary_search_by_key(&request, |&(id, _)| id) {
            Ok(i) => {
                self.attempts[i].1 += 1;
                self.attempts[i].1
            }
            Err(i) => {
                self.attempts.insert(i, (request, 1));
                1
            }
        }
    }

    /// The lowest-index replica whose owned drain has an empty batch.
    fn finished_drain(&self, replicas: &[ReplicaSim]) -> Option<usize> {
        (0..replicas.len()).find(|&i| {
            self.drains[i].is_some() && replicas[i].is_draining() && !replicas[i].in_flight()
        })
    }

    /// Whether a fully-down fleet can still come back: an event is
    /// pending, or a finished drain waits for completion.
    fn can_progress(&self, replicas: &[ReplicaSim]) -> bool {
        !self.queue.events.is_empty() || self.finished_drain(replicas).is_some()
    }

    /// Run the merge-point boundary to quiescence: apply the earliest
    /// due event (virtual-time order, schedule order on ties); when
    /// none is due, complete the lowest-index finished drain as its
    /// owner directs; stop when neither is left.
    fn process_boundary(
        &mut self,
        stream: &mut ScenarioStream,
        configs: &[ReplicaConfig],
        replicas: &mut [ReplicaSim],
        stats: &mut RecoveryStats,
    ) {
        loop {
            if let Some((at_s, event)) = self.queue.pop_due(replicas, stream) {
                self.apply_event(at_s, event, stream, configs, replicas, stats);
            } else if let Some(i) = self.finished_drain(replicas) {
                self.complete_drain(i, configs, replicas, stats);
            } else {
                return;
            }
        }
    }

    fn apply_event(
        &mut self,
        at_s: f64,
        event: Event,
        stream: &mut ScenarioStream,
        configs: &[ReplicaConfig],
        replicas: &mut [ReplicaSim],
        stats: &mut RecoveryStats,
    ) {
        match event {
            Event::Apply(fi) => {
                let plan = self.plan();
                let f = plan.faults[fi];
                stats.faults_injected += 1;
                // A replica parked in the standby pool or provisioning
                // toward a join is out of service: the fault finds
                // nothing to stop, and only the join brings it up.
                let joins = |e: &(f64, u64, Event)| matches!(e.2, Event::ScaleUp { replica, .. } if replica == f.replica);
                let pooled = self.scaler.as_ref().is_some_and(|a| a.pool[f.replica]);
                if pooled || self.queue.events.iter().any(joins) {
                    return;
                }
                let replica = &mut replicas[f.replica];
                match f.kind {
                    FaultKind::Crash { down_s } => {
                        // The replica's last stage may have straddled
                        // the fault time (stage granularity): the
                        // outage is measured from where it actually
                        // stopped.
                        let now = replica.clock().max(f.at_s);
                        let lost = replica.crash();
                        replica.mark_down(now);
                        self.queue.schedule(now + down_s, Event::Restart(f.replica));
                        for mut p in lost {
                            stats.requests_lost += 1;
                            let attempt = self.bump_attempts(p.request.id);
                            if attempt <= plan.retry.max_retries {
                                stats.retries_issued += 1;
                                // Re-enqueue through the router at the
                                // backoff time; the original absolute
                                // SLO deadline is kept.
                                p.request.arrival_s = now + plan.retry.delay_s(attempt);
                                stream.requeue(p);
                            } else {
                                stats.requests_dropped += 1;
                            }
                        }
                    }
                    FaultKind::Drain { down_s } => {
                        self.drains[f.replica] = Some(Drain::Fault {
                            down_s,
                            at_s: f.at_s,
                        });
                        // Not-yet-started requests reroute at their
                        // original arrival times: nothing was lost, no
                        // retry budget is spent.
                        for p in replica.begin_drain() {
                            stream.requeue(p);
                        }
                    }
                }
            }
            Event::Restart(i) => {
                let plan = self.plan();
                let warmup = (plan.warmup_s, plan.warmup_factor);
                self.start_replica(at_s, i, replicas, warmup, Event::ClearSlow(i));
            }
            Event::ClearSlow(i) | Event::ClearWarmup(i) => replicas[i].set_perf_factor(1.0),
            Event::Eval => {
                self.evaluate(at_s, stream, configs, replicas);
                // Keep ticking only while the run still has work —
                // arrivals to come or stages to run. An eternal tick
                // on a drained fleet would never let the run end.
                if stream.next_arrival_time().is_some() || fleet_next_start(replicas).is_some() {
                    let next = at_s + self.scaler().policy.interval_s;
                    self.queue.schedule(next, Event::Eval);
                }
            }
            Event::ScaleUp { replica, lag_s } => {
                self.join(at_s, replica, lag_s, configs, replicas, stats);
            }
        }
    }

    /// Bring replica `i` up at `at_s` and start its `(warmup_s, factor)`
    /// warm-up: stages run at `factor` times nominal latency until
    /// `clear` lands `warmup_s` later (no window when `warmup_s` is 0).
    /// A fault restart and an autoscale join both start here.
    fn start_replica(
        &mut self,
        at_s: f64,
        i: usize,
        replicas: &mut [ReplicaSim],
        (warmup_s, factor): (f64, f64),
        clear: Event,
    ) {
        replicas[i].restart(at_s);
        if warmup_s > 0.0 {
            replicas[i].set_perf_factor(factor);
            self.queue.schedule(at_s + warmup_s, clear);
        }
    }

    /// Replica `i`'s drain batch just emptied: finish the drain (see
    /// [`finish_drain`]), then schedule the restart of a fault drain, or
    /// park a scale-down back in the pool.
    fn complete_drain(
        &mut self,
        i: usize,
        configs: &[ReplicaConfig],
        replicas: &mut [ReplicaSim],
        stats: &mut RecoveryStats,
    ) {
        if let Some(Drain::Fault { down_s, at_s }) = self.drains[i].take() {
            let down_at = finish_drain(i, at_s, configs, replicas, self.link, stats);
            self.queue.schedule(down_at + down_s, Event::Restart(i));
        } else {
            finish_drain(i, 0.0, configs, replicas, self.link, stats);
            let a = self.scaler();
            a.pool[i] = true;
            a.stats.scale_downs += 1;
        }
    }

    /// One evaluation tick: fold the fleet signals, update the
    /// hysteresis streaks, and fire at most one scale event.
    fn evaluate(
        &mut self,
        t: f64,
        stream: &mut ScenarioStream,
        configs: &[ReplicaConfig],
        replicas: &mut [ReplicaSim],
    ) {
        let Some(a) = self.scaler.as_mut() else {
            return;
        };
        let mut pressure_sum = 0.0;
        let mut active = 0usize;
        let (mut in_flight_sum, mut slots_sum) = (0usize, 0usize);
        for r in replicas.iter().filter(|r| r.is_admitting()) {
            let (in_flight, queued, _) = r.load();
            pressure_sum += (in_flight + queued) as f64 / r.max_batch().max(1) as f64;
            in_flight_sum += in_flight;
            slots_sum += r.max_batch();
            active += 1;
        }
        let pressure = pressure_sum / active.max(1) as f64;
        let occupancy = if slots_sum == 0 {
            0.0
        } else {
            in_flight_sum as f64 / slots_sum as f64
        };
        let (met, completed) = replicas.iter().fold((0u64, 0u64), |(m, c), r| {
            let (rm, rc) = r.interactive_slo_counts();
            (m + rm, c + rc)
        });
        let window_met = met - a.last_slo.0;
        let window_completed = completed - a.last_slo.1;
        a.last_slo = (met, completed);
        let policy = a.policy;
        // An empty window is healthy: nothing completed, nothing
        // missed.
        let attainment_bad = policy.attainment_floor > 0.0
            && window_completed > 0
            && (window_met as f64 / window_completed as f64) < policy.attainment_floor;
        let up_vote = pressure >= policy.up_pressure || attainment_bad;
        let down_vote = pressure <= policy.down_pressure
            && occupancy <= policy.down_occupancy
            && !attainment_bad;
        if up_vote {
            a.up_streak += 1;
            if a.streak_start.is_none() {
                a.streak_start = Some(t);
            }
        } else {
            a.up_streak = 0;
            a.streak_start = None;
        }
        a.down_streak = if down_vote { a.down_streak + 1 } else { 0 };
        if t < a.cooldown_until {
            return;
        }
        if a.up_streak >= policy.up_windows {
            // Provision the lowest-index pool replica; with the pool
            // exhausted the streak keeps running, so a scale-down
            // freeing a replica can still satisfy it later.
            if let Some(i) = a.pool.iter().position(|&parked| parked) {
                a.pool[i] = false;
                let join_at = t + policy.provision_s;
                let lag_s = join_at - a.streak_start.unwrap_or(t);
                self.queue
                    .schedule(join_at, Event::ScaleUp { replica: i, lag_s });
                a.up_streak = 0;
                a.streak_start = None;
                a.cooldown_until = t + policy.cooldown_s;
            }
            return;
        }
        if a.down_streak >= policy.down_windows && active > policy.min_replicas {
            // Drain the least-loaded serving replica.
            if let Some(i) = pick_by_load(configs, replicas, false, |_, r| r.is_admitting()) {
                for p in replicas[i].begin_drain() {
                    stream.requeue(p);
                }
                self.drains[i] = Some(Drain::ScaleDown);
                a.down_streak = 0;
                a.cooldown_until = t + policy.cooldown_s;
            }
        }
    }

    /// A provisioned replica joins the serving fleet: start it and its
    /// warm-up window, and steal the parked KV of the most-loaded
    /// survivor as one priced transfer (a drain handoff in reverse —
    /// the joiner pays the transfer time).
    fn join(
        &mut self,
        at_s: f64,
        replica: usize,
        lag_s: f64,
        configs: &[ReplicaConfig],
        replicas: &mut [ReplicaSim],
        stats: &mut RecoveryStats,
    ) {
        let policy = self.scaler().policy;
        let warmup = (policy.warmup_s, policy.warmup_factor);
        self.start_replica(at_s, replica, replicas, warmup, Event::ClearWarmup(replica));
        let role = replicas[replica].role();
        let donor = pick_by_load(configs, replicas, true, |j, r| {
            j != replica && r.is_admitting() && r.role() == role
        });
        if let Some(j) = donor {
            hand_off_parked(configs, replicas, j, Some(replica), self.link, stats);
        }
        let scaled = &mut self.scaler().stats;
        scaled.scale_ups += 1;
        scaled.scale_up_lag_s = scaled.scale_up_lag_s.max(lag_s);
    }

    /// One snapshot section's events as rows `(at_s bits, seq, row)`, in
    /// schedule order (see [`Event::row`]).
    fn rows(&self, scale: bool) -> impl Iterator<Item = (u64, u64, (bool, u64, u64, u64))> + '_ {
        let rows = self.queue.events.iter();
        rows.map(|&(at_s, seq, e)| (at_s.to_bits(), seq, e.row()))
            .filter(move |r| r.2 .0 == scale)
    }

    /// The snapshot's fault section (`None` without a fault plan): the
    /// plan's events in schedule order, the shared schedule counter,
    /// retry counts and the fault-owned drains.
    fn export_fault(&self) -> Option<FaultState> {
        self.faults?;
        Some(FaultState {
            events: self
                .rows(false)
                .map(|(at, seq, (_, code, arg, _))| (at, seq, code, arg))
                .collect(),
            seq: self.queue.seq,
            attempts: self
                .attempts
                .iter()
                .map(|&(id, n)| (id, u64::from(n)))
                .collect(),
            draining_down: self
                .drains
                .iter()
                .enumerate()
                .filter_map(|(i, d)| match *d {
                    Some(Drain::Fault { down_s, at_s }) => {
                        Some((i as u64, down_s.to_bits(), at_s.to_bits()))
                    }
                    _ => None,
                })
                .collect(),
        })
    }

    /// The snapshot's autoscale section (`None` without a policy): the
    /// scale events in schedule order, the shared schedule counter, the
    /// pool, the scale-down drains and the evaluator's state.
    fn export_autoscale(&self) -> Option<AutoscaleState> {
        let a = self.scaler.as_ref()?;
        Some(AutoscaleState {
            events: self
                .rows(true)
                .map(|(at, seq, (_, code, arg, lag))| (at, seq, code, arg, lag))
                .collect(),
            seq: self.queue.seq,
            pool: a.pool.clone(),
            draining: self
                .drains
                .iter()
                .map(|d| *d == Some(Drain::ScaleDown))
                .collect(),
            up_streak: a.up_streak,
            down_streak: a.down_streak,
            streak_start: a.streak_start,
            cooldown_until: a.cooldown_until,
            slo_met: a.last_slo.0,
            slo_completed: a.last_slo.1,
            scale_ups: a.stats.scale_ups,
            scale_downs: a.stats.scale_downs,
            scale_up_lag_s: a.stats.scale_up_lag_s,
        })
    }

    /// Restore the sections [`ControlPlane::export_fault`] and
    /// [`ControlPlane::export_autoscale`] wrote into a snapshot taken at
    /// `taken_at_s` (each present exactly when this cluster has its
    /// plan or policy), merging their events into the one queue by
    /// schedule order. Rejects events, drains and membership vectors
    /// this fleet cannot hold, two schedule counters that differ, and a
    /// drain both sections own. A restart at +inf (an outage that never
    /// ends) is legal.
    fn import_state(
        &mut self,
        fault: Option<&FaultState>,
        scale: Option<&AutoscaleState>,
        taken_at_s: f64,
    ) -> Result<(), String> {
        let replicas = self.drains.len();
        let mut events = Vec::new();
        let mut drains = vec![None; replicas];
        if let Some(s) = fault {
            let plan = self.plan();
            // Plan faults apply at their scripted times, restarts come
            // a down time after a reached time, and warm-up ends a
            // warm-up after a restart.
            let delay_s = plan
                .faults
                .iter()
                .map(|f| {
                    let (FaultKind::Crash { down_s } | FaultKind::Drain { down_s }) = f.kind;
                    f.at_s.max(down_s)
                })
                .fold(plan.warmup_s, f64::max);
            let rows = s.events.iter();
            events = EventQueue::import(
                rows.map(|&(at, seq, code, arg)| (at, seq, (false, code, arg, 0))),
                (taken_at_s, delay_s),
                (plan.faults.len(), replicas),
            )?;
            for &(replica, down_bits, at_bits) in &s.draining_down {
                let Some(owner) = drains.get_mut(replica as usize) else {
                    return Err(format!(
                        "snapshot drain state targets replica {replica} of {replicas}"
                    ));
                };
                *owner = Some(Drain::Fault {
                    down_s: f64::from_bits(down_bits),
                    at_s: f64::from_bits(at_bits),
                });
            }
            self.attempts = s.attempts.iter().map(|&(id, n)| (id, n as u32)).collect();
        }
        if let Some(s) = scale {
            if s.pool.len() != replicas || s.draining.len() != replicas {
                return Err(format!(
                    "snapshot autoscale state covers {} replicas, the cluster has {replicas}",
                    s.pool.len().max(s.draining.len()),
                ));
            }
            let p = self.scaler().policy;
            let delay_s = p.interval_s.max(p.provision_s).max(p.warmup_s);
            let rows = s.events.iter();
            events.extend(EventQueue::import(
                rows.map(|&(at, seq, code, arg, lag)| (at, seq, (true, code, arg, lag))),
                (taken_at_s, delay_s),
                (0, replicas),
            )?);
            for i in (0..replicas).filter(|&i| s.draining[i]) {
                if drains[i].is_some() {
                    return Err(format!(
                        "replica {i}: both the fault and the autoscale state own its drain"
                    ));
                }
                drains[i] = Some(Drain::ScaleDown);
            }
            let a = self.scaler();
            a.pool = s.pool.clone();
            (a.up_streak, a.down_streak) = (s.up_streak, s.down_streak);
            (a.streak_start, a.cooldown_until) = (s.streak_start, s.cooldown_until);
            a.last_slo = (s.slo_met, s.slo_completed);
            a.stats = ScaleStats {
                scale_ups: s.scale_ups,
                scale_downs: s.scale_downs,
                scale_up_lag_s: s.scale_up_lag_s,
            };
        }
        let seq = match (fault, scale) {
            (Some(f), Some(s)) if f.seq != s.seq => {
                return Err(format!(
                    "the snapshot's fault and autoscale event counters differ: {} and {}",
                    f.seq, s.seq
                ))
            }
            (Some(f), _) => f.seq,
            (_, Some(s)) => s.seq,
            (None, None) => 0,
        };
        // Each section is in schedule order; a stable sort interleaves them.
        events.sort_by_key(|e| e.1);
        self.queue = EventQueue { events, seq };
        self.drains = drains;
        Ok(())
    }
}

/// Finish replica `i`'s drain once its batch has emptied: hand its
/// parked KV to the least-loaded admitting replica of its role as one
/// batched transfer priced over `link`, then take it down at its clock
/// or `not_before_s`, whichever is later. Returns that down time. The
/// fault drain and the autoscaler's scale-down both end here.
fn finish_drain(
    i: usize,
    not_before_s: f64,
    configs: &[ReplicaConfig],
    replicas: &mut [ReplicaSim],
    link: KvLinkSpec,
    stats: &mut RecoveryStats,
) -> f64 {
    replicas[i].finish_drain();
    // Pool-aware: parked KV only makes sense on a replica of the
    // drained one's role (a no-op filter in colocated fleets).
    let role = replicas[i].role();
    let to = pick_by_load(configs, replicas, false, |j, r| {
        j != i && r.is_admitting() && r.role() == role
    });
    hand_off_parked(configs, replicas, i, to, link, stats);
    let down_at = replicas[i].clock().max(not_before_s);
    replicas[i].mark_down(down_at);
    down_at
}

/// Fold the fault plan, the leftover event queue and the per-replica
/// recovery recordings into per-fault [`FaultOutcome`]s (none without
/// a plan). Runs at the end of a completed run that lasted
/// `total_time_s`, before the replicas are consumed into reports.
fn compute_fault_outcomes(
    plane: &ControlPlane<'_>,
    replicas: &[ReplicaSim],
    tiers: &[SloTier],
    total_time_s: f64,
) -> Vec<FaultOutcome> {
    let Some(plan) = plane.faults else {
        return Vec::new();
    };
    // A plan fault whose Apply event is still queued never fired.
    let mut unapplied = vec![false; plan.faults.len()];
    for &(_, _, event) in &plane.queue.events {
        if let Event::Apply(fi) = event {
            unapplied[fi] = true;
        }
    }
    // Fleet token timeline: per-replica bucket counts, merged.
    let mut merged: Vec<(u64, u64)> = Vec::new();
    let mut all: Vec<(u64, u64)> = replicas
        .iter()
        .flat_map(|r| r.timeline().iter().copied())
        .collect();
    all.sort_unstable();
    for (bucket, tokens) in all {
        match merged.last_mut() {
            Some((b, n)) if *b == bucket => *n += tokens,
            _ => merged.push((bucket, tokens)),
        }
    }
    let bucket_s = plan.timeline_bucket_s;
    plan.faults
        .iter()
        .enumerate()
        .filter(|&(fi, _)| !unapplied[fi])
        .map(|(fi, f)| {
            let windows: Vec<FaultWindowStats> = tiers
                .iter()
                .enumerate()
                .map(|(ti, tier)| {
                    let (mut completed, mut met) = (0u64, 0u64);
                    for r in replicas {
                        if let Some(&(c, m)) = r.window_counts().get(fi).and_then(|w| w.get(ti)) {
                            completed += c;
                            met += m;
                        }
                    }
                    FaultWindowStats {
                        tier: tier.name.clone(),
                        completed,
                        met,
                    }
                })
                .collect();
            // Pre-fault rate: mean over the last (up to) 5 non-empty
            // buckets before the fault's bucket.
            let fault_bucket = (f.at_s / bucket_s) as u64;
            let pre: Vec<u64> = merged
                .iter()
                .filter(|&&(b, _)| b < fault_bucket)
                .map(|&(_, n)| n)
                .collect();
            let tail = pre.len().min(5);
            let pre_rate = if tail == 0 {
                0.0
            } else {
                pre[pre.len() - tail..].iter().sum::<u64>() as f64 / tail as f64
            };
            let recovered_at_s = merged
                .iter()
                .find(|&&(b, n)| b > fault_bucket && n as f64 >= plan.recovery_threshold * pre_rate)
                .map(|&(b, _)| b as f64 * bucket_s);
            FaultOutcome {
                at_s: f.at_s,
                replica: f.replica,
                kind: f.kind,
                recovered_at_s,
                // Never recovered inside the run: the remaining span is
                // the pessimistic, gateable stand-in.
                recovery_time_s: (recovered_at_s.unwrap_or(total_time_s) - f.at_s).max(0.0),
                windows,
            }
        })
        .collect()
}

/// Reject a snapshot that carries `state` runtime state while the
/// cluster lacks `config` (named with its article), or the reverse.
fn check_presence<C, S>(
    cluster: &Option<C>,
    snapshot: &Option<S>,
    config: &str,
    state: &str,
) -> Result<(), String> {
    match (cluster, snapshot) {
        (Some(_), None) => Err(format!(
            "the cluster has {config} but the snapshot has no {state} state"
        )),
        (None, Some(_)) => {
            let (_, bare) = config.split_once(' ').unwrap_or(("", config));
            Err(format!(
                "the snapshot has {state} state but the cluster has no {bare}"
            ))
        }
        _ => Ok(()),
    }
}

/// The outcome of a bounded cluster run
/// ([`ClusterSimulation::run_until`] /
/// [`ClusterSimulation::resume_until`]): either the run reached its
/// virtual-time bound and paused into a resumable [`ClusterSnapshot`],
/// or it drained first and produced the final [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
// One short-lived value per bounded run, never stored in bulk: the
// ~200-byte inline report is cheaper than boxing every Done match.
#[allow(clippy::large_enum_variant)]
pub enum ClusterRun {
    /// The fleet paused at the first merge point whose next event lies
    /// at or past the bound; resume with
    /// [`ClusterSimulation::resume`]. Boxed: a snapshot carries the
    /// whole fleet's state and dwarfs a [`ClusterReport`].
    Paused(Box<ClusterSnapshot>),
    /// The fleet drained (or hit every stage cap) before the bound.
    Done(ClusterReport),
}

impl ClusterRun {
    /// The final report, if the run finished.
    pub fn report(self) -> Option<ClusterReport> {
        match self {
            ClusterRun::Done(report) => Some(report),
            ClusterRun::Paused(_) => None,
        }
    }

    /// The pause snapshot, if the run hit its bound.
    pub fn snapshot(self) -> Option<ClusterSnapshot> {
        match self {
            ClusterRun::Paused(snapshot) => Some(*snapshot),
            ClusterRun::Done(_) => None,
        }
    }
}

/// A configured cluster run: N replicas over one scenario, ready for a
/// router, per-replica policies and per-replica executors.
#[derive(Debug)]
pub struct ClusterSimulation {
    configs: Vec<ReplicaConfig>,
    scenario: Scenario,
    kv_link: KvLinkSpec,
    faults: Option<FaultPlan>,
    autoscale: Option<AutoscalePolicy>,
    disagg: Option<DisaggPlan>,
}

impl ClusterSimulation {
    /// Bind a scenario to a fleet of replica configs. Under trace
    /// replay the request count is clamped to the trace length.
    pub fn new(configs: Vec<ReplicaConfig>, scenario: Scenario) -> Self {
        assert!(!configs.is_empty(), "a cluster needs at least one replica");
        Self {
            configs,
            scenario: scenario.normalized(),
            kv_link: KvLinkSpec::default(),
            faults: None,
            autoscale: None,
            disagg: None,
        }
    }

    /// Returns the simulation unchanged. Kept only for the benchmark
    /// package; goes in a later benchmark change.
    pub fn with_config(self, _cluster: ClusterConfig) -> Self {
        self
    }

    /// Price every cross-replica KV move over `link` instead of
    /// [`KvLinkSpec::default`]: router-requested migrations, fault-drain
    /// and scale-down handoffs, autoscale-join steals and
    /// disaggregated prefill→decode handoffs. A fleet has one KV
    /// interconnect; routers that weigh a migration should be built
    /// against the same link.
    pub fn with_kv_link(mut self, link: KvLinkSpec) -> Self {
        self.kv_link = link;
        self
    }

    /// Attach a deterministic fault script (crashes and drains)
    /// applied at the run's clock-merge points; the report
    /// then carries [`ClusterReport::recovery`] and
    /// [`ClusterReport::faults`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        for f in &plan.faults {
            assert!(
                f.replica < self.configs.len(),
                "fault targets replica {} of a {}-replica fleet",
                f.replica,
                self.configs.len()
            );
        }
        self.faults = Some(plan);
        self
    }

    /// Make the fleet elastic: replicas beyond the policy's
    /// `min_replicas` floor start parked in a standby pool, and the
    /// policy provisions / drains them from load at the run's
    /// clock-merge points. The report then carries
    /// [`ClusterReport::scaling`], and
    /// [`ClusterReport::replica_seconds`] reflects only the time
    /// replicas actually served.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        assert!(
            policy.min_replicas <= self.configs.len(),
            "autoscale floor {} exceeds the {}-replica fleet",
            policy.min_replicas,
            self.configs.len()
        );
        self.autoscale = Some(policy);
        self
    }

    /// Disaggregate the fleet into prefill and decode pools (see the
    /// module docs): the plan's replicas run prompts only and ship the
    /// finished KV over the fleet's KV link to decode replicas chosen at
    /// admission time. At least one replica must serve each pool.
    pub fn with_disagg(mut self, plan: DisaggPlan) -> Self {
        assert!(
            !plan.prefill_replicas.is_empty(),
            "a disaggregated fleet needs at least one prefill replica"
        );
        for &i in &plan.prefill_replicas {
            assert!(
                i < self.configs.len(),
                "disagg plan targets replica {i} of a {}-replica fleet",
                self.configs.len()
            );
        }
        let distinct: std::collections::BTreeSet<usize> =
            plan.prefill_replicas.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            plan.prefill_replicas.len(),
            "disagg plan lists a prefill replica twice"
        );
        assert!(
            distinct.len() < self.configs.len(),
            "a disaggregated fleet needs at least one decode replica"
        );
        self.disagg = Some(plan);
        self
    }

    /// Replicas in the fleet.
    pub fn replica_count(&self) -> usize {
        self.configs.len()
    }

    /// Run the fleet to completion (or every replica's stage cap).
    /// `policies` and `executors` are indexed like the replica configs
    /// and must match their length.
    ///
    /// # Panics
    ///
    /// Panics when `policies` or `executors` does not hold one entry
    /// per replica.
    pub fn run<E: StageExecutor>(
        &self,
        router: &mut dyn Router,
        policies: &mut [Box<dyn SchedulingPolicy>],
        executors: &mut [E],
    ) -> ClusterReport {
        match self.run_inner(router, policies, executors, None, None) {
            Ok(ClusterRun::Done(report)) => report,
            Ok(ClusterRun::Paused(_)) => unreachable!("an unbounded run never pauses"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Run until the first merge point whose next event (stage start
    /// or arrival) lies at or past `stop_s` virtual seconds: every
    /// event strictly before the bound executes, then the fleet pauses
    /// into a [`ClusterSnapshot`]. Returns
    /// [`ClusterRun::Done`] when the fleet drains first.
    ///
    /// Pausing and [`resume`](Self::resume)-ing is **byte-identical**
    /// to the uninterrupted [`run`](Self::run) — same RNG draws, same
    /// routing, same final report to the bit (asserted by the
    /// integration tests) — because snapshots capture the complete
    /// dynamic state at a merge point of the clock-merge protocol.
    ///
    /// # Panics
    ///
    /// Panics like [`run`](Self::run) on mismatched `policies` or
    /// `executors`.
    pub fn run_until<E: StageExecutor>(
        &self,
        router: &mut dyn Router,
        policies: &mut [Box<dyn SchedulingPolicy>],
        executors: &mut [E],
        stop_s: f64,
    ) -> ClusterRun {
        self.run_inner(router, policies, executors, None, Some(stop_s))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Continue a paused run to completion. The cluster, scenario,
    /// router kind, fault plan and policies must match the run that
    /// produced the snapshot; `executors` must be *freshly built*
    /// (their carried batch state is restored from the snapshot).
    /// Snapshots whose shape does not match this cluster (replica
    /// count, tier set, fault plan) are rejected with a descriptive
    /// error, and so are `policies` or `executors` without one entry
    /// per replica.
    pub fn resume<E: StageExecutor>(
        &self,
        snapshot: &ClusterSnapshot,
        router: &mut dyn Router,
        policies: &mut [Box<dyn SchedulingPolicy>],
        executors: &mut [E],
    ) -> Result<ClusterReport, String> {
        match self.run_inner(router, policies, executors, Some(snapshot), None)? {
            ClusterRun::Done(report) => Ok(report),
            ClusterRun::Paused(_) => unreachable!("an unbounded resume never pauses"),
        }
    }

    /// Continue a paused run until a further bound (see
    /// [`run_until`](Self::run_until)); a run may pause and resume any
    /// number of times. Mismatched snapshots, policies and executors
    /// are rejected like in [`resume`](Self::resume).
    pub fn resume_until<E: StageExecutor>(
        &self,
        snapshot: &ClusterSnapshot,
        router: &mut dyn Router,
        policies: &mut [Box<dyn SchedulingPolicy>],
        executors: &mut [E],
        stop_s: f64,
    ) -> Result<ClusterRun, String> {
        self.run_inner(router, policies, executors, Some(snapshot), Some(stop_s))
    }

    /// Check a snapshot's shape against this cluster and restore the
    /// control plane from it, before anything outside them is
    /// touched (the replica imports that follow assume the checked
    /// shape). `policies` is the resuming run's: preemption-armed
    /// policies carry a parked pool the scenario alone would not predict.
    fn restore_control_plane(
        &self,
        snap: &ClusterSnapshot,
        policies: &[Box<dyn SchedulingPolicy>],
        mut plane: Option<&mut ControlPlane<'_>>,
        disagg_rt: Option<&mut DisaggRuntime<'_>>,
    ) -> Result<(), String> {
        if snap.replicas.len() != self.configs.len() {
            return Err(format!(
                "snapshot has {} replicas, the cluster has {}",
                snap.replicas.len(),
                self.configs.len()
            ));
        }
        check_presence(
            &self.disagg,
            &snap.disagg,
            "a disaggregation plan",
            "disagg",
        )?;
        let tier_count = self.scenario.tiers.len();
        // Untiered scenarios put every request in tier 0.
        let bad_tier = |p: &PendingRequest| {
            (p.tier >= tier_count.max(1)).then(|| {
                let (id, tier) = (p.request.id, p.tier);
                format!("request {id} has SLO tier {tier}, the scenario has {tier_count}")
            })
        };
        if let Some(e) = snap.stream.followups.iter().find_map(bad_tier) {
            return Err(format!("stream: queued {e}"));
        }
        // Every carried time is checked against the pause, so the pause
        // itself must be a time; the replica clocks below pin it down.
        if !(snap.taken_at_s.is_finite() && snap.taken_at_s >= 0.0) {
            return Err(format!(
                "the pause at {:e} s is not a finite, non-negative time",
                snap.taken_at_s
            ));
        }
        let stream = &snap.stream;
        check_clock(stream.source_clock, snap.taken_at_s, 0.0)
            .map_err(|e| format!("stream: source clock {e}"))?;
        check_clock(stream.source_phase_until, snap.taken_at_s, 0.0)
            .map_err(|e| format!("stream: source phase end {e}"))?;
        let queued = stream
            .peeked
            .iter()
            .chain(stream.followups.iter().map(|f| &f.request));
        for r in queued {
            check_clock(r.arrival_s, snap.taken_at_s, 0.0)
                .map_err(|e| format!("stream: request {} arrival {e}", r.id))?;
        }
        let fault_count = self.faults.as_ref().map_or(0, |p| p.faults.len());
        for (i, s) in snap.replicas.iter().enumerate() {
            if let Some(e) = s.carried().find_map(bad_tier) {
                return Err(format!("replica {i}: {e}"));
            }
            check_clock(s.clock, snap.taken_at_s, 0.0)
                .map_err(|e| format!("replica {i}: clock {e}"))?;
            // The fleet pauses only when its next stage starts at or
            // after the pause, and a replica with work starts its next
            // stage at its clock.
            let sim = &self.configs[i].sim;
            if s.would_start(sim.max_stages) && s.clock < snap.taken_at_s {
                return Err(format!(
                    "replica {i}: clock {:e} s is behind the pause at {:e} s, with work to run",
                    s.clock, snap.taken_at_s
                ));
            }
            for (p, what, t) in s.carried_times() {
                check_clock(t, snap.taken_at_s, 0.0)
                    .map_err(|e| format!("replica {i}: request {} {what} {e}", p.request.id))?;
            }
            if s.tiers.len() != tier_count {
                return Err(format!(
                    "replica {i}: snapshot has {} SLO tiers, the scenario has {tier_count}",
                    s.tiers.len()
                ));
            }
            // Decode-pool replicas carry a parked pool even in
            // single-shot scenarios (it receives prefill handoffs), and
            // so does any replica whose policy arms preemption (the
            // pool receives swapped-out paused contexts).
            let role = self
                .disagg
                .as_ref()
                .map_or(PoolRole::Colocated, |plan| plan.role_of(i));
            let expects_parked = self.scenario.conversation.is_some()
                || role == PoolRole::Decode
                || policies.get(i).is_some_and(|p| p.preempt_spec().is_some());
            if s.parked.is_some() != expects_parked {
                return Err(format!(
                    "replica {i}: snapshot parked-KV state does not match the scenario"
                ));
            }
            if s.window_counts.len() != fault_count {
                return Err(format!(
                    "replica {i}: snapshot has {} fault windows, the plan has {fault_count}",
                    s.window_counts.len()
                ));
            }
            if let Some(w) = s.window_counts.iter().find(|w| w.len() != tier_count) {
                return Err(format!(
                    "replica {i}: a fault window has {} tier slots, the scenario has {tier_count}",
                    w.len()
                ));
            }
            if !s.batch_matches_decode_set() {
                return Err(format!(
                    "replica {i}: the executor checkpoint does not match the decoding requests"
                ));
            }
            let resum = kv_reservation(
                s.active.iter().map(|a| &a.pending),
                &s.chunking,
                &s.mux,
                role,
                sim.kv_bytes_per_token,
            );
            if resum != Some(s.reserved) || s.reserved > sim.kv_capacity_bytes {
                return Err(format!(
                    "replica {i}: the snapshot KV reservation does not match the in-flight requests"
                ));
            }
            let mut digests = std::iter::once(&s.tbt_digest).chain(s.tiers.iter().map(|t| &t.tbt));
            if digests.any(|d| d.buckets.iter().any(|b| b.0 >= DIGEST_BUCKETS as u64)) {
                return Err(format!(
                    "replica {i}: a snapshot latency digest has a bucket index out of range"
                ));
            }
        }
        check_presence(&self.faults, &snap.fault, "a fault plan", "fault")?;
        check_presence(
            &self.autoscale,
            &snap.autoscale,
            "an autoscale policy",
            "autoscale",
        )?;
        if let Some(p) = plane.as_deref_mut() {
            p.import_state(
                snap.fault.as_ref(),
                snap.autoscale.as_ref(),
                snap.taken_at_s,
            )?;
        }
        // Only a drain some section owns can ever complete.
        for (i, s) in snap.replicas.iter().enumerate() {
            if s.draining && plane.as_deref().is_none_or(|p| p.drains[i].is_none()) {
                return Err(format!(
                    "replica {i}: marked draining, but neither the fault nor the autoscale state owns its drain"
                ));
            }
        }
        if let (Some(rt), Some(d)) = (disagg_rt, &snap.disagg) {
            rt.import_state(d, self.configs.len())?;
        }
        Ok(())
    }

    fn run_inner<E: StageExecutor>(
        &self,
        router: &mut dyn Router,
        policies: &mut [Box<dyn SchedulingPolicy>],
        executors: &mut [E],
        start: Option<&ClusterSnapshot>,
        stop_s: Option<f64>,
    ) -> Result<ClusterRun, String> {
        let configs = &self.configs;
        if policies.len() != configs.len() {
            return Err(format!(
                "one scheduling policy per replica: {} policies for {} replicas",
                policies.len(),
                configs.len()
            ));
        }
        if executors.len() != configs.len() {
            return Err(format!(
                "one executor per replica: {} executors for {} replicas",
                executors.len(),
                configs.len()
            ));
        }
        let mut stream = ScenarioStream::new(&self.scenario);
        let mut replicas: Vec<ReplicaSim> = configs
            .iter()
            .map(|c| ReplicaSim::new(c.sim, &self.scenario))
            .collect();
        if let Some(plan) = &self.disagg {
            // Roles are static configuration: assigned before any
            // stepping or snapshot import.
            for (i, replica) in replicas.iter_mut().enumerate() {
                replica.set_role(plan.role_of(i));
            }
        }
        // Preemption is armed before any stepping or snapshot import:
        // resumes need announced decode-join contexts and a parked
        // pool from the very first stage (and an imported snapshot may
        // already carry paused state).
        for (replica, policy) in replicas.iter_mut().zip(policies.iter()) {
            replica.prepare_preempt(policy.as_ref());
        }
        let mut disagg_rt = self.disagg.as_ref().map(DisaggRuntime::new);
        let mut stats = RecoveryStats::default();
        if let Some(plan) = &self.faults {
            let windows: Vec<(f64, f64)> = plan
                .faults
                .iter()
                .map(|f| (f.at_s, f.at_s + plan.slo_window_s))
                .collect();
            for r in replicas.iter_mut() {
                r.set_fault_recording(windows.clone(), plan.timeline_bucket_s);
            }
        }
        let mut plane = ControlPlane::new(
            self.faults.as_ref(),
            self.autoscale.as_ref(),
            configs.len(),
            self.kv_link,
        );
        if let Some(snap) = start {
            self.restore_control_plane(snap, policies, plane.as_mut(), disagg_rt.as_mut())?;
            stream.import_state(&snap.stream);
            router.import_state(&snap.router);
            stats = snap.stats;
            for ((replica, state), executor) in replicas
                .iter_mut()
                .zip(&snap.replicas)
                .zip(executors.iter_mut())
            {
                replica.import_state(state);
                if let Some(batch) = &state.batch {
                    executor.import_batch(batch);
                }
            }
        } else if let Some(a) = plane.as_ref().and_then(|p| p.scaler.as_ref()) {
            // Fresh elastic start: everything beyond the floor begins
            // parked in the standby pool.
            for (i, replica) in replicas.iter_mut().enumerate() {
                if a.pool[i] {
                    replica.deactivate();
                }
            }
        }
        let mut snapshots: Vec<ReplicaSnapshot> = Vec::with_capacity(replicas.len());

        loop {
            // ---- control-plane boundary, at the merge point ----
            // Apply every due fault and scale event and complete every
            // finished drain before anything observes the fleet.
            if let Some(p) = plane.as_mut() {
                p.process_boundary(&mut stream, configs, &mut replicas, &mut stats);
            }
            let limit = plane.as_ref().and_then(|p| p.queue.next_at());
            // ---- pause check, at the merge-point boundary ----
            // Peeking the arrival time here draws the same source
            // request the upcoming dispatch would peek, so the stream
            // state a snapshot captures is on the uninterrupted run's
            // draw order.
            if let Some(stop) = stop_s {
                let next_event = earliest(
                    [
                        fleet_next_start(&replicas),
                        stream.next_arrival_time(),
                        limit,
                    ]
                    .into_iter()
                    .flatten(),
                );
                if next_event.is_some_and(|t| t >= stop) {
                    let states = replicas
                        .iter()
                        .zip(executors.iter())
                        .map(|(r, e)| {
                            let mut state = r.export_state();
                            state.batch = e.export_batch();
                            state
                        })
                        .collect();
                    return Ok(ClusterRun::Paused(Box::new(ClusterSnapshot {
                        taken_at_s: stop,
                        router: router.export_state(),
                        stream: stream.export_state(),
                        replicas: states,
                        stats,
                        fault: plane.as_ref().and_then(ControlPlane::export_fault),
                        autoscale: plane.as_ref().and_then(ControlPlane::export_autoscale),
                        disagg: disagg_rt.as_ref().map(DisaggRuntime::export_state),
                    })));
                }
            }
            // ---- dispatch: route every arrival due by the fleet's next stage ----
            dispatch_arrivals(
                &mut stream,
                router,
                configs,
                &mut replicas,
                &mut snapshots,
                limit,
                self.kv_link,
                &mut stats,
                disagg_rt.as_mut(),
            );
            if !replicas.iter().any(|r| r.next_start().is_some()) {
                // No replica has a next stage: the fleet drained,
                // truncated, or is fully down. A fully-down fleet holds
                // its arrivals instead of stepping: keep looping while
                // the control plane can still deliver them (pending
                // events, or a finished drain whose completion unblocks
                // the run).
                let can_progress = plane.as_ref().is_some_and(|p| p.can_progress(&replicas));
                if can_progress && stream.next_arrival_time().is_some() {
                    continue;
                }
                break;
            }
            // ---- window: every replica steps to the next global sync point ----
            // After dispatch the next arrival (if any) is strictly later
            // than the fleet's earliest stage start, so at least one
            // replica steps: every round makes progress. Two control-plane
            // wrinkles: windows never run past `limit` (the next
            // control-plane event lands at that merge point), and a fully-down
            // fleet ignores its *held* arrivals (they may predate the
            // pending restart that will release them).
            let arrival = stream.next_arrival_time();
            let bound = if replicas.iter().any(ReplicaSim::is_admitting) {
                match (arrival, limit) {
                    (Some(a), Some(l)) => Some(a.min(l)),
                    (a, l) => a.or(l),
                }
            } else {
                limit
            };
            for ((r, p), e) in replicas
                .iter_mut()
                .zip(policies.iter_mut())
                .zip(executors.iter_mut())
            {
                r.run_window(bound, p.as_mut(), e);
            }
            // ---- merge: apply buffered events in replica-index order ----
            for r in replicas.iter_mut() {
                r.drain_retire_events(&mut stream);
            }
            if let Some(d) = disagg_rt.as_mut() {
                drain_handoffs(&mut stream, configs, &mut replicas, self.kv_link, d);
            }
        }

        // The fleet wall clock is the max replica clock (what each
        // report's `total_time_s` will be); billable replica time is
        // that span minus each replica's accumulated down time — pool
        // replicas that never served bill zero.
        let total_time_s = replicas
            .iter()
            .map(ReplicaSim::clock)
            .fold(0.0f64, f64::max);
        let replica_seconds: f64 = replicas
            .iter()
            .map(|r| (total_time_s - r.down_seconds_until(total_time_s)).max(0.0))
            .sum();
        let fault_outcomes = plane.as_ref().map_or_else(Vec::new, |p| {
            compute_fault_outcomes(p, &replicas, &self.scenario.tiers, total_time_s)
        });
        let scaling = plane
            .and_then(|p| p.scaler)
            .map(|a| a.stats)
            .unwrap_or_default();
        let disagg = disagg_rt.map(|rt| rt.stats).unwrap_or_default();
        let reports: Vec<SimReport> = replicas.into_iter().map(ReplicaSim::into_report).collect();
        Ok(ClusterRun::Done(ClusterReport {
            replicas: reports,
            router: router.name().into(),
            total_time_s,
            recovery: stats,
            faults: fault_outcomes,
            replica_seconds,
            scaling,
            disagg,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, RetryPolicy};
    use crate::policy::PolicyKind;
    use crate::router::{
        KvMigration, LeastOutstandingWork, RoundRobin, RouterKind, SessionAffinity,
    };
    use crate::scenario::ConversationSpec;
    use crate::scheduler::StageOutcome;
    use crate::workload::{Arrivals, Workload};
    use duplex_model::ops::StageShape;

    #[derive(Clone, Copy)]
    struct Fixed(f64);
    impl StageExecutor for Fixed {
        fn execute(&mut self, _shape: &StageShape) -> StageOutcome {
            StageOutcome { seconds: self.0 }
        }
    }

    fn config(max_batch: usize) -> SimulationConfig {
        SimulationConfig {
            max_batch,
            ..SimulationConfig::default()
        }
    }

    fn policies(n: usize, kind: PolicyKind) -> Vec<Box<dyn SchedulingPolicy>> {
        (0..n).map(|_| kind.build()).collect()
    }

    /// Long decodes arriving on exact stage ends of a `Fixed(0.25)`
    /// replica (stage `k` ends at `0.25 * (k + 1)`): the fleet's window
    /// bound, the next arrival, equals the end of a quiet stage.
    fn on_stage_ends() -> Scenario {
        let trace = [
            (0.0, 30),
            (0.0, 40),
            (1.5, 25),
            (2.0, 30),
            (2.0, 12),
            (3.75, 20),
            (9.0, 8),
        ]
        .iter()
        .map(|&(arrival_s, output_len)| crate::trace::TraceRequest {
            arrival_s,
            input_len: 4,
            output_len,
        })
        .collect();
        Scenario::new(
            "stage-ends",
            Workload::fixed(4, 4),
            Arrivals::trace(trace),
            7,
        )
        .with_tiers(Scenario::default_tiers(0.01))
    }

    #[test]
    fn single_replica_cluster_is_router_independent() {
        let chat = Scenario::new(
            "solo",
            Workload::gaussian(96, 10).with_seed(7),
            Arrivals::Poisson { qps: 300.0 },
            25,
        )
        .with_conversation(ConversationSpec::chat(0.7, 3, 0.01, 24))
        .with_tiers(Scenario::default_tiers(0.01));
        for (scenario, stage_s) in [(chat, 0.01), (on_stage_ends(), 0.25)] {
            let run = |kind: RouterKind| {
                ClusterSimulation::new(vec![ReplicaConfig::new(config(4))], scenario.clone()).run(
                    kind.build().as_mut(),
                    &mut policies(1, PolicyKind::PriorityTiers),
                    &mut [Fixed(stage_s)],
                )
            };
            let base = run(RouterKind::RoundRobin);
            assert_eq!(base.replicas.len(), 1);
            let solo = &base.replicas[0];
            assert!(!solo.completed.is_empty());
            if let Some(joiner) = solo.completed.iter().find(|r| r.request.arrival_s == 1.5) {
                // A slot is free, so the 1.5 s arrival joins the stage
                // starting on it: the run before stops at its bound.
                assert_eq!(joiner.first_token_s, 1.75);
            }
            // One replica leaves a router nothing to choose: every
            // router gives the same report, to the bit.
            for kind in RouterKind::ALL {
                let cluster = run(kind);
                let r = &cluster.replicas[0];
                let case = format!("{} under {}", scenario.name, kind.name());
                assert_eq!(r, solo, "{case}");
                assert_eq!(r.total_time_s.to_bits(), solo.total_time_s.to_bits());
                assert_eq!(cluster.total_time_s.to_bits(), base.total_time_s.to_bits());
                assert_eq!(cluster.completed(), solo.completed.len());
            }
        }
    }

    #[test]
    fn a_stop_inside_a_run_of_quiet_stages_resumes_bit_for_bit() {
        // Two replicas on the stage-end trace. Each stop lands while a
        // replica is inside a run of quiet stages (2.1 s between the
        // 2.0 s arrivals and the next one, 5.1 s and 7.6 s in the long
        // tail before the 9 s arrival).
        let sim =
            || ClusterSimulation::new(vec![ReplicaConfig::new(config(2)); 2], on_stage_ends());
        let full = sim().run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::PriorityTiers),
            &mut [Fixed(0.25); 2],
        );
        for stop in [2.1, 5.1, 7.6] {
            let snap = sim()
                .run_until(
                    &mut RoundRobin::default(),
                    &mut policies(2, PolicyKind::PriorityTiers),
                    &mut [Fixed(0.25); 2],
                    stop,
                )
                .snapshot()
                .expect("the stop lands mid-run");
            let snap = ClusterSnapshot::from_json(&snap.to_json()).expect("round-trips");
            let resumed = sim()
                .resume(
                    &snap,
                    &mut RoundRobin::default(),
                    &mut policies(2, PolicyKind::PriorityTiers),
                    &mut [Fixed(0.25); 2],
                )
                .expect("resumes");
            assert_eq!(resumed, full, "stop at {stop}");
        }
    }

    #[test]
    fn fleet_serves_everything_and_spreads_load() {
        let scenario = Scenario::new(
            "fleet",
            Workload::fixed(64, 8).with_seed(3),
            Arrivals::Poisson { qps: 2000.0 },
            80,
        );
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 4], scenario).run(
            &mut RoundRobin::default(),
            &mut policies(4, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 4],
        );
        assert_eq!(report.completed(), 80);
        // Round-robin spreads a uniform stream exactly evenly.
        for r in &report.replicas {
            assert_eq!(r.completed.len(), 20);
        }
        assert!((report.load_imbalance() - 1.0).abs() < 0.05);
        // Fleet totals are sums of replica totals.
        assert_eq!(
            report.generated_tokens(),
            report.replicas.iter().map(|r| r.generated_tokens()).sum()
        );
        assert_eq!(report.stage_stats().stages, report.stages());
        assert!(report.total_time_s > 0.0);
        assert!(report.generation_throughput() > 0.0);
        assert_eq!(report.tbt_digest().count(), report.tbt().count as u64);
    }

    #[test]
    fn least_outstanding_absorbs_a_slow_replica() {
        // One replica is 8x slower. JSQ steers work away from it;
        // round-robin keeps feeding it and strands a deep queue.
        let scenario = || {
            Scenario::new(
                "skewed",
                Workload::fixed(64, 8).with_seed(5),
                Arrivals::Poisson { qps: 600.0 },
                60,
            )
        };
        let configs = vec![ReplicaConfig::new(config(4)); 2];
        let mut slow_fast = [Fixed(0.08), Fixed(0.01)];
        let rr = ClusterSimulation::new(configs.clone(), scenario()).run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Fcfs),
            &mut slow_fast,
        );
        let jsq = ClusterSimulation::new(configs, scenario()).run(
            &mut LeastOutstandingWork,
            &mut policies(2, PolicyKind::Fcfs),
            &mut slow_fast,
        );
        assert_eq!(rr.completed(), 60);
        assert_eq!(jsq.completed(), 60);
        // JSQ finishes the backlog sooner and sends more work to the
        // fast replica.
        assert!(
            jsq.total_time_s < rr.total_time_s,
            "jsq {} vs rr {}",
            jsq.total_time_s,
            rr.total_time_s
        );
        assert!(jsq.replicas[1].completed.len() > rr.replicas[1].completed.len());
    }

    #[test]
    fn session_affinity_reuses_kv_where_round_robin_cannot() {
        // Multi-turn conversations across 4 replicas: round-robin
        // scatters follow-ups away from their parked KV (reuse misses),
        // affinity pins them (reuse hits).
        let scenario = || {
            Scenario::new(
                "chat",
                Workload::fixed(96, 8).with_seed(11),
                Arrivals::Poisson { qps: 400.0 },
                24,
            )
            .with_conversation(ConversationSpec::chat(1.0, 3, 0.02, 16))
        };
        let configs = vec![ReplicaConfig::new(config(4)); 4];
        let run = |router: &mut dyn Router| {
            ClusterSimulation::new(configs.clone(), scenario()).run(
                router,
                &mut policies(4, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 4],
            )
        };
        let rr = run(&mut RoundRobin::default());
        let aff = run(&mut SessionAffinity::default());
        assert_eq!(rr.completed(), 72, "3 rounds x 24 conversations");
        assert_eq!(aff.completed(), 72);
        let (rr_kv, aff_kv) = (rr.kv_reuse(), aff.kv_reuse());
        assert!(
            aff_kv.reuse_fraction() > rr_kv.reuse_fraction() + 0.15,
            "affinity {:?} vs round-robin {:?}",
            aff_kv,
            rr_kv
        );
        assert!(aff_kv.reuse_hits > rr_kv.reuse_hits);
    }

    #[test]
    fn router_migrations_are_priced_over_the_fleet_kv_link() {
        // A hot two-replica chat fleet with no faults: the migration
        // router diverts follow-ups off their saturated holder and
        // ships the parked KV along, over the link the fleet was given
        // (not the default one).
        let link = KvLinkSpec::new(1e9, 1e-3);
        let cfg = SimulationConfig {
            kv_bytes_per_token: 1000,
            ..config(2)
        };
        let scenario = Scenario::new(
            "migrate",
            Workload::fixed(96, 8).with_seed(11),
            Arrivals::Poisson { qps: 2000.0 },
            24,
        )
        .with_conversation(ConversationSpec::chat(1.0, 3, 0.001, 16));
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(cfg); 2], scenario)
            .with_kv_link(link)
            .run(
                &mut KvMigration::new(link, 1000, 1e4),
                &mut policies(2, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 2],
            );
        let r = report.recovery;
        assert!(r.kv_migrations > 0, "{r:?}");
        let expected = r.kv_bytes_migrated as f64 / 1e9 + r.kv_migrations as f64 * 1e-3;
        assert!(
            (r.migration_seconds - expected).abs() <= 1e-12 * expected,
            "{} s priced, {expected} s over the fleet link",
            r.migration_seconds
        );
    }

    #[test]
    fn heterogeneous_configs_and_weights_flow_through() {
        // A fleet with different batch sizes per replica: the bigger
        // replica absorbs more of a closed-loop backlog under JSQ.
        let configs = vec![
            ReplicaConfig::new(config(8)).with_weight(2.0),
            ReplicaConfig::new(config(2)),
        ];
        let scenario = Scenario::new(
            "hetero",
            Workload::fixed(32, 6).with_seed(9),
            Arrivals::Poisson { qps: 5000.0 },
            60,
        );
        let report = ClusterSimulation::new(configs, scenario).run(
            &mut LeastOutstandingWork,
            &mut policies(2, PolicyKind::Fcfs),
            &mut [Fixed(0.01), Fixed(0.01)],
        );
        assert_eq!(report.completed(), 60);
        assert!(report.replicas[0].completed.len() > report.replicas[1].completed.len());
    }

    #[test]
    fn stale_parked_prefixes_are_credited_at_their_own_length() {
        // One 3-round conversation over 2 replicas under round-robin:
        // round 1 parks 68 tokens on replica 0, round 2 runs (and
        // parks 88) on replica 1, round 3 returns to replica 0 where
        // only the stale 68-token *prefix* is resident. The reuse
        // credit must be those 68 tokens — not the 88 the request
        // carries as history — and the prefill must cover the rest.
        let scenario = Scenario::new(
            "stale",
            Workload::fixed(64, 4).with_seed(1),
            Arrivals::ClosedLoop,
            1,
        )
        .with_conversation(ConversationSpec::chat(1.0, 3, 0.001, 16));
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario).run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 2],
        );
        assert_eq!(report.completed(), 3);
        let kv = report.kv_reuse();
        assert_eq!(kv.reuse_hits, 1, "round 3 finds the stale prefix");
        assert_eq!(kv.reuse_misses, 1, "round 2 finds nothing on replica 1");
        assert_eq!(kv.reused_prefill_tokens, 68, "stale prefix length, not 88");
        // Prefills: 64 (round 1) + 84 (round 2, full) + 104 - 68
        // (round 3 suffix over the stale prefix).
        assert_eq!(kv.prefilled_tokens, 64 + 84 + 36);
    }

    #[test]
    fn capped_replicas_stop_receiving_arrivals() {
        // Replica 0 is stage-capped from the start (a failed node):
        // the routers must steer every arrival to the live replica
        // instead of stranding work in a dead inbox.
        let capped = SimulationConfig {
            max_stages: 0,
            ..config(4)
        };
        let scenario = Scenario::new(
            "failover",
            Workload::fixed(32, 4).with_seed(5),
            Arrivals::Poisson { qps: 500.0 },
            20,
        );
        let report = ClusterSimulation::new(
            vec![ReplicaConfig::new(capped), ReplicaConfig::new(config(4))],
            scenario,
        )
        .run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 2],
        );
        assert_eq!(report.completed(), 20, "nothing strands on the dead node");
        assert_eq!(report.replicas[0].stage_stats.stages, 0);
        assert_eq!(report.replicas[1].completed.len(), 20);
    }

    #[test]
    fn cluster_respects_per_replica_stage_caps() {
        let capped = SimulationConfig {
            max_stages: 3,
            ..config(2)
        };
        let scenario = Scenario::new(
            "capped",
            Workload::fixed(16, 50).with_seed(1),
            Arrivals::ClosedLoop,
            8,
        );
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(capped); 2], scenario).run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 2],
        );
        // Both replicas truncate at their cap; nothing completes (50
        // output tokens need 50 stages) and the run still terminates.
        assert_eq!(report.completed(), 0);
        assert_eq!(report.stages(), 6);
    }

    #[test]
    fn merged_slo_covers_every_replica() {
        let scenario = Scenario::new(
            "tiered",
            Workload::fixed(48, 8).with_seed(2),
            Arrivals::Poisson { qps: 800.0 },
            40,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario).run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::PriorityTiers),
            &mut [Fixed(0.01); 2],
        );
        let slo = report.slo();
        assert_eq!(slo.tiers.len(), 3);
        assert_eq!(slo.completed(), 40);
        assert!(report.slo_attainment() > 0.0);
        assert!(report.goodput_tokens_per_s() > 0.0);
        // The merged tier digests hold both replicas' gap populations.
        let per_replica: u64 = report
            .replicas
            .iter()
            .flat_map(|r| r.slo.tiers.iter().map(|t| t.tbt_digest.count()))
            .sum();
        let merged: u64 = slo.tiers.iter().map(|t| t.tbt_digest.count()).sum();
        assert_eq!(per_replica, merged);
    }

    #[test]
    fn a_run_without_faults_reports_zeroed_recovery() {
        let scenario = Scenario::new(
            "calm",
            Workload::fixed(48, 8).with_seed(2),
            Arrivals::Poisson { qps: 800.0 },
            20,
        );
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario).run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 2],
        );
        assert_eq!(report.recovery, RecoveryStats::default());
        assert!(report.faults.is_empty());
        assert_eq!(report.recovery_time_s(), 0.0);
    }

    #[test]
    fn a_crash_retries_lost_requests_and_the_fleet_still_completes() {
        let scenario = Scenario::new(
            "crashy",
            Workload::fixed(64, 8).with_seed(3),
            Arrivals::Poisson { qps: 800.0 },
            40,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let plan = FaultPlan::new(vec![FaultEvent::new(
            0.05,
            0,
            FaultKind::Crash { down_s: 0.1 },
        )])
        .with_recovery_tracking(0.7, 0.02, 0.5);
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario)
            .with_faults(plan)
            .run(
                &mut RoundRobin::default(),
                &mut policies(2, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 2],
            );
        assert_eq!(report.recovery.faults_injected, 1);
        assert!(report.recovery.requests_lost > 0, "{:?}", report.recovery);
        assert_eq!(
            report.recovery.retries_issued, report.recovery.requests_lost,
            "one crash cannot exhaust a 3-retry budget"
        );
        assert_eq!(report.recovery.requests_dropped, 0);
        // Every lost request is retried to completion.
        assert_eq!(report.completed(), 40);
        assert_eq!(report.faults.len(), 1);
        assert!(report.recovery_time_s() >= 0.0);
        assert!(!report.faults[0].windows.is_empty());
    }

    #[test]
    fn an_exhausted_retry_budget_drops_the_lost_requests() {
        let scenario = Scenario::new(
            "lossy",
            Workload::fixed(64, 8).with_seed(3),
            Arrivals::Poisson { qps: 800.0 },
            40,
        );
        let plan = FaultPlan::new(vec![FaultEvent::new(
            0.05,
            0,
            FaultKind::Crash { down_s: 0.1 },
        )])
        .with_retry(RetryPolicy::new(0));
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario)
            .with_faults(plan)
            .run(
                &mut RoundRobin::default(),
                &mut policies(2, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 2],
            );
        assert!(report.recovery.requests_dropped > 0);
        assert_eq!(report.recovery.retries_issued, 0);
        assert_eq!(
            report.completed() as u64,
            40 - report.recovery.requests_dropped
        );
    }

    #[test]
    fn a_drain_hands_parked_kv_to_the_surviving_replica() {
        let scenario = Scenario::new(
            "drained",
            Workload::gaussian(96, 10).with_seed(7),
            Arrivals::Poisson { qps: 400.0 },
            30,
        )
        .with_conversation(ConversationSpec::chat(0.7, 3, 0.01, 24));
        let plan = FaultPlan::new(vec![FaultEvent::new(
            0.06,
            0,
            FaultKind::Drain { down_s: 0.05 },
        )]);
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario)
            .with_faults(plan)
            .run(
                &mut SessionAffinity::default(),
                &mut policies(2, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 2],
            );
        // A graceful drain loses nothing: displaced queue entries are
        // re-routed and parked KV is handed to the surviving replica.
        assert_eq!(report.recovery.requests_lost, 0);
        assert_eq!(report.recovery.requests_dropped, 0);
        assert!(
            report.recovery.kv_migrations > 0,
            "the drained replica held parked KV: {:?}",
            report.recovery
        );
        assert!(report.recovery.kv_bytes_migrated > 0);
        assert!(report.recovery.migration_seconds > 0.0);
        assert!(report.completed() > 0);
    }

    #[test]
    fn an_autoscaled_fleet_provisions_under_pressure_and_bills_less() {
        let scenario = Scenario::new(
            "elastic",
            Workload::fixed(48, 8).with_seed(11),
            Arrivals::Poisson { qps: 900.0 },
            60,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let policy = AutoscalePolicy::new(1)
            .with_pressure(1.0, 0.2)
            .with_cadence(0.02, 1, 3)
            .with_cooldown(0.0)
            .with_provisioning(0.02, 0.02, 2.0);
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 3], scenario)
            .with_autoscale(policy)
            .run(
                &mut LeastOutstandingWork,
                &mut policies(3, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 3],
            );
        assert_eq!(report.completed(), 60);
        assert!(report.scaling.scale_ups >= 1, "{:?}", report.scaling);
        assert!(
            report.scaling.scale_up_lag_s > 0.0,
            "detection + provisioning take time: {:?}",
            report.scaling
        );
        // Pool replicas bill nothing until they join, so an elastic
        // fleet always undercuts replicas x wall-clock...
        assert!(
            report.replica_seconds < 3.0 * report.total_time_s,
            "{} vs {}",
            report.replica_seconds,
            3.0 * report.total_time_s
        );
        // ...while the floor replica serves the whole run.
        assert!(report.replica_seconds >= report.total_time_s);
    }

    #[test]
    fn scale_downs_never_take_the_fleet_below_the_floor() {
        let scenario = Scenario::new(
            "becalmed",
            Workload::fixed(32, 4).with_seed(13),
            Arrivals::Poisson { qps: 40.0 },
            30,
        );
        // Down votes fire from the first evaluation: the pressure is
        // far below 1.0 and the occupancy ceiling accepts anything.
        let policy = AutoscalePolicy::new(2)
            .with_pressure(5.0, 1.0)
            .with_down_occupancy(1.0)
            .with_cadence(0.05, 2, 1)
            .with_cooldown(0.0);
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 4], scenario)
            .with_autoscale(policy)
            .run(
                &mut RoundRobin::default(),
                &mut policies(4, PolicyKind::Fcfs),
                &mut [Fixed(0.005); 4],
            );
        assert_eq!(report.completed(), 30);
        // Two replicas serve (the floor), two stay parked; with the
        // fleet already at the floor no scale-down may fire.
        assert_eq!(report.scaling.scale_downs, 0, "{:?}", report.scaling);
        assert_eq!(report.scaling.scale_ups, 0);
        assert!(report.replica_seconds <= 2.0 * report.total_time_s + 1e-9);
    }

    #[test]
    fn a_quiet_tail_drains_surplus_replicas_back_to_the_pool() {
        let scenario = Scenario::new(
            "spike-then-idle",
            Workload::fixed(48, 8).with_seed(17),
            Arrivals::Poisson { qps: 2000.0 },
            80,
        );
        let policy = AutoscalePolicy::new(1)
            .with_pressure(1.2, 0.5)
            .with_down_occupancy(1.0)
            .with_cadence(0.01, 1, 3)
            .with_cooldown(0.0)
            .with_provisioning(0.01, 0.0, 1.0);
        let report = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario)
            .with_autoscale(policy)
            .run(
                &mut LeastOutstandingWork,
                &mut policies(2, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 2],
            );
        assert_eq!(report.completed(), 80);
        assert!(report.scaling.scale_ups >= 1, "{:?}", report.scaling);
        assert!(
            report.scaling.scale_downs >= 1,
            "the tail goes quiet long enough to drain the joiner: {:?}",
            report.scaling
        );
    }

    #[test]
    fn a_mid_scale_event_snapshot_resumes_bit_for_bit() {
        let scenario = || {
            Scenario::new(
                "elastic-pause",
                Workload::fixed(48, 8).with_seed(23),
                Arrivals::Poisson { qps: 900.0 },
                60,
            )
            .with_tiers(Scenario::default_tiers(0.01))
        };
        let sim = || {
            ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 3], scenario())
                .with_autoscale(
                    AutoscalePolicy::new(1)
                        .with_pressure(1.0, 0.2)
                        .with_cadence(0.02, 1, 3)
                        .with_cooldown(0.0)
                        .with_provisioning(0.03, 0.02, 2.0),
                )
        };
        let full = sim().run(
            &mut RoundRobin::default(),
            &mut policies(3, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 3],
        );
        let mut paused_at_least_once = false;
        for stop in [0.03, 0.06, 0.12, 0.3] {
            let run = sim().run_until(
                &mut RoundRobin::default(),
                &mut policies(3, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 3],
                stop,
            );
            let Some(snap) = run.snapshot() else {
                continue; // drained before this bound
            };
            paused_at_least_once = true;
            // Through JSON and back: the v3 document carries the
            // autoscale runtime too.
            let snap = ClusterSnapshot::from_json(&snap.to_json()).expect("round-trips");
            let resumed = sim()
                .resume(
                    &snap,
                    &mut RoundRobin::default(),
                    &mut policies(3, PolicyKind::Fcfs),
                    &mut [Fixed(0.01); 3],
                )
                .expect("resumes");
            assert_eq!(resumed, full, "stop at {stop}");
        }
        assert!(paused_at_least_once);
    }

    #[test]
    fn a_mid_preemption_snapshot_resumes_bit_for_bit() {
        // Saturate a preempting fleet so stages pause batch decodes,
        // then stop at bounds chosen to land while paused requests are
        // in flight: the v5 snapshot must carry them (and any formed
        // multiplex slots) through JSON and resume to the exact
        // uninterrupted report.
        let scenario = || {
            Scenario::new(
                "preempt-pause",
                Workload::fixed(48, 24).with_seed(31),
                Arrivals::Poisson { qps: 900.0 },
                60,
            )
            // Half the traffic is preemptible batch work, so saturated
            // stages always hold a victim.
            .with_tiers(vec![
                SloTier::new("interactive", 0.5, 0, 0.1, 0.0),
                SloTier::new("batch", 0.5, 2, 10.0, 0.0),
            ])
        };
        let sim = || ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 2], scenario());
        let full = sim().run(
            &mut RoundRobin::default(),
            &mut policies(2, PolicyKind::Multiplex),
            &mut [Fixed(0.01); 2],
        );
        assert!(full.preempt().preemptions > 0, "{:?}", full.preempt());
        let mut paused_in_flight = false;
        for stop in [0.02, 0.05, 0.1, 0.2, 0.4] {
            let run = sim().run_until(
                &mut RoundRobin::default(),
                &mut policies(2, PolicyKind::Multiplex),
                &mut [Fixed(0.01); 2],
                stop,
            );
            let Some(snap) = run.snapshot() else {
                continue; // drained before this bound
            };
            paused_in_flight |= snap.replicas.iter().any(|r| !r.paused.is_empty());
            let snap = ClusterSnapshot::from_json(&snap.to_json()).expect("round-trips");
            let resumed = sim()
                .resume(
                    &snap,
                    &mut RoundRobin::default(),
                    &mut policies(2, PolicyKind::Multiplex),
                    &mut [Fixed(0.01); 2],
                )
                .expect("resumes");
            assert_eq!(resumed, full, "stop at {stop}");
        }
        assert!(
            paused_in_flight,
            "no stop bound caught a paused request mid-flight"
        );
    }

    /// An elastic fleet of 4 (floor 2) under a crash on replica 0 and,
    /// later, a drain on replica 1: both control-plane kinds in one run.
    fn faulted_elastic() -> ClusterSimulation {
        let scenario = Scenario::new(
            "faulted-elastic",
            Workload::fixed(48, 8).with_seed(11),
            Arrivals::Poisson { qps: 1500.0 },
            80,
        )
        .with_tiers(Scenario::default_tiers(0.01));
        let plan = FaultPlan::new(vec![
            FaultEvent::new(0.02, 0, FaultKind::Crash { down_s: 0.03 }),
            FaultEvent::new(0.05, 1, FaultKind::Drain { down_s: 0.02 }),
        ])
        .with_warmup(0.02, 1.5);
        let policy = AutoscalePolicy::new(2)
            .with_pressure(1.0, 0.2)
            .with_cadence(0.02, 1, 3)
            .with_cooldown(0.0)
            .with_provisioning(0.02, 0.02, 2.0);
        ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 4], scenario)
            .with_faults(plan)
            .with_autoscale(policy)
    }

    fn run_faulted_elastic(snap: Option<&ClusterSnapshot>, stop_s: Option<f64>) -> ClusterRun {
        let (router, policies, executors) = (
            &mut LeastOutstandingWork,
            &mut policies(4, PolicyKind::Fcfs),
            &mut [Fixed(0.01); 4],
        );
        let sim = faulted_elastic();
        match (snap, stop_s) {
            (None, None) => ClusterRun::Done(sim.run(router, policies, executors)),
            (None, Some(stop)) => sim.run_until(router, policies, executors, stop),
            (Some(snap), _) => sim
                .resume(snap, router, policies, executors)
                .map(ClusterRun::Done)
                .unwrap_or_else(|e| panic!("resumes: {e}")),
        }
    }

    #[test]
    fn a_faulted_elastic_fleet_serves_every_request_and_resumes_bit_for_bit() {
        let full = run_faulted_elastic(None, None).report().expect("runs");
        let r = full.recovery;
        assert_eq!(full.completed() as u64 + r.requests_dropped, 80, "{r:?}");
        assert_eq!(r.faults_injected, 2, "{r:?}");
        assert!(full.scaling.scale_ups >= 1, "{:?}", full.scaling);
        // Paused between the crash and the drain, through JSON.
        let snap = run_faulted_elastic(None, Some(0.035))
            .snapshot()
            .expect("the pause lands mid-run");
        assert_eq!(snap.stats.faults_injected, 1);
        let snap = ClusterSnapshot::from_json(&snap.to_json()).expect("round-trips");
        let resumed = run_faulted_elastic(Some(&snap), None)
            .report()
            .expect("resumes");
        assert_eq!(resumed, full);
        assert_eq!(resumed.total_time_s.to_bits(), full.total_time_s.to_bits());
    }

    #[test]
    fn a_fault_on_a_parked_replica_leaves_it_parked() {
        // The autoscaler provisions replica 2 at 0.1 s and replica 3 at
        // 0.16 s, each joining 1 s later, after the load has drained. A
        // fault on either while it is parked or provisioning must leave
        // every replica report, the scaling record and the billed time
        // as they are: only the fault count tells the runs apart.
        let run = |fault: Option<FaultEvent>| {
            let scenario = Scenario::new(
                "parked",
                Workload::fixed(32, 4).with_seed(13),
                Arrivals::Poisson { qps: 200.0 },
                30,
            );
            let policy = AutoscalePolicy::new(2)
                .with_pressure(1.0, 0.2)
                .with_cadence(0.02, 1, 3)
                .with_cooldown(0.0);
            let mut sim = ClusterSimulation::new(vec![ReplicaConfig::new(config(4)); 4], scenario)
                .with_autoscale(policy);
            if let Some(f) = fault {
                sim = sim.with_faults(FaultPlan::new(vec![f]).with_warmup(0.02, 1.5));
            }
            sim.run(
                &mut RoundRobin::default(),
                &mut policies(4, PolicyKind::Fcfs),
                &mut [Fixed(0.01); 4],
            )
        };
        let calm = run(None);
        assert_eq!(calm.scaling.scale_ups, 2, "{:?}", calm.scaling);
        assert!(calm.replicas[2..].iter().all(|r| r.completed.is_empty()));
        let (crash, drain) = (
            |down_s| FaultKind::Crash { down_s },
            FaultKind::Drain { down_s: 0.01 },
        );
        for f in [
            // Parked.
            FaultEvent::new(0.03, 3, crash(0.01)),
            FaultEvent::new(0.03, 3, drain),
            // Parked, with the outage ending inside its provisioning
            // window.
            FaultEvent::new(0.12, 3, crash(0.1)),
            // Provisioning, the outage ending before and after the join.
            FaultEvent::new(0.5, 2, crash(0.1)),
            FaultEvent::new(0.5, 2, crash(2.0)),
            FaultEvent::new(0.5, 2, drain),
        ] {
            let faulted = run(Some(f));
            assert_eq!(faulted.recovery.faults_injected, 1, "{f:?}");
            assert_eq!(faulted.replicas, calm.replicas, "{f:?}");
            assert_eq!(faulted.scaling, calm.scaling, "{f:?}");
            assert_eq!(
                faulted.replica_seconds.to_bits(),
                calm.replica_seconds.to_bits(),
                "{f:?}"
            );
        }
    }

    #[test]
    fn equal_time_events_pop_in_schedule_order_across_kinds() {
        let scenario = Scenario::new(
            "late",
            Workload::fixed(4, 4),
            Arrivals::trace(vec![crate::trace::TraceRequest {
                arrival_s: 10.0,
                input_len: 4,
                output_len: 4,
            }]),
            1,
        );
        let replicas: Vec<ReplicaSim> = (0..2)
            .map(|_| ReplicaSim::new(config(4), &scenario))
            .collect();
        let mut stream = ScenarioStream::new(&scenario);
        let plan = FaultPlan::new(vec![FaultEvent::new(
            0.5,
            0,
            FaultKind::Crash { down_s: 1.0 },
        )]);
        let policy = AutoscalePolicy::new(1).with_cadence(0.5, 1, 1);
        let mut plane = ControlPlane::new(Some(&plan), Some(&policy), 2, KvLinkSpec::default())
            .expect("a plan and a policy build a plane");
        // The plan's fault was scheduled before the first tick.
        plane.queue.schedule(1.0, Event::ClearWarmup(1));
        plane.queue.schedule(1.0, Event::Restart(0));
        plane.queue.schedule(
            1.0,
            Event::ScaleUp {
                replica: 1,
                lag_s: 0.5,
            },
        );
        let popped: Vec<Event> =
            std::iter::from_fn(|| plane.queue.pop_due(&replicas, &mut stream).map(|e| e.1))
                .collect();
        assert_eq!(
            popped,
            [
                Event::Apply(0),
                Event::Eval,
                Event::ClearWarmup(1),
                Event::Restart(0),
                Event::ScaleUp {
                    replica: 1,
                    lag_s: 0.5
                },
            ]
        );
    }

    #[test]
    fn resume_rejects_miscounted_unowned_and_doubly_owned_drains() {
        let snap = run_faulted_elastic(None, Some(0.06))
            .snapshot()
            .expect("the pause lands mid-run");
        let resume = |snap: &ClusterSnapshot| {
            faulted_elastic()
                .resume(
                    snap,
                    &mut LeastOutstandingWork,
                    &mut policies(4, PolicyKind::Fcfs),
                    &mut [Fixed(0.01); 4],
                )
                .expect_err("rejected")
        };
        let (fault, scale) = (
            snap.fault.as_ref().unwrap(),
            snap.autoscale.as_ref().unwrap(),
        );
        assert_eq!(fault.seq, scale.seq, "one counter, written twice");
        let mut bad = snap.clone();
        bad.autoscale.as_mut().unwrap().seq += 1;
        let err = resume(&bad);
        assert!(err.contains("counters differ"), "{err}");
        // A replica marked draining that no section owns.
        let free = (0..4)
            .find(|&i| !scale.draining[i] && !fault.draining_down.iter().any(|d| d.0 == i as u64))
            .expect("a replica without a drain owner");
        let mut bad = snap.clone();
        bad.replicas[free].draining = true;
        let err = resume(&bad);
        assert!(err.contains(&format!("replica {free}:")), "{err}");
        assert!(err.contains("owns its drain"), "{err}");
        // Both sections owning one replica's drain.
        let mut bad = snap.clone();
        bad.fault
            .as_mut()
            .unwrap()
            .draining_down
            .push((free as u64, 0, 0));
        bad.autoscale.as_mut().unwrap().draining[free] = true;
        let err = resume(&bad);
        assert!(err.contains(&format!("replica {free}:")), "{err}");
        assert!(err.contains("both"), "{err}");
    }
}

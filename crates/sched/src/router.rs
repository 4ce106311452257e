//! Request routing across a fleet of replicas (see [`crate::cluster`]).
//!
//! A [`Router`] is the cluster's load balancer: every arriving request
//! (fresh conversations *and* multi-turn follow-ups) is shown a
//! [`ReplicaSnapshot`] per replica and the router picks where it
//! queues. Three classic disciplines ship here:
//!
//! * [`RoundRobin`] — ignore state, cycle through replicas: the
//!   baseline every serving fleet starts with.
//! * [`LeastOutstandingWork`] — join-shortest-queue over committed
//!   requests (with outstanding tokens as a bounded tiebreak), scaled
//!   by each replica's capacity weight so heterogeneous fleets load
//!   faster replicas proportionally harder.
//! * [`SessionAffinity`] — pin a conversation's follow-up rounds to
//!   the replica holding their parked KV, so multi-turn prefix reuse
//!   survives behind the load balancer; spill to the
//!   least-outstanding replica when the pinned one saturates (or the
//!   history was evicted). Fresh requests route least-outstanding.
//! * [`KvMigration`] — affinity that, when the pinned replica is down
//!   or saturated, weighs *shipping* the parked history over the
//!   interconnect against re-prefilling it at the new replica, and
//!   asks the cluster to migrate when the transfer is cheaper (see
//!   [`Router::decide`] and [`crate::fault::KvLinkSpec`]).
//!
//! Routers are deterministic: same arrival stream + same snapshots =
//! same placement, which is what keeps cluster runs seed-stable.
//!
//! # Two-dimensional placement
//!
//! A disaggregated fleet (see [`crate::cluster::DisaggPlan`]) splits
//! replicas into a prefill pool and a decode pool, so a request needs
//! *two* replica picks: where its prompt runs and where its generated
//! KV lands. [`Router::place`] is that decision — a [`Placement`]
//! holding one [`PoolTarget`] per phase. The default implementation
//! makes every one-dimensional router pool-aware for free: in a
//! colocated fleet it wraps [`Router::decide`] exactly once (so the
//! classic path is byte-identical to the pre-placement API), and in a
//! disaggregated fleet it runs the router once per pool against a
//! masked snapshot view in which the other pool's replicas are shown
//! as non-accepting — a discipline every shipped router already
//! honors. See `docs/placement-api.md` for the full model.

use crate::fault::KvLinkSpec;
use crate::scenario::PendingRequest;

/// A replica's role in the fleet. Classic fleets are entirely
/// [`PoolRole::Colocated`]; a [`crate::cluster::DisaggPlan`] splits
/// the fleet into prefill-only and decode-only pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolRole {
    /// Runs both phases (the classic, non-disaggregated default).
    #[default]
    Colocated,
    /// Runs prompts only and hands finished KV to a decode replica.
    Prefill,
    /// Runs decode batches only; joins arrive as priced KV transfers.
    Decode,
}

/// A placement target inside one pool: the replica's index in the
/// cluster's replica list.
pub type PoolTarget = usize;

/// One replica's state as shown to a [`Router`] at routing time.
/// Replicas run on one shared virtual clock but their local frontiers
/// drift (each sits at its own stage boundary); the snapshot exposes
/// queue state the way a real load balancer would poll it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// The replica's local clock (end of its last executed stage).
    pub now_s: f64,
    /// Requests holding a batch slot (decoding or mid-prefill).
    pub in_flight: usize,
    /// Requests routed here but not yet admitted.
    pub queued: usize,
    /// The replica's batch-slot budget.
    pub max_batch: usize,
    /// Prefill + generation tokens still ahead of this replica's
    /// in-flight and queued requests.
    pub outstanding_tokens: u64,
    /// KV bytes reserved by in-flight work.
    pub kv_reserved_bytes: u64,
    /// The replica's KV budget.
    pub kv_capacity_bytes: u64,
    /// Relative serving capacity (1.0 = fleet average; a replica twice
    /// as fast carries weight 2.0). Heterogeneous fleets set this from
    /// probed stage latencies.
    pub weight: f64,
    /// Resident tokens of the routed request's conversation history
    /// parked in this replica's KV pool (0 = none). Replicas that
    /// served earlier rounds hold shorter, stale prefixes; the current
    /// holder reports the full history.
    pub resident_history_tokens: u64,
    /// Whether this replica still accepts work (false once its stage
    /// cap truncated it); routers must avoid non-accepting replicas
    /// while an accepting one exists.
    pub accepting: bool,
    /// The replica's pool role ([`PoolRole::Colocated`] in a classic
    /// fleet). [`Router::place`]'s default masks the snapshots by this
    /// field, so one-dimensional routers never need to read it.
    pub role: PoolRole,
    /// Bytes of KV committed to this replica but not currently in the
    /// live batch: finished prefill KV assigned to stream here but not
    /// yet delivered (disaggregated decode replicas), plus the
    /// swapped-out KV of preempted decodes paused on this replica —
    /// both re-enter as priced work (a transfer, a restore), so
    /// placement policies weighing the interconnect should count them
    /// together. Pending joins also count in
    /// [`ReplicaSnapshot::queued`], so load-based routers price them
    /// without reading this field.
    pub transfer_backlog_bytes: u64,
}

/// The formula of [`ReplicaSnapshot::weighted_load`] (`slots` is
/// in-flight + queued); the cluster's control plane ranks replicas by it
/// too.
pub(crate) fn weighted_load(slots: usize, outstanding: u64, weight: f64) -> f64 {
    let slots = slots as f64;
    let drain = outstanding as f64;
    (slots + drain / (1.0 + drain)) / weight.max(f64::MIN_POSITIVE)
}

impl ReplicaSnapshot {
    /// Committed requests (in-flight + queued, the admission-delay
    /// signal) plus a token-scale tiebreak, normalized by the
    /// replica's capacity weight — the estimated admission delay the
    /// balancing routers minimize. Queue depth dominates because a
    /// new request's time-to-first-token is bounded by the requests
    /// holding and waiting for slots ahead of it, not by their
    /// residual token counts.
    pub fn weighted_load(&self) -> f64 {
        weighted_load(
            self.in_flight + self.queued,
            self.outstanding_tokens,
            self.weight,
        )
    }

    /// Queue-pressure estimate: committed slots (in-flight + queued)
    /// per batch slot. 1.0 means a full second batch is already
    /// waiting... 2.0 means two batches' worth, and so on.
    pub fn queue_pressure(&self) -> f64 {
        (self.in_flight + self.queued) as f64 / self.max_batch.max(1) as f64
    }

    /// Whether any of the routed request's conversation KV is parked
    /// here.
    pub fn holds_conversation(&self) -> bool {
        self.resident_history_tokens > 0
    }
}

/// Deterministic argmin over the accepting replicas (all of them when
/// none accepts — the run is truncating and the pick is moot); first
/// minimum wins.
fn argmin_accepting<K: PartialOrd, F: Fn(&ReplicaSnapshot) -> K>(
    replicas: &[ReplicaSnapshot],
    key: F,
) -> usize {
    assert!(!replicas.is_empty(), "router consulted with no replicas");
    let mut best: Option<usize> = None;
    for (i, r) in replicas.iter().enumerate() {
        if !r.accepting {
            continue;
        }
        match best {
            Some(b) if key(&replicas[b]) <= key(r) => {}
            _ => best = Some(i),
        }
    }
    best.unwrap_or(0)
}

/// A routing decision: where the request queues and whether its
/// parked conversation KV should be migrated there first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// The replica the request queues on.
    pub replica: usize,
    /// Migrate the conversation's parked KV from this replica to
    /// [`RouteDecision::replica`] before queueing (a priced transfer
    /// over the interconnect; see [`crate::fault::KvLinkSpec`]). The
    /// cluster ignores it when it equals the target or the source no
    /// longer holds the history.
    pub migrate_from: Option<usize>,
}

impl RouteDecision {
    /// A plain placement on `replica` (no migration).
    pub fn place(replica: usize) -> Self {
        Self {
            replica,
            migrate_from: None,
        }
    }
}

/// A two-dimensional routing decision: which replica runs the
/// request's prompt and which replica its generated tokens — the
/// colocated case being the degenerate one where both targets are the
/// same replica. Produced by [`Router::place`]; `migrate_from` carries
/// the [`RouteDecision`] KV-migration request through unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The replica that runs the prompt.
    pub prefill: PoolTarget,
    /// The replica the request decodes on. Equal to
    /// [`Placement::prefill`] when colocated; in a disaggregated fleet
    /// this is fixed at admission time and the finished KV is shipped
    /// there as one priced transfer.
    pub decode: PoolTarget,
    /// As [`RouteDecision::migrate_from`] (colocated placements only;
    /// disaggregated handoffs move KV through the prefill→decode
    /// transfer instead).
    pub migrate_from: Option<usize>,
}

impl Placement {
    /// The degenerate placement: both phases on `replica`.
    pub fn colocated(replica: usize) -> Self {
        Self {
            prefill: replica,
            decode: replica,
            migrate_from: None,
        }
    }

    /// A split placement: prompt on `prefill`, generation on `decode`.
    pub fn split(prefill: PoolTarget, decode: PoolTarget) -> Self {
        Self {
            prefill,
            decode,
            migrate_from: None,
        }
    }

    /// Lift a one-dimensional [`RouteDecision`] into the placement
    /// space (prefill and decode on the decided replica).
    pub fn from_decision(decision: RouteDecision) -> Self {
        Self {
            prefill: decision.replica,
            decode: decision.replica,
            migrate_from: decision.migrate_from,
        }
    }

    /// Whether both phases land on one replica.
    pub fn is_colocated(&self) -> bool {
        self.prefill == self.decode
    }
}

/// A copy of `replicas` in which every replica outside `role`'s pool
/// is shown as non-accepting — the masking that turns a
/// one-dimensional router into a per-pool picker.
fn pool_view(replicas: &[ReplicaSnapshot], role: PoolRole) -> Vec<ReplicaSnapshot> {
    replicas
        .iter()
        .map(|r| {
            let mut r = *r;
            if r.role != role {
                r.accepting = false;
            }
            r
        })
        .collect()
}

/// Picks the replica an arriving request queues on.
pub trait Router {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Index of the replica `request` is routed to. `replicas` is
    /// non-empty and indexed like the cluster's replica list.
    fn route(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize;

    /// Full routing decision, including an optional KV-migration
    /// request. The default wraps [`Router::route`] with no migration;
    /// migration-aware routers override this instead.
    fn decide(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> RouteDecision {
        RouteDecision::place(self.route(request, replicas))
    }

    /// Two-dimensional placement: where the prompt runs and where the
    /// request decodes. The default makes any router pool-aware:
    ///
    /// * No prefill pool in the fleet → one [`Router::decide`] call,
    ///   lifted to a colocated placement — *byte-identical* to the
    ///   one-dimensional API (the cluster pins this by proptest).
    /// * Disaggregated fleet → one [`Router::decide`] call per pool
    ///   against a masked view where the other pool is non-accepting
    ///   (`pool_view`); KV migration is dropped (the handoff moves
    ///   the KV).
    fn place(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> Placement {
        if !replicas.iter().any(|r| r.role == PoolRole::Prefill) {
            return Placement::from_decision(self.decide(request, replicas));
        }
        let prefill = self.decide(request, &pool_view(replicas, PoolRole::Prefill));
        let decode = self.decide(request, &pool_view(replicas, PoolRole::Decode));
        Placement::split(prefill.replica, decode.replica)
    }

    /// The router's mutable state as opaque words, for cluster
    /// snapshots. Stateless routers (the default) export nothing;
    /// [`RoundRobin`] exports its rotation cursor.
    fn export_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state captured by [`export_state`](Self::export_state).
    /// The default ignores it (stateless routers).
    fn import_state(&mut self, state: &[u64]) {
        let _ = state;
    }
}

/// State-blind rotation: request k goes to replica k mod N.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
    /// Decode-pool rotation cursor, touched only by split placements —
    /// a shared cursor parity-locks on contiguous pool layouts (the
    /// masked skips advance it by a full cycle per placement, so both
    /// pools would pin to one replica each).
    decode_next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        assert!(!replicas.is_empty(), "router consulted with no replicas");
        // Rotate, skipping replicas that no longer accept (a full
        // cycle of non-accepting replicas falls back to the plain
        // rotation so the pick is still total).
        for _ in 0..replicas.len() {
            let pick = self.next % replicas.len();
            self.next = (self.next + 1) % replicas.len();
            if replicas[pick].accepting {
                return pick;
            }
        }
        let pick = self.next % replicas.len();
        self.next = (self.next + 1) % replicas.len();
        pick
    }

    fn place(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> Placement {
        if !replicas.iter().any(|r| r.role == PoolRole::Prefill) {
            return Placement::from_decision(self.decide(request, replicas));
        }
        let prefill = self.route(request, &pool_view(replicas, PoolRole::Prefill));
        core::mem::swap(&mut self.next, &mut self.decode_next);
        let decode = self.route(request, &pool_view(replicas, PoolRole::Decode));
        core::mem::swap(&mut self.next, &mut self.decode_next);
        Placement::split(prefill, decode)
    }

    fn export_state(&self) -> Vec<u64> {
        vec![self.next as u64, self.decode_next as u64]
    }

    fn import_state(&mut self, state: &[u64]) {
        if let Some(&next) = state.first() {
            self.next = next as usize;
        }
        if let Some(&next) = state.get(1) {
            self.decode_next = next as usize;
        }
    }
}

/// Join-shortest-queue: route to the replica with the least
/// capacity-weighted committed work (see
/// [`ReplicaSnapshot::weighted_load`]; ties to the lowest index).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstandingWork;

impl Router for LeastOutstandingWork {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route(&mut self, _request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        argmin_accepting(replicas, ReplicaSnapshot::weighted_load)
    }
}

/// The shared core of the affinity-family routers
/// ([`SessionAffinity`], [`KvMigration`] and their pool-aware uses
/// through [`Router::place`]): find the replica holding the longest
/// resident prefix of a conversation, and decide whether to pin there
/// or spill under a queue-pressure threshold. Exists so the two
/// routers (which historically copy-pasted this) stay behaviorally
/// identical by construction.
#[derive(Debug, Clone, Copy)]
pub struct AffinityCore {
    /// Spill threshold in [`ReplicaSnapshot::queue_pressure`] units:
    /// when the pinned replica's committed slots exceed this many
    /// batches, the follow-up spills to the least-loaded replica
    /// instead (re-prefilling its history there beats queueing behind
    /// a hot spot).
    pub spill_pressure: f64,
}

impl AffinityCore {
    /// A core spilling past `spill_pressure` batches of committed
    /// work on the pinned replica.
    pub fn new(spill_pressure: f64) -> Self {
        assert!(spill_pressure > 0.0, "spill pressure must be positive");
        Self { spill_pressure }
    }

    /// The replica holding the longest resident prefix of the routed
    /// conversation (several replicas may hold stale, shorter parks
    /// from earlier rounds); first maximum wins on ties. With
    /// `require_accepting`, non-accepting holders are invisible;
    /// without it a downed holder is still found (it cannot take the
    /// request but can be a migration source).
    pub fn holder(
        replicas: &[ReplicaSnapshot],
        require_accepting: bool,
    ) -> Option<(usize, &ReplicaSnapshot)> {
        replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| (!require_accepting || r.accepting) && r.holds_conversation())
            .max_by(|(ia, a), (ib, b)| {
                a.resident_history_tokens
                    .cmp(&b.resident_history_tokens)
                    // First maximum wins on ties.
                    .then(ib.cmp(ia))
            })
    }

    /// Whether the follow-up pins to `holder` rather than spilling.
    pub fn pins(&self, holder: &ReplicaSnapshot) -> bool {
        holder.queue_pressure() <= self.spill_pressure
    }
}

/// Session-affinity routing: a follow-up whose conversation KV is
/// still parked on a replica goes back to that replica — the routing
/// discipline that lets multi-turn prefix reuse survive behind a load
/// balancer. Everything else (fresh conversations, evicted histories,
/// and follow-ups whose pinned replica is saturated) falls through to
/// [`LeastOutstandingWork`]. Pin/spill logic lives in
/// [`AffinityCore`].
///
/// Affinity only follows *conversation* parks
/// ([`ReplicaSnapshot::resident_history_tokens`]). The swapped-out KV
/// of preemption-paused decodes shares the parked pool but belongs to
/// a request already in flight on that replica — it is never an
/// affinity target and surfaces only as
/// [`ReplicaSnapshot::transfer_backlog_bytes`].
#[derive(Debug, Clone, Copy)]
pub struct SessionAffinity {
    /// The pin/spill core (see [`AffinityCore::spill_pressure`]).
    pub core: AffinityCore,
    fallback: LeastOutstandingWork,
}

impl SessionAffinity {
    /// Default spill threshold: two full batches of committed work.
    pub const DEFAULT_SPILL_PRESSURE: f64 = 2.0;

    /// Affinity routing spilling past `spill_pressure` batches of
    /// committed work on the pinned replica.
    pub fn with_spill(spill_pressure: f64) -> Self {
        Self {
            core: AffinityCore::new(spill_pressure),
            fallback: LeastOutstandingWork,
        }
    }
}

impl Default for SessionAffinity {
    fn default() -> Self {
        Self::with_spill(Self::DEFAULT_SPILL_PRESSURE)
    }
}

impl Router for SessionAffinity {
    fn name(&self) -> &'static str {
        "session-affinity"
    }

    fn route(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        assert!(!replicas.is_empty(), "router consulted with no replicas");
        if request.history_tokens > 0 {
            // Pin to the longest resident prefix — the one that saves
            // the most prefill.
            if let Some((pinned, holder)) = AffinityCore::holder(replicas, true) {
                if self.core.pins(holder) {
                    return pinned;
                }
            }
        }
        self.fallback.route(request, replicas)
    }
}

/// Migration-aware session affinity: follow-ups pin to their KV
/// holder like [`SessionAffinity`], but when the holder is down or
/// saturated the router weighs *shipping* the parked pages over the
/// interconnect against re-prefilling the history at the new replica,
/// and requests a migration (via [`Router::decide`]) when the
/// transfer is cheaper. The estimates here only steer the decision;
/// the cluster prices the actual transfer with the replica's exact
/// KV geometry.
///
/// Like [`SessionAffinity`], this router migrates *conversation*
/// parks only: a preemption-paused decode's swapped-out KV is pinned
/// to its replica (the request is still in flight there) and counts
/// toward [`ReplicaSnapshot::transfer_backlog_bytes`] instead, where
/// a placement policy can price the pending restores.
#[derive(Debug, Clone, Copy)]
pub struct KvMigration {
    /// The pin/spill core, as in [`SessionAffinity::core`]. The
    /// default threshold is lower (one batch, not two): with a cheap
    /// migration path, diverting off a hot holder early costs a
    /// transfer instead of a re-prefill, so pinning through congestion
    /// pays off less.
    pub core: AffinityCore,
    /// The interconnect the migration would cross.
    pub link: KvLinkSpec,
    /// Estimated KV bytes per parked token (decision-making only).
    pub kv_bytes_per_token: u64,
    /// Estimated prefill throughput of a replica, tokens/s: the
    /// re-prefill cost a migration competes with.
    pub prefill_tokens_per_s: f64,
    fallback: LeastOutstandingWork,
}

impl KvMigration {
    /// Default spill threshold: one full batch of committed work.
    pub const DEFAULT_SPILL_PRESSURE: f64 = 1.0;

    /// Migration-aware affinity over `link`, estimating parked
    /// entries at `kv_bytes_per_token` and re-prefill at
    /// `prefill_tokens_per_s`.
    pub fn new(link: KvLinkSpec, kv_bytes_per_token: u64, prefill_tokens_per_s: f64) -> Self {
        assert!(
            prefill_tokens_per_s > 0.0,
            "prefill throughput must be positive"
        );
        Self {
            core: AffinityCore::new(Self::DEFAULT_SPILL_PRESSURE),
            link,
            kv_bytes_per_token,
            prefill_tokens_per_s,
            fallback: LeastOutstandingWork,
        }
    }

    /// Override the spill threshold.
    pub fn with_spill(mut self, spill_pressure: f64) -> Self {
        self.core = AffinityCore::new(spill_pressure);
        self
    }

    /// Whether shipping `resident` parked tokens beats re-prefilling
    /// them, under this router's estimates.
    fn migration_pays(&self, resident: u64) -> bool {
        let transfer_s = self
            .link
            .transfer_seconds(resident * self.kv_bytes_per_token);
        transfer_s < resident as f64 / self.prefill_tokens_per_s
    }
}

impl Default for KvMigration {
    /// Generic large-model estimates: the default interconnect,
    /// ~100 KB of KV per token, ~10k prefill tokens/s. Fleets with
    /// real numbers should use [`KvMigration::new`].
    fn default() -> Self {
        Self::new(KvLinkSpec::default(), 100_000, 10_000.0)
    }
}

impl Router for KvMigration {
    fn name(&self) -> &'static str {
        "kv-migration"
    }

    fn route(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        self.decide(request, replicas).replica
    }

    fn decide(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> RouteDecision {
        assert!(!replicas.is_empty(), "router consulted with no replicas");
        if request.history_tokens > 0 {
            // The longest resident prefix, wherever it is — a downed
            // holder cannot take the request but can still be a
            // migration source.
            if let Some((src, holder)) = AffinityCore::holder(replicas, false) {
                if holder.accepting && self.core.pins(holder) {
                    return RouteDecision::place(src);
                }
                // The holder is down or hot: divert, and bring the KV
                // along when the wire beats the re-prefill.
                let target = self.fallback.route(request, replicas);
                let migrate = target != src && self.migration_pays(holder.resident_history_tokens);
                return RouteDecision {
                    replica: target,
                    migrate_from: migrate.then_some(src),
                };
            }
        }
        RouteDecision::place(self.fallback.route(request, replicas))
    }
}

/// Fleet-derived parameters a router is built against (see
/// [`RouterKind::build_with`]): the interconnect and KV geometry that
/// [`KvMigration`]'s estimates should match instead of guessing.
/// Sweep drivers derive one from the fleet's comm model and replica
/// configs rather than re-deriving the numbers ad hoc per call site.
#[derive(Debug, Clone, Copy)]
pub struct ClusterContext {
    /// The interconnect KV transfers cross.
    pub kv_link: KvLinkSpec,
    /// KV bytes per parked token of the fleet's replicas.
    pub kv_bytes_per_token: u64,
    /// Estimated prefill throughput of a replica, tokens/s.
    pub prefill_tokens_per_s: f64,
}

impl Default for ClusterContext {
    /// The same generic large-model estimates as
    /// [`KvMigration::default`], so `build_with(&Default::default())`
    /// and [`RouterKind::build`] agree.
    fn default() -> Self {
        Self {
            kv_link: KvLinkSpec::default(),
            kv_bytes_per_token: 100_000,
            prefill_tokens_per_s: 10_000.0,
        }
    }
}

/// The shipped routers, as a value type for sweep drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstandingWork`].
    LeastOutstandingWork,
    /// [`SessionAffinity`] with the default spill threshold.
    SessionAffinity,
    /// [`KvMigration`] with the default link and cost estimates.
    KvMigration,
}

impl RouterKind {
    /// Every shipped router.
    pub const ALL: [RouterKind; 4] = [
        RouterKind::RoundRobin,
        RouterKind::LeastOutstandingWork,
        RouterKind::SessionAffinity,
        RouterKind::KvMigration,
    ];

    /// Instantiate the router with its hardcoded default estimates
    /// (equivalent to [`RouterKind::build_with`] over
    /// [`ClusterContext::default`]).
    pub fn build(self) -> Box<dyn Router> {
        self.build_with(&ClusterContext::default())
    }

    /// Instantiate the router against fleet-derived parameters:
    /// [`KvMigration`] prices its ship-vs-reprefill decision with the
    /// fleet's actual link and KV geometry; the state-only routers
    /// ignore the context.
    pub fn build_with(self, ctx: &ClusterContext) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::LeastOutstandingWork => Box::new(LeastOutstandingWork),
            RouterKind::SessionAffinity => Box::new(SessionAffinity::default()),
            RouterKind::KvMigration => Box::new(KvMigration::new(
                ctx.kv_link,
                ctx.kv_bytes_per_token,
                ctx.prefill_tokens_per_s,
            )),
        }
    }

    /// The router's display name.
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstandingWork => "least-outstanding",
            RouterKind::SessionAffinity => "session-affinity",
            RouterKind::KvMigration => "kv-migration",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn snapshot(outstanding: u64, weight: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            now_s: 0.0,
            in_flight: 0,
            queued: 0,
            max_batch: 8,
            outstanding_tokens: outstanding,
            kv_reserved_bytes: 0,
            kv_capacity_bytes: 1 << 30,
            weight,
            resident_history_tokens: 0,
            accepting: true,
            role: PoolRole::Colocated,
            transfer_backlog_bytes: 0,
        }
    }

    fn request(history: u64) -> PendingRequest {
        PendingRequest {
            request: Request {
                id: 1,
                arrival_s: 0.0,
                input_len: 128,
                output_len: 16,
            },
            tier: 0,
            priority: 0,
            deadline_s: f64::INFINITY,
            conversation: 1,
            round: if history > 0 { 2 } else { 1 },
            history_tokens: history,
            skipped: 0,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let snaps = vec![snapshot(0, 1.0); 3];
        let picks: Vec<usize> = (0..7).map(|_| rr.route(&request(0), &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_outstanding_balances_by_weighted_queue_depth() {
        let mut jsq = LeastOutstandingWork;
        // Queue depth dominates: 2 committed requests beat 5, whatever
        // the token backlogs say.
        let mut deep = snapshot(100, 1.0);
        deep.in_flight = 5;
        let mut shallow = snapshot(900, 1.0);
        shallow.in_flight = 1;
        shallow.queued = 1;
        assert_eq!(jsq.route(&request(0), &[deep, shallow]), 1);
        // Equal depths fall back to the token tiebreak.
        let snaps = vec![snapshot(500, 1.0), snapshot(100, 1.0), snapshot(300, 1.0)];
        assert_eq!(jsq.route(&request(0), &snaps), 1);
        // A replica twice as fast absorbs twice the committed work: 4
        // slots at weight 2 beat 3 slots at weight 1.
        let mut fast = snapshot(0, 2.0);
        fast.in_flight = 4;
        let mut slow = snapshot(0, 1.0);
        slow.in_flight = 3;
        assert_eq!(jsq.route(&request(0), &[fast, slow]), 0);
        // Ties go to the lowest index, deterministically.
        let tied = vec![snapshot(100, 1.0), snapshot(100, 1.0)];
        assert_eq!(jsq.route(&request(0), &tied), 0);
    }

    #[test]
    fn affinity_pins_followups_to_the_kv_holder() {
        let mut aff = SessionAffinity::default();
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        // The follow-up returns to its KV even though replica 1 is
        // nearly idle ...
        assert_eq!(aff.route(&request(64), &snaps), 0);
        // ... but a fresh request load-balances.
        assert_eq!(aff.route(&request(0), &snaps), 1);
        // An evicted history (no holder) also load-balances.
        snaps[0].resident_history_tokens = 0;
        assert_eq!(aff.route(&request(64), &snaps), 1);
    }

    #[test]
    fn affinity_spills_off_a_saturated_holder() {
        let mut aff = SessionAffinity::with_spill(1.5);
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        snaps[0].in_flight = 8;
        snaps[0].queued = 3;
        // 11 committed slots over 8 = 1.375 batches: still pinned.
        assert_eq!(aff.route(&request(64), &snaps), 0);
        snaps[0].queued = 5;
        // 13/8 = 1.625 > 1.5: spill to the least-loaded replica.
        assert_eq!(aff.route(&request(64), &snaps), 1);
    }

    #[test]
    fn affinity_pins_to_the_longest_resident_prefix() {
        // Two replicas hold prefixes of the same conversation (a stale
        // park from round 1 and the current round-2 history): the
        // follow-up goes to the fuller one, whatever the load says.
        let mut aff = SessionAffinity::default();
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0), snapshot(0, 1.0)];
        snaps[0].resident_history_tokens = 68; // stale round-1 prefix
        snaps[2].resident_history_tokens = 88; // current history
        assert_eq!(aff.route(&request(88), &snaps), 2);
        // If the fuller holder stops accepting, the stale prefix still
        // beats a re-prefill.
        snaps[2].accepting = false;
        assert_eq!(aff.route(&request(88), &snaps), 0);
    }

    #[test]
    fn routers_skip_non_accepting_replicas() {
        // A stage-capped replica must stop receiving work while any
        // live replica remains.
        let mut snaps = vec![snapshot(0, 1.0), snapshot(500, 1.0), snapshot(400, 1.0)];
        snaps[0].accepting = false;
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..4).map(|_| rr.route(&request(0), &snaps)).collect();
        assert_eq!(picks, vec![1, 2, 1, 2], "rotation skips the capped replica");
        // JSQ ignores the capped replica's tempting empty queue.
        assert_eq!(LeastOutstandingWork.route(&request(0), &snaps), 2);
        // With the whole fleet capped the pick is total (run is
        // truncating anyway).
        for s in snaps.iter_mut() {
            s.accepting = false;
        }
        assert_eq!(LeastOutstandingWork.route(&request(0), &snaps), 0);
        let _ = RoundRobin::default().route(&request(0), &snaps);
    }

    #[test]
    fn kv_migration_pins_until_the_holder_goes_down() {
        let mut mig = KvMigration::default();
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        // Healthy holder under the spill threshold: plain affinity.
        assert_eq!(mig.decide(&request(64), &snaps), RouteDecision::place(0));
        // Holder down (crash/drain): divert and ship the KV — the
        // default estimates price the wire far under the re-prefill.
        snaps[0].accepting = false;
        assert_eq!(
            mig.decide(&request(64), &snaps),
            RouteDecision {
                replica: 1,
                migrate_from: Some(0),
            }
        );
        // Fresh requests just load-balance.
        assert_eq!(mig.decide(&request(0), &snaps), RouteDecision::place(1));
    }

    #[test]
    fn kv_migration_declines_a_transfer_slower_than_reprefill() {
        // A 1 B/s link: shipping anything loses to re-prefilling.
        let mut mig = KvMigration::new(KvLinkSpec::new(1.0, 0.0), 100_000, 10_000.0);
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        snaps[0].accepting = false;
        assert_eq!(mig.decide(&request(64), &snaps), RouteDecision::place(1));
    }

    #[test]
    fn kv_migration_spills_a_hot_holder_earlier_than_affinity() {
        // One full batch committed on the holder: affinity (spill 2.0)
        // still pins, migration (spill 1.0 + cheap wire) diverts and
        // ships.
        let mut aff = SessionAffinity::default();
        let mut mig = KvMigration::default();
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        snaps[0].in_flight = 8;
        snaps[0].queued = 2;
        assert_eq!(aff.route(&request(64), &snaps), 0);
        assert_eq!(
            mig.decide(&request(64), &snaps),
            RouteDecision {
                replica: 1,
                migrate_from: Some(0),
            }
        );
    }

    #[test]
    fn kinds_build_their_routers() {
        for kind in RouterKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn colocated_place_wraps_decide_exactly() {
        // In a fleet with no prefill pool, place() must be the
        // one-dimensional decision lifted verbatim — for every shipped
        // router, including the stateful ones (one decide per place,
        // so RoundRobin's cursor advances identically).
        for kind in RouterKind::ALL {
            let mut via_decide = kind.build();
            let mut via_place = kind.build();
            let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0), snapshot(90, 1.0)];
            snaps[2].resident_history_tokens = 64;
            for (i, req) in [request(0), request(64), request(0), request(64)]
                .iter()
                .enumerate()
            {
                snaps[i % 3].queued += i;
                let d = via_decide.decide(req, &snaps);
                let p = via_place.place(req, &snaps);
                assert_eq!(p, Placement::from_decision(d), "{}", kind.name());
                assert!(p.is_colocated());
            }
        }
    }

    #[test]
    fn disaggregated_place_picks_one_replica_per_pool() {
        let mut snaps = vec![
            snapshot(500, 1.0),
            snapshot(10, 1.0),
            snapshot(400, 1.0),
            snapshot(20, 1.0),
        ];
        snaps[0].role = PoolRole::Prefill;
        snaps[1].role = PoolRole::Prefill;
        snaps[2].role = PoolRole::Decode;
        snaps[3].role = PoolRole::Decode;
        let mut jsq = LeastOutstandingWork;
        let p = jsq.place(&request(0), &snaps);
        assert_eq!(
            p,
            Placement::split(1, 3),
            "least-outstanding picks the lightest replica of each pool"
        );
        assert!(!p.is_colocated());
        // Round-robin cycles within each pool (independent cursors, so
        // contiguous pool layouts don't parity-lock onto one replica).
        let mut rr = RoundRobin::default();
        let first = rr.place(&request(0), &snaps);
        let second = rr.place(&request(0), &snaps);
        assert_eq!(first, Placement::split(0, 2));
        assert_eq!(second, Placement::split(1, 3));
        // Migration requests are dropped in split placements: the
        // prefill→decode handoff moves the KV instead.
        snaps[2].resident_history_tokens = 64;
        snaps[2].queued = 64;
        let mut mig = KvMigration::default();
        let p = mig.place(&request(64), &snaps);
        assert_eq!(p.migrate_from, None);
        assert_eq!(p.decode, 3, "spilled off the hot holder within the pool");
    }

    #[test]
    fn pool_masking_respects_downed_replicas() {
        // A drained prefill replica is skipped within its pool.
        let mut snaps = vec![snapshot(0, 1.0), snapshot(500, 1.0), snapshot(0, 1.0)];
        snaps[0].role = PoolRole::Prefill;
        snaps[1].role = PoolRole::Prefill;
        snaps[0].accepting = false;
        snaps[2].role = PoolRole::Decode;
        let p = LeastOutstandingWork.place(&request(0), &snaps);
        assert_eq!(p, Placement::split(1, 2));
    }

    #[test]
    fn affinity_core_matches_the_router_filters() {
        // require_accepting=true is SessionAffinity's view;
        // false is KvMigration's (a downed holder is still a source).
        let mut snaps = vec![snapshot(0, 1.0), snapshot(0, 1.0)];
        snaps[0].resident_history_tokens = 88;
        snaps[1].resident_history_tokens = 68;
        snaps[0].accepting = false;
        assert_eq!(AffinityCore::holder(&snaps, true).map(|(i, _)| i), Some(1));
        assert_eq!(AffinityCore::holder(&snaps, false).map(|(i, _)| i), Some(0));
        let core = AffinityCore::new(1.0);
        let mut hot = snapshot(0, 1.0);
        hot.in_flight = 8;
        hot.queued = 1;
        assert!(!core.pins(&hot), "9/8 batches exceeds a 1.0 threshold");
        hot.queued = 0;
        assert!(core.pins(&hot));
    }

    #[test]
    fn build_with_threads_the_cluster_context() {
        // A 1 B/s link through the context must make the built
        // kv-migration router decline transfers, exactly like
        // constructing it by hand.
        let ctx = ClusterContext {
            kv_link: KvLinkSpec::new(1.0, 0.0),
            kv_bytes_per_token: 100_000,
            prefill_tokens_per_s: 10_000.0,
        };
        let mut built = RouterKind::KvMigration.build_with(&ctx);
        let mut snaps = vec![snapshot(500, 1.0), snapshot(10, 1.0)];
        snaps[0].resident_history_tokens = 64;
        snaps[0].accepting = false;
        assert_eq!(
            built.decide(&request(64), &snaps),
            RouteDecision::place(1),
            "slow link declines the migration"
        );
        for kind in RouterKind::ALL {
            assert_eq!(kind.build_with(&ctx).name(), kind.name());
        }
    }

    #[test]
    fn round_robin_state_round_trips_mid_rotation() {
        let snaps = vec![snapshot(0, 1.0); 3];
        let mut rr = RoundRobin::default();
        rr.route(&request(0), &snaps);
        rr.route(&request(0), &snaps);
        let state = rr.export_state();
        let mut restored = RoundRobin::default();
        restored.import_state(&state);
        for _ in 0..4 {
            assert_eq!(
                restored.route(&request(0), &snaps),
                rr.route(&request(0), &snaps)
            );
        }
        // Stateless routers export nothing and ignore imports.
        let mut jsq = LeastOutstandingWork;
        assert!(Router::export_state(&jsq).is_empty());
        jsq.import_state(&[7]);
    }
}

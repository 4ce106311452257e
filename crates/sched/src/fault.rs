//! Fault injection and recovery for cluster runs (see
//! [`crate::cluster`]).
//!
//! A [`FaultPlan`] is a deterministic script of replica faults — crash,
//! drain-and-restart, transient slowdown — pinned to virtual times. The
//! [`crate::ClusterSimulation`] applies every fault at a clock-merge
//! point of the cluster's dispatch/window protocol, in a fixed order:
//! that is the one instant the whole fleet stands at a consistent
//! virtual time, so a faulted run stays seed-deterministic and a
//! snapshot taken mid-outage resumes bit for bit.
//!
//! What each fault does:
//!
//! * **Crash** ([`FaultKind::Crash`]) — the replica loses everything
//!   volatile: queued, chunking and decoding requests are *lost* and
//!   re-enqueued through the router under the plan's [`RetryPolicy`]
//!   (virtual-time backoff, bounded retry budget, then dropped), and
//!   its parked multi-turn KV pool is wiped. Follow-ups whose
//!   conversation still has a (possibly stale) prefix parked on a
//!   surviving replica reroute there with their history intact. The
//!   replica restarts `down_s` later, optionally through a warm-up
//!   window that inflates its stage latency.
//! * **Drain** ([`FaultKind::Drain`]) — the replica stops admitting,
//!   finishes its in-flight batch, hands its parked KV entries off to
//!   the least-loaded surviving replica as a priced transfer, then goes
//!   down for `down_s` and restarts. Queued-but-unstarted requests are
//!   rerouted immediately (no retry budget spent: nothing was lost).
//! * **Slowdown** ([`FaultKind::Slowdown`]) — the replica's stage
//!   latency is multiplied by `factor` for `duration_s` of virtual
//!   time; work keeps flowing.
//!
//! Faults are stage-granular: a stage that *started* before a fault's
//! virtual time runs to completion at its original speed, and the fault
//! lands at the next merge point. This is exactly the granularity at
//! which the simulator prices work, and it is what keeps fault
//! application deterministic: no fault ever lands inside a window.
//!
//! Cross-replica KV migration is a first-class priced operation: a
//! parked conversation's pages ship over a [`KvLinkSpec`] (derive one
//! from the system crate's comm model to price it over the same
//! interconnect as inter-node collectives), the transfer seconds are
//! charged to the receiving replica's clock, and the bytes are
//! accounted in [`RecoveryStats`]. The migration-aware router
//! ([`crate::router::KvMigration`]) weighs exactly this transfer cost
//! against re-prefilling the history when a pinned replica is down or
//! saturated.
//!
//! Recovery is measured from a per-replica generated-token timeline
//! (bucketed at [`FaultPlan::timeline_bucket_s`]): a fault counts as
//! recovered at the first full bucket after it whose fleet token rate
//! is back within [`FaultPlan::recovery_threshold`] of the pre-fault
//! rate. During-failure SLO attainment is counted per fault over the
//! window `[at_s, at_s + slo_window_s)`, per tier. Both land in
//! [`FaultOutcome`]s on the [`crate::ClusterReport`].
//!
//! # Example
//!
//! ```
//! use duplex_sched::{FaultEvent, FaultKind, FaultPlan, KvLinkSpec, RetryPolicy};
//!
//! let plan = FaultPlan::new(vec![
//!     FaultEvent::new(2.0, 0, FaultKind::Crash { down_s: 0.5 }),
//!     FaultEvent::new(4.0, 1, FaultKind::Drain { down_s: 0.25 }),
//! ])
//! .with_retry(RetryPolicy::new(2).with_backoff(0.05, 2.0))
//! .with_link(KvLinkSpec::new(400e9, 2e-6));
//! assert_eq!(plan.faults.len(), 2);
//! // 1 MiB of parked KV ships in ~2.6 microseconds of virtual time.
//! assert!(plan.link.transfer_seconds(1 << 20) < 1e-5);
//! ```

/// What happens to the faulted replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hard crash: in-flight and queued requests are lost (retried per
    /// the plan's [`RetryPolicy`]), the parked KV pool is wiped, and
    /// the replica is down for `down_s` virtual seconds before it
    /// restarts (through the plan's warm-up window, if any).
    Crash {
        /// Virtual seconds from the crash to the restart.
        down_s: f64,
    },
    /// Graceful drain: stop admitting, finish the in-flight batch,
    /// hand parked KV off to a surviving replica (a priced transfer),
    /// then stay down for `down_s` before restarting.
    Drain {
        /// Virtual seconds from drain completion to the restart.
        down_s: f64,
    },
    /// Transient slowdown: stage latency is multiplied by `factor`
    /// (>1 = slower) for `duration_s` virtual seconds.
    Slowdown {
        /// How long the degradation lasts.
        duration_s: f64,
        /// Stage-latency multiplier while degraded.
        factor: f64,
    },
}

impl FaultKind {
    /// Short display name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Drain { .. } => "drain",
            FaultKind::Slowdown { .. } => "slowdown",
        }
    }
}

/// One scripted fault: which replica, when (virtual time), and what.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FaultEvent {
    /// Virtual time the fault fires (applied at the next merge point).
    pub at_s: f64,
    /// Index of the faulted replica.
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault hitting `replica` at virtual time `at_s`.
    pub fn new(at_s: f64, replica: usize, kind: FaultKind) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "fault time must be finite and non-negative"
        );
        Self {
            at_s,
            replica,
            kind,
        }
    }
}

/// How requests lost to a crash are re-enqueued, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// How many times one request may be retried before it is dropped
    /// for good (counted in [`RecoveryStats::requests_dropped`]).
    pub max_retries: u32,
    /// Base re-enqueue delay after the crash, in virtual seconds
    /// (0 = immediate re-enqueue at the crash time).
    pub backoff_s: f64,
    /// Multiplier on the backoff per prior retry of the same request
    /// (exponential backoff; 1.0 = constant).
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    /// Three retries with a constant, immediate re-enqueue.
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_s: 0.0,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries with immediate
    /// re-enqueue (no backoff); set a backoff with
    /// [`RetryPolicy::with_backoff`].
    pub fn new(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// Set the exponential backoff: `backoff_s` base delay, multiplied
    /// by `mult` per prior retry of the same request.
    pub fn with_backoff(mut self, backoff_s: f64, mult: f64) -> Self {
        assert!(backoff_s >= 0.0, "retry backoff must be non-negative");
        assert!(mult > 0.0, "retry backoff multiplier must be positive");
        self.backoff_s = backoff_s;
        self.backoff_mult = mult;
        self
    }

    /// The virtual-time delay before retry number `attempt` (1-based).
    pub fn delay_s(&self, attempt: u32) -> f64 {
        self.backoff_s * self.backoff_mult.powi(attempt.saturating_sub(1) as i32)
    }
}

/// The interconnect a parked conversation's KV pages ship over when
/// they migrate between replicas: a bandwidth/latency pair, matching
/// the point-to-point pricing of the system crate's comm model (build
/// one from it via its `kv_link()` hook so migration is charged over
/// the same inter-node path as collectives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLinkSpec {
    /// Link bandwidth in bytes per second.
    pub bytes_per_s: f64,
    /// Per-transfer latency in seconds.
    pub latency_s: f64,
}

impl KvLinkSpec {
    /// A link from bandwidth and latency. Bandwidth must be positive,
    /// latency non-negative.
    pub fn new(bytes_per_s: f64, latency_s: f64) -> Self {
        assert!(bytes_per_s > 0.0, "KV link bandwidth must be positive");
        assert!(latency_s >= 0.0, "KV link latency must be non-negative");
        Self {
            bytes_per_s,
            latency_s,
        }
    }

    /// Virtual seconds to ship `bytes` over this link (0 for 0 bytes,
    /// like the comm model's point-to-point pricing).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.bytes_per_s + self.latency_s
    }
}

impl Default for KvLinkSpec {
    /// The HGX-class inter-node path: 400 GB/s, 2 microseconds.
    fn default() -> Self {
        Self {
            bytes_per_s: 400e9,
            latency_s: 2e-6,
        }
    }
}

/// A load-driven fault trigger: instead of (or alongside) the scripted
/// [`FaultEvent`] list, the cluster watches every replica's queue
/// pressure ([`crate::router::ReplicaSnapshot::queue_pressure`] units:
/// committed slots per batch slot) at its clock-merge points and
/// injects `kind` on any replica whose pressure crosses `pressure` —
/// the "slow or drain a hot replica" knob real fleets wire to their
/// load balancer's health checks. Evaluation happens only at merge
/// points, so triggered runs are as deterministic and resumable as
/// scripted ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadTrigger {
    /// Queue-pressure threshold (committed slots per batch slot) at or
    /// above which the trigger fires on a replica.
    pub pressure: f64,
    /// The fault injected on the offending replica.
    pub kind: FaultKind,
    /// Minimum virtual time between two fires of this trigger (across
    /// all replicas); 0 re-arms immediately.
    pub cooldown_s: f64,
    /// Lifetime fire budget of this trigger.
    pub max_fires: u32,
}

impl LoadTrigger {
    /// A trigger injecting `kind` when a replica's queue pressure
    /// reaches `pressure`, with a 1-fire budget and no cooldown. Both
    /// knobs have `with_` setters.
    pub fn new(pressure: f64, kind: FaultKind) -> Self {
        assert!(
            pressure > 0.0 && pressure.is_finite(),
            "trigger pressure must be positive and finite"
        );
        Self {
            pressure,
            kind,
            cooldown_s: 0.0,
            max_fires: 1,
        }
    }

    /// Set the re-arm cooldown.
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        assert!(cooldown_s >= 0.0, "trigger cooldown must be non-negative");
        self.cooldown_s = cooldown_s;
        self
    }

    /// Set the lifetime fire budget.
    pub fn with_max_fires(mut self, max_fires: u32) -> Self {
        assert!(max_fires >= 1, "trigger budget must be at least 1");
        self.max_fires = max_fires;
        self
    }
}

/// A deterministic fault script for one cluster run: the faults, the
/// retry policy for crash-lost requests, the KV-migration link, the
/// restart warm-up, and the recovery-measurement knobs. Attach with
/// [`crate::ClusterSimulation::with_faults`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FaultPlan {
    /// The scripted faults (applied in virtual-time order).
    pub faults: Vec<FaultEvent>,
    /// Load-driven triggers evaluated at every merge point, an
    /// alternative trigger source to the fixed script (empty = none).
    pub triggers: Vec<LoadTrigger>,
    /// Retry policy for requests lost to crashes.
    pub retry: RetryPolicy,
    /// The link cross-replica KV migrations are priced over.
    pub link: KvLinkSpec,
    /// Post-restart warm-up window length in virtual seconds (cold
    /// caches after a crash or drain restart); 0 disables it.
    pub warmup_s: f64,
    /// Stage-latency multiplier during the warm-up window (>= 1).
    pub warmup_factor: f64,
    /// A fault counts as recovered when the fleet token rate is back
    /// within this fraction of the pre-fault rate (see
    /// [`FaultOutcome::recovered_at_s`]).
    pub recovery_threshold: f64,
    /// Bucket width of the generated-token timeline the recovery time
    /// is measured on, in virtual seconds.
    pub timeline_bucket_s: f64,
    /// Length of the during-failure SLO window counted per fault,
    /// starting at the fault time.
    pub slo_window_s: f64,
}

impl FaultPlan {
    /// A plan over `faults` with default retry policy, link, no
    /// warm-up, a 70% recovery threshold, 0.5 s timeline buckets and a
    /// 1 s during-failure SLO window. All knobs have `with_` setters.
    pub fn new(faults: Vec<FaultEvent>) -> Self {
        for f in &faults {
            assert!(
                f.at_s.is_finite() && f.at_s >= 0.0,
                "fault time must be finite and non-negative"
            );
            match f.kind {
                FaultKind::Crash { down_s } | FaultKind::Drain { down_s } => {
                    assert!(down_s >= 0.0, "down time must be non-negative");
                }
                FaultKind::Slowdown { duration_s, factor } => {
                    assert!(duration_s >= 0.0, "slowdown duration must be non-negative");
                    assert!(factor > 0.0, "slowdown factor must be positive");
                }
            }
        }
        Self {
            faults,
            triggers: Vec::new(),
            retry: RetryPolicy::default(),
            link: KvLinkSpec::default(),
            warmup_s: 0.0,
            warmup_factor: 1.0,
            recovery_threshold: 0.7,
            timeline_bucket_s: 0.5,
            slo_window_s: 1.0,
        }
    }

    /// Add load-driven triggers (see [`LoadTrigger`]); evaluated in
    /// the given order at every merge point.
    pub fn with_triggers(mut self, triggers: Vec<LoadTrigger>) -> Self {
        for t in &triggers {
            assert!(
                t.pressure > 0.0 && t.pressure.is_finite(),
                "trigger pressure must be positive and finite"
            );
            assert!(t.cooldown_s >= 0.0, "trigger cooldown must be non-negative");
            assert!(t.max_fires >= 1, "trigger budget must be at least 1");
        }
        self.triggers = triggers;
        self
    }

    /// Set the retry policy for crash-lost requests.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.backoff_s >= 0.0, "retry backoff must be non-negative");
        assert!(
            retry.backoff_mult > 0.0,
            "retry backoff multiplier must be positive"
        );
        self.retry = retry;
        self
    }

    /// Set the KV-migration link.
    pub fn with_link(mut self, link: KvLinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Set the post-restart warm-up window: `warmup_s` seconds at
    /// `factor` times the normal stage latency.
    pub fn with_warmup(mut self, warmup_s: f64, factor: f64) -> Self {
        assert!(warmup_s >= 0.0, "warm-up length must be non-negative");
        assert!(factor >= 1.0, "warm-up factor must be >= 1");
        self.warmup_s = warmup_s;
        self.warmup_factor = factor;
        self
    }

    /// Set the recovery-measurement knobs: the token-rate threshold
    /// (fraction of the pre-fault rate), the timeline bucket width and
    /// the during-failure SLO window length.
    pub fn with_recovery_tracking(
        mut self,
        threshold: f64,
        bucket_s: f64,
        slo_window_s: f64,
    ) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "recovery threshold must be in (0, 1]"
        );
        assert!(bucket_s > 0.0, "timeline bucket must be positive");
        assert!(slo_window_s >= 0.0, "SLO window must be non-negative");
        self.recovery_threshold = threshold;
        self.timeline_bucket_s = bucket_s;
        self.slo_window_s = slo_window_s;
        self
    }
}

/// Fleet-wide fault and recovery counters for one cluster run. All
/// zeros when the run had no fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Faults actually applied (a plan fault past the end of the run
    /// never fires).
    pub faults_injected: u64,
    /// Requests lost to crashes (queued, chunking or decoding on the
    /// crashed replica).
    pub requests_lost: u64,
    /// Retry re-enqueues issued for lost requests.
    pub retries_issued: u64,
    /// Lost requests dropped for good after exhausting the retry
    /// budget.
    pub requests_dropped: u64,
    /// Parked KV bytes shipped between replicas (drain handoffs plus
    /// router-decided migrations).
    pub kv_bytes_migrated: u64,
    /// Individual parked-conversation migrations executed.
    pub kv_migrations: u64,
    /// Virtual seconds of transfer time charged for those migrations.
    pub migration_seconds: f64,
    /// Faults injected by [`LoadTrigger`]s (also counted in
    /// [`RecoveryStats::faults_injected`]).
    pub triggers_fired: u64,
    /// Arrivals pushed back by fleet-level admission control (see
    /// [`crate::router::FleetShed`]); each deferral of the same
    /// request counts once.
    pub requests_deferred: u64,
}

/// Per-tier during-failure SLO accounting for one fault's window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindowStats {
    /// Tier name (matches the scenario's SLO tiers).
    pub tier: String,
    /// Requests of this tier retired inside the fault's window.
    pub completed: u64,
    /// Of those, how many met their SLO (absolute-deadline T2FT and
    /// mean TBT).
    pub met: u64,
}

impl FaultWindowStats {
    /// In-window attainment (0 when nothing retired in the window).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.met as f64 / self.completed as f64
    }
}

/// What one injected fault did to the fleet: when and where it fired,
/// when fleet throughput recovered, and the during-failure SLO window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The scripted fault time.
    pub at_s: f64,
    /// The faulted replica.
    pub replica: usize,
    /// What fired.
    pub kind: FaultKind,
    /// Virtual time the fleet token rate was back within the plan's
    /// [`FaultPlan::recovery_threshold`] of its pre-fault rate; `None`
    /// when it never recovered inside the run.
    pub recovered_at_s: Option<f64>,
    /// `recovered_at_s - at_s`, or the remaining run span when the
    /// fleet never recovered (a pessimistic, gateable stand-in).
    pub recovery_time_s: f64,
    /// Per-tier SLO accounting over `[at_s, at_s + slo_window_s)`.
    pub windows: Vec<FaultWindowStats>,
}

impl FaultOutcome {
    /// During-failure attainment of the first (interactive) tier; 0
    /// when the window saw no interactive retirement.
    pub fn interactive_attainment(&self) -> f64 {
        self.windows
            .first()
            .map_or(0.0, FaultWindowStats::attainment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_prices_like_the_comm_model() {
        let link = KvLinkSpec::new(100e9, 1e-6);
        assert_eq!(link.transfer_seconds(0), 0.0);
        let t = link.transfer_seconds(1_000_000_000);
        assert!((t - 0.010001).abs() < 1e-12, "{t}");
    }

    #[test]
    fn retry_backoff_is_exponential_in_the_attempt() {
        let retry = RetryPolicy::new(4).with_backoff(0.1, 2.0);
        assert_eq!(retry.delay_s(1), 0.1);
        assert_eq!(retry.delay_s(2), 0.2);
        assert_eq!(retry.delay_s(3), 0.4);
        // Immediate policies stay immediate whatever the attempt.
        assert_eq!(RetryPolicy::default().delay_s(3), 0.0);
    }

    #[test]
    fn plan_builders_set_every_knob() {
        let plan = FaultPlan::new(vec![FaultEvent::new(
            1.0,
            2,
            FaultKind::Slowdown {
                duration_s: 0.5,
                factor: 3.0,
            },
        )])
        .with_warmup(0.2, 1.5)
        .with_recovery_tracking(0.9, 0.25, 2.0);
        assert_eq!(plan.faults[0].kind.name(), "slowdown");
        assert_eq!(plan.warmup_factor, 1.5);
        assert_eq!(plan.recovery_threshold, 0.9);
        assert_eq!(plan.timeline_bucket_s, 0.25);
        assert_eq!(plan.slo_window_s, 2.0);
    }

    #[test]
    #[should_panic(expected = "down time must be non-negative")]
    fn negative_down_time_is_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent::new(
            1.0,
            0,
            FaultKind::Crash { down_s: -1.0 },
        )]);
    }

    #[test]
    fn window_attainment_handles_empty_windows() {
        let w = FaultWindowStats {
            tier: "interactive".into(),
            completed: 0,
            met: 0,
        };
        assert_eq!(w.attainment(), 0.0);
        let outcome = FaultOutcome {
            at_s: 1.0,
            replica: 0,
            kind: FaultKind::Crash { down_s: 0.1 },
            recovered_at_s: Some(1.5),
            recovery_time_s: 0.5,
            windows: vec![FaultWindowStats {
                tier: "interactive".into(),
                completed: 4,
                met: 3,
            }],
        };
        assert_eq!(outcome.interactive_attainment(), 0.75);
    }
}

//! Elastic autoscaling for cluster runs (see [`crate::cluster`]).
//!
//! An [`AutoscalePolicy`] turns the fixed-size fleet into an elastic
//! one: the cluster is built at its *maximum* size, replicas beyond
//! [`AutoscalePolicy::min_replicas`] start parked in a standby pool,
//! and at every evaluation tick (each [`AutoscalePolicy::interval_s`]
//! of virtual time, processed at a clock-merge point of the cluster's
//! dispatch/window protocol) the policy watches windowed fleet
//! signals:
//!
//! * **queue pressure** — mean committed slots per batch slot across
//!   the admitting replicas
//!   ([`crate::router::ReplicaSnapshot::queue_pressure`] units);
//! * **decode occupancy** — in-flight requests per batch slot, the
//!   "are the batches actually full" companion signal;
//! * **per-tier SLO attainment** — the interactive tier's attainment
//!   over the window since the previous evaluation.
//!
//! and emits scale events:
//!
//! * **scale-up** — when pressure holds above
//!   [`AutoscalePolicy::up_pressure`] for
//!   [`AutoscalePolicy::up_windows`] consecutive evaluations (or the
//!   windowed interactive attainment drops below
//!   [`AutoscalePolicy::attainment_floor`]), a pool replica is
//!   provisioned: it joins [`AutoscalePolicy::provision_s`] later,
//!   warms up at [`AutoscalePolicy::warmup_factor`] for
//!   [`AutoscalePolicy::warmup_s`], and steals the parked KV of the
//!   most-loaded survivor as **one** priced transfer over
//!   [`AutoscalePolicy::link`] — a drain handoff in reverse.
//! * **scale-down** — when pressure *and* occupancy hold below their
//!   `down_` thresholds for [`AutoscalePolicy::down_windows`]
//!   evaluations (and the SLO window is healthy), the least-loaded
//!   replica above the floor is drained through exactly the fault
//!   path: stop admitting, reroute its queue, finish the batch, hand
//!   parked KV to the least-loaded survivor as a priced transfer —
//!   and then it returns to the pool instead of restarting.
//!
//! Every decision is a pure function of replica state at a merge
//! point, so autoscaled runs keep the cluster's determinism bar:
//! snapshots taken mid-scale-event resume bit-for-bit, and reports
//! are seed-deterministic.
//!
//! # Example
//!
//! ```
//! use duplex_sched::AutoscalePolicy;
//!
//! let policy = AutoscalePolicy::new(2)
//!     .with_pressure(1.5, 0.25)
//!     .with_cadence(0.5, 1, 2)
//!     .with_provisioning(1.0, 0.5, 1.5);
//! assert_eq!(policy.min_replicas, 2);
//! assert!(policy.up_pressure > policy.down_pressure);
//! ```

use crate::fault::KvLinkSpec;

/// Elastic scaling policy for a cluster run. Attach with
/// [`crate::ClusterSimulation::with_autoscale`]; replicas beyond
/// `min_replicas` start in the standby pool.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct AutoscalePolicy {
    /// Admitting-replica floor: scale-downs never take the fleet below
    /// this, and the first `min_replicas` replicas start active.
    pub min_replicas: usize,
    /// Mean fleet queue pressure at or above which an evaluation votes
    /// to scale up.
    pub up_pressure: f64,
    /// Mean fleet queue pressure at or below which an evaluation votes
    /// to scale down (must stay below `up_pressure` for hysteresis).
    pub down_pressure: f64,
    /// Mean decode occupancy (in-flight per batch slot) at or below
    /// which a scale-down vote stands; a fleet with full batches keeps
    /// its replicas even when nothing queues behind them.
    pub down_occupancy: f64,
    /// Windowed interactive-tier attainment below which an evaluation
    /// votes to scale up regardless of pressure (and above which
    /// scale-downs are allowed). 0 disables the attainment signal.
    pub attainment_floor: f64,
    /// Virtual seconds between evaluations.
    pub interval_s: f64,
    /// Consecutive up-votes required before a scale-up fires.
    pub up_windows: u32,
    /// Consecutive down-votes required before a scale-down fires.
    pub down_windows: u32,
    /// Virtual seconds after any scale event before the next one may
    /// fire (streaks keep counting through it).
    pub cooldown_s: f64,
    /// Virtual seconds between the scale-up decision and the replica
    /// actually joining (instance boot, weights load). The joiner's
    /// measured `scale_up_lag_s` is this plus the detection streak.
    pub provision_s: f64,
    /// Post-join warm-up window length in virtual seconds (cold caches
    /// on a fresh replica); 0 disables it.
    pub warmup_s: f64,
    /// Stage-latency multiplier during the warm-up window (>= 1).
    pub warmup_factor: f64,
    /// The link the joiner's parked-KV steal is priced over.
    pub link: KvLinkSpec,
}

impl AutoscalePolicy {
    /// A policy with a floor of `min_replicas` and serviceable
    /// defaults: scale up at 1.5 batches of pressure (2 consecutive
    /// 0.5 s windows), down at 0.25 with idle batches (4 windows),
    /// 1 s cooldown and provisioning, no warm-up, attainment signal
    /// off, default interconnect. All knobs have `with_` setters.
    pub fn new(min_replicas: usize) -> Self {
        assert!(min_replicas >= 1, "the replica floor must be at least 1");
        Self {
            min_replicas,
            up_pressure: 1.5,
            down_pressure: 0.25,
            down_occupancy: 0.5,
            attainment_floor: 0.0,
            interval_s: 0.5,
            up_windows: 2,
            down_windows: 4,
            cooldown_s: 1.0,
            provision_s: 1.0,
            warmup_s: 0.0,
            warmup_factor: 1.0,
            link: KvLinkSpec::default(),
        }
    }

    /// Set the pressure thresholds (up at/above, down at/below).
    pub fn with_pressure(mut self, up: f64, down: f64) -> Self {
        assert!(
            up > down && down >= 0.0 && up.is_finite(),
            "need finite up_pressure > down_pressure >= 0"
        );
        self.up_pressure = up;
        self.down_pressure = down;
        self
    }

    /// Set the scale-down occupancy ceiling.
    pub fn with_down_occupancy(mut self, occupancy: f64) -> Self {
        assert!(occupancy >= 0.0, "occupancy ceiling must be non-negative");
        self.down_occupancy = occupancy;
        self
    }

    /// Enable the windowed-attainment signal: scale up when the
    /// interactive tier's attainment over the last window drops below
    /// `floor`, and block scale-downs while it does.
    pub fn with_attainment_floor(mut self, floor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&floor),
            "attainment floor must be in [0, 1]"
        );
        self.attainment_floor = floor;
        self
    }

    /// Set the evaluation cadence: interval and the consecutive-window
    /// hysteresis for each direction.
    pub fn with_cadence(mut self, interval_s: f64, up_windows: u32, down_windows: u32) -> Self {
        assert!(
            interval_s > 0.0 && interval_s.is_finite(),
            "evaluation interval must be positive and finite"
        );
        assert!(
            up_windows >= 1 && down_windows >= 1,
            "hysteresis windows must be at least 1"
        );
        self.interval_s = interval_s;
        self.up_windows = up_windows;
        self.down_windows = down_windows;
        self
    }

    /// Set the post-event cooldown.
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        assert!(cooldown_s >= 0.0, "cooldown must be non-negative");
        self.cooldown_s = cooldown_s;
        self
    }

    /// Set the provisioning delay and the joiner's warm-up window:
    /// `warmup_s` seconds at `warmup_factor` times nominal latency.
    pub fn with_provisioning(
        mut self,
        provision_s: f64,
        warmup_s: f64,
        warmup_factor: f64,
    ) -> Self {
        assert!(
            provision_s >= 0.0,
            "provisioning delay must be non-negative"
        );
        assert!(warmup_s >= 0.0, "warm-up length must be non-negative");
        assert!(warmup_factor >= 1.0, "warm-up factor must be >= 1");
        self.provision_s = provision_s;
        self.warmup_s = warmup_s;
        self.warmup_factor = warmup_factor;
        self
    }

    /// Set the link the scale-up KV steal is priced over.
    pub fn with_link(mut self, link: KvLinkSpec) -> Self {
        self.link = link;
        self
    }
}

/// Scale-event counters for one cluster run; all zeros without an
/// autoscaler. Lands on [`crate::ClusterReport::scaling`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScaleStats {
    /// Pool replicas provisioned into the serving fleet.
    pub scale_ups: u64,
    /// Replicas drained back into the pool.
    pub scale_downs: u64,
    /// Worst observed scale-up lag in virtual seconds: from the first
    /// evaluation of the qualifying up-streak to the replica joining
    /// (detection hysteresis + provisioning). 0 when nothing scaled.
    pub scale_up_lag_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_every_knob() {
        let p = AutoscalePolicy::new(3)
            .with_pressure(2.0, 0.1)
            .with_down_occupancy(0.4)
            .with_attainment_floor(0.9)
            .with_cadence(0.25, 3, 5)
            .with_cooldown(2.0)
            .with_provisioning(1.5, 0.5, 2.0)
            .with_link(KvLinkSpec::new(100e9, 1e-6));
        assert_eq!(p.min_replicas, 3);
        assert_eq!(p.up_pressure, 2.0);
        assert_eq!(p.down_pressure, 0.1);
        assert_eq!(p.down_occupancy, 0.4);
        assert_eq!(p.attainment_floor, 0.9);
        assert_eq!(p.interval_s, 0.25);
        assert_eq!((p.up_windows, p.down_windows), (3, 5));
        assert_eq!(p.cooldown_s, 2.0);
        assert_eq!(p.provision_s, 1.5);
        assert_eq!((p.warmup_s, p.warmup_factor), (0.5, 2.0));
        assert_eq!(p.link.bytes_per_s, 100e9);
    }

    #[test]
    #[should_panic(expected = "up_pressure > down_pressure")]
    fn inverted_hysteresis_is_rejected() {
        let _ = AutoscalePolicy::new(1).with_pressure(0.2, 0.8);
    }

    #[test]
    #[should_panic(expected = "floor must be at least 1")]
    fn a_zero_floor_is_rejected() {
        let _ = AutoscalePolicy::new(0);
    }

    #[test]
    fn scale_stats_default_to_zero() {
        let s = ScaleStats::default();
        assert_eq!(s.scale_ups, 0);
        assert_eq!(s.scale_downs, 0);
        assert_eq!(s.scale_up_lag_s, 0.0);
    }
}

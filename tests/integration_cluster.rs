//! The cluster subsystem's acceptance claims, end to end at quick
//! scale: on the Grok-scale (2x8-devices-per-replica, 4-replica)
//! multi-turn + SLO-tiered fleet of `experiments::cluster_suite`,
//!
//! * session-affinity routing beats round-robin on fleet KV-reuse
//!   fraction *and* fleet TBT p99 (multi-turn prefix reuse survives
//!   the load balancer, so follow-up prefills shrink);
//! * least-outstanding-work routing beats round-robin on interactive
//!   SLO attainment (the capacity-weighted balancer stops overfeeding
//!   the fleet's slow replica);
//!
//! and a one-replica cluster is bit-for-bit the plain
//! `ScenarioSimulation` under every router. All numbers are simulated
//! time: seed-deterministic, so these are exact assertions, and the
//! same values land in `BENCH_cluster.json` where the CI gate pins
//! them.

use duplex::experiments::{
    autoscale_drill, build_cluster, cluster_suite, grok_disagg, run_cluster, ClusterRow,
    ClusterSpec, Scale,
};
use duplex::model::ModelConfig;
use duplex::sched::json::{self, JsonValue};
use duplex::sched::{
    Arrivals, ClusterSimulation, ClusterSnapshot, ConversationSpec, PolicyKind, ReplicaConfig,
    RouterKind, Scenario, ScenarioSimulation, SchedulingPolicy, SimulationConfig, Workload,
};
use duplex::system::{SystemConfig, SystemExecutor};

fn grok_rows() -> Vec<ClusterRow> {
    let suite = cluster_suite(&Scale::quick());
    let spec = suite
        .iter()
        .find(|s| s.name == "grok_chat_tiered")
        .expect("the suite ships the grok fleet");
    RouterKind::ALL
        .iter()
        .map(|kind| {
            let mut router = kind.build();
            let report = run_cluster(spec, router.as_mut());
            ClusterRow::of(spec, kind.name(), &report)
        })
        .collect()
}

#[test]
fn session_affinity_beats_round_robin_on_reuse_and_tail() {
    let rows = grok_rows();
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.router == name)
            .expect("router row exists")
    };
    let rr = row("round-robin");
    let aff = row("session-affinity");
    assert_eq!(rr.completed, aff.completed, "same offered rounds");
    // KV reuse: affinity keeps follow-ups next to their parked KV.
    assert!(
        aff.kv_reuse_fraction > rr.kv_reuse_fraction + 0.2,
        "affinity reuse {} vs round-robin {}",
        aff.kv_reuse_fraction,
        rr.kv_reuse_fraction
    );
    // Fleet TBT p99: reused histories stop re-prefilling through the
    // decode cohort's token gaps.
    assert!(
        aff.tbt_p99 < rr.tbt_p99,
        "affinity p99 {} vs round-robin {}",
        aff.tbt_p99,
        rr.tbt_p99
    );
}

#[test]
fn least_outstanding_beats_round_robin_on_interactive_attainment() {
    let rows = grok_rows();
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.router == name)
            .expect("router row exists")
    };
    let rr = row("round-robin");
    let jsq = row("least-outstanding");
    assert!(rr.tiered && jsq.tiered);
    assert!(
        jsq.interactive_attainment > rr.interactive_attainment + 0.02,
        "jsq interactive {} vs round-robin {}",
        jsq.interactive_attainment,
        rr.interactive_attainment
    );
    // The balancer's whole point: it routes by capacity-weighted load
    // instead of counts, so it is *less* even in counts but better in
    // deadlines.
    assert!(jsq.attainment > rr.attainment);
}

#[test]
fn one_replica_cluster_is_exactly_the_scenario_simulation() {
    // Same model, same system, same scenario: a 1-replica cluster must
    // reproduce the plain scenario scheduler bit for bit, router
    // regardless — including through a real SystemExecutor on the
    // delta fast path.
    let model = ModelConfig::mixtral_8x7b();
    let system = SystemConfig::duplex_pe_et(4, 1);
    let scenario = Scenario::new(
        "solo",
        Workload::gaussian(128, 12).with_seed(41),
        Arrivals::Poisson { qps: 400.0 },
        30,
    )
    .with_conversation(ConversationSpec::chat(0.75, 3, 0.01, 32))
    .with_tiers(Scenario::default_tiers(0.004));
    let mk_exec = || SystemExecutor::new(system.clone(), model.clone(), 7);
    let cfg = |ex: &SystemExecutor| SimulationConfig {
        max_batch: 8,
        kv_capacity_bytes: ex.kv_capacity_bytes(),
        kv_bytes_per_token: model.kv_bytes_per_token(),
        ..SimulationConfig::default()
    };

    let mut plain_ex = mk_exec();
    let plain = ScenarioSimulation::new(cfg(&plain_ex), scenario.clone())
        .run(PolicyKind::PriorityTiers.build().as_mut(), &mut plain_ex);

    for kind in RouterKind::ALL {
        let mut ex = mk_exec();
        let configs = vec![ReplicaConfig::new(cfg(&ex))];
        let mut policies: Vec<Box<dyn SchedulingPolicy>> = vec![PolicyKind::PriorityTiers.build()];
        let cluster = ClusterSimulation::new(configs, scenario.clone()).run(
            kind.build().as_mut(),
            &mut policies,
            std::slice::from_mut(&mut ex),
        );
        let r = &cluster.replicas[0];
        assert_eq!(r.stage_stats, plain.stage_stats, "{}", kind.name());
        assert_eq!(r.total_time_s.to_bits(), plain.total_time_s.to_bits());
        assert_eq!(r.completed.len(), plain.completed.len());
        for (a, b) in r.completed.iter().zip(&plain.completed) {
            assert_eq!(a.request, b.request);
            assert_eq!(a.first_token_s.to_bits(), b.first_token_s.to_bits());
            assert_eq!(a.last_token_s.to_bits(), b.last_token_s.to_bits());
        }
        assert_eq!(r.kv_reuse, plain.kv_reuse);
        assert_eq!(cluster.total_time_s.to_bits(), plain.total_time_s.to_bits());
    }
}

#[test]
fn bench_rows_are_reproducible() {
    // The exact numbers the CI gate pins: two sweeps of the quick
    // cluster suite must agree to the bit.
    let a = grok_rows();
    let b = grok_rows();
    assert_eq!(a, b);
}

#[test]
fn snapshot_resume_matches_uninterrupted_run_bit_for_bit() {
    // Pause the acceptance fleet mid-run, push the snapshot through
    // its JSON wire format, resume on a freshly built fleet, and
    // demand the final report equals the uninterrupted run's, bit for
    // bit, under every router.
    let suite = cluster_suite(&Scale::quick());
    let spec = suite
        .iter()
        .find(|s| s.name == "grok_chat_tiered")
        .expect("the suite ships the grok fleet");
    for kind in RouterKind::ALL {
        let full = run_cluster(spec, kind.build().as_mut());
        let stop_s = full.total_time_s * 0.4;

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let snapshot = sim
            .run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
            .snapshot()
            .expect("the bound lands mid-run");
        assert!(snapshot.replica_count() == spec.systems.len());

        let text = snapshot.to_json();
        let restored = ClusterSnapshot::from_json(&text).expect("the wire format round-trips");
        assert_eq!(restored, snapshot, "JSON round-trip is lossless");

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let resumed = sim
            .resume(&restored, router.as_mut(), &mut policies, &mut executors)
            .expect("the snapshot matches the fleet");
        assert_eq!(
            resumed.total_time_s.to_bits(),
            full.total_time_s.to_bits(),
            "router {}",
            kind.name()
        );
        assert_eq!(resumed, full, "router {}", kind.name());
    }
}

#[test]
fn repeated_pause_resume_still_matches() {
    // A run may pause any number of times: chain two bounded resumes
    // before the final unbounded one and compare against the oracle.
    let suite = cluster_suite(&Scale::quick());
    let spec = suite
        .iter()
        .find(|s| s.name == "mixtral_hetero")
        .expect("the suite ships the mixtral fleet");
    let kind = RouterKind::ALL[0];
    let full = run_cluster(spec, kind.build().as_mut());

    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = kind.build();
    let first = sim
        .run_until(
            router.as_mut(),
            &mut policies,
            &mut executors,
            full.total_time_s * 0.25,
        )
        .snapshot()
        .expect("first bound lands mid-run");

    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = kind.build();
    let second = sim
        .resume_until(
            &first,
            router.as_mut(),
            &mut policies,
            &mut executors,
            full.total_time_s * 0.7,
        )
        .expect("the snapshot matches the fleet")
        .snapshot()
        .expect("second bound lands mid-run");
    assert!(second.taken_at_s() > first.taken_at_s());

    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = kind.build();
    let resumed = sim
        .resume(&second, router.as_mut(), &mut policies, &mut executors)
        .expect("the snapshot matches the fleet");
    assert_eq!(resumed, full);
}

fn failover_spec(suite: &[ClusterSpec]) -> &ClusterSpec {
    suite
        .iter()
        .find(|s| s.name == "grok_failover")
        .expect("the suite ships the failure drill")
}

#[test]
fn kv_migration_beats_lose_and_retry_through_the_outage() {
    // The drill's acceptance claim: on the Grok fleet's scripted
    // crash + drain, migration-aware routing must beat plain session
    // affinity (whose displaced conversations re-prefill from scratch)
    // on during-failure interactive SLO attainment AND fleet TBT p99.
    let suite = cluster_suite(&Scale::quick());
    let spec = failover_spec(&suite);
    let run = |kind: RouterKind| {
        let mut router = kind.build();
        let report = run_cluster(spec, router.as_mut());
        ClusterRow::of(spec, kind.name(), &report)
    };
    let aff = run(RouterKind::SessionAffinity);
    let mig = run(RouterKind::KvMigration);
    assert!(
        mig.fault_attainment > aff.fault_attainment,
        "during-failure interactive attainment: migration {} vs affinity {}",
        mig.fault_attainment,
        aff.fault_attainment
    );
    assert!(
        mig.tbt_p99 < aff.tbt_p99,
        "fleet TBT p99: migration {} vs affinity {}",
        mig.tbt_p99,
        aff.tbt_p99
    );
    // The win is bought with the interconnect: the migration-aware
    // router ships strictly more KV than affinity's drain handoff.
    assert!(mig.kv_bytes_migrated > aff.kv_bytes_migrated);
}

#[test]
fn failure_drill_recovery_metrics_are_deterministic_and_populated() {
    // The numbers the CI recovery gate pins: scripted faults fire
    // seed-deterministically, lost requests retry to completion, and
    // both recovery metrics come out non-degenerate — twice, to the
    // bit.
    let suite = cluster_suite(&Scale::quick());
    let spec = failover_spec(&suite);
    for kind in RouterKind::ALL {
        let a = run_cluster(spec, kind.build().as_mut());
        let b = run_cluster(spec, kind.build().as_mut());
        assert_eq!(a, b, "drill reruns bit-identically under {}", kind.name());
        assert_eq!(a.recovery.faults_injected, 2, "{}", kind.name());
        assert!(a.recovery.requests_lost > 0, "{}", kind.name());
        assert_eq!(a.recovery.requests_dropped, 0, "{}", kind.name());
        assert!(a.recovery.kv_bytes_migrated > 0, "{}", kind.name());
        assert!(a.recovery_time_s() > 0.0, "{}", kind.name());
        let fault_slo = a.fault_interactive_attainment();
        assert!(
            fault_slo > 0.0 && fault_slo < 1.0,
            "{}: during-failure attainment {} should show real damage",
            kind.name(),
            fault_slo
        );
    }
}

#[test]
fn mid_outage_snapshot_resumes_bit_for_bit() {
    // Pause the drill *between* the crash and the drain — fault state,
    // retry attempts and recovery counters all mid-flight — round-trip
    // the snapshot through JSON, and demand the resumed report equal
    // the uninterrupted run's under every router.
    let suite = cluster_suite(&Scale::quick());
    let spec = failover_spec(&suite);
    let plan = spec.faults.as_ref().expect("the drill scripts faults");
    let crash_at = plan.faults[0].at_s;
    let drain_at = plan.faults[1].at_s;
    let stop_s = 0.5 * (crash_at + drain_at);
    for kind in RouterKind::ALL {
        let full = run_cluster(spec, kind.build().as_mut());

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let snapshot = sim
            .run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
            .snapshot()
            .expect("the bound lands mid-run");
        let restored =
            ClusterSnapshot::from_json(&snapshot.to_json()).expect("the wire format round-trips");
        assert_eq!(restored, snapshot);

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let resumed = sim
            .resume(&restored, router.as_mut(), &mut policies, &mut executors)
            .expect("the snapshot matches the fleet");
        assert_eq!(resumed, full, "router {}", kind.name());
    }
}

#[test]
fn a_faultless_fleet_rejects_a_faulted_snapshot() {
    // Snapshot the drill mid-run, then try to resume it on the same
    // fleet built *without* its fault plan: the mismatch must be a
    // described error, not a silent divergence.
    let suite = cluster_suite(&Scale::quick());
    let spec = failover_spec(&suite);
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = RouterKind::RoundRobin.build();
    let snapshot = sim
        .run_until(
            router.as_mut(),
            &mut policies,
            &mut executors,
            spec.faults.as_ref().unwrap().faults[0].at_s * 0.5,
        )
        .snapshot()
        .expect("the bound lands mid-run");

    let mut calm = spec.clone();
    calm.faults = None;
    let (sim, mut policies, mut executors) = build_cluster(&calm);
    let mut router = RouterKind::RoundRobin.build();
    let err = sim
        .resume(&snapshot, router.as_mut(), &mut policies, &mut executors)
        .expect_err("a faulted snapshot cannot resume on a faultless fleet");
    assert!(err.contains("fault"), "{err}");
}

// ------------------------------------------------------- autoscaling

fn drill_rows() -> Vec<ClusterRow> {
    autoscale_drill(&Scale::quick())
        .iter()
        .map(|spec| {
            let mut router = RouterKind::LeastOutstandingWork.build();
            let report = run_cluster(spec, router.as_mut());
            ClusterRow::of(spec, "least-outstanding", &report)
        })
        .collect()
}

#[test]
fn the_autoscaler_matches_peak_slo_at_a_fraction_of_the_bill() {
    // The PR's acceptance claim, on the diurnal drill: the elastic
    // fleet holds interactive SLO attainment within 0.03 of the
    // statically peak-provisioned fleet while billing at least 25%
    // fewer replica-seconds — and the statically floor-provisioned
    // fleet shows why the pool exists at all.
    let rows = drill_rows();
    let (elastic, stat_min, stat_peak) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(elastic.completed, stat_peak.completed, "same offered load");
    assert_eq!(elastic.completed, stat_min.completed, "same offered load");
    assert!(
        elastic.interactive_attainment >= stat_peak.interactive_attainment - 0.03,
        "elastic interactive attainment {} must stay within 0.03 of the peak fleet's {}",
        elastic.interactive_attainment,
        stat_peak.interactive_attainment
    );
    assert!(
        elastic.replica_seconds <= 0.75 * stat_peak.replica_seconds,
        "elastic bill {} replica-seconds must undercut the peak fleet's {} by >= 25%",
        elastic.replica_seconds,
        stat_peak.replica_seconds
    );
    // The floor fleet is cheaper still but pays for it in deadlines:
    // the diurnal crest buries two replicas.
    assert!(elastic.replica_seconds > stat_min.replica_seconds);
    assert!(
        elastic.interactive_attainment > stat_min.interactive_attainment + 0.3,
        "elastic {} vs floor fleet {}",
        elastic.interactive_attainment,
        stat_min.interactive_attainment
    );
    // The elasticity is real: replicas joined from the pool with a
    // measured provisioning lag and drained back on the down-swing.
    assert!(elastic.scale_ups >= 2, "{}", elastic.scale_ups);
    assert!(elastic.scale_downs >= 1, "{}", elastic.scale_downs);
    assert!(elastic.scale_up_lag_s > 0.0);
    assert_eq!(stat_peak.scale_ups + stat_min.scale_ups, 0);
}

#[test]
fn a_mid_scale_snapshot_of_the_drill_resumes_bit_for_bit() {
    // Pause the elastic drill mid-run — pool membership, hysteresis
    // streaks and any in-flight scale events all live state — push the
    // snapshot through JSON, resume on a freshly built fleet, and
    // demand the uninterrupted report.
    let drill = autoscale_drill(&Scale::quick());
    let spec = &drill[0];
    let kind = RouterKind::LeastOutstandingWork;
    let full = run_cluster(spec, kind.build().as_mut());
    assert!(full.scaling.scale_ups > 0, "the drill actually scales");
    for frac in [0.2, 0.45, 0.7] {
        let stop_s = frac * full.total_time_s;
        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let snapshot = sim
            .run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
            .snapshot()
            .expect("the bound lands mid-run");
        let restored =
            ClusterSnapshot::from_json(&snapshot.to_json()).expect("the wire format round-trips");
        assert_eq!(restored, snapshot, "JSON round-trip is lossless");

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build();
        let resumed = sim
            .resume(&restored, router.as_mut(), &mut policies, &mut executors)
            .expect("the snapshot matches the fleet");
        assert_eq!(resumed, full, "paused at {frac} of the run");
    }
}

#[test]
fn a_static_fleet_rejects_an_autoscaled_snapshot() {
    // Same shape as the fault-plan mismatch: an elastic snapshot must
    // not silently resume on a fleet built without the policy.
    let drill = autoscale_drill(&Scale::quick());
    let spec = &drill[0];
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = RouterKind::RoundRobin.build();
    let full = run_cluster(spec, RouterKind::RoundRobin.build().as_mut());
    let snapshot = sim
        .run_until(
            router.as_mut(),
            &mut policies,
            &mut executors,
            0.3 * full.total_time_s,
        )
        .snapshot()
        .expect("the bound lands mid-run");

    let mut rigid = spec.clone();
    rigid.autoscale = None;
    let (sim, mut policies, mut executors) = build_cluster(&rigid);
    let mut router = RouterKind::RoundRobin.build();
    let err = sim
        .resume(&snapshot, router.as_mut(), &mut policies, &mut executors)
        .expect_err("an autoscaled snapshot cannot resume on a static fleet");
    assert!(err.contains("autoscale"), "{err}");
}

// --------------------------------------------- disaggregated serving

fn disagg_rows() -> (Vec<ClusterRow>, Vec<duplex::sched::DisaggStats>) {
    let drill = grok_disagg(&Scale::quick());
    let mut rows = Vec::new();
    let mut stats = Vec::new();
    for spec in &drill {
        let mut router = RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
        let report = run_cluster(spec, router.as_mut());
        rows.push(ClusterRow::of(spec, "least-outstanding", &report));
        stats.push(report.disagg);
    }
    (rows, stats)
}

#[test]
fn disagg_beats_chunked_colocation_on_tail_latency() {
    // The PR's acceptance claim, on the long-prefill Grok drill: the
    // prefill/decode pool split beats adaptive-chunked colocation on
    // mixed-stage TBT p99 while holding at least 90% of its generation
    // throughput — decode stages never co-batch a prompt, so the tail
    // stops paying for prefill stalls.
    let (rows, stats) = disagg_rows();
    let (colo, chunked, disagg) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(colo.completed, disagg.completed, "same offered load");
    assert_eq!(chunked.completed, disagg.completed, "same offered load");
    assert!(
        disagg.tbt_p99 < chunked.tbt_p99,
        "disagg TBT p99 {} must beat the chunked incumbent's {}",
        disagg.tbt_p99,
        chunked.tbt_p99
    );
    assert!(
        disagg.throughput >= 0.9 * chunked.throughput,
        "disagg throughput {} must hold >= 90% of chunked's {}",
        disagg.throughput,
        chunked.throughput
    );
    // Chunking already mitigates what disaggregation removes.
    assert!(chunked.tbt_p99 < colo.tbt_p99);
    // The split is real: every prompt crossed the interconnect, and
    // only the split fleet shipped anything.
    let d = &stats[2];
    assert_eq!(d.handoffs as usize, disagg.completed);
    assert!(d.kv_bytes_shipped > 0);
    assert!(d.transfer_seconds > 0.0);
    assert_eq!(stats[0], duplex::sched::DisaggStats::default());
    assert_eq!(stats[1], duplex::sched::DisaggStats::default());
}

#[test]
fn a_mid_transfer_snapshot_of_the_disagg_drill_resumes_bit_for_bit() {
    // Pause the split fleet mid-run — admission-time decode
    // assignments in flight, prompts half-prefilled on the prefill
    // pool — push the snapshot through JSON, resume on a freshly built
    // fleet, and demand the uninterrupted report.
    let drill = grok_disagg(&Scale::quick());
    let spec = &drill[2];
    let ctx = spec.router_context();
    let kind = RouterKind::LeastOutstandingWork;
    let full = run_cluster(spec, kind.build_with(&ctx).as_mut());
    assert!(full.disagg.handoffs > 0, "the drill actually hands off");
    let mut saw_assignments = false;
    for frac in [0.2, 0.45, 0.7] {
        let stop_s = frac * full.total_time_s;
        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build_with(&ctx);
        let snapshot = sim
            .run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
            .snapshot()
            .expect("the bound lands mid-run");
        let restored =
            ClusterSnapshot::from_json(&snapshot.to_json()).expect("the wire format round-trips");
        assert_eq!(restored, snapshot, "JSON round-trip is lossless");
        saw_assignments |= snapshot.to_json().contains("\"assignments\":[[");

        let (sim, mut policies, mut executors) = build_cluster(spec);
        let mut router = kind.build_with(&ctx);
        let resumed = sim
            .resume(&restored, router.as_mut(), &mut policies, &mut executors)
            .expect("the snapshot matches the fleet");
        assert_eq!(resumed, full, "paused at {frac} of the run");
    }
    assert!(
        saw_assignments,
        "at least one pause caught a transfer in flight"
    );
}

#[test]
fn a_colocated_fleet_rejects_a_disaggregated_snapshot() {
    // Same shape as the fault-plan and autoscale mismatches: a pool
    // split snapshot must not silently resume on a colocated fleet.
    let drill = grok_disagg(&Scale::quick());
    let spec = &drill[2];
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = RouterKind::RoundRobin.build();
    let full = run_cluster(spec, RouterKind::RoundRobin.build().as_mut());
    let snapshot = sim
        .run_until(
            router.as_mut(),
            &mut policies,
            &mut executors,
            0.3 * full.total_time_s,
        )
        .snapshot()
        .expect("the bound lands mid-run");

    let mut colocated = spec.clone();
    colocated.disagg = None;
    let (sim, mut policies, mut executors) = build_cluster(&colocated);
    let mut router = RouterKind::RoundRobin.build();
    let err = sim
        .resume(&snapshot, router.as_mut(), &mut policies, &mut executors)
        .expect_err("a disaggregated snapshot cannot resume on a colocated fleet");
    assert!(err.contains("disagg"), "{err}");
}

// ------------------------------------------- hostile snapshot inputs

/// Pause `spec` under least-outstanding routing at `stop_s`.
fn pause(spec: &ClusterSpec, stop_s: f64) -> ClusterSnapshot {
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
    sim.run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
        .snapshot()
        .expect("the bound lands mid-run")
}

/// The three drills' fixed pause points: the failure drill between its
/// crash and its drain, the elastic autoscale fleet and the split
/// disagg fleet a little under halfway through their runs.
fn drill_pauses() -> Vec<(&'static str, ClusterSpec, ClusterSnapshot)> {
    let suite = cluster_suite(&Scale::quick());
    let failover = failover_spec(&suite).clone();
    let plan = failover.faults.as_ref().expect("the drill scripts faults");
    let failover_stop = 0.5 * (plan.faults[0].at_s + plan.faults[1].at_s);
    let autoscale = autoscale_drill(&Scale::quick()).swap_remove(0);
    let disagg = grok_disagg(&Scale::quick()).swap_remove(2);
    vec![
        (
            "failover",
            failover.clone(),
            pause(&failover, failover_stop),
        ),
        (
            "autoscale",
            autoscale.clone(),
            pause(&autoscale, AUTOSCALE_STOP_S),
        ),
        ("disagg", disagg.clone(), pause(&disagg, DISAGG_STOP_S)),
    ]
}

fn hetero_spec() -> ClusterSpec {
    cluster_suite(&Scale::quick())
        .into_iter()
        .find(|s| s.name == "mixtral_hetero")
        .expect("the suite ships the mixtral fleet")
}

#[test]
fn resume_rejects_slices_without_one_entry_per_replica() {
    // A resume handed too few policies or executors reports both
    // lengths as an error instead of panicking.
    let spec = hetero_spec();
    let snapshot = pause(&spec, 0.0);
    let n = spec.systems.len();
    let (sim, mut policies, mut executors) = build_cluster(&spec);
    let mut router = RouterKind::RoundRobin.build();
    let err = sim
        .resume(
            &snapshot,
            router.as_mut(),
            &mut policies[..n - 1],
            &mut executors,
        )
        .expect_err("too few policies");
    assert_eq!(
        err,
        format!(
            "one scheduling policy per replica: {} policies for {n} replicas",
            n - 1
        )
    );
    let err = sim
        .resume_until(
            &snapshot,
            router.as_mut(),
            &mut policies,
            &mut executors[..n - 1],
            1.0,
        )
        .expect_err("too few executors");
    assert_eq!(
        err,
        format!(
            "one executor per replica: {} executors for {n} replicas",
            n - 1
        )
    );
}

#[test]
#[should_panic(expected = "one scheduling policy per replica: 1 policies for")]
fn run_panics_on_too_few_policies() {
    let (sim, mut policies, mut executors) = build_cluster(&hetero_spec());
    let mut router = RouterKind::RoundRobin.build();
    sim.run(router.as_mut(), &mut policies[..1], &mut executors);
}

#[test]
#[should_panic(expected = "one executor per replica: 1 executors for")]
fn run_until_panics_on_too_few_executors() {
    let (sim, mut policies, mut executors) = build_cluster(&hetero_spec());
    let mut router = RouterKind::RoundRobin.build();
    sim.run_until(router.as_mut(), &mut policies, &mut executors[..1], 1.0);
}

const AUTOSCALE_STOP_S: f64 = 1.7;
const DISAGG_STOP_S: f64 = 2.8;

/// The node at `path` (object keys and array indices).
fn node<'a>(mut v: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    for key in path {
        v = match v {
            JsonValue::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
            JsonValue::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            _ => panic!("{key}: not a container"),
        };
    }
    v
}

fn items<'a>(v: &'a mut JsonValue, path: &[&str]) -> &'a mut Vec<JsonValue> {
    match node(v, path) {
        JsonValue::Arr(items) => items,
        _ => panic!("{path:?}: not an array"),
    }
}

fn num(x: u64) -> JsonValue {
    JsonValue::Str(x.to_string())
}

fn row(xs: &[u64]) -> JsonValue {
    JsonValue::Arr(xs.iter().map(|&x| num(x)).collect())
}

fn secs(t: f64) -> JsonValue {
    num(t.to_bits())
}

type Corruption = fn(&mut JsonValue, &ClusterSpec);

/// The index of the first replica whose `field` list is not empty.
fn first_with(v: &mut JsonValue, field: &str) -> String {
    let replicas = items(v, &["replicas"]).len();
    (0..replicas)
        .map(|i| i.to_string())
        .find(|i| !items(v, &["replicas", i, field]).is_empty())
        .unwrap_or_else(|| panic!("no replica has a {field} entry"))
}

/// Push `row(request)` onto the `field` list of the first decoding
/// replica, where `request` is that replica's first decoding request.
/// The drills leave the lists this fills empty, so the row lands at
/// index 0. Returns the replica index.
fn inject(v: &mut JsonValue, field: &str, row: fn(&JsonValue) -> JsonValue) -> String {
    let i = first_with(v, "active");
    let request = node(v, &["replicas", &i, "active", "0"]).clone();
    items(v, &["replicas", &i, field]).push(row(&request));
    i
}

/// An object of the `keys` members of `from` (cloned) and `extra`.
fn obj(from: &JsonValue, keys: &[&str], extra: Vec<(&str, JsonValue)>) -> JsonValue {
    let copied = keys.iter().map(|&k| (k, from.get(k).unwrap().clone()));
    JsonValue::Obj(
        copied
            .chain(extra)
            .map(|(k, x)| (k.to_owned(), x))
            .collect(),
    )
}

const MEMBER: [&str; 3] = ["pending", "generated", "first_token_s"];

/// A paused copy of a decoding request, paused at its first token.
fn paused(a: &JsonValue) -> JsonValue {
    let extra = vec![
        ("ctx", num(64)),
        ("swapped", JsonValue::Bool(false)),
        ("paused_at_s", a.get("first_token_s").unwrap().clone()),
    ];
    obj(a, &MEMBER, extra)
}

/// Set the time at `path` under replica `i`.
fn set(v: &mut JsonValue, i: &str, path: &[&str], t: f64) {
    let path: Vec<&str> = ["replicas", i].iter().chain(path).copied().collect();
    *node(v, &path) = secs(t);
}

/// Set the time of the first fault event with action `code` (0 applies
/// a plan fault, 1 restarts a replica).
fn set_fault_event(v: &mut JsonValue, code: u64, t: f64) {
    let events = items(v, &["fault", "events"]).len();
    let e = (0..events)
        .map(|e| e.to_string())
        .find(|e| *node(v, &["fault", "events", e, "2"]) == num(code))
        .expect("the fault queue holds such an event");
    *node(v, &["fault", "events", &e, "0"]) = secs(t);
}

/// Add one to the context of the first decode group in the first
/// executor checkpoint that has one and that the next stage reads (a
/// replica whose carried delta is fresh, such as a crashed one, drops
/// its checkpoint).
fn bump_checkpoint_context(v: &mut JsonValue) {
    let replicas = items(v, &["replicas"]).len();
    for i in 0..replicas {
        let i = i.to_string();
        if matches!(node(v, &["replicas", &i, "batch"]), JsonValue::Null)
            || matches!(
                node(v, &["replicas", &i, "delta_fresh"]),
                JsonValue::Bool(true)
            )
            || items(v, &["replicas", &i, "batch", "decode_groups"]).is_empty()
        {
            continue;
        }
        bump(v, &["replicas", &i, "batch", "decode_groups", "0", "0"]);
        return;
    }
    panic!("no replica carries a decode group");
}

/// Add one to the quoted integer at `path`.
fn bump(v: &mut JsonValue, path: &[&str]) {
    let JsonValue::Str(digits) = node(v, path) else {
        panic!("{path:?}: not a quoted integer");
    };
    *digits = (digits.parse::<u64>().unwrap() + 1).to_string();
}

#[test]
fn corrupted_drill_snapshots_are_rejected_with_errors() {
    // One corruption per validated field, applied to real mid-run
    // snapshots of the three drills and pushed through the wire
    // format: resume must answer with a described error, never a
    // panic and never a silent divergence.
    let cases: [(&str, &str, Corruption, &str); 45] = [
        (
            "failover",
            "replica count",
            |v, _| drop(items(v, &["replicas"]).pop()),
            "replicas, the cluster has",
        ),
        (
            "failover",
            "tier count",
            |v, _| drop(items(v, &["replicas", "0", "tiers"]).pop()),
            "SLO tiers, the scenario has",
        ),
        (
            "failover",
            "fault-window count",
            |v, _| drop(items(v, &["replicas", "1", "window_counts"]).pop()),
            "fault windows, the plan has",
        ),
        (
            "failover",
            "fault-window tier slots",
            |v, _| drop(items(v, &["replicas", "2", "window_counts", "0"]).pop()),
            "tier slots, the scenario has",
        ),
        (
            "failover",
            "fault event code",
            |v, _| *node(v, &["fault", "events", "0", "2"]) = num(7),
            "fault event has code 7 with out-of-range argument",
        ),
        (
            "failover",
            "fault event argument",
            |v, _| {
                *node(v, &["fault", "events", "0", "2"]) = num(0);
                *node(v, &["fault", "events", "0", "3"]) = num(99);
            },
            "fault event has code 0 with out-of-range argument 99",
        ),
        (
            "failover",
            "drain-state replica",
            |v, _| items(v, &["fault", "draining_down"]).push(row(&[99, 0, 0])),
            "drain state targets replica 99",
        ),
        (
            "failover",
            "fault event time",
            |v, _| *node(v, &["fault", "events", "0", "0"]) = num(f64::NAN.to_bits()),
            "fault event has a NaN time",
        ),
        (
            "autoscale",
            "autoscale pool length",
            |v, _| drop(items(v, &["autoscale", "pool"]).pop()),
            "autoscale state covers",
        ),
        (
            "autoscale",
            "autoscale draining length",
            |v, _| items(v, &["autoscale", "draining"]).push(JsonValue::Bool(false)),
            "autoscale state covers",
        ),
        (
            "autoscale",
            "scale-event replica",
            |v, _| {
                *node(v, &["autoscale", "events", "0", "2"]) = num(2);
                *node(v, &["autoscale", "events", "0", "3"]) = num(99);
            },
            "scale event has code 2 with out-of-range argument 99",
        ),
        (
            "autoscale",
            "scale event time",
            |v, _| *node(v, &["autoscale", "events", "0", "0"]) = num(f64::NAN.to_bits()),
            "scale event has a NaN time",
        ),
        (
            "disagg",
            "assignment to a prefill replica",
            |v, spec| {
                let prefill = spec.disagg.as_ref().unwrap().prefill_replicas[0] as u64;
                items(v, &["disagg", "assignments"]).push(row(&[u64::MAX, prefill, 0]));
            },
            "which is not in the decode pool",
        ),
        (
            "disagg",
            "assignment out of range",
            |v, _| items(v, &["disagg", "assignments"]).push(row(&[u64::MAX, 99, 0])),
            "to replica 99 of",
        ),
        (
            "failover",
            "checkpoint context",
            |v, _| bump_checkpoint_context(v),
            "the executor checkpoint does not match the decoding requests",
        ),
        (
            "autoscale",
            "checkpoint context",
            |v, _| bump_checkpoint_context(v),
            "the executor checkpoint does not match the decoding requests",
        ),
        (
            "disagg",
            "checkpoint context",
            |v, _| bump_checkpoint_context(v),
            "the executor checkpoint does not match the decoding requests",
        ),
        (
            "failover",
            "digest bucket index",
            |v, _| items(v, &["replicas", "0", "tbt_digest", "buckets"]).push(row(&[1520, 1, 0])),
            "a snapshot latency digest has a bucket index out of range",
        ),
        (
            "failover",
            "KV reservation",
            |v, _| bump(v, &["replicas", "0", "reserved"]),
            "the snapshot KV reservation does not match the in-flight requests",
        ),
        (
            "autoscale",
            "KV reservation",
            |v, _| bump(v, &["replicas", "0", "reserved"]),
            "the snapshot KV reservation does not match the in-flight requests",
        ),
        (
            "disagg",
            "KV reservation",
            |v, _| bump(v, &["replicas", "0", "reserved"]),
            "the snapshot KV reservation does not match the in-flight requests",
        ),
        (
            "failover",
            "decoding request tier",
            |v, _| {
                let i = first_with(v, "active");
                *node(v, &["replicas", &i, "active", "0", "pending", "tier"]) = num(3);
            },
            "has SLO tier 3, the scenario has 3",
        ),
        (
            "failover",
            "queued follow-up tier",
            |v, _| *node(v, &["stream", "followups", "0", "tier"]) = num(99),
            "has SLO tier 99, the scenario has 3",
        ),
        (
            "autoscale",
            "far-future replica clock",
            |v, _| *node(v, &["replicas", "4", "clock"]) = num(8.2e133_f64.to_bits()),
            "replica 4: clock 8.2e133 s is not within a day of the pause",
        ),
        (
            "autoscale",
            "far-future source clock",
            |v, _| *node(v, &["stream", "source_clock"]) = num(1e130_f64.to_bits()),
            "stream: source clock 1e130 s is not within a day of the pause",
        ),
        (
            "autoscale",
            "NaN source phase end",
            |v, _| *node(v, &["stream", "source_phase_until"]) = num(f64::NAN.to_bits()),
            "stream: source phase end NaN s is not within a day of the pause",
        ),
        (
            "autoscale",
            "far-future peeked arrival",
            |v, _| *node(v, &["stream", "peeked", "arrival_s"]) = num(1e130_f64.to_bits()),
            "arrival 1e130 s is not within a day of the pause",
        ),
        (
            "failover",
            "negative queued follow-up arrival",
            |v, _| {
                *node(v, &["stream", "followups", "0", "request", "arrival_s"]) =
                    num((-1.0_f64).to_bits())
            },
            "arrival -1e0 s is not within a day of the pause",
        ),
        (
            "disagg",
            "far-future inbox arrival",
            |v, _| {
                let i = first_with(v, "inbox");
                set(v, &i, &["inbox", "0", "request", "arrival_s"], 1e130);
            },
            "arrival 1e130 s is not within a day of the pause",
        ),
        (
            "disagg",
            "negative inbox arrival",
            |v, _| {
                let i = first_with(v, "inbox");
                set(v, &i, &["inbox", "0", "request", "arrival_s"], -1.0);
            },
            "arrival -1e0 s is not within a day of the pause",
        ),
        (
            "failover",
            "NaN first token of a decoding request",
            |v, _| {
                let i = first_with(v, "active");
                set(v, &i, &["active", "0", "first_token_s"], f64::NAN);
            },
            "first token NaN s is not within a day of the pause",
        ),
        (
            "autoscale",
            "far-future first token of a decoding request",
            |v, _| {
                let i = first_with(v, "active");
                set(v, &i, &["active", "0", "first_token_s"], 1e130);
            },
            "first token 1e130 s is not within a day of the pause",
        ),
        (
            "failover",
            "NaN pause time",
            |v, _| {
                let i = inject(v, "paused", paused);
                set(v, &i, &["paused", "0", "paused_at_s"], f64::NAN);
            },
            "pause NaN s is not within a day of the pause",
        ),
        (
            "autoscale",
            "far-future pause time",
            |v, _| {
                let i = inject(v, "paused", paused);
                set(v, &i, &["paused", "0", "paused_at_s"], 1e130);
            },
            "pause 1e130 s is not within a day of the pause",
        ),
        (
            "failover",
            "negative first token of a paused request",
            |v, _| {
                let i = inject(v, "paused", paused);
                set(v, &i, &["paused", "0", "first_token_s"], -1.0);
            },
            "first token -1e0 s is not within a day of the pause",
        ),
        (
            "failover",
            "far-future first token carried through a recompute",
            |v, _| {
                let i = inject(v, "chunking", |a| {
                    let extra = vec![
                        ("history", num(0)),
                        ("processed", num(0)),
                        ("prefill_total", num(64)),
                        ("resumed", obj(a, &["generated", "first_token_s"], vec![])),
                    ];
                    obj(a, &["pending"], extra)
                });
                set(v, &i, &["chunking", "0", "resumed", "first_token_s"], 1e130);
            },
            "first token 1e130 s is not within a day of the pause",
        ),
        (
            "disagg",
            "NaN first token of a multiplexed request",
            |v, _| {
                let i = inject(v, "mux", |a| {
                    let extra = vec![
                        ("ctx", num(64)),
                        ("generated", num(0)),
                        ("kv_bytes", num(0)),
                        ("quality", secs(0.9)),
                        ("members", JsonValue::Arr(vec![obj(a, &MEMBER, vec![])])),
                    ];
                    obj(a, &[], extra)
                });
                set(
                    v,
                    &i,
                    &["mux", "0", "members", "0", "first_token_s"],
                    f64::NAN,
                );
            },
            "first token NaN s is not within a day of the pause",
        ),
        (
            "failover",
            "far-future fault restart",
            |v, _| set_fault_event(v, 1, 1e130),
            "snapshot fault event at 1e130 s is not within a day and",
        ),
        (
            "failover",
            "negative fault restart",
            |v, _| set_fault_event(v, 1, -1.0),
            "snapshot fault event at -1e0 s is not within a day and",
        ),
        (
            "failover",
            "plan fault moved far ahead",
            |v, _| set_fault_event(v, 0, 1e130),
            "snapshot fault event at 1e130 s is not within a day and",
        ),
        (
            "autoscale",
            "far-future scale event",
            |v, _| *node(v, &["autoscale", "events", "0", "0"]) = secs(1e130),
            "snapshot scale event at 1e130 s is not within a day and",
        ),
        (
            "autoscale",
            "negative scale event",
            |v, _| *node(v, &["autoscale", "events", "0", "0"]) = secs(-1.0),
            "snapshot scale event at -1e0 s is not within a day and",
        ),
        (
            "failover",
            "pause and one replica clock moved far ahead",
            |v, _| {
                *node(v, &["taken_at_s"]) = secs(1e130);
                set(v, "1", &["clock"], 1e130);
            },
            "replica 2: clock 1.7773220911446732e0 s is behind the pause at 1e130 s",
        ),
        (
            "autoscale",
            "NaN pause",
            |v, _| *node(v, &["taken_at_s"]) = secs(f64::NAN),
            "the pause at NaN s is not a finite, non-negative time",
        ),
        (
            "disagg",
            "infinite pause",
            |v, _| *node(v, &["taken_at_s"]) = secs(f64::INFINITY),
            "the pause at inf s is not a finite, non-negative time",
        ),
    ];
    let pauses = drill_pauses();
    for (drill, field, corrupt, phrase) in cases {
        let (_, spec, snapshot) = pauses.iter().find(|(d, _, _)| *d == drill).unwrap();
        let original = snapshot.to_json();
        let mut doc = json::parse(&original).expect("snapshots are JSON");
        assert_eq!(
            json::emit(&doc),
            original,
            "re-emission alone changes nothing"
        );
        corrupt(&mut doc, spec);
        let corrupted =
            ClusterSnapshot::from_json(&json::emit(&doc)).expect("still a well-formed document");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (sim, mut policies, mut executors) = build_cluster(spec);
            let mut router = RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
            sim.resume(&corrupted, router.as_mut(), &mut policies, &mut executors)
        }));
        let err = match outcome {
            Ok(Err(err)) => err,
            Ok(Ok(_)) => panic!("{drill} {field}: the corrupted snapshot resumed"),
            Err(_) => panic!("{drill} {field}: resume panicked instead of returning an error"),
        };
        assert!(err.contains(phrase), "{drill} {field}: {err}");
    }
    // A never-ending outage schedules its restart at +inf: that time is
    // legal, and the resumed run still finishes.
    let (_, spec, snapshot) = pauses.iter().find(|(d, _, _)| *d == "failover").unwrap();
    let mut doc = json::parse(&snapshot.to_json()).expect("snapshots are JSON");
    set_fault_event(&mut doc, 1, f64::INFINITY);
    let endless = ClusterSnapshot::from_json(&json::emit(&doc)).expect("well-formed");
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
    let report = sim
        .resume(&endless, router.as_mut(), &mut policies, &mut executors)
        .expect("a restart at +inf resumes");
    assert!(report.completed() > 0);
}

#[test]
fn retired_snapshot_keys_are_parse_errors() {
    // Three keys of the v5 wire format belong to removed features:
    // snapshots still write them empty or zero, and a document that
    // sets one is rejected at parse with an error naming the key.
    let cases: [(&str, Corruption); 3] = [
        ("triggers", |v, _| {
            items(v, &["fault", "triggers"]).push(row(&[0, 0]))
        }),
        ("triggers_fired", |v, _| {
            *node(v, &["stats", "triggers_fired"]) = num(1)
        }),
        ("requests_deferred", |v, _| {
            *node(v, &["stats", "requests_deferred"]) = num(6)
        }),
    ];
    let pauses = drill_pauses();
    let (_, spec, snapshot) = pauses.iter().find(|(d, _, _)| *d == "failover").unwrap();
    for (key, corrupt) in cases {
        let mut doc = json::parse(&snapshot.to_json()).expect("snapshots are JSON");
        corrupt(&mut doc, spec);
        let text = json::emit(&doc);
        let outcome = std::panic::catch_unwind(|| ClusterSnapshot::from_json(&text));
        let err = match outcome {
            Ok(Err(err)) => err,
            Ok(Ok(_)) => panic!("{key}: a set retired key parsed"),
            Err(_) => panic!("{key}: parsing panicked instead of returning an error"),
        };
        assert!(err.contains(&format!("\"{key}\"")), "{key}: {err}");
    }
}

#[test]
fn digit_mutated_snapshots_error_or_resume_without_panicking() {
    // Seeded single-digit mutations of each drill snapshot, parsed and
    // resumed on a fresh fleet. Each must end in a parse error, a
    // resume error or a report, never a panic. Most mutations land in
    // a float's bits or a counter a resumed run carries on from; the
    // rest break an invariant `resume` checks before any import.
    let cases = if cfg!(debug_assertions) { 50 } else { 300 };
    let mut state = 0x5eed_0fd1_6175_u64;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut resume_errors = 0;
    for (drill, spec, snapshot) in drill_pauses() {
        let text = snapshot.to_json();
        let digits: Vec<usize> = text
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        for case in 0..cases {
            let pos = digits[(next() % digits.len() as u64) as usize];
            let mut bytes = text.clone().into_bytes();
            let shift = 1 + (next() % 9) as u8;
            bytes[pos] = b'0' + (bytes[pos] - b'0' + shift) % 10;
            let mutated = String::from_utf8(bytes).expect("a digit for a digit");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let Ok(corrupted) = ClusterSnapshot::from_json(&mutated) else {
                    return false;
                };
                let (sim, mut policies, mut executors) = build_cluster(&spec);
                let mut router =
                    RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
                sim.resume(&corrupted, router.as_mut(), &mut policies, &mut executors)
                    .is_err()
            }));
            match outcome {
                Ok(rejected) => resume_errors += usize::from(rejected),
                Err(_) => panic!("{drill} case {case}: byte {pos} mutated, resume panicked"),
            }
        }
    }
    assert!(resume_errors > 0, "no mutation reached a resume check");
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn drill_snapshot_bytes_are_pinned() {
    // The v5 wire format is a compatibility promise: the same run
    // paused at the same bound writes the same bytes, release after
    // release. A change to these hashes is a schema change.
    let expected = [
        ("failover", 0x77f6_e275_2db3_58b5_u64, 36_919_usize),
        ("autoscale", 0xfdb5_d385_5b83_1a6a, 44_200),
        ("disagg", 0x919d_7404_dd82_6f0b, 31_133),
    ];
    for ((drill, _, snapshot), (name, hash, len)) in drill_pauses().iter().zip(expected) {
        assert_eq!(*drill, name);
        let text = snapshot.to_json();
        assert_eq!(
            (fnv1a64(text.as_bytes()), text.len()),
            (hash, len),
            "{drill}"
        );
    }
}

//! Failure drill: the Grok-scale fleet of `cluster_serving` absorbs a
//! scripted mid-run crash and a later graceful drain, and the routing
//! discipline decides how much the outage costs.
//!
//! * the crash loses the replica's queued and in-flight requests; they
//!   retry through the router with their original deadlines, so the
//!   during-failure SLO window records the damage;
//! * the drain loses nothing: displaced queue entries reroute and the
//!   replica's parked conversation KV is handed to the least-loaded
//!   survivor as one priced transfer over the interconnect;
//! * the migration-aware router additionally ships parked KV toward
//!   wherever it routes a follow-up, paying the link instead of
//!   re-prefilling the whole history.
//!
//! Run with `cargo run --release --example failure_drill`.

use duplex::experiments::{cluster_suite, run_cluster, ClusterRow, Scale};
use duplex::sched::{FaultKind, RouterKind};

fn main() {
    let scale = Scale::quick();
    let suite = cluster_suite(&scale);
    let spec = suite
        .iter()
        .find(|s| s.name == "grok_failover")
        .expect("the cluster suite ships the failure drill");
    let plan = spec.faults.as_ref().expect("the drill scripts faults");

    println!(
        "{} replicas serving {} ({} conversations, 4 rounds each):",
        spec.systems.len(),
        spec.model.name,
        spec.scenario.requests
    );
    for fault in &plan.faults {
        let (FaultKind::Crash { down_s } | FaultKind::Drain { down_s }) = fault.kind;
        println!(
            "  t={:>7.2}s  replica {}: {}, down {down_s:.2}s",
            fault.at_s,
            fault.replica,
            fault.kind.name()
        );
    }

    println!(
        "\n{:<20} {:>6} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "Router", "lost", "retried", "recover s", "fault SLO", "TBT p99 ms", "KV moved MB"
    );
    for kind in RouterKind::ALL {
        let mut router = kind.build();
        let report = run_cluster(spec, router.as_mut());
        let row = ClusterRow::of(spec, kind.name(), &report);
        println!(
            "{:<20} {:>6} {:>8} {:>10.3} {:>9.1}% {:>12.2} {:>12.2}",
            row.router,
            row.requests_lost,
            row.retries_issued,
            row.recovery_time_s,
            row.fault_attainment * 100.0,
            row.tbt_p99 * 1e3,
            row.kv_bytes_migrated as f64 / 1e6
        );
    }

    println!("\nA crash is lose-and-retry; a drain is a priced KV handoff. The");
    println!("migration-aware router keeps conversation histories resident");
    println!("through the outage instead of re-prefilling them from scratch.");
}

//! Cluster-serving benchmark: runs the multi-replica fleets of the
//! cluster suite (a Grok-scale multi-turn + SLO-tiered chat fleet and
//! a heterogeneous Mixtral fleet) under every shipped router —
//! round-robin, least-outstanding-work, session-affinity — end to end:
//! global arrival stream, router placement, per-replica continuous
//! batching with parked-KV reuse, and the incremental stage fast path
//! on every replica.
//!
//! Every (fleet, router) pair runs once, timed: `wall_s` is its wall
//! clock and `fleet_stages_per_s` the harness throughput (simulated
//! fleet stages per second of wall clock).
//!
//! Also exercises pause/resume: the Grok fleet is paused mid-run, the
//! snapshot is written to `BENCH_cluster_snapshot.json` (the CI
//! artifact), parsed back, and resumed — the resumed report must equal
//! the uninterrupted one bit for bit.
//!
//! Fleet serving metrics (throughput, SLO attainment, fleet TBT p99
//! from merged digests, KV-reuse fraction, load imbalance) land with
//! the timing numbers in `BENCH_cluster.json` next to the other
//! `BENCH_*.json` reports so the CI regression gate tracks the cluster
//! path too: entries are keyed `<fleet>_<router>`,
//! `fleet_stages_per_s` gates downward and the wall-clock / simulated
//! latency metrics (`*wall_s`, `tbt_p99_ms`) gate upward.
//!
//! The `grok_failover` fleet runs its scripted crash + drain under
//! every router and its entries additionally carry the recovery
//! metrics — `recovery_time_s` (gates upward), and
//! `fault_interactive_attainment`, the during-failure interactive SLO
//! attainment (gates downward) — plus the ungated bookkeeping counts
//! `requests_lost`, `retries_issued`, `kv_bytes_migrated`.
//!
//! The `grok_diurnal_autoscale_*` trio (the elastic fleet and its two
//! static goalposts, least-outstanding-work router only) rides the
//! same loop: every entry carries `replica_seconds` (billable
//! provisioned time, gates upward) and the elastic entry adds
//! `scale_ups` / `scale_downs` (bookkeeping) and `scale_up_lag_s`
//! (worst detection + provisioning lag, gates upward); its
//! `interactive_attainment` gates downward like any tiered fleet's.
//!
//! The `grok_long_prefill_*` trio pins the disaggregation claim:
//! colocated, adaptive-chunked and 2+2 prefill/decode pool-split
//! fleets under one long-prefill workload, least-outstanding-work
//! router built from the fleet-derived `ClusterContext`
//! (`ClusterSpec::router_context`). Every entry carries `t2ft_p50_ms`
//! (gates upward) alongside the usual `tbt_p99_ms`, and the split
//! entry adds the ungated bookkeeping counts `handoffs`,
//! `kv_bytes_shipped` and `reprefills`.

use std::time::Instant;

use duplex::experiments::{build_cluster, run_cluster, ClusterRow, ClusterSpec};
use duplex::sched::{ClusterSnapshot, RouterKind};
use duplex_bench::print_table;

/// Pause the fleet at 40% of its simulated span, push the snapshot
/// through the JSON wire format, resume, and demand the report the
/// uninterrupted run produced. Returns (snapshot JSON, pause time).
fn snapshot_roundtrip(spec: &ClusterSpec, full_time_s: f64) -> (String, f64) {
    let kind = RouterKind::ALL[0];
    let stop_s = 0.4 * full_time_s;
    let (sim, mut policies, mut executors) = build_cluster(spec);
    let mut router = kind.build();
    let snapshot = sim
        .run_until(router.as_mut(), &mut policies, &mut executors, stop_s)
        .snapshot()
        .unwrap_or_else(|| panic!("{}: the 40% bound lands mid-run", spec.name));
    let text = snapshot.to_json();
    let restored = ClusterSnapshot::from_json(&text)
        .unwrap_or_else(|e| panic!("{}: snapshot does not parse back: {e}", spec.name));
    assert_eq!(restored, snapshot, "snapshot JSON round-trip is lossless");

    let (sim, mut fresh_policies, mut fresh_executors) = build_cluster(spec);
    let mut router = kind.build();
    let resumed = sim
        .resume(
            &restored,
            router.as_mut(),
            &mut fresh_policies,
            &mut fresh_executors,
        )
        .unwrap_or_else(|e| panic!("{}: snapshot rejected at resume: {e}", spec.name));
    let full = run_cluster(spec, kind.build().as_mut());
    assert_eq!(
        resumed, full,
        "{}: resumed report must equal the uninterrupted run",
        spec.name
    );
    (text, snapshot.taken_at_s())
}

fn main() {
    let scale = duplex_bench::scale_from_args();
    let quick = scale == duplex::experiments::Scale::quick();

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    let mut grok_time_s = None;
    let suite = duplex::experiments::cluster_suite(&scale);
    let drill = duplex::experiments::autoscale_drill(&scale);
    let disagg = duplex::experiments::grok_disagg(&scale);
    // Suite fleets run under every router; the autoscale and
    // disaggregation drills' three variants each compare *fleet
    // shapes*, so they pin one router. The disagg trio additionally
    // builds it from the fleet-derived context so the placement
    // estimates match the interconnect it prices.
    let mut points: Vec<(&ClusterSpec, RouterKind, bool)> = Vec::new();
    for spec in &suite {
        for kind in RouterKind::ALL {
            points.push((spec, kind, false));
        }
    }
    for spec in &drill {
        points.push((spec, RouterKind::LeastOutstandingWork, false));
    }
    for spec in &disagg {
        points.push((spec, RouterKind::LeastOutstandingWork, true));
    }
    for (spec, kind, fleet_ctx) in points {
        {
            // Fleet construction (executor builds, capacity probes)
            // stays outside the timed region: the metric is stepping
            // throughput, not setup cost.
            let build_router = || {
                if fleet_ctx {
                    kind.build_with(&spec.router_context())
                } else {
                    kind.build()
                }
            };
            let (sim, mut policies, mut executors) = build_cluster(spec);
            let mut router = build_router();
            let start = Instant::now();
            let report = sim.run(router.as_mut(), &mut policies, &mut executors);
            let wall_s = start.elapsed().as_secs_f64();
            if spec.name == "grok_chat_tiered" {
                grok_time_s = Some(report.total_time_s);
            }

            let row = ClusterRow::of(spec, kind.name(), &report);
            let fleet_stages_per_s = row.stages as f64 / wall_s;
            let tbt_p99_ms = row.tbt_p99 * 1e3;
            rows.push(vec![
                row.cluster.clone(),
                row.router.clone(),
                row.replicas.to_string(),
                row.completed.to_string(),
                row.stages.to_string(),
                format!("{wall_s:.3}"),
                format!("{fleet_stages_per_s:.0}"),
                format!("{:.0}", row.throughput),
                format!("{tbt_p99_ms:.2}"),
                if row.tiered {
                    format!("{:.3}", row.interactive_attainment)
                } else {
                    "-".into()
                },
                format!("{:.3}", row.kv_reuse_fraction),
                format!("{:.2}", row.load_imbalance),
                format!("{:.2}", row.replica_seconds),
                if spec.autoscale.is_some() {
                    format!("{}^{}v", row.scale_ups, row.scale_downs)
                } else {
                    "-".into()
                },
                if spec.disagg.is_some() {
                    report.disagg.handoffs.to_string()
                } else {
                    "-".into()
                },
            ]);
            let tiered_metrics = if row.tiered {
                format!(
                    "\"slo_attainment\": {:.4}, \"interactive_attainment\": {:.4}, \"goodput_tokens_per_s\": {:.1}, ",
                    row.attainment, row.interactive_attainment, row.goodput
                )
            } else {
                String::new()
            };
            let fault_metrics = if spec.faults.is_some() {
                format!(
                    "\"recovery_time_s\": {:.6}, \"fault_interactive_attainment\": {:.4}, \"requests_lost\": {}, \"retries_issued\": {}, \"kv_bytes_migrated\": {}, ",
                    row.recovery_time_s,
                    row.fault_attainment,
                    row.requests_lost,
                    row.retries_issued,
                    row.kv_bytes_migrated
                )
            } else {
                String::new()
            };
            let scaling_metrics = if spec.autoscale.is_some() {
                format!(
                    "\"scale_ups\": {}, \"scale_downs\": {}, \"scale_up_lag_s\": {:.6}, ",
                    row.scale_ups, row.scale_downs, row.scale_up_lag_s
                )
            } else {
                String::new()
            };
            let disagg_metrics = if fleet_ctx {
                let mut m = format!("\"t2ft_p50_ms\": {:.4}, ", report.t2ft().p50 * 1e3);
                if spec.disagg.is_some() {
                    m.push_str(&format!(
                        "\"handoffs\": {}, \"kv_bytes_shipped\": {}, \"reprefills\": {}, ",
                        report.disagg.handoffs,
                        report.disagg.kv_bytes_shipped,
                        report.disagg.reprefills
                    ));
                }
                m
            } else {
                String::new()
            };
            json_entries.push(format!(
                "    \"{}_{}\": {{\"fleet_stages_per_s\": {:.1}, \"wall_s\": {:.4}, \"stages\": {}, \"completed\": {}, \"replicas\": {}, \"replica_seconds\": {:.4}, \"sim_tokens_per_sec\": {:.1}, \"tbt_p99_ms\": {:.4}, {}{}{}{}\"kv_reuse_fraction\": {:.4}, \"load_imbalance\": {:.4}, \"policy\": \"{}\", \"model\": \"{}\", \"batch\": {}}}",
                row.cluster,
                kind.name().replace('-', "_"),
                fleet_stages_per_s,
                wall_s,
                row.stages,
                row.completed,
                row.replicas,
                row.replica_seconds,
                row.throughput,
                tbt_p99_ms,
                tiered_metrics,
                fault_metrics,
                scaling_metrics,
                disagg_metrics,
                row.kv_reuse_fraction,
                row.load_imbalance,
                spec.policy.name(),
                spec.model.name,
                spec.batch
            ));
        }
    }
    print_table(
        "Cluster suite (router x fleet)",
        &[
            "Cluster",
            "Router",
            "Repl",
            "Done",
            "Stages",
            "Wall s",
            "fleet st/s",
            "sim tok/s",
            "TBT p99 ms",
            "Int. att.",
            "KV reuse",
            "Imbal",
            "Repl-s",
            "Scale",
            "Handoff",
        ],
        &rows,
    );

    // ---- snapshot round-trip artifact (Grok fleet, first router) ----
    let grok = suite
        .iter()
        .find(|s| s.name == "grok_chat_tiered")
        .expect("the suite ships the grok fleet");
    let (snapshot_json, taken_at_s) =
        snapshot_roundtrip(grok, grok_time_s.expect("the sweep ran the grok fleet"));
    let snap_path = "BENCH_cluster_snapshot.json";
    std::fs::write(snap_path, &snapshot_json)
        .unwrap_or_else(|e| panic!("writing {snap_path}: {e}"));
    println!(
        "\nsnapshot round-trip ok: paused grok_chat_tiered at {taken_at_s:.3}s, resumed \
         bit-identically ({} bytes -> {snap_path})",
        snapshot_json.len()
    );

    let json = format!(
        "{{\n  \"schema\": \"duplex-bench/cluster/v1\",\n  \"mode\": \"{}\",\n  \"snapshot_roundtrip\": {{\"cluster\": \"grok_chat_tiered\", \"taken_at_s\": {:.6}, \"bytes\": {}, \"resumed_bit_identical\": true}},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "paper" },
        taken_at_s,
        snapshot_json.len(),
        json_entries.join(",\n")
    );
    let path = "BENCH_cluster.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

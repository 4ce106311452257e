//! Scenario-suite benchmark: runs the workload scenarios (bursty
//! on/off traffic, diurnal rate curve, multi-turn chat with KV reuse,
//! SLO-tiered mix, recorded-trace replay) end to end — scheduler,
//! policy, KV accounting and incremental stage pricing — and reports
//! both serving metrics (SLO attainment, goodput, prefix-reuse rate)
//! and harness throughput (simulated stages per second of wall clock).
//! Each suite entry is a one-replica fleet that names its own policy
//! (`experiments::scenario_suite`).
//!
//! Each entry repeats its whole run (a pass, on a freshly built fleet)
//! until the passes total at least 0.2 s of wall time
//! ([`duplex_bench::run_repeated`]) and reports the median pass: an
//! entry's run takes about a millisecond, too short to time once.
//! Building the fleet (executor, capacity probe) stays outside the
//! timed region, as in `bench_cluster`.
//!
//! Results print as a table and land in `BENCH_scenarios.json` next to
//! `BENCH_stage_cost.json` / `BENCH_sim.json` so CI tracks the
//! scenario path too.

use std::time::Instant;

use duplex::experiments::{build_cluster, scenario_suite, Scale};
use duplex::model::ModelConfig;
use duplex::sched::RouterKind;
use duplex::system::SystemConfig;
use duplex_bench::{print_table, run_repeated};

fn main() {
    let scale = duplex_bench::scale_from_args();
    let quick = scale == Scale::quick();
    let model = ModelConfig::mixtral_8x7b();
    let system = SystemConfig::duplex_pe_et(4, 1);
    let batch = 64usize;

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    for spec in scenario_suite(&scale, &model, &system, batch) {
        let kind = spec.policy;
        let name = spec.name.clone();
        let tiered = !spec.scenario.tiers.is_empty();
        let (mut fleet, wall_s, passes) = run_repeated(|| {
            let (sim, mut policies, mut executors) = build_cluster(&spec);
            // One replica, so the router never chooses.
            let mut router = RouterKind::RoundRobin.build();
            let start = Instant::now();
            let fleet = sim.run(router.as_mut(), &mut policies, &mut executors);
            (fleet, start.elapsed().as_secs_f64())
        });
        let report = fleet.replicas.swap_remove(0);
        let stages = report.stage_stats.stages;
        let stages_per_sec = stages as f64 / wall_s;
        let tbt_p99_ms = report.tbt().p99 * 1e3;
        rows.push(vec![
            name.clone(),
            kind.name().into(),
            report.completed.len().to_string(),
            stages.to_string(),
            passes.to_string(),
            format!("{wall_s:.4}"),
            format!("{stages_per_sec:.0}"),
            format!("{:.0}", report.generation_throughput()),
            format!("{tbt_p99_ms:.2}"),
            if tiered {
                format!("{:.3}", report.slo_attainment())
            } else {
                "-".into()
            },
            if tiered {
                format!("{:.0}", report.goodput_tokens_per_s())
            } else {
                "-".into()
            },
            format!("{:.3}", report.kv_reuse.reuse_fraction()),
        ]);
        // Per-tier TBT tails make prefill-induced spikes visible per
        // service class (simulated time: seed-deterministic, so the CI
        // latency gate can pin them).
        let tier_tails = if tiered {
            let mut tails: Vec<String> = report
                .slo
                .tiers
                .iter()
                .map(|t| format!("\"tier_{}_tbt_p99_ms\": {:.4}", t.name, t.tbt_p99_s() * 1e3))
                .collect();
            // The per-tier attainment the preemption gate watches:
            // interactive is the tier preemption exists to protect.
            if let Some(t) = report.slo.tiers.iter().find(|t| t.name == "interactive") {
                tails.push(format!(
                    "\"tier_interactive_attainment\": {:.4}",
                    t.attainment()
                ));
            }
            format!("{}, ", tails.join(", "))
        } else {
            String::new()
        };
        // Preemption accounting (all zeros under non-preemptive
        // policies; zero-valued metrics never enter the baseline).
        let preempt = format!(
            "\"preemptions\": {}, \"paused_time_s\": {:.6}, ",
            report.preempt.preemptions, report.preempt.paused_time_s
        );
        json_entries.push(format!(
            "    \"{}\": {{\"stages_per_sec\": {:.1}, \"wall_s\": {:.4}, \"passes\": {}, \"stages\": {}, \"completed\": {}, \"sim_tokens_per_sec\": {:.1}, \"tbt_p99_ms\": {:.4}, {}{}\"slo_attainment\": {:.4}, \"goodput_tokens_per_s\": {:.1}, \"kv_reuse_fraction\": {:.4}, \"policy\": \"{}\", \"model\": \"{}\", \"system\": \"{}\", \"batch\": {}}}",
            name,
            stages_per_sec,
            wall_s,
            passes,
            stages,
            report.completed.len(),
            report.generation_throughput(),
            tbt_p99_ms,
            tier_tails,
            preempt,
            report.slo_attainment(),
            report.goodput_tokens_per_s(),
            report.kv_reuse.reuse_fraction(),
            kind.name(),
            model.name,
            system.name,
            batch
        ));
    }
    print_table(
        "Scenario suite (scheduler + policy + KV reuse + incremental pricing)",
        &[
            "Scenario",
            "Policy",
            "Done",
            "Stages",
            "Passes",
            "Median wall s",
            "stages/s",
            "sim tok/s",
            "TBT p99 ms",
            "SLO att.",
            "Goodput",
            "KV reuse",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"schema\": \"duplex-bench/scenarios/v3\",\n  \"mode\": \"{}\",\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "paper" },
        json_entries.join(",\n")
    );
    let path = "BENCH_scenarios.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

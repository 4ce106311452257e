//! SLO-aware serving: three service tiers (interactive / standard /
//! batch) share one Duplex system under Poisson load, and we compare
//! how the admission policy changes SLO attainment and goodput — the
//! metrics that matter once "throughput" alone stops being the goal.
//!
//! Run with `cargo run --release --example slo_serving`.

use duplex::experiments::{probe_stage_seconds, run_cluster, ClusterSpec, Scale};
use duplex::model::ModelConfig;
use duplex::sched::{Arrivals, PolicyKind, RouterKind, Scenario, Workload};
use duplex::system::SystemConfig;

fn main() {
    let scale = Scale::quick();
    let model = ModelConfig::mixtral_8x7b();
    let system = SystemConfig::duplex_pe_et(4, 1);
    let batch = 64usize;
    let (lin, lout) = (scale.len(1024), scale.len(512));
    let stage_s = probe_stage_seconds(&model, &system, batch, lin + lout / 2);
    let capacity_qps = batch as f64 / (lout as f64 * stage_s);

    println!("SLO-tiered serving on {} / {}:", model.name, system.name);
    println!(
        "  stage ~{:.2} ms, closed-loop capacity ~{:.0} req/s; offering 80% of it\n",
        stage_s * 1e3,
        capacity_qps
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Policy", "interactive", "standard", "batch", "overall", "goodput/s", "int p99 ms"
    );

    for kind in PolicyKind::ALL {
        let scenario = Scenario::new(
            "slo_serving",
            Workload::gaussian(lin, lout).with_seed(17),
            Arrivals::Poisson {
                qps: 0.8 * capacity_qps,
            },
            256,
        )
        .with_tiers(Scenario::default_tiers(stage_s));
        let spec = ClusterSpec::new(
            "slo_serving",
            model.clone(),
            vec![system.clone()],
            batch,
            kind,
            scenario,
        );
        // One replica, so the router never chooses.
        let fleet = run_cluster(&spec, RouterKind::RoundRobin.build().as_mut());
        let report = &fleet.replicas[0];
        let att: Vec<f64> = report.slo.tiers.iter().map(|t| t.attainment()).collect();
        println!(
            "{:<14} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>12.0} {:>12.2}",
            kind.name(),
            att[0] * 100.0,
            att[1] * 100.0,
            att[2] * 100.0,
            report.slo_attainment() * 100.0,
            report.goodput_tokens_per_s(),
            report.slo.tiers[0].tbt_p99_s() * 1e3,
        );
    }
    println!("\nPriority-EDF trades batch-tier slack for interactive attainment;");
    println!("shortest-prompt-first helps T2FT but ignores deadlines entirely.");
    println!("Shedding batch-tier admissions near saturation (shed-batch)");
    println!("closes the remaining interactive gap without dropping work.");
}

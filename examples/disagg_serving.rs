//! Disaggregated serving drill: one long-prefill Grok-scale workload
//! offered to three four-replica fleets, showing what a prefill/decode
//! pool split buys over colocation.
//!
//! * the **colocated** fleet admits whole prompts into the mixed
//!   batch: every co-batched decode token waits out the full
//!   multi-thousand-token prefill stage;
//! * the **chunked** fleet is the adaptive-chunking incumbent: each
//!   stall is capped at an occupancy-scaled prompt budget;
//! * the **disagg** fleet splits two prefill + two decode replicas
//!   behind the two-dimensional placement API: the router picks one
//!   replica per pool at admission, prompts run (and chunk) entirely
//!   on the prefill pool, and the finished KV ships over the fleet
//!   interconnect to the decode replica, where the request joins the
//!   decode batch as a one-token context join.
//!
//! The PR's acceptance bar: disaggregation beats the chunked incumbent
//! on fleet TBT p99 while holding at least 90% of its generation
//! throughput.
//!
//! Run with `cargo run --release --example disagg_serving`.

use duplex::experiments::{fleet_kv_link, grok_disagg, run_cluster, ClusterRow, Scale};
use duplex::sched::{Arrivals, RouterKind};

fn main() {
    let scale = Scale::quick();
    let drill = grok_disagg(&scale);
    let split = &drill[2];
    let plan = split
        .disagg
        .as_ref()
        .expect("the drill ships a disaggregated variant");
    // Every fleet prices its KV moves over its first replica's link.
    let link = fleet_kv_link(&split.systems[0]);
    let Arrivals::Poisson { qps } = split.scenario.arrivals else {
        panic!("the drill offers Poisson load");
    };

    println!(
        "{} requests of {} long-prefill traffic ({:.2} qps, mean prompt {} tokens):",
        split.scenario.requests, split.model.name, qps, split.scenario.workload.mean_input
    );
    println!(
        "  pool split: {} prefill + {} decode replicas, KV handoffs at {:.1} GB/s + {:.0} us",
        plan.prefill_replicas.len(),
        split.systems.len() - plan.prefill_replicas.len(),
        link.bytes_per_s / 1e9,
        link.latency_s * 1e6
    );

    println!(
        "\n{:<10} {:>6} {:>12} {:>12} {:>9} {:>9} {:>10} {:>11}",
        "Fleet", "done", "TBT p99 ms", "T2FT p50 s", "tok/s", "handoffs", "KV GB", "reprefills"
    );
    let mut rows = Vec::new();
    for spec in &drill {
        let mut router = RouterKind::LeastOutstandingWork.build_with(&spec.router_context());
        let report = run_cluster(spec, router.as_mut());
        let row = ClusterRow::of(spec, "least-outstanding", &report);
        let label = spec
            .name
            .strip_prefix("grok_long_prefill_")
            .unwrap_or(&spec.name);
        println!(
            "{:<10} {:>6} {:>12.2} {:>12.3} {:>9.0} {:>9} {:>10.2} {:>11}",
            label,
            row.completed,
            row.tbt_p99 * 1e3,
            report.t2ft().p50,
            row.throughput,
            report.disagg.handoffs,
            report.disagg.kv_bytes_shipped as f64 / 1e9,
            report.disagg.reprefills
        );
        rows.push(row);
    }

    let (chunked, disagg) = (&rows[1], &rows[2]);
    println!(
        "\nThe pool split cuts TBT p99 by {:.0}% vs the chunked incumbent at {:.0}%",
        (1.0 - disagg.tbt_p99 / chunked.tbt_p99) * 100.0,
        disagg.throughput / chunked.throughput * 100.0
    );
    println!("of its generation throughput: decode stages never co-batch a prompt.");
}

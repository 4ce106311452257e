//! The CI benchmark-regression gate (see `duplex_bench::regression`).
//!
//! ```text
//! check_bench [--baseline ci/bench_baseline.json]
//!             [--threshold 0.30]
//!             [--report <name>=<path>]...
//!             [--self-test]
//!             [--write-baseline]
//! ```
//!
//! Without `--report` flags it gates the default reports
//! (`BENCH_stage_cost.json`, `BENCH_sim.json`, `BENCH_scenarios.json`,
//! `BENCH_cluster.json`)
//! from the working directory. Exits 1 when the file of a report the
//! baseline gates is missing (reports without a baseline section are
//! skipped, present or not), and when any baselined
//! metric drifts more than the threshold past its baseline —
//! throughput metrics by dropping, latency metrics (TBT/T2FT tails)
//! and cost metrics (`replica_seconds`, `scale_up_lag_s`) by rising —
//! printing a one-line-per-metric table either way.
//!
//! `--self-test` proves the gate itself has teeth: the baseline
//! (defaulting to `ci/bench_regression_fixture.json`) holds
//! deliberately impossible values plus a `_self_test.must_trip` list
//! of `{"key", "direction"}` declarations, and the mode verifies every
//! declared metric was gated, gates in the declared direction, and
//! tripped — exiting 1 and listing each miss otherwise. The fixture
//! file is the single source of truth for what must trip; adding a
//! metric class needs no workflow change.
//!
//! `--write-baseline` regenerates the baseline file (default
//! `ci/bench_baseline.json`) from the current reports instead of
//! gating: run the `--quick` benches, then this, and commit the diff.
//! Headroom rules live in `regression::write_baseline` — wall-clock
//! throughputs floored at 45% of measured, `wall_s` ceilings at 50x,
//! deterministic simulated-time metrics recorded exactly.

use duplex_bench::regression::{
    check_missing, gate_reports, render_gate, run_self_test, write_baseline, DEFAULT_THRESHOLD,
};

fn usage(bin: &str) -> ! {
    eprintln!(
        "usage: {bin} [--baseline <path>] [--threshold <frac>] [--report <name>=<path>]... \
         [--self-test] [--write-baseline]"
    );
    std::process::exit(2);
}

fn main() {
    let bin = std::env::args()
        .next()
        .unwrap_or_else(|| "check_bench".into());
    let mut baseline_path: Option<String> = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut report_specs: Vec<(String, String)> = Vec::new();
    let mut self_test = false;
    let mut write_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = Some(args.next().unwrap_or_else(|| usage(&bin))),
            "--threshold" => {
                let raw = args.next().unwrap_or_else(|| usage(&bin));
                threshold = raw.parse().unwrap_or_else(|_| usage(&bin));
                if !(0.0..1.0).contains(&threshold) {
                    eprintln!("error: threshold must be in [0, 1)");
                    std::process::exit(2);
                }
            }
            "--report" => {
                let spec = args.next().unwrap_or_else(|| usage(&bin));
                let (name, path) = spec.split_once('=').unwrap_or_else(|| usage(&bin));
                report_specs.push((name.to_string(), path.to_string()));
            }
            "--self-test" => self_test = true,
            "--write-baseline" => write_mode = true,
            _ => usage(&bin),
        }
    }
    if self_test && write_mode {
        eprintln!("error: --self-test and --write-baseline are mutually exclusive");
        std::process::exit(2);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| {
        if self_test {
            "ci/bench_regression_fixture.json".into()
        } else {
            "ci/bench_baseline.json".into()
        }
    });
    if report_specs.is_empty() {
        report_specs = [
            ("BENCH_stage_cost", "BENCH_stage_cost.json"),
            ("BENCH_sim", "BENCH_sim.json"),
            ("BENCH_scenarios", "BENCH_scenarios.json"),
            ("BENCH_cluster", "BENCH_cluster.json"),
        ]
        .into_iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
    }

    let mut reports: Vec<(&str, String)> = Vec::new();
    let mut missing: Vec<&str> = Vec::new();
    for (name, path) in &report_specs {
        match std::fs::read_to_string(path) {
            Ok(text) => reports.push((name.as_str(), text)),
            Err(e) => {
                println!("cannot read {name}: {path}: {e}");
                missing.push(name);
            }
        }
    }

    if write_mode {
        // The baseline must cover every report it is regenerated from:
        // a silently absent report file would drop its whole section.
        if reports.len() != report_specs.len() {
            eprintln!("error: --write-baseline needs every report file present");
            std::process::exit(2);
        }
        let text = write_baseline(&reports).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        std::fs::write(&baseline_path, &text).unwrap_or_else(|e| {
            eprintln!("error: writing {baseline_path}: {e}");
            std::process::exit(2);
        });
        println!(
            "wrote {baseline_path} ({} bytes) from {} report(s)",
            text.len(),
            reports.len()
        );
        return;
    }

    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("error: reading baseline {baseline_path}: {e}");
        std::process::exit(2);
    });

    if self_test {
        match run_self_test(&baseline, &reports, threshold) {
            Ok(outcome) => {
                print!("{}", outcome.table);
                if outcome.failures.is_empty() {
                    println!("gate self-test passed: every declared (metric, direction) tripped");
                } else {
                    for miss in &outcome.failures {
                        eprintln!("self-test miss: {miss}");
                    }
                    eprintln!(
                        "gate self-test FAILED: {} of the fixture's declared trips did not fire",
                        outcome.failures.len()
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    if let Err(e) = check_missing(&baseline, &missing) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    match gate_reports(&baseline, &reports) {
        Ok(comparisons) if comparisons.is_empty() => {
            println!("no baselined metrics found; nothing to gate");
        }
        Ok(comparisons) => {
            let (table, failed) = render_gate(&comparisons, threshold);
            print!("{table}");
            if failed {
                eprintln!(
                    "benchmark regression: a metric drifted more than {:.0}% past its \
                     baseline (throughput below, latency above)",
                    threshold * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "benchmark gate passed (threshold {:.0}%)",
                threshold * 100.0
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

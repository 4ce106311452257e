//! The CI benchmark-regression gate: compares the metrics of freshly
//! produced `BENCH_*.json` reports against committed baselines and
//! fails on a regression beyond the threshold.
//!
//! Baselines live in `ci/bench_baseline.json` as
//! `{"<file-stem>": {"<entry>": {"stages_per_sec": <f64>}}}` — the
//! same entry names the bench binaries emit. Only metrics present in
//! the baseline are gated, so adding a bench entry never breaks CI
//! until a baseline is recorded for it.
//!
//! The gate is **direction-aware**: throughput-like metrics regress by
//! *dropping* below baseline, latency-like metrics (TBT/T2FT tails,
//! identified by name — see [`lower_is_better`]) regress by *rising*
//! above it. Latency metrics are simulated time, so they are
//! seed-deterministic and machine-independent; throughput metrics are
//! wall clock, so their threshold is generous (30% by default, shared
//! CI runners are noisy) and catches order-of-magnitude fast-path
//! regressions, not single-digit drift.

use duplex::sched::json::{parse, JsonValue};

/// Default allowed fractional drift before the gate fails.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Whether a metric regresses by rising (latencies and durations)
/// rather than by falling (throughput). Keyed on the metric name the
/// bench binaries emit: TBT / T2FT percentiles, anything per-tier
/// built on them, raw wall-clock durations (`wall_s`), the
/// failure-drill time-to-recover (`recovery_time_s`), the autoscale
/// drill's replica-seconds bill (`replica_seconds`) and its worst
/// provisioning lag (`scale_up_lag_s`), and the preemption drill's
/// paused-time bill (`paused_time_s` — time victims spend parked is
/// deferred service). Attainment metrics — including
/// `fault_interactive_attainment` and `tier_interactive_attainment` —
/// keep the default higher-is-better direction.
pub fn lower_is_better(metric: &str) -> bool {
    metric.starts_with("tbt_")
        || metric.starts_with("t2ft_")
        || metric.contains("_tbt_p")
        || metric.ends_with("wall_s")
        || metric.ends_with("recovery_time_s")
        || metric.ends_with("replica_seconds")
        || metric.ends_with("scale_up_lag_s")
        || metric.ends_with("paused_time_s")
}

/// One gated metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `<report>/<entry>/<metric>`.
    pub key: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Latency-like metric: regression means rising above baseline.
    pub lower_is_better: bool,
}

impl Comparison {
    /// current / baseline (0 when the baseline is 0).
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        self.current / self.baseline
    }

    /// Whether this metric regressed beyond `threshold`: a fractional
    /// drop for throughput metrics (0.30 fails below 70% of baseline),
    /// a fractional rise for latency metrics (0.30 fails above 130%).
    pub fn regressed(&self, threshold: f64) -> bool {
        if self.lower_is_better {
            self.ratio() > 1.0 + threshold
        } else {
            self.ratio() < 1.0 - threshold
        }
    }
}

/// Compare one report document against its baseline section: for every
/// `(entry, metric)` leaf in the baseline, look up the same path under
/// the report's `classes`/`scenarios` map and pair the values.
///
/// # Errors
///
/// Returns a message when a baselined entry or metric is missing from
/// the report — a silently dropped benchmark must fail the gate too.
pub fn compare_report(
    report_name: &str,
    baseline: &JsonValue,
    report: &JsonValue,
) -> Result<Vec<Comparison>, String> {
    let entries = report
        .get("classes")
        .or_else(|| report.get("scenarios"))
        .ok_or_else(|| format!("{report_name}: no `classes`/`scenarios` section"))?;
    let base_entries = baseline
        .as_object()
        .ok_or_else(|| format!("{report_name}: baseline section is not an object"))?;
    let mut comparisons = Vec::new();
    for (entry_name, base_metrics) in base_entries {
        let current_entry = entries
            .get(entry_name)
            .ok_or_else(|| format!("{report_name}: entry `{entry_name}` missing from report"))?;
        let metrics = base_metrics
            .as_object()
            .ok_or_else(|| format!("{report_name}/{entry_name}: baseline must be an object"))?;
        for (metric, base_value) in metrics {
            let baseline_value = base_value
                .as_f64()
                .ok_or_else(|| format!("{report_name}/{entry_name}/{metric}: non-numeric"))?;
            let current = current_entry
                .get(metric)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| {
                    format!("{report_name}/{entry_name}: metric `{metric}` missing from report")
                })?;
            comparisons.push(Comparison {
                key: format!("{report_name}/{entry_name}/{metric}"),
                baseline: baseline_value,
                current,
                lower_is_better: lower_is_better(metric),
            });
        }
    }
    Ok(comparisons)
}

/// Gate a set of `(report name, report text)` pairs against a baseline
/// document. Returns all comparisons; the caller renders them and
/// checks [`Comparison::regressed`].
///
/// # Errors
///
/// Propagates JSON and missing-entry errors as messages.
pub fn gate_reports(
    baseline_text: &str,
    reports: &[(&str, String)],
) -> Result<Vec<Comparison>, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let mut all = Vec::new();
    for (name, text) in reports {
        let Some(section) = baseline.get(name) else {
            continue; // no baseline recorded for this report yet
        };
        let report = parse(text).map_err(|e| format!("{name}: {e}"))?;
        all.extend(compare_report(name, section, &report)?);
    }
    Ok(all)
}

/// Check that no report the baseline gates is among the `missing`
/// ones (reports whose file could not be read): a bench step that
/// failed to write its report must fail the gate, not skip it. Missing
/// reports without a baseline section are fine.
///
/// # Errors
///
/// Names every missing report the baseline gates, and reports a
/// malformed baseline.
pub fn check_missing(baseline_text: &str, missing: &[&str]) -> Result<(), String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let gated: Vec<&str> = missing
        .iter()
        .copied()
        .filter(|name| baseline.get(name).is_some())
        .collect();
    if gated.is_empty() {
        Ok(())
    } else {
        Err(format!("baselined report missing: {}", gated.join(", ")))
    }
}

/// One `(key, direction)` pair a self-test fixture declares must trip.
#[derive(Debug, Clone, PartialEq)]
pub struct MustTrip {
    /// `<report>/<entry>/<metric>` — the [`Comparison::key`] format.
    pub key: String,
    /// `true` when the fixture declares the metric gates as
    /// lower-is-better (the table's `min` direction).
    pub lower_is_better: bool,
}

/// The result of a gate self-test: the rendered table plus one message
/// per declaration the gate failed to honor (empty = the gate proved
/// every declared trip).
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTestOutcome {
    /// The rendered comparison table (same format as a normal gate).
    pub table: String,
    /// Human-readable misses; the self-test passes iff this is empty.
    pub failures: Vec<String>,
}

/// Parse the `_self_test.must_trip` declarations out of a fixture
/// baseline document.
///
/// # Errors
///
/// Returns a message when the list is absent, empty, or malformed —
/// a fixture that declares nothing proves nothing.
pub fn must_trip_declarations(baseline: &JsonValue) -> Result<Vec<MustTrip>, String> {
    let list = baseline
        .get("_self_test")
        .and_then(|s| s.get("must_trip"))
        .and_then(JsonValue::as_array)
        .ok_or("self-test fixture has no `_self_test.must_trip` array")?;
    let mut wanted = Vec::new();
    for decl in list {
        let key = decl
            .get("key")
            .and_then(JsonValue::as_str)
            .ok_or("must_trip declaration without a string `key`")?;
        let direction = decl
            .get("direction")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{key}: must_trip declaration without a string `direction`"))?;
        let lower_is_better = match direction {
            "min" => true,
            "max" => false,
            other => {
                return Err(format!(
                    "{key}: direction must be `min` or `max`, got `{other}`"
                ))
            }
        };
        wanted.push(MustTrip {
            key: key.to_string(),
            lower_is_better,
        });
    }
    if wanted.is_empty() {
        return Err("self-test fixture declares an empty `must_trip` list".into());
    }
    Ok(wanted)
}

/// The gate's self-test: gate `reports` against a fixture baseline of
/// deliberately impossible values and verify that every `(metric,
/// direction)` pair the fixture's `_self_test.must_trip` list declares
/// actually (a) was gated, (b) gates in the declared direction, and
/// (c) tripped. The fixture file itself is the single source of truth
/// for what must trip — CI runs this instead of grepping the table.
///
/// # Errors
///
/// Propagates fixture/report parse errors and malformed declarations.
pub fn run_self_test(
    baseline_text: &str,
    reports: &[(&str, String)],
    threshold: f64,
) -> Result<SelfTestOutcome, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("fixture: {e}"))?;
    let wanted = must_trip_declarations(&baseline)?;
    let comparisons = gate_reports(baseline_text, reports)?;
    let (table, _) = render_gate(&comparisons, threshold);
    let mut failures = Vec::new();
    for MustTrip {
        key,
        lower_is_better,
    } in &wanted
    {
        match comparisons.iter().find(|c| &c.key == key) {
            None => failures.push(format!(
                "{key}: never gated — entry or metric missing from the fixture or the reports"
            )),
            Some(c) if c.lower_is_better != *lower_is_better => failures.push(format!(
                "{key}: gates as `{}` but the fixture declares `{}`",
                if c.lower_is_better { "min" } else { "max" },
                if *lower_is_better { "min" } else { "max" },
            )),
            Some(c) if !c.regressed(threshold) => failures.push(format!(
                "{key}: did not trip (baseline {}, current {}, ratio {:.3})",
                c.baseline,
                c.current,
                c.ratio()
            )),
            Some(_) => {}
        }
    }
    Ok(SelfTestOutcome { table, failures })
}

/// Metrics `write_baseline` records, with how each baseline value is
/// derived from the measured one. Wall-clock throughputs get a
/// generous floor (shared CI runners are noisy), wall-clock durations
/// a generous hang-detector ceiling; simulated-time metrics are
/// seed-deterministic and recorded exactly.
const BASELINE_METRICS: &[(&str, BaselineRule)] = &[
    ("stages_per_sec", BaselineRule::ThroughputFloor),
    ("fleet_stages_per_s", BaselineRule::ThroughputFloor),
    ("wall_s", BaselineRule::WallCeiling),
    ("tbt_p99_ms", BaselineRule::Exact),
    ("t2ft_p50_ms", BaselineRule::Exact),
    ("tier_interactive_tbt_p99_ms", BaselineRule::Exact),
    ("tier_interactive_attainment", BaselineRule::Exact),
    ("slo_attainment", BaselineRule::Exact),
    ("interactive_attainment", BaselineRule::Exact),
    ("paused_time_s", BaselineRule::Exact),
    ("kv_reuse_fraction", BaselineRule::Exact),
    ("recovery_time_s", BaselineRule::Exact),
    ("fault_interactive_attainment", BaselineRule::Exact),
    ("replica_seconds", BaselineRule::Exact),
    ("scale_up_lag_s", BaselineRule::Exact),
];

/// How one recorded metric's baseline derives from its measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BaselineRule {
    /// Machine-dependent throughput: floor at 45% of measured, so the
    /// 30% gate threshold trips on order-of-magnitude regressions, not
    /// runner noise.
    ThroughputFloor,
    /// Machine-dependent duration: ceiling at 50x measured (never
    /// under half a second) — a hang detector, not a noise bound.
    WallCeiling,
    /// Simulated time or a deterministic fraction: record exactly.
    Exact,
}

impl BaselineRule {
    fn apply(self, measured: f64) -> f64 {
        match self {
            Self::ThroughputFloor => 0.45 * measured,
            Self::WallCeiling => (50.0 * measured).max(0.5),
            Self::Exact => measured,
        }
    }
}

/// Regenerate the committed baseline document from freshly produced
/// `(report name, report text)` pairs: every entry of every report
/// contributes the known baseline metrics, headroomed per rule.
/// Zero-valued measurements are skipped — [`Comparison::ratio`] treats
/// a zero baseline as ungateable, so recording one would add a metric
/// the gate can never trip on. Output is deterministic (report order,
/// then entry order, then metric-table order) so regenerated baselines
/// diff cleanly.
///
/// # Errors
///
/// Returns a message when a report does not parse or lacks its
/// `classes`/`scenarios` section.
pub fn write_baseline(reports: &[(&str, String)]) -> Result<String, String> {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"_comment\": \"Committed quick-mode baselines for the CI benchmark-regression \
         gate (check_bench). Regenerate with `check_bench --write-baseline` after running \
         the --quick benches: wall-clock throughputs (stages_per_sec, fleet_stages_per_s) \
         are floored at 45% of measured so the 30% gate trips on order-of-magnitude \
         fast-path regressions rather than shared-runner noise; wall_s ceilings sit at \
         50x measured (>= 0.5s) as hang detectors; simulated-time and deterministic \
         metrics (tbt percentiles, attainments, kv_reuse_fraction, recovery_time_s, \
         replica_seconds, scale_up_lag_s, paused_time_s) are recorded exactly. Directions \
         come from regression::lower_is_better.\",\n",
    );
    let mut sections = Vec::new();
    for (name, text) in reports {
        let report = parse(text).map_err(|e| format!("{name}: {e}"))?;
        let entries = report
            .get("classes")
            .or_else(|| report.get("scenarios"))
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("{name}: no `classes`/`scenarios` object"))?;
        let mut lines = Vec::new();
        for (entry_name, metrics) in entries {
            let mut recorded = Vec::new();
            for (metric, rule) in BASELINE_METRICS {
                let Some(measured) = metrics.get(metric).and_then(JsonValue::as_f64) else {
                    continue;
                };
                if measured == 0.0 {
                    continue;
                }
                recorded.push(format!("\"{metric}\": {}", rule.apply(measured)));
            }
            if !recorded.is_empty() {
                lines.push(format!("    \"{entry_name}\": {{{}}}", recorded.join(", ")));
            }
        }
        if !lines.is_empty() {
            sections.push(format!("  \"{name}\": {{\n{}\n  }}", lines.join(",\n")));
        }
    }
    out.push_str(&sections.join(",\n"));
    out.push_str("\n}\n");
    Ok(out)
}

/// Render the one-line-per-metric gate table and return whether any
/// metric regressed beyond `threshold`.
pub fn render_gate(comparisons: &[Comparison], threshold: f64) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let width = comparisons
        .iter()
        .map(|c| c.key.len())
        .max()
        .unwrap_or(10)
        .max(10);
    out.push_str(&format!(
        "{:<width$}  {:>14}  {:>14}  {:>7}  {:>4}  verdict\n",
        "metric", "baseline", "current", "ratio", "dir"
    ));
    for c in comparisons {
        let regressed = c.regressed(threshold);
        failed |= regressed;
        out.push_str(&format!(
            "{:<width$}  {:>14.1}  {:>14.1}  {:>6.2}x  {:>4}  {}\n",
            c.key,
            c.baseline,
            c.current,
            c.ratio(),
            if c.lower_is_better { "min" } else { "max" },
            if regressed { "REGRESSED" } else { "ok" }
        ));
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "BENCH_stage_cost": {
            "decode_only_delta": {"stages_per_sec": 1000.0},
            "moe_heavy": {"stages_per_sec": 600.0}
        },
        "BENCH_sim": {
            "open_loop_1m": {"stages_per_sec": 90.0}
        }
    }"#;

    fn stage_cost_report(delta: f64, moe: f64) -> String {
        format!(
            r#"{{"schema": "x", "classes": {{
                "decode_only_delta": {{"stages_per_sec": {delta}}},
                "moe_heavy": {{"stages_per_sec": {moe}}},
                "unbaselined_extra": {{"stages_per_sec": 1.0}}
            }}}}"#
        )
    }

    #[test]
    fn healthy_numbers_pass() {
        let reports = vec![
            ("BENCH_stage_cost", stage_cost_report(950.0, 800.0)),
            (
                "BENCH_sim",
                r#"{"scenarios": {"open_loop_1m": {"stages_per_sec": 91.5}}}"#.into(),
            ),
        ];
        let cmp = gate_reports(BASELINE, &reports).expect("valid");
        assert_eq!(cmp.len(), 3);
        let (table, failed) = render_gate(&cmp, DEFAULT_THRESHOLD);
        assert!(!failed, "{table}");
        assert!(table.contains("ok"));
        assert!(!table.contains("REGRESSED"));
    }

    #[test]
    fn degraded_metric_fails_the_gate() {
        // 60% drop on the delta path: well past the 30% threshold.
        let reports = vec![("BENCH_stage_cost", stage_cost_report(400.0, 610.0))];
        let cmp = gate_reports(BASELINE, &reports).expect("valid");
        let (table, failed) = render_gate(&cmp, DEFAULT_THRESHOLD);
        assert!(failed, "{table}");
        assert!(table.contains("REGRESSED"));
        // The healthy metric still renders as ok.
        assert!(table.contains("ok"));
    }

    #[test]
    fn threshold_is_respected_at_the_boundary() {
        let c = Comparison {
            key: "k".into(),
            baseline: 100.0,
            current: 71.0,
            lower_is_better: false,
        };
        assert!(!c.regressed(0.30));
        let c = Comparison {
            key: "k".into(),
            baseline: 100.0,
            current: 69.0,
            lower_is_better: false,
        };
        assert!(c.regressed(0.30));
    }

    #[test]
    fn latency_metrics_regress_by_rising() {
        let mk = |current: f64| Comparison {
            key: "BENCH_scenarios/long_prefill_chunked/tbt_p99_ms".into(),
            baseline: 10.0,
            current,
            lower_is_better: true,
        };
        assert!(!mk(12.9).regressed(0.30), "within the rise budget");
        assert!(mk(13.1).regressed(0.30), "31% slower tail fails");
        assert!(!mk(1.0).regressed(0.30), "a faster tail never fails");
    }

    #[test]
    fn metric_direction_is_inferred_from_the_name() {
        for latency in [
            "tbt_p99_ms",
            "t2ft_p50_ms",
            "tier_interactive_tbt_p99_ms",
            "wall_s",
            "recovery_time_s",
            "paused_time_s",
        ] {
            assert!(lower_is_better(latency), "{latency}");
        }
        for throughput in [
            "stages_per_sec",
            "sim_tokens_per_sec",
            "goodput_tokens_per_s",
            "fault_interactive_attainment",
            "tier_interactive_attainment",
        ] {
            assert!(!lower_is_better(throughput), "{throughput}");
        }
    }

    #[test]
    fn gate_trips_on_latency_regressions_end_to_end() {
        // A baseline pinning a latency metric: the gate must fail when
        // the measured tail rises past the threshold, and the rendered
        // table must carry the direction.
        let baseline = r#"{
            "BENCH_scenarios": {
                "long_prefill_chunked": {"tbt_p99_ms": 5.0, "stages_per_sec": 100.0}
            }
        }"#;
        let report = r#"{"scenarios": {
            "long_prefill_chunked": {"tbt_p99_ms": 9.0, "stages_per_sec": 400.0}
        }}"#;
        let cmp = gate_reports(baseline, &[("BENCH_scenarios", report.into())]).expect("valid");
        let (table, failed) = render_gate(&cmp, DEFAULT_THRESHOLD);
        assert!(failed, "{table}");
        assert!(table.contains("tbt_p99_ms"));
        assert!(table.contains("min"));
        assert!(table.contains("REGRESSED"));
    }

    #[test]
    fn missing_baselined_entry_errors() {
        let reports = vec![(
            "BENCH_stage_cost",
            r#"{"classes": {"moe_heavy": {"stages_per_sec": 1.0}}}"#.into(),
        )];
        let err = gate_reports(BASELINE, &reports).expect_err("missing entry");
        assert!(err.contains("decode_only_delta"), "{err}");
    }

    #[test]
    fn missing_baselined_reports_fail_the_gate() {
        let err = check_missing(
            BASELINE,
            &["BENCH_sim", "BENCH_scenarios", "BENCH_stage_cost"],
        )
        .expect_err("two baselined reports are missing");
        assert_eq!(err, "baselined report missing: BENCH_sim, BENCH_stage_cost");
        // Reports without a baseline section may be missing.
        assert_eq!(check_missing(BASELINE, &["BENCH_scenarios"]), Ok(()));
        assert_eq!(check_missing(BASELINE, &[]), Ok(()));
    }

    #[test]
    fn reports_without_baseline_sections_are_skipped() {
        let reports = vec![("BENCH_scenarios", r#"{"scenarios": {}}"#.into())];
        let cmp = gate_reports(BASELINE, &reports).expect("valid");
        assert!(cmp.is_empty());
    }

    const FIXTURE: &str = r#"{
        "_self_test": {"must_trip": [
            {"key": "BENCH_stage_cost/decode_only_delta/stages_per_sec", "direction": "max"},
            {"key": "BENCH_stage_cost/moe_heavy/tbt_p99_ms", "direction": "min"},
            {"key": "BENCH_stage_cost/moe_heavy/replica_seconds", "direction": "min"}
        ]},
        "BENCH_stage_cost": {
            "decode_only_delta": {"stages_per_sec": 1e15},
            "moe_heavy": {"tbt_p99_ms": 1e-12, "replica_seconds": 1e-12}
        }
    }"#;

    const FIXTURE_REPORT: &str = r#"{"classes": {
        "decode_only_delta": {"stages_per_sec": 1000.0},
        "moe_heavy": {"tbt_p99_ms": 8.0, "replica_seconds": 14.5}
    }}"#;

    #[test]
    fn self_test_proves_every_declared_trip() {
        let reports = vec![("BENCH_stage_cost", FIXTURE_REPORT.to_string())];
        let outcome = run_self_test(FIXTURE, &reports, DEFAULT_THRESHOLD).expect("valid fixture");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.table.contains("REGRESSED"));
    }

    #[test]
    fn self_test_reports_a_missed_trip() {
        // An achievable baseline: the throughput "regression" never
        // fires, and the self-test must say which declaration failed.
        let soft = FIXTURE.replace("1e15", "900.0");
        let reports = vec![("BENCH_stage_cost", FIXTURE_REPORT.to_string())];
        let outcome = run_self_test(&soft, &reports, DEFAULT_THRESHOLD).expect("valid fixture");
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("decode_only_delta/stages_per_sec"));
        assert!(outcome.failures[0].contains("did not trip"));
    }

    #[test]
    fn self_test_catches_a_direction_mismatch() {
        // The fixture thinks replica_seconds gates upward ("max"): the
        // gate's own direction table says otherwise, and the self-test
        // is exactly where that disagreement must surface.
        let flipped = FIXTURE.replace(
            r#"{"key": "BENCH_stage_cost/moe_heavy/replica_seconds", "direction": "min"}"#,
            r#"{"key": "BENCH_stage_cost/moe_heavy/replica_seconds", "direction": "max"}"#,
        );
        let reports = vec![("BENCH_stage_cost", FIXTURE_REPORT.to_string())];
        let outcome = run_self_test(&flipped, &reports, DEFAULT_THRESHOLD).expect("valid fixture");
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("gates as `min`"));
    }

    #[test]
    fn self_test_flags_a_declaration_nothing_gates() {
        let dangling = FIXTURE.replace(
            "BENCH_stage_cost/decode_only_delta/stages_per_sec",
            "BENCH_stage_cost/retired_entry/stages_per_sec",
        );
        // The baseline section still prices decode_only_delta, so the
        // gate runs; the declaration just points at nothing.
        let reports = vec![("BENCH_stage_cost", FIXTURE_REPORT.to_string())];
        let outcome = run_self_test(&dangling, &reports, DEFAULT_THRESHOLD).expect("valid");
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("never gated"));
    }

    #[test]
    fn self_test_requires_declarations() {
        let err = run_self_test(BASELINE, &[], DEFAULT_THRESHOLD).expect_err("no declarations");
        assert!(err.contains("_self_test"), "{err}");
        let empty = r#"{"_self_test": {"must_trip": []}}"#;
        let err = run_self_test(empty, &[], DEFAULT_THRESHOLD).expect_err("empty list");
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn written_baselines_headroom_by_rule_and_skip_zeros() {
        let report = r#"{"scenarios": {
            "drill": {"fleet_stages_per_s": 1000.0, "wall_s": 0.004, "tbt_p99_ms": 19.83,
                      "replica_seconds": 15.65, "scale_up_lag_s": 0.0,
                      "interactive_attainment": 0.992, "kv_reuse_fraction": 0.0,
                      "stages": 1879}
        }}"#;
        let text = write_baseline(&[("BENCH_cluster", report.to_string())]).expect("writable");
        let doc = parse(&text).expect("valid JSON");
        let drill = doc
            .get("BENCH_cluster")
            .and_then(|s| s.get("drill"))
            .expect("section");
        // Throughput floored at 45%, wall ceiling never under 0.5 s,
        // deterministic metrics exact.
        assert_eq!(
            drill.get("fleet_stages_per_s").unwrap().as_f64(),
            Some(450.0)
        );
        assert_eq!(drill.get("wall_s").unwrap().as_f64(), Some(0.5));
        assert_eq!(drill.get("tbt_p99_ms").unwrap().as_f64(), Some(19.83));
        assert_eq!(drill.get("replica_seconds").unwrap().as_f64(), Some(15.65));
        assert_eq!(
            drill.get("interactive_attainment").unwrap().as_f64(),
            Some(0.992)
        );
        // Zero measurements are ungateable (ratio() = 0) and skipped;
        // unlisted metrics stay out.
        assert!(drill.get("scale_up_lag_s").is_none());
        assert!(drill.get("kv_reuse_fraction").is_none());
        assert!(drill.get("stages").is_none());
    }

    #[test]
    fn a_regenerated_baseline_gates_its_own_reports_clean() {
        let reports = vec![
            ("BENCH_stage_cost", stage_cost_report(950.0, 800.0)),
            (
                "BENCH_sim",
                r#"{"scenarios": {"open_loop_1m": {"stages_per_sec": 91.5}}}"#.to_string(),
            ),
        ];
        let baseline = write_baseline(&reports).expect("writable");
        let cmp = gate_reports(&baseline, &reports).expect("valid");
        assert!(!cmp.is_empty());
        let (table, failed) = render_gate(&cmp, DEFAULT_THRESHOLD);
        assert!(!failed, "{table}");
        // Regeneration is deterministic: same reports, same bytes.
        assert_eq!(baseline, write_baseline(&reports).expect("writable"));
    }

    #[test]
    fn autoscale_metrics_gate_as_lower_is_better() {
        for metric in ["replica_seconds", "scale_up_lag_s"] {
            assert!(lower_is_better(metric), "{metric}");
        }
        assert!(!lower_is_better("scale_ups"));
    }

    #[test]
    fn improvements_never_fail() {
        let c = Comparison {
            key: "k".into(),
            baseline: 100.0,
            current: 5000.0,
            lower_is_better: false,
        };
        assert!(!c.regressed(DEFAULT_THRESHOLD));
    }
}

//! Latency percentiles and the simulation report.
//!
//! Per-request records keep only O(1) state (first/last token time and
//! a token count), and the TBT population is summarized by a
//! fixed-size streaming [`LatencyDigest`] — so a paper-scale run over
//! millions of requests reports percentiles without per-token heap
//! growth.
//!
//! The batching loop records one TBT sample per stage, and consecutive
//! stages mostly land in the same 2% bucket: a quiet decode stage runs
//! a few nanoseconds longer than the one before. `BucketMemo` keeps
//! the last bucket's exact value range, so such a lookup costs two
//! comparisons instead of [`LatencyDigest::bucket_for`]'s `ln`. Its
//! ranges come from a process-wide table of the bucket thresholds,
//! each found by walking floats until `bucket_for` itself changes its
//! answer, so the memo agrees with `bucket_for` on every input.

use std::sync::OnceLock;

use crate::request::RequestRecord;

/// Linear-interpolation percentile over unsorted samples.
///
/// Returns 0.0 for an empty slice (reports print "-" for missing data,
/// and an empty percentile must not poison aggregate math).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
    if samples.is_empty() {
        return 0.0;
    }
    percentile_of_sorted(&sorted_copy(samples), p)
}

/// An ascending copy of a latency population.
fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    sorted
}

/// [`percentile`] of an already ascending, non-empty population.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// p50/p90/p99 summary of one latency population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl LatencySummary {
    /// Summarize a sample population.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let sorted = sorted_copy(samples);
        Self {
            p50: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            count: samples.len(),
        }
    }
}

/// Smallest latency the digest resolves (1 ns).
const DIGEST_FLOOR_S: f64 = 1e-9;
/// Geometric bucket growth: 2% wide buckets.
const DIGEST_GROWTH: f64 = 1.02;
/// Buckets spanning 1 ns .. ~10^4 s at 2% resolution.
const DIGEST_BUCKETS: usize = 1520;

/// Streaming latency population: fixed-size log-spaced histogram with
/// per-bucket sums.
///
/// Percentile queries return the mean of the samples in the bucket the
/// requested rank falls into, so they are exact for degenerate
/// populations (every sample identical — the steady-state TBT case)
/// and within the 2% bucket resolution otherwise. Memory is O(1)
/// (~1.5k buckets), independent of the sample count, which is what
/// lets million-request simulations keep latency percentiles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyDigest {
    /// Per-bucket (count, sum); allocated lazily on the first record.
    buckets: Vec<(u64, f64)>,
    count: u64,
    sum: f64,
}

impl LatencyDigest {
    fn bucket_of(value: f64) -> usize {
        // NaN and sub-floor values both land in bucket 0.
        if value.partial_cmp(&DIGEST_FLOOR_S) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        let idx = ((value / DIGEST_FLOOR_S).ln() / DIGEST_GROWTH.ln()) as usize;
        idx.min(DIGEST_BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical samples with one bucket update (the
    /// scheduler's per-stage fast path: every request advancing in a
    /// stage sees the same token gap).
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.record_n_in(Self::bucket_of(value), value, n);
    }

    /// The bucket `value` lands in (exactly [`LatencyDigest::record_n`]'s
    /// choice). The bucket math costs one `ln` call (the growth
    /// factor's `ln` folds to a constant), so a caller
    /// recording one value into several digests — the scheduler feeds
    /// the fleet digest plus one digest per SLO tier every stage —
    /// looks the bucket up once and records via
    /// [`LatencyDigest::record_n_in`]. The scheduler looks it up
    /// through a `BucketMemo` (see the module docs), which skips the
    /// `ln` while values stay in one bucket; this function stays the
    /// memo's oracle.
    pub fn bucket_for(value: f64) -> usize {
        Self::bucket_of(value)
    }

    /// [`LatencyDigest::record_n`] with the bucket index precomputed by
    /// [`LatencyDigest::bucket_for`] on the same `value`.
    pub fn record_n_in(&mut self, bucket: usize, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets.resize(DIGEST_BUCKETS, (0, 0.0));
        }
        let b = &mut self.buckets[bucket];
        b.0 += n;
        b.1 += value * n as f64;
        self.count += n;
        self.sum += value * n as f64;
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Approximate percentile: the mean of the bucket holding the
    /// requested rank (see the type docs for the error bound).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(n, sum) in &self.buckets {
            seen += n;
            if seen >= target {
                return sum / n as f64;
            }
        }
        self.mean()
    }

    /// Fold another digest's population into this one, bucket by
    /// bucket — the fleet-aggregation primitive: merged percentiles
    /// are exactly the percentiles of the concatenated sample stream
    /// (both digests share the same fixed bucket layout).
    pub fn merge(&mut self, other: &LatencyDigest) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets.resize(DIGEST_BUCKETS, (0, 0.0));
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Export the digest for a snapshot: the nonzero buckets as
    /// `(index, count, sum)` plus the global count and sum. The global
    /// sum is accumulated in record order and is *not* recomputable
    /// from the bucket sums bit-exactly, so it is carried explicitly.
    pub(crate) fn export_state(&self) -> (Vec<(u64, u64, f64)>, u64, f64) {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &(n, _))| n > 0)
            .map(|(i, &(n, sum))| (i as u64, n, sum))
            .collect();
        (buckets, self.count, self.sum)
    }

    /// Rebuild a digest from [`export_state`](Self::export_state)
    /// output. A never-recorded digest round-trips to
    /// `LatencyDigest::default()` — bucket allocation stays lazy so
    /// `PartialEq` cannot tell a restored digest from the original.
    pub(crate) fn import_state(buckets: &[(u64, u64, f64)], count: u64, sum: f64) -> Self {
        let mut d = LatencyDigest::default();
        if count == 0 {
            return d;
        }
        d.buckets.resize(DIGEST_BUCKETS, (0, 0.0));
        for &(i, n, s) in buckets {
            d.buckets[i as usize] = (n, s);
        }
        d.count = count;
        d.sum = sum;
        d
    }

    /// p50/p90/p99/mean summary of the recorded population.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50: self.quantile(50.0),
            p90: self.quantile(90.0),
            p99: self.quantile(99.0),
            mean: self.mean(),
            count: self.count as usize,
        }
    }
}

/// The lower edge of every digest bucket: entry `b` is the smallest
/// `f64` that [`LatencyDigest::bucket_for`] puts in bucket `b` or
/// above, with −∞ and +∞ closing the ends (12 KB, built on first use).
///
/// Each edge starts from the closed form `1e-9 * 1.02^b`, which lands
/// within a few dozen ulps of it, and walks one float at a time until
/// `bucket_for` changes its answer. The edges are therefore `bucket_for`'s
/// own, not a reimplementation of its math; the memo is exact because
/// `bucket_for` never decreases as its input grows, which the tests
/// check around every edge.
fn bucket_edges() -> &'static [f64; DIGEST_BUCKETS + 1] {
    static EDGES: OnceLock<[f64; DIGEST_BUCKETS + 1]> = OnceLock::new();
    EDGES.get_or_init(|| {
        let mut edges = [f64::INFINITY; DIGEST_BUCKETS + 1];
        edges[0] = f64::NEG_INFINITY;
        for (b, edge) in edges.iter_mut().enumerate().take(DIGEST_BUCKETS).skip(1) {
            let mut x = DIGEST_FLOOR_S * (b as f64 * DIGEST_GROWTH.ln()).exp();
            while LatencyDigest::bucket_of(x) >= b {
                x = x.next_down();
            }
            while LatencyDigest::bucket_of(x) < b {
                x = x.next_up();
            }
            *edge = x;
        }
        edges
    })
}

/// An exact memo of [`LatencyDigest::bucket_for`] for a stream of
/// values that mostly stay in one bucket, such as a replica's stage
/// latencies: a value inside the last bucket's `[lo, hi)` range costs
/// two comparisons, any other value one `bucket_for` call plus two
/// reads of the edge table. It holds no samples, so digests and
/// snapshots do not see it.
#[derive(Debug)]
pub(crate) struct BucketMemo {
    lo: f64,
    hi: f64,
    bucket: usize,
    /// Lookups that missed the range and called `bucket_for`.
    refills: u64,
}

impl Default for BucketMemo {
    fn default() -> Self {
        // NaN edges compare false, so the first lookup refills.
        Self {
            lo: f64::NAN,
            hi: f64::NAN,
            bucket: 0,
            refills: 0,
        }
    }
}

impl BucketMemo {
    /// `LatencyDigest::bucket_for(value)`, remembering its range.
    #[inline(always)]
    pub(crate) fn bucket(&mut self, value: f64) -> usize {
        // NaN fails both comparisons and takes the refill.
        if value >= self.lo && value < self.hi {
            return self.bucket;
        }
        self.refill(value)
    }

    #[inline(never)]
    fn refill(&mut self, value: f64) -> usize {
        let bucket = LatencyDigest::bucket_of(value);
        let edges = bucket_edges();
        self.lo = edges[bucket];
        self.hi = edges[bucket + 1];
        self.bucket = bucket;
        self.refills += 1;
        bucket
    }

    /// Lookups so far that missed the remembered range.
    #[cfg(test)]
    pub(crate) fn refills(&self) -> u64 {
        self.refills
    }
}

/// One executed stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Stage latency in seconds.
    pub seconds: f64,
    /// Whether the stage was mixed (contained prefills).
    pub mixed: bool,
    /// Requests in the stage.
    pub batch: usize,
    /// Tokens through the FC path.
    pub tokens: u64,
}

/// Aggregate stage counters, maintained whether or not per-stage
/// records are kept (see `SimulationConfig::record_stages`): the
/// throughput and stage-mix metrics derive from these, so truncating
/// the per-stage log never changes them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageStats {
    /// Stages executed.
    pub stages: u64,
    /// Stages that contained at least one prefill.
    pub mixed: u64,
    /// Σ batch size over stages (= tokens generated, one per request
    /// per stage).
    pub batch_sum: u64,
    /// Σ FC-path tokens over stages.
    pub token_sum: u64,
}

impl StageStats {
    /// Fold one stage into the counters.
    pub fn record(&mut self, record: &StageRecord) {
        self.stages += 1;
        self.mixed += u64::from(record.mixed);
        self.batch_sum += record.batch as u64;
        self.token_sum += record.tokens;
    }

    /// Fold another replica's counters into this one (fleet totals).
    pub fn merge(&mut self, other: &StageStats) {
        self.stages += other.stages;
        self.mixed += other.mixed;
        self.batch_sum += other.batch_sum;
        self.token_sum += other.token_sum;
    }
}

/// Per-SLO-tier attainment counters (scenario runs; see
/// `crate::scenario`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierStats {
    /// Tier display name ("interactive", "batch", ...).
    pub name: String,
    /// T2FT deadline the tier promises, in seconds.
    pub t2ft_deadline_s: f64,
    /// Mean-TBT deadline the tier promises, in seconds (0 = none).
    pub tbt_deadline_s: f64,
    /// Requests of this tier that completed.
    pub completed: u64,
    /// Completed requests that met every deadline.
    pub met: u64,
    /// Output tokens of SLO-attaining requests (the goodput numerator).
    pub good_tokens: u64,
    /// Streaming token-gap population of this tier's decoding requests
    /// (including in-flight ones), for per-tier tail latency — the
    /// metric mixed-stage prefill spikes show up in, and the one
    /// chunked prefill is built to flatten.
    pub tbt_digest: LatencyDigest,
}

impl TierStats {
    /// Fraction of this tier's completed requests that met their SLO.
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.met as f64 / self.completed as f64
    }

    /// This tier's TBT p99 in seconds (0 with no recorded gaps).
    pub fn tbt_p99_s(&self) -> f64 {
        self.tbt_digest.quantile(99.0)
    }

    /// Fold another replica's counters for the *same tier* into this
    /// one (matched by position when merging [`SloStats`]).
    ///
    /// # Panics
    ///
    /// Panics when the tier names differ — merging mismatched fleets
    /// would silently blend unrelated SLOs.
    pub fn merge(&mut self, other: &TierStats) {
        assert_eq!(self.name, other.name, "merging different tiers");
        self.completed += other.completed;
        self.met += other.met;
        self.good_tokens += other.good_tokens;
        self.tbt_digest.merge(&other.tbt_digest);
    }
}

/// SLO accounting across tiers. Empty (no tiers) for runs without SLO
/// classes — the plain simulator leaves it default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloStats {
    /// One entry per configured tier.
    pub tiers: Vec<TierStats>,
}

impl SloStats {
    /// Whether any SLO accounting happened.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Completed requests across all tiers.
    pub fn completed(&self) -> u64 {
        self.tiers.iter().map(|t| t.completed).sum()
    }

    /// Overall SLO attainment: attained / completed across tiers.
    pub fn attainment(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            return 0.0;
        }
        self.tiers.iter().map(|t| t.met).sum::<u64>() as f64 / done as f64
    }

    /// Output tokens of SLO-attaining requests across tiers.
    pub fn good_tokens(&self) -> u64 {
        self.tiers.iter().map(|t| t.good_tokens).sum()
    }

    /// Fold another replica's per-tier counters into this one. An
    /// empty side adopts the other's tiers; otherwise the tier lists
    /// must match position by position (same scenario on every
    /// replica).
    pub fn merge(&mut self, other: &SloStats) {
        if other.tiers.is_empty() {
            return;
        }
        if self.tiers.is_empty() {
            self.tiers = other.tiers.clone();
            return;
        }
        assert_eq!(
            self.tiers.len(),
            other.tiers.len(),
            "merging fleets with different tier sets"
        );
        for (mine, theirs) in self.tiers.iter_mut().zip(&other.tiers) {
            mine.merge(theirs);
        }
    }
}

/// Prefix-reuse accounting for multi-turn scenarios: how much prefill
/// the KV cache saved, and what retention cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KvReuseStats {
    /// Prompt tokens whose KV was still resident at admission (their
    /// prefill was skipped).
    pub reused_prefill_tokens: u64,
    /// Prompt tokens actually prefilled (fresh requests, evicted
    /// histories, new follow-up suffixes, and recompute resumes),
    /// counted at admission. Every entry point fills it the same way,
    /// so a [`crate::Simulation`] report holds the sum of its admitted
    /// prompt lengths.
    pub prefilled_tokens: u64,
    /// Parked conversation histories evicted before their follow-up
    /// arrived (those follow-ups re-prefill in full).
    pub parked_evictions: u64,
    /// Follow-up admissions that found their history resident.
    pub reuse_hits: u64,
    /// Follow-up admissions that had to re-prefill their history.
    pub reuse_misses: u64,
}

impl KvReuseStats {
    /// Fraction of prompt tokens served from resident KV.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused_prefill_tokens + self.prefilled_tokens;
        if total == 0 {
            return 0.0;
        }
        self.reused_prefill_tokens as f64 / total as f64
    }

    /// Fold another replica's counters into this one (fleet totals).
    pub fn merge(&mut self, other: &KvReuseStats) {
        self.reused_prefill_tokens += other.reused_prefill_tokens;
        self.prefilled_tokens += other.prefilled_tokens;
        self.parked_evictions += other.parked_evictions;
        self.reuse_hits += other.reuse_hits;
        self.reuse_misses += other.reuse_misses;
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Completed requests with their O(1) latency records.
    pub completed: Vec<RequestRecord>,
    /// Every executed stage, in order (empty when the run disabled
    /// per-stage recording; the aggregates in `stage_stats` are always
    /// maintained).
    pub stages: Vec<StageRecord>,
    /// Aggregate stage counters.
    pub stage_stats: StageStats,
    /// Streaming token-gap (TBT) population across all requests,
    /// including ones still in flight at truncation.
    pub tbt_digest: LatencyDigest,
    /// Total simulated wall-clock time in seconds.
    pub total_time_s: f64,
    /// SLO attainment per tier (empty unless the run declared tiers).
    pub slo: SloStats,
    /// Prefix-reuse accounting (zeros unless the run used multi-turn
    /// conversations).
    pub kv_reuse: KvReuseStats,
    /// Preemption and multiplexing counters (zeros unless the run used
    /// a preemptive policy).
    pub preempt: crate::preempt::PreemptStats,
}

impl SimReport {
    /// Total generated tokens across completed requests.
    pub fn total_tokens(&self) -> u64 {
        self.completed.iter().map(|r| r.tokens).sum()
    }

    /// Serving throughput in generated tokens per second.
    pub fn throughput_tokens_per_s(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / self.total_time_s
    }

    /// Tokens generated by all stages (each request in a stage emits
    /// exactly one token), counting partially completed requests too —
    /// the right numerator for truncated steady-state runs.
    pub fn generated_tokens(&self) -> u64 {
        self.stage_stats.batch_sum
    }

    /// Tokens pushed through the batched FC/MoE path across all stages
    /// (whole prompts during prefills plus one per decoding request) —
    /// the compute-volume counterpart of [`SimReport::generated_tokens`].
    pub fn fc_tokens(&self) -> u64 {
        self.stage_stats.token_sum
    }

    /// Steady-state generation throughput in tokens per second,
    /// counting in-flight requests' tokens.
    pub fn generation_throughput(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.generated_tokens() as f64 / self.total_time_s
    }

    /// TBT summary from the streaming digest.
    pub fn tbt(&self) -> LatencySummary {
        self.tbt_digest.summary()
    }

    /// T2FT summary.
    pub fn t2ft(&self) -> LatencySummary {
        let samples: Vec<f64> = self.completed.iter().map(|r| r.t2ft()).collect();
        LatencySummary::of(&samples)
    }

    /// End-to-end latency summary.
    pub fn e2e(&self) -> LatencySummary {
        let samples: Vec<f64> = self.completed.iter().map(|r| r.e2e()).collect();
        LatencySummary::of(&samples)
    }

    /// Fraction of stages that were decoding-only (Fig. 5(a)).
    pub fn decode_only_fraction(&self) -> f64 {
        if self.stage_stats.stages == 0 {
            return 0.0;
        }
        (self.stage_stats.stages - self.stage_stats.mixed) as f64 / self.stage_stats.stages as f64
    }

    /// Mean batch size across stages.
    pub fn mean_batch(&self) -> f64 {
        if self.stage_stats.stages == 0 {
            return 0.0;
        }
        self.stage_stats.batch_sum as f64 / self.stage_stats.stages as f64
    }

    /// Overall SLO attainment (0 when the run declared no tiers).
    pub fn slo_attainment(&self) -> f64 {
        self.slo.attainment()
    }

    /// Goodput: output tokens of SLO-attaining requests per second of
    /// simulated time. Falls back to 0 without tiers or time.
    pub fn goodput_tokens_per_s(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.slo.good_tokens() as f64 / self.total_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_unordered_input() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn summary_orders_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = LatencySummary::of(&samples);
        assert!(s.p50 < s.p90 && s.p90 < s.p99);
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn summary_percentiles_match_percentile_bit_for_bit() {
        // Unordered, with ties and ranks that interpolate.
        let samples: Vec<f64> = (0..257u64)
            .map(|i| ((i * 7919) % 101) as f64 * 1.37e-3 + (i % 3) as f64 * 1e-9)
            .collect();
        for n in [1, 2, 3, 10, 101, 257] {
            let s = LatencySummary::of(&samples[..n]);
            for (got, p) in [(s.p50, 50.0), (s.p90, 90.0), (s.p99, 99.0)] {
                assert_eq!(
                    got.to_bits(),
                    percentile(&samples[..n], p).to_bits(),
                    "n={n} p{p}"
                );
            }
        }
    }

    #[test]
    fn digest_is_exact_for_identical_samples() {
        // The steady-state TBT case: all gaps equal one stage latency.
        let mut d = LatencyDigest::default();
        d.record_n(0.02, 1000);
        let s = d.summary();
        assert!((s.p50 - 0.02).abs() < 1e-12);
        assert!((s.p99 - 0.02).abs() < 1e-12);
        assert!((s.mean - 0.02).abs() < 1e-12);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn digest_percentiles_within_bucket_resolution() {
        let mut d = LatencyDigest::default();
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-4).collect();
        for &s in &samples {
            d.record(s);
        }
        let exact = LatencySummary::of(&samples);
        let approx = d.summary();
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p90, exact.p90),
            (approx.p99, exact.p99),
        ] {
            assert!((a - e).abs() / e < 0.03, "approx {a} vs exact {e}");
        }
        assert!(
            (approx.mean - exact.mean).abs() / exact.mean < 1e-9,
            "mean is exact"
        );
        assert!(approx.p50 <= approx.p90 && approx.p90 <= approx.p99);
    }

    #[test]
    fn digest_handles_extremes_and_empty() {
        let d = LatencyDigest::default();
        assert_eq!(d.summary(), LatencySummary::default());
        let mut d = LatencyDigest::default();
        d.record(0.0);
        d.record(1e12);
        assert_eq!(d.count(), 2);
        assert!(d.quantile(0.0) >= 0.0);
        assert!(d.quantile(100.0) > 0.0);
    }

    /// The float `ulps` representable values away from a positive,
    /// finite `x` (positive floats order like their bit patterns).
    fn ulps_from(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    #[test]
    fn bucket_edges_are_the_oracles_own() {
        let edges = bucket_edges();
        assert_eq!(edges[0], f64::NEG_INFINITY);
        assert_eq!(edges[DIGEST_BUCKETS], f64::INFINITY);
        for b in 1..DIGEST_BUCKETS {
            let edge = edges[b];
            assert!(edge > edges[b - 1], "edge {b} ascends");
            assert_eq!(LatencyDigest::bucket_for(edge), b, "edge {b}");
            assert_eq!(
                LatencyDigest::bucket_for(edge.next_down()),
                b - 1,
                "just below edge {b}"
            );
        }
    }

    #[test]
    fn bucket_for_is_monotone_around_every_edge() {
        // The memo answers from the bucket's range, so it is exact only
        // where `bucket_for` never decreases as its input grows. Away
        // from an edge the bucket index's rounding error (a few ulps of
        // a number below 1520) cannot cross an integer, so a window of
        // floats on each side of every edge covers every place where a
        // non-monotone `ln` could show. Release test runs sweep the
        // full window.
        let window: i64 = if cfg!(debug_assertions) { 64 } else { 4096 };
        let edges = &bucket_edges()[..DIGEST_BUCKETS];
        for (b, &edge) in edges.iter().enumerate().skip(1) {
            for k in -window..window {
                let want = if k < 0 { b - 1 } else { b };
                let x = ulps_from(edge, k);
                assert_eq!(LatencyDigest::bucket_for(x), want, "edge {b}{k:+} ulps");
            }
        }
    }

    #[test]
    fn bucket_memo_counts_refills() {
        let mut memo = BucketMemo::default();
        for i in 0..100 {
            memo.bucket(4e-3 + 1e-9 * i as f64);
        }
        assert_eq!(memo.refills(), 1, "one bucket, one refill");
        memo.bucket(f64::NAN);
        memo.bucket(f64::NAN);
        memo.bucket(8e-3);
        assert_eq!(memo.refills(), 4, "NaN never hits");
    }

    /// A float of one of the kinds a digest must bucket: NaN, ±0,
    /// subnormals, values at or below the 1 ns floor, ±∞, values past
    /// the last bucket's edge, values at and next to the edges,
    /// arbitrary bit patterns and log-uniform latencies.
    fn value_of_kind(kind: u64, bits: u64) -> f64 {
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
        let edges = bucket_edges();
        match kind {
            0 => f64::from_bits(0x7ff0_0000_0000_0001 | (bits & 0x800f_ffff_ffff_ffff)),
            1 => sign * 0.0,
            2 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
            3 => DIGEST_FLOOR_S * (1.0 - unit),
            4 => sign * f64::INFINITY,
            5 => edges[DIGEST_BUCKETS - 1] * (1.0 + unit * 1e6),
            6 => ulps_from(
                edges[1 + (bits % (DIGEST_BUCKETS as u64 - 1)) as usize],
                (bits >> 32) as i64 % 5 - 2,
            ),
            7 => f64::from_bits(bits),
            _ => DIGEST_FLOOR_S * 10f64.powf(13.5 * unit),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn bucket_memo_matches_bucket_for_on_any_value(
            values in proptest::collection::vec((0u64..9, 0u64..u64::MAX), 1..64),
        ) {
            let mut memo = BucketMemo::default();
            for &(kind, bits) in &values {
                let x = value_of_kind(kind, bits);
                proptest::prop_assert_eq!(memo.bucket(x), LatencyDigest::bucket_for(x));
            }
        }

        #[test]
        fn bucket_memo_matches_bucket_for_on_drifting_streams(
            start in 0.0f64..1.0,
            steps in proptest::collection::vec((0u64..40, 0.0f64..1.0), 1..600),
        ) {
            // Quiet runs drift a stage latency upward by a few
            // nanoseconds a stage; a mixed stage jumps anywhere.
            let log_uniform = |u: f64| 1e-6 * 10f64.powf(6.0 * u);
            let mut memo = BucketMemo::default();
            let mut x = log_uniform(start);
            for &(jump, u) in &steps {
                x = if jump == 0 { log_uniform(u) } else { x * (1.0 + 1e-4 * u) };
                proptest::prop_assert_eq!(memo.bucket(x), LatencyDigest::bucket_for(x));
            }
        }
    }

    fn report() -> SimReport {
        let mk = |id, first: f64, last: f64, tokens: u64| RequestRecord {
            request: Request {
                id,
                arrival_s: 0.0,
                input_len: 4,
                output_len: tokens,
            },
            first_token_s: first,
            last_token_s: last,
            tokens,
        };
        let stages = vec![
            StageRecord {
                seconds: 0.1,
                mixed: true,
                batch: 2,
                tokens: 10,
            },
            StageRecord {
                seconds: 0.1,
                mixed: false,
                batch: 2,
                tokens: 2,
            },
            StageRecord {
                seconds: 0.1,
                mixed: false,
                batch: 1,
                tokens: 1,
            },
        ];
        let mut stage_stats = StageStats::default();
        for s in &stages {
            stage_stats.record(s);
        }
        let mut tbt_digest = LatencyDigest::default();
        for gap in [0.1, 0.1, 0.2] {
            tbt_digest.record(gap);
        }
        SimReport {
            completed: vec![mk(0, 0.1, 0.3, 3), mk(1, 0.15, 0.35, 2)],
            stages,
            stage_stats,
            tbt_digest,
            total_time_s: 0.35,
            ..SimReport::default()
        }
    }

    #[test]
    fn throughput_counts_generated_tokens() {
        let r = report();
        assert_eq!(r.total_tokens(), 5);
        assert!((r.throughput_tokens_per_s() - 5.0 / 0.35).abs() < 1e-9);
        assert_eq!(r.generated_tokens(), 5);
        assert!((r.generation_throughput() - 5.0 / 0.35).abs() < 1e-9);
        // FC-path volume includes the mixed stage's prompt tokens.
        assert_eq!(r.fc_tokens(), 13);
    }

    #[test]
    fn decode_only_fraction_counts_stages() {
        let r = report();
        assert!((r.decode_only_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_batch() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tbt_population_spans_requests() {
        let r = report();
        assert_eq!(r.tbt().count, 3); // 2 gaps + 1 gap
        assert!((r.tbt().mean - 0.4 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::default();
        assert_eq!(r.throughput_tokens_per_s(), 0.0);
        assert_eq!(r.decode_only_fraction(), 0.0);
        assert_eq!(r.tbt().count, 0);
        assert!(r.slo.is_empty());
        assert_eq!(r.slo_attainment(), 0.0);
        assert_eq!(r.goodput_tokens_per_s(), 0.0);
        assert_eq!(r.kv_reuse.reuse_fraction(), 0.0);
    }

    #[test]
    fn slo_stats_aggregate_across_tiers() {
        let slo = SloStats {
            tiers: vec![
                TierStats {
                    name: "interactive".into(),
                    t2ft_deadline_s: 0.5,
                    tbt_deadline_s: 0.05,
                    completed: 10,
                    met: 8,
                    good_tokens: 800,
                    ..TierStats::default()
                },
                TierStats {
                    name: "batch".into(),
                    t2ft_deadline_s: 10.0,
                    tbt_deadline_s: 0.0,
                    completed: 5,
                    met: 5,
                    good_tokens: 2000,
                    ..TierStats::default()
                },
            ],
        };
        assert!((slo.tiers[0].attainment() - 0.8).abs() < 1e-12);
        assert!((slo.attainment() - 13.0 / 15.0).abs() < 1e-12);
        assert_eq!(slo.good_tokens(), 2800);
        let report = SimReport {
            slo,
            total_time_s: 2.0,
            ..SimReport::default()
        };
        assert!((report.goodput_tokens_per_s() - 1400.0).abs() < 1e-9);
        assert!((report.slo_attainment() - 13.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn digest_merge_equals_concatenated_stream() {
        let samples_a: Vec<f64> = (1..=500).map(|i| i as f64 * 1e-4).collect();
        let samples_b: Vec<f64> = (1..=300).map(|i| i as f64 * 3e-4).collect();
        let mut a = LatencyDigest::default();
        let mut b = LatencyDigest::default();
        let mut both = LatencyDigest::default();
        for &s in &samples_a {
            a.record(s);
            both.record(s);
        }
        for &s in &samples_b {
            b.record(s);
            both.record(s);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        // Bucket counts (hence ranks) merge exactly; sums only differ
        // by f64 addition order.
        assert_eq!(merged.count(), both.count());
        for p in [50.0, 90.0, 99.0] {
            let (m, b) = (merged.quantile(p), both.quantile(p));
            assert!((m - b).abs() / b < 1e-12, "p{p}: merged {m} vs both {b}");
        }
        assert!((merged.mean() - both.mean()).abs() / both.mean() < 1e-12);
        // Merging into an empty digest adopts the other population.
        let mut empty = LatencyDigest::default();
        empty.merge(&both);
        assert_eq!(empty.summary(), both.summary());
        // Merging an empty digest is a no-op (bit-exact).
        let before = merged.clone();
        merged.merge(&LatencyDigest::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn stage_and_kv_stats_merge_add_counters() {
        let mut s = StageStats {
            stages: 3,
            mixed: 1,
            batch_sum: 10,
            token_sum: 40,
        };
        s.merge(&StageStats {
            stages: 2,
            mixed: 2,
            batch_sum: 5,
            token_sum: 9,
        });
        assert_eq!(s.stages, 5);
        assert_eq!(s.mixed, 3);
        assert_eq!(s.batch_sum, 15);
        assert_eq!(s.token_sum, 49);

        let mut kv = KvReuseStats {
            reused_prefill_tokens: 10,
            prefilled_tokens: 90,
            ..KvReuseStats::default()
        };
        kv.merge(&KvReuseStats {
            reused_prefill_tokens: 40,
            prefilled_tokens: 60,
            reuse_hits: 2,
            ..KvReuseStats::default()
        });
        assert!((kv.reuse_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(kv.reuse_hits, 2);
    }

    #[test]
    fn slo_merge_folds_matching_tiers() {
        let tier = |met: u64, completed: u64| TierStats {
            name: "interactive".into(),
            completed,
            met,
            good_tokens: met * 10,
            ..TierStats::default()
        };
        let mut a = SloStats {
            tiers: vec![tier(8, 10)],
        };
        let b = SloStats {
            tiers: vec![tier(5, 10)],
        };
        a.merge(&b);
        assert_eq!(a.completed(), 20);
        assert!((a.attainment() - 13.0 / 20.0).abs() < 1e-12);
        assert_eq!(a.good_tokens(), 130);
        // An empty side adopts the populated one; merging empty into
        // populated is a no-op.
        let mut empty = SloStats::default();
        empty.merge(&a);
        assert_eq!(empty.completed(), 20);
        a.merge(&SloStats::default());
        assert_eq!(a.completed(), 20);
    }

    #[test]
    #[should_panic(expected = "merging different tiers")]
    fn tier_merge_rejects_mismatched_names() {
        let mut a = TierStats {
            name: "interactive".into(),
            ..TierStats::default()
        };
        let b = TierStats {
            name: "batch".into(),
            ..TierStats::default()
        };
        a.merge(&b);
    }

    #[test]
    fn kv_reuse_fraction() {
        let kv = KvReuseStats {
            reused_prefill_tokens: 300,
            prefilled_tokens: 700,
            parked_evictions: 2,
            reuse_hits: 3,
            reuse_misses: 2,
        };
        assert!((kv.reuse_fraction() - 0.3).abs() < 1e-12);
    }
}

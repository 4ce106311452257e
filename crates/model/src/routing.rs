//! Expert routing: the gate in front of each MoE layer.
//!
//! Every token independently selects `top_k` experts. The paper's
//! evaluation draws targets from a *uniform* distribution (Sec. VI,
//! following Switch-Transformer observations); Sec. VIII-B discusses
//! skewed ("hot/cold expert") routing, which we expose through a Zipf
//! exponent so the ablation benches can exercise it.
//!
//! Routing only needs per-expert token *counts*, and the simulator
//! supports two ways of producing them:
//!
//! * [`RoutingMode::Expected`] — the closed-form expected histogram
//!   (`tokens * top_k * p_i`, integerized by largest-remainder
//!   rounding). Deterministic and O(experts) with no RNG draws; this is
//!   the default for uniform routing, where the gate's law of large
//!   numbers makes per-stage sampling noise irrelevant to the paper's
//!   aggregate metrics.
//! * [`RoutingMode::Sampled`] — a multinomial drawn via a chain of
//!   binomials (exact, with a normal approximation for large counts).
//!   Skewed (`zipf`) routers default to this so the hot/cold ablations
//!   keep their stage-to-stage variance.

use rand::Rng;

/// How the router turns selection probabilities into token counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Closed-form expected counts (deterministic, no RNG draws).
    Expected,
    /// Multinomial sampling through the gate.
    Sampled,
}

/// Per-layer expert selector.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertRouter {
    n_experts: u32,
    top_k: u32,
    /// Normalized selection probabilities, one per expert.
    probs: Vec<f64>,
    mode: RoutingMode,
}

impl ExpertRouter {
    /// Uniform routing across `n_experts`, `top_k` choices per token.
    /// Defaults to [`RoutingMode::Expected`] (the analytic fast path).
    ///
    /// # Panics
    ///
    /// Panics if `n_experts` is zero or `top_k` exceeds `n_experts`.
    pub fn uniform(n_experts: u32, top_k: u32) -> Self {
        Self::zipf(n_experts, top_k, 0.0)
    }

    /// Zipf-skewed routing: expert `i` is selected with probability
    /// proportional to `(i + 1)^-skew`. `skew = 0` is uniform; larger
    /// values concentrate tokens on "hot" experts (Sec. VIII-B).
    ///
    /// Uniform (`skew = 0`) routers default to the closed-form
    /// [`RoutingMode::Expected`]; skewed routers keep
    /// [`RoutingMode::Sampled`] so ablations see routing variance.
    /// Override either with [`ExpertRouter::with_mode`].
    ///
    /// # Panics
    ///
    /// Panics if `n_experts` is zero, `top_k` exceeds `n_experts`, or
    /// `skew` is negative.
    pub fn zipf(n_experts: u32, top_k: u32, skew: f64) -> Self {
        assert!(n_experts > 0, "router needs at least one expert");
        assert!(
            top_k >= 1 && top_k <= n_experts,
            "top_k must be in 1..=n_experts"
        );
        assert!(skew >= 0.0, "skew must be non-negative");
        let mut probs: Vec<f64> = (0..n_experts)
            .map(|i| (i as f64 + 1.0).powf(-skew))
            .collect();
        let sum: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= sum;
        }
        let mode = if skew == 0.0 {
            RoutingMode::Expected
        } else {
            RoutingMode::Sampled
        };
        Self {
            n_experts,
            top_k,
            probs,
            mode,
        }
    }

    /// Replace the routing mode (e.g. force sampling for an ablation
    /// of gate noise under uniform routing).
    pub fn with_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of experts.
    pub fn n_experts(&self) -> u32 {
        self.n_experts
    }

    /// Experts selected per token.
    pub fn top_k(&self) -> u32 {
        self.top_k
    }

    /// The active routing mode.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Route `tokens` tokens: returns per-expert token counts summing to
    /// `tokens * top_k` (each token activates `top_k` experts). In
    /// [`RoutingMode::Expected`] the RNG is not advanced.
    pub fn route<R: Rng + ?Sized>(&self, rng: &mut R, tokens: u64) -> Vec<u64> {
        match self.mode {
            RoutingMode::Expected => self.route_expected(tokens),
            RoutingMode::Sampled => self.route_sampled(rng, tokens),
        }
    }

    /// The closed-form expected histogram: `total * p_i` floored, with
    /// the remainder distributed by largest fractional part (ties to
    /// lower expert index). Sums exactly to `tokens * top_k`.
    pub fn route_expected(&self, tokens: u64) -> Vec<u64> {
        let mut counts = Vec::new();
        self.route_expected_into(tokens, &mut counts, &mut Vec::new());
        counts
    }

    /// [`ExpertRouter::route_expected`] writing into reusable buffers:
    /// `counts` receives the histogram, `remainders` is the caller's
    /// scratch for the largest-remainder ranking. Both are cleared and
    /// refilled with their capacity kept, so a call allocates nothing
    /// once they hold one entry per expert.
    pub fn route_expected_into(
        &self,
        tokens: u64,
        counts: &mut Vec<u64>,
        remainders: &mut Vec<(f64, usize)>,
    ) {
        let total = tokens * u64::from(self.top_k);
        counts.clear();
        counts.resize(self.n_experts as usize, 0);
        if total == 0 {
            return;
        }
        let mut assigned = 0u64;
        remainders.clear();
        for (i, &p) in self.probs.iter().enumerate() {
            let exact = total as f64 * p;
            let floor = exact.floor() as u64;
            counts[i] = floor;
            assigned += floor;
            remainders.push((exact - floor as f64, i));
        }
        // Largest remainder; ties to the lower expert index. The order
        // is total, so the unstable sort needs no merge buffer.
        let remainder = (total - assigned) as usize;
        if remainder > 0 {
            remainders.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            for &(_, i) in remainders.iter().take(remainder) {
                counts[i] += 1;
            }
        }
    }

    /// Multinomial sampling via a chain of conditional binomials.
    pub fn route_sampled<R: Rng + ?Sized>(&self, rng: &mut R, tokens: u64) -> Vec<u64> {
        let mut counts = Vec::new();
        self.route_sampled_into(rng, tokens, &mut counts);
        counts
    }

    /// [`ExpertRouter::route_sampled`] writing into a reusable buffer
    /// (cleared and refilled; capacity kept).
    pub fn route_sampled_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        tokens: u64,
        counts: &mut Vec<u64>,
    ) {
        counts.clear();
        counts.resize(self.n_experts as usize, 0);
        if tokens == 0 {
            return;
        }
        let mut remaining = tokens * u64::from(self.top_k);
        let mut remaining_prob = 1.0f64;
        for (i, &p) in self.probs.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if i + 1 == self.probs.len() {
                counts[i] = remaining;
                break;
            }
            let cond = (p / remaining_prob).clamp(0.0, 1.0);
            let c = binomial(rng, remaining, cond);
            counts[i] = c;
            remaining -= c;
            remaining_prob -= p;
        }
    }
}

/// Sample `Binomial(n, p)`. Exact Bernoulli summation for small `n`,
/// normal approximation (Box–Muller) for large `n·p·(1-p)`.
fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let var = n as f64 * p * (1.0 - p);
    if n <= 256 || var < 100.0 {
        let mut c = 0u64;
        for _ in 0..n {
            if rng.random::<f64>() < p {
                c += 1;
            }
        }
        c
    } else {
        let mean = n as f64 * p;
        let std = var.sqrt();
        // Box–Muller.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = (mean + std * z).round();
        sample.clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD0_0D)
    }

    #[test]
    fn counts_sum_to_tokens_times_top_k() {
        let router = ExpertRouter::uniform(8, 2);
        let mut r = rng();
        for tokens in [0u64, 1, 7, 64, 1000, 100_000] {
            let counts = router.route(&mut r, tokens);
            assert_eq!(counts.iter().sum::<u64>(), tokens * 2, "tokens={tokens}");
            assert_eq!(counts.len(), 8);
        }
    }

    #[test]
    fn sampled_counts_conserve_tokens_too() {
        let router = ExpertRouter::uniform(8, 2).with_mode(RoutingMode::Sampled);
        let mut r = rng();
        for tokens in [0u64, 1, 7, 64, 1000, 100_000] {
            let counts = router.route(&mut r, tokens);
            assert_eq!(counts.iter().sum::<u64>(), tokens * 2, "tokens={tokens}");
        }
    }

    #[test]
    fn uniform_routing_is_roughly_balanced() {
        let router = ExpertRouter::uniform(8, 2).with_mode(RoutingMode::Sampled);
        let mut r = rng();
        let counts = router.route(&mut r, 400_000);
        let expected = 400_000.0 * 2.0 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "expert {i}: count {c} vs expected {expected}");
        }
    }

    #[test]
    fn uniform_default_is_the_closed_form() {
        let router = ExpertRouter::uniform(8, 2);
        assert_eq!(router.mode(), RoutingMode::Expected);
        let mut r = rng();
        // The RNG is untouched; counts are the exact expectation.
        let counts = router.route(&mut r, 100);
        assert_eq!(counts, vec![25u64; 8]);
        let again = router.route(&mut r, 100);
        assert_eq!(counts, again, "expected mode is deterministic");
    }

    #[test]
    fn expected_mode_matches_probabilities_with_remainders() {
        // 3 experts, top-1, 10 tokens: expectation 10/3 each; the
        // remainder lands on the lowest indices by the tie-break.
        let router = ExpertRouter::uniform(3, 1);
        let counts = router.route_expected(10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(counts, vec![4, 3, 3]);
    }

    /// The expected histogram from a fresh remainder list and a stable
    /// sort: the oracle for the buffered form.
    fn route_expected_allocating(router: &ExpertRouter, tokens: u64) -> Vec<u64> {
        let total = tokens * u64::from(router.top_k);
        let mut counts = vec![0u64; router.n_experts as usize];
        if total == 0 {
            return counts;
        }
        let mut assigned = 0u64;
        let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(router.probs.len());
        for (i, &p) in router.probs.iter().enumerate() {
            let exact = total as f64 * p;
            let floor = exact.floor() as u64;
            counts[i] = floor;
            assigned += floor;
            fracs.push((exact - floor as f64, i));
        }
        let remainder = (total - assigned) as usize;
        fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for &(_, i) in fracs.iter().take(remainder) {
            counts[i] += 1;
        }
        counts
    }

    #[test]
    fn buffered_expected_routing_matches_the_allocating_form() {
        // Shared buffers across every router and token count, as the
        // executor keeps them: stale contents must never leak through.
        let (mut counts, mut remainders) = (Vec::new(), Vec::new());
        for n_experts in 1..=64u32 {
            for skew in [0.0, 1.0] {
                for top_k in [1, 2.min(n_experts), n_experts] {
                    let router = ExpertRouter::zipf(n_experts, top_k, skew);
                    for tokens in (0..=300).chain([511, 1000, 4096, 65_537]) {
                        router.route_expected_into(tokens, &mut counts, &mut remainders);
                        assert_eq!(
                            counts,
                            route_expected_allocating(&router, tokens),
                            "{n_experts} experts, top-{top_k}, skew {skew}, {tokens} tokens"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expected_mode_tracks_skewed_probabilities() {
        let router = ExpertRouter::zipf(4, 1, 1.0).with_mode(RoutingMode::Expected);
        let counts = router.route_expected(10_000);
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        // p ~ 1/(i+1) normalized: 0.48, 0.24, 0.16, 0.12.
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        assert!((counts[0] as f64 - 4800.0).abs() < 5.0, "{counts:?}");
    }

    #[test]
    fn sampled_mean_converges_to_expected() {
        let router = ExpertRouter::zipf(8, 2, 0.8);
        assert_eq!(router.mode(), RoutingMode::Sampled);
        let expected = router.route_expected(4096);
        let mut r = rng();
        let mut mean = vec![0f64; 8];
        let reps = 200;
        for _ in 0..reps {
            for (m, c) in mean.iter_mut().zip(router.route_sampled(&mut r, 4096)) {
                *m += c as f64 / reps as f64;
            }
        }
        for (e, m) in expected.iter().zip(&mean) {
            let dev = (m - *e as f64).abs() / (*e as f64).max(1.0);
            assert!(dev < 0.05, "expected {e}, sampled mean {m}");
        }
    }

    #[test]
    fn zipf_concentrates_on_hot_experts() {
        let router = ExpertRouter::zipf(8, 2, 1.2);
        let mut r = rng();
        let counts = router.route(&mut r, 100_000);
        assert!(
            counts[0] > 3 * counts[7],
            "hot expert should dominate: {counts:?}"
        );
    }

    #[test]
    fn glam_scale_routing_stays_exact() {
        let router = ExpertRouter::uniform(64, 2).with_mode(RoutingMode::Sampled);
        let mut r = rng();
        let counts = router.route(&mut r, 2048 + 128);
        assert_eq!(counts.iter().sum::<u64>(), (2048 + 128) * 2);
        // With 64 experts and ~4300 selections most experts see tokens.
        let active = counts.iter().filter(|&&c| c > 0).count();
        assert!(active > 48, "{active} active experts");
    }

    #[test]
    fn binomial_edges() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
        let c = binomial(&mut r, 1_000_000, 0.5);
        assert!(c > 490_000 && c < 510_000, "got {c}");
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn top_k_validated() {
        ExpertRouter::uniform(4, 5);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn n_experts_validated() {
        ExpertRouter::uniform(0, 0);
    }
}

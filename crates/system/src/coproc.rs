//! Expert and attention co-processing (Sec. V-B).
//!
//! Expert FFNs have no data dependencies between them, and the gate
//! gives every expert a different token count. Duplex exploits both:
//! the experts with the fewest tokens (lowest Op/B) go to Logic-PIM,
//! the rest to the xPU, and the two process concurrently. The paper
//! picks each expert's unit from a latency lookup table indexed by
//! token count; the executor keeps that table per unit
//! (`exec.rs`'s expert price tables, filled on first use of a count by
//! the engines' roofline) and [`split_experts`] evaluates the same
//! family of splits — PIM takes a prefix of the token-count-sorted
//! expert list — exactly, which is optimal within that family because
//! PIM time grows and xPU time shrinks monotonically in the prefix
//! length. A split reads its costs through a closure and keeps its
//! order in caller-owned buffers, so it allocates nothing once those
//! have grown to the largest expert count.

/// Reusable buffers of [`split_experts`]: the experts in PIM-time
/// order and the suffix sums of their xPU times.
#[derive(Debug, Clone, Default)]
pub struct SplitScratch {
    order: Vec<usize>,
    xpu_suffix: Vec<f64>,
}

/// Outcome of splitting one device's experts between its two units;
/// borrows the expert order from the [`SplitScratch`] it was made in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpertSplit<'a> {
    /// Expert indices in ascending PIM time (ties by index); the first
    /// `pim_count` go to Logic-PIM.
    order: &'a [usize],
    pim_count: usize,
    /// Time Logic-PIM spends on its share, seconds.
    pub pim_seconds: f64,
    /// Time the xPU spends on its share, seconds.
    pub xpu_seconds: f64,
}

impl<'a> ExpertSplit<'a> {
    /// Indices (into the input list) assigned to Logic-PIM, in
    /// ascending PIM time.
    pub fn pim_experts(&self) -> &'a [usize] {
        &self.order[..self.pim_count]
    }

    /// Indices assigned to the xPU, in ascending PIM time.
    pub fn xpu_experts(&self) -> &'a [usize] {
        &self.order[self.pim_count..]
    }

    /// The concurrent makespan: max of the two sides.
    pub fn makespan(&self) -> f64 {
        self.pim_seconds.max(self.xpu_seconds)
    }
}

/// Choose the best split of `n` experts between Logic-PIM and the xPU.
///
/// `cost(i) = (pim_seconds_i, xpu_seconds_i)` must be the runtime of
/// expert `i` on each unit, typically read from the executor's
/// per-count price tables; it is called several times per expert and
/// must answer the same bits each time. Experts with fewer tokens
/// should have smaller times on both units; the algorithm sorts by PIM
/// time ascending (ties by index) and evaluates every prefix split,
/// returning the makespan-minimizing one.
///
/// Zero-token experts (zero cost on both units) land on the PIM side
/// harmlessly.
///
/// # Panics
///
/// Panics if a PIM time is NaN.
pub fn split_experts(
    n: usize,
    mut cost: impl FnMut(usize) -> (f64, f64),
    scratch: &mut SplitScratch,
) -> ExpertSplit<'_> {
    let SplitScratch { order, xpu_suffix } = scratch;
    order.clear();
    order.extend(0..n);
    // A total order (PIM time, then index), so the unstable sort lands
    // where a stable sort by PIM time would, without a merge buffer.
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (cost(a).0, cost(b).0);
        pa.partial_cmp(&pb)
            .expect("expert costs are finite")
            .then(a.cmp(&b))
    });

    // Suffix sums of xPU times in sorted order.
    xpu_suffix.clear();
    xpu_suffix.resize(n + 1, 0.0);
    for i in (0..n).rev() {
        xpu_suffix[i] = xpu_suffix[i + 1] + cost(order[i]).1;
    }

    let mut best_k = 0usize;
    let mut best_makespan = f64::INFINITY;
    let mut pim_prefix = 0.0f64;
    // k = number of experts (smallest first) on the PIM.
    for k in 0..=n {
        let makespan = pim_prefix.max(xpu_suffix[k]);
        if makespan < best_makespan {
            best_makespan = makespan;
            best_k = k;
        }
        if k < n {
            pim_prefix += cost(order[k]).0;
        }
    }

    let pim_seconds: f64 = order[..best_k].iter().map(|&i| cost(i).0).sum();
    let xpu_seconds: f64 = order[best_k..].iter().map(|&i| cost(i).1).sum();
    ExpertSplit {
        order,
        pim_count: best_k,
        pim_seconds,
        xpu_seconds,
    }
}

/// Brute-force optimal split over *all* 2^n partitions; test oracle for
/// small expert counts.
#[cfg(test)]
pub fn split_experts_exhaustive(costs: &[(f64, f64)]) -> f64 {
    let n = costs.len();
    assert!(n <= 20, "exhaustive split is exponential");
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        let mut pim = 0.0;
        let mut xpu = 0.0;
        for (i, c) in costs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                pim += c.0;
            } else {
                xpu += c.1;
            }
        }
        best = best.min(pim.max(xpu));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(costs: &[(f64, f64)]) -> (Vec<usize>, Vec<usize>, f64) {
        let mut scratch = SplitScratch::default();
        let s = split_experts(costs.len(), |i| costs[i], &mut scratch);
        (
            s.pim_experts().to_vec(),
            s.xpu_experts().to_vec(),
            s.makespan(),
        )
    }

    #[test]
    fn all_on_xpu_when_pim_is_useless() {
        // PIM so slow that everything should go to the xPU.
        let costs = vec![(100.0, 1.0), (100.0, 1.0)];
        let (pim, _, makespan) = split(&costs);
        assert!(pim.is_empty());
        assert!((makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_on_pim_when_pim_dominates() {
        let costs = vec![(1.0, 50.0), (1.0, 50.0)];
        let (_, xpu, makespan) = split(&costs);
        assert!(xpu.is_empty());
        assert!((makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_split_beats_either_extreme() {
        // Four equal experts, PIM twice as fast.
        let costs = vec![(1.0, 2.0); 4];
        let (_, _, makespan) = split(&costs);
        let all_pim = 4.0f64;
        let all_xpu = 8.0f64;
        assert!(makespan < all_pim.min(all_xpu));
        assert!((makespan - 3.0).abs() < 1e-9, "got {makespan}");
    }

    #[test]
    fn prefers_small_experts_on_pim() {
        // One hot expert (many tokens), three cold ones: the hot expert
        // belongs on the xPU (Sec. V-B).
        let costs = vec![(8.0, 1.0), (1.0, 0.9), (1.0, 0.9), (1.0, 0.9)];
        let (pim, xpu, _) = split(&costs);
        assert!(xpu.contains(&0), "hot expert on xPU: {pim:?} | {xpu:?}");
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(split(&[]).2, 0.0);
        assert!(
            (split(&[(2.0, 3.0)]).2 - 2.0).abs() < 1e-12,
            "single expert goes to faster unit"
        );
    }

    #[test]
    fn zero_cost_experts_are_harmless() {
        let costs = vec![(0.0, 0.0), (1.0, 2.0), (0.0, 0.0)];
        assert!((split(&costs).2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_exhaustive_oracle_when_costs_are_proportional() {
        // When per-expert PIM/xPU times are proportional (same shape,
        // different token counts), the sorted-prefix family contains an
        // optimal split; verify against brute force.
        let token_counts = [3.0, 1.0, 7.0, 2.0, 5.0, 1.0, 9.0, 4.0];
        let costs: Vec<(f64, f64)> = token_counts.iter().map(|&t| (t, 0.4 * t + 2.0)).collect();
        let fast = split(&costs).2;
        let oracle = split_experts_exhaustive(&costs);
        assert!(
            fast <= oracle * 1.10 + 1e-12,
            "prefix split {fast} should be within 10% of oracle {oracle}"
        );
    }

    #[test]
    fn makespan_never_worse_than_single_unit() {
        let costs = vec![(2.0, 1.5), (0.5, 3.0), (1.0, 1.0), (4.0, 2.5)];
        let makespan = split(&costs).2;
        let all_pim: f64 = costs.iter().map(|c| c.0).sum();
        let all_xpu: f64 = costs.iter().map(|c| c.1).sum();
        assert!(makespan <= all_pim + 1e-12);
        assert!(makespan <= all_xpu + 1e-12);
    }
}

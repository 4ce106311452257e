//! Synthetic workloads, matching the paper's setup (Sec. VI) plus the
//! scenario-suite arrival processes:
//! Gaussian-sampled input/output lengths (the paper reports the means),
//! uniform expert routing (handled in `duplex-model`), and an
//! [`Arrivals`] process — closed-loop refill, Poisson (the QPS
//! sweeps), Markov-modulated on/off bursts, diurnal rate curves, or
//! replay of a recorded [`crate::trace`] file.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::request::Request;
use crate::trace::TraceRequest;

/// Distribution of request shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Mean prompt length Lin.
    pub mean_input: u64,
    /// Mean response length Lout.
    pub mean_output: u64,
    /// Coefficient of variation (std/mean) of both lengths; 0 makes the
    /// workload deterministic.
    pub cv: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Workload {
    /// Gaussian lengths with the paper-style 10% coefficient of
    /// variation around the reported means.
    pub fn gaussian(mean_input: u64, mean_output: u64) -> Self {
        Self {
            mean_input,
            mean_output,
            cv: 0.10,
            seed: 0x5EED,
        }
    }

    /// Deterministic lengths (useful for tests and ablations).
    pub fn fixed(input: u64, output: u64) -> Self {
        Self {
            mean_input: input,
            mean_output: output,
            cv: 0.0,
            seed: 0x5EED,
        }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the coefficient of variation.
    pub fn with_cv(mut self, cv: f64) -> Self {
        assert!(cv >= 0.0, "cv must be non-negative");
        self.cv = cv;
        self
    }
}

/// The arrival process.
///
/// `ClosedLoop` and `Poisson` are the paper's two setups; the rest are
/// the scenario-suite processes: `Bursty` is an on/off Markov-modulated
/// Poisson process (exponential sojourns, two rates), `Diurnal` is a
/// non-homogeneous Poisson process with a sinusoidal rate curve
/// (sampled by thinning), and `Trace` replays a recorded arrival/shape
/// trace (see [`crate::trace`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// Infinite backlog: a finished request is immediately replaced at
    /// the next stage boundary (the paper's default).
    ClosedLoop,
    /// Open loop: Poisson arrivals at `qps` queries per second
    /// (the Fig. 13 setup).
    Poisson {
        /// Mean queries per second.
        qps: f64,
    },
    /// On/off Markov-modulated Poisson process: exponential sojourns in
    /// a quiet phase (`base_qps`, may be 0) and a burst phase
    /// (`burst_qps`).
    Bursty {
        /// Arrival rate in the quiet phase (>= 0).
        base_qps: f64,
        /// Arrival rate in the burst phase (> 0).
        burst_qps: f64,
        /// Mean quiet-phase duration in seconds.
        mean_off_s: f64,
        /// Mean burst duration in seconds.
        mean_on_s: f64,
    },
    /// Non-homogeneous Poisson with rate
    /// `mean_qps * (1 + amplitude * sin(2π t / period_s))`, the
    /// one-day-in-miniature load curve.
    Diurnal {
        /// Time-averaged queries per second.
        mean_qps: f64,
        /// Period of the rate curve in seconds.
        period_s: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
    },
    /// Replay recorded arrivals and request shapes in timestamp order.
    /// The workload's length distribution is ignored; drawing more
    /// requests than the trace holds panics.
    Trace {
        /// The recorded requests, sorted by arrival time.
        requests: Arc<Vec<TraceRequest>>,
    },
}

impl Arrivals {
    /// Check the process's parameters.
    ///
    /// # Panics
    ///
    /// Panics when an arrival rate is not positive (NaN included), a
    /// bursty phase duration is not positive, or a diurnal period or
    /// amplitude is out of range.
    pub(crate) fn validate(&self) {
        if let Arrivals::Poisson { qps } = self {
            assert!(*qps > 0.0, "qps must be positive");
        }
        if let Arrivals::Bursty {
            base_qps,
            burst_qps,
            mean_off_s,
            mean_on_s,
        } = self
        {
            assert!(*base_qps >= 0.0, "base_qps must be non-negative");
            assert!(*burst_qps > 0.0, "burst_qps must be positive");
            assert!(
                *mean_on_s > 0.0 && *mean_off_s > 0.0,
                "phase durations must be positive"
            );
        }
        if let Arrivals::Diurnal {
            mean_qps,
            period_s,
            amplitude,
        } = self
        {
            assert!(*mean_qps > 0.0, "mean_qps must be positive");
            assert!(*period_s > 0.0, "period must be positive");
            assert!(
                (0.0..=1.0).contains(amplitude),
                "amplitude must be in [0, 1]"
            );
        }
    }

    /// Trace replay over `requests` (sorted by arrival time on load).
    pub fn trace(requests: Vec<TraceRequest>) -> Self {
        let mut requests = requests;
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        Arrivals::Trace {
            requests: Arc::new(requests),
        }
    }
}

/// Stream of requests drawn from a [`Workload`] under an [`Arrivals`]
/// process.
#[derive(Debug)]
pub struct RequestSource {
    workload: Workload,
    arrivals: Arrivals,
    rng: StdRng,
    next_id: u64,
    clock: f64,
    /// Bursty state: currently in the burst phase, and when the current
    /// phase ends.
    burst_on: bool,
    phase_until: f64,
}

impl RequestSource {
    /// Create a source; request ids start at 0.
    ///
    /// # Panics
    ///
    /// Panics when an arrival rate is not positive (NaN included), a
    /// bursty phase duration is not positive, or a diurnal period or
    /// amplitude is out of range.
    pub fn new(workload: Workload, arrivals: Arrivals) -> Self {
        arrivals.validate();
        let mut rng = StdRng::seed_from_u64(workload.seed);
        // Bursty sources start in the quiet phase; draw its length now
        // so the first burst onset is seed-determined.
        let (burst_on, phase_until) = match &arrivals {
            Arrivals::Bursty { mean_off_s, .. } => (false, exp_sample(&mut rng, 1.0 / mean_off_s)),
            _ => (false, 0.0),
        };
        Self {
            workload,
            arrivals,
            rng,
            next_id: 0,
            clock: 0.0,
            burst_on,
            phase_until,
        }
    }

    /// Requests remaining when the source replays a finite trace;
    /// `None` for the unbounded synthetic processes.
    pub fn remaining(&self) -> Option<usize> {
        match &self.arrivals {
            Arrivals::Trace { requests } => {
                Some(requests.len().saturating_sub(self.next_id as usize))
            }
            _ => None,
        }
    }

    fn gaussian_len(&mut self, mean: u64) -> u64 {
        sample_len(&mut self.rng, mean, self.workload.cv)
    }

    /// Advance the clock to the next arrival of the on/off process.
    fn next_bursty_arrival(
        &mut self,
        base_qps: f64,
        burst_qps: f64,
        mean_off_s: f64,
        mean_on_s: f64,
    ) -> f64 {
        loop {
            let rate = if self.burst_on { burst_qps } else { base_qps };
            // Memorylessness lets us re-draw the gap after each phase
            // switch: if the candidate arrival lands inside the current
            // phase it stands, otherwise we jump to the phase boundary,
            // flip phases, and draw again at the new rate.
            let candidate = if rate > 0.0 {
                self.clock + exp_sample(&mut self.rng, rate)
            } else {
                f64::INFINITY
            };
            if candidate <= self.phase_until {
                self.clock = candidate;
                return candidate;
            }
            self.clock = self.phase_until;
            self.burst_on = !self.burst_on;
            let mean = if self.burst_on { mean_on_s } else { mean_off_s };
            self.phase_until += exp_sample(&mut self.rng, 1.0 / mean);
        }
    }

    /// Thinning sampler for the sinusoidal rate curve: candidates at
    /// the peak rate, accepted with probability `rate(t) / peak`.
    fn next_diurnal_arrival(&mut self, mean_qps: f64, period_s: f64, amplitude: f64) -> f64 {
        let peak = mean_qps * (1.0 + amplitude);
        loop {
            self.clock += exp_sample(&mut self.rng, peak);
            let rate = mean_qps
                * (1.0 + amplitude * (2.0 * std::f64::consts::PI * self.clock / period_s).sin());
            let u: f64 = self.rng.random();
            if u * peak <= rate {
                return self.clock;
            }
        }
    }

    /// Draw the next request. For closed-loop sources arrival time is
    /// 0 (always already waiting); for the open-loop processes the
    /// clock advances to the next arrival.
    ///
    /// # Panics
    ///
    /// Panics when a `Trace` source is drawn past the end of its trace.
    pub fn next_request(&mut self) -> Request {
        if let Arrivals::Trace { requests } = &self.arrivals {
            let i = self.next_id as usize;
            let entry = requests
                .get(i)
                .unwrap_or_else(|| panic!("trace exhausted after {i} requests"))
                .clone();
            let r = Request {
                id: self.next_id,
                arrival_s: entry.arrival_s,
                input_len: entry.input_len.max(1),
                output_len: entry.output_len.max(1),
            };
            self.next_id += 1;
            return r;
        }
        let arrival_s = match self.arrivals {
            Arrivals::ClosedLoop => 0.0,
            Arrivals::Poisson { qps } => {
                self.clock += exp_sample(&mut self.rng, qps);
                self.clock
            }
            Arrivals::Bursty {
                base_qps,
                burst_qps,
                mean_off_s,
                mean_on_s,
            } => self.next_bursty_arrival(base_qps, burst_qps, mean_off_s, mean_on_s),
            Arrivals::Diurnal {
                mean_qps,
                period_s,
                amplitude,
            } => self.next_diurnal_arrival(mean_qps, period_s, amplitude),
            Arrivals::Trace { .. } => unreachable!("handled above"),
        };
        let r = Request {
            id: self.next_id,
            arrival_s,
            input_len: self.gaussian_len(self.workload.mean_input),
            output_len: self.gaussian_len(self.workload.mean_output),
        };
        self.next_id += 1;
        r
    }

    /// Export the source's dynamic state for a snapshot: RNG words,
    /// next request id, arrival clock, and the bursty phase machine.
    /// The workload and arrival process are configuration and are
    /// reconstructed from the scenario on resume.
    pub(crate) fn export_state(&self) -> ([u64; 4], u64, f64, bool, f64) {
        (
            self.rng.state(),
            self.next_id,
            self.clock,
            self.burst_on,
            self.phase_until,
        )
    }

    /// Restore the dynamic state captured by
    /// [`export_state`](Self::export_state).
    pub(crate) fn import_state(
        &mut self,
        rng: [u64; 4],
        next_id: u64,
        clock: f64,
        burst_on: bool,
        phase_until: f64,
    ) {
        self.rng = StdRng::from_state(rng);
        self.next_id = next_id;
        self.clock = clock;
        self.burst_on = burst_on;
        self.phase_until = phase_until;
    }
}

/// One exponential sample at `rate` (mean `1/rate`).
pub(crate) fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

/// One Gaussian length sample around `mean` with coefficient of
/// variation `cv`, clamped to `[mean/4, 2*mean]` so a tail draw cannot
/// dominate a run; `cv == 0` is deterministic. Shared by the request
/// source and the scenario scheduler's follow-up generator.
pub(crate) fn sample_len(rng: &mut StdRng, mean: u64, cv: f64) -> u64 {
    if cv == 0.0 {
        return mean.max(1);
    }
    let std = cv * mean as f64;
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let sample = mean as f64 + std * z;
    sample
        .clamp(mean as f64 * 0.25, mean as f64 * 2.0)
        .round()
        .max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_workload_is_deterministic() {
        let mut s = RequestSource::new(Workload::fixed(128, 32), Arrivals::ClosedLoop);
        for _ in 0..10 {
            let r = s.next_request();
            assert_eq!(r.input_len, 128);
            assert_eq!(r.output_len, 32);
            assert_eq!(r.arrival_s, 0.0);
        }
    }

    #[test]
    fn gaussian_lengths_center_on_mean() {
        let mut s = RequestSource::new(Workload::gaussian(1000, 500), Arrivals::ClosedLoop);
        let n = 4000;
        let (mut in_sum, mut out_sum) = (0u64, 0u64);
        for _ in 0..n {
            let r = s.next_request();
            in_sum += r.input_len;
            out_sum += r.output_len;
            assert!(r.input_len >= 250 && r.input_len <= 2000);
        }
        let in_mean = in_sum as f64 / n as f64;
        let out_mean = out_sum as f64 / n as f64;
        assert!((in_mean - 1000.0).abs() < 20.0, "got {in_mean}");
        assert!((out_mean - 500.0).abs() < 10.0, "got {out_mean}");
    }

    #[test]
    fn poisson_rate_matches_qps() {
        let mut s = RequestSource::new(
            Workload::fixed(64, 16).with_seed(9),
            Arrivals::Poisson { qps: 8.0 },
        );
        let n = 8000;
        let mut last = 0.0;
        for _ in 0..n {
            last = s.next_request().arrival_s;
        }
        let rate = n as f64 / last;
        assert!((rate - 8.0).abs() < 0.4, "got {rate}");
    }

    #[test]
    fn arrivals_are_monotone() {
        for arrivals in [
            Arrivals::Poisson { qps: 2.0 },
            Arrivals::Bursty {
                base_qps: 0.5,
                burst_qps: 20.0,
                mean_off_s: 4.0,
                mean_on_s: 1.0,
            },
            Arrivals::Diurnal {
                mean_qps: 3.0,
                period_s: 60.0,
                amplitude: 0.8,
            },
        ] {
            let mut s = RequestSource::new(Workload::fixed(64, 16), arrivals.clone());
            let mut prev = -1.0;
            for _ in 0..200 {
                let a = s.next_request().arrival_s;
                assert!(a >= prev, "{arrivals:?}");
                prev = a;
            }
        }
    }

    #[test]
    fn ids_are_sequential() {
        let mut s = RequestSource::new(Workload::fixed(1, 1), Arrivals::ClosedLoop);
        for expect in 0..5u64 {
            assert_eq!(s.next_request().id, expect);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let w = Workload::gaussian(512, 512).with_seed(42);
        let mut a = RequestSource::new(w.clone(), Arrivals::ClosedLoop);
        let mut b = RequestSource::new(w, Arrivals::ClosedLoop);
        for _ in 0..20 {
            let (ra, rb) = (a.next_request(), b.next_request());
            assert_eq!(ra.input_len, rb.input_len);
            assert_eq!(ra.output_len, rb.output_len);
        }
    }

    #[test]
    fn bursty_long_run_rate_sits_between_phase_rates() {
        let arr = Arrivals::Bursty {
            base_qps: 1.0,
            burst_qps: 50.0,
            mean_off_s: 5.0,
            mean_on_s: 5.0,
        };
        let mut s = RequestSource::new(Workload::fixed(8, 4).with_seed(3), arr);
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = s.next_request().arrival_s;
        }
        // Expected long-run rate: time-weighted mean of the phase rates
        // (equal sojourns here), 25.5 qps.
        let rate = n as f64 / last;
        assert!(rate > 15.0 && rate < 35.0, "got {rate}");
    }

    #[test]
    fn bursty_produces_distinct_phases() {
        // With a silent quiet phase, gaps cluster: short ones inside
        // bursts, long ones spanning quiet phases.
        let arr = Arrivals::Bursty {
            base_qps: 0.0,
            burst_qps: 100.0,
            mean_off_s: 2.0,
            mean_on_s: 0.5,
        };
        let mut s = RequestSource::new(Workload::fixed(8, 4).with_seed(11), arr);
        let mut prev = 0.0;
        let (mut short, mut long) = (0u32, 0u32);
        for _ in 0..2000 {
            let a = s.next_request().arrival_s;
            let gap = a - prev;
            prev = a;
            if gap < 0.1 {
                short += 1;
            } else if gap > 0.5 {
                long += 1;
            }
        }
        assert!(short > 1500, "burst gaps dominate: {short}");
        assert!(long > 10, "quiet-phase gaps visible: {long}");
    }

    #[test]
    fn diurnal_mean_rate_matches_and_oscillates() {
        let arr = Arrivals::Diurnal {
            mean_qps: 10.0,
            period_s: 100.0,
            amplitude: 0.9,
        };
        let mut s = RequestSource::new(Workload::fixed(8, 4).with_seed(5), arr);
        let n = 20_000usize;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            arrivals.push(s.next_request().arrival_s);
        }
        let span = arrivals[n - 1];
        let rate = n as f64 / span;
        assert!((rate - 10.0).abs() < 1.0, "mean rate {rate}");
        // Count arrivals in the peak vs trough quarter of each period:
        // peak quarter is centered on t = period/4, trough on 3/4.
        let (mut peak, mut trough) = (0u32, 0u32);
        for &a in &arrivals {
            let phase = (a / 100.0).fract();
            if (0.125..0.375).contains(&phase) {
                peak += 1;
            } else if (0.625..0.875).contains(&phase) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 2.5 * trough as f64,
            "peak {peak} vs trough {trough} arrivals"
        );
    }

    #[test]
    fn trace_replays_shapes_in_order() {
        let trace = vec![
            TraceRequest {
                arrival_s: 0.5,
                input_len: 100,
                output_len: 10,
            },
            TraceRequest {
                arrival_s: 0.1,
                input_len: 200,
                output_len: 20,
            },
            TraceRequest {
                arrival_s: 0.9,
                input_len: 300,
                output_len: 30,
            },
        ];
        let mut s = RequestSource::new(Workload::fixed(1, 1), Arrivals::trace(trace));
        assert_eq!(s.remaining(), Some(3));
        let a = s.next_request();
        assert_eq!((a.arrival_s, a.input_len, a.output_len), (0.1, 200, 20));
        let b = s.next_request();
        assert_eq!((b.arrival_s, b.input_len), (0.5, 100));
        let c = s.next_request();
        assert_eq!(c.arrival_s, 0.9);
        assert_eq!(s.remaining(), Some(0));
    }

    #[test]
    #[should_panic(expected = "trace exhausted")]
    fn trace_overdraw_panics() {
        let trace = vec![TraceRequest {
            arrival_s: 0.0,
            input_len: 8,
            output_len: 2,
        }];
        let mut s = RequestSource::new(Workload::fixed(1, 1), Arrivals::trace(trace));
        s.next_request();
        s.next_request();
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn zero_poisson_rate_fails_at_construction() {
        RequestSource::new(Workload::fixed(8, 2), Arrivals::Poisson { qps: 0.0 });
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn nan_poisson_rate_fails_at_construction() {
        RequestSource::new(Workload::fixed(8, 2), Arrivals::Poisson { qps: f64::NAN });
    }
}

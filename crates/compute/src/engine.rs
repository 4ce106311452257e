//! Kernel pricing: roofline timing over calibrated sustained bandwidth,
//! plus DRAM and compute energy.
//!
//! An [`Engine`] binds an [`EngineSpec`] to the sustained bandwidth its
//! access path achieves on the calibrated HBM3 stack (from
//! [`duplex_hbm::BandwidthProfile`]) and prices [`Kernel`]s:
//!
//! ```text
//! time  = max(flops / effective_flops(m), dram_bytes / sustained_bw)
//!         + launch_overhead
//! energy = dram(path, bytes) + pj_per_flop(kind) * flops
//! ```
//!
//! This is the analytic steady-state of the command-level engine — the
//! same quantity the paper's Ramulator backend converges to for the
//! multi-megabyte streams that dominate LLM layers.

use std::sync::OnceLock;

use duplex_hbm::{BandwidthProfile, DramEnergyModel, EnergyBreakdown, HbmGeometry, HbmTiming};

use crate::energy::ComputeEnergy;
use crate::kernel::{GemmShape, Kernel};
use crate::spec::EngineSpec;

/// The calibrated bandwidth profile for the default HBM3 stack, shared
/// process-wide (calibration replays several megabytes of DRAM commands
/// per access path; doing that once is plenty).
pub fn default_profile() -> &'static BandwidthProfile {
    static PROFILE: OnceLock<BandwidthProfile> = OnceLock::new();
    PROFILE
        .get_or_init(|| BandwidthProfile::calibrate(&HbmGeometry::hbm3_8hi(), &HbmTiming::hbm3()))
}

/// Cost of running one or more kernels on an engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// DRAM energy.
    pub dram_energy: EnergyBreakdown,
    /// Compute (arithmetic + local SRAM) energy in joules.
    pub compute_j: f64,
}

impl KernelCost {
    /// A zero cost.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total joules, DRAM plus compute.
    pub fn total_energy_j(&self) -> f64 {
        self.dram_energy.total_j() + self.compute_j
    }

    /// Combine with a cost incurred *after* this one (times add).
    pub fn then(self, later: KernelCost) -> KernelCost {
        KernelCost {
            seconds: self.seconds + later.seconds,
            dram_energy: self.dram_energy + later.dram_energy,
            compute_j: self.compute_j + later.compute_j,
        }
    }

    /// Combine with a cost incurred *concurrently* on other hardware
    /// (times max, energies add).
    pub fn alongside(self, other: KernelCost) -> KernelCost {
        KernelCost {
            seconds: self.seconds.max(other.seconds),
            dram_energy: self.dram_energy + other.dram_energy,
            compute_j: self.compute_j + other.compute_j,
        }
    }

    /// The cost of `by` identical instances of this work (seconds and
    /// every energy component scale linearly).
    pub fn scaled(self, by: f64) -> KernelCost {
        KernelCost {
            seconds: self.seconds * by,
            dram_energy: duplex_hbm::EnergyBreakdown {
                activation_j: self.dram_energy.activation_j * by,
                transfer_j: self.dram_energy.transfer_j * by,
            },
            compute_j: self.compute_j * by,
        }
    }
}

impl std::ops::Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: KernelCost) -> KernelCost {
        self.then(rhs)
    }
}

impl std::ops::AddAssign for KernelCost {
    fn add_assign(&mut self, rhs: KernelCost) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for KernelCost {
    fn sum<I: Iterator<Item = KernelCost>>(iter: I) -> KernelCost {
        iter.fold(KernelCost::zero(), |a, b| a + b)
    }
}

/// A processing unit bound to its memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct Engine {
    spec: EngineSpec,
    bytes_per_sec: f64,
    /// Cached reciprocal: memory time is `bytes * inv_bytes_per_sec`
    /// (multiplication instead of division on the hot pricing path).
    inv_bytes_per_sec: f64,
    activations_per_byte: f64,
    dram: DramEnergyModel,
    compute_energy: ComputeEnergy,
}

impl Engine {
    /// Build an engine from a spec and a calibrated profile for a device
    /// with `stacks` HBM stacks.
    pub fn from_profile(spec: EngineSpec, profile: &BandwidthProfile, stacks: u32) -> Self {
        let path = spec.kind.access_path();
        let bytes_per_sec = profile.device_bytes_per_sec(path, stacks);
        Self {
            spec,
            bytes_per_sec,
            inv_bytes_per_sec: bytes_per_sec.recip(),
            activations_per_byte: profile.activations_per_byte(path),
            dram: DramEnergyModel::default(),
            compute_energy: ComputeEnergy::default(),
        }
    }

    /// H100-class xPU on a five-stack, 80 GB device.
    pub fn h100_xpu() -> Self {
        Self::from_profile(EngineSpec::h100_xpu(), default_profile(), 5)
    }

    /// Logic-PIM on a five-stack device (4x internal bandwidth,
    /// 106.5 TFLOPS).
    pub fn logic_pim() -> Self {
        Self::from_profile(EngineSpec::logic_pim(5), default_profile(), 5)
    }

    /// Bank-PIM baseline on a five-stack device.
    pub fn bank_pim() -> Self {
        Self::from_profile(EngineSpec::bank_pim(5), default_profile(), 5)
    }

    /// BankGroup-PIM baseline on a five-stack device.
    pub fn bank_group_pim() -> Self {
        Self::from_profile(EngineSpec::bank_group_pim(5), default_profile(), 5)
    }

    /// The engine's specification.
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// Sustained DRAM bandwidth in bytes/s at device scope.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Price a GEMM that streams `dram_bytes` from memory.
    pub fn gemm_cost(&self, shape: GemmShape, dram_bytes: u64) -> KernelCost {
        self.kernel_cost(&Kernel::Gemm { shape, dram_bytes })
    }

    /// Price a GEMM without the per-kernel launch overhead. Use this
    /// when many small operations are dispatched as one fused/batched
    /// kernel (per-request attention within a layer, grouped expert
    /// GEMMs) and add the overhead once at the batch level.
    pub fn gemm_cost_amortized(&self, shape: GemmShape, dram_bytes: u64) -> KernelCost {
        self.without_overhead(
            self.gemm_cost(shape, dram_bytes),
            shape.m * shape.n * shape.k,
        )
    }

    /// Price one kernel without the launch overhead (see
    /// [`Engine::gemm_cost_amortized`]).
    pub fn kernel_cost_amortized(&self, kernel: &Kernel) -> KernelCost {
        self.without_overhead(self.kernel_cost(kernel), Self::amortizable_work(kernel))
    }

    fn amortizable_work(kernel: &Kernel) -> u64 {
        match kernel {
            Kernel::Gemm { shape, .. } => shape.m * shape.n * shape.k,
            Kernel::Stream { bytes, .. } => *bytes,
            // Softmax / elementwise never carry overhead.
            _ => 0,
        }
    }

    fn without_overhead(&self, mut cost: KernelCost, work: u64) -> KernelCost {
        if work > 0 {
            cost.seconds = (cost.seconds - self.spec.launch_overhead_s).max(0.0);
        }
        cost
    }

    /// Price one kernel: roofline time plus DRAM and compute energy.
    pub fn kernel_cost(&self, kernel: &Kernel) -> KernelCost {
        match kernel {
            Kernel::Gemm { shape, dram_bytes } => {
                if shape.m == 0 || shape.n == 0 || shape.k == 0 {
                    return KernelCost::zero();
                }
                let compute_s = shape.flops() / self.spec.effective_flops(shape.m);
                let memory_s = *dram_bytes as f64 * self.inv_bytes_per_sec;
                let seconds = compute_s.max(memory_s) + self.spec.launch_overhead_s;
                KernelCost {
                    seconds,
                    dram_energy: self.dram.read_energy(
                        self.spec.kind.access_path(),
                        *dram_bytes,
                        self.activations_per_byte,
                    ),
                    compute_j: self.compute_energy.energy_j(self.spec.kind, shape.flops()),
                }
            }
            Kernel::Softmax { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return KernelCost::zero();
                }
                // Softmax runs on the vector/softmax units at a few
                // percent of peak; it is fused, so no DRAM traffic.
                let softmax_flops = self.spec.peak_flops * 0.04;
                KernelCost {
                    seconds: kernel.flops() / softmax_flops,
                    dram_energy: EnergyBreakdown::default(),
                    compute_j: self.compute_energy.energy_j(self.spec.kind, kernel.flops()),
                }
            }
            Kernel::Elementwise { elems } => {
                if *elems == 0 {
                    return KernelCost::zero();
                }
                let vector_flops = self.spec.peak_flops * 0.05;
                KernelCost {
                    seconds: kernel.flops() / vector_flops,
                    dram_energy: EnergyBreakdown::default(),
                    compute_j: self.compute_energy.energy_j(self.spec.kind, kernel.flops()),
                }
            }
            Kernel::Stream { bytes, write } => {
                if *bytes == 0 {
                    return KernelCost::zero();
                }
                let seconds = *bytes as f64 * self.inv_bytes_per_sec + self.spec.launch_overhead_s;
                let path = self.spec.kind.access_path();
                let dram_energy = if *write {
                    self.dram
                        .write_energy(path, *bytes, self.activations_per_byte)
                } else {
                    self.dram
                        .read_energy(path, *bytes, self.activations_per_byte)
                };
                KernelCost {
                    seconds,
                    dram_energy,
                    compute_j: 0.0,
                }
            }
        }
    }

    /// Precompute the linear pricing coefficients for a *family* of
    /// amortized GEMMs that share the activation row count `m` on this
    /// engine (engine efficiency depends only on `m`). Within the
    /// family, time and energy are linear in FLOPs and DRAM bytes, so
    /// [`AmortizedGemmPricer::price`] is a handful of multiplies — the
    /// grouped-attention hot loop prices one group per distinct context
    /// with it. Results match [`Engine::kernel_cost_amortized`]
    /// to floating-point associativity (~1 ulp).
    pub fn amortized_gemm_pricer(&self, m: u64) -> AmortizedGemmPricer {
        let unit =
            self.dram
                .read_energy(self.spec.kind.access_path(), 1, self.activations_per_byte);
        AmortizedGemmPricer {
            inv_eff_flops: self.spec.effective_flops(m).recip(),
            inv_bytes_per_sec: self.inv_bytes_per_sec,
            act_j_per_byte: unit.activation_j,
            transfer_j_per_byte: unit.transfer_j,
            compute_j_per_flop: self.compute_j_per_flop(),
        }
    }

    /// Reciprocal of the softmax unit's sustained FLOP/s (softmax time
    /// is `flops * inv`; fused, no DRAM traffic).
    pub fn softmax_inv_flops(&self) -> f64 {
        (self.spec.peak_flops * 0.04).recip()
    }

    /// Joules per FLOP on this engine's compute pipeline.
    pub fn compute_j_per_flop(&self) -> f64 {
        self.compute_energy.pj_per_flop(self.spec.kind) * 1e-12
    }
}

/// Linear pricing coefficients for one amortized-GEMM family (see
/// [`Engine::amortized_gemm_pricer`]).
#[derive(Debug, Clone, Copy)]
pub struct AmortizedGemmPricer {
    inv_eff_flops: f64,
    inv_bytes_per_sec: f64,
    act_j_per_byte: f64,
    transfer_j_per_byte: f64,
    compute_j_per_flop: f64,
}

impl AmortizedGemmPricer {
    /// Price one GEMM of the family: roofline seconds (launch overhead
    /// amortized away) plus DRAM and compute energy.
    #[inline]
    pub fn price(&self, flops: f64, dram_bytes: u64) -> KernelCost {
        let b = dram_bytes as f64;
        KernelCost {
            seconds: (flops * self.inv_eff_flops).max(b * self.inv_bytes_per_sec),
            dram_energy: EnergyBreakdown {
                activation_j: b * self.act_j_per_byte,
                transfer_j: b * self.transfer_j_per_byte,
            },
            compute_j: flops * self.compute_j_per_flop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineKind;

    #[test]
    fn decode_gemm_is_memory_bound_on_xpu() {
        // Batch-8 expert GEMM: Op/B 8 << the xPU's machine balance
        // (989 TFLOPS / 3.3 TB/s ~ 300).
        let xpu = Engine::h100_xpu();
        let shape = GemmShape {
            m: 8,
            n: 14336,
            k: 4096,
        };
        let bytes = shape.weight_bytes(2);
        let cost = xpu.gemm_cost(shape, bytes);
        let memory_s = bytes as f64 / xpu.bytes_per_sec();
        assert!((cost.seconds - memory_s - xpu.spec().launch_overhead_s).abs() < memory_s * 0.01);
    }

    #[test]
    fn prefill_gemm_is_compute_bound_on_logic_pim() {
        // 2048 prefill tokens: Op/B 2048 >> Logic-PIM's balance of 8.
        let pim = Engine::logic_pim();
        let shape = GemmShape {
            m: 2048,
            n: 14336,
            k: 4096,
        };
        let bytes = shape.weight_bytes(2);
        let cost = pim.gemm_cost(shape, bytes);
        let compute_s = shape.flops() / pim.spec().effective_flops(shape.m);
        assert!((cost.seconds - compute_s - pim.spec().launch_overhead_s).abs() < compute_s * 0.01);
    }

    #[test]
    fn pim_wins_low_op_b_xpu_wins_high_op_b() {
        let xpu = Engine::h100_xpu();
        let pim = Engine::logic_pim();
        let low = GemmShape {
            m: 4,
            n: 14336,
            k: 4096,
        };
        let high = GemmShape {
            m: 4096,
            n: 14336,
            k: 4096,
        };
        assert!(
            pim.gemm_cost(low, low.weight_bytes(2)).seconds
                < xpu.gemm_cost(low, low.weight_bytes(2)).seconds
        );
        assert!(
            xpu.gemm_cost(high, high.weight_bytes(2)).seconds
                < pim.gemm_cost(high, high.weight_bytes(2)).seconds
        );
    }

    #[test]
    fn crossover_sits_between_pim_and_xpu_balance() {
        // The Op/B at which xPU catches Logic-PIM must lie between
        // Logic-PIM's machine balance (~8, where PIM goes compute-bound)
        // and the xPU's (~300).
        let xpu = Engine::h100_xpu();
        let pim = Engine::logic_pim();
        let mut crossover = None;
        for m in 1..4096u64 {
            let g = GemmShape {
                m,
                n: 16384,
                k: 4096,
            };
            let b = g.weight_bytes(2);
            if xpu.gemm_cost(g, b).seconds <= pim.gemm_cost(g, b).seconds {
                crossover = Some(m);
                break;
            }
        }
        let m = crossover.expect("xPU must eventually win");
        assert!(m > 8 && m < 320, "crossover at Op/B ~ {m}");
    }

    #[test]
    fn zero_work_costs_nothing() {
        let xpu = Engine::h100_xpu();
        assert_eq!(
            xpu.gemm_cost(
                GemmShape {
                    m: 0,
                    n: 4096,
                    k: 4096
                },
                0
            ),
            KernelCost::zero()
        );
        assert_eq!(
            xpu.kernel_cost(&Kernel::Softmax { rows: 0, cols: 64 }),
            KernelCost::zero()
        );
        assert_eq!(
            xpu.kernel_cost(&Kernel::Elementwise { elems: 0 }),
            KernelCost::zero()
        );
        assert_eq!(
            xpu.kernel_cost(&Kernel::Stream {
                bytes: 0,
                write: true
            }),
            KernelCost::zero()
        );
    }

    #[test]
    fn costs_compose() {
        let xpu = Engine::h100_xpu();
        let g = GemmShape {
            m: 16,
            n: 4096,
            k: 4096,
        };
        let one = xpu.gemm_cost(g, g.weight_bytes(2));
        let kernels = [
            Kernel::Gemm {
                shape: g,
                dram_bytes: g.weight_bytes(2),
            },
            Kernel::Gemm {
                shape: g,
                dram_bytes: g.weight_bytes(2),
            },
        ];
        let two: KernelCost = kernels.iter().map(|k| xpu.kernel_cost(k)).sum();
        assert!((two.seconds - 2.0 * one.seconds).abs() < 1e-12);
        assert!((two.total_energy_j() - 2.0 * one.total_energy_j()).abs() < 1e-12);
    }

    #[test]
    fn scaled_multiplies_every_component() {
        let xpu = Engine::h100_xpu();
        let g = GemmShape {
            m: 16,
            n: 4096,
            k: 4096,
        };
        let one = xpu.gemm_cost(g, g.weight_bytes(2));
        let three = one.scaled(3.0);
        assert!((three.seconds - 3.0 * one.seconds).abs() < 1e-15);
        assert!((three.total_energy_j() - 3.0 * one.total_energy_j()).abs() < 1e-12);
    }

    #[test]
    fn alongside_takes_max_time_and_sums_energy() {
        let a = KernelCost {
            seconds: 2.0,
            dram_energy: Default::default(),
            compute_j: 1.0,
        };
        let b = KernelCost {
            seconds: 3.0,
            dram_energy: Default::default(),
            compute_j: 2.0,
        };
        let c = a.alongside(b);
        assert_eq!(c.seconds, 3.0);
        assert_eq!(c.compute_j, 3.0);
    }

    #[test]
    fn engine_kinds_price_energy_differently() {
        let xpu = Engine::h100_xpu();
        let pim = Engine::logic_pim();
        let g = GemmShape {
            m: 64,
            n: 4096,
            k: 4096,
        };
        let b = g.weight_bytes(2);
        let ex = xpu.gemm_cost(g, b);
        let ep = pim.gemm_cost(g, b);
        assert!(
            ep.total_energy_j() < ex.total_energy_j(),
            "PIM path must save energy"
        );
        assert_eq!(xpu.spec().kind, EngineKind::Xpu);
    }

    /// One kernel of each kind, priced both plainly and amortized.
    fn priced_bits(engine: &Engine) -> Vec<String> {
        let kernels = [
            Kernel::Gemm {
                shape: GemmShape {
                    m: 4,
                    n: 4096,
                    k: 4096,
                },
                dram_bytes: 1 << 24,
            },
            Kernel::Softmax {
                rows: 128,
                cols: 2048,
            },
            Kernel::Elementwise { elems: 1 << 20 },
            Kernel::Stream {
                bytes: 1 << 22,
                write: true,
            },
        ];
        kernels
            .iter()
            .flat_map(|k| [engine.kernel_cost(k), engine.kernel_cost_amortized(k)])
            .map(|c| format!("{c:?}"))
            .collect()
    }

    #[test]
    fn repeated_pricings_are_bit_identical() {
        let xpu = Engine::h100_xpu();
        let first = priced_bits(&xpu);
        for _ in 0..10 {
            assert_eq!(priced_bits(&xpu), first, "a repeat pricing changed bits");
        }
    }

    #[test]
    fn cloned_engines_price_identically() {
        for engine in [Engine::h100_xpu(), Engine::logic_pim(), Engine::bank_pim()] {
            let first = priced_bits(&engine);
            assert_eq!(
                priced_bits(&engine.clone()),
                first,
                "a clone prices differently"
            );
        }
    }

    #[test]
    fn family_pricer_matches_generic_amortized_pricing() {
        for engine in [Engine::h100_xpu(), Engine::logic_pim(), Engine::bank_pim()] {
            let m = 32u64;
            let pricer = engine.amortized_gemm_pricer(m);
            for ctx in [1u64, 17, 512, 4096, 100_000] {
                let shape = GemmShape { m, n: ctx, k: 128 };
                let bytes = 2 * ctx * 128 * 8;
                let fast = pricer.price(shape.flops(), bytes);
                let generic = engine.kernel_cost_amortized(&Kernel::Gemm {
                    shape,
                    dram_bytes: bytes,
                });
                let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-300);
                assert!(
                    rel(fast.seconds, generic.seconds) < 1e-9,
                    "seconds at ctx {ctx}"
                );
                assert!(
                    rel(fast.total_energy_j(), generic.total_energy_j()) < 1e-9,
                    "energy at ctx {ctx}"
                );
            }
        }
    }

    #[test]
    fn stream_write_costs_more_energy_than_read() {
        let pim = Engine::logic_pim();
        let r = pim.kernel_cost(&Kernel::Stream {
            bytes: 1 << 20,
            write: false,
        });
        let w = pim.kernel_cost(&Kernel::Stream {
            bytes: 1 << 20,
            write: true,
        });
        assert!(w.total_energy_j() > r.total_energy_j());
        assert_eq!(w.seconds, r.seconds);
    }
}

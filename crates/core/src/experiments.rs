//! Parameter sweeps that regenerate every table and figure of the
//! paper's evaluation. The `duplex-bench` binaries print these; the
//! functions here return structured rows so tests and notebooks can
//! consume them too.
//!
//! Each function documents which figure it reproduces and the workload
//! behind it. Absolute numbers will not match the authors' testbed —
//! the substrate is a model, not their silicon — but the *shape* (who
//! wins, by what factor, where crossovers fall) is the reproduction
//! target, and `tests/integration_paper_claims.rs` pins it.
//!
//! Sweeps are embarrassingly parallel — every sweep point builds its
//! own [`SystemExecutor`] — so each driver fans its points out with
//! rayon and collects rows in deterministic input order. Results are
//! identical to a serial run: executors are seeded per point and the
//! default expected-value expert routing is deterministic.

use rayon::prelude::*;

use duplex_compute::kernel::GemmShape;
use duplex_compute::{AreaModel, Edap, Engine};
use duplex_model::ops::StageShape;
use duplex_model::ModelConfig;
use duplex_sched::{
    Arrivals, AutoscalePolicy, ClusterContext, ClusterReport, ClusterSimulation, ConversationSpec,
    DisaggPlan, FaultEvent, FaultKind, FaultPlan, KvLinkSpec, LatencySummary, PolicyKind,
    ReplicaConfig, RequestSource, Router, RouterKind, Scenario, ScenarioSimulation,
    SchedulingPolicy, SimReport, SimulationConfig, TraceRequest, Workload,
};
use duplex_system::{CommModel, SystemConfig, SystemExecutor};

use crate::{run, RunConfig, RunResult};

/// Controls how much work the sweeps do. [`Scale::paper`] runs the
/// paper's sizes; [`Scale::quick`] shrinks sequence lengths and request
/// counts for CI and smoke tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Sequence lengths are divided by this factor.
    pub shrink: u64,
    /// Requests simulated per unit of batch size.
    pub requests_per_batch: f64,
    /// Extra stages beyond the expected decode count before truncation.
    pub stage_slack: usize,
}

impl Scale {
    /// Full paper-sized sweeps (well under a second of wall clock for
    /// all of `run_all --paper` in release mode).
    pub fn paper() -> Self {
        Self {
            shrink: 1,
            requests_per_batch: 1.25,
            stage_slack: 300,
        }
    }

    /// Shrunk sweeps for tests (seconds of wall clock).
    pub fn quick() -> Self {
        Self {
            shrink: 8,
            requests_per_batch: 1.0,
            stage_slack: 64,
        }
    }

    /// A sequence length at this scale (floor of 8 tokens).
    pub fn len(&self, tokens: u64) -> u64 {
        (tokens / self.shrink).max(8)
    }

    /// Requests to simulate for a batch size at this scale.
    pub fn requests(&self, batch: usize) -> usize {
        ((batch as f64 * self.requests_per_batch).ceil() as usize).max(batch + 1)
    }

    fn run_config(
        &self,
        model: ModelConfig,
        system: SystemConfig,
        lin: u64,
        lout: u64,
        batch: usize,
    ) -> RunConfig {
        let lin = self.len(lin);
        let lout = self.len(lout);
        let mut cfg = RunConfig::closed_loop(
            model,
            system,
            Workload::gaussian(lin, lout),
            batch,
            self.requests(batch),
        );
        cfg.max_stages = lout as usize * 2 + self.stage_slack;
        cfg
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::paper()
    }
}

// ---------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Model name.
    pub name: String,
    /// Parameter count in billions.
    pub params_b: f64,
    /// Decoder blocks.
    pub layers: u32,
    /// Hidden dimension.
    pub hidden: u64,
    /// FFN intermediate dimension.
    pub intermediate: u64,
    /// Attention heads.
    pub heads: u32,
    /// GQA group degree (1 = MHA).
    pub deg_grp: u32,
    /// Experts per MoE layer (0 = dense).
    pub n_experts: u32,
    /// Experts chosen per token.
    pub top_k: u32,
    /// KV bytes per token of context.
    pub kv_bytes_per_token: u64,
}

/// Table I: the evaluated model configurations.
pub fn table1() -> Vec<ModelRow> {
    ModelConfig::table1()
        .into_iter()
        .map(|m| ModelRow {
            params_b: m.param_count() as f64 / 1e9,
            layers: m.n_layers,
            hidden: m.hidden,
            intermediate: m.intermediate,
            heads: m.n_heads,
            deg_grp: m.deg_grp,
            n_experts: m.n_experts,
            top_k: m.top_k,
            kv_bytes_per_token: m.kv_bytes_per_token(),
            name: m.name,
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 4

/// One bar of Fig. 4(a): normalized execution-time breakdown of a stage
/// on the GPU system.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Response length Lout the stage sits in the middle of.
    pub lout: u64,
    /// Mixed or decoding-only stage.
    pub mixed: bool,
    /// Fractions summing to 1: FC, attention (prefill), attention
    /// (decode), MoE, communication.
    pub fractions: [f64; 5],
    /// Absolute stage seconds.
    pub seconds: f64,
}

/// Fig. 4(a): execution-time breakdown on the GPU system, Lin = 2048.
pub fn fig04_breakdown(scale: &Scale) -> Vec<BreakdownRow> {
    let lin = scale.len(2048);
    let mut points = Vec::new();
    for model in [ModelConfig::mixtral_8x7b(), ModelConfig::glam()] {
        for batch in [32usize, 64, 128] {
            for lout in [256u64, 1024, 4096] {
                for mixed in [false, true] {
                    points.push((model.clone(), batch, lout, mixed));
                }
            }
        }
    }
    points
        .into_par_iter()
        .map(|(model, batch, lout, mixed)| {
            let (devices, nodes) = SystemConfig::default_cluster(&model);
            let mut ex = SystemExecutor::new(SystemConfig::gpu(devices, nodes), model.clone(), 7);
            let lout_s = scale.len(lout);
            let ctx = lin + lout_s / 2;
            let shape = if mixed {
                StageShape::mixed(&vec![ctx; batch - 1], &[lin])
            } else {
                StageShape::decode_only(&vec![ctx; batch])
            };
            let c = ex.stage_cost(&shape);
            let t = c.time;
            let total = t.total().max(f64::MIN_POSITIVE);
            BreakdownRow {
                model: model.name,
                batch,
                lout,
                mixed,
                fractions: [
                    t.fc / total,
                    t.attn_prefill / total,
                    t.attn_decode / total,
                    t.moe / total,
                    t.comm / total,
                ],
                seconds: c.seconds,
            }
        })
        .collect()
}

/// One point of the Fig. 4(b) roofline: an operation class's aggregate
/// Op/B and achieved TFLOPS on the GPU system.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// "FC", "MoE" or "Attention".
    pub op: &'static str,
    /// Aggregate arithmetic intensity (FLOP per DRAM byte).
    pub op_b: f64,
    /// Achieved TFLOP/s on the GPU system.
    pub tflops: f64,
}

/// Fig. 4(b): roofline coordinates of FC / MoE / attention in a
/// decoding-only stage (Lin = 2048, Lout = 1024 midpoint).
pub fn fig04_roofline(scale: &Scale) -> Vec<RooflineRow> {
    let lin = scale.len(2048);
    let ctx = lin + scale.len(1024) / 2;
    let mut points = Vec::new();
    for model in [ModelConfig::mixtral_8x7b(), ModelConfig::glam()] {
        for batch in [32usize, 64, 128] {
            points.push((model.clone(), batch));
        }
    }
    points
        .into_par_iter()
        .map(|(model, batch)| {
            let (devices, nodes) = SystemConfig::default_cluster(&model);
            let mut ex = SystemExecutor::new(SystemConfig::gpu(devices, nodes), model.clone(), 7);
            let shape = StageShape::decode_only(&vec![ctx; batch]);
            let c = ex.stage_cost(&shape);
            // Reconstruct aggregate flops/bytes per class from the model.
            let work = duplex_model::ops::enumerate_stage(
                &model,
                &shape,
                &duplex_model::ExpertRouter::uniform(model.n_experts.max(1), model.top_k.max(1)),
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7),
            );
            let bpe = model.bytes_per_elem;
            let fc_flops: f64 = work
                .fc_ops
                .iter()
                .map(|f| f.shape.flops() * f.count as f64)
                .sum();
            let fc_bytes: f64 = work
                .fc_ops
                .iter()
                .map(|f| (f.weight_bytes(bpe) * f.count) as f64)
                .sum();
            // Attention ops are grouped: scale by the multiplicity.
            let attn_flops: f64 = work
                .attn
                .iter()
                .map(|a| a.flops() * (a.count * a.reqs) as f64)
                .sum();
            let attn_bytes: f64 = work
                .attn
                .iter()
                .map(|a| (a.kv_dram_bytes(bpe) * a.count * a.reqs) as f64)
                .sum();
            let mut rows = Vec::new();
            let mut push = |op, flops: f64, bytes: f64, secs: f64| {
                if bytes > 0.0 && secs > 0.0 {
                    rows.push(RooflineRow {
                        model: model.name.clone(),
                        batch,
                        op,
                        op_b: flops / bytes,
                        tflops: flops / secs / 1e12,
                    });
                }
            };
            push("FC", fc_flops, fc_bytes, c.time.fc);
            push("Attention", attn_flops, attn_bytes, c.time.attn_decode);
            if model.is_moe() {
                let expert_bytes = model.ffn_params() * bpe;
                let (mut moe_flops, mut moe_bytes) = (0.0f64, 0.0f64);
                for layer in &work.moe {
                    for &t in &layer.expert_tokens {
                        if t > 0 {
                            let e = duplex_model::ops::ExpertWork::for_tokens(&model, t);
                            moe_flops += e.flops();
                            moe_bytes += expert_bytes as f64;
                        }
                    }
                }
                push("MoE", moe_flops, moe_bytes, c.time.moe);
            }
            rows
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

// ---------------------------------------------------------------- Fig. 5

/// One bar of Fig. 5(a): decoding-only stage fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRatioRow {
    /// Prompt length.
    pub lin: u64,
    /// Response length.
    pub lout: u64,
    /// Batch size.
    pub batch: usize,
    /// Fraction of stages that are decoding-only.
    pub decode_only_fraction: f64,
}

/// Fig. 5(a): ratio of decoding-only to mixed stages for Mixtral on the
/// GPU system.
pub fn fig05_stage_ratio(scale: &Scale) -> Vec<StageRatioRow> {
    let model = ModelConfig::mixtral_8x7b();
    let mut points = Vec::new();
    for batch in [32usize, 64, 128] {
        for (lin, lout) in [(256, 256), (256, 2048), (2048, 256), (2048, 2048)] {
            points.push((batch, lin, lout));
        }
    }
    points
        .into_par_iter()
        .map(|(batch, lin, lout)| {
            let cfg = scale.run_config(model.clone(), SystemConfig::gpu(4, 1), lin, lout, batch);
            let r = run(cfg);
            StageRatioRow {
                lin,
                lout,
                batch,
                decode_only_fraction: r.report.decode_only_fraction(),
            }
        })
        .collect()
}

/// Latency comparison row used by Figs. 5(b), 12, 13 and 16.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// System name.
    pub system: String,
    /// Prompt length (or QPS for Fig. 13, context for others).
    pub lin: u64,
    /// Response length.
    pub lout: u64,
    /// TBT p50/p90/p99 in seconds.
    pub tbt: [f64; 3],
    /// T2FT p50 in seconds.
    pub t2ft_p50: f64,
    /// E2E p50 in seconds.
    pub e2e_p50: f64,
    /// Generation throughput in tokens/s.
    pub throughput: f64,
}

impl LatencyRow {
    fn of(lin: u64, lout: u64, r: &RunResult) -> Self {
        Self {
            system: r.system_name.clone(),
            lin,
            lout,
            tbt: [r.tbt.p50, r.tbt.p90, r.tbt.p99],
            t2ft_p50: r.t2ft.p50,
            e2e_p50: r.e2e.p50,
            throughput: r.throughput_tokens_per_s,
        }
    }
}

/// Fig. 5(b): GPU (4 devices) vs heterogeneous (2 GPU + 2 Logic-PIM)
/// latency on Mixtral, batch 32.
pub fn fig05_hetero_latency(scale: &Scale) -> Vec<LatencyRow> {
    let model = ModelConfig::mixtral_8x7b();
    let mut points = Vec::new();
    for (lin, lout) in [(256, 256), (256, 2048), (2048, 256), (2048, 2048)] {
        for system in [SystemConfig::gpu(4, 1), SystemConfig::hetero()] {
            points.push((lin, lout, system));
        }
    }
    points
        .into_par_iter()
        .map(|(lin, lout, system)| {
            let mut cfg = scale.run_config(model.clone(), system, lin, lout, 32);
            cfg.max_stages = usize::MAX; // latency runs go to completion
            let r = run(cfg);
            LatencyRow::of(lin, lout, &r)
        })
        .collect()
}

/// One bar of Fig. 5(c): hetero throughput normalized to the GPU
/// system, with and without the KV-capacity limit.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroThroughputRow {
    /// Prompt length.
    pub lin: u64,
    /// Response length.
    pub lout: u64,
    /// Hetero throughput / GPU throughput with real capacity.
    pub normalized: f64,
    /// Same with KV capacity unconstrained.
    pub normalized_no_capacity: f64,
    /// Mean batch the capacity-limited hetero run achieved.
    pub hetero_mean_batch: f64,
}

/// Fig. 5(c): the heterogeneous system's throughput penalty from wasted
/// memory capacity (Mixtral, requested batch 128).
pub fn fig05_hetero_throughput(scale: &Scale) -> Vec<HeteroThroughputRow> {
    let model = ModelConfig::mixtral_8x7b();
    let batch = 128usize;
    let pairs = vec![(2048u64, 2048u64), (2048, 4096), (4096, 4096), (8192, 4096)];
    pairs
        .into_par_iter()
        .map(|(lin, lout)| {
            let gpu =
                run(scale.run_config(model.clone(), SystemConfig::gpu(4, 1), lin, lout, batch));
            let het =
                run(scale.run_config(model.clone(), SystemConfig::hetero(), lin, lout, batch));
            let mut unlimited =
                scale.run_config(model.clone(), SystemConfig::hetero(), lin, lout, batch);
            unlimited.kv_capacity_override = Some(u64::MAX);
            let het_unlimited = run(unlimited);
            HeteroThroughputRow {
                lin,
                lout,
                normalized: het.throughput_tokens_per_s / gpu.throughput_tokens_per_s,
                normalized_no_capacity: het_unlimited.throughput_tokens_per_s
                    / gpu.throughput_tokens_per_s,
                hetero_mean_batch: het.mean_batch,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 8

/// One cell of Fig. 8: a PIM architecture's EDAP at one Op/B.
#[derive(Debug, Clone, PartialEq)]
pub struct EdapRow {
    /// "Bank-PIM", "BankGroup-PIM" or "Logic-PIM".
    pub arch: &'static str,
    /// GEMM arithmetic intensity (= token count).
    pub op_b: u64,
    /// Raw EDAP (J * s * mm^2).
    pub edap: f64,
    /// EDAP normalized to the worst architecture at this Op/B.
    pub normalized: f64,
}

/// Fig. 8: normalized energy-delay-area product of the three PIM
/// options for an FP16 GEMM with a 16384 x 4096 weight matrix.
pub fn fig08_edap() -> Vec<EdapRow> {
    let area = AreaModel::micro24();
    let engines: [(&'static str, Engine); 3] = [
        ("Bank-PIM", Engine::bank_pim()),
        ("BankGroup-PIM", Engine::bank_group_pim()),
        ("Logic-PIM", Engine::logic_pim()),
    ];
    let mut rows = Vec::new();
    for op_b in [1u64, 2, 4, 8, 16, 32] {
        let shape = GemmShape {
            m: op_b,
            n: 16384,
            k: 4096,
        };
        let bytes = shape.weight_bytes(2);
        let cells: Vec<(&'static str, Edap)> = engines
            .iter()
            .map(|(name, engine)| {
                let cost = engine.gemm_cost(shape, bytes);
                let edap = Edap {
                    energy_j: cost.total_energy_j(),
                    delay_s: cost.seconds,
                    area_mm2: area.pim_area_mm2(engine.spec().kind),
                };
                (*name, edap)
            })
            .collect();
        let worst = cells
            .iter()
            .map(|(_, e)| e.value())
            .fold(f64::MIN, f64::max);
        for (name, edap) in cells {
            rows.push(EdapRow {
                arch: name,
                op_b,
                edap: edap.value(),
                normalized: edap.value() / worst,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 11 / 14

/// One bar of a throughput figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Model name.
    pub model: String,
    /// System name.
    pub system: String,
    /// Prompt length.
    pub lin: u64,
    /// Response length.
    pub lout: u64,
    /// Batch size requested.
    pub batch: usize,
    /// Tokens per second.
    pub tokens_per_s: f64,
    /// Normalized to the GPU system of the same column.
    pub normalized: f64,
}

fn throughput_sweep(
    scale: &Scale,
    models: &[(ModelConfig, Vec<(u64, u64)>)],
    batches: &[usize],
    systems: &(dyn Fn(&ModelConfig) -> Vec<SystemConfig> + Sync),
) -> Vec<ThroughputRow> {
    // One parallel work item per (model, batch, lengths) column; the
    // systems of a column run in sequence because each normalizes to
    // the column's first (GPU-baseline) result.
    let mut columns = Vec::new();
    for (model, pairs) in models {
        for &batch in batches {
            for &(lin, lout) in pairs {
                columns.push((model.clone(), batch, lin, lout));
            }
        }
    }
    columns
        .into_par_iter()
        .flat_map(|(model, batch, lin, lout)| {
            let mut gpu_tps = None;
            let mut rows = Vec::new();
            for system in systems(&model) {
                let cfg = scale.run_config(model.clone(), system, lin, lout, batch);
                let r = run(cfg);
                let tps = r.throughput_tokens_per_s;
                if gpu_tps.is_none() {
                    gpu_tps = Some(tps);
                }
                rows.push(ThroughputRow {
                    model: model.name.clone(),
                    system: r.system_name,
                    lin,
                    lout,
                    batch,
                    tokens_per_s: tps,
                    normalized: tps / gpu_tps.expect("first system is the GPU baseline"),
                });
            }
            rows
        })
        .collect()
}

/// Fig. 11: normalized throughput of GPU / 2xGPU / Duplex / Duplex+PE /
/// Duplex+PE+ET on Mixtral, GLaM and Grok1.
pub fn fig11_throughput(scale: &Scale) -> Vec<ThroughputRow> {
    let models = vec![
        (
            ModelConfig::mixtral_8x7b(),
            vec![(256, 256), (1024, 1024), (4096, 4096)],
        ),
        (
            ModelConfig::glam(),
            vec![(512, 512), (1024, 1024), (2048, 2048)],
        ),
        (
            ModelConfig::grok1(),
            vec![(256, 256), (1024, 1024), (4096, 4096)],
        ),
    ];
    throughput_sweep(scale, &models, &[32, 64, 128], &|model| {
        let (d, n) = SystemConfig::default_cluster(model);
        vec![
            SystemConfig::gpu(d, n),
            SystemConfig::gpu(d, n).doubled(),
            SystemConfig::duplex(d, n),
            SystemConfig::duplex_pe(d, n),
            SystemConfig::duplex_pe_et(d, n),
        ]
    })
}

/// Fig. 14: GPU vs Bank-PIM vs Duplex across model classes (MoE+GQA,
/// dense GQA, dense MHA).
pub fn fig14_bankpim(scale: &Scale) -> Vec<ThroughputRow> {
    let models = vec![
        (
            ModelConfig::mixtral_8x7b(),
            vec![(256, 256), (1024, 1024), (4096, 4096)],
        ),
        (
            ModelConfig::llama3_70b(),
            vec![(256, 256), (512, 512), (1024, 1024)],
        ),
        (
            ModelConfig::opt_66b(),
            vec![(256, 256), (512, 512), (1024, 1024)],
        ),
    ];
    throughput_sweep(scale, &models, &[32, 64], &|model| {
        let (d, n) = SystemConfig::default_cluster(model);
        vec![
            SystemConfig::gpu(d, n),
            SystemConfig::bank_pim(d, n),
            SystemConfig::duplex_pe_et(d, n),
        ]
    })
}

// ---------------------------------------------------------------- Fig. 12 / 13

/// Fig. 12: latency of GLaM (batch 64) across systems.
pub fn fig12_latency(scale: &Scale) -> Vec<LatencyRow> {
    let model = ModelConfig::glam();
    let (d, n) = SystemConfig::default_cluster(&model);
    let systems = [
        SystemConfig::gpu(d, n),
        SystemConfig::gpu(d, n).doubled(),
        SystemConfig::duplex(d, n),
        SystemConfig::duplex_pe(d, n),
        SystemConfig::duplex_pe_et(d, n),
    ];
    let mut points = Vec::new();
    for (lin, lout) in [(512, 512), (1024, 1024), (2048, 2048)] {
        for system in &systems {
            points.push((lin, lout, system.clone()));
        }
    }
    points
        .into_par_iter()
        .map(|(lin, lout, system)| {
            let mut cfg = scale.run_config(model.clone(), system, lin, lout, 64);
            cfg.max_stages = usize::MAX;
            let r = run(cfg);
            LatencyRow::of(lin, lout, &r)
        })
        .collect()
}

/// One point of Fig. 13: latency under a Poisson arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct QpsRow {
    /// System name.
    pub system: String,
    /// Offered queries per second.
    pub qps: f64,
    /// TBT p50/p90/p99 in seconds.
    pub tbt: [f64; 3],
    /// T2FT p50.
    pub t2ft_p50: f64,
    /// E2E p50.
    pub e2e_p50: f64,
}

/// Fig. 13: Mixtral latency vs offered load, (Lin, Lout) = (4096, 512),
/// max batch 128.
pub fn fig13_qps(scale: &Scale) -> Vec<QpsRow> {
    let model = ModelConfig::mixtral_8x7b();
    let systems = [
        SystemConfig::gpu(4, 1),
        SystemConfig::gpu(4, 1).doubled(),
        SystemConfig::duplex_pe_et(4, 1),
    ];
    let lin = scale.len(4096);
    let lout = scale.len(512);
    // Scale offered load with the shrink factor so the saturation
    // crossover stays visible at quick scales.
    let qps_scale = scale.shrink as f64;
    let mut points = Vec::new();
    for qps_base in [4.0f64, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0] {
        for system in &systems {
            points.push((qps_base, system.clone()));
        }
    }
    points
        .into_par_iter()
        .map(|(qps_base, system)| {
            let mut cfg = RunConfig::closed_loop(
                model.clone(),
                system,
                Workload::gaussian(lin, lout),
                128,
                scale.requests(128).max(96),
            );
            cfg.qps = Some(qps_base * qps_scale);
            let r = run(cfg);
            QpsRow {
                system: r.system_name,
                qps: qps_base,
                tbt: [r.tbt.p50, r.tbt.p90, r.tbt.p99],
                t2ft_p50: r.t2ft.p50,
                e2e_p50: r.e2e.p50,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 15

/// One bar of Fig. 15: per-token energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Model name.
    pub model: String,
    /// System name ("GPU" or "Duplex").
    pub system: String,
    /// Prompt/response length.
    pub lin: u64,
    /// Response length.
    pub lout: u64,
    /// Batch size.
    pub batch: usize,
    /// J/token in buckets: FC DRAM, FC comp, attention DRAM, attention
    /// comp, MoE DRAM, MoE comp.
    pub buckets_j: [f64; 6],
    /// Total J/token.
    pub total_j: f64,
}

/// Fig. 15: per-token energy of GPU vs Duplex (+PE+ET) on the MoE
/// models.
pub fn fig15_energy(scale: &Scale) -> Vec<EnergyRow> {
    let models = [
        (
            ModelConfig::mixtral_8x7b(),
            [(256u64, 256u64), (1024, 1024), (4096, 4096)],
        ),
        (
            ModelConfig::glam(),
            [(512, 512), (1024, 1024), (2048, 2048)],
        ),
        (
            ModelConfig::grok1(),
            [(256, 256), (1024, 1024), (4096, 4096)],
        ),
    ];
    let mut points = Vec::new();
    for (model, pairs) in models {
        let (d, n) = SystemConfig::default_cluster(&model);
        for batch in [32usize, 64, 128] {
            for (lin, lout) in pairs {
                for system in [SystemConfig::gpu(d, n), SystemConfig::duplex_pe_et(d, n)] {
                    points.push((model.clone(), batch, lin, lout, system));
                }
            }
        }
    }
    points
        .into_par_iter()
        .map(|(model, batch, lin, lout, system)| {
            let cfg = scale.run_config(model.clone(), system, lin, lout, batch);
            let r = run(cfg);
            let tokens = r.report.generated_tokens().max(1) as f64;
            let e = r.cost.energy;
            EnergyRow {
                model: model.name,
                system: r.system_name,
                lin,
                lout,
                batch,
                buckets_j: [
                    e.fc_dram / tokens,
                    e.fc_comp / tokens,
                    e.attn_dram / tokens,
                    e.attn_comp / tokens,
                    e.moe_dram / tokens,
                    e.moe_comp / tokens,
                ],
                total_j: e.total() / tokens,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 16

/// Fig. 16's (Lin, Lout) points.
const FIG16_SHAPES: [(u64, u64); 3] = [(256, 256), (1024, 1024), (4096, 4096)];

/// One Fig. 16 point: the Duplex row's run (Duplex+PE, 4 devices,
/// batch 128) and the Duplex-Split fleet serving the same closed-loop
/// requests on the same four devices, as two 2-device Duplex+PE
/// replicas: replica 0 is the prefill pool, replica 1 the decode pool.
fn fig16_point(scale: &Scale, lin: u64, lout: u64) -> (RunConfig, ClusterSpec) {
    let model = ModelConfig::mixtral_8x7b();
    let mut cfg = scale.run_config(model, SystemConfig::duplex_pe(4, 1), lin, lout, 128);
    cfg.max_stages = usize::MAX;
    let scenario = Scenario::new(
        "fig16_split",
        cfg.workload.clone(),
        Arrivals::ClosedLoop,
        cfg.requests,
    );
    let split = ClusterSpec::new(
        "Duplex-Split",
        cfg.model.clone(),
        vec![SystemConfig::duplex_pe(2, 1); 2],
        cfg.max_batch,
        PolicyKind::Fcfs,
        scenario,
    )
    .with_disagg(DisaggPlan::new(vec![0]));
    (cfg, split)
}

/// Fig. 16: Duplex vs Duplex-Split (Splitwise-style disaggregation),
/// Mixtral, batch 128. Duplex-Split is a 1 + 1 [`DisaggPlan`] fleet:
/// one prefill replica and one decode replica, each holding the full
/// weights, with finished prompts' KV shipped over the fleet link.
pub fn fig16_split(scale: &Scale) -> Vec<LatencyRow> {
    FIG16_SHAPES
        .to_vec()
        .into_par_iter()
        .flat_map(|(lin, lout)| {
            let (cfg, split) = fig16_point(scale, lin, lout);
            let duplex = run(cfg);
            // Each pool has one replica, so the router never chooses.
            let report = run_cluster(&split, RouterKind::RoundRobin.build().as_mut());
            // A handoff restamps the request's arrival, so the records'
            // own T2FT and E2E leave out the prefill pool. Every
            // closed-loop request arrives at t = 0: the token times are
            // T2FT and E2E as the Duplex row measures them.
            let records = report.replicas.iter().flat_map(|r| &r.completed);
            let t2ft: Vec<f64> = records.clone().map(|r| r.first_token_s).collect();
            let e2e: Vec<f64> = records.map(|r| r.last_token_s).collect();
            let tbt = report.tbt();
            vec![
                LatencyRow::of(lin, lout, &duplex),
                LatencyRow {
                    system: split.name,
                    lin,
                    lout,
                    tbt: [tbt.p50, tbt.p90, tbt.p99],
                    t2ft_p50: LatencySummary::of(&t2ft).p50,
                    e2e_p50: LatencySummary::of(&e2e).p50,
                    throughput: report.generation_throughput(),
                },
            ]
        })
        .collect()
}

// ---------------------------------------------------------------- Scenarios

/// One row of the scenario sweep: a (scenario, policy) pair on one
/// system, with serving, SLO and reuse metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Scenario name ("bursty", "multi_turn", ...).
    pub scenario: String,
    /// System display name.
    pub system: String,
    /// Scheduling-policy name.
    pub policy: String,
    /// Requests completed (follow-up rounds included).
    pub completed: usize,
    /// Stages executed.
    pub stages: u64,
    /// Generation throughput in tokens/s (in-flight tokens counted).
    pub throughput: f64,
    /// Goodput: tokens of SLO-attaining requests per second (0 when
    /// the scenario declares no tiers).
    pub goodput: f64,
    /// Overall SLO attainment in [0, 1] (0 without tiers).
    pub attainment: f64,
    /// Whether the scenario declared SLO tiers.
    pub tiered: bool,
    /// TBT p99 in seconds.
    pub tbt_p99: f64,
    /// T2FT p50 in seconds.
    pub t2ft_p50: f64,
    /// Fraction of prompt tokens served from resident KV (multi-turn
    /// scenarios; 0 otherwise).
    pub kv_reuse_fraction: f64,
}

/// Price one decoding-only stage of `model` on `system` — the time
/// unit the scenario suite scales its rates and deadlines by, so the
/// same scenarios stay meaningfully loaded at quick and paper scales.
pub fn probe_stage_seconds(
    model: &ModelConfig,
    system: &SystemConfig,
    batch: usize,
    ctx: u64,
) -> f64 {
    let mut ex = SystemExecutor::new(system.clone(), model.clone(), 7);
    ex.stage_cost(&StageShape::decode_only(&vec![ctx; batch]))
        .seconds
}

/// Price one whole-prompt prefill stage of `lin` tokens — the probe
/// behind [`ClusterSpec::router_context`]'s prefill-throughput
/// estimate.
pub fn probe_prefill_seconds(model: &ModelConfig, system: &SystemConfig, lin: u64) -> f64 {
    let mut ex = SystemExecutor::new(system.clone(), model.clone(), 7);
    ex.stage_cost(&StageShape::mixed(&[], &[lin])).seconds
}

/// The scenario suite for one (model, system, batch): bursty on/off
/// traffic, a diurnal rate curve, multi-turn chat with KV reuse, an
/// SLO-tiered mix, and replay of a recorded bursty trace. Rates are
/// fractions of the system's closed-loop capacity (`batch / (Lout *
/// stage_s)`), deadlines multiples of the probed stage latency.
pub fn scenario_suite(
    scale: &Scale,
    model: &ModelConfig,
    system: &SystemConfig,
    batch: usize,
) -> Vec<Scenario> {
    let lin = scale.len(1024);
    let lout = scale.len(512);
    let stage_s = probe_stage_seconds(model, system, batch, lin + lout / 2);
    let capacity_qps = batch as f64 / (lout as f64 * stage_s);
    // One request's decode lifetime at full batch.
    let life_s = lout as f64 * stage_s;
    let requests = scale.requests(batch) * 4;
    let workload = Workload::gaussian(lin, lout).with_seed(0xD00D);

    let bursty_arrivals = Arrivals::Bursty {
        base_qps: 0.2 * capacity_qps,
        burst_qps: 2.5 * capacity_qps,
        mean_off_s: 8.0 * life_s,
        mean_on_s: 2.0 * life_s,
    };
    let bursty = Scenario::new(
        "bursty",
        workload.clone(),
        bursty_arrivals.clone(),
        requests,
    );

    let diurnal = Scenario::new(
        "diurnal",
        workload.clone(),
        Arrivals::Diurnal {
            mean_qps: 0.6 * capacity_qps,
            period_s: 30.0 * life_s,
            amplitude: 0.8,
        },
        requests,
    );

    // Multi-turn chat: shorter opening prompts, prompts grow with the
    // carried history each round, follow-ups arrive after a think time.
    let chat = Scenario::new(
        "multi_turn",
        Workload::gaussian(scale.len(512), scale.len(256)).with_seed(0xC4A7),
        Arrivals::Poisson {
            qps: 0.3 * capacity_qps,
        },
        requests / 2,
    )
    .with_conversation(ConversationSpec::chat(
        0.65,
        4,
        4.0 * life_s,
        scale.len(256),
    ));

    let tiered = Scenario::new(
        "slo_tiered",
        workload.clone(),
        Arrivals::Poisson {
            qps: 0.85 * capacity_qps,
        },
        requests,
    )
    .with_tiers(Scenario::default_tiers(stage_s));

    // Near-saturation tiered mix: demand just past the closed-loop
    // capacity, so interactive work queues behind batch-tier decodes
    // and the shed/preempt/multiplex policies actually diverge. Three
    // names, one shape: the quick bench maps each name to its namesake
    // policy (`shed-batch` / `preempt` / `preempt-mux`) so the CI
    // baselines pin the attainment spread between them.
    let saturated = |name: &str| {
        Scenario::new(
            name,
            workload.clone(),
            Arrivals::Poisson {
                qps: 1.05 * capacity_qps,
            },
            requests,
        )
        .with_tiers(Scenario::default_tiers(stage_s))
    };
    let slo_shed = saturated("slo_shed");
    let slo_preempt = saturated("slo_preempt");
    let slo_multiplex = saturated("slo_multiplex");

    // Trace replay: record the bursty process once, replay it exactly.
    let mut recorder = RequestSource::new(workload.clone().with_seed(0xACED), bursty_arrivals);
    let recorded: Vec<TraceRequest> = (0..requests)
        .map(|_| {
            let r = recorder.next_request();
            TraceRequest {
                arrival_s: r.arrival_s,
                input_len: r.input_len,
                output_len: r.output_len,
            }
        })
        .collect();
    let replay = Scenario::new(
        "trace_replay",
        workload,
        Arrivals::trace(recorded),
        requests,
    );

    // Long-prompt mix: prompts ~8x the decode budget make every
    // admission stall the whole decode cohort for one long prefill,
    // spiking the TBT tail. The chunked variant bounds each stage's
    // prefill work instead (same arrivals, same shapes), trading a few
    // percent of throughput for a flat tail — the pair is the chunked
    // prefill ablation the CI latency gate watches.
    let long_in = scale.len(8192);
    let long_out = scale.len(2048);
    let long_stage_s = probe_stage_seconds(model, system, batch, long_in + long_out / 2);
    let long_capacity = batch as f64 / (long_out as f64 * long_stage_s);
    let long_workload = Workload::gaussian(long_in, long_out).with_seed(0xBEEF);
    // Load low enough that the chunked variant's bounded per-stage
    // prefill bandwidth (chunk tokens per stage vs a whole prompt per
    // mixed stage) still keeps up with arrivals — past that point
    // chunking trades throughput, not just latency.
    let long_arrivals = Arrivals::Poisson {
        qps: 0.35 * long_capacity,
    };
    let long_requests = scale.requests(batch);
    let long_prefill = Scenario::new(
        "long_prefill",
        long_workload.clone(),
        long_arrivals.clone(),
        long_requests,
    );
    let long_prefill_chunked = Scenario::new(
        "long_prefill_chunked",
        long_workload.clone(),
        long_arrivals.clone(),
        long_requests,
    )
    .with_prefill_chunk(scale.len(1024));
    // The adaptive variant keeps the fixed budget's tail protection
    // while spending idle decode slots on bigger prefill slices: the
    // budget tightens to the fixed chunk only when the decode cohort
    // fills (the open-items "chunk size that adapts to the decode
    // batch").
    let long_prefill_adaptive = Scenario::new(
        "long_prefill_adaptive",
        long_workload,
        long_arrivals,
        long_requests,
    )
    .with_prefill_chunk_adaptive(scale.len(1024), scale.len(8192));

    vec![
        bursty,
        diurnal,
        chat,
        tiered,
        slo_shed,
        slo_preempt,
        slo_multiplex,
        replay,
        long_prefill,
        long_prefill_chunked,
        long_prefill_adaptive,
    ]
}

/// Run one scenario on one system under one policy.
pub fn run_scenario(
    model: &ModelConfig,
    system: &SystemConfig,
    scenario: Scenario,
    policy: &mut dyn SchedulingPolicy,
    max_batch: usize,
) -> SimReport {
    let mut ex = SystemExecutor::new(system.clone(), model.clone(), 7);
    let cfg = SimulationConfig {
        max_batch,
        kv_capacity_bytes: ex.kv_capacity_bytes(),
        kv_bytes_per_token: model.kv_bytes_per_token(),
        max_stages: usize::MAX,
        record_stages: false,
    };
    ScenarioSimulation::new(cfg, scenario).run(policy, &mut ex)
}

/// The scenario sweep: every suite scenario under every shipped
/// policy, Mixtral on Duplex+PE+ET (4 devices), batch 64.
pub fn scenarios(scale: &Scale) -> Vec<ScenarioRow> {
    let model = ModelConfig::mixtral_8x7b();
    let system = SystemConfig::duplex_pe_et(4, 1);
    let batch = 64usize;
    let suite = scenario_suite(scale, &model, &system, batch);
    let mut points = Vec::new();
    for scenario in suite {
        for kind in PolicyKind::ALL {
            points.push((scenario.clone(), kind));
        }
    }
    points
        .into_par_iter()
        .map(|(scenario, kind)| {
            let tiered = !scenario.tiers.is_empty();
            let name = scenario.name.clone();
            let mut policy = kind.build();
            let report = run_scenario(&model, &system, scenario, policy.as_mut(), batch);
            ScenarioRow {
                scenario: name,
                system: system.name.clone(),
                policy: kind.name().into(),
                completed: report.completed.len(),
                stages: report.stage_stats.stages,
                throughput: report.generation_throughput(),
                goodput: report.goodput_tokens_per_s(),
                attainment: report.slo_attainment(),
                tiered,
                tbt_p99: report.tbt().p99,
                t2ft_p50: report.t2ft().p50,
                kv_reuse_fraction: report.kv_reuse.reuse_fraction(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Clusters

/// The fleet interconnect KV transfers cross: the same inter-node
/// link [`CommModel`] prices p2p transfers on. [`build_cluster`] prices
/// every cross-replica KV move over the first replica's link, and
/// [`ClusterSpec::router_context`] hands routers the same one.
pub fn fleet_kv_link(system: &SystemConfig) -> KvLinkSpec {
    CommModel::new(system.link, system.nodes, system.devices_per_node).kv_link()
}

/// One multi-replica serving fleet: a scenario offered to N replicas
/// (possibly heterogeneous systems) behind a router.
///
/// Construct with [`ClusterSpec::new`] plus the `with_*` builders —
/// the struct is `#[non_exhaustive]`, so literal construction outside
/// this crate is not supported.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ClusterSpec {
    /// Display name ("grok_chat_tiered", ...).
    pub name: String,
    /// The LLM every replica serves.
    pub model: ModelConfig,
    /// One system config per replica (heterogeneous fleets mix
    /// presets).
    pub systems: Vec<SystemConfig>,
    /// Per-replica batch-slot budget.
    pub batch: usize,
    /// Admission policy every replica runs.
    pub policy: PolicyKind,
    /// The offered workload.
    pub scenario: Scenario,
    /// Scripted fault drill (crashes/drains/slowdowns) run against the
    /// fleet; `None` for a healthy-fleet sweep.
    pub faults: Option<FaultPlan>,
    /// Elastic scaling policy; `None` runs the fleet at its built
    /// size. With `Some`, `systems` is the *maximum* fleet and
    /// replicas beyond the policy floor start in the standby pool.
    pub autoscale: Option<AutoscalePolicy>,
    /// Prefill/decode pool split; `None` serves colocated.
    pub disagg: Option<DisaggPlan>,
}

impl ClusterSpec {
    /// A healthy, static, colocated fleet.
    pub fn new(
        name: &str,
        model: ModelConfig,
        systems: Vec<SystemConfig>,
        batch: usize,
        policy: PolicyKind,
        scenario: Scenario,
    ) -> Self {
        Self {
            name: name.into(),
            model,
            systems,
            batch,
            policy,
            scenario,
            faults: None,
            autoscale: None,
            disagg: None,
        }
    }

    /// Run the scripted fault drill against the fleet.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Scale the fleet elastically under `policy`.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Disaggregate the fleet into prefill and decode pools.
    pub fn with_disagg(mut self, plan: DisaggPlan) -> Self {
        self.disagg = Some(plan);
        self
    }

    /// The fleet-derived [`ClusterContext`] routers should be built
    /// against ([`RouterKind::build_with`]): the first replica's
    /// inter-node link, the model's KV geometry, and a prefill
    /// throughput estimate probed from the scenario's mean prompt —
    /// instead of each call site re-deriving the numbers ad hoc.
    pub fn router_context(&self) -> ClusterContext {
        let system = &self.systems[0];
        let lin = self.scenario.workload.mean_input.max(1);
        let prefill_s = probe_prefill_seconds(&self.model, system, lin);
        ClusterContext {
            kv_link: fleet_kv_link(system),
            kv_bytes_per_token: self.model.kv_bytes_per_token(),
            prefill_tokens_per_s: lin as f64 / prefill_s.max(1e-12),
        }
    }
}

/// One row of the cluster sweep: a (fleet, router) pair with fleet and
/// balance metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRow {
    /// Fleet display name.
    pub cluster: String,
    /// Router display name.
    pub router: String,
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Requests completed fleet-wide (follow-up rounds included).
    pub completed: usize,
    /// Stages executed fleet-wide.
    pub stages: u64,
    /// Fleet generation throughput in tokens/s (simulated time).
    pub throughput: f64,
    /// Fleet goodput in SLO-attaining tokens/s (0 without tiers).
    pub goodput: f64,
    /// Fleet-wide SLO attainment (0 without tiers).
    pub attainment: f64,
    /// Interactive-tier attainment (0 without tiers).
    pub interactive_attainment: f64,
    /// Whether the scenario declared SLO tiers.
    pub tiered: bool,
    /// Fleet TBT p99 in seconds (merged digests).
    pub tbt_p99: f64,
    /// Fraction of prompt tokens served from resident KV fleet-wide.
    pub kv_reuse_fraction: f64,
    /// Hottest replica's generated tokens over the fleet mean (1.0 =
    /// balanced).
    pub load_imbalance: f64,
    /// Worst time-to-recover across scripted faults in seconds (0
    /// without a fault plan).
    pub recovery_time_s: f64,
    /// Interactive-tier SLO attainment inside the during-failure
    /// windows (0 without faults or tiers).
    pub fault_attainment: f64,
    /// Requests lost to crashes fleet-wide.
    pub requests_lost: u64,
    /// Retry re-enqueues issued for lost requests.
    pub retries_issued: u64,
    /// KV bytes shipped across replicas (drain handoffs + migrations).
    pub kv_bytes_migrated: u64,
    /// Billable replica-seconds: virtual seconds each replica spent
    /// provisioned (pool/down time excluded), summed fleet-wide.
    pub replica_seconds: f64,
    /// Pool replicas provisioned into the fleet (0 without an
    /// autoscaler).
    pub scale_ups: u64,
    /// Replicas drained back to the pool (0 without an autoscaler).
    pub scale_downs: u64,
    /// Worst detection-plus-provisioning lag of a scale-up in virtual
    /// seconds (0 when nothing scaled).
    pub scale_up_lag_s: f64,
}

impl ClusterRow {
    /// Build a row from a fleet report.
    pub fn of(spec: &ClusterSpec, router: &str, report: &ClusterReport) -> Self {
        let slo = report.slo();
        Self {
            cluster: spec.name.clone(),
            router: router.into(),
            replicas: spec.systems.len(),
            completed: report.completed(),
            stages: report.stages(),
            throughput: report.generation_throughput(),
            goodput: report.goodput_tokens_per_s(),
            attainment: slo.attainment(),
            interactive_attainment: slo.tiers.first().map_or(0.0, |t| t.attainment()),
            tiered: !slo.tiers.is_empty(),
            tbt_p99: report.tbt().p99,
            kv_reuse_fraction: report.kv_reuse().reuse_fraction(),
            load_imbalance: report.load_imbalance(),
            recovery_time_s: report.recovery_time_s(),
            fault_attainment: report.fault_interactive_attainment(),
            requests_lost: report.recovery.requests_lost,
            retries_issued: report.recovery.retries_issued,
            kv_bytes_migrated: report.recovery.kv_bytes_migrated,
            replica_seconds: report.replica_seconds,
            scale_ups: report.scaling.scale_ups,
            scale_downs: report.scaling.scale_downs,
            scale_up_lag_s: report.scaling.scale_up_lag_s,
        }
    }
}

/// The cluster suite: the fleets the router comparison runs over.
///
/// * `grok_chat_tiered` — the acceptance fleet: four Grok-scale
///   (2x8-device Duplex+PE+ET) replicas serving multi-turn, SLO-tiered
///   chat near saturation. Session-affinity routing is what keeps the
///   multi-turn KV-reuse rate cluster-wide; least-outstanding-work is
///   what keeps interactive deadlines near saturation.
/// * `grok_failover` — the same Grok-scale fleet under steady Poisson
///   load with a scripted mid-run crash and a later graceful drain:
///   the failure drill behind the recovery-SLO CI gate. Lost requests
///   retry through the router; parked KV migrates over the
///   interconnect instead of re-prefilling.
/// * `mixtral_hetero` — a mixed fleet (two GPU nodes + two
///   Duplex+PE+ET nodes) under bursty single-shot traffic: the
///   capacity-weighted router must load the fast replicas harder.
pub fn cluster_suite(scale: &Scale) -> Vec<ClusterSpec> {
    let mut specs = Vec::new();

    // -- Grok-scale multi-turn + SLO-tiered chat fleet --
    {
        let model = ModelConfig::grok1();
        let (d, n) = SystemConfig::default_cluster(&model); // 2x8
        let duplex = SystemConfig::duplex_pe_et(d, n);
        let gpu = SystemConfig::gpu(d, n);
        let batch = 16usize;
        let lin = scale.len(2048);
        let lout = scale.len(512);
        let turn = scale.len(256);
        let ctx = lin + lout / 2;
        let duplex_stage = probe_stage_seconds(&model, &duplex, batch, ctx);
        let gpu_stage = probe_stage_seconds(&model, &gpu, batch, ctx);
        let life_s = lout as f64 * duplex_stage;
        // A mixed-generation fleet: three Duplex replicas plus one
        // GPU-only straggler. Round-robin feeds the straggler a full
        // quarter of the traffic; the capacity-weighted router loads
        // it by its probed speed instead.
        let systems = vec![duplex.clone(), duplex.clone(), duplex, gpu];
        let fleet_qps = batch as f64 / lout as f64 * (3.0 / duplex_stage + 1.0 / gpu_stage);
        // Conversations run exactly 4 rounds, so initial arrivals at
        // ~1/5 of fleet capacity offer ~80% once follow-up rounds (and
        // their growing history prefills) stack on top; the bursts
        // push past saturation transiently.
        let qps = 0.2 * fleet_qps;
        let requests = scale.requests(batch) * systems.len() * 3;
        let scenario = Scenario::new(
            "grok_chat_tiered",
            Workload::gaussian(lin, lout).with_seed(0xC10D).with_cv(0.6),
            Arrivals::Bursty {
                base_qps: 0.4 * qps,
                burst_qps: 2.8 * qps,
                mean_off_s: 30.0 * life_s,
                mean_on_s: 10.0 * life_s,
            },
            requests,
        )
        .with_conversation(ConversationSpec::chat(1.0, 4, 0.5 * life_s, turn))
        .with_tiers(Scenario::default_tiers(duplex_stage));
        specs.push(ClusterSpec::new(
            "grok_chat_tiered",
            model,
            systems,
            batch,
            PolicyKind::PriorityTiers,
            scenario,
        ));
    }

    // -- Grok-scale failure drill: crash + drain + warm-up restart --
    {
        let model = ModelConfig::grok1();
        let (d, n) = SystemConfig::default_cluster(&model); // 2x8
        let duplex = SystemConfig::duplex_pe_et(d, n);
        let gpu = SystemConfig::gpu(d, n);
        let batch = 16usize;
        let lin = scale.len(2048);
        let lout = scale.len(512);
        let turn = scale.len(256);
        let ctx = lin + lout / 2;
        let duplex_stage = probe_stage_seconds(&model, &duplex, batch, ctx);
        let gpu_stage = probe_stage_seconds(&model, &gpu, batch, ctx);
        let life_s = lout as f64 * duplex_stage;
        let systems = vec![duplex.clone(), duplex.clone(), duplex.clone(), gpu];
        let fleet_qps = batch as f64 / lout as f64 * (3.0 / duplex_stage + 1.0 / gpu_stage);
        // Steady Poisson arrivals (no bursts): the drill measures how
        // the fleet absorbs *scripted* disruptions, so the offered load
        // itself stays flat at a point with headroom for failover.
        let qps = 0.3 * fleet_qps;
        let requests = scale.requests(batch) * systems.len() * 2;
        let span_est = requests as f64 / qps;
        let scenario = Scenario::new(
            "grok_failover",
            Workload::gaussian(lin, lout).with_seed(0xFA11).with_cv(0.6),
            Arrivals::Poisson { qps },
            requests,
        )
        .with_conversation(ConversationSpec::chat(1.0, 4, 0.5 * life_s, turn))
        .with_tiers(Scenario::default_tiers(duplex_stage));
        let faults = FaultPlan::new(vec![
            // Hard crash of a Duplex replica mid-run: in-flight and
            // queued requests are lost and retried through the router.
            FaultEvent::new(
                0.30 * span_est,
                0,
                FaultKind::Crash {
                    down_s: 2.0 * life_s,
                },
            ),
            // Graceful drain of another replica later: displaced
            // queue entries reroute and parked KV is handed off.
            FaultEvent::new(
                0.55 * span_est,
                1,
                FaultKind::Drain {
                    down_s: 1.0 * life_s,
                },
            ),
        ])
        .with_warmup(1.0 * life_s, 2.0)
        .with_recovery_tracking(0.7, span_est / 40.0, 4.0 * life_s);
        specs.push(
            ClusterSpec::new(
                "grok_failover",
                model,
                systems,
                batch,
                PolicyKind::PriorityTiers,
                scenario,
            )
            .with_faults(faults),
        );
    }

    // -- Heterogeneous Mixtral fleet: 2 GPU + 2 Duplex+PE+ET --
    {
        let model = ModelConfig::mixtral_8x7b();
        let gpu = SystemConfig::gpu(4, 1);
        let duplex = SystemConfig::duplex_pe_et(4, 1);
        let batch = 64usize;
        let lin = scale.len(1024);
        let lout = scale.len(512);
        let gpu_stage = probe_stage_seconds(&model, &gpu, batch, lin + lout / 2);
        let duplex_stage = probe_stage_seconds(&model, &duplex, batch, lin + lout / 2);
        let fleet_qps =
            2.0 * batch as f64 / (lout as f64) * (1.0 / gpu_stage + 1.0 / duplex_stage) / 2.0;
        let requests = scale.requests(batch) * 4;
        let scenario = Scenario::new(
            "mixtral_hetero",
            Workload::gaussian(lin, lout).with_seed(0xFEE7),
            Arrivals::Bursty {
                base_qps: 0.2 * fleet_qps,
                burst_qps: 1.6 * fleet_qps,
                mean_off_s: 6.0 * lout as f64 * duplex_stage,
                mean_on_s: 2.0 * lout as f64 * duplex_stage,
            },
            requests,
        );
        specs.push(ClusterSpec::new(
            "mixtral_hetero",
            model,
            vec![gpu.clone(), gpu, duplex.clone(), duplex],
            batch,
            PolicyKind::Fcfs,
            scenario,
        ));
    }

    specs
}

/// The elastic-autoscaling drill: one diurnal Grok-scale workload
/// offered to three fleet configurations so the elastic fleet's cost
/// and SLO numbers have static goalposts on both sides.
///
/// * `grok_diurnal_autoscale_elastic` — a pool of `peak` Duplex
///   replicas with an [`AutoscalePolicy`] floor of `min`: the
///   autoscaler provisions on the diurnal up-swing (warm-up slowdown,
///   priced parked-KV steal) and drains surplus replicas back to the
///   pool on the down-swing.
/// * `grok_diurnal_autoscale_static_min` — the floor fleet pinned on:
///   saturates at the diurnal peak, cheapest possible bill.
/// * `grok_diurnal_autoscale_static_peak` — the full fleet pinned on:
///   best attainable SLO numbers, idles through every trough.
///
/// The acceptance bar (`tests/integration_cluster.rs`): the elastic
/// fleet holds interactive attainment within 0.03 of the static peak
/// fleet while billing at least 25% fewer replica-seconds.
pub fn autoscale_drill(scale: &Scale) -> Vec<ClusterSpec> {
    let model = ModelConfig::grok1();
    let (d, n) = SystemConfig::default_cluster(&model); // 2x8
    let duplex = SystemConfig::duplex_pe_et(d, n);
    let batch = 16usize;
    let lin = scale.len(2048);
    let lout = scale.len(512);
    let ctx = lin + lout / 2;
    let stage = probe_stage_seconds(&model, &duplex, batch, ctx);
    let replica_qps = batch as f64 / lout as f64 / stage;
    let peak = 6usize;
    let min = 2usize;
    // Mean offered load is ~2.2 replicas' worth; with 0.85 amplitude
    // the diurnal crest needs ~4 replicas and the trough well under
    // one, so the floor fleet saturates at noon and the peak fleet
    // idles at midnight.
    let mean_qps = 2.2 * replica_qps;
    let requests = scale.requests(batch) * peak * 2;
    let span_est = requests as f64 / mean_qps;
    let period_s = span_est / 2.0; // ~two diurnal cycles per run
    let scenario = Scenario::new(
        "grok_diurnal_autoscale",
        Workload::gaussian(lin, lout).with_seed(0xD1A1).with_cv(0.5),
        Arrivals::Diurnal {
            mean_qps,
            period_s,
            amplitude: 0.85,
        },
        requests,
    )
    .with_tiers(Scenario::default_tiers(stage));
    // Quick detection (one hot window scales up), slower release
    // (three calm windows scale down): SLO misses cost more than an
    // extra replica-minute.
    let interval_s = period_s / 64.0;
    let policy = AutoscalePolicy::new(min)
        .with_pressure(0.8, 0.4)
        .with_down_occupancy(0.75)
        .with_cadence(interval_s, 1, 2)
        .with_cooldown(2.0 * interval_s)
        .with_provisioning(interval_s, interval_s, 1.2);
    let spec = |name: &str, replicas: usize, autoscale: Option<AutoscalePolicy>| {
        let base = ClusterSpec::new(
            name,
            model.clone(),
            vec![duplex.clone(); replicas],
            batch,
            PolicyKind::PriorityTiers,
            scenario.clone(),
        );
        match autoscale {
            Some(policy) => base.with_autoscale(policy),
            None => base,
        }
    };
    vec![
        spec("grok_diurnal_autoscale_elastic", peak, Some(policy)),
        spec("grok_diurnal_autoscale_static_min", min, None),
        spec("grok_diurnal_autoscale_static_peak", peak, None),
    ]
}

/// The disaggregation drill: one `long_prefill` Grok-scale workload
/// (long prompts, modest outputs — the regime where prefill stages
/// stall decode tokens) offered to three four-replica fleets so the
/// pool split faces the colocation incumbents directly.
///
/// * `grok_long_prefill_colocated` — plain colocation: whole prompts
///   enter the mixed batch, every co-batched decode eats the full
///   prefill stall.
/// * `grok_long_prefill_chunked` — the PR 5 incumbent: adaptive
///   chunked prefill caps each stall at the occupancy-scaled budget.
/// * `grok_long_prefill_disagg` — a [`DisaggPlan`] pool split (two
///   prefill + two decode replicas): decode stages never co-batch a
///   prompt, finished KV ships over the fleet link.
///
/// Arrivals are sized off *both* pool capacities (probed decode stage
/// and whole-prompt prefill), so every fleet runs loaded but below
/// saturation and the TBT difference is interference, not queueing
/// collapse. The acceptance bar (`tests/integration_cluster.rs`):
/// disaggregation beats the chunked incumbent on fleet TBT p99 while
/// holding at least 90% of its generation throughput.
pub fn grok_disagg(scale: &Scale) -> Vec<ClusterSpec> {
    let model = ModelConfig::grok1();
    let (d, n) = SystemConfig::default_cluster(&model); // 2x8
    let duplex = SystemConfig::duplex_pe_et(d, n);
    let batch = 16usize;
    let lin = scale.len(8192);
    let lout = scale.len(512);
    let ctx = lin + lout / 2;
    let stage = probe_stage_seconds(&model, &duplex, batch, ctx);
    let prefill_s = probe_prefill_seconds(&model, &duplex, lin);
    let replicas = 4usize;
    let split = replicas / 2;
    // Offered load: 55% of the binding pool's capacity — two decode
    // replicas' token rate vs two prefill replicas' prompt rate. Below
    // saturation for every fleet, so the tail drain of the half-size
    // decode pool costs little throughput and the TBT difference is
    // interference, not queueing collapse.
    let decode_qps = split as f64 * batch as f64 / (lout as f64 * stage);
    let prefill_qps = split as f64 / prefill_s;
    let qps = 0.55 * decode_qps.min(prefill_qps);
    // A long span: the half-size decode pool drains the final backlog
    // with half the slots, a constant tail the run length amortizes.
    let requests = scale.requests(batch) * replicas * 3;
    let scenario = Scenario::new(
        "grok_long_prefill",
        Workload::gaussian(lin, lout).with_seed(0xBEEF).with_cv(0.4),
        Arrivals::Poisson { qps },
        requests,
    )
    .with_tiers(Scenario::default_tiers(stage));
    let spec = |name: &str, scenario: Scenario| {
        ClusterSpec::new(
            name,
            model.clone(),
            vec![duplex.clone(); replicas],
            batch,
            PolicyKind::PriorityTiers,
            scenario,
        )
    };
    vec![
        spec("grok_long_prefill_colocated", scenario.clone()),
        spec(
            "grok_long_prefill_chunked",
            scenario
                .clone()
                .with_prefill_chunk_adaptive(scale.len(1024).max(1), lin),
        ),
        spec("grok_long_prefill_disagg", scenario)
            .with_disagg(DisaggPlan::new((0..split).collect())),
    ]
}

/// Build one fleet ready to run: the bound [`ClusterSimulation`] plus
/// per-replica policies and `SystemExecutor`s with replica-local KV
/// budgets, capacity weights probed from each system's decode-stage
/// latency (fastest replica = highest weight). Snapshot/resume callers
/// rebuild executors through this (a resumed fleet needs freshly built
/// executors; the snapshot restores their carried batch state).
#[allow(clippy::type_complexity)]
pub fn build_cluster(
    spec: &ClusterSpec,
) -> (
    ClusterSimulation,
    Vec<Box<dyn SchedulingPolicy>>,
    Vec<SystemExecutor>,
) {
    let executors: Vec<SystemExecutor> = spec
        .systems
        .iter()
        .map(|s| SystemExecutor::new(s.clone(), spec.model.clone(), 7))
        .collect();
    let probe_ctx = spec.scenario.workload.mean_input + spec.scenario.workload.mean_output / 2;
    let configs: Vec<ReplicaConfig> = executors
        .iter()
        .zip(&spec.systems)
        .map(|(ex, system)| {
            let stage_s = probe_stage_seconds(&spec.model, system, spec.batch, probe_ctx);
            ReplicaConfig::new(SimulationConfig {
                max_batch: spec.batch,
                kv_capacity_bytes: ex.kv_capacity_bytes(),
                kv_bytes_per_token: spec.model.kv_bytes_per_token(),
                max_stages: usize::MAX,
                record_stages: false,
            })
            .with_weight(1.0 / stage_s)
        })
        .collect();
    let policies: Vec<Box<dyn SchedulingPolicy>> =
        spec.systems.iter().map(|_| spec.policy.build()).collect();
    let mut sim = ClusterSimulation::new(configs, spec.scenario.clone())
        .with_kv_link(fleet_kv_link(&spec.systems[0]));
    if let Some(plan) = &spec.faults {
        sim = sim.with_faults(plan.clone());
    }
    if let Some(policy) = &spec.autoscale {
        sim = sim.with_autoscale(policy.clone());
    }
    if let Some(plan) = &spec.disagg {
        sim = sim.with_disagg(plan.clone());
    }
    (sim, policies, executors)
}

/// Run one fleet under one router, every replica on the incremental
/// delta fast path.
pub fn run_cluster(spec: &ClusterSpec, router: &mut dyn Router) -> ClusterReport {
    let (sim, mut policies, mut executors) = build_cluster(spec);
    sim.run(router, &mut policies, &mut executors)
}

/// The cluster sweep: every suite fleet under every shipped router.
pub fn clusters(scale: &Scale) -> Vec<ClusterRow> {
    let suite = cluster_suite(scale);
    let mut points = Vec::new();
    for spec in suite {
        for kind in RouterKind::ALL {
            points.push((spec.clone(), kind));
        }
    }
    points
        .into_par_iter()
        .map(|(spec, kind)| {
            let mut router = kind.build();
            let report = run_cluster(&spec, router.as_mut());
            ClusterRow::of(&spec, kind.name(), &report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_params() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert!((rows[0].params_b - 47.0).abs() < 2.0);
        assert!((rows[1].params_b - 143.0).abs() < 6.0);
        assert!((rows[2].params_b - 314.0).abs() < 12.0);
    }

    #[test]
    fn fig08_shape_matches_paper() {
        let rows = fig08_edap();
        let get = |arch: &str, op_b: u64| {
            rows.iter()
                .find(|r| r.arch == arch && r.op_b == op_b)
                .expect("row exists")
                .normalized
        };
        // Bank-PIM is best at Op/B 1, worst at 32 (Fig. 8).
        assert!(get("Bank-PIM", 1) < 0.5);
        assert!(get("Bank-PIM", 32) > get("Logic-PIM", 32));
        // Logic-PIM always beats BankGroup-PIM.
        for op_b in [1u64, 2, 4, 8, 16, 32] {
            assert!(
                get("Logic-PIM", op_b) < get("BankGroup-PIM", op_b),
                "op_b {op_b}"
            );
        }
    }

    #[test]
    fn fig04_fractions_sum_to_one() {
        let rows = fig04_breakdown(&Scale::quick());
        assert!(!rows.is_empty());
        for r in &rows {
            let sum: f64 = r.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{r:?}");
        }
        // MoE + attention dominate decoding-only stages (Sec. III-A).
        let decode_rows: Vec<_> = rows.iter().filter(|r| !r.mixed && r.batch == 64).collect();
        for r in decode_rows {
            assert!(r.fractions[2] + r.fractions[3] > 0.5, "{r:?}");
        }
    }

    #[test]
    fn quick_scale_shrinks() {
        let s = Scale::quick();
        assert_eq!(s.len(2048), 256);
        assert_eq!(s.len(8), 8);
        assert!(s.requests(32) >= 33);
    }

    #[test]
    fn scenario_suite_covers_the_required_shapes() {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let suite = scenario_suite(&Scale::quick(), &model, &system, 64);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        for required in ["bursty", "multi_turn", "slo_tiered"] {
            assert!(names.contains(&required), "missing {required} in {names:?}");
        }
        let chat = suite
            .iter()
            .find(|s| s.name == "multi_turn")
            .expect("chat exists");
        assert!(chat.conversation.is_some());
        let tiered = suite
            .iter()
            .find(|s| s.name == "slo_tiered")
            .expect("tiers exist");
        assert_eq!(tiered.tiers.len(), 3);
        let replay = suite
            .iter()
            .find(|s| s.name == "trace_replay")
            .expect("replay");
        assert!(matches!(replay.arrivals, Arrivals::Trace { .. }));
    }

    #[test]
    fn chunked_prefill_reduces_tbt_tail_at_equal_throughput() {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let suite = scenario_suite(&Scale::quick(), &model, &system, 64);
        let plain = suite
            .iter()
            .find(|s| s.name == "long_prefill")
            .expect("long_prefill")
            .clone();
        let chunked = suite
            .iter()
            .find(|s| s.name == "long_prefill_chunked")
            .expect("chunked variant")
            .clone();
        assert_eq!(plain.prefill_chunk, 0);
        assert!(chunked.prefill_chunk > 0);
        let mut p1 = PolicyKind::Fcfs.build();
        let a = run_scenario(&model, &system, plain, p1.as_mut(), 64);
        let mut p2 = PolicyKind::Fcfs.build();
        let b = run_scenario(&model, &system, chunked, p2.as_mut(), 64);
        // Chunking flattens the mixed-stage TBT tail ...
        assert!(
            b.tbt().p99 < 0.7 * a.tbt().p99,
            "chunked p99 {} vs unchunked {}",
            b.tbt().p99,
            a.tbt().p99
        );
        // ... at (essentially) equal throughput: the same tokens are
        // processed, only per-chunk overheads repeat.
        assert!(
            b.generation_throughput() > 0.85 * a.generation_throughput(),
            "chunked tput {} vs unchunked {}",
            b.generation_throughput(),
            a.generation_throughput()
        );
        assert_eq!(a.completed.len(), b.completed.len());

        // The occupancy-adaptive budget sits between the two: it
        // recovers the fixed chunk's throughput loss (idle slots get
        // big slices) while still flattening the unchunked tail.
        let adaptive = suite
            .iter()
            .find(|s| s.name == "long_prefill_adaptive")
            .expect("adaptive variant")
            .clone();
        assert!(adaptive.adaptive_chunk.is_some());
        let mut p3 = PolicyKind::Fcfs.build();
        let c = run_scenario(&model, &system, adaptive, p3.as_mut(), 64);
        assert!(
            c.tbt().p99 < 0.85 * a.tbt().p99,
            "adaptive p99 {} vs unchunked {}",
            c.tbt().p99,
            a.tbt().p99
        );
        assert!(
            c.generation_throughput() > b.generation_throughput(),
            "adaptive tput {} vs fixed-chunk {}",
            c.generation_throughput(),
            b.generation_throughput()
        );
        assert_eq!(a.completed.len(), c.completed.len());
    }

    #[test]
    fn cluster_suite_covers_the_required_fleets() {
        let suite = cluster_suite(&Scale::quick());
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"grok_chat_tiered"), "{names:?}");
        assert!(names.contains(&"mixtral_hetero"), "{names:?}");
        assert!(names.contains(&"grok_failover"), "{names:?}");
        let drill = suite
            .iter()
            .find(|s| s.name == "grok_failover")
            .expect("failure drill");
        let plan = drill.faults.as_ref().expect("the drill scripts faults");
        assert_eq!(plan.faults.len(), 2, "one crash plus one drain");
        assert!(drill.scenario.conversation.is_some());
        assert!(suite
            .iter()
            .filter(|s| s.name != "grok_failover")
            .all(|s| s.faults.is_none()));
        let grok = suite
            .iter()
            .find(|s| s.name == "grok_chat_tiered")
            .expect("grok fleet");
        // The acceptance fleet: >= 4 Grok-scale (2x8) replicas, a
        // multi-turn + SLO-tiered scenario.
        assert!(grok.systems.len() >= 4);
        for system in &grok.systems {
            assert_eq!(system.devices_per_node, 8);
            assert_eq!(system.nodes, 2);
        }
        assert!(grok.scenario.conversation.is_some());
        assert_eq!(grok.scenario.tiers.len(), 3);
        let hetero = suite
            .iter()
            .find(|s| s.name == "mixtral_hetero")
            .expect("hetero fleet");
        // A genuinely mixed fleet.
        let distinct: std::collections::HashSet<&str> =
            hetero.systems.iter().map(|s| s.name.as_str()).collect();
        assert!(distinct.len() >= 2, "{distinct:?}");
    }

    #[test]
    fn autoscale_drill_brackets_the_elastic_fleet_with_static_goalposts() {
        let drill = autoscale_drill(&Scale::quick());
        let names: Vec<&str> = drill.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "grok_diurnal_autoscale_elastic",
                "grok_diurnal_autoscale_static_min",
                "grok_diurnal_autoscale_static_peak"
            ]
        );
        let elastic = &drill[0];
        let policy = elastic.autoscale.as_ref().expect("the elastic policy");
        assert_eq!(elastic.systems.len(), 6, "pool of six");
        assert_eq!(policy.min_replicas, 2, "floor of two");
        assert_eq!(drill[1].systems.len(), policy.min_replicas);
        assert_eq!(drill[2].systems.len(), elastic.systems.len());
        assert!(drill[1..].iter().all(|s| s.autoscale.is_none()));
        // One diurnal workload shared by all three fleets, tiered so
        // interactive attainment is comparable.
        for spec in &drill {
            assert_eq!(spec.scenario, elastic.scenario);
            assert!(matches!(
                spec.scenario.arrivals,
                Arrivals::Diurnal { amplitude, .. } if amplitude > 0.5
            ));
            assert_eq!(spec.scenario.tiers.len(), 3);
            assert!(spec.faults.is_none());
        }
    }

    #[test]
    fn cluster_run_merges_replica_reports() {
        let suite = cluster_suite(&Scale::quick());
        let spec = suite
            .iter()
            .find(|s| s.name == "mixtral_hetero")
            .expect("hetero fleet");
        let mut router = RouterKind::LeastOutstandingWork.build();
        let report = run_cluster(spec, router.as_mut());
        assert_eq!(report.replicas.len(), spec.systems.len());
        assert_eq!(report.completed(), spec.scenario.requests);
        // Every replica served something, and the fleet totals are the
        // per-replica sums.
        assert!(report.replicas.iter().all(|r| !r.completed.is_empty()));
        let per_replica: usize = report.replicas.iter().map(|r| r.completed.len()).sum();
        assert_eq!(per_replica, report.completed());
        assert!(report.generation_throughput() > 0.0);
        assert!(report.load_imbalance() >= 1.0);
        let row = ClusterRow::of(spec, "least-outstanding", &report);
        assert_eq!(row.replicas, 4);
        assert!(!row.tiered);
    }

    #[test]
    fn fig16_split_hands_every_prompt_to_the_decode_pool() {
        for (lin, lout) in FIG16_SHAPES {
            let (cfg, split) = fig16_point(&Scale::quick(), lin, lout);
            let report = run_cluster(&split, RouterKind::RoundRobin.build().as_mut());
            let requests = cfg.requests;
            assert_eq!(report.completed(), requests, "({lin}, {lout})");
            assert_eq!(report.disagg.handoffs, requests as u64, "({lin}, {lout})");
            assert_eq!(report.disagg.reprefills, 0, "({lin}, {lout})");
            assert!(
                report.replicas[0].completed.is_empty(),
                "({lin}, {lout}): the prefill pool completes nothing"
            );
        }
    }

    #[test]
    fn scenario_run_reports_slo_and_reuse() {
        let model = ModelConfig::mixtral_8x7b();
        let system = SystemConfig::duplex_pe_et(4, 1);
        let scale = Scale::quick();
        let suite = scenario_suite(&scale, &model, &system, 64);
        let chat = suite
            .iter()
            .find(|s| s.name == "multi_turn")
            .expect("chat")
            .clone();
        let mut policy = PolicyKind::Fcfs.build();
        let report = run_scenario(&model, &system, chat, policy.as_mut(), 64);
        assert!(!report.completed.is_empty());
        assert!(report.kv_reuse.reuse_hits > 0, "{:?}", report.kv_reuse);

        let tiered = suite
            .iter()
            .find(|s| s.name == "slo_tiered")
            .expect("tiers")
            .clone();
        let mut policy = PolicyKind::PriorityTiers.build();
        let report = run_scenario(&model, &system, tiered, policy.as_mut(), 64);
        assert_eq!(report.slo.tiers.len(), 3);
        assert!(report.slo_attainment() > 0.0);
        assert!(report.goodput_tokens_per_s() > 0.0);
    }
}

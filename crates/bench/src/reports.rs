//! The figure/table report printers. Each function regenerates one
//! paper artifact and prints it; the thin `--bin` wrappers and the
//! in-process `run_all` driver both call these, so a full report run is
//! one process with one warm bandwidth-profile calibration instead of
//! one `cargo run` subprocess per figure.

use duplex::compute::AreaModel;
use duplex::experiments::{self, Scale};

use crate::{mj, ms, print_table, ratio};

/// Table I: model configurations.
pub fn table1_models() {
    let rows: Vec<Vec<String>> = experiments::table1()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                format!("{:.0}B", r.params_b),
                r.layers.to_string(),
                r.hidden.to_string(),
                r.intermediate.to_string(),
                r.heads.to_string(),
                if r.deg_grp == 1 {
                    "1 (MHA)".into()
                } else {
                    format!("{} (GQA)", r.deg_grp)
                },
                if r.n_experts == 0 {
                    "-".into()
                } else {
                    r.n_experts.to_string()
                },
                if r.top_k == 0 {
                    "-".into()
                } else {
                    r.top_k.to_string()
                },
                format!("{} KiB", r.kv_bytes_per_token >> 10),
            ]
        })
        .collect();
    print_table(
        "Table I: model configurations",
        &[
            "Model", "Param", "#layer", "Hidden", "Interm.", "#head", "deg_grp", "Nex", "top-k",
            "KV/token",
        ],
        &rows,
    );
}

/// Sec. VII-E: area overhead of the Logic-PIM stack components.
pub fn area_table() {
    let a = AreaModel::micro24();
    let rows = vec![
        vec![
            "32 GEMM modules (512 MACs + 8 KB buffer each)".to_string(),
            format!("{:.2}", a.logic_pim_gemm_mm2),
        ],
        vec![
            "2 x 1 MB input/temporal buffers".to_string(),
            format!("{:.2}", a.logic_pim_buffers_mm2),
        ],
        vec![
            "Softmax unit (cmp tree, exp, dividers, 128 KB)".to_string(),
            format!("{:.2}", a.logic_pim_softmax_mm2),
        ],
        vec![
            "Added TSVs (4x per channel, 22 um pitch)".to_string(),
            format!("{:.2}", a.logic_pim_tsv_mm2),
        ],
        vec![
            "Total per Logic-PIM stack".to_string(),
            format!("{:.2}", a.logic_pim_total_mm2()),
        ],
        vec![
            "Fraction of 121 mm^2 HBM3 logic die".to_string(),
            format!("{:.2}%", 100.0 * a.logic_pim_overhead_fraction()),
        ],
    ];
    print_table(
        "Sec. VII-E: Logic-PIM area overhead (mm^2)",
        &["Component", "Area"],
        &rows,
    );
}

/// Fig. 4: stage time breakdown and roofline coordinates.
pub fn fig04(scale: &Scale) {
    let rows: Vec<Vec<String>> = experiments::fig04_breakdown(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.model,
                r.batch.to_string(),
                r.lout.to_string(),
                if r.mixed { "mixed" } else { "decode-only" }.into(),
                ratio(r.fractions[0]),
                ratio(r.fractions[1]),
                ratio(r.fractions[2]),
                ratio(r.fractions[3]),
                ratio(r.fractions[4]),
                ms(r.seconds),
            ]
        })
        .collect();
    print_table(
        "Fig. 4(a): GPU-system time breakdown (fractions)",
        &[
            "Model", "Batch", "Lout", "Stage", "FC", "Attn(P)", "Attn(D)", "MoE", "Comm", "ms",
        ],
        &rows,
    );

    let rows: Vec<Vec<String>> = experiments::fig04_roofline(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.model,
                r.batch.to_string(),
                r.op.into(),
                format!("{:.1}", r.op_b),
                format!("{:.1}", r.tflops),
            ]
        })
        .collect();
    print_table(
        "Fig. 4(b): roofline coordinates on the GPU system (decoding-only)",
        &["Model", "Batch", "Op", "Op/B", "TFLOP/s"],
        &rows,
    );
}

/// Fig. 5: stage ratio, hetero latency and hetero throughput.
pub fn fig05(scale: &Scale) {
    let rows: Vec<Vec<String>> = experiments::fig05_stage_ratio(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                r.lin.to_string(),
                r.lout.to_string(),
                ratio(r.decode_only_fraction),
                ratio(1.0 - r.decode_only_fraction),
            ]
        })
        .collect();
    print_table(
        "Fig. 5(a): stage-type ratio, Mixtral on GPU",
        &["Batch", "Lin", "Lout", "Decode-only", "Mixed"],
        &rows,
    );

    let lat = experiments::fig05_hetero_latency(scale);
    let mut rows = Vec::new();
    for pair in lat.chunks(2) {
        let (gpu, het) = (&pair[0], &pair[1]);
        rows.push(vec![
            gpu.lin.to_string(),
            gpu.lout.to_string(),
            ratio(het.tbt[0] / gpu.tbt[0]),
            ratio(het.tbt[1] / gpu.tbt[1]),
            ratio(het.tbt[2] / gpu.tbt[2]),
            ratio(het.t2ft_p50 / gpu.t2ft_p50),
            ratio(het.e2e_p50 / gpu.e2e_p50),
        ]);
    }
    print_table(
        "Fig. 5(b): hetero latency normalized to 4-GPU (Mixtral, batch 32)",
        &[
            "Lin", "Lout", "TBT p50", "TBT p90", "TBT p99", "T2FT p50", "E2E p50",
        ],
        &rows,
    );

    let rows: Vec<Vec<String>> = experiments::fig05_hetero_throughput(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.lin.to_string(),
                r.lout.to_string(),
                ratio(r.normalized),
                ratio(r.normalized_no_capacity),
                format!("{:.0}", r.hetero_mean_batch),
            ]
        })
        .collect();
    print_table(
        "Fig. 5(c): hetero throughput normalized to GPU (Mixtral, batch 128)",
        &[
            "Lin",
            "Lout",
            "Throughput",
            "No-capacity-limit",
            "Hetero batch",
        ],
        &rows,
    );
}

/// Fig. 8: normalized EDAP of the PIM options by GEMM Op/B.
pub fn fig08() {
    let rows = experiments::fig08_edap();
    let mut table = Vec::new();
    for arch in ["Bank-PIM", "BankGroup-PIM", "Logic-PIM"] {
        let mut row = vec![arch.to_string()];
        for op_b in [1u64, 2, 4, 8, 16, 32] {
            let cell = rows
                .iter()
                .find(|r| r.arch == arch && r.op_b == op_b)
                .expect("cell exists");
            row.push(ratio(cell.normalized));
        }
        table.push(row);
    }
    print_table(
        "Fig. 8: normalized EDAP by GEMM Op/B (lower is better)",
        &["Arch", "1", "2", "4", "8", "16", "32"],
        &table,
    );
}

fn print_throughput(title: &str, rows: Vec<experiments::ThroughputRow>) {
    let table: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| {
            vec![
                r.model,
                r.batch.to_string(),
                format!("({}, {})", r.lin, r.lout),
                r.system,
                format!("{:.0}", r.tokens_per_s),
                ratio(r.normalized),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "Model",
            "Batch",
            "(Lin, Lout)",
            "System",
            "tokens/s",
            "Normalized",
        ],
        &table,
    );
}

/// Fig. 11: normalized throughput across systems and MoE models.
pub fn fig11(scale: &Scale) {
    print_throughput(
        "Fig. 11: throughput normalized to the GPU system",
        experiments::fig11_throughput(scale),
    );
}

/// Fig. 12: GLaM latency across systems.
pub fn fig12(scale: &Scale) {
    let table: Vec<Vec<String>> = experiments::fig12_latency(scale)
        .into_iter()
        .map(|r| {
            vec![
                format!("({}, {})", r.lin, r.lout),
                r.system,
                ms(r.tbt[0]),
                ms(r.tbt[1]),
                ms(r.tbt[2]),
                ms(r.t2ft_p50),
                format!("{:.3}", r.e2e_p50),
            ]
        })
        .collect();
    print_table(
        "Fig. 12: GLaM latency, batch 64 (TBT/T2FT in ms, E2E in s)",
        &[
            "(Lin, Lout)",
            "System",
            "TBT p50",
            "TBT p90",
            "TBT p99",
            "T2FT p50",
            "E2E p50 (s)",
        ],
        &table,
    );
}

/// Fig. 13: Mixtral latency vs offered Poisson load.
pub fn fig13(scale: &Scale) {
    let table: Vec<Vec<String>> = experiments::fig13_qps(scale)
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.qps),
                r.system,
                ms(r.tbt[0]),
                ms(r.tbt[1]),
                ms(r.tbt[2]),
                format!("{:.3}", r.t2ft_p50),
                format!("{:.3}", r.e2e_p50),
            ]
        })
        .collect();
    print_table(
        "Fig. 13: latency vs QPS, Mixtral (4096, 512), max batch 128",
        &[
            "QPS",
            "System",
            "TBT p50",
            "TBT p90",
            "TBT p99",
            "T2FT p50 (s)",
            "E2E p50 (s)",
        ],
        &table,
    );
}

/// Fig. 14: GPU vs Bank-PIM vs Duplex across model classes.
pub fn fig14(scale: &Scale) {
    print_throughput(
        "Fig. 14: throughput normalized to GPU (MoE/GQA/MHA model classes)",
        experiments::fig14_bankpim(scale),
    );
}

/// Fig. 15: per-token energy breakdown of GPU vs Duplex.
pub fn fig15(scale: &Scale) {
    let rows = experiments::fig15_energy(scale);
    // Normalize each (model, batch, lengths) pair to its GPU total.
    let mut table = Vec::new();
    for pair in rows.chunks(2) {
        let (gpu, dup) = (&pair[0], &pair[1]);
        for r in [gpu, dup] {
            table.push(vec![
                r.model.clone(),
                r.batch.to_string(),
                format!("({}, {})", r.lin, r.lout),
                r.system.clone(),
                mj(r.buckets_j[0]),
                mj(r.buckets_j[1]),
                mj(r.buckets_j[2]),
                mj(r.buckets_j[3]),
                mj(r.buckets_j[4]),
                mj(r.buckets_j[5]),
                ratio(r.total_j / gpu.total_j),
            ]);
        }
    }
    print_table(
        "Fig. 15: energy per generated token (mJ; last column normalized to GPU)",
        &[
            "Model",
            "Batch",
            "(Lin, Lout)",
            "System",
            "FC-D",
            "FC-C",
            "Att-D",
            "Att-C",
            "MoE-D",
            "MoE-C",
            "Norm",
        ],
        &table,
    );
}

/// Fig. 16: Duplex vs Duplex-Split disaggregation.
pub fn fig16(scale: &Scale) {
    let rows = experiments::fig16_split(scale);
    let mut table = Vec::new();
    for pair in rows.chunks(2) {
        let (dup, split) = (&pair[0], &pair[1]);
        for r in [dup, split] {
            table.push(vec![
                format!("({}, {})", r.lin, r.lout),
                r.system.clone(),
                ms(r.tbt[0]),
                ms(r.tbt[1]),
                ms(r.tbt[2]),
                format!("{:.3}", r.t2ft_p50),
                format!("{:.3}", r.e2e_p50),
                ratio(r.throughput / dup.throughput),
            ]);
        }
    }
    print_table(
        "Fig. 16: Duplex vs Duplex-Split (TBT ms, T2FT/E2E s, throughput normalized)",
        &[
            "(Lin, Lout)",
            "System",
            "TBT p50",
            "TBT p90",
            "TBT p99",
            "T2FT p50",
            "E2E p50",
            "Tput",
        ],
        &table,
    );
}

/// The scenario-suite sweep: every scenario under every policy, with
/// SLO attainment, goodput and prefix-reuse rates (beyond the paper;
/// see `duplex::experiments::scenarios`).
pub fn scenarios(scale: &Scale) {
    let table: Vec<Vec<String>> = experiments::scenarios(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.cluster,
                r.policy,
                r.completed.to_string(),
                format!("{:.0}", r.throughput),
                if r.tiered {
                    format!("{:.3}", r.attainment)
                } else {
                    "-".into()
                },
                if r.tiered {
                    format!("{:.0}", r.goodput)
                } else {
                    "-".into()
                },
                ms(r.tbt_p99),
                ms(r.t2ft_p50),
                ratio(r.kv_reuse_fraction),
            ]
        })
        .collect();
    print_table(
        "Scenario suite: Mixtral on Duplex+PE+ET, batch 64 (TBT/T2FT in ms)",
        &[
            "Scenario", "Policy", "Done", "tokens/s", "SLO att.", "Goodput", "TBT p99", "T2FT p50",
            "KV reuse",
        ],
        &table,
    );
}

/// The cluster sweep: every suite fleet under every shipped router,
/// with fleet throughput, SLO attainment, KV reuse and load balance
/// (beyond the paper; see `duplex::experiments::clusters`).
pub fn clusters(scale: &Scale) {
    let table: Vec<Vec<String>> = experiments::clusters(scale)
        .into_iter()
        .map(|r| {
            vec![
                r.cluster,
                r.router,
                r.replicas.to_string(),
                r.completed.to_string(),
                format!("{:.0}", r.throughput),
                if r.tiered {
                    format!("{:.3}", r.attainment)
                } else {
                    "-".into()
                },
                if r.tiered {
                    format!("{:.3}", r.interactive_attainment)
                } else {
                    "-".into()
                },
                ms(r.tbt_p99),
                ratio(r.kv_reuse_fraction),
                ratio(r.load_imbalance),
            ]
        })
        .collect();
    print_table(
        "Cluster serving: multi-replica fleets by router (TBT in ms)",
        &[
            "Cluster",
            "Router",
            "Repl",
            "Done",
            "tokens/s",
            "SLO att.",
            "Int. att.",
            "TBT p99",
            "KV reuse",
            "Imbalance",
        ],
        &table,
    );
}

/// Every figure and table, in paper order, in this process, plus the
/// scenario and cluster suites.
pub fn run_all(scale: &Scale) {
    table1_models();
    area_table();
    fig04(scale);
    fig05(scale);
    fig08();
    fig11(scale);
    fig12(scale);
    fig13(scale);
    fig14(scale);
    fig15(scale);
    fig16(scale);
    scenarios(scale);
    clusters(scale);
}

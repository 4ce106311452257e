//! The repository's benchmark. One process runs one workload: identical
//! passes, each built and run from scratch, repeated until the time
//! budget is spent. Host-time metrics are medians over passes, each
//! pass's host times scaled to a reference host speed (see
//! `Calibration`); the simulated (`sim_*`) metrics must repeat bit for
//! bit across passes and, at the default seed, equal the values pinned
//! in `pins.rs`.
//! `README.md` describes every workload and metric.
//!
//! ```text
//! duplex-perfbench --workload <decode_closed|prefill_open|fleet_chat>
//!                  [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <k>]
//! duplex-perfbench --print-pins
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it alternates untraced passes with passes whose executors, router
//! and policies are wrapped in the timers of `trace.rs`, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the exit code is 0 only when every check passed.

mod pins;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use duplex::experiments::{build_cluster, probe_stage_seconds, ClusterSpec};
use duplex::model::ModelConfig;
use duplex::sched::{
    Arrivals, ClusterConfig, ClusterReport, ClusterSimulation, ClusterSnapshot, ConversationSpec,
    PolicyKind, Router, RouterKind, Scenario, SchedulingPolicy, SimReport, Simulation,
    SimulationConfig, StageExecutor, Workload,
};
use duplex::system::exec::StageCost;
use duplex::system::{SystemConfig, SystemExecutor};

use trace::{Counters, Span, TimedExecutor, TimedPolicy, TimedRouter};

/// Expert-routing seed of every executor (expected-value routing makes
/// it inert, but it is part of the executor's identity).
const EXPERT_SEED: u64 = 7;
/// `prefill_open`'s offered load: far above what batch 256 serves, so
/// admission is batch-limited and nearly every stage is mixed.
const PREFILL_QPS: f64 = 50_000.0;
/// Rounds per `fleet_chat` conversation (every round spawns the next).
const FLEET_ROUNDS: usize = 4;
/// `fleet_chat`'s arrival rate as a share of the `grok_chat_tiered`
/// suite's mean rate. At the suite's own rate the backlog grows with
/// run length; at this share the fleet is stationary.
const FLEET_LOAD: f64 = 0.3;
const FLEET_ROUTER: RouterKind = RouterKind::SessionAffinity;
/// Three Duplex+PE+ET replicas and one GPU straggler.
const FLEET_REPLICAS: usize = 4;
/// A `fleet_chat` pass pauses when this many conversations are expected
/// to have arrived. Decoding a snapshot costs time quadratic in its
/// length (`json::parse_string` re-validates the rest of the document
/// for every string character), and the snapshot grows with the records
/// completed before the pause: pausing halfway through 1,200
/// conversations made decoding ~90% of the pass; after 60 of 2,400 it
/// is ~6% (a 52 KB snapshot).
const FLEET_PAUSE_CONVERSATIONS: f64 = 60.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DecodeClosed,
    PrefillOpen,
    FleetChat,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::DecodeClosed, Kind::PrefillOpen, Kind::FleetChat];

    fn name(self) -> &'static str {
        match self {
            Kind::DecodeClosed => "decode_closed",
            Kind::PrefillOpen => "prefill_open",
            Kind::FleetChat => "fleet_chat",
        }
    }

    /// Pass size at scale 1: requests, or conversations for the fleet.
    fn units(self) -> usize {
        match self {
            Kind::DecodeClosed => 2_000,
            Kind::PrefillOpen => 100_000,
            Kind::FleetChat => 2_400,
        }
    }

    /// Threads a pass prices stages on. A `Simulation` runs on one. The
    /// fleet steps its replica windows in parallel when
    /// `ClusterConfig::default()` resolves to more than one thread; the
    /// vendored pool then runs them on one thread per core (capped by
    /// `RAYON_NUM_THREADS`), at most one per replica.
    fn threads(self) -> usize {
        if self != Kind::FleetChat || ClusterConfig::default().effective_threads() <= 1 {
            return 1;
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(nproc);
        cap.min(nproc).min(FLEET_REPLICAS)
    }

    /// Requests a pass of `units` offers.
    fn offered(self, units: usize) -> u64 {
        match self {
            Kind::FleetChat => (units * FLEET_ROUNDS) as u64,
            _ => units as u64,
        }
    }
}

/// Deterministic simulated outputs of one pass, in a fixed order.
type SimValues = Vec<(&'static str, f64)>;

/// Host time a traced pass spent in each timed layer.
#[derive(Debug, Default)]
struct Layers {
    /// Indexed by `StageClass as usize`.
    exec: [Span; 3],
    router: Span,
    policy: Span,
    snapshot_ns: u64,
}

impl Layers {
    /// Add `other`'s spans with their times multiplied by `scale`.
    fn merge_scaled(&mut self, other: &Layers, scale: f64) {
        let scaled = |s: &Span| Span {
            calls: s.calls,
            ns: (s.ns as f64 * scale) as u64,
        };
        for (a, b) in self.exec.iter_mut().zip(&other.exec) {
            a.merge(&scaled(b));
        }
        self.router.merge(&scaled(&other.router));
        self.policy.merge(&scaled(&other.policy));
        self.snapshot_ns += (other.snapshot_ns as f64 * scale) as u64;
    }
}

/// One pass: host times, stage count and simulated outputs.
struct Pass {
    /// Executor and fleet construction, capacity probes, and (for
    /// `fleet_chat`) the rebuild before resuming.
    setup_s: f64,
    /// Everything else: the simulation itself plus snapshot I/O.
    run_s: f64,
    /// Factor that scales this pass's host times to the reference host
    /// speed (see `Calibration`); 1 until the caller measures it.
    host_scale: f64,
    stages: u64,
    completed: u64,
    sim: SimValues,
    layers: Layers,
}

#[derive(Debug, PartialEq)]
enum Report {
    Sim(SimReport),
    Fleet(ClusterReport),
}

/// What the harness reads back from an executor after a run.
trait Probe: StageExecutor + Send {
    fn cost(&self) -> &StageCost;
    fn spans(&self) -> [Span; 3];
}

impl Probe for SystemExecutor {
    fn cost(&self) -> &StageCost {
        self.total_cost()
    }

    fn spans(&self) -> [Span; 3] {
        [Span::default(); 3]
    }
}

impl Probe for TimedExecutor<SystemExecutor> {
    fn cost(&self) -> &StageCost {
        self.inner.total_cost()
    }

    fn spans(&self) -> [Span; 3] {
        self.spans
    }
}

fn sim_values(report: &Report, cost: &StageCost, snapshot_bytes: usize) -> SimValues {
    let (tokens_per_s, tbt, t2ft, tokens, interactive, stats, kv, imbalance) = match report {
        // A single system has no tiers (no request carries a deadline
        // to miss) and is trivially balanced.
        Report::Sim(r) => (
            r.generation_throughput(),
            r.tbt(),
            r.t2ft(),
            r.generated_tokens(),
            1.0,
            r.stage_stats,
            r.kv_reuse,
            1.0,
        ),
        Report::Fleet(r) => (
            r.generation_throughput(),
            r.tbt(),
            r.t2ft(),
            r.generated_tokens(),
            r.slo().tiers.first().map_or(0.0, |t| t.attainment()),
            r.stage_stats(),
            r.kv_reuse(),
            r.load_imbalance(),
        ),
    };
    let time = &cost.time;
    let serial_s = time.total();
    let energy = &cost.energy;
    vec![
        ("sim_tokens_per_s", tokens_per_s),
        ("sim_tbt_p50_ms", tbt.p50 * 1e3),
        ("sim_tbt_p99_ms", tbt.p99 * 1e3),
        ("sim_t2ft_p50_ms", t2ft.p50 * 1e3),
        ("sim_t2ft_p99_ms", t2ft.p99 * 1e3),
        ("sim_j_per_token", energy.total() / tokens as f64),
        ("sim_interactive_attainment", interactive),
        ("model.fc_share", time.fc / serial_s),
        ("model.attn_prefill_share", time.attn_prefill / serial_s),
        ("model.attn_decode_share", time.attn_decode / serial_s),
        ("model.moe_share", time.moe / serial_s),
        ("model.comm_share", time.comm / serial_s),
        (
            "model.dram_energy_share",
            (energy.fc_dram + energy.attn_dram + energy.moe_dram) / energy.total(),
        ),
        (
            "stage.mixed_fraction",
            stats.mixed as f64 / stats.stages as f64,
        ),
        (
            "stage.mean_batch",
            stats.batch_sum as f64 / stats.stages as f64,
        ),
        ("kv.reuse_fraction", kv.reuse_fraction()),
        ("kv.parked_evictions", kv.parked_evictions as f64),
        ("fleet.load_imbalance", imbalance),
        ("snapshot.bytes", snapshot_bytes as f64),
        ("stages", stats.stages as f64),
    ]
}

fn sim_value(values: &SimValues, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("no simulated value named {name}"))
}

fn same_bits(a: &[(&str, f64)], b: &[(&str, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

/// One `Simulation` pass on Mixtral-8x7B over four Duplex+PE+ET devices.
fn sim_pass<E: Probe>(
    kind: Kind,
    seed: u64,
    requests: usize,
    wrap: fn(SystemExecutor) -> E,
) -> Result<(Pass, Report), String> {
    let (workload, max_batch, qps) = match kind {
        Kind::DecodeClosed => (Workload::gaussian(512, 4096), 64, None),
        Kind::PrefillOpen => (Workload::gaussian(128, 32), 256, Some(PREFILL_QPS)),
        Kind::FleetChat => unreachable!("fleet_chat runs through fleet_pass"),
    };
    let workload = workload.with_seed(seed);
    let model = ModelConfig::mixtral_8x7b();

    let start = Instant::now();
    let executor =
        SystemExecutor::new(SystemConfig::duplex_pe_et(4, 1), model.clone(), EXPERT_SEED);
    let config = SimulationConfig {
        max_batch,
        kv_capacity_bytes: executor.kv_capacity_bytes(),
        kv_bytes_per_token: model.kv_bytes_per_token(),
        max_stages: usize::MAX,
        record_stages: false,
    };
    let mut executor = wrap(executor);
    let sim = match qps {
        Some(qps) => Simulation::poisson(config, workload, qps, requests),
        None => Simulation::closed_loop(config, workload, requests),
    };
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = sim.run(&mut executor);
    let run_s = start.elapsed().as_secs_f64();

    let (stages, completed) = (report.stage_stats.stages, report.completed.len() as u64);
    let report = Report::Sim(report);
    let pass = Pass {
        setup_s,
        run_s,
        host_scale: 1.0,
        stages,
        completed,
        sim: sim_values(&report, executor.cost(), 0),
        layers: Layers {
            exec: executor.spans(),
            ..Layers::default()
        },
    };
    Ok((pass, report))
}

/// The `grok_chat_tiered` fleet of `duplex::experiments::cluster_suite`
/// at paper lengths, rebuilt from the public builders: three
/// Duplex+PE+ET 2x8 replicas and one GPU straggler serving Grok-1 at
/// batch 16, 4-round chat, SLO tiers, priority-EDF admission. Returns
/// the spec and the virtual time a pass pauses at.
///
/// Arrivals are Poisson at `FLEET_LOAD` of the suite's mean rate, not
/// the suite's on/off bursts: those sojourns last 10 and 30 request
/// lifetimes, so a pass sees only ~10 bursts and its outputs swing with
/// the seed (sim_tokens_per_s by 69% and host stages/s by 95%,
/// quartile distance over median across seeds), far beyond any bound.
fn fleet_spec(seed: u64, conversations: usize) -> (ClusterSpec, f64) {
    let model = ModelConfig::grok1();
    let (devices, nodes) = SystemConfig::default_cluster(&model);
    let duplex = SystemConfig::duplex_pe_et(devices, nodes);
    let gpu = SystemConfig::gpu(devices, nodes);
    let batch = 16usize;
    let (lin, lout, turn) = (2048u64, 512u64, 256u64);
    let ctx = lin + lout / 2;
    let duplex_stage = probe_stage_seconds(&model, &duplex, batch, ctx);
    let gpu_stage = probe_stage_seconds(&model, &gpu, batch, ctx);
    let life_s = lout as f64 * duplex_stage;
    let fleet_qps = batch as f64 / lout as f64 * (3.0 / duplex_stage + 1.0 / gpu_stage);
    // The suite's first-round rate: 0.2x fleet capacity on average over
    // its bursts.
    let qps = FLEET_LOAD * 0.2 * fleet_qps;
    let scenario = Scenario::new(
        "fleet_chat",
        Workload::gaussian(lin, lout).with_seed(seed).with_cv(0.6),
        Arrivals::Poisson { qps },
        conversations,
    )
    .with_conversation(ConversationSpec::chat(
        1.0,
        FLEET_ROUNDS as u32,
        0.5 * life_s,
        turn,
    ))
    .with_tiers(Scenario::default_tiers(duplex_stage));
    let systems = vec![duplex.clone(), duplex.clone(), duplex, gpu];
    debug_assert_eq!(systems.len(), FLEET_REPLICAS);
    let spec = ClusterSpec::new(
        "fleet_chat",
        model,
        systems,
        batch,
        PolicyKind::PriorityTiers,
        scenario,
    );
    let pause = FLEET_PAUSE_CONVERSATIONS.min(0.5 * conversations as f64);
    (spec, pause / qps)
}

/// One built fleet: the cluster and everything it runs against.
struct Fleet<E> {
    sim: ClusterSimulation,
    router: Box<dyn Router>,
    policies: Vec<Box<dyn SchedulingPolicy>>,
    executors: Vec<E>,
    /// Router and per-replica policy counters, when traced.
    counters: Option<(Arc<Counters>, Vec<Arc<Counters>>)>,
}

impl<E: Probe> Fleet<E> {
    /// Build through `build_cluster` under `ClusterConfig::default()`,
    /// the configuration `experiments::run_cluster` gives users.
    fn build(spec: &ClusterSpec, traced: bool, wrap: fn(SystemExecutor) -> E) -> Self {
        let (sim, policies, executors) = build_cluster(spec);
        let sim = sim.with_config(ClusterConfig::default());
        let executors = executors.into_iter().map(wrap).collect();
        let router = FLEET_ROUTER.build();
        if !traced {
            return Self {
                sim,
                router,
                policies,
                executors,
                counters: None,
            };
        }
        let (router, router_counters) = TimedRouter::wrap(router);
        let (policies, policy_counters) = policies.into_iter().map(TimedPolicy::wrap).unzip();
        Self {
            sim,
            router,
            policies,
            executors,
            counters: Some((router_counters, policy_counters)),
        }
    }

    /// Add this fleet's executor totals and call counters.
    fn collect(&self, cost: &mut StageCost, layers: &mut Layers) {
        for executor in &self.executors {
            *cost += *executor.cost();
            for (acc, span) in layers.exec.iter_mut().zip(executor.spans()) {
                acc.merge(&span);
            }
        }
        if let Some((router, policies)) = &self.counters {
            layers.router.merge(&router.span());
            for policy in policies {
                layers.policy.merge(&policy.span());
            }
        }
    }
}

/// One `fleet_chat` pass: run to the pause point, round-trip the
/// snapshot through JSON, and resume on freshly built executors.
fn fleet_pass<E: Probe>(
    seed: u64,
    conversations: usize,
    traced: bool,
    wrap: fn(SystemExecutor) -> E,
) -> Result<(Pass, Report), String> {
    let start = Instant::now();
    let (spec, pause_s) = fleet_spec(seed, conversations);
    let mut fleet = Fleet::build(&spec, traced, wrap);
    let mut setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let paused = fleet.sim.run_until(
        fleet.router.as_mut(),
        &mut fleet.policies,
        &mut fleet.executors,
        pause_s,
    );
    let mut run_s = start.elapsed().as_secs_f64();
    let snapshot = paused
        .snapshot()
        .ok_or("fleet_chat drained before its pause point")?;

    let start = Instant::now();
    let text = snapshot.to_json();
    let restored = ClusterSnapshot::from_json(&text)?;
    let snapshot_s = start.elapsed().as_secs_f64();
    run_s += snapshot_s;
    if restored != snapshot {
        return Err("the snapshot does not survive its JSON round trip".into());
    }

    let mut cost = StageCost::default();
    let mut layers = Layers {
        snapshot_ns: (snapshot_s * 1e9) as u64,
        ..Layers::default()
    };
    fleet.collect(&mut cost, &mut layers);

    let start = Instant::now();
    let mut fleet = Fleet::build(&spec, traced, wrap);
    setup_s += start.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = fleet.sim.resume(
        &restored,
        fleet.router.as_mut(),
        &mut fleet.policies,
        &mut fleet.executors,
    )?;
    run_s += start.elapsed().as_secs_f64();
    fleet.collect(&mut cost, &mut layers);

    let (stages, completed) = (report.stages(), report.completed() as u64);
    let report = Report::Fleet(report);
    let pass = Pass {
        setup_s,
        run_s,
        host_scale: 1.0,
        stages,
        completed,
        sim: sim_values(&report, &cost, text.len()),
        layers,
    };
    Ok((pass, report))
}

fn run_pass(kind: Kind, seed: u64, units: usize, traced: bool) -> Result<(Pass, Report), String> {
    let plain: fn(SystemExecutor) -> SystemExecutor = |e| e;
    match (kind, traced) {
        (Kind::FleetChat, false) => fleet_pass(seed, units, false, plain),
        (Kind::FleetChat, true) => fleet_pass(seed, units, true, TimedExecutor::new),
        (_, false) => sim_pass(kind, seed, units, plain),
        (_, true) => sim_pass(kind, seed, units, TimedExecutor::new),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Host seconds [`Calibration::sample`] takes on the reference host.
/// Every host time a pass reports is scaled by this over the sample
/// time measured around that pass.
const CALIBRATION_REF_S: f64 = 1e-3;

/// A fixed piece of work, independent of the simulator, timed before
/// and after every pass to measure how fast the host runs right then.
///
/// On a shared machine the neighbours' load moves the speed of every
/// pass by up to ~1.7x, in stretches from seconds to minutes, so raw
/// host times of identical passes spread by ~20% between runs. Sorting
/// a fixed array of floats slows down with the simulator (both are
/// branchy, cache-resident code) and scaling by it cut that spread to
/// ~3% in a trial of eight 20-second runs; no other kernel tried
/// (integer hashing, a floating-point chain, a memory stream) did as
/// well.
struct Calibration {
    data: Vec<f64>,
}

impl Calibration {
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64
            })
            .collect();
        Self { data }
    }

    /// Host seconds one sort of the fixed array takes now.
    fn sample(&self) -> f64 {
        let mut copy = self.data.clone();
        let start = Instant::now();
        copy.sort_by(f64::total_cmp);
        std::hint::black_box(&copy);
        start.elapsed().as_secs_f64()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: usize,
}

const USAGE: &str = "usage: duplex-perfbench --workload <decode_closed|prefill_open|fleet_chat> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <k>]\n       duplex-perfbench --print-pins";

enum Command {
    Run(Args),
    PrintPins,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut kind = None;
    let mut seed = pins::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = 1usize;
    while let Some(flag) = args.next() {
        if flag == "--print-pins" {
            return Ok(Command::PrintPins);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                scale = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=64).contains(&scale) {
                    return Err(bad("expected 1 to 64"));
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        kind,
        seed,
        seconds,
        trace,
        scale,
    }))
}

/// Regenerate `pins.rs`: the simulated outputs of every workload at the
/// default seed.
fn print_pins() -> Result<(), String> {
    println!("//! Simulated outputs of every workload at the default seed and scale");
    println!("//! 1, bit for bit. Generated by `python3 perfbench/run.py --print-pins`;");
    println!("//! regenerate only for a change meant to move the modeled numbers.");
    println!();
    println!("pub const DEFAULT_SEED: u64 = {};", pins::DEFAULT_SEED);
    println!();
    println!("pub const PINS: &[(&str, &[(&str, f64)])] = &[");
    for kind in Kind::ALL {
        let (pass, _) = run_pass(kind, pins::DEFAULT_SEED, kind.units(), false)?;
        println!("    (");
        println!("        {:?},", kind.name());
        println!("        &[");
        for (name, value) in &pass.sim {
            println!("            ({name:?}, {value:?}),");
        }
        println!("        ],");
        println!("    ),");
    }
    println!("];");
    Ok(())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every pass of one run, split by whether it was traced.
struct Run {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    reference: Option<SimValues>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Run {
    let units = args.kind.units() * args.scale;
    let offered = args.kind.offered(units);
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 4 } else { 3 };
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let calibration = Calibration::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed() < budget {
        let traced = args.trace && i % 2 == 1;
        run.attempted += offered;
        let before = calibration.sample();
        let result = run_pass(args.kind, args.seed, units, traced);
        let after = calibration.sample();
        match result {
            Err(e) => {
                eprintln!("pass {i}: {e}");
                run.failed += offered;
            }
            Ok((mut pass, _)) => {
                pass.host_scale = CALIBRATION_REF_S / (0.5 * (before + after));
                let completed = pass.completed.min(offered);
                run.failed += offered - completed;
                let reference = run.reference.get_or_insert_with(|| pass.sim.clone());
                if !same_bits(reference, &pass.sim) {
                    eprintln!("pass {i}: simulated outputs differ from the first pass");
                    run.failed += completed;
                } else if traced {
                    run.traced.push(pass);
                } else {
                    run.untraced.push(pass);
                }
            }
        }
        i += 1;
    }
    if args.seed == pins::DEFAULT_SEED && args.scale == 1 {
        if let Some(reference) = &run.reference {
            if let Err(e) = check_pins(args.kind, reference) {
                eprintln!("{e}");
                run.failed = run.attempted;
            }
        }
    }
    run
}

fn check_pins(kind: Kind, values: &SimValues) -> Result<(), String> {
    let pinned = pins::PINS
        .iter()
        .find(|(name, _)| *name == kind.name())
        .map(|(_, values)| *values)
        .ok_or_else(|| format!("{}: no pinned values", kind.name()))?;
    if same_bits(pinned, values) {
        return Ok(());
    }
    let mut msg = format!("{}: simulated outputs differ from pins.rs:", kind.name());
    for ((name, want), (_, got)) in pinned.iter().zip(values) {
        if want.to_bits() != got.to_bits() {
            msg.push_str(&format!("\n  {name}: pinned {want:?}, got {got:?}"));
        }
    }
    Err(msg)
}

fn stages_per_s(passes: &[Pass]) -> f64 {
    median(
        passes
            .iter()
            .map(|p| p.stages as f64 / (p.run_s * p.host_scale))
            .collect(),
    )
}

fn end_to_end(run: &Run, sim: &SimValues) -> Vec<Metric> {
    let passes = &run.untraced;
    let completed = run.attempted - run.failed.min(run.attempted);
    let mut metrics = vec![
        metric("host_stages_per_s", stages_per_s(passes), "1/s"),
        metric(
            "setup_s",
            median(passes.iter().map(|p| p.setup_s * p.host_scale).collect()),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "completed_fraction",
            ratio(completed as f64, run.attempted as f64),
            "fraction",
        ),
    ];
    for (name, unit) in [
        ("sim_tokens_per_s", "tok/s"),
        ("sim_tbt_p50_ms", "ms"),
        ("sim_tbt_p99_ms", "ms"),
        ("sim_t2ft_p50_ms", "ms"),
        ("sim_t2ft_p99_ms", "ms"),
        ("sim_j_per_token", "J/tok"),
        ("sim_interactive_attainment", "fraction"),
    ] {
        metrics.push(metric(name, sim_value(sim, name), unit));
    }
    metrics
}

fn per_layer(kind: Kind, run: &Run, sim: &SimValues) -> Vec<Metric> {
    let passes = &run.traced;
    let n = passes.len().max(1) as f64;
    let mut layers = Layers::default();
    let (mut run_ns, mut stages) = (0.0, 0u64);
    for p in passes {
        layers.merge_scaled(&p.layers, p.host_scale);
        run_ns += p.run_s * p.host_scale * 1e9;
        stages += p.stages;
    }
    // Layer times are summed over the threads that priced stages, so
    // they are set against thread time: every thread for the whole
    // simulation, and the main thread alone for the snapshot round trip.
    // Idle and waiting threads count as stepping time.
    let snapshot_ns = layers.snapshot_ns as f64;
    let run_ns = kind.threads() as f64 * (run_ns - snapshot_ns) + snapshot_ns;
    let [advance, rebuild, mixed] = layers.exec;
    let exec_ns = (advance.ns + rebuild.ns + mixed.ns) as f64;
    let exec_calls = (advance.calls + rebuild.calls + mixed.calls) as f64;
    let per_call = |s: Span| ratio(s.ns as f64, s.calls as f64);
    let per_stage = |ns: f64| ratio(ns, stages as f64);
    let mut metrics = vec![
        metric("exec.share", ratio(exec_ns, run_ns), "fraction"),
        metric(
            "exec.fast_path_fraction",
            ratio((advance.calls + rebuild.calls) as f64, exec_calls),
            "fraction",
        ),
        metric("exec.advance.calls", advance.calls as f64 / n, "count"),
        metric("exec.rebuild.calls", rebuild.calls as f64 / n, "count"),
        metric("exec.mixed.calls", mixed.calls as f64 / n, "count"),
        metric("exec.advance.ns_per_call", per_call(advance), "ns"),
        metric("exec.rebuild.ns_per_call", per_call(rebuild), "ns"),
        metric("exec.mixed.ns_per_call", per_call(mixed), "ns"),
        metric(
            "scheduler.self_ns_per_stage",
            per_stage(run_ns - exec_ns),
            "ns",
        ),
        metric(
            "cluster.self_ns_per_stage",
            per_stage(
                run_ns - exec_ns - (layers.router.ns + layers.policy.ns) as f64 - snapshot_ns,
            ),
            "ns",
        ),
        metric("cluster.threads", kind.threads() as f64, "count"),
        metric("router.calls", layers.router.calls as f64 / n, "count"),
        metric(
            "router.share",
            ratio(layers.router.ns as f64, run_ns),
            "fraction",
        ),
        metric("policy.calls", layers.policy.calls as f64 / n, "count"),
        metric(
            "policy.share",
            ratio(layers.policy.ns as f64, run_ns),
            "fraction",
        ),
        metric("snapshot.bytes", sim_value(sim, "snapshot.bytes"), "bytes"),
        metric("snapshot.share", ratio(snapshot_ns, run_ns), "fraction"),
    ];
    for (name, unit) in [
        ("stage.mixed_fraction", "fraction"),
        ("stage.mean_batch", "requests"),
        ("kv.reuse_fraction", "fraction"),
        ("kv.parked_evictions", "count"),
        ("fleet.load_imbalance", "ratio"),
        ("model.fc_share", "fraction"),
        ("model.attn_prefill_share", "fraction"),
        ("model.attn_decode_share", "fraction"),
        ("model.moe_share", "fraction"),
        ("model.comm_share", "fraction"),
        ("model.dram_energy_share", "fraction"),
    ] {
        metrics.push(metric(name, sim_value(sim, name), unit));
    }
    metrics.push(metric(
        "trace.overhead",
        ratio(stages_per_s(&run.untraced), stages_per_s(passes)),
        "ratio",
    ));
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::PrintPins) => {
            return match print_pins() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // The fleet steps replica windows on `effective_threads()` workers;
    // more workers than cores would time the operating system's
    // scheduler, not the simulator.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ClusterConfig::default().effective_threads();
    let env_threads = std::env::var("DUPLEX_THREADS").ok();
    println!(
        "# workload {} seed {} scale {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc {nproc}, ClusterConfig::default().effective_threads() {threads}, DUPLEX_THREADS {}, \
         pricing threads {}",
        env_threads.as_deref().unwrap_or("unset"),
        args.kind.threads()
    );
    if threads > nproc {
        eprintln!("the fleet would run {threads} threads on {nproc} cores; lower DUPLEX_THREADS");
        return ExitCode::from(2);
    }

    let run = run(&args);
    let sim = run.reference.clone().unwrap_or_default();
    let complete =
        !sim.is_empty() && !run.untraced.is_empty() && (!args.trace || !run.traced.is_empty());
    let mut metrics = if !complete {
        Vec::new()
    } else if args.trace {
        per_layer(args.kind, &run, &sim)
    } else {
        end_to_end(&run, &sim)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in &mut metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    let correct = complete && finite && run.failed == 0;

    println!(
        "# passes: {} untraced, {} traced; requests attempted {}, failed {}",
        run.untraced.len(),
        run.traced.len(),
        run.attempted,
        run.failed
    );
    for m in &metrics {
        println!("{:<28} {:>20} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplex::model::ops::StageShape;
    use duplex::sched::StageDelta;
    use trace::StageClass;

    /// Pass sizes small enough for a debug-build test.
    fn small(kind: Kind) -> usize {
        match kind {
            Kind::DecodeClosed => 24,
            Kind::PrefillOpen => 600,
            Kind::FleetChat => 24,
        }
    }

    #[test]
    fn wrapped_run_reports_equal_unwrapped_run_reports() {
        for kind in Kind::ALL {
            let (plain, plain_report) = run_pass(kind, 3, small(kind), false).expect("plain pass");
            let (timed, timed_report) = run_pass(kind, 3, small(kind), true).expect("timed pass");
            assert_eq!(plain_report, timed_report, "{}", kind.name());
            assert!(same_bits(&plain.sim, &timed.sim), "{}", kind.name());
            assert_eq!(
                plain.completed,
                kind.offered(small(kind)),
                "{}",
                kind.name()
            );
            let priced: u64 = timed.layers.exec.iter().map(|s| s.calls).sum();
            assert_eq!(
                priced,
                timed.stages,
                "{}: one executor call per stage",
                kind.name()
            );
            if kind == Kind::FleetChat {
                assert!(timed.layers.router.calls > 0 && timed.layers.policy.calls > 0);
            }
        }
    }

    /// The executor does not expose which path priced a stage, so this
    /// drives a real one (which panics on a delta that does not fit its
    /// batch) through every case the classifier tells apart, and checks
    /// the class each call was timed under.
    #[test]
    fn classifier_tracks_the_executor_template() {
        let mut executor = TimedExecutor::new(SystemExecutor::new(
            SystemConfig::duplex_pe_et(4, 1),
            ModelConfig::mixtral_8x7b(),
            EXPERT_SEED,
        ));
        let step = |executor: &mut TimedExecutor<SystemExecutor>,
                    delta: Option<StageDelta>,
                    shape: StageShape| {
            let before = executor.spans;
            match delta {
                Some(delta) => executor.execute_delta(&delta, &shape),
                None => executor.execute(&shape),
            };
            let moved: Vec<usize> = (0..3)
                .filter(|&c| executor.spans[c].calls != before[c].calls)
                .collect();
            assert_eq!(moved.len(), 1, "one class per call");
            [StageClass::Advance, StageClass::Rebuild, StageClass::Mixed][moved[0]]
        };
        let advance = || Some(StageDelta::default());
        let decode = |ctx: &[u64]| StageShape::decode_only(ctx);

        let mut start = StageDelta::start();
        start.admit.extend([16, 16]);
        let admitted = StageShape::mixed(&[], &[16, 16]);
        assert_eq!(
            step(&mut executor, Some(start), admitted),
            StageClass::Mixed
        );
        // The admissions join, and the mixed stage dropped the template.
        let joined = step(&mut executor, advance(), decode(&[17, 17]));
        assert_eq!(joined, StageClass::Rebuild);
        let next = step(&mut executor, advance(), decode(&[18, 18]));
        assert_eq!(next, StageClass::Advance);
        let retire = StageDelta {
            retire: vec![19],
            ..StageDelta::default()
        };
        assert_eq!(
            step(&mut executor, Some(retire), decode(&[19])),
            StageClass::Rebuild
        );
        assert_eq!(
            step(&mut executor, advance(), decode(&[20])),
            StageClass::Advance
        );
        let chunk = StageDelta {
            chunk: vec![(8, 0)],
            ..StageDelta::default()
        };
        let chunked = StageShape::mixed(&[21], &[8]);
        assert_eq!(step(&mut executor, Some(chunk), chunked), StageClass::Mixed);
        assert_eq!(
            step(&mut executor, advance(), decode(&[22])),
            StageClass::Rebuild
        );
        // A whole shape desyncs the batch; the next delta resyncs on the
        // full path and the one after rebuilds.
        assert_eq!(step(&mut executor, None, decode(&[23])), StageClass::Mixed);
        assert_eq!(
            step(&mut executor, advance(), decode(&[24])),
            StageClass::Mixed
        );
        assert_eq!(
            step(&mut executor, advance(), decode(&[25])),
            StageClass::Rebuild
        );
        assert_eq!(
            step(&mut executor, advance(), decode(&[26])),
            StageClass::Advance
        );
        // An imported batch has no template.
        let checkpoint = executor.export_batch().expect("SystemExecutor checkpoints");
        executor.import_batch(&checkpoint);
        assert_eq!(
            step(&mut executor, advance(), decode(&[27])),
            StageClass::Rebuild
        );
        assert_eq!(
            step(&mut executor, advance(), decode(&[28])),
            StageClass::Advance
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload fleet_chat --seed 4 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fleet_chat --trace 2").is_err());
        assert!(parse("--workload fleet_chat --seconds 0").is_err());
        assert!(parse("--seed 4").is_err());
        assert!(parse("--workload").is_err());
    }
}

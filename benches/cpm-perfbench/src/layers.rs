//! The traced run: per-layer host time, timed from the benchmark's side
//! of each layer's public calls, and its reconciliation with the untraced
//! op.
//!
//! Every traced run measures every layer, whatever its workload; the
//! workload picks which chip the workload-specific metrics
//! (`sim.chip_step_us`, `thermal.step_us`, `sim.dvfs_transitions_per_op`,
//! `obs.events_per_op`, `trace.overhead_frac`) describe. `NOTES.md` maps
//! each metric to the end-to-end metric it should move.

use crate::check::Replay;
use crate::cli::{spawn_child, Args, ChildReport, Workload};
use crate::clock::{Budget, Stopwatch};
use crate::kilocore::{self, verify_shadow};
use crate::paper::{Paper, SCHEMES};
use crate::report::RunResult;
use crate::scenarios::{shadow_run, Scenarios, Stages};
use crate::spans::{Laps, Layer, Spans, LAYERS};
use crate::stats::p50;
use cpm_bench::microbench::measure;
use cpm_bench::perf::run_perf;
use cpm_bench::scenario::scenario_stem;
use cpm_core::maxbips::{MaxBips, MaxBipsObservation};
use cpm_power::LeakageModel;
use cpm_runtime::Pool;
use cpm_scenario::{run_scenario, CATALOGUE};
use cpm_sim::{Chip, ChipSnapshot, CmpConfig};
use cpm_thermal::ThermalGrid;
use cpm_units::Watts;
use cpm_workloads::{Mix, WorkloadAssignment};
use std::hint::black_box;

/// Lock-step PIC intervals the shadow chip step is checked over.
pub const SHADOW_CHECK_STEPS: usize = 120;

/// How far the traced kilocore op's summed layer self times may stray
/// from the untraced op, as a share of it.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Median host seconds per call of `f`, by `cpm-bench`'s micro-benchmark
/// protocol (warm-up, calibrated batches, median batch).
fn per_call<R>(f: impl FnMut() -> R) -> f64 {
    measure(false, f).median_ns * 1e-9
}

/// What the kilocore part of the trace measured.
struct KilocoreTrace {
    /// Per-op layer self times of traced ops.
    layers: Vec<[f64; LAYERS]>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    transitions: Vec<f64>,
}

impl KilocoreTrace {
    fn layer(&self, l: Layer) -> f64 {
        p50(&self
            .layers
            .iter()
            .map(|x| x[l as usize])
            .collect::<Vec<_>>())
    }
}

/// Alternates untraced episodes on the real chip with traced episodes on
/// the shadow chip. Both replay from the same settled state, so op `k` of
/// either must reproduce the first replay's digest.
fn trace_kilocore(seed: u64, budget: f64, result: &mut RunResult) -> KilocoreTrace {
    if let Err(e) = verify_shadow(seed, SHADOW_CHECK_STEPS) {
        result.problems.push(e);
    }
    let mut real = kilocore::real_rig(seed, &mut Laps::started());
    let mut shadow = kilocore::shadow_rig(seed);
    let mut replay = Replay::new();
    let mut out = KilocoreTrace {
        layers: Vec::new(),
        traced: Vec::new(),
        untraced: Vec::new(),
        transitions: Vec::new(),
    };
    let mut budget = Budget::new(budget);
    while out.traced.len() < kilocore::TIMED_ROUNDS || budget.left() {
        real.episode(&mut Spans::new(false), |op| {
            result.attempted += 1;
            result.failed += u64::from(!replay.judge(op.index, &op.check));
            out.untraced.push(op.secs);
            out.transitions.push(op.transitions as f64);
        });
        shadow.episode(&mut Spans::new(true), |op| {
            result.attempted += 1;
            result.failed += u64::from(!replay.judge(op.index, &op.check));
            out.traced.push(op.secs);
            out.layers.push(op.layers);
        });
    }
    result.digests.push(("kilocore".into(), replay.render()));
    out
}

/// What the paper part of the trace measured.
struct PaperTrace {
    per_scheme: [Vec<f64>; 4],
    traced: Vec<f64>,
    untraced: Vec<f64>,
    transitions: Vec<f64>,
}

/// Alternates untraced and traced paper episodes; op `k` of either must
/// reproduce the first replay's digest.
fn trace_paper(seed: u64, budget: f64, result: &mut RunResult) -> PaperTrace {
    let mut paper = Paper::setup(seed, &mut Laps::started());
    let mut replay = Replay::new();
    let mut out = PaperTrace {
        per_scheme: Default::default(),
        traced: Vec::new(),
        untraced: Vec::new(),
        transitions: Vec::new(),
    };
    let mut budget = Budget::new(budget);
    while out.traced.is_empty() || budget.left() {
        for traced in [false, true] {
            paper.episode(traced, |op| {
                result.attempted += 1;
                result.failed += u64::from(!replay.judge(op.index, &op.check));
                if traced {
                    out.traced.push(op.secs);
                    for (v, &x) in out.per_scheme.iter_mut().zip(&op.per_scheme) {
                        v.push(x);
                    }
                } else {
                    out.untraced.push(op.secs);
                    out.transitions.push(op.transitions as f64);
                }
            });
        }
    }
    result.digests.push(("paper".into(), replay.render()));
    out
}

/// What the scenarios part of the trace measured, per entry.
struct ScenarioTrace {
    stages: Vec<Vec<Stages>>,
    untraced: Vec<Vec<f64>>,
    events: Vec<f64>,
}

impl ScenarioTrace {
    /// Σ over entries of the median of `f(stage)`, seconds per pass.
    fn stage(&self, f: fn(&Stages) -> f64) -> f64 {
        self.stages
            .iter()
            .map(|v| p50(&v.iter().map(f).collect::<Vec<_>>()))
            .sum()
    }
}

/// Alternates each entry's `run_scenario` (untraced) with its shadow run
/// (traced), requiring byte-identical JSONL, Chrome and health output.
fn trace_scenarios(seed: u64, budget: f64, result: &mut RunResult) -> Option<ScenarioTrace> {
    let mut sc = match Scenarios::setup(seed, &mut Laps::started()) {
        Ok(s) => s,
        Err(e) => {
            result.problems.push(format!("scenarios set-up: {e}"));
            return None;
        }
    };
    let n = CATALOGUE.len();
    let mut out = ScenarioTrace {
        stages: vec![Vec::new(); n],
        untraced: vec![Vec::new(); n],
        events: Vec::new(),
    };
    let mut budget = Budget::new(budget);
    let mut clock = Stopwatch::started();
    while out.events.is_empty() || budget.left() {
        for k in sc.next_order() {
            let s = &CATALOGUE[k];
            let (run, secs) = clock.time(|| run_scenario(s));
            let (shadow, stages) = shadow_run(s, sc.golden(k));
            let same = match &run {
                Ok(r) => {
                    r.jsonl == shadow.jsonl
                        && r.chrome_json == shadow.chrome
                        && r.health_json == shadow.health
                        && sc.golden(k).matches(&r.golden)
                        && r.checks_passed()
                }
                Err(_) => false,
            };
            result.attempted += 2;
            result.failed += u64::from(!same) + u64::from(!shadow.passed);
            out.untraced[k].push(secs);
            out.stages[k].push(stages);
            out.events.push(shadow.events as f64);
        }
    }
    result.digests.push(("scenarios".into(), sc.digest()));
    Some(out)
}

/// Single-layer probes, seconds per call.
struct Probes {
    leakage: f64,
    /// Per element.
    sin: f64,
    /// Per element.
    exp: f64,
    kilo_step: f64,
    sharded_step: f64,
    paper_step: f64,
    paper_thermal: f64,
    maxbips: f64,
    fanout: [f64; 2],
}

/// Runs the probes. The kernels `cpm-bench`'s perf suite already times at
/// the workloads' sizes (the 1024- and 8-core chip steps, the `cpm-math`
/// lanes at width 1024) are read from [`run_perf`]; the rest time one
/// public call each at the size the workloads use (its MaxBIPS target has
/// 8 islands, the paper chip 4).
fn probes(seed: u64) -> Probes {
    let perf = run_perf(false);
    let entry = |name: &str| {
        perf.entries
            .iter()
            .find(|e| e.name == name)
            .map_or(f64::NAN, |e| e.m.median_ns * 1e-9)
    };
    let model = LeakageModel::paper_default();
    let temps: [f64; 64] = std::array::from_fn(|i| 45.0 + 0.5 * i as f64);
    let mut leak = [0.0; 64];
    let leakage = per_call(|| {
        model.power_with_v_term_lanes(black_box(1.1), black_box(&temps), 1.0, &mut leak);
        black_box(&leak);
    });
    let (kcfg, kasg) = kilocore::chip_config(seed);
    let mut kilo_chip = Chip::new(kcfg, &kasg);
    let mut kilo_snap = ChipSnapshot::empty();
    let pool = Pool::new(2);
    let sharded_step = per_call(|| kilo_chip.step_pic_into_on(black_box(&mut kilo_snap), &pool));
    let mut pcfg = CmpConfig::paper_default();
    pcfg.seed = seed;
    let mut snap = ChipSnapshot::empty();
    Chip::new(pcfg.clone(), &WorkloadAssignment::paper_mix(Mix::Mix1, 8)).step_pic_into(&mut snap);
    let obs: Vec<MaxBipsObservation> = snap
        .islands
        .iter()
        .map(|s| MaxBipsObservation {
            power: s.power,
            static_power: s.power * 0.25,
            bips: s.bips,
            dvfs_index: s.dvfs_index,
        })
        .collect();
    let budget = snap.chip_power * 0.8;
    let mut mb = MaxBips::new(pcfg.dvfs.clone());
    let maxbips = per_call(|| black_box(mb.choose_uncached(budget, black_box(&obs))));
    let mut grid = ThermalGrid::new(pcfg.floorplan(), pcfg.thermal);
    let powers = vec![Watts::new(9.0); pcfg.cores];
    let paper_thermal = per_call(|| grid.step(black_box(&powers), pcfg.pic_interval));
    let fanout = [1, 2].map(|workers| {
        let pool = Pool::new(workers);
        per_call(|| black_box(pool.parallel_map((0..16u32).collect(), |x| x)))
    });
    Probes {
        leakage,
        sin: entry("math_sin_lane"),
        exp: entry("math_exp_lane"),
        kilo_step: entry("chip_step_1024"),
        sharded_step,
        paper_step: entry("chip_step_8"),
        paper_thermal,
        maxbips,
        fanout,
    }
}

/// The traced run.
pub fn traced(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let total = args.seconds;
    let seed = args.seed;
    let kilo = trace_kilocore(seed, total * 0.45, &mut r);
    let paper = trace_paper(seed, total * 0.2, &mut r);
    let scen = trace_scenarios(seed, total * 0.3, &mut r);
    let pr = probes(seed);

    // Fresh-process probes: the cold paths the in-process caches hide.
    let mut child = |mode: &str, workload: Workload| {
        let a = Args {
            workload,
            ..args.clone()
        };
        spawn_child(mode, &a)
            .map_err(|e| r.problems.push(e))
            .unwrap_or_default()
    };
    let sweep = child("sweep", args.workload);
    let memo = child("setup-rss", args.workload);
    let core_setup: Vec<f64> = (0..3)
        .filter_map(|_| {
            child("coresetup", Workload::Paper)
                .get("core_setup_s")
                .copied()
        })
        .collect();
    let get = |m: &ChildReport, k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let pick = |k: f64, p: f64, s: f64| match args.workload {
        Workload::Kilocore => k,
        Workload::Paper => p,
        Workload::Scenarios => s,
    };

    let cfg = kilocore::chip_config(seed).0;
    let (intervals, islands) = (cfg.pics_per_gpm() as f64, cfg.islands() as f64);
    let per_interval = |l: Layer| kilo.layer(l) / intervals;
    r.push(
        "workloads.phase_advance_us",
        "us",
        per_interval(Layer::Phases) * 1e6,
    );
    r.push(
        "sim.segment_step_us",
        "us",
        per_interval(Layer::Segments) * 1e6,
    );
    r.push(
        "sim.snapshot_fold_us",
        "us",
        per_interval(Layer::Fold) * 1e6,
    );
    let chip_step = pick(pr.kilo_step, pr.paper_step, pr.paper_step);
    r.push("sim.chip_step_us", "us", chip_step * 1e6);
    r.push("sim.chip_step_sharded_us", "us", pr.sharded_step * 1e6);
    let paper_transitions = mean(&paper.transitions);
    let transitions = pick(
        mean(&kilo.transitions),
        paper_transitions,
        paper_transitions,
    );
    r.push("sim.dvfs_transitions_per_op", "count", transitions);
    r.push("power.leakage_ns_per_core", "ns", pr.leakage / 64.0 * 1e9);
    r.push("math.sin_ns_per_elem", "ns", pr.sin * 1e9);
    r.push("math.exp_ns_per_elem", "ns", pr.exp * 1e9);
    let thermal = pick(
        per_interval(Layer::Thermal),
        pr.paper_thermal,
        pr.paper_thermal,
    );
    r.push("thermal.step_us", "us", thermal * 1e6);
    let pic_invoke = kilo.layer(Layer::Pic) / (intervals * islands);
    r.push("core.pic_invoke_ns", "ns", pic_invoke * 1e9);
    r.push("core.gpm_provision_us", "us", kilo.layer(Layer::Gpm) * 1e6);
    r.push("core.maxbips_choose_us", "us", pr.maxbips * 1e6);
    for (name, v) in SCHEMES.iter().zip(&paper.per_scheme) {
        r.push(format!("core.round_us.{name}"), "us", p50(v) * 1e6);
    }
    let core_setup_ms = if core_setup.is_empty() {
        f64::NAN
    } else {
        p50(&core_setup) * 1e3
    };
    r.push("core.setup_ms", "ms", core_setup_ms);
    for (name, key) in [
        ("core.probe_memo_hits", "probe_hits"),
        ("core.probe_memo_misses", "probe_misses"),
        ("core.calib_memo_hits", "calib_hits"),
        ("core.calib_memo_misses", "calib_misses"),
    ] {
        r.push(name, "count", get(&memo, key));
    }
    let events = scen.as_ref().map_or(f64::NAN, |s| mean(&s.events));
    r.push("obs.events_per_op", "count", pick(0.0, 0.0, events));
    let stage = |f: fn(&Stages) -> f64| scen.as_ref().map_or(f64::NAN, |s| s.stage(f));
    r.push("obs.slo_scan_us", "us", stage(|s| s.slo_scan) * 1e6);
    r.push("obs.jsonl_render_us", "us", stage(|s| s.jsonl) * 1e6);
    r.push("obs.chrome_render_us", "us", stage(|s| s.chrome) * 1e6);
    r.push("obs.health_render_us", "us", stage(|s| s.health) * 1e6);
    r.push("scenario.golden_check_us", "us", stage(|s| s.golden) * 1e6);
    r.push("scenario.control_ms", "ms", stage(|s| s.control) * 1e3);
    for (k, s) in CATALOGUE.iter().enumerate() {
        let v = scen.as_ref().map_or(f64::NAN, |t| p50(&t.untraced[k]));
        r.push(
            format!("scenario.run_ms.{}", scenario_stem(s.name)),
            "ms",
            v * 1e3,
        );
    }
    r.push("runtime.fanout_us.w1", "us", pr.fanout[0] * 1e6);
    r.push("runtime.fanout_us.w2", "us", pr.fanout[1] * 1e6);
    r.push(
        "bench.sweep_cold_ms",
        "ms",
        get(&sweep, "sweep_cold_s") * 1e3,
    );
    r.push(
        "bench.sweep_warm_ms",
        "ms",
        get(&sweep, "sweep_warm_s") * 1e3,
    );

    let kilo_untraced = p50(&kilo.untraced);
    let layer_sum: Vec<f64> = kilo.layers.iter().map(|x| x.iter().sum()).collect();
    let layer_sum_frac = p50(&layer_sum) / kilo_untraced;
    let layer_sum_err = (layer_sum_frac - 1.0).abs();
    if layer_sum_err > RECONCILE_TOLERANCE {
        r.problems.push(format!(
            "kilocore layer self times sum to {layer_sum_frac:.3} of the untraced op"
        ));
    }
    r.notes.push(format!(
        "kilocore layer self times sum to {layer_sum_frac:.4} of the untraced op"
    ));
    r.push("trace.kilocore_layer_sum_err", "ratio", layer_sum_err);
    let scen_overhead = scen.as_ref().map_or(f64::NAN, |s| {
        s.stage(Stages::total) / s.untraced.iter().map(|v| p50(v)).sum::<f64>() - 1.0
    });
    let overhead = pick(
        p50(&kilo.traced) / kilo_untraced - 1.0,
        p50(&paper.traced) / p50(&paper.untraced) - 1.0,
        scen_overhead,
    );
    r.push("trace.overhead_frac", "ratio", overhead);
    if r.metrics.iter().any(|m| !m.value.is_finite()) {
        r.problems.push("a layer metric is missing".into());
    }
    r
}

//! `experiments perf` — the regression-gated performance suite.
//!
//! Times the simulator's hot paths (one number per target, ns/op) plus one
//! full `experiments all` sweep, and renders the `BENCH_perf.json`
//! artifact CI uploads. The targets mirror the hot loops the PR 3
//! performance pass optimized: chip stepping (8/32 cores), the PIC's PID
//! step, the MaxBIPS DP search, one warm coordinator control call, the
//! thermal RC step, a cache-hierarchy access, one full cache-simulator
//! calibration, and the scenario exporters (golden fold plus Chrome
//! trace) over one recorded trajectory.
//!
//! Built on [`crate::microbench::measure`] — the same calibrated-batch
//! protocol `experiments scaling` and the benchmark package's probes use,
//! so numbers are comparable across all three.

use crate::microbench::{black_box, measure, Measurement};
use cpm_control::PidGains;
use cpm_core::coordinator::SensorMode;
use cpm_core::maxbips::{MaxBips, MaxBipsObservation};
use cpm_core::pic::PerIslandController;
use cpm_core::{Coordinator, ExperimentConfig};
use cpm_obs::{events_to_chrome, json_num};
use cpm_power::dvfs::DvfsTable;
use cpm_scenario::{record_scenario, GoldenDoc};
use cpm_sim::{cache::Hierarchy, calibration, Chip, ChipSnapshot, CmpConfig};
use cpm_thermal::{Floorplan, ThermalGrid, ThermalParams};
use cpm_units::{IslandId, Ratio, Seconds, Watts};
use cpm_workloads::{parsec, AddressStream, Mix, WorkloadAssignment};

/// One timed hot-path target.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Target name (stable — CI tooling keys on it).
    pub name: &'static str,
    /// The measurement.
    pub m: Measurement,
}

/// Everything one perf run produces.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-target ns/op, in suite order.
    pub entries: Vec<PerfEntry>,
    /// Wall-clock of one in-process `experiments all` sweep on a
    /// single-worker pool (the configuration the ≥ 2× acceptance gate is
    /// quoted in).
    pub sweep_seconds: f64,
    /// Whether the quick (smoke) protocol was used.
    pub quick: bool,
}

/// The pre-optimization single-worker sweep wall-clock on the reference
/// machine (seed of PR 3), kept in the artifact so the speedup that
/// gated the PR stays visible next to the current number.
pub const SWEEP_BASELINE_SECONDS: f64 = 0.26;

fn chip_step_target(cores: usize, width: usize, mix: Mix) -> impl FnMut() {
    let cfg = CmpConfig::with_topology(cores, width);
    let assignment = WorkloadAssignment::paper_mix(mix, cores);
    let mut chip = Chip::new(cfg, &assignment);
    let mut snap = ChipSnapshot::empty();
    move || chip.step_pic_into(black_box(&mut snap))
}

fn chip_step_kilocore_target(cores: usize, width: usize) -> impl FnMut() {
    // paper_mix caps out at 32 cores; tile Mix 3 across the big chip.
    let profiles: Vec<_> = WorkloadAssignment::paper_mix(Mix::Mix3, 32)
        .profiles()
        .iter()
        .cloned()
        .cycle()
        .take(cores)
        .collect();
    let cfg = CmpConfig::with_topology(cores, width);
    let assignment = WorkloadAssignment::new(profiles, width);
    let mut chip = Chip::new(cfg, &assignment);
    let mut snap = ChipSnapshot::empty();
    move || chip.step_pic_into(black_box(&mut snap))
}

/// Runs the suite. `quick` cuts per-target time budgets ~10× (the CI
/// smoke lane) — enough to catch order-of-magnitude regressions.
pub fn run_perf(quick: bool) -> PerfReport {
    let mut entries = Vec::new();
    let mut push = |name: &'static str, m: Measurement| {
        eprintln!("[perf] {name:<28} {:>12.1} ns/op", m.median_ns);
        entries.push(PerfEntry { name, m });
    };

    push(
        "chip_step_8",
        measure(quick, chip_step_target(8, 2, Mix::Mix1)),
    );
    push(
        "chip_step_8x1",
        measure(quick, chip_step_target(8, 1, Mix::Thermal)),
    );
    push(
        "chip_step_32",
        measure(quick, chip_step_target(32, 4, Mix::Mix3)),
    );
    push(
        "chip_step_1024",
        measure(quick, chip_step_kilocore_target(1024, 64)),
    );

    {
        // The same kilocore chip with its island segments fanned out
        // across a 4-worker pool — the throughput figure the fleet tier
        // (ROADMAP item 1) builds on. On a single-CPU host this mostly
        // prices the fan-out overhead; the trajectory is byte-identical
        // to the serial target either way.
        let profiles: Vec<_> = WorkloadAssignment::paper_mix(Mix::Mix3, 32)
            .profiles()
            .iter()
            .cloned()
            .cycle()
            .take(1024)
            .collect();
        let cfg = CmpConfig::with_topology(1024, 64);
        let assignment = WorkloadAssignment::new(profiles, 64);
        let mut chip = Chip::new(cfg, &assignment);
        let mut snap = ChipSnapshot::empty();
        let pool = cpm_runtime::Pool::new(4);
        push(
            "chip_step_1024_sharded",
            measure(quick, move || {
                chip.step_pic_into_on(black_box(&mut snap), &pool)
            }),
        );
    }

    {
        // The deterministic cpm-math lane kernels at the kilocore column
        // width, reported per element (the unit the "libm floor"
        // discussion in EXPERIMENTS.md is quoted in). The closure steps a
        // whole 1024-wide column; the measurement is rescaled afterwards.
        const COL: usize = 1024;
        let per_elem = |m: Measurement| Measurement {
            median_ns: m.median_ns / COL as f64,
            min_ns: m.min_ns / COL as f64,
            batch: m.batch,
        };
        let xs: Vec<f64> = (0..COL).map(|i| 0.01 * i as f64 - 3.0).collect();
        let mut out = vec![0.0f64; COL];
        let xs2 = xs.clone();
        let mut out2 = out.clone();
        push(
            "math_sin_lane",
            per_elem(measure(quick, move || {
                cpm_math::sin_into(black_box(&xs), &mut out);
                black_box(&out);
            })),
        );
        push(
            "math_exp_lane",
            per_elem(measure(quick, move || {
                cpm_math::exp_into(black_box(&xs2), &mut out2);
                black_box(&out2);
            })),
        );
    }

    {
        // One PIC control-law invocation: transducer sense + PID step +
        // DVFS quantization (the per-island T_local work).
        let cfg = CmpConfig::paper_default();
        let mut pic = PerIslandController::new(
            IslandId(0),
            cfg.dvfs.clone(),
            Watts::new(24.0),
            PidGains::paper(),
            0.79,
            SensorMode::Oracle,
        );
        pic.set_target(Watts::new(16.0));
        push(
            "pid_step",
            measure(quick, move || {
                black_box(pic.invoke(black_box(Ratio::new(0.7)), black_box(Watts::new(17.0))))
            }),
        );
    }

    {
        // The MaxBIPS knapsack DP at the paper's 8-island scale
        // (memo-free: the round-to-round replay cache is bypassed).
        let obs: Vec<MaxBipsObservation> = (0..8)
            .map(|i| MaxBipsObservation {
                power: Watts::new(18.0 + (i % 5) as f64),
                static_power: Watts::new(4.0),
                bips: 1.0 + (i % 3) as f64,
                dvfs_index: 7,
            })
            .collect();
        let mut mb = MaxBips::new(DvfsTable::pentium_m());
        let budget = Watts::new(130.0);
        push(
            "maxbips_choose",
            measure(quick, move || {
                black_box(mb.choose_uncached(budget, black_box(&obs)))
            }),
        );
    }

    {
        // One warm control call on the paper-default coordinator (8 cores,
        // 4 islands, performance-aware CPM, transducer sensing): a
        // `run_for_gpm_intervals(1)` — 10 chip steps and 40 PIC invokes
        // around the GPM's equal split, plus building the `Outcome`.
        let mut coord =
            Coordinator::new(ExperimentConfig::paper_default()).expect("paper default is valid");
        coord.run_for_gpm_intervals(2);
        push(
            "coordinator_round_8",
            measure(quick, move || black_box(coord.run_for_gpm_intervals(1))),
        );
    }

    {
        let mut grid = ThermalGrid::new(Floorplan::for_cores(32), ThermalParams::paper_default());
        let powers = vec![Watts::new(8.0); 32];
        push(
            "thermal_step_32",
            measure(quick, move || {
                grid.step(black_box(&powers), Seconds::from_ms(0.5))
            }),
        );
    }

    // Datacenter-floorplan scales for the chunked stencil: 64×64 and
    // 128×128 dies (4096 / 16384 nodes), per the ROADMAP item 2 targets.
    for (name, dim) in [("thermal_step_64", 64usize), ("thermal_step_128", 128)] {
        let mut grid = ThermalGrid::new(Floorplan::grid(dim, dim), ThermalParams::paper_default());
        let powers = vec![Watts::new(8.0); dim * dim];
        push(
            name,
            measure(quick, move || {
                grid.step(black_box(&powers), Seconds::from_ms(0.5))
            }),
        );
    }

    {
        let cache = CmpConfig::paper_default().cache;
        let mut h = Hierarchy::new(&cache);
        let mut stream = AddressStream::new(&parsec::canneal(), 42);
        let addrs = stream.take(4096);
        let mut k = 0usize;
        push(
            "cache_access",
            measure(quick, move || {
                k = (k + 1) & 4095;
                black_box(h.access(black_box(addrs[k])))
            }),
        );
    }

    {
        // One full cache-simulator calibration (260k refs).
        let profile = parsec::blackscholes();
        let cache = CmpConfig::paper_default().cache;
        push(
            "calibration",
            measure(quick, move || {
                black_box(calibration::calibrate(&profile, &cache, 7))
            }),
        );
    }

    {
        // The two renders a scenario run spends most of its time in, over
        // `budget-step@thermal`'s drained stream with its alarms appended
        // (4,238 events): the JSONL walk with its golden fold, and the
        // Chrome trace.
        let s = cpm_scenario::find("budget-step@thermal").expect("catalogue entry");
        let (_, events, _) = record_scenario(s).expect("catalogue entries run");
        push(
            "scenario_render_thermal",
            measure(quick, move || {
                let golden = GoldenDoc::render_events(s.name, black_box(&events));
                black_box((golden, events_to_chrome(black_box(&events))))
            }),
        );
    }

    // One full sweep, single worker — the acceptance gate's configuration.
    // Memo caches may already be warm in this process; that is the same
    // steady state `experiments all` itself reaches, and the number is
    // reported alongside the per-target ns/op, not in place of them.
    let pool = cpm_runtime::Pool::new(1);
    let t0 = std::time::Instant::now();
    let sweep = crate::run_all_on(&pool);
    let sweep_seconds = t0.elapsed().as_secs_f64();
    black_box(sweep.reports.len());
    eprintln!("[perf] sweep_all (1 worker)        {sweep_seconds:.3} s  (pre-PR3 baseline {SWEEP_BASELINE_SECONDS:.2} s)");

    PerfReport {
        entries,
        sweep_seconds,
        quick,
    }
}

/// Renders the `BENCH_perf.json` artifact. Hand-rolled writer (the
/// workspace builds with zero external crates); all numbers are finite.
pub fn perf_json(report: &PerfReport) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str("  \"targets\": [\n");
    for (k, e) in report.entries.iter().enumerate() {
        let sep = if k + 1 < report.entries.len() {
            ","
        } else {
            ""
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"batch\": {}}}{sep}\n",
            e.name,
            json_num(e.m.median_ns, 3),
            json_num(e.m.min_ns, 3),
            e.m.batch
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sweep\": {\n");
    s.push_str(&format!(
        "    \"workers\": 1,\n    \"seconds\": {},\n    \"baseline_seconds\": {},\n    \"speedup\": {}\n",
        json_num(report.sweep_seconds, 3),
        json_num(SWEEP_BASELINE_SECONDS, 3),
        json_num(SWEEP_BASELINE_SECONDS / report.sweep_seconds.max(1e-9), 3)
    ));
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_json_has_the_artifact_shape() {
        let report = PerfReport {
            entries: vec![PerfEntry {
                name: "chip_step_8",
                m: Measurement {
                    median_ns: 650.0,
                    min_ns: 600.0,
                    batch: 1000,
                },
            }],
            sweep_seconds: 0.12,
            quick: true,
        };
        let json = perf_json(&report);
        for needle in [
            "\"quick\": true",
            "\"targets\": [",
            "\"name\": \"chip_step_8\"",
            "\"median_ns\": 650.000",
            "\"sweep\": {",
            "\"seconds\": 0.120",
            "\"baseline_seconds\": 0.260",
            "\"speedup\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }
}

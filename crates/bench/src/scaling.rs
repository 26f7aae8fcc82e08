//! `experiments scaling` — the kilocore scaling study.
//!
//! The paper's Section 7 argument is architectural: a centralized MaxBIPS
//! search over the whole chip explodes combinatorially, while the two-tier
//! GPM+PIC design does per-island work plus one cheap global provisioning
//! pass. The paper demonstrates it at 8/32 cores; this study measures it,
//! sweeping cores ∈ {8, 32, 128, 512, 1024} × islands ∈ {2, 4, 8, 16}
//! under the performance-aware policy and recording, per sweep point:
//!
//! * `chip.step_pic` ns/op and ns/op-per-core (the SoA stepping cost),
//! * the wall-clock split of a closed-loop two-tier run across chip
//!   stepping, PIC invocations, and GPM provisioning,
//! * decision latency head-to-head: one full two-tier decision round
//!   (GPM provision + every PIC invoke) vs one centralized MaxBIPS
//!   knapsack solve over the same islands and budget.
//!
//! Built on [`crate::microbench::measure`] and a `cpm-obs` registry, like
//! the `perf` suite; the artifact is `BENCH_scaling.json`.

use crate::microbench::{black_box, measure, Measurement};
use cpm_control::PidGains;
use cpm_core::gpm::island_ranges;
use cpm_core::maxbips::{MaxBips, MaxBipsObservation};
use cpm_core::pic::PicSensor;
use cpm_core::{GlobalPowerManager, IslandFeedback, PerIslandController, PerformanceAware};
use cpm_obs::json_num;
use cpm_sim::{Chip, ChipSnapshot, CmpConfig};
use cpm_units::{IslandId, Ratio, Watts};
use cpm_workloads::{BenchmarkProfile, Mix, WorkloadAssignment};
use std::time::{Duration, Instant};

/// Core counts the study sweeps.
pub const CORE_COUNTS: &[usize] = &[8, 32, 128, 512, 1024];
/// Island counts the study requests at each core count.
pub const ISLAND_COUNTS: &[usize] = &[2, 4, 8, 16];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Cores on the chip.
    pub cores: usize,
    /// Islands the sweep requested.
    pub islands_requested: usize,
    /// Islands actually instantiated (a request for more islands than
    /// cores degrades to one core per island).
    pub islands: usize,
    /// Cores per island.
    pub width: usize,
    /// One `chip.step_pic_into` call.
    pub step: Measurement,
    /// Fraction of closed-loop wall-clock spent stepping the chip model.
    pub step_fraction: f64,
    /// Fraction spent in PIC control-law invocations (all islands).
    pub pic_fraction: f64,
    /// Fraction spent in GPM provisioning.
    pub gpm_fraction: f64,
    /// One full two-tier decision round: GPM provision + every PIC invoke.
    pub two_tier_decision: Measurement,
    /// One centralized MaxBIPS knapsack solve over the same islands.
    pub maxbips_decision: Measurement,
}

impl ScalingPoint {
    /// Chip-stepping cost normalized per core.
    pub fn step_ns_per_core(&self) -> f64 {
        self.step.median_ns / self.cores as f64
    }

    /// How many times slower the centralized decision is than the
    /// two-tier one.
    pub fn maxbips_vs_two_tier(&self) -> f64 {
        self.maxbips_decision.median_ns / self.two_tier_decision.median_ns.max(1e-9)
    }
}

/// Everything one scaling run produces.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// All sweep points, core-count-major order.
    pub points: Vec<ScalingPoint>,
    /// Whether the quick (smoke) protocol was used.
    pub quick: bool,
    /// Per-point gauges (`scaling.c<cores>.i<islands>.…`), embedded in the
    /// artifact like the sweep registry is.
    pub registry: cpm_obs::Registry,
}

/// Resolves a `(cores, islands_requested)` request to a feasible
/// `(width, islands)` topology: equal-width contiguous islands, degrading
/// to one core per island when more islands than cores are requested.
pub fn geometry(cores: usize, islands_requested: usize) -> (usize, usize) {
    let width = (cores / islands_requested).max(1);
    (width, cores / width)
}

/// The workload: PARSEC Mix 3 (the paper's 32-core mix) tiled out to
/// `cores` entries.
fn profiles_for(cores: usize) -> Vec<BenchmarkProfile> {
    WorkloadAssignment::paper_mix(Mix::Mix3, 32)
        .profiles()
        .iter()
        .cloned()
        .cycle()
        .take(cores)
        .collect()
}

/// Measures one sweep point.
pub fn run_point(cores: usize, islands_requested: usize, quick: bool) -> ScalingPoint {
    let (width, islands) = geometry(cores, islands_requested);
    let cfg = CmpConfig::with_topology(cores, width);
    let assignment = WorkloadAssignment::new(profiles_for(cores), width);
    let mut chip = Chip::new(cfg.clone(), &assignment);
    let budget = chip.max_power() * 0.75;
    let ranges = island_ranges(&chip);
    let mut gpm =
        GlobalPowerManager::new(budget, Box::new(PerformanceAware::new()), ranges.clone());
    let mut pics: Vec<PerIslandController> = (0..islands)
        .map(|i| {
            PerIslandController::new(
                IslandId(i),
                cfg.dvfs.clone(),
                ranges[i].ceiling,
                PidGains::paper(),
                0.79,
                PicSensor::Oracle,
            )
        })
        .collect();
    let mut alloc = gpm.initial_allocation();
    for (pic, a) in pics.iter_mut().zip(&alloc) {
        pic.set_target(*a);
    }

    // Closed-loop overhead split: run the two-tier loop for `rounds` GPM
    // rounds, charging wall-clock to three buckets — chip stepping, PIC
    // invocations, GPM provisioning. Harness bookkeeping (feedback
    // aggregation) is deliberately left out of all three.
    let pics_per_gpm = (cfg.gpm_interval.value() / cfg.pic_interval.value()).round() as usize;
    let rounds = if quick { 10 } else { 30 };
    let mut snap = ChipSnapshot::empty();
    for _ in 0..8 {
        chip.step_pic_into(&mut snap); // settle out of the cold-boot state
    }
    let mut t_step = Duration::ZERO;
    let mut t_pic = Duration::ZERO;
    let mut t_gpm = Duration::ZERO;
    let mut feedback: Vec<IslandFeedback> = Vec::new();
    for _round in 0..rounds {
        let mut power_sum = vec![0.0; islands];
        let mut bips_sum = vec![0.0; islands];
        let mut util_sum = vec![0.0; islands];
        for _k in 0..pics_per_gpm {
            let t0 = Instant::now();
            chip.step_pic_into(&mut snap);
            t_step += t0.elapsed();
            let t1 = Instant::now();
            for (i, pic) in pics.iter_mut().enumerate() {
                let s = &snap.islands[i];
                let idx = pic.invoke(s.capacity_utilization, s.power);
                chip.set_island_dvfs(IslandId(i), idx);
            }
            t_pic += t1.elapsed();
            for (i, s) in snap.islands.iter().enumerate() {
                power_sum[i] += s.power.value();
                bips_sum[i] += s.bips;
                util_sum[i] += s.utilization.value();
            }
        }
        let k = pics_per_gpm as f64;
        feedback = (0..islands)
            .map(|i| {
                let peak = chip.temperatures_deg()[i * width..(i + 1) * width]
                    .iter()
                    .fold(f64::MIN, |a, &b| a.max(b));
                IslandFeedback {
                    island: IslandId(i),
                    allocated: alloc[i],
                    actual_power: Watts::new(power_sum[i] / k),
                    bips: bips_sum[i] / k,
                    utilization: Ratio::new(util_sum[i] / k),
                    epi: None,
                    peak_temperature: peak,
                }
            })
            .collect();
        let t2 = Instant::now();
        alloc = gpm.provision(&feedback);
        for (pic, a) in pics.iter_mut().zip(&alloc) {
            pic.set_target(*a);
        }
        t_gpm += t2.elapsed();
    }
    let total = (t_step + t_pic + t_gpm).as_secs_f64().max(1e-12);
    let step_fraction = t_step.as_secs_f64() / total;
    let pic_fraction = t_pic.as_secs_f64() / total;
    let gpm_fraction = t_gpm.as_secs_f64() / total;

    // Steady-state stepping cost (the SoA hot loop).
    let step = measure(quick, || chip.step_pic_into(black_box(&mut snap)));

    // Decision latency, two-tier: one GPM provision over the live feedback
    // plus one control-law invocation per island.
    let two_tier_decision = {
        let fb = feedback.clone();
        measure(quick, move || {
            let a = gpm.provision(black_box(&fb));
            for (i, pic) in pics.iter_mut().enumerate() {
                black_box(pic.invoke(fb[i].utilization, a[i].min(fb[i].actual_power)));
            }
        })
    };

    // Decision latency, centralized: the MaxBIPS knapsack DP over the same
    // islands and chip budget (memo-free — the paper's §7 cost).
    let maxbips_decision = {
        let obs: Vec<MaxBipsObservation> = feedback
            .iter()
            .map(|f| MaxBipsObservation {
                power: f.actual_power,
                static_power: f.actual_power * 0.25,
                bips: f.bips,
                dvfs_index: chip.island_dvfs(f.island),
            })
            .collect();
        let mut mb = MaxBips::new(cfg.dvfs.clone());
        measure(quick, move || {
            black_box(mb.choose_uncached(budget, black_box(&obs)))
        })
    };

    ScalingPoint {
        cores,
        islands_requested,
        islands,
        width,
        step,
        step_fraction,
        pic_fraction,
        gpm_fraction,
        two_tier_decision,
        maxbips_decision,
    }
}

/// Runs the full sweep. `quick` cuts per-point time budgets ~10× (the CI
/// smoke lane).
pub fn run_scaling(quick: bool) -> ScalingReport {
    let registry = cpm_obs::Registry::new();
    let mut points = Vec::new();
    for &cores in CORE_COUNTS {
        for &islands_requested in ISLAND_COUNTS {
            let p = run_point(cores, islands_requested, quick);
            eprintln!(
                "[scaling] {cores:>5} cores × {islands_requested:>2} islands ({:>2} eff.)  \
                 {:>10.1} ns/step  {:>7.2} ns/core  step/pic/gpm {:.0}/{:.0}/{:.0} %  \
                 maxbips/two-tier {:>8.1}×",
                p.islands,
                p.step.median_ns,
                p.step_ns_per_core(),
                p.step_fraction * 100.0,
                p.pic_fraction * 100.0,
                p.gpm_fraction * 100.0,
                p.maxbips_vs_two_tier()
            );
            let stem = format!("scaling.c{cores}.i{islands_requested}");
            registry
                .gauge(&format!("{stem}.step_ns"))
                .set(p.step.median_ns);
            registry
                .gauge(&format!("{stem}.step_ns_per_core"))
                .set(p.step_ns_per_core());
            registry
                .gauge(&format!("{stem}.gpm_fraction"))
                .set(p.gpm_fraction);
            registry
                .gauge(&format!("{stem}.pic_fraction"))
                .set(p.pic_fraction);
            registry
                .gauge(&format!("{stem}.maxbips_vs_two_tier"))
                .set(p.maxbips_vs_two_tier());
            points.push(p);
        }
    }
    ScalingReport {
        points,
        quick,
        registry,
    }
}

/// Renders the `BENCH_scaling.json` artifact. Hand-rolled writer (the
/// workspace builds with zero external crates); all numbers are finite.
pub fn scaling_json(report: &ScalingReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"cpm-scaling-v1\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str("  \"points\": [\n");
    for (k, p) in report.points.iter().enumerate() {
        let sep = if k + 1 < report.points.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"cores\": {}, \"islands_requested\": {}, \"islands\": {}, \"width\": {}, \
             \"step_median_ns\": {}, \"step_min_ns\": {}, \"step_ns_per_core\": {}, \
             \"step_fraction\": {}, \"pic_fraction\": {}, \"gpm_fraction\": {}, \
             \"two_tier_decision_ns\": {}, \"maxbips_decision_ns\": {}, \
             \"maxbips_vs_two_tier\": {}}}{sep}\n",
            p.cores,
            p.islands_requested,
            p.islands,
            p.width,
            json_num(p.step.median_ns, 3),
            json_num(p.step.min_ns, 3),
            json_num(p.step_ns_per_core(), 3),
            json_num(p.step_fraction, 3),
            json_num(p.pic_fraction, 3),
            json_num(p.gpm_fraction, 3),
            json_num(p.two_tier_decision.median_ns, 3),
            json_num(p.maxbips_decision.median_ns, 3),
            json_num(p.maxbips_vs_two_tier(), 3),
        ));
    }
    s.push_str("  ],\n");
    // The full per-point gauge snapshot, nested like the sweep artifact's.
    let snap = report.registry.snapshot().to_json();
    let mut nested = String::new();
    for (k, line) in snap.trim_end().lines().enumerate() {
        if k > 0 {
            nested.push_str("  ");
        }
        nested.push_str(line);
        nested.push('\n');
    }
    s.push_str(&format!("  \"metrics\": {}", nested.trim_end()));
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_geometry_covers_all_points_feasibly() {
        let mut seen = 0;
        for &cores in CORE_COUNTS {
            for &islands_requested in ISLAND_COUNTS {
                let (width, islands) = geometry(cores, islands_requested);
                assert!(width >= 1 && islands >= 1);
                assert_eq!(width * islands, cores, "islands must tile the chip");
                assert!(islands <= islands_requested.max(cores));
                seen += 1;
            }
        }
        assert_eq!(seen, 20, "the study sweeps 20 points");
        // The one infeasible request degrades rather than disappears.
        assert_eq!(geometry(8, 16), (1, 8));
        assert_eq!(geometry(1024, 16), (64, 16));
    }

    #[test]
    fn one_quick_point_produces_sane_numbers() {
        let p = run_point(8, 2, true);
        assert_eq!((p.cores, p.islands, p.width), (8, 2, 4));
        assert!(p.step.median_ns > 0.0);
        assert!(p.step_ns_per_core() > 0.0);
        let f = p.step_fraction + p.pic_fraction + p.gpm_fraction;
        assert!((f - 1.0).abs() < 1e-9, "fractions must sum to 1: {f}");
        assert!(p.two_tier_decision.median_ns > 0.0);
        assert!(p.maxbips_decision.median_ns > 0.0);
    }

    #[test]
    fn scaling_json_has_the_artifact_shape() {
        let m = Measurement {
            median_ns: 1000.0,
            min_ns: 900.0,
            batch: 64,
        };
        let report = ScalingReport {
            points: vec![ScalingPoint {
                cores: 8,
                islands_requested: 16,
                islands: 8,
                width: 1,
                step: m,
                step_fraction: 0.8,
                pic_fraction: 0.15,
                gpm_fraction: 0.05,
                two_tier_decision: m,
                maxbips_decision: Measurement {
                    median_ns: 5000.0,
                    min_ns: 4500.0,
                    batch: 8,
                },
            }],
            quick: true,
            registry: cpm_obs::Registry::new(),
        };
        report.registry.gauge("scaling.c8.i16.step_ns").set(1000.0);
        let json = scaling_json(&report);
        for needle in [
            "\"schema\": \"cpm-scaling-v1\"",
            "\"quick\": true",
            "\"points\": [",
            "\"cores\": 8",
            "\"islands_requested\": 16",
            "\"islands\": 8",
            "\"step_median_ns\": 1000.000",
            "\"step_ns_per_core\": 125.000",
            "\"step_fraction\": 0.800",
            "\"pic_fraction\": 0.150",
            "\"gpm_fraction\": 0.050",
            "\"two_tier_decision_ns\": 1000.000",
            "\"maxbips_decision_ns\": 5000.000",
            "\"maxbips_vs_two_tier\": 5.000",
            "\"metrics\": {",
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

//! Allocation budgets of the hot paths, pinned with a counting allocator.
//!
//! * Steady-state `Chip::step_pic_into` must not touch the heap: chip
//!   stepping runs on reusable snapshot buffers (`ChipSnapshot` grows to
//!   high-water marks on the first step and is only reused afterwards).
//! * A warm `Coordinator::run_for_gpm_intervals(n)` call allocates only the
//!   buffers of the `Outcome` it returns, each sized once, plus whatever
//!   the provisioning policy allocates inside its own `provision`.
//! * A registry lookup of a name already registered allocates nothing.
//! * Building one of the paper's 8-core chips makes a pinned number of
//!   allocations: every per-core column is chip-wide, not one per island.
//!
//! An accidental allocation on any of these paths shows up as a test
//! failure, not a silent sweep slowdown.
//!
//! The counters are **thread-local**: `cargo test` runs tests on several
//! threads sharing one global allocator, so a process-global counter would
//! pick up other tests' allocations. Only allocations made by *this*
//! test's thread between two reads are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the thread-local bumps
// are allocation-free (Cell<u64> is plain memory).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// `(allocations, reallocations)` made on this thread so far.
fn counts_on_this_thread() -> (u64, u64) {
    (ALLOCS.with(|c| c.get()), REALLOCS.with(|c| c.get()))
}

/// `(allocations, reallocations)` made on this thread while `f` runs; the
/// value `f` returns is dropped only after the second read.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, r0) = counts_on_this_thread();
    let out = f();
    let (a1, r1) = counts_on_this_thread();
    (a1 - a0, r1 - r0, out)
}

#[test]
fn steady_state_chip_step_is_allocation_free() {
    use cpm_sim::{Chip, ChipSnapshot, CmpConfig};
    use cpm_workloads::{Mix, WorkloadAssignment};

    for (cores, width, mix) in [(8usize, 2usize, Mix::Mix1), (32, 4, Mix::Mix3)] {
        let cfg = CmpConfig::with_topology(cores, width);
        let assignment = WorkloadAssignment::paper_mix(mix, cores);
        let mut chip = Chip::new(cfg, &assignment);
        let mut snap = ChipSnapshot::empty();

        // Warm up: first steps grow the snapshot buffers (and any lazy
        // one-time state) to their high-water marks.
        for _ in 0..16 {
            chip.step_pic_into(&mut snap);
        }

        let (allocs, reallocs, ()) = counted(|| {
            for _ in 0..64 {
                chip.step_pic_into(&mut snap);
            }
        });
        assert_eq!(
            allocs + reallocs,
            0,
            "{cores}-core steady-state step allocated {allocs} + {reallocs} times in 64 steps"
        );
        // The snapshot still carries real data (the loop wasn't elided).
        assert_eq!(snap.core_powers.len(), cores);
    }
}

/// `Chip::new` on the paper's two 8-core shapes. The counts follow the
/// layout: every per-core column — phase streams and samples, profile
/// constants, lifetime totals, step outputs — is one chip-wide vector
/// that grows by reallocation as cores are pushed, and the per-island
/// scratch is sized once, so the count does not depend on the island
/// width.
#[test]
fn building_a_paper_chip_makes_a_pinned_number_of_allocations() {
    use cpm_sim::{Chip, CmpConfig};
    use cpm_workloads::{Mix, WorkloadAssignment};

    for (width, mix, want) in [(2usize, Mix::Mix1, (36, 27)), (1, Mix::Thermal, (36, 27))] {
        let cfg = CmpConfig::with_topology(8, width);
        let assignment = WorkloadAssignment::paper_mix(mix, 8);
        let (allocs, reallocs, chip) = counted(|| Chip::new(cfg, &assignment));
        assert_eq!(
            (allocs, reallocs),
            want,
            "8-core chip, width {width}: Chip::new made {allocs} allocations \
             and {reallocs} reallocations"
        );
        assert_eq!(chip.config().islands(), 8 / width);
    }
}

/// The four coordinators of the benchmark's `paper` workload, named.
fn paper_coordinators() -> Vec<(&'static str, cpm_core::Coordinator)> {
    use cpm_core::coordinator::PolicyKind;
    use cpm_core::{Coordinator, ExperimentConfig, ManagementScheme, ThermalConstraints};
    use cpm_power::variation::VariationMap;
    use cpm_sim::CmpConfig;
    use cpm_workloads::Mix;

    let base = ExperimentConfig::paper_default();
    let mut variation = base.clone();
    variation.variation = Some(VariationMap::paper_four_island());
    let mut thermal = base.clone();
    thermal.mix = Mix::Thermal;
    thermal.cmp = CmpConfig::with_topology(8, 1);
    let thermal_aware = PolicyKind::Thermal(ThermalConstraints::paper_eight_island());
    [
        ("perf", base.clone()),
        (
            "variation",
            variation.with_scheme(ManagementScheme::Cpm(PolicyKind::Variation)),
        ),
        (
            "thermal",
            thermal.with_scheme(ManagementScheme::Cpm(thermal_aware)),
        ),
        ("maxbips", base.with_scheme(ManagementScheme::MaxBips)),
    ]
    .into_iter()
    .map(|(name, cfg)| (name, Coordinator::new(cfg).expect("valid configuration")))
    .collect()
}

/// A warm control call allocates the returned `Outcome`'s buffers and
/// nothing else the coordinator owns. Per call, with `I` islands:
///
/// * `Outcome`: `chip_power_percent`, `chip_bips`, `peak_temperature`
///   (3); the outer `Vec` of `island_actual_percent`,
///   `island_target_percent` and `island_dvfs_index` plus one series per
///   island in each (3 + 3·I); `transducer_r2` and `island_energy` (2).
///   That is 8 + 3·I: 20 on the 4-island chips, 32 on the 8-island one.
/// * The first round of every call applies the GPM's equal split in place
///   and provisions nothing. Each later round makes one allocation inside
///   the policy: the `Vec<Watts>` a `ProvisioningPolicy::provision`
///   returns (the thermal-aware wrapper adjusts its inner
///   performance-aware split in place), or the DVFS combination
///   `MaxBips::choose` returns. MaxBIPS builds its static prediction table
///   once per coordinator, inside the warm-up.
///
/// Every series is sized to its exact sample count up front, so nothing
/// reallocates.
#[test]
fn a_warm_control_call_allocates_only_its_outcome() {
    // (name, allocations in a one-round call, in a five-round call).
    let expected = [
        ("perf", 20, 20 + 4),
        ("variation", 20, 20 + 4),
        ("thermal", 32, 32 + 4),
        ("maxbips", 20, 20 + 4),
    ];
    for ((name, mut coord), (want_name, one, five)) in
        paper_coordinators().into_iter().zip(expected)
    {
        assert_eq!(name, want_name);
        // Two warm rounds: calibration, settle-in, the registry's first
        // registrations and MaxBIPS's static table all happen here.
        coord.run_for_gpm_intervals(2);
        for (rounds, want) in [(1usize, one), (5, five)] {
            let (allocs, reallocs, out) = counted(|| coord.run_for_gpm_intervals(rounds));
            assert_eq!(out.chip_power_percent.len(), rounds * out.pics_per_gpm);
            assert_eq!(
                (allocs, reallocs),
                (want, 0),
                "{name}: run_for_gpm_intervals({rounds}) made {allocs} allocations \
                 and {reallocs} reallocations"
            );
        }
    }
}

#[test]
fn a_registry_lookup_of_a_known_name_allocates_nothing() {
    let registry = cpm_obs::Registry::new();
    registry.counter("x").inc();
    registry.gauge("g").set(1.0);
    registry.histogram("h", &[1.0, 2.0]).observe(1.5);
    let (allocs, reallocs, ()) = counted(|| {
        registry.counter("x").inc();
        registry.gauge("g").set(2.0);
        registry.histogram("h", &[1.0, 2.0]).observe(0.5);
    });
    assert_eq!((allocs, reallocs), (0, 0), "lookups of registered names");
    assert_eq!(registry.counter("x").get(), 2);
    assert_eq!(registry.gauge("g").get(), 2.0);
    assert_eq!(registry.histogram("h", &[1.0, 2.0]).count(), 2);
}

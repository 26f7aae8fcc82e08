//! Tier-1 determinism gate for the sharded chip step.
//!
//! The intra-chip shard path (`Chip::step_pic_into_on`) advances the
//! chip's phase streams in one serial pass, then fans its island segments
//! across the pool, each reading its island's slice of the phase samples.
//! Its contract is the same one the experiment sweep pins: worker count is
//! a throughput knob, never a results knob. This gate steps one 1024-core,
//! 16-wide chip (64 islands) under pools of 1, 4, and 16 workers — the
//! `CPM_WORKERS` values CI exercises — and the paper's 8-core chip at
//! island widths 1 and 2 (where the slicing is finest) under 2 workers,
//! each against the serial reference path, and requires the trajectories
//! to be byte-identical: every snapshot field equal and every per-core
//! power/temperature bit-equal.

use cpm_runtime::Pool;
use cpm_sim::{Chip, ChipSnapshot, CmpConfig};
use cpm_units::IslandId;
use cpm_workloads::{Mix, WorkloadAssignment};

const CORES: usize = 1024;
const WIDTH: usize = 16;
const STEPS: usize = 30;

fn kilocore_chip() -> Chip {
    // paper_mix caps out at 32 cores; tile Mix 3 across the big chip.
    let profiles: Vec<_> = WorkloadAssignment::paper_mix(Mix::Mix3, 32)
        .profiles()
        .iter()
        .cloned()
        .cycle()
        .take(CORES)
        .collect();
    let cfg = CmpConfig::with_topology(CORES, WIDTH);
    let assignment = WorkloadAssignment::new(profiles, WIDTH);
    Chip::new(cfg, &assignment)
}

/// Drives `chip` for `STEPS` intervals on the given pool (serial
/// reference when `pool` is `None`), wandering the DVFS state so freezes
/// and per-island operating points differ across islands, and returns
/// every snapshot.
fn trajectory(mut chip: Chip, pool: Option<&Pool>) -> Vec<ChipSnapshot> {
    let mut snap = ChipSnapshot::empty();
    let islands = chip.config().islands();
    let mut out = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        if step % 5 == 0 {
            chip.set_island_dvfs(IslandId((step * 13) % islands), (step * 3) % 8);
        }
        match pool {
            Some(p) => chip.step_pic_into_on(&mut snap, p),
            None => chip.step_pic_into(&mut snap),
        }
        out.push(snap.clone());
    }
    out
}

fn assert_bit_identical(label: &str, a: &[ChipSnapshot], b: &[ChipSnapshot]) {
    assert_eq!(a.len(), b.len());
    for (step, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{label}: snapshot diverged at step {step}");
        for (c, (p, q)) in x.core_powers.iter().zip(&y.core_powers).enumerate() {
            assert_eq!(
                p.value().to_bits(),
                q.value().to_bits(),
                "{label}: core {c} power bits at step {step}"
            );
        }
        for (c, (p, q)) in x.temperatures.iter().zip(&y.temperatures).enumerate() {
            assert_eq!(
                p.value().to_bits(),
                q.value().to_bits(),
                "{label}: core {c} temperature bits at step {step}"
            );
        }
        assert_eq!(
            x.memory_contention.to_bits(),
            y.memory_contention.to_bits(),
            "{label}: contention bits at step {step}"
        );
    }
}

#[test]
fn kilocore_trajectory_is_byte_identical_across_worker_counts() {
    let serial = trajectory(kilocore_chip(), None);
    for workers in [1usize, 4, 16] {
        let pool = Pool::new(workers);
        let sharded = trajectory(kilocore_chip(), Some(&pool));
        assert_bit_identical(&format!("workers={workers}"), &serial, &sharded);
    }
}

#[test]
fn eight_core_trajectories_are_byte_identical_at_narrow_islands() {
    let pool = Pool::new(2);
    for (width, mix) in [(1usize, Mix::Thermal), (2, Mix::Mix1)] {
        let chip = || {
            Chip::new(
                CmpConfig::with_topology(8, width),
                &WorkloadAssignment::paper_mix(mix, 8),
            )
        };
        let serial = trajectory(chip(), None);
        let sharded = trajectory(chip(), Some(&pool));
        assert_bit_identical(&format!("8 cores, width {width}"), &serial, &sharded);
    }
}

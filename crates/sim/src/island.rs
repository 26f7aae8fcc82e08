//! Voltage/frequency island state and actuation for one island: the
//! scalar oracle that `IslandBank`'s actuation is checked against.
//! Test-only; the chip runs on `IslandBank`.
//!
//! All cores of an island share one DVFS knob ("multiple CPUs share a
//! common DVFS controller … all cores in an island are now restricted to
//! operate under identical voltage frequency settings", §II-B). Changing
//! the knob freezes the island's cores for the transition overhead during
//! the next interval.

use cpm_power::dvfs::DvfsTable;
use cpm_units::Seconds;

/// Runtime state of one island.
#[derive(Debug, Clone)]
pub(crate) struct IslandState {
    dvfs_index: usize,
    /// Set when the operating point changed since the last interval — the
    /// next interval pays the freeze cost.
    pending_transition: bool,
    transitions: u64,
}

impl IslandState {
    /// Creates an island of `cores` cores starting at `dvfs_index`.
    pub(crate) fn new(cores: usize, dvfs_index: usize) -> Self {
        assert!(cores > 0, "an island needs at least one core");
        Self {
            dvfs_index,
            pending_transition: false,
            transitions: 0,
        }
    }

    /// Current operating-point index into the chip's DVFS table.
    pub(crate) fn dvfs_index(&self) -> usize {
        self.dvfs_index
    }

    /// Requests a new operating point. A real change schedules a freeze for
    /// the next interval; requesting the current point is free.
    pub(crate) fn set_dvfs_index(&mut self, idx: usize, table: &DvfsTable) {
        assert!(idx < table.len(), "operating point {idx} out of range");
        if idx != self.dvfs_index {
            self.dvfs_index = idx;
            self.pending_transition = true;
            self.transitions += 1;
        }
    }

    /// Consumes the pending transition, returning the freeze time to charge
    /// against an interval of length `dt`.
    pub(crate) fn take_freeze(&mut self, table: &DvfsTable, dt: Seconds) -> Seconds {
        if self.pending_transition {
            self.pending_transition = false;
            dt * table.transition_overhead()
        } else {
            Seconds::ZERO
        }
    }

    /// Total operating-point changes so far.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn island() -> IslandState {
        IslandState::new(2, 7)
    }

    #[test]
    fn starts_without_pending_transition() {
        let mut i = island();
        let t = DvfsTable::pentium_m();
        assert_eq!(i.take_freeze(&t, Seconds::from_ms(0.5)), Seconds::ZERO);
    }

    #[test]
    fn change_schedules_one_freeze() {
        let mut i = island();
        let t = DvfsTable::pentium_m();
        i.set_dvfs_index(3, &t);
        let dt = Seconds::from_ms(0.5);
        let frozen = i.take_freeze(&t, dt);
        assert!((frozen.value() - dt.value() * 0.005).abs() < 1e-15);
        // Consumed: second take is free.
        assert_eq!(i.take_freeze(&t, dt), Seconds::ZERO);
    }

    #[test]
    fn setting_same_index_is_free() {
        let mut i = island();
        let t = DvfsTable::pentium_m();
        i.set_dvfs_index(7, &t);
        assert_eq!(i.transitions(), 0);
        assert_eq!(i.take_freeze(&t, Seconds::from_ms(0.5)), Seconds::ZERO);
    }

    #[test]
    fn transitions_are_counted() {
        let mut i = island();
        let t = DvfsTable::pentium_m();
        i.set_dvfs_index(3, &t);
        i.set_dvfs_index(5, &t);
        i.set_dvfs_index(5, &t);
        assert_eq!(i.transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        island().set_dvfs_index(8, &DvfsTable::pentium_m());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_island_rejected() {
        IslandState::new(0, 0);
    }
}

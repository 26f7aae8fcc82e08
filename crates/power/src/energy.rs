//! Energy and energy-per-instruction accounting.
//!
//! The variation-aware GPM policy (§IV-B) steers on *energy per
//! (non-spin) instruction*: each interval it "counts the number of non-spin
//! instructions retired and … approximates the energy consumed by the
//! voltage frequency island over the interval, allowing the computation of
//! energy per instruction". [`EnergyAccount`] performs that bookkeeping.

use cpm_units::{Joules, Seconds, Watts};

/// Accumulates energy and instruction counts over control intervals.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccount {
    total_energy: Joules,
    total_instructions: f64,
    total_time: Seconds,
}

impl EnergyAccount {
    /// A fresh, empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one interval: average power `power` sustained for `dt`,
    /// retiring `instructions` instructions.
    pub fn record_interval(&mut self, power: Watts, dt: Seconds, instructions: f64) {
        assert!(instructions >= 0.0, "instruction count cannot be negative");
        assert!(dt.value() >= 0.0, "interval length cannot be negative");
        self.total_energy += power * dt;
        self.total_instructions += instructions;
        self.total_time += dt;
    }

    /// Total energy consumed so far.
    pub fn total_energy(&self) -> Joules {
        self.total_energy
    }

    /// Total instructions retired so far.
    pub fn total_instructions(&self) -> f64 {
        self.total_instructions
    }

    /// Total wall-clock time covered.
    pub fn total_time(&self) -> Seconds {
        self.total_time
    }

    /// Cumulative energy per instruction, in joules; `None` before any
    /// instruction retires.
    pub fn energy_per_instruction(&self) -> Option<Joules> {
        (self.total_instructions > 0.0).then(|| self.total_energy / self.total_instructions)
    }

    /// Average power over all recorded time.
    pub fn average_power(&self) -> Option<Watts> {
        (self.total_time.value() > 0.0).then(|| self.total_energy / self.total_time)
    }

    /// Throughput in billions of instructions per second (the paper's BIPS
    /// metric) over all recorded time.
    pub fn bips(&self) -> Option<f64> {
        (self.total_time.value() > 0.0)
            .then(|| self.total_instructions / self.total_time.value() / 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy_and_instructions() {
        let mut acc = EnergyAccount::new();
        acc.record_interval(Watts::new(10.0), Seconds::from_ms(1.0), 1.0e6);
        acc.record_interval(Watts::new(20.0), Seconds::from_ms(1.0), 3.0e6);
        assert!((acc.total_energy().value() - 0.03).abs() < 1e-12);
        assert_eq!(acc.total_instructions(), 4.0e6);
        assert!((acc.total_time().ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn epi_cumulative_vs_last_interval() {
        let mut acc = EnergyAccount::new();
        acc.record_interval(Watts::new(10.0), Seconds::new(1.0), 1.0e9);
        acc.record_interval(Watts::new(30.0), Seconds::new(1.0), 1.0e9);
        // Cumulative: 40 J / 2e9 instr = 20 nJ, not the last interval's 30.
        assert!((acc.energy_per_instruction().unwrap().value() - 20.0e-9).abs() < 1e-15);
    }

    #[test]
    fn empty_account_yields_none() {
        let acc = EnergyAccount::new();
        assert!(acc.energy_per_instruction().is_none());
        assert!(acc.average_power().is_none());
        assert!(acc.bips().is_none());
    }

    #[test]
    fn average_power_and_bips() {
        let mut acc = EnergyAccount::new();
        acc.record_interval(Watts::new(50.0), Seconds::new(2.0), 4.0e9);
        assert!((acc.average_power().unwrap().value() - 50.0).abs() < 1e-12);
        assert!((acc.bips().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_instruction_interval_keeps_epi_defined_cumulatively() {
        let mut acc = EnergyAccount::new();
        acc.record_interval(Watts::new(10.0), Seconds::new(1.0), 1.0e9);
        acc.record_interval(Watts::new(10.0), Seconds::new(1.0), 0.0);
        assert!(acc.energy_per_instruction().is_some());
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_instruction_count() {
        EnergyAccount::new().record_interval(Watts::new(1.0), Seconds::new(1.0), -5.0);
    }
}

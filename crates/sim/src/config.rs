//! Chip and experiment configuration (the paper's Table I).

use cpm_power::dvfs::DvfsTable;
use cpm_power::CorePowerModel;
use cpm_thermal::{Floorplan, ThermalParams};
use cpm_units::Seconds;

/// Cache geometry (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 capacity in bytes (16 KB).
    pub l1_bytes: usize,
    /// L1 associativity (2-way).
    pub l1_ways: usize,
    /// Per-core L2 slice in bytes (512 KB per core, shared).
    pub l2_bytes_per_core: usize,
    /// L2 associativity (16-way).
    pub l2_ways: usize,
    /// Line size in bytes (64 B).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Table I values.
    pub fn paper_default() -> Self {
        Self {
            l1_bytes: 16 * 1024,
            l1_ways: 2,
            l2_bytes_per_core: 512 * 1024,
            l2_ways: 16,
            line_bytes: 64,
        }
    }
}

/// Full CMP configuration.
#[derive(Debug, Clone)]
pub struct CmpConfig {
    /// Total core count (8 / 16 / 32 in the paper).
    pub cores: usize,
    /// Cores per voltage/frequency island (1 / 2 / 4).
    pub cores_per_island: usize,
    /// The DVFS operating-point table shared by every island.
    pub dvfs: DvfsTable,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Per-core power model.
    pub power: CorePowerModel,
    /// Thermal network parameters.
    pub thermal: ThermalParams,
    /// GPM invocation interval (`T_global`, 5 ms default).
    pub gpm_interval: Seconds,
    /// PIC invocation interval (`T_local`, 0.5 ms default).
    pub pic_interval: Seconds,
    /// Shared memory-controller bandwidth in bytes/second; when the
    /// chip's aggregate DRAM traffic exceeds it, every miss queues and the
    /// effective memory latency inflates proportionally. `None` models an
    /// ideal (uncontended) memory system.
    pub memory_bandwidth: Option<f64>,
    /// Master seed for all stochastic components.
    pub seed: u64,
}

impl CmpConfig {
    /// The paper's default: 8 out-of-order cores, 4 islands × 2 cores,
    /// 8 Pentium-M V/F pairs, GPM every 5 ms, PIC every 0.5 ms.
    pub fn paper_default() -> Self {
        Self::with_topology(8, 2)
    }

    /// A configuration with the given core count and island width, all
    /// other parameters at paper defaults.
    pub fn with_topology(cores: usize, cores_per_island: usize) -> Self {
        let cfg = Self {
            cores,
            cores_per_island,
            dvfs: DvfsTable::pentium_m(),
            cache: CacheConfig::paper_default(),
            power: CorePowerModel::paper_default(),
            thermal: ThermalParams::paper_default(),
            gpm_interval: Seconds::from_ms(5.0),
            pic_interval: Seconds::from_ms(0.5),
            // DDR2-era dual-channel controller: ample for 8 cores, a real
            // ceiling once 32 memory-bound cores pile on.
            memory_bandwidth: Some(6.4e9),
            seed: 0xC0FFEE,
        };
        cfg.validate();
        cfg
    }

    /// Checks internal consistency; panics with a descriptive message on
    /// nonsense configurations.
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        if let Some(bw) = self.memory_bandwidth {
            assert!(bw > 0.0, "memory bandwidth must be positive");
        }
        assert!(
            self.cores_per_island > 0 && self.cores % self.cores_per_island == 0,
            "cores ({}) must divide evenly into islands of {}",
            self.cores,
            self.cores_per_island
        );
        assert!(
            self.pic_interval.value() > 0.0 && self.gpm_interval.value() > 0.0,
            "control intervals must be positive"
        );
        assert!(
            self.gpm_interval >= self.pic_interval,
            "the GPM must run at a coarser interval than the PIC (Fig. 4)"
        );
        let ratio = self.gpm_interval / self.pic_interval;
        assert!(
            (ratio - ratio.round()).abs() < 1e-9,
            "GPM interval must be an integer multiple of the PIC interval"
        );
    }

    /// Number of islands.
    pub fn islands(&self) -> usize {
        self.cores / self.cores_per_island
    }

    /// PIC invocations per GPM invocation (10 at paper defaults).
    pub fn pics_per_gpm(&self) -> usize {
        (self.gpm_interval / self.pic_interval).round() as usize
    }

    /// The thermal floorplan implied by the core count.
    pub fn floorplan(&self) -> Floorplan {
        Floorplan::for_cores(self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = CmpConfig::paper_default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.islands(), 4);
        assert_eq!(c.dvfs.len(), 8);
        assert_eq!(c.cache.l1_bytes, 16 * 1024);
        assert_eq!(c.cache.l2_ways, 16);
        assert_eq!(c.pics_per_gpm(), 10);
    }

    #[test]
    fn topology_variants() {
        assert_eq!(CmpConfig::with_topology(16, 4).islands(), 4);
        assert_eq!(CmpConfig::with_topology(32, 4).islands(), 8);
        assert_eq!(CmpConfig::with_topology(8, 1).islands(), 8);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn ragged_islands_rejected() {
        CmpConfig::with_topology(8, 3);
    }

    #[test]
    #[should_panic(expected = "coarser")]
    fn gpm_faster_than_pic_rejected() {
        let mut c = CmpConfig::paper_default();
        c.gpm_interval = Seconds::from_ms(0.1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn non_integer_interval_ratio_rejected() {
        let mut c = CmpConfig::paper_default();
        c.gpm_interval = Seconds::from_ms(5.0);
        c.pic_interval = Seconds::from_ms(0.7);
        c.validate();
    }
}

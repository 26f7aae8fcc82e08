//! The paper's contribution: **coordinated two-tier power management** for
//! chip-multiprocessors with voltage/frequency islands.
//!
//! * [`pic`] — the **P**er-**I**sland **C**ontroller: a PID loop (paper
//!   Eq. 7) that caps island power at its provisioned level by moving the
//!   island's single DVFS knob, sensing power through a calibrated
//!   utilization→power transducer (§II-D),
//! * [`gpm`] — the **G**lobal **P**ower **M**anager: invoked at a coarser
//!   interval, it splits the chip-wide budget across islands according to a
//!   pluggable [`gpm::ProvisioningPolicy`],
//! * [`policies`] — the three published policies: performance-aware
//!   (Eqs. 1–6), thermal-aware (§IV-A), variation-aware (§IV-B),
//! * [`maxbips`] — the MaxBIPS comparison baseline (Isci et al.): an
//!   open-loop global manager choosing DVFS combinations from a prediction
//!   table,
//! * [`coordinator`] — the runtime harness wiring chip + GPM + PICs on the
//!   Fig. 4 timeline, plus the no-management and MaxBIPS baselines,
//! * [`metrics`] — overshoot / settling-time / steady-state-error
//!   extraction (§II-A's robustness metrics),
//! * [`model`] — system identification against the running chip: the
//!   Fig. 5 model-validation experiment and the `aᵢ` gain fit.

pub mod coordinator;
pub mod gpm;
pub mod maxbips;
pub mod metrics;
pub mod model;
pub mod pic;
pub mod policies;

pub use coordinator::{Coordinator, ExperimentConfig, ManagementScheme, Outcome, SensorMode};
pub use gpm::{GlobalPowerManager, IslandFeedback, ProvisioningPolicy};
pub use maxbips::MaxBips;
pub use metrics::{robustness_summary, segment_metrics, RobustnessSummary, TrackingSummary};
pub use pic::PerIslandController;
pub use policies::performance::PerformanceAware;
pub use policies::thermal::{ThermalAware, ThermalConstraints};
pub use policies::variation::VariationAware;

/// One-stop imports for typical use of the public API.
pub mod prelude {
    pub use crate::coordinator::{
        Coordinator, ExperimentConfig, ManagementScheme, Outcome, SensorMode,
    };
    pub use crate::gpm::{GlobalPowerManager, IslandFeedback, ProvisioningPolicy};
    pub use crate::maxbips::MaxBips;
    pub use crate::pic::PerIslandController;
    pub use crate::policies::performance::PerformanceAware;
    pub use crate::policies::thermal::{ThermalAware, ThermalConstraints};
    pub use crate::policies::variation::VariationAware;
    pub use cpm_sim::CmpConfig;
    pub use cpm_workloads::Mix;
}

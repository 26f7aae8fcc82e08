//! The GPM provisioning policies evaluated by the paper.
//!
//! * [`performance`] — maximize chip BIPS within the budget (Eqs. 1–6),
//! * [`thermal`] — avoid hotspots via spatio-temporal allocation
//!   constraints (§IV-A),
//! * [`variation`] — minimize power/throughput under intra-die leakage
//!   variation via greedy exploration (§IV-B).
//!
//! §II-C's other uses of the decoupled design (energy with a performance
//! guarantee, QoS provisioning) are not built in: a caller writes them on
//! [`crate::gpm::ProvisioningPolicy`], as `examples/custom_policy.rs` does.

pub mod performance;
pub mod thermal;
pub mod variation;

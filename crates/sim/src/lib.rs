//! Interval-accurate CMP simulator.
//!
//! This crate replaces the paper's Simics + GEMS stack. It simulates a
//! chip-multiprocessor whose cores are grouped into voltage/frequency
//! islands, at the granularity the power controllers operate on: one
//! *control interval* (the PIC's 0.5 ms) per step. Within a step each core
//! executes according to a CPI-stack model — core-bound cycles are
//! frequency-scaled, DRAM stalls are fixed in wall-clock time — which
//! reproduces exactly the frequency-sensitivity split between CPU-bound and
//! memory-bound workloads that every experiment in the paper turns on.
//!
//! * [`config`] — chip configuration (Table I) and experiment knobs,
//! * [`cache`] — a real set-associative LRU cache hierarchy, exercised by
//!   synthetic address streams to calibrate miss rates,
//! * [`calibration`] — the profile↔cache-simulator consistency layer,
//! * [`core_model`] — the per-core CPI-stack factors,
//! * [`soa`] — structure-of-arrays core and island state: the CPI-stack
//!   step and V/F actuation the chip runs,
//! * [`memo`] — the process-wide memo table behind the pure set-up caches,
//! * [`chip`] — the full chip: cores + islands + thermal grid + power,
//! * [`injection`] — fault-injection seams on the sense/actuate paths,
//! * [`stats`] — interval snapshots and time-series reduction.

pub mod cache;
pub mod calibration;
pub mod chip;
pub mod config;
pub mod core_model;
pub mod injection;
pub mod memo;
pub mod soa;
pub mod stats;

pub use chip::{Chip, ChipSnapshot, IslandSnapshot};
pub use config::CmpConfig;
pub use injection::InjectionSeam;
pub use soa::{CoreBank, CoreSegment, CoreView, IslandBank, IslandView, SegmentTotals};
pub use stats::TimeSeries;

// The scalar island oracle `IslandBank` is checked against.
#[cfg(test)]
mod island;

//! End-to-end and per-layer benchmark of the CPM reproduction.
//!
//! Three single-threaded, closed-loop workloads drive the repository's
//! crates through their public APIs only:
//!
//! * [`kilocore`] — one GPM round on a 1024-core, 16-island chip;
//! * [`paper`] — one round of each of four paper-scale coordinators;
//! * [`scenarios`] — the fault-injection catalogue with recording, export
//!   and golden checks on.
//!
//! An untraced run ([`run::untraced`]) reports the end-to-end metrics,
//! rescaled by a [`reference`] probe interleaved with the ops; a traced
//! run ([`layers::traced`]) times each layer's public calls and reconciles
//! them against the untraced op. `NOTES.md` records why each
//! workload and statistic was chosen.

pub mod check;
pub mod cli;
pub mod clock;
pub mod kilocore;
pub mod layers;
pub mod paper;
pub mod reference;
pub mod report;
pub mod run;
pub mod scenarios;
pub mod spans;
pub mod stats;

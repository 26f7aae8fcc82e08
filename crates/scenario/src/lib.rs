//! Deterministic fault-injection scenarios over the CPM control stack.
//!
//! The simulator's determinism story (seeded RNG, simulated-time clock,
//! worker-count-independent reductions) makes a stronger kind of CI gate
//! possible: run a *named fault story* against the GPM/PIC loop, render
//! its flight-recorder trajectory to JSONL, and pin the whole stream to
//! a committed fingerprint. Any behavioral drift — an intended control
//! change or an accidental one — moves the digest and fails the gate.
//!
//! Three layers:
//!
//! * [`effect`] — the fault taxonomy ([`Effect`]) and the
//!   [`InjectionSchedule`] that implements [`cpm_sim::InjectionSeam`]:
//!   transducer noise/dropout, stuck/slow DVFS actuators, chip-budget
//!   transients, and per-island controller failure with GPM failover,
//! * [`catalogue`] — the named scenarios (`<effect>@<scheme>`) with
//!   their configurations, seeds, and behavioral checks, plus the
//!   [`run_scenario`] runner,
//! * [`golden`] — the committed trajectory fingerprint ([`GoldenDoc`]:
//!   whole-stream digest + per-block digests + readable anchors) and the
//!   differential-replay report that separates nondeterminism from
//!   behavioral change when a gate fails.
//!
//! The tier-1 tests (root `tests/scenarios.rs`) replay every catalogue
//! entry against `goldens/` and assert byte-identical trajectories
//! across repeated runs and worker counts; `experiments scenarios`
//! drives the same catalogue from the bench CLI and `--update-goldens`
//! regenerates the committed fingerprints when a behavioral change is
//! intended.

pub mod catalogue;
pub mod checks;
pub mod effect;
pub mod golden;

pub use catalogue::{
    find, record_scenario, run_scenario, Scenario, ScenarioRun, CATALOGUE, SCENARIO_ROUNDS,
};
pub use checks::ScenarioCheck;
pub use effect::{Effect, InjectionSchedule, TimedEffect};
pub use golden::{
    differential_report, first_differing_line, Divergence, GoldenBlock, GoldenDoc, BLOCK_EVENTS,
    GOLDEN_HEADER,
};

//! Flight-recorder walkthrough: record a thermal-aware run, catch a
//! thermal violation in the event log, and print the metrics report.
//!
//! A [`cpm::obs::Recorder`] handle threads through the whole control
//! stack — GPM, policy, PICs, and the die-temperature watchdog — and
//! captures every control decision with its *simulated* timestamp. The
//! companion [`cpm::obs::Registry`] accumulates run-level instruments
//! (invocation counts, tracking error, violation statistics).
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```

use cpm::core::coordinator::PolicyKind;
use cpm::core::policies::thermal::ThermalConstraints;
use cpm::obs::{write_event_jsonl, EventKind, Recorder, Registry};
use cpm::prelude::*;
use cpm::units::Celsius;

fn main() {
    // The Fig. 18 layout: SPEC roster on eight single-core islands under
    // the thermal-aware policy, with a deliberately tight budget so the
    // constraint tracker has something to do.
    let mut cfg = ExperimentConfig::paper_default().with_budget_percent(75.0);
    cfg.mix = Mix::Thermal;
    cfg.cmp = CmpConfig::with_topology(8, 1);
    cfg.scheme =
        ManagementScheme::Cpm(PolicyKind::Thermal(ThermalConstraints::paper_eight_island()));

    let mut coordinator = Coordinator::new(cfg).expect("valid config");

    // Attach the observability stack before running: a 64k-event ring
    // buffer and a fresh registry. A `Recorder::disabled()` handle would
    // make every record call a single branch — recording is opt-in.
    let recorder = Recorder::enabled(1 << 16);
    let registry = Registry::new();
    coordinator.set_registry(registry.clone());
    coordinator.set_recorder(recorder.clone());
    // Die-temperature watchdog: onsets above the threshold become
    // ThermalViolation events. 55 °C is intentionally low so this example
    // reliably captures one on the synthetic substrate.
    coordinator.attach_hotspot_tracker(Celsius::new(55.0));

    coordinator.run_for_gpm_intervals(40);

    let events = recorder.drain();
    println!(
        "captured {} events ({} dropped)\n",
        events.len(),
        recorder.dropped()
    );

    // Count each event kind the run produced.
    for kind in EventKind::ALL {
        let n = events.iter().filter(|e| e.kind() == kind).count();
        println!("  {:<20} {n}", kind.as_str());
    }

    // Pull the first thermal violation out of the log and show it as the
    // JSONL line the `experiments trace` exporter would write.
    let violation = events
        .iter()
        .find(|e| e.kind() == EventKind::ThermalViolation)
        .expect("the tight budget and low watchdog threshold force one");
    let mut line = Vec::new();
    write_event_jsonl(&mut line, violation);
    println!(
        "\nfirst thermal violation:\n  {}",
        String::from_utf8_lossy(&line)
    );

    // The registry's one-page report: counters and gauges the coordinator
    // published at the end of the measurement.
    println!("\n{}", registry.snapshot().to_text());
}

//! Tier-1 gate for decision provenance: a traced cell's event stream must
//! form a walkable cause tree — every `PicDecision` parents to its round's
//! `GpmRound` span, every `Actuation` parents to the decision (or round)
//! that caused it, and the `explain` renderer can reconstruct the chain
//! from the recorded events alone.

use cpm_bench::explain::{explain_events, ExplainOptions};
use cpm_bench::trace::{run_trace, TraceOptions};
use cpm_obs::{EventPayload, SpanId, SpanKind};

fn traced_cell() -> cpm_bench::trace::TraceArtifacts {
    run_trace(
        "pid@80",
        &TraceOptions {
            rounds: 16,
            ..TraceOptions::default()
        },
    )
    .expect("cell runs")
}

#[test]
fn every_decision_and_actuation_parents_into_the_cause_tree() {
    let artifacts = traced_cell();
    let mut rounds = 0usize;
    let mut decisions = 0usize;
    let mut actuations = 0usize;
    for e in &artifacts.events {
        match e.payload {
            EventPayload::GpmRound { span, round, .. } => {
                rounds += 1;
                let s = SpanId::decode(span).expect("round span decodes");
                assert_eq!(s.kind(), SpanKind::GpmRound);
                assert_eq!(s.round(), round);
                assert_eq!(s.parent(), None, "rounds are roots");
            }
            EventPayload::PicDecision {
                span,
                parent,
                round,
                step,
                island,
                ..
            } => {
                decisions += 1;
                let s = SpanId::decode(span).expect("decision span decodes");
                assert_eq!(s.kind(), SpanKind::PicDecision);
                assert_eq!(
                    (s.round(), s.island(), s.step()),
                    (round, Some(island), Some(step))
                );
                // The recorded parent is the enclosing round, and the
                // structural parent derived from coordinates agrees.
                assert_eq!(parent, SpanId::gpm_round(round).raw());
                assert_eq!(s.parent().map(|p| p.raw()), Some(parent));
            }
            EventPayload::Actuation {
                span,
                parent,
                island,
                ..
            } => {
                actuations += 1;
                let s = SpanId::decode(span).expect("actuation span decodes");
                assert_eq!(s.kind(), SpanKind::Actuation);
                assert_eq!(s.island(), Some(island));
                // Per-island schemes parent the move to the decision at
                // the same coordinates; chip-level schemes to the round.
                let decision = s.parent().expect("actuations are not roots");
                assert!(
                    parent == decision.raw() || parent == SpanId::gpm_round(s.round()).raw(),
                    "actuation parent {parent:#x} is neither decision nor round"
                );
            }
            _ => {}
        }
    }
    assert!(rounds >= 16, "one GpmRound per interval, got {rounds}");
    // 4 islands × 10 PIC steps × 16 rounds.
    assert_eq!(decisions, 4 * 10 * 16);
    assert_eq!(
        actuations, decisions,
        "every decision actuates exactly once"
    );
}

#[test]
fn explain_walks_the_recorded_chain_for_a_specific_decision() {
    let artifacts = traced_cell();
    // The acceptance example: round 14, island 2, from events alone.
    let text = explain_events(
        "pid@80",
        &artifacts.events,
        ExplainOptions {
            round: Some(14),
            island: Some(2),
        },
    )
    .expect("chain renders");
    for needle in [
        "== explain pid@80 round 14 ==",
        "GpmRound #14",
        "GpmAllocation island 2",
        "PicDecision step 0",
        "PicDecision step 9",
        "pid: p=",
        "Actuation span=actuation#",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // A healthy recorded chain carries no integrity flags.
    assert!(!text.contains("!! span mismatch"), "{text}");
    assert!(!text.contains("!! parent"), "{text}");
    // Renders are byte-identical across replays (the chain is a pure
    // function of the recorded stream).
    let again = traced_cell();
    let text2 = explain_events(
        "pid@80",
        &again.events,
        ExplainOptions {
            round: Some(14),
            island: Some(2),
        },
    )
    .expect("chain renders again");
    assert_eq!(text, text2);
}

#[test]
fn span_ids_stay_unique_across_measurements() {
    use cpm_core::{Coordinator, ExperimentConfig};
    use cpm_obs::Recorder;

    let mut coord = Coordinator::new(ExperimentConfig::paper_default()).expect("valid config");
    let recorder = Recorder::enabled(1 << 16);
    coord.set_recorder(recorder.clone());
    coord.run_for_gpm_intervals(3);
    coord.run_for_gpm_intervals(3);
    let events = recorder.drain();
    assert_eq!(recorder.dropped(), 0);

    let mut spans = std::collections::BTreeSet::new();
    let mut duplicates = 0usize;
    let (mut rounds, mut current, mut allocations) = (Vec::new(), None, 0usize);
    for e in &events {
        match e.payload {
            EventPayload::GpmRound { span, round, .. } => {
                rounds.push(round);
                current = Some(round);
                duplicates += usize::from(!spans.insert(span));
            }
            EventPayload::PicDecision { span, .. } | EventPayload::Actuation { span, .. } => {
                duplicates += usize::from(!spans.insert(span));
            }
            EventPayload::GpmAllocation { round, .. } => {
                // An allocation belongs to the round whose root precedes it.
                assert_eq!(Some(round), current, "allocation outside its round");
                allocations += 1;
            }
            _ => {}
        }
    }
    // The first measurement numbers its rounds 0, 1, 2 exactly as a lone
    // measurement does; the second continues from there.
    assert_eq!(rounds, [0, 1, 2, 3, 4, 5]);
    assert_eq!(duplicates, 0, "span ids repeat across measurements");
    // Each measurement provisions in every round but its feedback-free
    // first: 2 × 2 rounds × 4 islands.
    assert_eq!(allocations, 16);
    // One root, 4 islands × 10 PIC steps of decisions and of actuations.
    assert_eq!(spans.len(), 6 * (1 + 2 * 40));
}

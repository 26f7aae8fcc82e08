//! Golden trajectories: committed fingerprints of a scenario's event
//! stream, and readable reports when a run diverges from one.
//!
//! A [`GoldenDoc`] pins a scenario to its rendered JSONL trajectory with
//! three levels of detail:
//!
//! * one whole-stream FNV-1a 64 digest (the pass/fail gate),
//! * per-block digests over [`BLOCK_EVENTS`]-line chunks, so a diverging
//!   run can be localized without committing the full stream,
//! * each block's first JSONL line, a human-readable anchor naming a
//!   concrete event near the divergence.
//!
//! The on-disk form is a line-oriented text file (header + one line per
//! block) that diffs cleanly in review. [`differential_report`] turns a
//! failed gate plus a replay into a report that first rules out
//! nondeterminism (two runs disagreeing with *each other*) and then
//! anchors the behavioral change at the first diverging event.

use cpm_obs::{fold_event_jsonl, format_digest, Event, Fnv1a64};

/// Events per golden block. Small enough to localize a divergence to a
/// couple of GPM rounds, large enough that goldens stay a few dozen
/// lines.
pub const BLOCK_EVENTS: usize = 256;

/// Magic first line of every golden file; bump the suffix on format
/// changes.
pub const GOLDEN_HEADER: &str = "cpm-scenario-golden v1";

/// One [`BLOCK_EVENTS`]-line chunk of the trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenBlock {
    /// FNV-1a 64 digest of the chunk's lines (newline-terminated).
    pub digest: String,
    /// The chunk's first JSONL line — the readable anchor.
    pub first_line: String,
}

/// A committed golden trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDoc {
    /// Scenario name, e.g. `sensor-dropout@pid`.
    pub scenario: String,
    /// Total event (line) count of the trajectory.
    pub events: usize,
    /// Whole-stream digest (`fnv1a64:%016x` of the full JSONL).
    pub digest: String,
    /// Per-block fingerprints in stream order.
    pub blocks: Vec<GoldenBlock>,
}

/// Where a run first left its golden trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first diverging block.
    pub block: usize,
    /// First event index covered by that block.
    pub first_event: usize,
    /// The golden's anchor line for the block (empty when the run has
    /// extra blocks the golden lacks).
    pub expected_first_line: String,
    /// The run's anchor line for the block (empty when the run ended
    /// before this block).
    pub actual_first_line: String,
}

/// The one fingerprint state behind [`GoldenDoc::from_jsonl`] and
/// [`GoldenDoc::render_events`]: the whole-stream digest, the open
/// block's digest and the sealed blocks. A line folds into both chains
/// in the same loop, with no per-block copy of the text.
struct Fingerprint {
    whole: Fnv1a64,
    block: Fnv1a64,
    events: usize,
    blocks: Vec<GoldenBlock>,
}

impl Fingerprint {
    /// A walker for a stream of `events` lines (0 when unknown). Sizing
    /// the block list up front keeps its reallocations from interleaving
    /// with the growth of the JSONL buffer, which measured about 100 KB
    /// lower peak RSS on the scenario pass (DESIGN.md §3c).
    fn new(events: usize) -> Self {
        Self {
            whole: Fnv1a64::new(),
            block: Fnv1a64::new(),
            events: 0,
            blocks: Vec::with_capacity(events.div_ceil(BLOCK_EVENTS)),
        }
    }

    /// Seals the open block's digest.
    fn seal(&mut self) {
        if let Some(b) = self.blocks.last_mut() {
            b.digest = format_digest(self.block.finish());
        }
    }

    /// Counts a new line. When it opens a block, seals the previous one,
    /// restarts the block chain and returns true: the caller then
    /// anchors the block with [`Self::anchor`].
    fn begin_line(&mut self) -> bool {
        let opens = self.events % BLOCK_EVENTS == 0;
        if opens {
            self.seal();
            self.block = Fnv1a64::new();
        }
        self.events += 1;
        opens
    }

    /// Opens a block anchored at `line`, its first line.
    fn anchor(&mut self, line: &str) {
        self.blocks.push(GoldenBlock {
            digest: String::new(),
            first_line: line.to_string(),
        });
    }

    /// Folds one raw line of text byte by byte: its bytes as they
    /// appear, terminator included when there is one. The whole digest
    /// hashes those bytes. The line itself follows `str::lines` (no `\n`
    /// or `\r\n`), and the block digest hashes it plus `\n`, also where
    /// the text has `\r\n` or no final newline.
    fn feed(&mut self, raw: &str) {
        let line = match raw.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => raw,
        };
        if self.begin_line() {
            self.anchor(line);
        }
        // `raw` is exactly `line` plus `\n`: both chains take the same bytes.
        if raw.len() == line.len() + 1 {
            self.whole.update_pair(&mut self.block, raw.as_bytes());
        } else {
            self.whole.update(raw.as_bytes());
            self.block.update(line.as_bytes());
            self.block.update(b"\n");
        }
    }

    fn finish(mut self, scenario: &str) -> GoldenDoc {
        self.seal();
        GoldenDoc {
            scenario: scenario.to_string(),
            events: self.events,
            digest: format_digest(self.whole.finish()),
            blocks: self.blocks,
        }
    }
}

impl GoldenDoc {
    /// Fingerprints a rendered JSONL trajectory, byte by byte: the path
    /// for text read back (divergence reports, the benchmark's shadow
    /// run, tests).
    pub fn from_jsonl(scenario: &str, jsonl: &str) -> Self {
        let mut fp = Fingerprint::new(0);
        for raw in jsonl.split_inclusive('\n') {
            fp.feed(raw);
        }
        fp.finish(scenario)
    }

    /// Renders `events` as JSONL and fingerprints each line as it is
    /// written: `(events_to_jsonl(events), from_jsonl(scenario, ..))`
    /// without reading the text back. The field walk appends bytes,
    /// folds constant text through its FNV-1a jump and hashes only the
    /// values byte by byte. The text is checked as UTF-8 once, at the
    /// end, and each block's anchor line once when its block opens.
    pub fn render_events(scenario: &str, events: &[Event]) -> (String, Self) {
        let mut jsonl = Vec::new();
        let mut fp = Fingerprint::new(events.len());
        for e in events {
            let start = jsonl.len();
            let opens = fp.begin_line();
            fold_event_jsonl(&mut jsonl, e, &mut fp.whole, &mut fp.block);
            if opens {
                // The line without its newline.
                fp.anchor(&String::from_utf8_lossy(&jsonl[start..jsonl.len() - 1]));
            }
        }
        // The walk appends only ASCII and `&str` bytes, so the check
        // passes; the lossy fallback only keeps a broken render readable.
        let jsonl = String::from_utf8(jsonl)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        (jsonl, fp.finish(scenario))
    }

    /// Renders the committed text form.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(GOLDEN_HEADER);
        s.push('\n');
        s.push_str(&format!("scenario: {}\n", self.scenario));
        s.push_str(&format!("events: {}\n", self.events));
        s.push_str(&format!("digest: {}\n", self.digest));
        for (i, b) in self.blocks.iter().enumerate() {
            s.push_str(&format!("block {} {} {}\n", i, b.digest, b.first_line));
        }
        s
    }

    /// Parses the committed text form.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(GOLDEN_HEADER) => {}
            Some(other) => return Err(format!("bad golden header: {other:?}")),
            None => return Err("empty golden file".to_string()),
        }
        let field = |line: Option<&str>, key: &str| -> Result<String, String> {
            let line = line.ok_or_else(|| format!("golden truncated before {key:?}"))?;
            line.strip_prefix(key)
                .map(|v| v.trim().to_string())
                .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))
        };
        let scenario = field(lines.next(), "scenario:")?;
        let events: usize = field(lines.next(), "events:")?
            .parse()
            .map_err(|e| format!("bad events count: {e}"))?;
        let digest = field(lines.next(), "digest:")?;
        let mut blocks = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("block ")
                .ok_or_else(|| format!("expected block line, got {line:?}"))?;
            let (idx, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed block line: {line:?}"))?;
            let idx: usize = idx.parse().map_err(|e| format!("bad block index: {e}"))?;
            if idx != blocks.len() {
                return Err(format!(
                    "block {idx} out of order (expected {})",
                    blocks.len()
                ));
            }
            // The first line itself contains spaces, so split only once
            // more: digest, then everything after it verbatim.
            let (digest, first_line) = rest
                .split_once(' ')
                .map(|(d, f)| (d.to_string(), f.to_string()))
                .unwrap_or_else(|| (rest.to_string(), String::new()));
            blocks.push(GoldenBlock { digest, first_line });
        }
        Ok(Self {
            scenario,
            events,
            digest,
            blocks,
        })
    }

    /// True when `other` reproduces this trajectory exactly.
    pub fn matches(&self, other: &GoldenDoc) -> bool {
        self.digest == other.digest && self.events == other.events
    }

    /// Locates the first diverging block against a run's fingerprint.
    /// `None` when the trajectories match.
    pub fn first_divergence(&self, actual: &GoldenDoc) -> Option<Divergence> {
        let blocks = self.blocks.len().max(actual.blocks.len());
        for i in 0..blocks {
            let expected = self.blocks.get(i);
            let got = actual.blocks.get(i);
            let same = match (expected, got) {
                (Some(e), Some(a)) => e.digest == a.digest,
                _ => false,
            };
            if !same {
                return Some(Divergence {
                    block: i,
                    first_event: i * BLOCK_EVENTS,
                    expected_first_line: expected.map_or(String::new(), |b| b.first_line.clone()),
                    actual_first_line: got.map_or(String::new(), |b| b.first_line.clone()),
                });
            }
        }
        if self.matches(actual) {
            None
        } else {
            // Same blocks but different totals can only happen on a
            // corrupt golden; surface it as a divergence at the end.
            Some(Divergence {
                block: blocks,
                first_event: blocks * BLOCK_EVENTS,
                expected_first_line: String::new(),
                actual_first_line: String::new(),
            })
        }
    }
}

/// First index (and both lines) at which two rendered trajectories
/// disagree; `None` when byte-identical.
pub fn first_differing_line(a: &str, b: &str) -> Option<(usize, String, String)> {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut i = 0;
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => i += 1,
            (x, y) => {
                return Some((
                    i,
                    x.unwrap_or("<stream ended>").to_string(),
                    y.unwrap_or("<stream ended>").to_string(),
                ))
            }
        }
    }
}

/// Builds the differential-replay report for a failed golden gate.
///
/// `first_jsonl` is the trajectory that failed the gate; `replay_jsonl`
/// is the same scenario re-run from scratch. Two outcomes:
///
/// * the runs disagree with each other → **nondeterminism** (the gate's
///   own precondition is broken); the report names the first event where
///   the two runs split, and no golden update can fix it;
/// * the runs agree → a **behavioral change** relative to the committed
///   golden; the report anchors it at the first diverging block and
///   points at the `--update-goldens` workflow.
pub fn differential_report(golden: &GoldenDoc, first_jsonl: &str, replay_jsonl: &str) -> String {
    let mut r = String::new();
    r.push_str(&format!("scenario: {}\n", golden.scenario));
    if let Some((idx, a, b)) = first_differing_line(first_jsonl, replay_jsonl) {
        r.push_str("verdict: NONDETERMINISM\n");
        r.push_str(&format!(
            "Two back-to-back runs of the same scenario disagree at event {idx}:\n"
        ));
        r.push_str(&format!("  run 1: {a}\n"));
        r.push_str(&format!("  run 2: {b}\n"));
        r.push_str(
            "The scenario harness requires bit-identical replays; this is a \
             determinism regression (wall-clock, unseeded RNG, or map-order \
             leakage), not a golden staleness issue. Do NOT update the \
             golden — find the nondeterminism.\n",
        );
        return r;
    }
    let actual = GoldenDoc::from_jsonl(&golden.scenario, first_jsonl);
    r.push_str("verdict: BEHAVIORAL-CHANGE\n");
    r.push_str(&format!(
        "Replay is bit-identical to the first run (digest {}), so the run \
         is deterministic but no longer matches the committed golden \
         (digest {}).\n",
        actual.digest, golden.digest
    ));
    match golden.first_divergence(&actual) {
        Some(d) => {
            r.push_str(&format!(
                "First diverging event: #{} (block {}, {} events per block).\n",
                d.first_event, d.block, BLOCK_EVENTS
            ));
            if d.expected_first_line.is_empty() {
                r.push_str("  expected: <golden trajectory ends here>\n");
            } else {
                r.push_str(&format!("  expected: {}\n", d.expected_first_line));
            }
            if d.actual_first_line.is_empty() {
                r.push_str("  actual:   <run trajectory ends here>\n");
            } else {
                r.push_str(&format!("  actual:   {}\n", d.actual_first_line));
            }
        }
        None => r.push_str("First diverging event: not localized (digests differ).\n"),
    }
    r.push_str(&format!(
        "event counts: golden {} vs run {}\n",
        golden.events, actual.events
    ));
    r.push_str(
        "If this change is intended, regenerate and commit the golden with \
         `cargo run --release -p cpm-bench --bin experiments -- scenarios \
         --update-goldens` and explain the behavioral change in the PR \
         description.\n",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!("{{\"seq\": {i}, \"kind\": \"PicDecision\"}}\n"));
        }
        s
    }

    /// The original definition, kept as the oracle: split with
    /// `lines()`, copy each block into a `String`, hash it, then hash the
    /// whole text again.
    fn from_jsonl_oracle(scenario: &str, jsonl: &str) -> GoldenDoc {
        let lines: Vec<&str> = jsonl.lines().collect();
        let blocks = lines
            .chunks(BLOCK_EVENTS)
            .map(|chunk| {
                let mut body = String::new();
                for line in chunk {
                    body.push_str(line);
                    body.push('\n');
                }
                GoldenBlock {
                    digest: cpm_obs::digest_str(&body),
                    first_line: chunk.first().map_or(String::new(), |l| l.to_string()),
                }
            })
            .collect();
        GoldenDoc {
            scenario: scenario.to_string(),
            events: lines.len(),
            digest: cpm_obs::digest_str(jsonl),
            blocks,
        }
    }

    #[test]
    fn streaming_fingerprint_matches_the_oracle() {
        let full = jsonl(BLOCK_EVENTS);
        let texts = [
            String::new(),
            "\n".to_string(),
            "{\"seq\": 0}".to_string(),
            jsonl(3).trim_end().to_string(),
            "{\"seq\": 0}\n\n{\"seq\": 2}\n".to_string(),
            "{\"seq\": 0}\r\n{\"seq\": 1}\r\n".to_string(),
            full.clone(),
            full.trim_end().to_string(),
            jsonl(BLOCK_EVENTS + 1),
            jsonl(BLOCK_EVENTS + 1).trim_end().to_string(),
            jsonl(3 * BLOCK_EVENTS + 7),
        ];
        for text in &texts {
            assert_eq!(
                GoldenDoc::from_jsonl("s", text),
                from_jsonl_oracle("s", text),
                "text of {} bytes",
                text.len()
            );
        }
    }

    /// A synthetic stream of `n` events that takes every branch of the
    /// JSONL field walk: each variant in turn, each boolean both ways,
    /// the `u32::MAX` island/partner sentinels both ways, and a NaN real
    /// every 13th event.
    fn synthetic_stream(n: u64) -> Vec<Event> {
        use cpm_obs::{EventPayload, ThermalSource};
        let mut r = 0x05EE_D0F1_E1D5_u64;
        (0..n)
            .map(|i| {
                r = r.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let x = if i % 13 == 0 {
                    f64::NAN
                } else {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
                };
                let flag = (i / 10) % 2 == 0;
                let island = (r >> 40) as u32 % 16;
                let opt = if (i / 20) % 2 == 0 { u32::MAX } else { island };
                let payload = match i % 10 {
                    0 => EventPayload::GpmRound {
                        span: r,
                        round: i,
                        budget_w: x,
                        actual_w: -x,
                        islands: island,
                    },
                    1 => EventPayload::GpmAllocation {
                        round: i,
                        island,
                        allocated_w: x,
                        actual_w: x / 3.0,
                        budget_w: 80.0,
                    },
                    2 => EventPayload::PicDecision {
                        span: r,
                        parent: r >> 7,
                        round: i / 10,
                        step: island,
                        island,
                        sensed_w: x,
                        utilization: x / 50.0,
                        target_w: 16.0,
                        error: -x,
                        p_term: x * 1e-3,
                        i_term: x * 1e-4,
                        d_term: x * 1e-7,
                        output: x / 7.0,
                        dvfs_index: island,
                        saturated: flag,
                    },
                    3 => EventPayload::Actuation {
                        span: r,
                        parent: r >> 9,
                        island,
                        from_dvfs: island,
                        requested_dvfs: island + 1,
                        to_dvfs: island + u32::from(flag),
                        granted: flag,
                    },
                    4 => EventPayload::TransducerRezero {
                        island,
                        residual_w: x,
                        offset_w: x / 9.0,
                    },
                    5 => EventPayload::ThermalViolation {
                        source: [
                            ThermalSource::SingleIslandCap,
                            ThermalSource::AdjacentPairCap,
                            ThermalSource::DieThreshold,
                        ][(r % 3) as usize],
                        island,
                        partner: opt,
                        value: x,
                        limit: 17.6,
                    },
                    6 => EventPayload::PolicyHoldReversal {
                        island,
                        level: x / 50.0,
                        epi_now: x * 1e-9,
                        epi_prev: -x * 1e-9,
                        hold_intervals: island,
                    },
                    7 => EventPayload::WorkerSpan {
                        worker: island,
                        label: "measure",
                        start_s: x,
                        end_s: x + 1.0,
                    },
                    8 => EventPayload::Injection {
                        label: "sensor-noise",
                        island: opt,
                        active: flag,
                        value: x,
                    },
                    _ => EventPayload::Alarm {
                        monitor: "stale-sensor",
                        island: opt,
                        round: i,
                        value: x,
                        threshold: 6.0,
                    },
                };
                Event {
                    seq: i,
                    time_s: i as f64 * 5e-4,
                    payload,
                }
            })
            .collect()
    }

    #[test]
    fn render_events_matches_render_then_fingerprint() {
        let events = synthetic_stream(2 * BLOCK_EVENTS as u64 + 77);
        for n in [0, 1, BLOCK_EVENTS, events.len()] {
            let (text, doc) = GoldenDoc::render_events("s", &events[..n]);
            let expected = cpm_obs::events_to_jsonl(&events[..n]);
            assert!(text == expected, "render_events wrote different text");
            assert_eq!(doc, from_jsonl_oracle("s", &text));
            assert_eq!(doc.digest, cpm_obs::digest_str(&text));
        }
        // Event 0 carries the NaN, rendered as `0.0`.
        let (text, _) = GoldenDoc::render_events("s", &events[..1]);
        assert!(text.starts_with("{\"seq\": 0, \"t\": 0.000000, \"kind\": \"GpmRound\""));
        assert!(text.contains("\"budget_w\": 0.0, "), "{text}");
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = GoldenDoc::from_jsonl("budget-step@thermal", &jsonl(600));
        assert_eq!(doc.events, 600);
        assert_eq!(doc.blocks.len(), 3);
        let back = GoldenDoc::parse(&doc.render()).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn identical_streams_match() {
        let a = GoldenDoc::from_jsonl("s", &jsonl(300));
        let b = GoldenDoc::from_jsonl("s", &jsonl(300));
        assert!(a.matches(&b));
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn divergence_is_localized_to_the_first_differing_block() {
        let a = GoldenDoc::from_jsonl("s", &jsonl(600));
        let mut text = jsonl(600);
        // Perturb an event in the second block (index 300).
        text = text.replace("{\"seq\": 300,", "{\"seq\": 300, \"x\": 1,");
        let b = GoldenDoc::from_jsonl("s", &text);
        let d = a.first_divergence(&b).expect("diverges");
        assert_eq!(d.block, 1);
        assert_eq!(d.first_event, 256);
        assert!(d.expected_first_line.contains("\"seq\": 256"));
    }

    #[test]
    fn truncated_stream_diverges_at_the_missing_block() {
        let a = GoldenDoc::from_jsonl("s", &jsonl(600));
        let b = GoldenDoc::from_jsonl("s", &jsonl(256));
        let d = a.first_divergence(&b).expect("diverges");
        // Block 0 matches (full 256 events); block 1 differs.
        assert_eq!(d.block, 1);
        assert!(d.actual_first_line.is_empty());
    }

    #[test]
    fn first_differing_line_reports_index_and_both_lines() {
        let a = "one\ntwo\nthree\n";
        let b = "one\nTWO\nthree\n";
        let (i, la, lb) = first_differing_line(a, b).expect("differs");
        assert_eq!((i, la.as_str(), lb.as_str()), (1, "two", "TWO"));
        assert_eq!(first_differing_line(a, a), None);
    }

    #[test]
    fn nondeterminism_report_names_the_splitting_event() {
        let golden = GoldenDoc::from_jsonl("s", &jsonl(10));
        let r = differential_report(&golden, &jsonl(10), &jsonl(9));
        assert!(r.contains("NONDETERMINISM"));
        assert!(r.contains("event 9"));
        assert!(r.contains("Do NOT update the golden"));
    }

    #[test]
    fn behavioral_report_points_at_update_workflow() {
        let golden = GoldenDoc::from_jsonl("s", &jsonl(10));
        let changed = jsonl(10).replace("\"seq\": 3,", "\"seq\": 3, \"x\": 9,");
        let r = differential_report(&golden, &changed, &changed);
        assert!(r.contains("BEHAVIORAL-CHANGE"));
        assert!(r.contains("--update-goldens"));
        assert!(r.contains("block 0"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GoldenDoc::parse("").is_err());
        assert!(GoldenDoc::parse("not a golden\n").is_err());
        let doc = GoldenDoc::from_jsonl("s", &jsonl(10)).render();
        let shuffled = doc.replace("block 0", "block 7");
        assert!(GoldenDoc::parse(&shuffled).is_err());
    }
}

//! The `scenarios` workload: the fault-injection catalogue through
//! `cpm_scenario::run_scenario`, each entry checked against its committed
//! golden under `goldens/` and its behavioural checks.
//!
//! An op is one entry's run. Entries differ in size by 25×, so every
//! timing statistic is taken per entry and summed over one catalogue pass.
//! The entries pin their own seeds (their goldens depend on them), so the
//! workload seed permutes the order in which each pass visits them.

use crate::clock::Stopwatch;
use crate::spans::Laps;
use cpm_bench::scenario::scenario_stem;
use cpm_core::Coordinator;
use cpm_obs::{
    append_alarm_events, digest_str, events_to_chrome, events_to_jsonl, HealthReport, Recorder,
    SloPolicy,
};
use cpm_scenario::catalogue::RECORDER_CAPACITY;
use cpm_scenario::{run_scenario, GoldenDoc, Scenario, CATALOGUE, SCENARIO_ROUNDS};
use std::path::PathBuf;

/// `goldens/<stem>.golden` at the root of the checkout.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../goldens")
        .join(format!("{}.golden", scenario_stem(name)))
}

/// A splitmix64 step: the seeded pass order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload state: the committed goldens and the pass-order stream.
pub struct Scenarios {
    goldens: Vec<GoldenDoc>,
    order: u64,
    /// Each entry's whole-trajectory digest from its first run.
    digests: Vec<Option<String>>,
}

impl Scenarios {
    /// Loads the goldens (one lap) and fills the coordinator memo caches
    /// by building and calibrating each entry's coordinator (one lap per
    /// build, one per calibration), so every timed run starts warm. Fails
    /// when a golden is missing or unreadable.
    pub fn setup(seed: u64, laps: &mut Laps) -> Result<Self, String> {
        let goldens = CATALOGUE
            .iter()
            .map(|s| {
                let path = golden_path(s.name);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                GoldenDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        laps.lap();
        for s in CATALOGUE {
            let mut c = Coordinator::new((s.build)().0).map_err(|e| format!("{}: {e}", s.name))?;
            laps.lap();
            c.calibrate();
            laps.lap();
        }
        Ok(Self {
            goldens,
            order: seed,
            digests: vec![None; CATALOGUE.len()],
        })
    }

    /// The next pass order: a seeded Fisher–Yates shuffle of the catalogue.
    pub fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..CATALOGUE.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (splitmix(&mut self.order) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// One catalogue pass in `order`; `record(entry, seconds, passed)` per
    /// op.
    pub fn pass(&mut self, order: &[usize], mut record: impl FnMut(usize, f64, bool)) {
        let mut clock = Stopwatch::started();
        for &k in order {
            let s = &CATALOGUE[k];
            let (run, secs) = clock.time(|| run_scenario(s));
            let ok = match run {
                Ok(run) => {
                    let first = self.digests[k].get_or_insert_with(|| run.digest.clone());
                    self.goldens[k].matches(&run.golden)
                        && run.checks_passed()
                        && run.digest == *first
                }
                Err(_) => false,
            };
            record(k, secs, ok);
        }
    }

    /// The entries' trajectory digests folded into one (catalogue order;
    /// an entry not yet run contributes an empty line).
    pub fn digest(&self) -> String {
        let all: Vec<&str> = self
            .digests
            .iter()
            .map(|d| d.as_deref().unwrap_or(""))
            .collect();
        digest_str(&all.join("\n"))
    }

    /// The committed golden of entry `k`.
    pub fn golden(&self, k: usize) -> &GoldenDoc {
        &self.goldens[k]
    }
}

/// Host time of each stage of one entry, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `Coordinator::new`, recorder and injection wiring, and the rounds.
    pub control: f64,
    /// `slo::scan` plus appending its alarms.
    pub slo_scan: f64,
    /// `events_to_jsonl` plus the whole-stream digest.
    pub jsonl: f64,
    /// `GoldenDoc::from_jsonl` plus `matches` against the committed golden.
    pub golden: f64,
    /// The entry's behavioural checks.
    pub checks: f64,
    /// `HealthReport::new` plus `to_json`.
    pub health: f64,
    /// `events_to_chrome`.
    pub chrome: f64,
}

impl Stages {
    /// Sum over the stages.
    pub fn total(&self) -> f64 {
        self.control
            + self.slo_scan
            + self.jsonl
            + self.golden
            + self.checks
            + self.health
            + self.chrome
    }
}

/// What the shadow run produced, for comparison with `run_scenario`.
#[derive(Debug, Clone)]
pub struct ShadowRun {
    /// Events in the trajectory, alarms included.
    pub events: usize,
    /// The rendered trajectory.
    pub jsonl: String,
    /// The Chrome rendering.
    pub chrome: String,
    /// The health report.
    pub health: String,
    /// Golden matched and every check passed.
    pub passed: bool,
}

/// `run_scenario`'s steps, rebuilt from the public calls it makes so each
/// stage can be timed on its own; its JSONL, Chrome and health outputs are
/// compared byte for byte with `run_scenario`'s.
pub fn shadow_run(s: &Scenario, golden: &GoldenDoc) -> (ShadowRun, Stages) {
    let mut clock = Stopwatch::started();
    let ((outcome, mut events, dropped), control) = clock.time(|| {
        let (cfg, mut schedule) = (s.build)();
        let mut c = Coordinator::new(cfg).expect("catalogue configurations are valid");
        let recorder = Recorder::enabled(RECORDER_CAPACITY);
        c.set_recorder(recorder.clone());
        schedule.set_recorder(recorder.clone());
        c.set_injection(Box::new(schedule));
        let outcome = c.run_for_gpm_intervals(SCENARIO_ROUNDS);
        (outcome, recorder.drain(), recorder.dropped())
    });
    let policy = SloPolicy::default();
    let (alarms, slo_scan) = clock.time(|| {
        let alarms = cpm_obs::slo::scan(&events, policy);
        append_alarm_events(&mut events, &alarms);
        alarms
    });
    let (jsonl, jsonl_secs) = clock.time(|| {
        let jsonl = events_to_jsonl(&events);
        std::hint::black_box(digest_str(&jsonl));
        jsonl
    });
    let (matched, golden_secs) =
        clock.time(|| golden.matches(&GoldenDoc::from_jsonl(s.name, &jsonl)));
    let (checks_ok, checks) = clock.time(|| (s.checks)(&outcome, &events).iter().all(|c| c.passed));
    let (health, health_secs) =
        clock.time(|| HealthReport::new(s.name, &events, &alarms, &policy).to_json());
    let (chrome, chrome_secs) = clock.time(|| events_to_chrome(&events));
    let st = Stages {
        control,
        slo_scan,
        jsonl: jsonl_secs,
        golden: golden_secs,
        checks,
        health: health_secs,
        chrome: chrome_secs,
    };
    let run = ShadowRun {
        events: events.len(),
        jsonl,
        chrome,
        health,
        passed: matched && checks_ok && dropped == 0,
    };
    (run, st)
}

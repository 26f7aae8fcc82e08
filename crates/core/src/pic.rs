//! The Per-Island Controller (PIC): closed-loop power capping via DVFS.
//!
//! Every `T_local` (0.5 ms) the PIC:
//!
//! 1. **senses** island power — not directly measurable, so a calibrated
//!    linear transducer converts observed capacity-utilization into watts
//!    (§II-D "Sensor/Transducer"); an *oracle* mode that reads true power
//!    exists for ablation,
//! 2. computes the error against the GPM-provisioned target,
//! 3. runs the PID law (Eq. 7) in the *normalized* domain the paper's
//!    system model is identified in — power as a fraction of the island's
//!    maximum, frequency as a fraction of the DVFS span — where the plant
//!    is `p(t+1) = p(t) + a·d(t)` with `a ≈ 0.79`,
//! 4. **actuates**: converts the control output into a frequency move
//!    through the plant gain and quantizes onto the discrete V/F table.
//!
//! The controller carries its continuous frequency state across
//! invocations so quantization error does not accumulate.
//!
//! **Adaptive gain** (optional): §II-D notes "the term aᵢ may vary at
//! runtime for different systems and different workloads" and proves the
//! loop stays stable for perturbations `0 < g < 2.1`. With
//! [`PerIslandController::with_adaptive_gain`] the PIC refines its plant
//! gain online from observed (Δf, ΔP) pairs, clamped to a band well inside
//! the guarantee, so the loop keeps its designed dynamics as workloads
//! shift the true gain.

use cpm_control::{Pid, PidGains};
use cpm_obs::{EventPayload, Recorder, SpanId};
use cpm_power::dvfs::DvfsTable;
use cpm_power::UtilizationPowerTransducer;
use cpm_units::{IslandId, Ratio, Watts};

/// How the PIC senses island power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PicSensor {
    /// Through the calibrated utilization→power model (the paper's design).
    Transducer,
    /// Directly from the true power (physically unrealizable; ablation
    /// reference).
    Oracle,
}

/// A per-island PID power controller.
#[derive(Debug, Clone)]
pub struct PerIslandController {
    island: IslandId,
    pid: Pid,
    sensor: PicSensor,
    transducer: UtilizationPowerTransducer,
    table: DvfsTable,
    /// Normalization basis: the island's maximum power draw.
    island_max_power: Watts,
    /// Identified plant gain `a` (normalized ΔP per normalized Δf).
    plant_gain: f64,
    /// The design-time gain (adaptation is clamped relative to this).
    nominal_gain: f64,
    /// Online gain estimation enabled?
    adaptive: bool,
    /// EWMA accumulators for the through-origin (Δf, ΔP) regression.
    adapt_num: f64,
    adapt_den: f64,
    /// Previous invocation's measured power and frequency state, for the
    /// gain estimator.
    prev_measured: Option<f64>,
    prev_f_norm: f64,
    /// Slew limit: largest normalized frequency move per invocation.
    /// Roughly half an operating-point step — it damps the limit cycling a
    /// quantized actuator otherwise exhibits around a fixed target, without
    /// slowing large transients much (a full-range move still completes in
    /// ~12 invocations ≈ one GPM interval).
    max_step: f64,
    /// Continuous normalized frequency state in `[0, 1]`.
    f_norm: f64,
    /// Current power target.
    target: Watts,
    /// EWMA of the transducer's sensing error (true − sensed, watts),
    /// learned from GPM-granularity power measurements and added back
    /// into every estimate. The calibration sweep fixes the *shape* of
    /// P(U); this re-zeroing tracks the slow bias workload phases and
    /// die temperature put under it.
    sensor_offset: f64,
    invocations: u64,
    /// GPM round currently in force (provenance coordinate, set by the
    /// coordinator via [`PerIslandController::begin_round`]).
    round: u64,
    /// PIC interval ordinal within the current round.
    step_in_round: u32,
    /// Flight-recorder handle (disabled by default: one branch per invoke).
    recorder: Recorder,
}

impl PerIslandController {
    /// Creates a controller for `island`.
    ///
    /// * `island_max_power` — the normalization basis (Σ of the island's
    ///   cores' maximum power),
    /// * `gains` — PID design point (use [`PidGains::paper`]),
    /// * `plant_gain` — the identified system gain `a` (paper: 0.79),
    /// * `sensor` — transducer (real design) or oracle (ablation).
    pub fn new(
        island: IslandId,
        table: DvfsTable,
        island_max_power: Watts,
        gains: PidGains,
        plant_gain: f64,
        sensor: PicSensor,
    ) -> Self {
        assert!(
            island_max_power.value() > 0.0,
            "island max power must be positive"
        );
        assert!(plant_gain > 0.0, "plant gain must be positive");
        Self {
            island,
            // Anti-windup: the integral cannot usefully exceed the full
            // normalized power range.
            pid: Pid::new(gains).with_integral_limit(2.0),
            sensor,
            transducer: UtilizationPowerTransducer::new(),
            table,
            island_max_power,
            plant_gain,
            nominal_gain: plant_gain,
            adaptive: false,
            adapt_num: 0.0,
            adapt_den: 0.0,
            prev_measured: None,
            prev_f_norm: 1.0,
            max_step: 0.08,
            f_norm: 1.0, // chips boot at the top operating point
            target: island_max_power,
            sensor_offset: 0.0,
            invocations: 0,
            round: 0,
            step_in_round: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a flight-recorder handle; every `invoke` then emits a
    /// [`EventPayload::PicDecision`] and every `rezero` a
    /// [`EventPayload::TransducerRezero`].
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Enables online plant-gain adaptation. The estimate is clamped to
    /// `[nominal/2, 2·nominal]` — comfortably inside the `0 < g < 2.1`
    /// stability band §II-D guarantees around the design gain.
    pub fn with_adaptive_gain(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// The plant gain currently in use (equals the constructor value until
    /// adaptation refines it).
    pub fn plant_gain(&self) -> f64 {
        self.plant_gain
    }

    /// The island this controller manages.
    pub fn island(&self) -> IslandId {
        self.island
    }

    /// The current power target (set by the GPM).
    pub fn target(&self) -> Watts {
        self.target
    }

    /// Number of control invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Marks the start of GPM round `round`: subsequent `invoke`s stamp
    /// their [`EventPayload::PicDecision`] events with this round and a
    /// step ordinal counting from 0, which is what makes the emitted
    /// span ids line up with the coordinator's `GpmRound` span.
    pub fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.step_in_round = 0;
    }

    /// Sets a new power target (the GPM's provisioned value). The PID state
    /// is *kept* — the integral carries useful plant knowledge across
    /// re-provisioning.
    pub fn set_target(&mut self, target: Watts) {
        assert!(target.value() >= 0.0, "power target cannot be negative");
        self.target = target;
    }

    /// Feeds one transducer calibration observation (capacity utilization
    /// vs true island power). In a real system these come from a one-time
    /// platform characterization; the coordinator performs an equivalent
    /// profiling pass. A pair with a non-finite member is skipped: one
    /// would poison the least-squares fit for good.
    pub fn observe_calibration(&mut self, capacity_utilization: Ratio, power: Watts) {
        if !(capacity_utilization.value().is_finite() && power.value().is_finite()) {
            return;
        }
        self.transducer.observe(capacity_utilization, power);
    }

    /// True when the sensor path is ready (always, in oracle mode).
    pub fn is_calibrated(&self) -> bool {
        self.sensor == PicSensor::Oracle || self.transducer.is_calibrated()
    }

    /// The transducer fit quality, if any.
    pub fn transducer_r_squared(&self) -> Option<f64> {
        self.transducer.r_squared()
    }

    /// Converts the observables into sensed power.
    pub fn sense(&self, capacity_utilization: Ratio, true_power: Watts) -> Watts {
        match self.sensor {
            PicSensor::Transducer => Watts::new(
                (self.transducer.estimate_power(capacity_utilization).value() + self.sensor_offset)
                    .max(0.0),
            ),
            PicSensor::Oracle => true_power,
        }
    }

    /// Re-zeroes the transducer against a GPM-granularity power
    /// measurement: `mean_true_power` over the interval whose mean
    /// capacity utilization was `mean_capacity_utilization`. Real chips
    /// expose exactly this signal — the same coarse per-island meter that
    /// feeds the GPM's `IslandFeedback` — so the fast sensor's slow bias
    /// (phase drift, temperature-dependent leakage) can be trimmed out
    /// without re-running the calibration sweep. No-op in oracle mode, and
    /// for a non-finite input, which would latch into the offset and zero
    /// every later sensed reading.
    pub fn rezero(&mut self, mean_capacity_utilization: Ratio, mean_true_power: Watts) {
        if self.sensor == PicSensor::Oracle
            || !self.transducer.is_calibrated()
            || !mean_capacity_utilization.value().is_finite()
            || !mean_true_power.value().is_finite()
        {
            return;
        }
        let sensed = self.transducer.estimate_power(mean_capacity_utilization);
        let err = (mean_true_power - sensed).value();
        // Fast enough to cancel a phase-induced bias within a few GPM
        // intervals, slow enough not to chase within-interval noise.
        const ALPHA: f64 = 0.4;
        self.sensor_offset += ALPHA * (err - self.sensor_offset);
        self.recorder.record(EventPayload::TransducerRezero {
            island: self.island.0 as u32,
            residual_w: err,
            offset_w: self.sensor_offset,
        });
    }

    /// The current sensing-bias correction (watts); zero until `rezero`
    /// observations arrive.
    pub fn sensor_offset(&self) -> Watts {
        Watts::new(self.sensor_offset)
    }

    /// One control invocation: sense, compute the error, run the PID, move
    /// the frequency state, and return the DVFS index to apply.
    ///
    /// A non-finite or negative reading on the configured sensor's input
    /// (true power for the oracle, capacity utilization for the
    /// transducer) holds the island instead: the frequency state, the PID
    /// and the gain estimator stay untouched, no decision is recorded, and
    /// the current index is returned. Left through, one NaN would survive
    /// every clamp into the frequency state and park the island at its
    /// bottom operating point, and a negative power would read as deep
    /// headroom and step the knob up.
    pub fn invoke(&mut self, capacity_utilization: Ratio, true_power: Watts) -> usize {
        let reading = match self.sensor {
            PicSensor::Transducer => capacity_utilization.value(),
            PicSensor::Oracle => true_power.value(),
        };
        if !reading.is_finite() || reading < 0.0 {
            // The interval still passes: later decisions keep the step
            // ordinal the coordinator stamps on their actuations.
            self.step_in_round += 1;
            return self.current_index();
        }
        let measured = self.sense(capacity_utilization, true_power);
        if self.adaptive {
            self.learn_gain(measured);
        }
        let error = (self.target - measured).value() / self.island_max_power.value();
        let terms = self.pid.step_terms(error);
        let u = terms.output;
        let desired = u / self.plant_gain;
        let before = self.f_norm;
        self.f_norm = (self.f_norm + desired.clamp(-self.max_step, self.max_step)).clamp(0.0, 1.0);
        // Anti-windup: rewind the integral by whatever the slew/range
        // clamps refused to actuate.
        let realized = self.f_norm - before;
        self.pid.back_calculate(u - realized * self.plant_gain);
        self.prev_f_norm = before;
        self.invocations += 1;
        let index = self.current_index();
        let island = self.island.0 as u32;
        let span = SpanId::pic_decision(self.round, island, self.step_in_round);
        self.recorder.record(EventPayload::PicDecision {
            span: span.raw(),
            parent: SpanId::gpm_round(self.round).raw(),
            round: self.round,
            step: self.step_in_round,
            island,
            sensed_w: measured.value(),
            utilization: capacity_utilization.value(),
            target_w: self.target.value(),
            error,
            p_term: terms.p,
            i_term: terms.i,
            d_term: terms.d,
            output: u,
            dvfs_index: index as u32,
            saturated: (realized - desired).abs() > 1e-12,
        });
        self.step_in_round += 1;
        index
    }

    /// One step of the online gain estimator: regress the normalized power
    /// delta on the previous frequency move (through the origin, Eq. 8),
    /// with exponential forgetting, and clamp within the stability band.
    fn learn_gain(&mut self, measured: Watts) {
        const DECAY: f64 = 0.95;
        const MIN_MOVE: f64 = 0.02;
        let p_norm = measured.value() / self.island_max_power.value();
        if let Some(prev) = self.prev_measured {
            let df = self.f_norm - self.prev_f_norm;
            if df.abs() >= MIN_MOVE {
                let dp = p_norm - prev;
                self.adapt_num = DECAY * self.adapt_num + df * dp;
                self.adapt_den = DECAY * self.adapt_den + df * df;
                if self.adapt_den > 1e-4 {
                    let est = self.adapt_num / self.adapt_den;
                    self.plant_gain = est.clamp(0.5 * self.nominal_gain, 2.0 * self.nominal_gain);
                }
            }
        }
        self.prev_measured = Some(p_norm);
    }

    /// The DVFS index corresponding to the current continuous state.
    pub fn current_index(&self) -> usize {
        let span = self.table.frequency_span();
        let f = self.table.min_point().frequency + span * self.f_norm;
        self.table.nearest_index(f)
    }

    /// Resets the dynamic controller state (PID + frequency) without losing
    /// the transducer calibration or the adapted gain.
    pub fn reset(&mut self) {
        self.pid.reset();
        self.f_norm = 1.0;
        self.prev_f_norm = 1.0;
        self.prev_measured = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed-loop test double: first-order island plant whose power
    /// responds to the normalized frequency with gain `a`, plus an idle
    /// floor.
    struct FakeIsland {
        max_power: Watts,
        idle_frac: f64,
        gain: f64,
        f_norm: f64,
    }

    impl FakeIsland {
        fn new() -> Self {
            Self {
                max_power: Watts::new(24.0),
                idle_frac: 0.17,
                gain: 0.83,
                f_norm: 1.0,
            }
        }

        fn apply(&mut self, idx: usize, table: &DvfsTable) {
            let span = table.frequency_span();
            let f = table.point(idx).frequency - table.min_point().frequency;
            self.f_norm = f / span;
        }

        fn power(&self) -> Watts {
            self.max_power * (self.idle_frac + self.gain * self.f_norm)
        }

        fn capacity_utilization(&self) -> Ratio {
            // Busy fraction ~0.9, scaled by normalized frequency position.
            Ratio::new(0.9 * (0.3 + 0.7 * self.f_norm))
        }
    }

    fn controller(sensor: PicSensor) -> PerIslandController {
        PerIslandController::new(
            IslandId(0),
            DvfsTable::pentium_m(),
            Watts::new(24.0),
            PidGains::paper(),
            0.79,
            sensor,
        )
    }

    fn run_loop(pic: &mut PerIslandController, island: &mut FakeIsland, steps: usize) -> Vec<f64> {
        let table = DvfsTable::pentium_m();
        (0..steps)
            .map(|_| {
                let idx = pic.invoke(island.capacity_utilization(), island.power());
                island.apply(idx, &table);
                island.power().value()
            })
            .collect()
    }

    #[test]
    fn oracle_loop_converges_to_target() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(14.0));
        let trace = run_loop(&mut pic, &mut island, 40);
        let tail = &trace[30..];
        for &p in tail {
            assert!(
                (p - 14.0).abs() < 1.5,
                "steady power {p} should track 14 W (quantized DVFS)"
            );
        }
    }

    #[test]
    fn settles_within_a_handful_of_invocations() {
        // The paper observes 5–6 PIC invocations to settle on modest target
        // changes (§IV, Fig. 9).
        // Targets sit on reachable (quantized) power levels of the fake
        // island: p(k) = 4.08 + 2.846·k → 21.15 and 18.31 W.
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(21.2));
        run_loop(&mut pic, &mut island, 20);
        pic.set_target(Watts::new(18.3));
        let trace = run_loop(&mut pic, &mut island, 10);
        // Within 6 invocations the power must be inside 5 % of target.
        let settled = trace
            .iter()
            .position(|&p| (p - 18.3).abs() / 18.3 < 0.05)
            .expect("must settle");
        assert!(
            settled < 6,
            "settled after {settled} invocations: {trace:?}"
        );
    }

    #[test]
    fn transducer_mode_tracks_after_calibration() {
        let mut pic = controller(PicSensor::Transducer);
        let mut island = FakeIsland::new();
        let table = DvfsTable::pentium_m();
        calibrate(&mut pic, &mut island);
        assert!(pic.is_calibrated());
        assert!(pic.transducer_r_squared().unwrap() > 0.99);
        island.apply(7, &table);
        pic.set_target(Watts::new(15.0));
        let trace = run_loop(&mut pic, &mut island, 40);
        let tail_mean: f64 = trace[30..].iter().sum::<f64>() / 10.0;
        assert!(
            (tail_mean - 15.0).abs() < 1.5,
            "transducer loop steady at {tail_mean}, want ≈15"
        );
    }

    #[test]
    fn one_non_finite_power_reading_is_held_not_latched() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        let table = DvfsTable::pentium_m();
        pic.set_target(Watts::new(14.0));
        run_loop(&mut pic, &mut island, 60);
        let settled = pic.current_index();
        assert!(
            settled > 0,
            "the 14 W target settles above the bottom point"
        );
        let held = pic.invoke(island.capacity_utilization(), Watts::new(f64::NAN));
        assert_eq!(held, settled, "a NaN reading must hold the island");
        island.apply(held, &table);
        run_loop(&mut pic, &mut island, 200);
        assert_eq!(pic.current_index(), settled, "back at the settled point");
    }

    #[test]
    fn one_negative_power_reading_is_held_not_latched() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(14.0));
        run_loop(&mut pic, &mut island, 60);
        let (settled, f_norm) = (pic.current_index(), pic.f_norm);
        let held = pic.invoke(island.capacity_utilization(), Watts::new(-5.0));
        assert_eq!(held, settled, "a negative reading must hold the island");
        assert_eq!(pic.f_norm.to_bits(), f_norm.to_bits(), "state untouched");
        run_loop(&mut pic, &mut island, 200);
        assert_eq!(pic.current_index(), settled, "back at the settled point");
    }

    /// Settles a calibrated transducer PIC against a 15 W target, starting
    /// from the top operating point; returns the settled index.
    fn settle_transducer(pic: &mut PerIslandController, island: &mut FakeIsland) -> usize {
        let table = DvfsTable::pentium_m();
        island.apply(7, &table);
        pic.set_target(Watts::new(15.0));
        run_loop(pic, island, 40);
        let settled = pic.current_index();
        assert!(
            settled > 0 && settled + 1 < table.len(),
            "settles mid-range, got {settled}"
        );
        settled
    }

    /// Feeds the PIC one calibration point per DVFS level.
    fn calibrate(pic: &mut PerIslandController, island: &mut FakeIsland) {
        let table = DvfsTable::pentium_m();
        for idx in 0..table.len() {
            island.apply(idx, &table);
            pic.observe_calibration(island.capacity_utilization(), island.power());
        }
    }

    #[test]
    fn non_finite_utilization_holds_a_transducer_island() {
        let mut pic = controller(PicSensor::Transducer);
        let mut island = FakeIsland::new();
        calibrate(&mut pic, &mut island);
        let before = settle_transducer(&mut pic, &mut island);
        let f_norm = pic.f_norm;
        let held = pic.invoke(Ratio::new(f64::NAN), island.power());
        assert_eq!(held, before, "a NaN utilization must hold the island");
        assert_eq!(pic.f_norm.to_bits(), f_norm.to_bits(), "state untouched");
    }

    #[test]
    fn one_non_finite_rezero_is_skipped_not_latched() {
        let mut pic = controller(PicSensor::Transducer);
        let mut island = FakeIsland::new();
        calibrate(&mut pic, &mut island);
        let settled = settle_transducer(&mut pic, &mut island);
        pic.rezero(island.capacity_utilization(), Watts::new(f64::NAN));
        pic.rezero(Ratio::new(f64::NAN), island.power());
        for _ in 0..20 {
            pic.rezero(island.capacity_utilization(), island.power());
            run_loop(&mut pic, &mut island, 10);
        }
        assert_eq!(pic.current_index(), settled, "back at the settled point");
        assert!(pic.sensor_offset().value().is_finite());
    }

    #[test]
    fn one_non_finite_calibration_pair_is_skipped() {
        let mut pic = controller(PicSensor::Transducer);
        let mut island = FakeIsland::new();
        calibrate(&mut pic, &mut island);
        pic.observe_calibration(Ratio::new(0.5), Watts::new(f64::NAN));
        let r2 = pic.transducer_r_squared().expect("calibrated");
        assert!(r2.is_finite() && r2 > 0.99, "fit r² {r2}");
        settle_transducer(&mut pic, &mut island);
        let tail = run_loop(&mut pic, &mut island, 10);
        let tail_mean = tail.iter().sum::<f64>() / 10.0;
        assert!(
            (tail_mean - 15.0).abs() < 1.5,
            "transducer loop steady at {tail_mean}, want ≈15"
        );
    }

    #[test]
    fn saturates_at_table_bottom_for_impossible_targets() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(1.0)); // below the idle floor (~4 W)
        run_loop(&mut pic, &mut island, 30);
        assert_eq!(pic.current_index(), 0, "must pin the lowest V/F pair");
    }

    #[test]
    fn saturates_at_table_top_for_generous_targets() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(40.0)); // above max power
        run_loop(&mut pic, &mut island, 30);
        assert_eq!(pic.current_index(), 7, "must pin the highest V/F pair");
    }

    #[test]
    fn anti_windup_allows_quick_recovery_from_saturation() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        // Long stretch at an unreachable target winds the integral up...
        pic.set_target(Watts::new(40.0));
        run_loop(&mut pic, &mut island, 100);
        // ...then a reachable target must be reacquired promptly.
        pic.set_target(Watts::new(12.0));
        let trace = run_loop(&mut pic, &mut island, 25);
        let tail = trace[15..].iter().sum::<f64>() / 10.0;
        assert!(
            (tail - 12.0).abs() < 1.5,
            "post-saturation steady power {tail}"
        );
    }

    #[test]
    fn adaptive_gain_converges_toward_the_true_gain() {
        // The fake island's true normalized gain is 0.83; start the PIC
        // with a deliberately wrong design gain of 0.5 and let adaptation
        // close the gap while tracking.
        let mut pic = PerIslandController::new(
            IslandId(0),
            DvfsTable::pentium_m(),
            Watts::new(24.0),
            PidGains::paper(),
            0.5,
            PicSensor::Oracle,
        )
        .with_adaptive_gain();
        let mut island = FakeIsland::new();
        // Wander between two targets to give the estimator excitation.
        for &t in [12.0, 20.0, 14.0, 21.0, 13.0, 19.0].iter() {
            pic.set_target(Watts::new(t));
            run_loop(&mut pic, &mut island, 15);
        }
        let a = pic.plant_gain();
        assert!(
            (a - 0.83).abs() < 0.25,
            "adapted gain {a} should approach the true 0.83"
        );
    }

    #[test]
    fn adaptive_gain_stays_inside_the_stability_band() {
        let mut pic = PerIslandController::new(
            IslandId(0),
            DvfsTable::pentium_m(),
            Watts::new(24.0),
            PidGains::paper(),
            0.79,
            PicSensor::Oracle,
        )
        .with_adaptive_gain();
        let mut island = FakeIsland::new();
        for &t in [8.0, 22.0, 10.0, 23.0, 9.0].iter() {
            pic.set_target(Watts::new(t));
            run_loop(&mut pic, &mut island, 12);
        }
        let a = pic.plant_gain();
        assert!((0.395..=1.58).contains(&a), "gain {a} escaped the clamp");
    }

    #[test]
    fn non_adaptive_gain_never_moves() {
        let mut pic = controller(PicSensor::Oracle);
        let mut island = FakeIsland::new();
        pic.set_target(Watts::new(12.0));
        run_loop(&mut pic, &mut island, 30);
        assert_eq!(pic.plant_gain(), 0.79);
    }

    #[test]
    fn set_target_validates() {
        let mut pic = controller(PicSensor::Oracle);
        pic.set_target(Watts::ZERO); // allowed: full clamp-down
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_target_panics() {
        controller(PicSensor::Oracle).set_target(Watts::new(-1.0));
    }

    #[test]
    fn reset_preserves_calibration() {
        let mut pic = controller(PicSensor::Transducer);
        pic.observe_calibration(Ratio::new(0.2), Watts::new(8.0));
        pic.observe_calibration(Ratio::new(0.5), Watts::new(14.0));
        pic.observe_calibration(Ratio::new(0.8), Watts::new(20.0));
        assert!(pic.is_calibrated());
        pic.reset();
        assert!(pic.is_calibrated(), "calibration survives reset");
        assert_eq!(pic.current_index(), 7, "frequency state back to top");
    }
}

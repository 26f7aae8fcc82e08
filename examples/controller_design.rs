//! Controller design walkthrough: reproduce the paper's §II-D analysis
//! with the control-theory toolkit — identify the plant, place the poles,
//! check the stability margin, and simulate the step response.
//!
//! ```text
//! cargo run --release --example controller_design
//! ```

use cpm::control::jury::jury_test;
use cpm::control::{analysis, closed_loop, island_plant, PidGains};
use cpm::core::model;
use cpm_sim::CmpConfig;

fn main() {
    // 1. Identify the plant gain a in P(t+1) = P(t) + a·d(t) by running
    //    the PARSEC suite (minus bodytrack) under white-noise DVFS.
    let cmp = CmpConfig::paper_default();
    let a = model::identify_gain_paper(&cmp, 42, 40);
    println!("identified plant gain a = {a:.3}   (paper: 0.79)");

    // 2. Validate the model on the held-out benchmark (Fig. 5).
    let v = model::validate_model(&cmp, a, 7, 100);
    println!(
        "one-step prediction error on bodytrack: {:.2} %\n",
        v.mean_relative_error * 100.0
    );

    // 3. The paper's PID design point, in the z-domain.
    let gains = PidGains::paper();
    let plant = island_plant(a);
    let controller = gains.transfer_function();
    println!("plant     P(z) = {plant}");
    println!("controller C(z) = {controller}");
    let cl = closed_loop(gains, a);
    println!("closed loop Y(z) = {cl}\n");

    // 4. Pole placement check: every pole strictly inside the unit circle.
    for (k, p) in cl.poles().iter().enumerate() {
        println!("pole {}: {p}  (|z| = {:.4})", k + 1, p.norm());
    }
    println!("stable: {}", cl.is_stable());

    // 5. Robustness (paper: stable for 0 < g < 2.1), with the algebraic
    //    Jury test as the cross-check on the nominal loop.
    let margin = analysis::gain_margin(gains, a, 1e-4);
    println!("pole-placement margin: stable for 0 < g < {margin:.3}");
    println!(
        "Jury criterion on the nominal loop: {:?}\n",
        jury_test(cl.denominator())
    );

    // 6. Step response metrics of the analytical loop.
    let m = analysis::closed_loop_step_metrics(&cl, 80, 0.02);
    println!(
        "unit step: overshoot {:.1} % of step, settling {:?} invocations, steady-state error {:.5}",
        m.overshoot * 100.0,
        m.settling_steps,
        m.steady_state_error
    );
    println!("(the D term damps what the I term would otherwise ring: try PidGains::pi(0.4, 0.4))");
}

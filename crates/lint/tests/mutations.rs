//! Mutation corpus: 24 realistic determinism, safety and dimension bugs,
//! each linted in memory under a virtual workspace path (no tree walk).
//!
//! Every mutant pins the exact set of rules that fire on it, so a rule
//! that goes blind — or starts firing where another rule already owns the
//! catch — shows up as a reviewed diff of this table. The run also prints
//! each rule's *unique* catches (mutants no other rule flags): a rule
//! whose count drops to zero no longer earns its place in the catalogue.
//!
//! ```text
//! cargo test -p cpm-lint --test mutations -- --nocapture
//! ```

use cpm_lint::lint_sources;
use cpm_lint::rules::{classify, ALL_RULES};

/// One seeded bug: where it lives, its source, and the rules that catch it.
struct Mutant {
    name: &'static str,
    path: &'static str,
    src: &'static str,
    fires: &'static [&'static str],
}

const MUTANTS: [Mutant; 24] = [
    // --- timing -------------------------------------------------------
    Mutant {
        name: "timing: direct Instant::now",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn stamp() -> u64 {\n\
              \x20   std::time::Instant::now().elapsed().as_nanos() as u64\n\
              }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: Instant renamed by `use … as`",
        path: "crates/sim/src/mutant.rs",
        src: "use std::time::Instant as Clock;\n\
              pub fn stamp() -> u64 {\n\
              \x20   Clock::now().elapsed().as_nanos() as u64\n\
              }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: renamed clock reaching GoldenDoc::render",
        path: "crates/scenario/src/golden.rs",
        src: "use std::time::Instant as Clock;\n\
              pub struct GoldenDoc;\n\
              fn stamp() -> u64 {\n\
              \x20   Clock::now().elapsed().as_nanos() as u64\n\
              }\n\
              impl GoldenDoc {\n\
              \x20   pub fn render(&self) -> String {\n\
              \x20       format!(\"{}\", stamp())\n\
              \x20   }\n\
              }\n",
        fires: &["timing"],
    },
    // --- math-scope ---------------------------------------------------
    Mutant {
        name: "math-scope: bare .exp() on a hot path",
        path: "crates/power/src/mutant.rs",
        src: "pub fn leak_scale(t: f64) -> f64 {\n\
              \x20   (0.017 * t).exp()\n\
              }\n",
        fires: &["math-scope"],
    },
    Mutant {
        name: "math-scope: UFCS f64::exp(x)",
        path: "crates/power/src/mutant.rs",
        src: "pub fn leak_scale(t: f64) -> f64 {\n\
              \x20   f64::exp(0.017 * t)\n\
              }\n",
        fires: &["math-scope"],
    },
    Mutant {
        name: "math-scope: .sin_cos()",
        path: "crates/workloads/src/mutant.rs",
        src: "pub fn phase(x: f64) -> f64 {\n\
              \x20   let (s, c) = x.sin_cos();\n\
              \x20   s + c\n\
              }\n",
        fires: &["math-scope"],
    },
    // --- hash-iteration -----------------------------------------------
    Mutant {
        name: "hash-iteration: HashMap values feeding a sum",
        path: "crates/core/src/mutant.rs",
        src: "use std::collections::HashMap;\n\
              pub fn total(m: &HashMap<u32, f64>) -> f64 {\n\
              \x20   m.values().sum()\n\
              }\n",
        fires: &["hash-iteration"],
    },
    Mutant {
        name: "hash-iteration: HashMap imported as Map",
        path: "crates/core/src/mutant.rs",
        src: "use std::collections::HashMap as Map;\n\
              pub fn total(m: &Map<u32, f64>) -> f64 {\n\
              \x20   m.values().sum()\n\
              }\n",
        fires: &["hash-iteration"],
    },
    // --- lock-unwrap --------------------------------------------------
    Mutant {
        name: "lock-unwrap: direct chain",
        path: "crates/sim/src/mutant.rs",
        src: "use std::sync::Mutex;\n\
              pub fn read(m: &Mutex<u8>) -> u8 {\n\
              \x20   *m.lock().unwrap()\n\
              }\n",
        fires: &["lock-unwrap"],
    },
    Mutant {
        name: "lock-unwrap: guard bound, then unwrapped",
        path: "crates/sim/src/mutant.rs",
        src: "use std::sync::Mutex;\n\
              pub fn read(m: &Mutex<u8>) -> u8 {\n\
              \x20   let g = m.lock();\n\
              \x20   *g.unwrap()\n\
              }\n",
        fires: &["lock-unwrap"],
    },
    // --- panic-bare ---------------------------------------------------
    Mutant {
        name: "panic-bare: panic!",
        path: "crates/core/src/mutant.rs",
        src: "pub fn budget(x: f64) -> f64 {\n\
              \x20   if x < 0.0 {\n\
              \x20       panic!(\"negative budget\");\n\
              \x20   }\n\
              \x20   x\n\
              }\n",
        fires: &["panic-bare"],
    },
    Mutant {
        name: "panic-bare: todo!",
        path: "crates/core/src/mutant.rs",
        src: "pub fn rebalance(x: f64) -> f64 {\n\
              \x20   todo!()\n\
              }\n",
        fires: &["panic-bare"],
    },
    // --- output -------------------------------------------------------
    Mutant {
        name: "output: println! in a library crate",
        path: "crates/core/src/mutant.rs",
        src: "pub fn report(x: f64) {\n\
              \x20   println!(\"budget {x}\");\n\
              }\n",
        fires: &["output"],
    },
    // --- env-read -----------------------------------------------------
    Mutant {
        name: "env-read: direct std::env::var",
        path: "crates/core/src/mutant.rs",
        src: "pub fn islands() -> usize {\n\
              \x20   std::env::var(\"ISLANDS\").map(|s| s.len()).unwrap_or(4)\n\
              }\n",
        fires: &["env-read"],
    },
    Mutant {
        name: "env-read: std::env::var imported as getv",
        path: "crates/core/src/mutant.rs",
        src: "use std::env::var as getv;\n\
              pub fn islands() -> usize {\n\
              \x20   getv(\"ISLANDS\").map(|s| s.len()).unwrap_or(4)\n\
              }\n",
        fires: &["env-read"],
    },
    // --- one each -----------------------------------------------------
    Mutant {
        name: "thread-spawn: ambient thread outside cpm-runtime",
        path: "crates/core/src/mutant.rs",
        src: "pub fn background() {\n\
              \x20   std::thread::spawn(|| {});\n\
              }\n",
        fires: &["thread-spawn"],
    },
    Mutant {
        name: "unsafe-file: unsafe outside the allow-list",
        path: "crates/core/src/mutant.rs",
        src: "pub fn peek(p: *const f64) -> f64 {\n\
              \x20   unsafe { *p }\n\
              }\n",
        fires: &["unsafe-file"],
    },
    Mutant {
        name: "allow-justify: bare #[allow]",
        path: "crates/core/src/mutant.rs",
        src: "#[allow(dead_code)]\n\
              fn spare() {}\n",
        fires: &["allow-justify"],
    },
    Mutant {
        name: "rng-scope: Xoshiro256pp::child mid-stack",
        path: "crates/sim/src/mutant.rs",
        src: "use cpm_rng::Xoshiro256pp;\n\
              pub fn jitter(parent: &Xoshiro256pp) -> Xoshiro256pp {\n\
              \x20   Xoshiro256pp::child(parent, 3)\n\
              }\n",
        fires: &["rng-scope"],
    },
    Mutant {
        name: "simd-stable: core::arch intrinsics",
        path: "crates/math/src/mutant.rs",
        src: "use core::arch::x86_64::_mm_setzero_pd;\n\
              pub fn zero() {}\n",
        fires: &["simd-stable"],
    },
    // --- dim-consistency ----------------------------------------------
    Mutant {
        name: "dim-consistency: W + V",
        path: "crates/power/src/mutant.rs",
        src: "use cpm_units::{Volts, Watts};\n\
              pub fn headroom(p: Watts, v: Volts) -> f64 {\n\
              \x20   p.value() + v.value()\n\
              }\n",
        fires: &["dim-consistency"],
    },
    Mutant {
        name: "dim-consistency: W > V",
        path: "crates/power/src/mutant.rs",
        src: "use cpm_units::{Volts, Watts};\n\
              pub fn over(p: Watts, v: Volts) -> bool {\n\
              \x20   p.value() > v.value()\n\
              }\n",
        fires: &["dim-consistency"],
    },
    Mutant {
        name: "dim-consistency: p_watts - f_hertz",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn slack(p_watts: f64, f_hertz: f64) -> f64 {\n\
              \x20   p_watts - f_hertz\n\
              }\n",
        fires: &["dim-consistency"],
    },
    Mutant {
        name: "dim-consistency: °C²·W",
        path: "crates/thermal/src/mutant.rs",
        src: "use cpm_units::{Celsius, Watts};\n\
              pub fn heat(t: Celsius, p: Watts) -> f64 {\n\
              \x20   t.value() * t.value() * p.value()\n\
              }\n",
        fires: &["dim-consistency"],
    },
];

/// The sorted, de-duplicated rule names that fire on one mutant.
fn firing_set(m: &Mutant) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = lint_sources(&[(classify(m.path), m.src.to_string())])
        .iter()
        .map(|v| v.rule.name())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn every_mutant_fires_exactly_its_pinned_rules() {
    let mut unique = vec![0usize; ALL_RULES.len()];
    let mut drift = Vec::new();
    for m in &MUTANTS {
        let got = firing_set(m);
        if got != m.fires {
            drift.push(format!("{}: pinned {:?}, got {got:?}", m.name, m.fires));
        }
        if let [only] = got.as_slice() {
            if let Some(k) = ALL_RULES.iter().position(|r| r.name() == *only) {
                unique[k] += 1;
            }
        }
    }
    println!("unique catches per rule ({} mutants):", MUTANTS.len());
    for (rule, n) in ALL_RULES.iter().zip(&unique) {
        println!("  {:<16} {n}", rule.name());
    }
    assert!(
        drift.is_empty(),
        "firing sets drifted:\n{}",
        drift.join("\n")
    );
    for m in &MUTANTS {
        assert!(!m.fires.is_empty(), "{}: no rule catches it", m.name);
    }
    for (rule, n) in ALL_RULES.iter().zip(&unique) {
        assert!(
            *n > 0,
            "rule `{}` has no catch that no other rule makes",
            rule.name()
        );
    }
}

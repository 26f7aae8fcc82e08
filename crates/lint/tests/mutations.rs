//! Mutation corpus: 26 realistic determinism and safety bugs, each
//! checked by both checkers of the catalogue. The in-tree analyzer
//! lints every mutant in memory under its virtual workspace path; clippy
//! compiles every mutant once, as a module of a throwaway library crate
//! under `target/clippy-gate/mutants/`, at the clippy gate's lint levels
//! and under the root `clippy.toml` (so for clippy each mutant is library
//! code of a crate that owns no effect).
//!
//! Every mutant pins the exact set of rules (and rustc error codes) that
//! fire on it, so a rule that goes blind — or starts firing where another
//! rule already owns the catch — shows up as a reviewed diff of this
//! table. The run also prints each rule's *unique* catches (mutants no
//! other rule flags) and the checker that makes them: a rule whose count
//! drops to zero no longer earns its place in the catalogue.
//!
//! ```text
//! cargo test -p cpm-lint --test mutations -- --nocapture
//! ```

use cpm_lint::rules::{classify, ALL_RULES};
use cpm_lint::{clippy, lint_source};
use std::collections::BTreeSet;
use std::path::Path;

/// One seeded bug: where it lives, its source, and what catches it.
struct Mutant {
    name: &'static str,
    path: &'static str,
    src: &'static str,
    fires: &'static [&'static str],
}

const MUTANTS: [Mutant; 25] = [
    // --- timing -------------------------------------------------------
    Mutant {
        name: "timing: direct Instant::now",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: Instant renamed by `use … as`",
        path: "crates/sim/src/mutant.rs",
        src: "use std::time::Instant as Clock;\n\
              pub fn stamp() -> u64 { Clock::now().elapsed().as_nanos() as u64 }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: renamed clock reaching GoldenDoc::render",
        path: "crates/scenario/src/golden.rs",
        src: "use std::time::Instant as Clock;\n\
              pub struct GoldenDoc;\n\
              fn stamp() -> u64 { Clock::now().elapsed().as_nanos() as u64 }\n\
              impl GoldenDoc {\n\
              \x20   pub fn render(&self) -> String { format!(\"{}\", stamp()) }\n\
              }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: Instant::now in cpm-runtime",
        path: "crates/runtime/src/mutant.rs",
        src: "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: Instant::now in a root integration test",
        path: "tests/mutant.rs",
        src: "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        fires: &["timing"],
    },
    Mutant {
        name: "timing: Instant::now in the benchmark package",
        path: "benches/cpm-perfbench/src/mutant.rs",
        src: "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        fires: &["timing"],
    },
    // --- math-scope ---------------------------------------------------
    Mutant {
        name: "math-scope: bare .exp() on a hot path",
        path: "crates/core/src/mutant.rs",
        src: "pub fn leak_scale(t: f64) -> f64 { (0.017 * t).exp() }\n",
        fires: &["math-scope"],
    },
    Mutant {
        name: "math-scope: UFCS f64::exp(x)",
        path: "crates/power/src/mutant.rs",
        src: "pub fn leak_scale(t: f64) -> f64 { f64::exp(0.017 * t) }\n",
        fires: &["math-scope"],
    },
    Mutant {
        name: "math-scope: .sin_cos()",
        path: "crates/workloads/src/mutant.rs",
        src: "pub fn phase(x: f64) -> f64 { let (s, c) = x.sin_cos(); s + c }\n",
        fires: &["math-scope"],
    },
    // --- hash-iteration -----------------------------------------------
    Mutant {
        name: "hash-iteration: HashMap values feeding a sum",
        path: "crates/core/src/mutant.rs",
        src: "use std::collections::HashMap;\n\
              pub fn total(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n",
        fires: &["hash-iteration"],
    },
    Mutant {
        name: "hash-iteration: HashMap imported as Map",
        path: "crates/core/src/mutant.rs",
        src: "use std::collections::HashMap as Map;\n\
              pub fn total(m: &Map<u32, f64>) -> f64 { m.values().sum() }\n",
        fires: &["hash-iteration"],
    },
    // --- lock-unwrap --------------------------------------------------
    Mutant {
        name: "lock-unwrap: direct chain",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn read(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n",
        fires: &["lock-unwrap"],
    },
    Mutant {
        name: "lock-unwrap: guard bound, then unwrapped",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn read(m: &std::sync::Mutex<u8>) -> u8 {\n\
              \x20   let g = m.lock();\n\
              \x20   *g.unwrap()\n\
              }\n",
        fires: &["lock-unwrap"],
    },
    Mutant {
        name: "lock-unwrap: guard bound, then expected",
        path: "crates/sim/src/mutant.rs",
        src: "pub fn read(m: &std::sync::Mutex<u8>) -> u8 {\n\
              \x20   let guard = m.lock();\n\
              \x20   *guard.expect(\"never poisoned\")\n\
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
        src: "pub fn rebalance(_x: f64) -> f64 { todo!() }\n",
        fires: &["panic-bare"],
    },
    // --- one each -----------------------------------------------------
    Mutant {
        name: "output: println! in a library crate",
        path: "crates/core/src/mutant.rs",
        src: "pub fn report(x: f64) { println!(\"budget {x}\"); }\n",
        fires: &["output"],
    },
    Mutant {
        name: "env-read: direct std::env::var",
        path: "crates/core/src/mutant.rs",
        src: "pub fn islands() -> usize { std::env::var(\"N\").map_or(4, |s| s.len()) }\n",
        fires: &["env-read"],
    },
    Mutant {
        name: "env-read: std::env::var imported as getv",
        path: "crates/core/src/mutant.rs",
        src: "use std::env::var as getv;\n\
              pub fn islands() -> usize { getv(\"N\").map_or(4, |s| s.len()) }\n",
        fires: &["env-read"],
    },
    Mutant {
        name: "env-read: std::env::var in cpm-runtime",
        path: "crates/runtime/src/mutant.rs",
        src: "pub fn workers() -> usize { std::env::var(\"N\").map_or(1, |s| s.len()) }\n",
        fires: &["env-read"],
    },
    Mutant {
        name: "thread-spawn: ambient thread in library code",
        path: "crates/core/src/mutant.rs",
        src: "pub fn background() { std::thread::spawn(|| {}); }\n",
        fires: &["thread-spawn"],
    },
    Mutant {
        name: "unsafe-file: unsafe outside the allow-list",
        path: "crates/core/src/mutant.rs",
        src: "pub fn peek(p: &f64) -> f64 { unsafe { *(p as *const f64) } }\n",
        fires: &["unsafe-file"],
    },
    Mutant {
        name: "allow-justify: bare #[allow]",
        path: "crates/core/src/mutant.rs",
        src: "#[allow(dead_code)]\nfn spare() {}\n",
        fires: &["allow-justify"],
    },
    Mutant {
        name: "rng-scope: Xoshiro256pp::child mid-stack",
        path: "crates/sim/src/mutant.rs",
        src: "use cpm_rng::Xoshiro256pp;\n\
              pub fn jitter(seed: u64) -> Xoshiro256pp { Xoshiro256pp::child(seed, 3) }\n",
        fires: &["rng-scope"],
    },
    Mutant {
        name: "simd-stable: core::arch intrinsics",
        path: "crates/math/src/mutant.rs",
        src: "#[cfg(target_arch = \"x86_64\")]\n\
              use core::arch::x86_64::_mm_setzero_pd;\n",
        fires: &["simd-stable"],
    },
];

/// A site allow of a forbidden determinism lint. Rustc rejects the
/// allow (E0453) before any clippy lint runs, which would end the check
/// of every mutant sharing its crate, so it compiles as a crate of its
/// own.
const ALONE: Mutant = Mutant {
    name: "math-scope: #[allow(clippy::disallowed_methods)] is a hard error",
    path: "crates/core/src/mutant.rs",
    src: "#[allow(clippy::disallowed_methods)] // a hot path, trust me\n\
          pub fn leak_scale(t: f64) -> f64 { (0.017 * t).exp() }\n",
    fires: &["E0453"],
};

/// Writes `text` to `path` unless it already holds it, so a warm run
/// leaves cargo's fingerprints alone.
fn write_if_changed(path: &Path, text: &str) {
    if std::fs::read_to_string(path).ok().as_deref() != Some(text) {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("create dir");
        std::fs::write(path, text).expect("write mutant crate file");
    }
}

/// Lays out the throwaway workspace (crate `lib` with one module per
/// mutant of [`MUTANTS`], crate `alone` holding [`ALONE`]), runs clippy
/// on it once, and returns, per mutant, the rules and rustc error codes
/// its diagnostics name.
fn clippy_firings(root: &Path) -> Vec<BTreeSet<String>> {
    let dir = root.join("target/clippy-gate/mutants");
    let deps = format!(
        "[dependencies]\ncpm-rng = {{ path = '{}/crates/rng' }}\n",
        root.display()
    );
    write_if_changed(
        &dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"lib\", \"alone\"]\nresolver = \"2\"\n",
    );
    let mut lib_rs = String::new();
    for (k, m) in MUTANTS.iter().enumerate() {
        lib_rs.push_str(&format!("pub mod m{k:02};\n"));
        write_if_changed(&dir.join(format!("lib/src/m{k:02}.rs")), m.src);
    }
    write_if_changed(&dir.join("lib/src/lib.rs"), &lib_rs);
    write_if_changed(&dir.join("alone/src/lib.rs"), ALONE.src);
    for name in ["lib", "alone"] {
        let manifest = format!(
            "[package]\nname = \"mutants-{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n{deps}"
        );
        write_if_changed(&dir.join(name).join("Cargo.toml"), &manifest);
    }
    let target = dir.join("target");
    let args = ["--workspace", "--keep-going", "--target-dir"];
    let args = [&args[..], &[target.to_str().expect("UTF-8 path")]].concat();
    let diags = clippy::run(&dir.join("Cargo.toml"), &args).unwrap_or_else(|e| panic!("{e}"));
    let mut firings = vec![BTreeSet::new(); MUTANTS.len() + 1];
    for d in diags {
        let k = match d.path.strip_prefix("lib/src/m") {
            Some(rest) => rest.trim_end_matches(".rs").parse().expect("module index"),
            None if d.path == "alone/src/lib.rs" => MUTANTS.len(),
            None => panic!("diagnostic outside the mutants: {}", d.rendered),
        };
        let what = match (d.rule(), d.is_error) {
            (Some(rule), _) => rule.name().to_string(),
            (None, true) => d.code.unwrap_or_else(|| "error".to_string()),
            (None, false) => continue,
        };
        firings[k].insert(what);
    }
    firings
}

#[test]
fn every_mutant_fires_exactly_its_pinned_rules() {
    let root = cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let by_clippy = clippy_firings(&root);
    let mutants: Vec<&Mutant> = MUTANTS.iter().chain([&ALONE]).collect();
    let mut unique = vec![0usize; ALL_RULES.len()];
    let mut drift = Vec::new();
    for (m, from_clippy) in mutants.iter().zip(by_clippy) {
        let mut got = from_clippy;
        got.extend(
            lint_source(&classify(m.path), m.src)
                .iter()
                .map(|v| v.rule.name().to_string()),
        );
        if !got.iter().eq(m.fires.iter()) {
            drift.push(format!("{}: pinned {:?}, got {got:?}", m.name, m.fires));
        }
        if let Some(k) = ALL_RULES
            .iter()
            .position(|r| got.len() == 1 && got.contains(r.name()))
        {
            unique[k] += 1;
        }
    }
    println!("unique catches per rule ({} mutants):", mutants.len());
    for (rule, n) in ALL_RULES.iter().zip(&unique) {
        println!("  {:<16} {:<9} {n}", rule.name(), rule.checked_by());
    }
    assert!(
        drift.is_empty(),
        "firing sets drifted:\n{}",
        drift.join("\n")
    );
    for m in &mutants {
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

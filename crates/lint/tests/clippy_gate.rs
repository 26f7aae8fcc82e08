//! The clippy half of the invariant catalogue (DESIGN.md §3f) as a tier-1
//! gate: `cargo test -p cpm-lint` fails with clippy's own message when
//! non-test code uses a banned type or method, or when a library crate
//! prints or panics. It runs
//!
//! ```text
//! cargo clippy --offline --locked --workspace --lib --bins --examples \
//!     --target-dir <root>/target/clippy-gate \
//!     -- -F clippy::disallowed_types -F clippy::disallowed_methods -W …
//! ```
//!
//! and fails, never skips, when `cargo clippy` cannot run.

use cpm_lint::clippy::{self, Diagnostic};
use cpm_lint::rules::{classify, Role, RuleId};
use std::path::Path;

/// Library crates exempt from `output`: the bench harness *is* the
/// stdout producer the byte-gates diff.
const OUTPUT_CRATES: [&str; 1] = ["cpm-bench"];

/// Crates that own an effect the root `clippy.toml` bans, and the rule
/// whose entries their own `clippy.toml` omits.
const EXEMPT: [(&str, &str); 5] = [
    ("math", "math-scope"),
    ("rng", "rng-scope"),
    ("workloads", "rng-scope"),
    ("control", "rng-scope"),
    ("scenario", "rng-scope"),
];

fn root() -> std::path::PathBuf {
    cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"))
}

/// Whether a diagnostic fails the gate: every error (the forbidden
/// determinism lints, E0453, a compile error), and the output and panic
/// lints in library code.
fn fails_gate(d: &Diagnostic) -> bool {
    let ctx = classify(&d.path);
    d.is_error
        || ctx.role == Role::Library
            && match d.rule() {
                Some(RuleId::Output) => !OUTPUT_CRATES.contains(&ctx.crate_name.as_str()),
                Some(RuleId::PanicBare) => true,
                _ => false,
            }
}

#[test]
fn non_test_code_passes_the_clippy_half_of_the_catalogue() {
    let root = root();
    let target = root.join("target/clippy-gate");
    let target = target.to_str().expect("UTF-8 target path");
    let args = [
        "--locked",
        "--workspace",
        "--lib",
        "--bins",
        "--examples",
        "--target-dir",
        target,
    ];
    let diags = clippy::run(&root.join("Cargo.toml"), &args).unwrap_or_else(|e| panic!("{e}"));
    let failures: Vec<&str> = diags
        .iter()
        .filter(|d| fails_gate(d))
        .map(|d| d.rendered.as_str())
        .collect();
    assert!(
        failures.is_empty(),
        "the invariant catalogue fails under clippy:\n{}",
        failures.join("\n")
    );
}

/// The entry lines of a `clippy.toml`: everything but comments and
/// blank lines.
fn entries(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// A crate-level `clippy.toml` replaces the root one rather than
/// extending it, so an entry added at the root alone would silently skip
/// every exempt crate. Each crate file must be the root list minus the
/// entries of the rule that crate owns, and no other crate may have one.
#[test]
fn each_exempt_crate_lists_the_root_entries_minus_its_own() {
    let root = root();
    let all = entries(&root.join("clippy.toml"));
    for (dir, rule) in EXEMPT {
        let owned = format!("reason = \"{rule}: ");
        let want: Vec<&String> = all.iter().filter(|l| !l.contains(&owned)).collect();
        assert!(want.len() < all.len(), "no root entry names `{rule}`");
        let got = entries(&root.join("crates").join(dir).join("clippy.toml"));
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            want,
            "crates/{dir}/clippy.toml must equal the root list minus the `{rule}` entries"
        );
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        assert!(
            !dir.join("clippy.toml").exists() || EXEMPT.iter().any(|(d, _)| *d == name),
            "crates/{name}/clippy.toml exempts a crate the catalogue does not list"
        );
    }
}

//! The clippy half of the catalogue: runs `cargo clippy` at the
//! catalogue's lint levels and reads its diagnostics back as rule
//! firings.
//!
//! Clippy resolves names, so a banned type or method is caught however it
//! was imported or called (`use … as`, UFCS). The determinism lints are
//! forbidden on the command line, which makes an `#[allow]` of one a hard
//! error (E0453) rather than a waiver. The output and panic lints run at
//! warn level: they apply to library targets only, and one run also
//! checks binaries and examples, so the caller scopes them by path.

use crate::rules::{RuleId, ALL_RULES};
use std::path::Path;
use std::process::Command;

/// One located diagnostic of a clippy run.
#[derive(Debug)]
pub struct Diagnostic {
    /// True for `error`, false for `warning`.
    pub is_error: bool,
    /// Lint name without its `clippy::` prefix (`panic`), or a rustc
    /// error code (`E0453`); `None` for an uncoded diagnostic.
    pub code: Option<String>,
    /// Path of the primary span, relative to the workspace clippy ran in.
    pub path: String,
    /// The message as clippy prints it on a terminal.
    pub rendered: String,
}

impl Diagnostic {
    /// The catalogue rule this diagnostic reports. The `disallowed_*`
    /// lints are shared by several rules; the rule name that starts each
    /// `clippy.toml` reason (printed as a note) tells them apart.
    pub fn rule(&self) -> Option<RuleId> {
        let code = self.code.as_deref()?;
        ALL_RULES.iter().copied().find(|r| {
            r.clippy_lints().contains(&code)
                && (!code.starts_with("disallowed_")
                    || self.rendered.contains(&format!("note: {}: ", r.name())))
        })
    }
}

/// The flags after `--` of every catalogue run: `-F` for the
/// `disallowed_*` lints, `-W` for the rest of the clippy-checked rules.
fn lint_flags() -> Vec<String> {
    let mut flags: Vec<String> = Vec::new();
    for lint in ALL_RULES.iter().flat_map(|r| r.clippy_lints()) {
        let level = if lint.starts_with("disallowed_") {
            "-F"
        } else {
            "-W"
        };
        let lint = format!("clippy::{lint}");
        if !flags.contains(&lint) {
            flags.extend([level.to_string(), lint]);
        }
    }
    flags
}

/// Runs `cargo clippy --offline --message-format=json` on the workspace
/// of `manifest` with the cargo arguments `args` and the catalogue's lint
/// flags (`-F` for the `disallowed_*` lints, `-W` for the rest), and
/// returns every located diagnostic. Fails when cargo cannot be started,
/// or when it fails without reporting a located error (clippy missing, a
/// broken manifest): the caller must never mistake that for a clean run.
pub fn run(manifest: &Path, args: &[&str]) -> Result<Vec<Diagnostic>, String> {
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--message-format=json"])
        .arg("--manifest-path")
        .arg(manifest)
        .args(args)
        .arg("--")
        .args(lint_flags())
        .output()
        .map_err(|e| format!("starting `cargo clippy`: {e}"))?;
    let diags: Vec<Diagnostic> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("{\"reason\":\"compiler-message\""))
        .filter_map(parse_message)
        .collect();
    if !out.status.success() && !diags.iter().any(|d| d.is_error) {
        return Err(format!(
            "`cargo clippy` failed ({}) without a located error:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(diags)
}

/// Reads one `compiler-message` line of cargo's JSON output. Only two
/// fields are needed: the lint code and the rendered text, whose first
/// ` --> path:line:col` names the primary span. Notes and summaries
/// (`aborting due to …`) carry no location and are dropped.
fn parse_message(line: &str) -> Option<Diagnostic> {
    let rendered = json_str(line, "rendered")?;
    let path = rendered.lines().find_map(|l| {
        let loc = l.trim_start().strip_prefix("--> ")?;
        Some(loc.rsplitn(3, ':').nth(2)?.to_string())
    })?;
    let code = json_str(line, "code").map(|c| c.trim_start_matches("clippy::").to_string());
    Some(Diagnostic {
        is_error: rendered.starts_with("error"),
        code,
        path,
        rendered,
    })
}

/// The first string value of `"key":"…"` in one JSON line, unescaped.
/// Quotes inside JSON strings are escaped, so the pattern cannot match
/// inside another value; keys whose value is `null` or an object never
/// match it either.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let mut chars = line[line.find(&pat)? + pat.len()..].chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    out.push(c.unwrap_or(char::REPLACEMENT_CHARACTER));
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disallowed_method_maps_to_the_rule_its_reason_names() {
        let line = r#"{"reason":"compiler-message","message":{"rendered":"error: use of a disallowed method `f64::exp`\n --> crates/core/src/x.rs:3:7\n  |\n  = note: math-scope: host libm\n","children":[{"code":null}],"code":{"code":"clippy::disallowed_methods","explanation":null},"level":"error"}}"#;
        let d = parse_message(line).expect("located diagnostic");
        assert!(d.is_error);
        assert_eq!(d.path, "crates/core/src/x.rs");
        assert_eq!(d.code.as_deref(), Some("disallowed_methods"));
        assert_eq!(d.rule(), Some(RuleId::MathScope));
    }

    #[test]
    fn lint_codes_map_and_unlocated_summaries_drop() {
        let line = r#"{"reason":"compiler-message","message":{"code":{"code":"clippy::print_stdout"},"rendered":"warning: use of `println!`\n   --> src/lib.rs:12:5\n"}}"#;
        let d = parse_message(line).expect("located diagnostic");
        assert_eq!((d.is_error, d.rule()), (false, Some(RuleId::Output)));
        let summary = r#"{"reason":"compiler-message","message":{"code":null,"rendered":"error: aborting due to 1 previous error\n"}}"#;
        assert!(parse_message(summary).is_none());
        assert_eq!(
            json_str(r#"{"a":"q\"\\é"}"#, "a").as_deref(),
            Some("q\"\\é")
        );
    }

    #[test]
    fn determinism_lints_are_forbidden_and_the_rest_warn() {
        let flags = lint_flags().join(" ");
        assert!(flags.starts_with("-F clippy::disallowed_types -F clippy::disallowed_methods"));
        assert!(flags.contains("-W clippy::print_stdout") && flags.contains("-W clippy::panic"));
        assert_eq!(flags.matches("disallowed_methods").count(), 1);
    }
}

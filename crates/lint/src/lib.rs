//! `cpm-lint`: the workspace's determinism/safety static-analysis pass.
//!
//! The reproduction's evaluation rests on contracts the end-to-end gates
//! can only spot-check: deterministic GPM/PIC decision traces, stdout
//! byte-identity across worker counts, bit-identical kernel pairs, a
//! 0-alloc steady state. One stray `HashMap` iteration or `Instant::now()`
//! in a library crate silently re-introduces nondeterminism until an
//! end-to-end gate happens to catch it. This crate makes the invariant
//! catalogue machine-checked on every `cargo test`:
//!
//! * tokenizes every `.rs` file in the workspace (comment/string/raw-
//!   string aware — see [`tokenizer`]; no regex-over-source false
//!   positives),
//! * enforces the rule catalogue in [`rules`] (see DESIGN.md §3f for the
//!   full table): token rules that resolve `use … as` renames, so a
//!   determinism source fires on the line where it is written; the two
//!   rules that need expression structure in [`ast_rules`]; and the
//!   workspace dimension pass in [`dims`],
//! * reconciles firings against the committed `lint-waivers.toml`
//!   ([`waivers`]) — a waived violation is intended and documented, a
//!   stale waiver is itself an error, so the file can only shrink, and
//!   the determinism rules cannot be waived at all.
//!
//! It runs three ways: as a binary (`cargo run -p cpm-lint -- --deny`),
//! as a workspace test (`crates/lint/tests/workspace.rs`, so tier-1
//! `cargo test` gates it hermetically), and as a CI lane. A mutation
//! corpus (`crates/lint/tests/mutations.rs`) pins what each rule
//! catches. It is std-only with zero external dependencies, like
//! everything else here.

#![forbid(unsafe_code)]

pub mod ast;
pub mod ast_rules;
pub mod dims;
pub mod output;
pub mod parser;
pub mod rules;
pub mod tokenizer;
pub mod waivers;

pub use rules::{classify, FileContext, RuleId, Violation, ALL_RULES};
pub use waivers::{Budget, Waiver, WaiverError, WaiverFile};

use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS, and the linter's own
/// fixture corpus (which exists to contain violations).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Name of the waiver file at the workspace root.
pub const WAIVER_FILE: &str = "lint-waivers.toml";

/// Outcome of a full run: what fired, what was waived, what went stale.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any waiver — these fail the build.
    pub active: Vec<Violation>,
    /// Violations suppressed by a waiver (kept for reporting).
    pub waived: Vec<Violation>,
    /// Waivers that suppressed nothing — these also fail the build.
    pub stale: Vec<Waiver>,
    /// Set when the waiver count exceeds the `[budget]` ratchet; the
    /// message explains the overrun. Also fails the build.
    pub over_budget: Option<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run should fail: any active violation, stale
    /// waiver, or budget overrun.
    pub fn is_failure(&self) -> bool {
        !self.active.is_empty() || !self.stale.is_empty() || self.over_budget.is_some()
    }

    /// Renders the report as the text the binary prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for v in &self.active {
            let _ = writeln!(
                s,
                "error[{}]: {}:{}: {}",
                v.rule.name(),
                v.path,
                v.line,
                v.message
            );
        }
        for w in &self.stale {
            let _ = writeln!(
                s,
                "error[stale-waiver]: {} no longer fires `{}` — remove its waiver ({})",
                w.path,
                w.rule.name(),
                w.reason
            );
        }
        if let Some(msg) = &self.over_budget {
            let _ = writeln!(s, "error[waiver-budget]: {msg}");
        }
        let _ = writeln!(
            s,
            "cpm-lint: {} files scanned, {} active violations, {} waived, {} stale waivers",
            self.files_scanned,
            self.active.len(),
            self.waived.len(),
            self.stale.len()
        );
        s
    }
}

/// Lints one file with every per-file rule (token and AST forms) and
/// hands back its parse for the workspace-wide dimension pass.
fn lint_file(ctx: &FileContext, source: &str) -> (Vec<Violation>, ast::ParsedFile) {
    let toks = tokenizer::tokenize(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut found = rules::check_file(ctx, &toks, &raw_lines);
    let parsed = parser::parse_file(ctx, &toks);
    found.extend(ast_rules::check(&parsed));
    (found, parsed)
}

/// Lints one in-memory source file under an explicit [`FileContext`]
/// with every per-file rule. Only the dimension pass, whose struct-field
/// table spans the whole file set, needs [`lint_sources`]. This is the
/// unit most of the fixture corpus drives directly.
pub fn lint_source(ctx: &FileContext, source: &str) -> Vec<Violation> {
    lint_file(ctx, source).0
}

/// Lints a set of in-memory source files as one workspace: the per-file
/// rules, then the dimension pass. This is what [`lint_workspace`] runs
/// on the real tree and what the mutation corpus drives directly.
pub fn lint_sources(files: &[(FileContext, String)]) -> Vec<Violation> {
    let mut all = Vec::new();
    let mut parsed = Vec::new();
    for (ctx, source) in files {
        let (found, p) = lint_file(ctx, source);
        all.extend(found);
        parsed.push(p);
    }
    all.extend(dims::check(&parsed));
    all.sort_by(|a, b| (&a.path, a.line, a.rule.name()).cmp(&(&b.path, b.line, b.rule.name())));
    all
}

/// Reconciles raw violations against a waiver set: splits them into
/// active/waived and reports stale waivers (those that matched nothing).
pub fn reconcile(violations: Vec<Violation>, waiver_set: &[Waiver]) -> Report {
    let mut matched = vec![false; waiver_set.len()];
    let mut active = Vec::new();
    let mut waived = Vec::new();
    for v in violations {
        match waiver_set
            .iter()
            .position(|w| w.rule == v.rule && w.path == v.path)
        {
            Some(k) => {
                matched[k] = true;
                waived.push(v);
            }
            None => active.push(v),
        }
    }
    let stale = waiver_set
        .iter()
        .zip(&matched)
        .filter(|(_, &m)| !m)
        .map(|(w, _)| w.clone())
        .collect();
    Report {
        active,
        waived,
        stale,
        over_budget: None,
        files_scanned: 0,
    }
}

/// Recursively collects every `.rs` file under `root`, skipping
/// `target`/`.git`/`fixtures` dirs, sorted by path so reports are
/// deterministic.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                    continue;
                }
                walk(&path, out)?;
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, &mut out)?;
    Ok(out)
}

/// Lints the whole workspace at `root` against its committed waiver
/// file: per-file rules, dimension pass, waiver reconciliation, and the
/// budget ratchet. Purely local and offline: reads only files
/// under `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let waiver_path = root.join(WAIVER_FILE);
    let waiver_file = if waiver_path.exists() {
        let text = std::fs::read_to_string(&waiver_path)
            .map_err(|e| format!("reading {}: {e}", waiver_path.display()))?;
        waivers::parse_file(&text).map_err(|e| e.to_string())?
    } else {
        WaiverFile::default()
    };
    let files = collect_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        inputs.push((classify(&rel), source));
    }
    let violations = lint_sources(&inputs);
    let mut report = reconcile(violations, &waiver_file.waivers);
    report.files_scanned = inputs.len();
    if let Some(b) = &waiver_file.budget {
        if waiver_file.waivers.len() > b.max {
            report.over_budget = Some(format!(
                "{} waivers exceed the budget of {} — fix a violation or deliberately bump \
                 [budget] max with an updated justification ({})",
                waiver_file.waivers.len(),
                b.max,
                b.justification
            ));
        }
    }
    Ok(report)
}

/// Locates the workspace root from the linter's own manifest directory
/// (`crates/lint` → two levels up). Used by the workspace test and the
/// binary's default.
pub fn workspace_root_from_manifest(manifest_dir: &str) -> PathBuf {
    let p = Path::new(manifest_dir);
    p.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| p.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::Role;

    #[test]
    fn classify_maps_paths_to_crates_and_roles() {
        let c = classify("crates/sim/src/calibration.rs");
        assert_eq!(c.crate_name, "cpm-sim");
        assert_eq!(c.role, Role::Library);
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs").role,
            Role::Binary
        );
        assert_eq!(classify("crates/lint/src/main.rs").role, Role::Binary);
        assert_eq!(classify("crates/core/tests/props.rs").role, Role::Test);
        assert_eq!(classify("crates/bench/benches/maxbips.rs").role, Role::Test);
        assert_eq!(classify("examples/quickstart.rs").role, Role::Example);
        assert_eq!(classify("src/lib.rs").crate_name, "cpm");
        assert_eq!(classify("tests/end_to_end.rs").role, Role::Test);
    }

    #[test]
    fn reconcile_waives_and_detects_stale() {
        let v = |rule, path: &str| Violation {
            rule,
            path: path.to_string(),
            line: 1,
            message: String::new(),
        };
        let w = |rule, path: &str| Waiver {
            rule,
            path: path.to_string(),
            reason: "r".to_string(),
        };
        let report = reconcile(
            vec![v(RuleId::Timing, "a.rs"), v(RuleId::Output, "b.rs")],
            &[w(RuleId::Timing, "a.rs"), w(RuleId::PanicBare, "gone.rs")],
        );
        assert_eq!(report.active.len(), 1);
        assert_eq!(report.active[0].rule, RuleId::Output);
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].path, "gone.rs");
        assert!(report.is_failure());
    }

    #[test]
    fn clean_report_is_success() {
        let report = reconcile(Vec::new(), &[]);
        assert!(!report.is_failure());
        assert!(report.render().contains("0 active violations"));
    }
}

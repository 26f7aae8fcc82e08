//! `cpm-lint`: the workspace's determinism/safety static-analysis pass.
//!
//! The reproduction's evaluation rests on contracts the end-to-end gates
//! can only spot-check: deterministic GPM/PIC decision traces, stdout
//! byte-identity across worker counts, bit-identical kernel pairs, a
//! 0-alloc steady state. One stray `HashMap` iteration or `Instant::now()`
//! in a library crate silently re-introduces nondeterminism until an
//! end-to-end gate happens to catch it. This crate makes the invariant
//! catalogue (DESIGN.md §3f) machine-checked on every `cargo test`, with
//! two checkers:
//!
//! * **clippy**, for every rule whose scope is non-test code: the root
//!   `clippy.toml` lists the banned types and methods, and
//!   `tests/clippy_gate.rs` runs `cargo clippy` over every library,
//!   binary and example target with those lints forbidden ([`clippy`]);
//! * **the in-tree analyzer**, for the rules clippy cannot express: it
//!   tokenizes every `.rs` file in the workspace (comment/string/raw-
//!   string aware — see [`tokenizer`]), runs the token rules of
//!   [`rules`], which resolve `use … as` renames so a source fires on the
//!   line where it is written, the AST rule of [`ast_rules`], and the
//!   workspace dimension pass of [`dims`]; `tests/workspace.rs` fails on
//!   any firing.
//!
//! There is no waiver file. An exemption is a crate-level `clippy.toml`
//! that omits the entries the crate owns, or a justified site
//! `#[allow(clippy::…)] // why` whose count a tier-1 test pins. A mutation
//! corpus (`tests/mutations.rs`) pins what each rule catches. The crate is
//! std-only with zero external dependencies, like everything else here.

#![forbid(unsafe_code)]

pub mod ast;
pub mod ast_rules;
pub mod clippy;
pub mod dims;
pub mod parser;
pub mod rules;
pub mod tokenizer;

pub use rules::{classify, FileContext, RuleId, Violation, ALL_RULES};

use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS, and the linter's own
/// fixture corpus (which exists to contain violations).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Outcome of an in-tree run over the workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Every firing; any one fails the build.
    pub active: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run should fail: any violation.
    pub fn is_failure(&self) -> bool {
        !self.active.is_empty()
    }

    /// Renders the report as one line per violation plus a summary.
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
        let _ = writeln!(
            s,
            "cpm-lint: {} files scanned, {} active violations",
            self.files_scanned,
            self.active.len()
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

/// Reads every `.rs` file of the workspace at `root`, classified by its
/// workspace-relative path.
pub fn read_workspace(root: &Path) -> Result<Vec<(FileContext, String)>, String> {
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
    Ok(inputs)
}

/// Runs the in-tree half of the catalogue over the whole workspace at
/// `root`: per-file rules, then the dimension pass. Purely local and
/// offline: reads only files under `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let inputs = read_workspace(root)?;
    Ok(Report {
        active: lint_sources(&inputs),
        files_scanned: inputs.len(),
    })
}

/// Locates the workspace root from the linter's own manifest directory
/// (`crates/lint` → two levels up).
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
        assert_eq!(classify("crates/x/src/main.rs").role, Role::Binary);
        assert_eq!(classify("crates/core/tests/props.rs").role, Role::Test);
        assert_eq!(classify("crates/bench/benches/maxbips.rs").role, Role::Test);
        assert_eq!(classify("examples/quickstart.rs").role, Role::Example);
        assert_eq!(classify("src/lib.rs").crate_name, "cpm");
        assert_eq!(classify("tests/end_to_end.rs").role, Role::Test);
    }

    #[test]
    fn clean_report_is_success() {
        let report = Report::default();
        assert!(!report.is_failure());
        assert!(report.render().contains("0 active violations"));
    }
}

//! The invariant catalogue: every rule of DESIGN.md §3f, which checker
//! enforces it, and the token-pattern checks of the rules `cpm-lint`
//! keeps in-tree.
//!
//! Rules whose scope is non-test code are checked by clippy, driven by
//! the root `clippy.toml` and the tier-1 gate in `tests/clippy_gate.rs`
//! (see [`RuleId::clippy_lints`]). The rules kept here are the ones clippy
//! cannot express: `timing` and `env-read` also apply to test code and to
//! the benchmark package, which a per-package `clippy.toml` cannot scope;
//! the others need an allow-list of one file, the same-line comment of an
//! attribute, an import clippy does not flag, or a narrower target than
//! `unwrap_used`/`expect_used` (a `.lock()` result only).
//! The token rules see through `use … as` renames, so a source fires on
//! the line where it is written whatever it is called there.

use crate::tokenizer::{seq_is, Tok, TokKind};

/// Identifies one rule of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// A `HashMap`/`HashSet` in non-test code (iteration order is
    /// nondeterministic).
    HashIteration,
    /// `Instant::now` / `SystemTime` outside the timing crates.
    Timing,
    /// `std::env` reads outside the experiment harness.
    EnvRead,
    /// Thread creation in non-test code.
    ThreadSpawn,
    /// RNG construction in non-test code outside the crates that own a
    /// seed-derivation contract.
    RngScope,
    /// `println!`-family macros in library crates.
    Output,
    /// `unsafe` outside the allow-listed file set.
    UnsafeFile,
    /// `panic!`, `todo!`, `unimplemented!` or `unreachable!` in library
    /// code.
    PanicBare,
    /// `.unwrap()` / `.expect(...)` on a `.lock()` result in library code,
    /// chained directly or through a guard bound by `let`.
    LockUnwrap,
    /// `#[allow(...)]` without a same-line justification comment.
    AllowJustify,
    /// Nightly SIMD gates (`#![feature(...)]`, `std::simd`) or per-arch
    /// `target_feature`/intrinsic escapes. The vectorized kernels are
    /// plain lane-chunked loops LLVM autovectorizes — std-only stable
    /// stays enforced.
    SimdStable,
    /// Host-libm transcendentals (`.sin()`, `.exp()`, `.powf()`, …, or the
    /// UFCS `f64::exp(x)`) in non-test code outside `cpm-math`: their bits
    /// differ per platform, which would fork the golden trajectories.
    MathScope,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [RuleId; 12] = [
    RuleId::HashIteration,
    RuleId::Timing,
    RuleId::EnvRead,
    RuleId::ThreadSpawn,
    RuleId::RngScope,
    RuleId::Output,
    RuleId::UnsafeFile,
    RuleId::PanicBare,
    RuleId::LockUnwrap,
    RuleId::AllowJustify,
    RuleId::SimdStable,
    RuleId::MathScope,
];

impl RuleId {
    /// The stable kebab-case name used in reports and as the prefix of
    /// each `clippy.toml` reason.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIteration => "hash-iteration",
            RuleId::Timing => "timing",
            RuleId::EnvRead => "env-read",
            RuleId::ThreadSpawn => "thread-spawn",
            RuleId::RngScope => "rng-scope",
            RuleId::Output => "output",
            RuleId::UnsafeFile => "unsafe-file",
            RuleId::PanicBare => "panic-bare",
            RuleId::LockUnwrap => "lock-unwrap",
            RuleId::AllowJustify => "allow-justify",
            RuleId::SimdStable => "simd-stable",
            RuleId::MathScope => "math-scope",
        }
    }

    /// The clippy lints that check this rule; empty for the rules
    /// `cpm-lint` checks in-tree. The `disallowed_*` rules share their
    /// lint and are told apart by the rule name that starts each
    /// `clippy.toml` reason.
    pub fn clippy_lints(self) -> &'static [&'static str] {
        match self {
            RuleId::HashIteration => &["disallowed_types"],
            RuleId::ThreadSpawn | RuleId::RngScope | RuleId::MathScope => &["disallowed_methods"],
            RuleId::Output => &["print_stdout", "print_stderr", "dbg_macro"],
            RuleId::PanicBare => &["panic", "todo", "unimplemented", "unreachable"],
            _ => &[],
        }
    }

    /// Which checker enforces the rule: `clippy` or `cpm-lint`.
    pub fn checked_by(self) -> &'static str {
        if self.clippy_lints().is_empty() {
            "cpm-lint"
        } else {
            "clippy"
        }
    }
}

/// How a file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of a crate's library (`src/`, not `src/bin/`).
    Library,
    /// A binary target (`src/main.rs`, `src/bin/*`).
    Binary,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
    /// `examples/`.
    Example,
}

/// Where a file sits: which crate, and in what role.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Package name (`cpm-sim`, `cpm-bench`, …; the root package is `cpm`).
    pub crate_name: String,
    /// Build role of the file.
    pub role: Role,
}

/// Classifies a workspace-relative path into crate + role.
pub fn classify(rel_path: &str) -> FileContext {
    let crate_name = match rel_path.strip_prefix("crates/") {
        Some(rest) => match rest.split('/').next() {
            Some(dir) => format!("cpm-{dir}"),
            None => "cpm".to_string(),
        },
        None => "cpm".to_string(),
    };
    let in_crate = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, tail)| tail)
        .unwrap_or(rel_path);
    let role = if in_crate.starts_with("tests/") || in_crate.starts_with("benches/") {
        Role::Test
    } else if in_crate.starts_with("examples/") {
        Role::Example
    } else if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
        Role::Binary
    } else {
        Role::Library
    };
    FileContext {
        rel_path: rel_path.to_string(),
        crate_name,
        role,
    }
}

/// One rule firing at one place.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the specific firing.
    pub message: String,
}

/// Crates whose whole purpose is timing/benchmarking: `Instant::now` and
/// `SystemTime` are their trade.
const TIMING_CRATES: [&str; 1] = ["cpm-bench"];
/// Crates allowed to read the environment: the experiment harness's
/// artifact paths.
const ENV_CRATES: [&str; 1] = ["cpm-bench"];
/// The complete set of files allowed to contain `unsafe`. Everything
/// here exists to implement a test-only `GlobalAlloc` counting
/// allocator; production code is 100 % safe Rust.
pub const UNSAFE_ALLOWED_FILES: [&str; 1] = ["tests/alloc_free.rs"];

/// Rewrites each use of a `use … as` alias to the full path it renames,
/// so that `use std::time::Instant as Clock; … Clock::now()` reads as
/// `std::time::Instant::now()` to every rule, on the line where it is
/// written. Renames come from `use` declarations only (an `x as f64` cast
/// renames nothing), and the declarations themselves stay verbatim.
fn resolve_renames<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut renames: Vec<(&'a str, Vec<&'a str>)> = Vec::new();
    let mut in_use = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is("use") {
            i += 1;
            continue;
        }
        // Walk the use tree to its `;`: `path` holds the segments in
        // scope, `groups` the path length at each open `{`.
        let (mut path, mut groups) = (Vec::new(), Vec::new());
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is(";") {
            let t = &toks[j];
            if t.is("{") {
                groups.push(path.len());
            } else if t.is("}") {
                path.truncate(groups.pop().unwrap_or(0));
            } else if t.is(",") {
                path.truncate(groups.last().copied().unwrap_or(0));
            } else if t.is("as") {
                let alias = toks
                    .get(j + 1)
                    .filter(|a| a.kind == TokKind::Ident && !a.is("_"));
                if let Some(alias) = alias {
                    renames.push((alias.text, path.clone()));
                }
                j += 1;
            } else if t.kind == TokKind::Ident && !t.is("self") {
                path.push(t.text);
            }
            j += 1;
        }
        let end = j.min(toks.len());
        in_use[i..end].fill(true);
        i = end;
    }
    let mut out = Vec::with_capacity(toks.len());
    for (k, t) in toks.iter().enumerate() {
        let path_tail = k > 0 && (toks[k - 1].is(".") || toks[k - 1].is(":"));
        match renames.iter().find(|(alias, _)| t.is(alias)) {
            Some((_, path)) if !in_use[k] && !path_tail && t.kind == TokKind::Ident => {
                for (n, seg) in path.iter().enumerate() {
                    if n > 0 {
                        let sep = Tok {
                            kind: TokKind::Punct,
                            text: ":",
                            line: t.line,
                        };
                        out.extend([sep.clone(), sep]);
                    }
                    out.push(Tok { text: seg, ..*t });
                }
            }
            _ => out.push(t.clone()),
        }
    }
    out
}

/// `std::env` functions that read or write the process environment.
const ENV_READS: [&str; 8] = [
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "set_var",
    "remove_var",
];

/// Marks the tokens of every item under a `#[cfg(test)]` or `#[test]`
/// attribute: the attribute, then the item up to its first `;` outside
/// brackets or the `}` that closes its body.
fn test_items(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !seq_is(toks, i, &["#", "[", "cfg", "(", "test"])
            && !seq_is(toks, i, &["#", "[", "test", "]"])
        {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" if depth <= 1 => break,
                "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(toks.len());
        mask[i..end].fill(true);
        i = end;
    }
    mask
}

/// Index of the `;` that ends the statement containing token `from`, or
/// of the `}` that closes its block if none comes first.
fn statement_end(toks: &[Tok<'_>], from: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return j,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

/// The `lock-unwrap` firings of one library file, as `(line, message)`:
/// `.lock()` followed (through an optional `?`) by `.unwrap(`/`.expect(`,
/// or a name bound by a `let` whose initializer ends in `.lock()` that is
/// unwrapped or expected later. A guard stays live until a `let` rebinds
/// its name — the sanctioned `let g = g.unwrap_or_else(…)` does — or the
/// next `fn` starts. Items under `#[cfg(test)]`/`#[test]` are skipped.
fn lock_unwraps(toks: &[Tok<'_>]) -> Vec<(usize, String)> {
    let in_test = test_items(toks);
    // True when the tokens just before `end` are `.lock()`, or `.lock()?`.
    let ends_in_lock = |end: usize| {
        let end = end - usize::from(end > 0 && toks[end - 1].is("?"));
        end >= 4 && seq_is(toks, end - 4, &[".", "lock", "(", ")"])
    };
    let mut guards: Vec<&str> = Vec::new();
    // `let` bindings that take effect at their `;`: (its index, the
    // bound name, whether the initializer ends in `.lock()`).
    let mut pending: Vec<(usize, &str, bool)> = Vec::new();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        pending.retain(|&(end, name, guard)| {
            if end == i {
                guards.retain(|g| *g != name);
                if guard {
                    guards.push(name);
                }
            }
            end != i
        });
        if in_test[i] {
            continue;
        }
        if t.is("fn") {
            guards.clear();
        }
        if t.is("let") {
            let at = i + 1 + usize::from(seq_is(toks, i + 1, &["mut"]));
            let typed_or_init = seq_is(toks, at + 1, &[":"]) || seq_is(toks, at + 1, &["="]);
            if let Some(name) = toks
                .get(at)
                .filter(|n| n.kind == TokKind::Ident && typed_or_init)
            {
                let end = statement_end(toks, at);
                pending.push((end, name.text, ends_in_lock(end)));
            }
        }
        let method = toks.get(i + 1).map_or("", |m| m.text);
        if !(t.is(".") && (method == "unwrap" || method == "expect") && seq_is(toks, i + 2, &["("]))
        {
            continue;
        }
        let recv = &toks[i.saturating_sub(1)];
        let path_tail = i > 1 && (toks[i - 2].is(".") || toks[i - 2].is(":"));
        let what = if ends_in_lock(i) {
            "a `.lock()` result".to_string()
        } else if i > 0 && !path_tail && guards.contains(&recv.text) {
            format!("`{}`, a `.lock()` result bound above", recv.text)
        } else {
            continue;
        };
        let message = format!(
            "`.{method}()` on {what} in library code wedges every later caller after one \
             panic; recover with `.unwrap_or_else(PoisonError::into_inner)`"
        );
        out.push((toks[i + 1].line, message));
    }
    out
}

/// Runs the in-tree token rules over one tokenized file. `raw_lines` is
/// the unprocessed source split by line, used only for the same-line
/// justification-comment check of `allow-justify`.
pub fn check_file(ctx: &FileContext, toks: &[Tok<'_>], raw_lines: &[&str]) -> Vec<Violation> {
    let toks = &resolve_renames(toks)[..];
    let krate = ctx.crate_name.as_str();
    let mut out = Vec::new();
    let mut push = |rule: RuleId, line: usize, message: String| {
        let path = ctx.rel_path.clone();
        out.push(Violation {
            rule,
            path,
            line,
            message,
        });
    };

    for (i, t) in toks.iter().enumerate() {
        let third = toks.get(i + 3).map_or("", |m| m.text);
        // An attribute's name, past `#` or `#!` and `[`.
        let bang = usize::from(seq_is(toks, i, &["#", "!"]));
        let attr = match seq_is(toks, i + 1 + bang, &["["]) && t.is("#") {
            true => toks.get(i + 2 + bang).map_or("", |m| m.text),
            false => "",
        };

        // determinism: wall-clock time.
        let clock = match seq_is(toks, i, &["Instant", ":", ":", "now"]) {
            true => "Instant::now()",
            false if t.is("SystemTime") => "SystemTime",
            false => "",
        };
        if !clock.is_empty() && !TIMING_CRATES.contains(&krate) {
            let message = format!("`{clock}` outside the timing crates breaks replay determinism");
            push(RuleId::Timing, t.line, message);
        }

        // determinism: environment reads.
        if seq_is(toks, i, &["env", ":", ":"])
            && ENV_READS.contains(&third)
            && !ENV_CRATES.contains(&krate)
        {
            let message = format!(
                "`env::{third}` outside the worker-count/harness plumbing makes results depend \
                 on ambient state"
            );
            push(RuleId::EnvRead, t.line, message);
        }

        // safety: unsafe stays in the allow-listed file set.
        if t.is("unsafe") && !UNSAFE_ALLOWED_FILES.contains(&ctx.rel_path.as_str()) {
            let message = "`unsafe` outside the allow-listed file set (see UNSAFE_ALLOWED_FILES)";
            push(RuleId::UnsafeFile, t.line, message.to_string());
        }

        // std-only stable: no nightly gates, no per-arch SIMD escapes.
        // The vectorized kernels are lane-chunked loops LLVM
        // autovectorizes portably; a `#![feature(portable_simd)]` or
        // `#[target_feature] unsafe` shortcut would silently fork the
        // numeric contract per architecture.
        let simd = (t.is("std") || t.is("core"))
            && seq_is(toks, i + 1, &[":", ":"])
            && (third == "simd" || third == "arch");
        let message = match attr {
            "feature" => "`#![feature(...)]` nightly gate; the workspace builds std-only on stable",
            "target_feature" => {
                "`#[target_feature(...)]` per-arch escape; lane-chunked loops must autovectorize \
                 portably"
            }
            _ if simd => "a nightly/per-arch SIMD surface; write lane-chunked loops instead",
            _ if t.is("is_x86_feature_detected") => {
                "runtime feature detection forks the numeric contract per host; keep kernels \
                 portable"
            }
            _ => "",
        };
        if !message.is_empty() {
            let at = if simd {
                format!("`{}::{third}` is ", t.text)
            } else {
                String::new()
            };
            push(RuleId::SimdStable, t.line, at + message);
        }

        // hygiene: every allow carries a same-line justification.
        if attr == "allow" {
            // The attribute's closing bracket.
            let mut depth = 0usize;
            let close = toks[i..].iter().find(|c| {
                depth = match c.text {
                    "[" => depth + 1,
                    "]" => depth - 1,
                    _ => depth,
                };
                c.is("]") && depth == 0
            });
            let close_line = close.map_or(t.line, |c| c.line);
            // A line comment runs to end of line, so any `//` with a
            // `]` before it sits after the attribute closed. (Do NOT
            // anchor on the *last* `]`: the justification text itself
            // may contain brackets, e.g. `// dp[b-cost] is ...`.)
            let line = raw_lines.get(close_line - 1).copied().unwrap_or("");
            let justified = line.find("//").is_some_and(|pos| line[..pos].contains(']'));
            if !justified {
                let message = "`#[allow(...)]` without a same-line `// why` justification";
                push(RuleId::AllowJustify, t.line, message.to_string());
            }
        }
    }

    // safety: a poisoned lock must not wedge every later caller.
    if ctx.role == Role::Library {
        for (line, message) in lock_unwraps(toks) {
            push(RuleId::LockUnwrap, line, message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn fired_at(rel_path: &str, src: &str) -> Vec<(RuleId, usize)> {
        let lines: Vec<&str> = src.lines().collect();
        check_file(&classify(rel_path), &tokenize(src), &lines)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    fn fired(src: &str) -> Vec<(RuleId, usize)> {
        fired_at("crates/sim/src/x.rs", src)
    }

    #[test]
    fn use_renames_resolve_where_the_alias_is_written() {
        let src = "use std::{env::var as getv, time::{Instant as Clock}};\n\
                   fn f() -> bool {\n\
                   \x20   let _t = Clock::now();\n\
                   \x20   getv(\"X\").is_ok()\n\
                   }\n";
        // The import names `env::var` itself; the clock import does not
        // read the clock.
        assert_eq!(
            fired(src),
            vec![
                (RuleId::EnvRead, 1),
                (RuleId::Timing, 3),
                (RuleId::EnvRead, 4)
            ]
        );
    }

    #[test]
    fn casts_and_path_segments_rename_nothing() {
        let src = "fn f(x: u32) -> f64 {\n\
                   \x20   x as f64\n\
                   }\n";
        assert_eq!(fired(src), vec![]);
        // A path segment or field that happens to share an alias's name
        // is not the alias.
        let src = "use std::time::Instant as Clock;\n\
                   fn f(s: &S) -> u8 { s.Clock + cfg::Clock::now() }\n";
        assert_eq!(fired(src), vec![]);
    }

    #[test]
    fn direct_lock_chain_fires() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \x20   if *m.lock().expect(\"held\") > 1 { return 0; }\n\
                   \x20   *m.lock().unwrap()\n\
                   }\n";
        assert_eq!(
            fired(src),
            vec![(RuleId::LockUnwrap, 2), (RuleId::LockUnwrap, 3)]
        );
    }

    #[test]
    fn lock_unwrap_through_alias_fires() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \x20   let guard = m.lock();\n\
                   \x20   *guard.unwrap()\n\
                   }\n";
        assert_eq!(fired(src), vec![(RuleId::LockUnwrap, 3)]);
    }

    #[test]
    fn sanctioned_recovery_rebind_does_not_fire() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \x20   let g = m.lock();\n\
                   \x20   let g = g.unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   \x20   let g = g;\n\
                   \x20   g.expect(\"no longer a lock result\")\n\
                   }\n";
        assert_eq!(fired(src), vec![]);
    }

    #[test]
    fn alias_expect_fires_and_tests_are_exempt() {
        let fire = "fn f(m: &std::sync::Mutex<u8>) { let g = m.lock(); g.expect(\"held\"); }";
        assert_eq!(fired(fire), vec![(RuleId::LockUnwrap, 1)]);
        let in_test =
            "#[cfg(test)]\nmod tests {\n fn f(m: &M) { let g = m.lock(); g.unwrap(); }\n}\n";
        assert_eq!(fired(in_test), vec![]);
        // A library item after the test module is checked again.
        let after = format!("{in_test}{fire}\n");
        assert_eq!(fired(&after), vec![(RuleId::LockUnwrap, 5)]);
        // Binaries and tests are out of scope entirely.
        assert_eq!(fired_at("crates/sim/tests/t.rs", fire), vec![]);
    }

    #[test]
    fn unrelated_unwraps_do_not_fire() {
        let src = "fn f(o: Option<u8>, m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \x20   let v = o.unwrap();\n\
                   \x20   let not_a_guard = v + 1;\n\
                   \x20   not_a_guard.unwrap()\n\
                   }\n\
                   fn g(guard: Option<u8>, s: &S) -> u8 { s.guard.unwrap() + guard.unwrap() }\n";
        // A guard bound in one function is not the parameter of the next,
        // and a field is never the local of the same name.
        let src = format!("fn h(m: &M) {{ let guard = m.lock(); }}\n{src}");
        assert_eq!(fired(&src), vec![]);
    }
}

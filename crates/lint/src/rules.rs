//! The invariant catalogue: every rule `cpm-lint` enforces, and the
//! token-pattern checks that implement all of them but `panic-bare` and
//! `lock-unwrap` ([`crate::ast_rules`]) and `dim-consistency`
//! ([`crate::dims`]).
//!
//! Rules fall into three families (see DESIGN.md §3f for the rationale):
//!
//! * **Determinism** — the sweep's byte-identity gates only hold if no
//!   library code consults wall-clock time, the environment, ambient
//!   threads, ad-hoc RNG seeds, host libm, or hash-iteration order. These
//!   rules see through `use … as` renames, so a source fires on the line
//!   where it is written whatever it is called there, and they cannot be
//!   waived.
//! * **Output discipline** — `experiments all` stdout is a contract
//!   surface diffed byte-for-byte in CI; library crates must not print.
//! * **Safety/robustness** — `unsafe` stays in an allow-listed file set,
//!   library code must recover poisoned locks instead of unwrapping, and
//!   every `#[allow(...)]` carries a same-line justification.
//!
//! Genuinely intended violations are waived in `lint-waivers.toml` with a
//! written reason; see [`crate::waivers`].

use crate::tokenizer::{seq_is, Tok, TokKind};

/// Identifies one rule of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Iteration over `HashMap`/`HashSet` (order is nondeterministic).
    HashIteration,
    /// `Instant::now` / `SystemTime` outside the timing crates.
    Timing,
    /// `std::env` reads outside the worker-count / harness plumbing.
    EnvRead,
    /// Thread creation outside `cpm-runtime`.
    ThreadSpawn,
    /// RNG construction in library code outside the crates that own a
    /// seed-derivation contract.
    RngScope,
    /// `println!`-family macros in library crates.
    Output,
    /// `unsafe` outside the allow-listed file set.
    UnsafeFile,
    /// `panic!`, `todo!`, `unimplemented!` or a message-less
    /// `unreachable!()` in library code.
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
    /// Direct libm-backed transcendental calls (`.sin()`, `.exp()`,
    /// `.powf()`, `.ln()`, …, or the UFCS `f64::exp(x)`) in library crates
    /// outside `cpm-math`. Host libm results differ across platforms
    /// bit-for-bit, so any such call on a hot path silently forks the
    /// golden trajectories per OS. Simulation code uses the deterministic
    /// `cpm_math` kernels; cold analysis paths route through
    /// `cpm_math::reference::*`.
    MathScope,
    /// Physical-dimension consistency: `+`/`-`/comparison between
    /// quantities of different dimensions (W vs Hz, J vs s, …) or a
    /// suspicious `*`/`/` result (°C², |exponent| ≥ 3) in the modeling
    /// crates. Dimensions come from cpm-units types, unit-typed struct
    /// fields, and conservative naming conventions.
    DimConsistency,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [RuleId; 13] = [
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
    RuleId::DimConsistency,
];

/// The rules that guard replay determinism. A waiver documents intent at
/// a site; it does not make the value it produces deterministic, so
/// `lint-waivers.toml` may not name any of these.
pub const DETERMINISM_RULES: [RuleId; 6] = [
    RuleId::HashIteration,
    RuleId::Timing,
    RuleId::EnvRead,
    RuleId::ThreadSpawn,
    RuleId::RngScope,
    RuleId::MathScope,
];

impl RuleId {
    /// The stable kebab-case name used in reports and `lint-waivers.toml`.
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
            RuleId::DimConsistency => "dim-consistency",
        }
    }

    /// Parses a rule name as written in the waiver file.
    pub fn parse(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
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
const TIMING_CRATES: [&str; 2] = ["cpm-bench", "cpm-runtime"];
/// Crates allowed to read the environment: the pool's `CPM_WORKERS`
/// plumbing, the experiment harness's artifact paths, and the linter's
/// own CLI.
const ENV_CRATES: [&str; 3] = ["cpm-bench", "cpm-runtime", "cpm-lint"];
/// The only crate that may create threads; everything else borrows its
/// pool so the race surface stays in one audited place.
const THREAD_CRATES: [&str; 1] = ["cpm-runtime"];
/// Library crates that own a seed-derivation contract and may construct
/// RNG streams: the RNG crate itself, workload synthesis (per-cell child
/// streams), transducer noise models, and fault injection (per-effect
/// child streams). Everywhere else, library code takes an `impl Rng` or
/// a derived child stream from its caller — ad-hoc seeding in the middle
/// of the stack silently decouples a component from the experiment seed.
const RNG_CRATES: [&str; 4] = ["cpm-rng", "cpm-workloads", "cpm-control", "cpm-scenario"];
/// Library crates exempt from the output rule: the bench harness *is*
/// the stdout producer the byte-gates diff.
const OUTPUT_CRATES: [&str; 1] = ["cpm-bench"];
/// The complete set of files allowed to contain `unsafe`. Everything
/// here exists to implement a test-only `GlobalAlloc` counting
/// allocator; production code is 100 % safe Rust.
pub const UNSAFE_ALLOWED_FILES: [&str; 1] = ["tests/alloc_free.rs"];

/// The only library crate that may call host-libm transcendentals: the
/// deterministic kernel crate itself (whose accuracy twins and
/// `reference` module are the sanctioned gateway).
const MATH_CRATES: [&str; 1] = ["cpm-math"];

/// `f64` methods backed by the host libm, whose results differ across
/// platforms bit-for-bit. IEEE-exact operations (`sqrt`, `powi`, `abs`,
/// `mul_add` aside — that one is banned by golden identity anyway) are
/// deliberately absent: they round identically everywhere.
const LIBM_METHODS: [&str; 13] = [
    "sin", "cos", "sin_cos", "tan", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10",
    "powf",
];

/// Methods that iterate a hash container in nondeterministic order.
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Marks every token inside a `#[cfg(test)] mod … { … }` region, so rules
/// can exempt unit-test code embedded in library files.
fn test_regions(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if seq_is(toks, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            // Skip over any further attributes to the item keyword.
            let mut j = i + 7;
            while seq_is(toks, j, &["#", "["]) {
                let mut depth = 0usize;
                j += 1; // at '['
                loop {
                    if j >= toks.len() {
                        break;
                    }
                    if toks[j].is("[") {
                        depth += 1;
                    } else if toks[j].is("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j < toks.len() && toks[j].is("mod") {
                // Find the opening brace, then its match.
                while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                if j < toks.len() && toks[j].is("{") {
                    let mut depth = 0usize;
                    let start = i;
                    while j < toks.len() {
                        if toks[j].is("{") {
                            depth += 1;
                        } else if toks[j].is("}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let end = j.min(toks.len().saturating_sub(1));
                    for flag in &mut in_test[start..=end] {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    in_test
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: `let`
/// bindings with hash-typed annotations or constructors, `static`s,
/// struct fields, and function parameters. Tracking is per-file and
/// name-based — coarse, but hash-typed names are rare and specific in
/// this workspace, and anything genuinely intended is waivable.
fn hash_idents(toks: &[Tok<'_>]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut track = |name: &str| {
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        // `name : …HashMap…` — covers annotated lets, statics, struct
        // fields, and fn params. Scan the type expression at angle-depth
        // 0 until a terminator.
        if toks[i].kind == TokKind::Ident
            && seq_is(toks, i + 1, &[":"])
            && !seq_is(toks, i + 2, &[":"])
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            let limit = (i + 60).min(toks.len());
            while j < limit {
                let t = &toks[j];
                if t.is("<") {
                    depth += 1;
                } else if t.is(">") {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0
                    && (t.is(",") || t.is(";") || t.is(")") || t.is("{") || t.is("="))
                {
                    break;
                } else if t.is("HashMap") || t.is("HashSet") {
                    track(toks[i].text);
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = HashMap::…` / `HashSet::…` (possibly behind a
        // `std::collections::` path).
        if toks[i].is("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident && seq_is(toks, j + 1, &["="]) {
                let name = toks[j].text;
                let limit = (j + 12).min(toks.len());
                let mut k = j + 2;
                while k < limit {
                    let t = &toks[k];
                    if t.is("HashMap") || t.is("HashSet") {
                        if seq_is(toks, k + 1, &[":", ":"]) {
                            track(name);
                        }
                        break;
                    }
                    // Allow only path tokens before the constructor.
                    if !(t.is(":") || t.is("std") || t.is("collections")) {
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names
}

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

/// Runs the whole catalogue over one tokenized file. `raw_lines` is the
/// unprocessed source split by line, used only for the same-line
/// justification-comment check of `allow-justify`.
pub fn check_file(ctx: &FileContext, toks: &[Tok<'_>], raw_lines: &[&str]) -> Vec<Violation> {
    let toks = &resolve_renames(toks)[..];
    let mut out = Vec::new();
    let in_test = test_regions(toks);
    let tracked = hash_idents(toks);
    let is_test_code = |i: usize| ctx.role == Role::Test || in_test[i];
    let mut push = |rule: RuleId, line: usize, message: String| {
        out.push(Violation {
            rule,
            path: ctx.rel_path.clone(),
            line,
            message,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];

        // determinism: hash iteration (applies everywhere, tests included
        // — order-dependent assertions are flaky by construction).
        if t.kind == TokKind::Ident && tracked.iter().any(|n| n == t.text) {
            let receiver_start = !seq_is(toks, i.wrapping_sub(1), &["."])
                || seq_is(toks, i.wrapping_sub(2), &["self", "."]);
            if i >= 1 && receiver_start && seq_is(toks, i + 1, &["."]) {
                if let Some(m) = toks.get(i + 2) {
                    if HASH_ITER_METHODS.contains(&m.text) && seq_is(toks, i + 3, &["("]) {
                        push(
                            RuleId::HashIteration,
                            t.line,
                            format!(
                                "`.{}()` iterates hash container `{}` in nondeterministic order; \
                                 use a BTreeMap/BTreeSet or sort before iterating",
                                m.text, t.text
                            ),
                        );
                    }
                }
            }
        }
        if t.is("for") {
            // `for pat in [&][mut] [self.]name …` over a tracked container.
            let limit = (i + 24).min(toks.len());
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < limit {
                if toks[j].is("(") || toks[j].is("[") {
                    depth += 1;
                } else if toks[j].is(")") || toks[j].is("]") {
                    depth -= 1;
                } else if depth == 0 && toks[j].is("in") {
                    let mut k = j + 1;
                    while k < toks.len() && (toks[k].is("&") || toks[k].is("mut")) {
                        k += 1;
                    }
                    if seq_is(toks, k, &["self", "."]) {
                        k += 2;
                    }
                    if k < toks.len() && tracked.iter().any(|n| n == toks[k].text) {
                        push(
                            RuleId::HashIteration,
                            toks[k].line,
                            format!(
                                "`for … in` over hash container `{}` visits entries in \
                                 nondeterministic order",
                                toks[k].text
                            ),
                        );
                    }
                    break;
                }
                j += 1;
            }
        }

        // determinism: wall-clock time.
        if !TIMING_CRATES.contains(&ctx.crate_name.as_str()) {
            if seq_is(toks, i, &["Instant", ":", ":", "now"]) {
                push(
                    RuleId::Timing,
                    t.line,
                    "`Instant::now()` outside the timing crates breaks replay determinism"
                        .to_string(),
                );
            }
            if t.is("SystemTime") {
                push(
                    RuleId::Timing,
                    t.line,
                    "`SystemTime` outside the timing crates breaks replay determinism".to_string(),
                );
            }
        }

        // determinism: environment reads.
        if !ENV_CRATES.contains(&ctx.crate_name.as_str()) && seq_is(toks, i, &["env", ":", ":"]) {
            if let Some(f) = toks.get(i + 3) {
                if matches!(
                    f.text,
                    "var"
                        | "vars"
                        | "var_os"
                        | "vars_os"
                        | "args"
                        | "args_os"
                        | "set_var"
                        | "remove_var"
                ) {
                    push(
                        RuleId::EnvRead,
                        t.line,
                        format!(
                            "`env::{}` outside the worker-count/harness plumbing makes results \
                             depend on ambient state",
                            f.text
                        ),
                    );
                }
            }
        }

        // determinism: thread creation stays in cpm-runtime. Tests may
        // spawn threads to *exercise* concurrency.
        if !THREAD_CRATES.contains(&ctx.crate_name.as_str())
            && !is_test_code(i)
            && seq_is(toks, i, &["thread", ":", ":"])
        {
            if let Some(f) = toks.get(i + 3) {
                if matches!(f.text, "spawn" | "scope" | "Builder") {
                    push(
                        RuleId::ThreadSpawn,
                        t.line,
                        format!("`thread::{}` outside cpm-runtime; use the pool", f.text),
                    );
                }
            }
        }

        // determinism: RNG construction stays in the crates that own a
        // seed-derivation contract. Tests may seed streams freely.
        if ctx.role == Role::Library
            && !RNG_CRATES.contains(&ctx.crate_name.as_str())
            && !is_test_code(i)
        {
            if seq_is(toks, i, &["Xoshiro256pp", ":", ":"]) {
                if let Some(f) = toks.get(i + 3) {
                    if matches!(f.text, "seed_from_u64" | "child") {
                        push(
                            RuleId::RngScope,
                            t.line,
                            format!(
                                "`Xoshiro256pp::{}` outside the RNG-owning crates; take an RNG \
                                 (or a derived child stream) from the caller so every stream \
                                 traces back to the experiment seed",
                                f.text
                            ),
                        );
                    }
                }
            }
            if seq_is(toks, i, &["SplitMix64", ":", ":", "new"]) {
                push(
                    RuleId::RngScope,
                    t.line,
                    "`SplitMix64::new` outside the RNG-owning crates; derive streams via \
                     `Xoshiro256pp::child` in a crate that owns seeding"
                        .to_string(),
                );
            }
        }

        // output discipline: library crates never print.
        if ctx.role == Role::Library
            && !OUTPUT_CRATES.contains(&ctx.crate_name.as_str())
            && !is_test_code(i)
            && matches!(t.text, "println" | "print" | "eprintln" | "eprint" | "dbg")
            && seq_is(toks, i + 1, &["!"])
        {
            push(
                RuleId::Output,
                t.line,
                format!(
                    "`{}!` in a library crate; stdout/stderr are contract surfaces — route \
                     telemetry through cpm-obs",
                    t.text
                ),
            );
        }

        // safety: unsafe stays in the allow-listed file set.
        if t.is("unsafe") && !UNSAFE_ALLOWED_FILES.contains(&ctx.rel_path.as_str()) {
            push(
                RuleId::UnsafeFile,
                t.line,
                "`unsafe` outside the allow-listed file set (see UNSAFE_ALLOWED_FILES)".to_string(),
            );
        }

        // std-only stable: no nightly gates, no per-arch SIMD escapes.
        // The vectorized kernels are lane-chunked loops LLVM
        // autovectorizes portably; a `#![feature(portable_simd)]` or
        // `#[target_feature] unsafe` shortcut would silently fork the
        // numeric contract per architecture.
        if t.is("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is("!") {
                j += 1;
            }
            if seq_is(toks, j, &["[", "feature"]) {
                push(
                    RuleId::SimdStable,
                    t.line,
                    "`#![feature(...)]` nightly gate; the workspace builds std-only on stable"
                        .to_string(),
                );
            }
            if seq_is(toks, j, &["[", "target_feature"]) {
                push(
                    RuleId::SimdStable,
                    t.line,
                    "`#[target_feature(...)]` per-arch escape; lane-chunked loops must \
                     autovectorize portably"
                        .to_string(),
                );
            }
        }
        if (t.is("std") || t.is("core")) && seq_is(toks, i + 1, &[":", ":"]) {
            if let Some(m) = toks.get(i + 3) {
                if m.is("simd") || m.is("arch") {
                    push(
                        RuleId::SimdStable,
                        t.line,
                        format!(
                            "`{}::{}` is a nightly/per-arch SIMD surface; write lane-chunked \
                             loops the autovectorizer handles on stable",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        if t.is("is_x86_feature_detected") {
            push(
                RuleId::SimdStable,
                t.line,
                "runtime feature detection forks the numeric contract per host; keep kernels \
                 portable"
                    .to_string(),
            );
        }

        // determinism: libm transcendentals stay inside cpm-math. A
        // `.sin()` on a hot path silently re-introduces the per-platform
        // bit drift the deterministic kernels exist to remove; cold paths
        // route through `cpm_math::reference::*` (free functions, so this
        // method-call pattern does not fire), and the documented
        // `*_reference` accuracy twins are test-only. The UFCS spelling
        // `f64::exp(x)` is the same call as `x.exp()`.
        let ufcs = seq_is(toks, i + 1, &[":", ":"]);
        let callee = match t.text {
            "." => Some((".", i + 1)),
            "f64" if ufcs => Some(("f64::", i + 3)),
            "f32" if ufcs => Some(("f32::", i + 3)),
            _ => None,
        };
        if let Some((prefix, k)) = callee {
            if ctx.role == Role::Library
                && !MATH_CRATES.contains(&ctx.crate_name.as_str())
                && !is_test_code(i)
                && toks
                    .get(k)
                    .is_some_and(|m| m.kind == TokKind::Ident && LIBM_METHODS.contains(&m.text))
                && seq_is(toks, k + 1, &["("])
            {
                push(
                    RuleId::MathScope,
                    toks[k].line,
                    format!(
                        "`{prefix}{}()` calls the host libm, whose bits differ per platform; use \
                         the deterministic `cpm_math` kernels (hot paths) or \
                         `cpm_math::reference::*` (cold analysis paths)",
                        toks[k].text
                    ),
                );
            }
        }

        // hygiene: every allow carries a same-line justification.
        if t.is("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is("!") {
                j += 1;
            }
            if seq_is(toks, j, &["[", "allow"]) {
                // Find the attribute's closing bracket.
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is("[") {
                        depth += 1;
                    } else if toks[k].is("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let close_line = toks.get(k).map(|c| c.line).unwrap_or(t.line);
                // A line comment runs to end of line, so any `//` with a
                // `]` before it sits after the attribute closed. (Do NOT
                // anchor on the *last* `]`: the justification text itself
                // may contain brackets, e.g. `// dp[b-cost] is ...`.)
                let justified = raw_lines
                    .get(close_line - 1)
                    .map(|l| match l.find("//") {
                        Some(pos) => l[..pos].contains(']'),
                        None => false,
                    })
                    .unwrap_or(false);
                if !justified {
                    push(
                        RuleId::AllowJustify,
                        t.line,
                        "`#[allow(...)]` without a same-line `// why` justification".to_string(),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn fired(src: &str) -> Vec<(RuleId, usize)> {
        let lines: Vec<&str> = src.lines().collect();
        check_file(&classify("crates/sim/src/x.rs"), &tokenize(src), &lines)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn use_renames_resolve_where_the_alias_is_written() {
        let src = "use std::{collections::HashMap as Map, time::{Instant as Clock}};\n\
                   fn f(m: &Map<u8, u8>) -> usize {\n\
                   \x20   let _t = Clock::now();\n\
                   \x20   m.keys().count()\n\
                   }\n";
        assert_eq!(
            fired(src),
            vec![(RuleId::Timing, 3), (RuleId::HashIteration, 4)]
        );
    }

    #[test]
    fn casts_rename_nothing_and_ufcs_libm_fires() {
        let src = "fn f(x: u32) -> f64 {\n\
                   \x20   let y = x as f64;\n\
                   \x20   f64::exp(y) + f32::sin(1.0) as f64\n\
                   }\n";
        assert_eq!(
            fired(src),
            vec![(RuleId::MathScope, 3), (RuleId::MathScope, 3)]
        );
        // A path segment or field that happens to share an alias's name
        // is not the alias.
        let src = "use std::time::Instant as Clock;\n\
                   fn f(s: &S) -> u8 { s.Clock + cfg::Clock::now() }\n";
        assert_eq!(fired(src), vec![]);
    }
}

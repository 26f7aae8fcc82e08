//! The in-tree workspace gate: `cargo test -p cpm-lint` (and therefore
//! tier-1 `cargo test`) fails if any in-tree rule of the invariant
//! catalogue fires anywhere in the tree, or if the count of site allows
//! of a clippy-checked rule moves. Hermetic: reads only files inside the
//! repository.

use cpm_lint::tokenizer::{seq_is, tokenize};
use cpm_lint::ALL_RULES;

fn root() -> std::path::PathBuf {
    cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_clean_under_the_invariant_catalogue() {
    let root = root();
    let report = cpm_lint::lint_workspace(&root).expect("lint run must succeed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root {}?",
        report.files_scanned,
        root.display()
    );
    assert!(
        !report.is_failure(),
        "cpm-lint found problems:\n{}",
        report.render()
    );
}

/// Justified `#[allow(clippy::…)] // why` attributes naming a lint of the
/// catalogue, across the whole tree: the property harness reporting a
/// counterexample by panicking (`cpm_rng::check::forall_cases`) and
/// `Memo::poison_for_tests` poisoning a table lock. Adding a site allow,
/// or removing one, is a deliberate, reviewed change of this number.
const CATALOGUE_ALLOWS: usize = 2;

/// The site-allow ratchet (DESIGN.md §3f). The determinism lints cannot
/// be allowed at all (the clippy gate forbids them), so this counts the
/// output and panic lints' allows, and any determinism-lint allow too.
#[test]
fn catalogue_allows_are_pinned_to_the_exact_count() {
    let lints: Vec<&str> = ALL_RULES
        .iter()
        .flat_map(|r| r.clippy_lints())
        .copied()
        .collect();
    let mut sites = Vec::new();
    for (ctx, source) in cpm_lint::read_workspace(&root()).expect("read workspace") {
        let toks = tokenize(&source);
        for i in 0..toks.len() {
            if !(seq_is(&toks, i, &["allow", "("]) || seq_is(&toks, i, &["expect", "("])) {
                continue;
            }
            let end = (i..toks.len())
                .find(|&k| toks[k].is(")"))
                .unwrap_or(toks.len());
            for k in i..end {
                if seq_is(&toks, k, &["clippy", ":", ":"])
                    && toks.get(k + 3).is_some_and(|t| lints.contains(&t.text))
                {
                    sites.push(format!("{}:{}", ctx.rel_path, toks[k].line));
                }
            }
        }
    }
    assert_eq!(
        sites.len(),
        CATALOGUE_ALLOWS,
        "site allows of catalogue lints moved; update CATALOGUE_ALLOWS and its list \
         deliberately: {sites:?}"
    );
}

/// Parser coverage floor over the real tree: the tolerant parser must
/// recover nearly every `fn` item the tokenizer sees. The known residue
/// is fns generated inside `macro_rules!` bodies (skipped as opaque
/// token trees) and `fn`-pointer types; if this ratio drops, the parser
/// regressed and the AST rule and dimension pass are silently blind to the
/// lost functions.
#[test]
fn parser_recovers_nearly_all_fns_across_the_workspace() {
    let mut fn_tokens = 0usize;
    let mut fn_defs = 0usize;
    for (ctx, source) in cpm_lint::read_workspace(&root()).expect("read workspace") {
        let toks = tokenize(&source);
        fn_tokens += toks.iter().filter(|t| t.is("fn")).count();
        fn_defs += cpm_lint::parser::parse_file(&ctx, &toks).fns.len();
    }
    assert!(fn_tokens > 1000, "suspiciously few fn tokens: {fn_tokens}");
    let ratio = fn_defs as f64 / fn_tokens as f64;
    assert!(
        ratio >= 0.95,
        "parser recovered only {fn_defs}/{fn_tokens} fns ({ratio:.3}) — coverage regressed"
    );
}

/// Self-consistency (DESIGN.md §3f): every rule id in the catalogue must
/// appear in the DESIGN.md rule table, so the documented catalogue and
/// the enforced one cannot drift apart.
#[test]
fn every_rule_id_is_documented_in_design_md() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md must exist");
    for rule in ALL_RULES {
        assert!(
            design.contains(&format!("`{}`", rule.name())),
            "rule `{}` is enforced but missing from the DESIGN.md rule table",
            rule.name()
        );
    }
}

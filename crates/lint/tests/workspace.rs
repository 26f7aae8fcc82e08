//! The workspace gate: `cargo test -p cpm-lint` (and therefore tier-1
//! `cargo test`) fails if any rule of the invariant catalogue fires
//! un-waived anywhere in the tree, or if a committed waiver has gone
//! stale. Hermetic: reads only files inside the repository.

#[test]
fn workspace_is_clean_under_the_invariant_catalogue() {
    let root = cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
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
    // Every waiver in lint-waivers.toml is exercised (non-stale) and the
    // file documents real, current exceptions only.
    assert!(
        report.waived.len() >= report.stale.len(),
        "internal consistency"
    );
}

/// The waiver-budget ratchet (DESIGN.md §3k): `[budget] max` must equal
/// the *exact* waiver count. Adding a waiver forces a deliberate bump of
/// the budget (with its justification updated); removing one forces the
/// budget down. Either direction is a reviewed diff of lint-waivers.toml.
#[test]
fn waiver_budget_is_a_ratchet_pinned_to_the_exact_count() {
    let root = cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join(cpm_lint::WAIVER_FILE))
        .expect("lint-waivers.toml must exist at the workspace root");
    let file = cpm_lint::waivers::parse_file(&text).expect("waiver file must parse");
    let budget = file
        .budget
        .expect("lint-waivers.toml must carry a [budget] table");
    assert!(
        !budget.justification.trim().is_empty(),
        "budget justification must be written out"
    );
    assert_eq!(
        budget.max,
        file.waivers.len(),
        "[budget] max ({}) must equal the exact current waiver count ({}) — \
         bump or shrink it deliberately, with the justification updated",
        budget.max,
        file.waivers.len()
    );
}

/// Parser coverage floor over the real tree: the tolerant parser must
/// recover nearly every `fn` item the tokenizer sees. The known residue
/// is fns generated inside `macro_rules!` bodies (skipped as opaque
/// token trees) and `fn`-pointer types; if this ratio drops, the parser
/// regressed and the AST rules and dimension pass are silently blind to the
/// lost functions.
#[test]
fn parser_recovers_nearly_all_fns_across_the_workspace() {
    let root = cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let files = cpm_lint::collect_rs_files(&root).expect("walk workspace");
    let mut fn_tokens = 0usize;
    let mut fn_defs = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path).expect("read source");
        let toks = cpm_lint::tokenizer::tokenize(&source);
        fn_tokens += toks.iter().filter(|t| t.is("fn")).count();
        let parsed = cpm_lint::parser::parse_file(&cpm_lint::classify(&rel), &toks);
        fn_defs += parsed.fns.len();
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
    let root = cpm_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md must exist");
    for rule in cpm_lint::ALL_RULES {
        assert!(
            design.contains(&format!("`{}`", rule.name())),
            "rule `{}` is enforced but missing from the DESIGN.md rule table",
            rule.name()
        );
    }
}

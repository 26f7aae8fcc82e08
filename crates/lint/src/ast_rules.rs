//! The rule that needs expression structure rather than a token pattern:
//! **`lock-unwrap`**, `.unwrap()`/`.expect()` on a `.lock()` result,
//! whether chained directly (`m.lock().unwrap()`) or through a local alias
//! (`let guard = m.lock(); guard.unwrap()`). Either form wedges every
//! later caller after one panic. `let` bindings whose initializer ends in
//! a `.lock()` call are tracked as guards; rebinding the name to anything
//! else (the sanctioned `unwrap_or_else(PoisonError::into_inner)`
//! recovery) releases it. No clippy lint is this narrow: `unwrap_used`
//! and `expect_used` flag every `Option`/`Result` unwrap.

use crate::ast::{Block, Expr, ExprKind, ParsedFile, Stmt};
use crate::rules::{Role, RuleId, Violation};
use std::collections::BTreeSet;

/// True when `e`'s outermost node is a `.lock()` method call (possibly
/// behind `?`/`as`/unary, which the parser folds transparently).
fn ends_in_lock(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Method { name, .. } => name == "lock",
        ExprKind::Unary(inner) => ends_in_lock(inner),
        _ => false,
    }
}

/// Runs `lock-unwrap` over every library, non-test function of one parsed
/// file.
pub fn check(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if file.ctx.role != Role::Library {
        return out;
    }
    for f in file.fns.iter().filter(|f| !f.in_test) {
        if let Some(body) = &f.body {
            let mut guards = BTreeSet::new();
            check_block(body, &mut guards, &file.ctx.rel_path, &mut out);
        }
    }
    out
}

/// Walks one block, threading the set of live lock-guard aliases.
/// Scoping is approximate (a guard bound in an inner block stays live
/// for the rest of the function) — that can only widen detection of a
/// pattern that is wrong wherever it appears, never false-positive on a
/// name that was not bound to a `.lock()` result.
fn check_block(b: &Block, guards: &mut BTreeSet<String>, rel_path: &str, out: &mut Vec<Violation>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { name, init, .. } => {
                if let Some(e) = init {
                    check_expr(e, guards, rel_path, out);
                }
                if let Some(n) = name {
                    match init {
                        Some(e) if ends_in_lock(e) => {
                            guards.insert(n.clone());
                        }
                        // Rebinding the name to anything else kills the
                        // alias — `let g = g.unwrap_or_else(…);` is the
                        // sanctioned recovery and must not flag `g`.
                        _ => {
                            guards.remove(n);
                        }
                    }
                }
            }
            Stmt::Expr(e) => check_expr(e, guards, rel_path, out),
        }
    }
}

/// Flags violations inside one expression tree.
fn check_expr(e: &Expr, guards: &BTreeSet<String>, rel_path: &str, out: &mut Vec<Violation>) {
    e.walk(&mut |node| match &node.kind {
        ExprKind::Method { recv, name, .. } if name == "unwrap" || name == "expect" => {
            let guard = match &recv.kind {
                ExprKind::Path(segs) if segs.len() == 1 && guards.contains(&segs[0]) => {
                    Some(&segs[0])
                }
                _ => None,
            };
            if guard.is_some() || ends_in_lock(recv) {
                let what = match guard {
                    Some(g) => format!("`{g}`, a `.lock()` result bound above"),
                    None => "a `.lock()` result".to_string(),
                };
                out.push(Violation {
                    rule: RuleId::LockUnwrap,
                    path: rel_path.to_string(),
                    line: node.line,
                    message: format!(
                        "`.{name}()` on {what} in library code wedges every later caller \
                         after one panic; recover with \
                         `.unwrap_or_else(PoisonError::into_inner)`"
                    ),
                });
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;
    use crate::{parser, tokenizer};

    fn run_on(rel_path: &str, src: &str) -> Vec<(RuleId, usize)> {
        let ctx = classify(rel_path);
        let toks = tokenizer::tokenize(src);
        check(&parser::parse_file(&ctx, &toks))
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn lock_unwrap_through_alias_fires() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \u{20}   let guard = m.lock();\n\
                   \u{20}   *guard.unwrap()\n\
                   }\n";
        let v = run_on("crates/sim/src/x.rs", src);
        assert_eq!(v, vec![(RuleId::LockUnwrap, 3)]);
    }

    #[test]
    fn sanctioned_recovery_rebind_does_not_fire() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \u{20}   let g = m.lock();\n\
                   \u{20}   let g = g.unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   \u{20}   let g = g;\n\
                   \u{20}   g.expect(\"no longer a lock result\")\n\
                   }\n";
        assert_eq!(run_on("crates/sim/src/x.rs", src), vec![]);
    }

    #[test]
    fn alias_expect_fires_and_tests_are_exempt() {
        let fire = "fn f(m: &std::sync::Mutex<u8>) { let g = m.lock(); g.expect(\"held\"); }";
        assert_eq!(
            run_on("crates/sim/src/x.rs", fire),
            vec![(RuleId::LockUnwrap, 1)]
        );
        let in_test =
            "#[cfg(test)]\nmod tests {\n fn f(m: &M) { let g = m.lock(); g.unwrap(); }\n}\n";
        assert_eq!(run_on("crates/sim/src/x.rs", in_test), vec![]);
        // Binaries and tests are out of scope entirely.
        assert_eq!(run_on("crates/sim/tests/t.rs", fire), vec![]);
    }

    #[test]
    fn direct_lock_chain_fires() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \u{20}   if *m.lock().expect(\"held\") > 1 { return 0; }\n\
                   \u{20}   *m.lock().unwrap()\n\
                   }\n";
        assert_eq!(
            run_on("crates/sim/src/x.rs", src),
            vec![(RuleId::LockUnwrap, 2), (RuleId::LockUnwrap, 3)]
        );
    }

    #[test]
    fn unrelated_unwraps_do_not_fire() {
        let src = "fn f(o: Option<u8>, m: &std::sync::Mutex<u8>) -> u8 {\n\
                   \u{20}   let v = o.unwrap();\n\
                   \u{20}   let not_a_guard = v + 1;\n\
                   \u{20}   not_a_guard.unwrap()\n\
                   }\n";
        assert_eq!(run_on("crates/sim/src/x.rs", src), vec![]);
    }
}

//! `lint-waivers.toml`: the committed list of intended violations.
//!
//! Each waiver names one (rule, file) pair and carries a one-line reason;
//! it suppresses every firing of that rule in that file. A waiver that
//! suppresses nothing is *stale* and is itself an error — so the waiver
//! file can only shrink as violations are fixed, never rot.
//!
//! The format is a strict subset of TOML (array-of-tables with string
//! values plus one `[budget]` table), parsed by hand because the
//! workspace builds with zero external crates:
//!
//! ```toml
//! [budget]
//! max = 5
//! justification = "why the budget sits where it does"
//!
//! [[waiver]]
//! rule = "panic-bare"
//! path = "crates/rng/src/check.rs"
//! reason = "the property harness reports failures by panicking"
//! ```
//!
//! The budget is a **ratchet**: the engine fails when the waiver count
//! exceeds `max`, and the tier-1 budget test pins `max` to the *exact*
//! current count — so adding a waiver forces a deliberate budget bump
//! (with its justification updated), and removing one forces the budget
//! down. The file can only shrink silently, never grow.
//!
//! The determinism rules ([`DETERMINISM_RULES`]) cannot be waived at all:
//! a waiver documents intent at a site, but the value produced there is
//! still nondeterministic wherever it flows, so such an entry is a parse
//! error.

use crate::rules::{RuleId, DETERMINISM_RULES};

/// One committed, justified exception to the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: RuleId,
    /// Workspace-relative path the waiver applies to.
    pub path: String,
    /// The written justification (must be non-empty).
    pub reason: String,
}

/// The ratchet: a hard ceiling on how many waivers may exist, with a
/// written justification for the current level.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Maximum number of `[[waiver]]` entries permitted.
    pub max: usize,
    /// Why the budget sits at this level (must be non-empty).
    pub justification: String,
}

/// The fully parsed waiver file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WaiverFile {
    /// Every `[[waiver]]` entry, in file order.
    pub waivers: Vec<Waiver>,
    /// The `[budget]` table, when present.
    pub budget: Option<Budget>,
}

/// A parse/validation failure, with the offending line number.
#[derive(Debug, Clone, PartialEq)]
pub struct WaiverError {
    /// 1-based line in the waiver file (0 for end-of-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WaiverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint-waivers.toml:{}: {}", self.line, self.message)
    }
}

/// Backward-compatible entry: parses and returns just the waivers.
pub fn parse(text: &str) -> Result<Vec<Waiver>, WaiverError> {
    parse_file(text).map(|f| f.waivers)
}

/// Parses and validates the waiver file. Unknown keys, unknown or
/// determinism rules, missing fields, and empty reasons/justifications
/// are all hard errors: a waiver that cannot be read precisely must not
/// silently suppress anything.
pub fn parse_file(text: &str) -> Result<WaiverFile, WaiverError> {
    struct Partial {
        line: usize,
        rule: Option<RuleId>,
        path: Option<String>,
        reason: Option<String>,
    }
    struct BudgetPartial {
        line: usize,
        max: Option<usize>,
        justification: Option<String>,
    }
    let mut out = Vec::new();
    let mut cur: Option<Partial> = None;
    let mut budget: Option<BudgetPartial> = None;
    let mut in_budget = false;
    let finish = |p: Partial| -> Result<Waiver, WaiverError> {
        let missing = |k: &str| WaiverError {
            line: p.line,
            message: format!("waiver is missing `{k}`"),
        };
        let w = Waiver {
            rule: p.rule.ok_or_else(|| missing("rule"))?,
            path: p.path.ok_or_else(|| missing("path"))?,
            reason: p.reason.ok_or_else(|| missing("reason"))?,
        };
        if w.reason.trim().is_empty() {
            return Err(WaiverError {
                line: p.line,
                message: "waiver reason must be non-empty".to_string(),
            });
        }
        Ok(w)
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[waiver]]" {
            if let Some(p) = cur.take() {
                out.push(finish(p)?);
            }
            in_budget = false;
            cur = Some(Partial {
                line: lineno,
                rule: None,
                path: None,
                reason: None,
            });
            continue;
        }
        if line == "[budget]" {
            if let Some(p) = cur.take() {
                out.push(finish(p)?);
            }
            if budget.is_some() {
                return Err(WaiverError {
                    line: lineno,
                    message: "duplicate [budget] table".to_string(),
                });
            }
            in_budget = true;
            budget = Some(BudgetPartial {
                line: lineno,
                max: None,
                justification: None,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(WaiverError {
                line: lineno,
                message: format!("expected `key = \"value\"`, got `{line}`"),
            });
        };
        let key = key.trim();
        let value = value.trim();
        if in_budget && cur.is_none() {
            let Some(b) = budget.as_mut() else {
                return Err(WaiverError {
                    line: lineno,
                    message: "internal: budget key without [budget]".to_string(),
                });
            };
            match key {
                "max" => {
                    b.max = Some(value.parse().map_err(|_| WaiverError {
                        line: lineno,
                        message: format!("`max` must be a non-negative integer, got `{value}`"),
                    })?);
                }
                "justification" => {
                    let j = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| WaiverError {
                            line: lineno,
                            message: "`justification` must be a double-quoted string".to_string(),
                        })?;
                    b.justification = Some(j.to_string());
                }
                other => {
                    return Err(WaiverError {
                        line: lineno,
                        message: format!("unknown [budget] key `{other}`"),
                    });
                }
            }
            continue;
        }
        let unquoted = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| WaiverError {
                line: lineno,
                message: format!("value for `{key}` must be a double-quoted string"),
            })?;
        let Some(p) = cur.as_mut() else {
            return Err(WaiverError {
                line: lineno,
                message: "key outside a [[waiver]] table".to_string(),
            });
        };
        match key {
            "rule" => {
                let rule = RuleId::parse(unquoted).ok_or_else(|| WaiverError {
                    line: lineno,
                    message: format!("unknown rule `{unquoted}`"),
                })?;
                if DETERMINISM_RULES.contains(&rule) {
                    return Err(WaiverError {
                        line: lineno,
                        message: format!(
                            "`{unquoted}` is a determinism rule and cannot be waived; fix the \
                             source instead"
                        ),
                    });
                }
                p.rule = Some(rule);
            }
            "path" => p.path = Some(unquoted.to_string()),
            "reason" => p.reason = Some(unquoted.to_string()),
            other => {
                return Err(WaiverError {
                    line: lineno,
                    message: format!("unknown key `{other}`"),
                });
            }
        }
    }
    if let Some(p) = cur.take() {
        out.push(finish(p)?);
    }
    let budget = match budget {
        Some(b) => {
            let missing = |k: &str| WaiverError {
                line: b.line,
                message: format!("[budget] is missing `{k}`"),
            };
            let max = b.max.ok_or_else(|| missing("max"))?;
            let justification = b.justification.ok_or_else(|| missing("justification"))?;
            if justification.trim().is_empty() {
                return Err(WaiverError {
                    line: b.line,
                    message: "[budget] justification must be non-empty".to_string(),
                });
            }
            Some(Budget { max, justification })
        }
        None => None,
    };
    Ok(WaiverFile {
        waivers: out,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_valid_file() {
        let text = r#"
# header comment
[[waiver]]
rule = "panic-bare"
path = "crates/rng/src/check.rs"
reason = "the harness panics on purpose"

[[waiver]]
rule = "output"
path = "crates/sim/src/x.rs"
reason = "why not"
"#;
        let ws = parse(text).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].rule, RuleId::PanicBare);
        assert_eq!(ws[1].path, "crates/sim/src/x.rs");
    }

    #[test]
    fn rejects_unknown_rule_and_empty_reason() {
        let bad_rule = "[[waiver]]\nrule = \"no-such-rule\"\npath = \"x\"\nreason = \"r\"\n";
        assert!(parse(bad_rule).is_err());
        let empty_reason = "[[waiver]]\nrule = \"output\"\npath = \"x\"\nreason = \"  \"\n";
        assert!(parse(empty_reason).is_err());
    }

    #[test]
    fn rejects_missing_fields_and_unknown_keys() {
        assert!(parse("[[waiver]]\nrule = \"output\"\nreason = \"r\"\n").is_err());
        assert!(parse(
            "[[waiver]]\nrule = \"output\"\npath = \"x\"\nreason = \"r\"\nseverity = \"low\"\n"
        )
        .is_err());
        assert!(parse("rule = \"output\"\n").is_err());
    }

    #[test]
    fn rejects_every_determinism_rule() {
        for rule in DETERMINISM_RULES {
            let text = format!(
                "[[waiver]]\nrule = \"{}\"\npath = \"x\"\nreason = \"r\"\n",
                rule.name()
            );
            let err = parse(&text).expect_err(rule.name());
            assert_eq!(err.line, 2);
            assert!(err.message.contains("cannot be waived"), "{err}");
        }
    }

    #[test]
    fn empty_file_is_no_waivers() {
        assert_eq!(parse("# nothing here\n").unwrap(), Vec::new());
        assert_eq!(parse_file("").unwrap().budget, None);
    }

    #[test]
    fn budget_table_parses() {
        let text = "[budget]\nmax = 5\njustification = \"legacy accuracy twins\"\n\n\
                    [[waiver]]\nrule = \"output\"\npath = \"x\"\nreason = \"r\"\n";
        let f = parse_file(text).unwrap();
        assert_eq!(
            f.budget,
            Some(Budget {
                max: 5,
                justification: "legacy accuracy twins".to_string()
            })
        );
        assert_eq!(f.waivers.len(), 1);
    }

    #[test]
    fn budget_rejects_bad_shapes() {
        assert!(
            parse_file("[budget]\nmax = 5\n").is_err(),
            "missing justification"
        );
        assert!(
            parse_file("[budget]\njustification = \"j\"\n").is_err(),
            "missing max"
        );
        assert!(parse_file("[budget]\nmax = \"five\"\njustification = \"j\"\n").is_err());
        assert!(parse_file("[budget]\nmax = 1\njustification = \" \"\n").is_err());
        assert!(parse_file(
            "[budget]\nmax = 1\njustification = \"j\"\n[budget]\nmax = 2\njustification = \"j\"\n"
        )
        .is_err());
        assert!(
            parse_file("[budget]\nmax = 1\nceiling = \"j\"\n").is_err(),
            "unknown budget key"
        );
    }

    #[test]
    fn budget_after_waiver_is_accepted() {
        let text = "[[waiver]]\nrule = \"output\"\npath = \"x\"\nreason = \"r\"\n\n\
                    [budget]\nmax = 1\njustification = \"one known site\"\n";
        let f = parse_file(text).unwrap();
        assert_eq!(f.waivers.len(), 1);
        assert_eq!(f.budget.as_ref().map(|b| b.max), Some(1));
    }
}

//! Physical-dimension consistency analysis for the modeling crates.
//!
//! The power/thermal/control math is exactly where a unit slip (adding
//! watts to hertz, comparing joules against seconds) corrupts results
//! without failing a single test — the trajectories stay plausible,
//! just wrong. This pass assigns a dimension to every expression it can
//! prove one for and flags:
//!
//! * `+`, `-`, `<`, `<=`, `>`, `>=`, `==`, `!=` between two *known,
//!   different* dimensions, and
//! * `*`//` results that no physical model here should produce: any
//!   °C² term, or any exponent of magnitude ≥ 3.
//!
//! Dimensions are an exponent vector over the basis (W, V, s, °C);
//! Hz = s⁻¹ and J = W·s are derived. Inference sources, strongest first:
//!
//! 1. `cpm-units` types in parameter/`let` annotations, constructors
//!    (`Watts::new`, `Hertz::from_mhz`), dimension-preserving methods
//!    (`.value()`, `.abs()`, `.clamp()`), and converters (`.period()` →
//!    s, `.ratio_of()` → dimensionless);
//! 2. struct fields whose declared type is a unit type (looked up by
//!    field name, only when every field of that name agrees);
//! 3. full-word name suffixes (`_watts`, `_volts`, `_hertz`, `_joules`,
//!    `_seconds`, `_celsius`) on otherwise untyped bindings.
//!
//! Everything else is Unknown, and Unknown never fires — the pass is
//! deliberately quiet on raw-`f64` code it cannot prove anything about.
//! There is no waiver: a deliberate cross-dimension site converts
//! explicitly, through the unit types, so the pass can follow it.

use crate::ast::{BinOp, Block, Expr, ExprKind, ParsedFile, Stmt};
use crate::rules::{Role, RuleId, Violation};
use std::collections::BTreeMap;

/// Crates the pass runs on: the physical-modeling surface.
pub(crate) const DIM_CRATES: [&str; 4] = ["cpm-power", "cpm-thermal", "cpm-sim", "cpm-control"];

/// Exponents over the basis (W, V, s, °C).
pub type Dim = [i8; 4];

/// A fully-known dimension or no information. `Known([0;4])` is
/// dimensionless (ratios, counts) and *does* participate in checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimVal {
    /// Proven dimension.
    Known(Dim),
    /// No information; never fires.
    Unknown,
}

use DimVal::{Known, Unknown};

const DIMENSIONLESS: Dim = [0, 0, 0, 0];
const W: Dim = [1, 0, 0, 0];
const V: Dim = [0, 1, 0, 0];
const S: Dim = [0, 0, 1, 0];
const C: Dim = [0, 0, 0, 1];
const HZ: Dim = [0, 0, -1, 0];
const J: Dim = [1, 0, 1, 0];

/// Renders a dimension for diagnostics: `W`, `Hz`, `J`, `W·s^-2`, `1`.
pub fn render_dim(d: Dim) -> String {
    match d {
        DIMENSIONLESS => "1".to_string(),
        HZ => "Hz".to_string(),
        J => "J".to_string(),
        _ => {
            let names = ["W", "V", "s", "°C"].iter().zip(d).filter(|(_, e)| *e != 0);
            let parts: Vec<String> = names
                .map(|(n, e)| match e {
                    1 => n.to_string(),
                    _ => format!("{n}^{e}"),
                })
                .collect();
            parts.join("·")
        }
    }
}

/// Maps a cpm-units type name (possibly `&`-prefixed) to its dimension.
fn type_dim(ty: &str) -> DimVal {
    let t = ty.trim_start_matches('&').trim_start_matches("mut");
    match t {
        "Watts" => Known(W),
        "Volts" => Known(V),
        "Hertz" => Known(HZ),
        "Joules" => Known(J),
        "Seconds" => Known(S),
        "Celsius" => Known(C),
        "Ratio" => Known(DIMENSIONLESS),
        _ => Unknown,
    }
}

/// Conservative full-word name-suffix conventions for raw `f64`s.
fn name_dim(name: &str) -> DimVal {
    let suffixes = [
        ("_watts", W),
        ("_volts", V),
        ("_hertz", HZ),
        ("_joules", J),
        ("_seconds", S),
        ("_celsius", C),
    ];
    let found = suffixes.iter().find(|(suffix, _)| name.ends_with(suffix));
    found.map_or(Unknown, |&(_, d)| Known(d))
}

/// Methods that preserve their receiver's dimension.
const PRESERVING_METHODS: [&str; 7] = ["value", "abs", "max", "min", "clamp", "is_finite", "get"];

/// The dimension checker for one function body.
struct Checker<'a> {
    fields: &'a BTreeMap<String, DimVal>,
    env: BTreeMap<String, DimVal>,
    file: &'a str,
    out: &'a mut Vec<Violation>,
}

impl<'a> Checker<'a> {
    fn fire(&mut self, line: usize, message: String) {
        let path = self.file.to_string();
        let rule = RuleId::DimConsistency;
        self.out.push(Violation {
            rule,
            path,
            line,
            message,
        });
    }

    fn bind(&mut self, name: &str, d: DimVal) {
        match (self.env.get(name), d) {
            // Conflicting rebinds poison the name: branches may disagree.
            (Some(&Known(old)), Known(new)) if old != new => {
                self.env.insert(name.to_string(), Unknown);
            }
            _ => {
                self.env.insert(name.to_string(), d);
            }
        }
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            match s {
                Stmt::Let { name, ty, init } => {
                    let mut d = init.as_ref().map_or(Unknown, |e| self.eval(e));
                    if let Known(td) = ty.as_deref().map_or(Unknown, type_dim) {
                        d = Known(td);
                    }
                    if let Some(n) = name {
                        if d == Unknown {
                            d = name_dim(n);
                        }
                        self.bind(n, d);
                    }
                }
                Stmt::Expr(e) => {
                    self.eval(e);
                }
            }
        }
    }

    /// Evaluates an expression's dimension, reporting violations found
    /// in its subtree along the way.
    fn eval(&mut self, e: &Expr) -> DimVal {
        match &e.kind {
            ExprKind::Lit => Unknown,
            ExprKind::Path(segs) if segs.len() == 1 => {
                let local = self.env.get(&segs[0]).copied();
                local.unwrap_or_else(|| name_dim(&segs[0]))
            }
            ExprKind::Path(_) => Unknown,
            ExprKind::Field { base, name } => {
                self.eval(base);
                let field = self.fields.get(name).copied();
                field.unwrap_or_else(|| name_dim(name))
            }
            ExprKind::Index { base, index } => {
                let d = self.eval(base);
                self.eval(index);
                d
            }
            ExprKind::Call { path, args } => {
                for a in args {
                    self.eval(a);
                }
                let name = path.last().map(String::as_str).unwrap_or("");
                let qual = path
                    .len()
                    .checked_sub(2)
                    .map(|i| path[i].as_str())
                    .unwrap_or("");
                match (qual, name) {
                    (q, "new") => type_dim(q),
                    ("Hertz", "from_mhz") | ("Hertz", "from_ghz") => Known(HZ),
                    ("Seconds", "from_ms") | ("Seconds", "from_us") => Known(S),
                    ("Ratio", "from_percent") | ("Ratio", "clamped") => Known(DIMENSIONLESS),
                    _ => Unknown,
                }
            }
            ExprKind::Method { recv, name, args } => {
                let rd = self.eval(recv);
                for a in args {
                    self.eval(a);
                }
                match name.as_str() {
                    n if PRESERVING_METHODS.contains(&n) => rd,
                    "ratio_of" | "percent" | "cycles_in" | "clamped" => Known(DIMENSIONLESS),
                    "period" => Known(S),
                    // Unit rescalings; on anything else we know nothing.
                    "ms" if rd == Known(S) => rd,
                    "mhz" | "ghz" if rd == Known(HZ) => rd,
                    _ => Unknown,
                }
            }
            ExprKind::Unary(inner) => self.eval(inner),
            ExprKind::Binary { op, lhs, rhs } => {
                let ld = self.eval(lhs);
                let rd = self.eval(rhs);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Cmp | BinOp::Eq => {
                        if let (Known(a), Known(b)) = (ld, rd) {
                            if a != b {
                                let message = format!(
                                    "`{}` mixes dimensions: left is {}, right is {}; \
                                     convert explicitly",
                                    op_sym(*op),
                                    render_dim(a),
                                    render_dim(b)
                                );
                                self.fire(e.line, message);
                            }
                        }
                        if matches!(op, BinOp::Cmp | BinOp::Eq) {
                            Unknown
                        } else if ld != Unknown {
                            ld
                        } else {
                            rd
                        }
                    }
                    BinOp::Mul | BinOp::Div => {
                        if let (Known(a), Known(b)) = (ld, rd) {
                            let sign: i8 = if *op == BinOp::Mul { 1 } else { -1 };
                            let mut r = DIMENSIONLESS;
                            let mut overflow = false;
                            for i in 0..4 {
                                match a[i].checked_add(sign * b[i]) {
                                    Some(x) => r[i] = x,
                                    None => overflow = true,
                                }
                            }
                            let suspicious =
                                overflow || r[3] >= 2 || r.iter().any(|&x| x.unsigned_abs() >= 3);
                            if suspicious {
                                let message = format!(
                                    "suspicious `{0}` result: {1} {0} {2} gives {3} — no \
                                     physical quantity here has that shape",
                                    op_sym(*op),
                                    render_dim(a),
                                    render_dim(b),
                                    render_dim(r)
                                );
                                self.fire(e.line, message);
                            }
                            Known(r)
                        } else {
                            Unknown
                        }
                    }
                    // `a % b` has a's dimension.
                    BinOp::Rem => ld,
                    BinOp::Other => {
                        // Plain assignment rebinds the target name; a
                        // conflicting dimension poisons it (see `bind`).
                        if let ExprKind::Path(segs) = &lhs.kind {
                            if segs.len() == 1 {
                                self.bind(&segs[0], rd);
                            }
                        }
                        Unknown
                    }
                }
            }
            ExprKind::Struct(fields) => {
                for (_, v) in fields {
                    self.eval(v);
                }
                Unknown
            }
            ExprKind::Unknown(args) => {
                for a in args {
                    self.eval(a);
                }
                Unknown
            }
            ExprKind::Block(b) => {
                self.block(b);
                Unknown
            }
        }
    }
}

fn op_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Cmp => "compare",
        BinOp::Eq => "==",
        BinOp::Other => "?",
    }
}

/// Builds the workspace field-name → dimension map: a field name maps to
/// a dimension only when *every* struct field of that name, across all
/// files, has the same unit type; disagreement poisons it to Unknown.
fn field_dims(files: &[ParsedFile]) -> BTreeMap<String, DimVal> {
    let mut map: BTreeMap<String, DimVal> = BTreeMap::new();
    for pf in files {
        for st in &pf.structs {
            for (name, ty) in st {
                let d = type_dim(ty);
                match map.get(name) {
                    None => {
                        map.insert(name.clone(), d);
                    }
                    Some(&prev) if prev != d => {
                        map.insert(name.clone(), Unknown);
                    }
                    _ => {}
                }
            }
        }
    }
    map.retain(|_, v| *v != Unknown);
    map
}

/// Runs the dimension pass over all parsed files. Only library code of
/// the modeling crates is checked; the field map is built
/// workspace-wide.
pub fn check(parsed: &[ParsedFile]) -> Vec<Violation> {
    let fields = field_dims(parsed);
    let mut out = Vec::new();
    for pf in parsed {
        if !DIM_CRATES.contains(&pf.ctx.crate_name.as_str()) || pf.ctx.role != Role::Library {
            continue;
        }
        for f in &pf.fns {
            if f.in_test {
                continue;
            }
            let Some(body) = &f.body else { continue };
            let mut env: BTreeMap<String, DimVal> = BTreeMap::new();
            for (pname, pty) in &f.params {
                let mut d = type_dim(pty);
                if d == Unknown {
                    d = name_dim(pname);
                }
                env.insert(pname.clone(), d);
            }
            let mut checker = Checker {
                fields: &fields,
                env,
                file: &pf.ctx.rel_path,
                out: &mut out,
            };
            checker.block(body);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Convenience for fixtures: run the pass on in-memory sources.
#[cfg(test)]
fn run_on(files: &[(&str, &str)]) -> Vec<Violation> {
    use crate::rules::classify;
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(p, s)| crate::parser::parse_file(&classify(p), &crate::tokenizer::tokenize(s)))
        .collect();
    check(&parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adding_watts_to_hertz_fires() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Watts, Hertz};\n\
             fn f(p: Watts, clk: Hertz) -> f64 { p.value() + clk.value() }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::DimConsistency);
        assert!(v[0].message.contains("left is W"), "{}", v[0].message);
        assert!(v[0].message.contains("right is Hz"), "{}", v[0].message);
    }

    #[test]
    fn same_dimension_arithmetic_is_clean() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::Watts;\n\
             fn f(a: Watts, b: Watts) -> f64 { let gap = a.value() - b.value(); gap }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn energy_over_time_is_watts() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Joules, Seconds, Watts};\n\
             fn f(e: Joules, dt: Seconds, cap: Watts) -> bool {\n\
               let avg = e.value() / dt.value();\n\
               avg > cap.value()\n\
             }",
        )]);
        assert!(v.is_empty(), "J/s = W must compare clean against W: {v:?}");
    }

    #[test]
    fn comparing_joules_to_seconds_fires() {
        let v = run_on(&[(
            "crates/control/src/gov.rs",
            "use cpm_units::{Joules, Seconds};\n\
             fn f(e: Joules, dt: Seconds) -> bool { e.value() > dt.value() }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("left is J"), "{}", v[0].message);
    }

    #[test]
    fn celsius_squared_is_suspicious() {
        let v = run_on(&[(
            "crates/thermal/src/model.rs",
            "use cpm_units::Celsius;\n\
             fn f(t: Celsius) -> f64 { t.value() * t.value() }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("suspicious"), "{}", v[0].message);
    }

    #[test]
    fn struct_fields_carry_unit_types() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Watts, Hertz};\n\
             struct Core { budget: Watts, clock: Hertz }\n\
             fn f(c: &Core) -> bool { c.budget.value() < c.clock.value() }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn ambiguous_field_names_stay_unknown() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Watts, Hertz};\n\
             struct A { x: Watts }\nstruct B { x: Hertz }\n\
             fn f(a: &A, b: &B) -> bool { a.x.value() < b.x.value() }",
        )]);
        assert!(v.is_empty(), "conflicting field dims must poison: {v:?}");
    }

    #[test]
    fn outside_modeling_crates_is_quiet() {
        let v = run_on(&[(
            "crates/obs/src/lib.rs",
            "use cpm_units::{Watts, Hertz};\n\
             fn f(p: Watts, h: Hertz) -> f64 { p.value() + h.value() }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_in_modeling_crates_is_quiet() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "#[cfg(test)]\nmod tests {\n  use cpm_units::{Watts, Hertz};\n\
             fn f(p: Watts, h: Hertz) -> f64 { p.value() + h.value() }\n}",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn name_suffix_conventions_apply() {
        let v = run_on(&[(
            "crates/sim/src/model.rs",
            "fn f(idle_watts: f64, settle_seconds: f64) -> f64 { idle_watts - settle_seconds }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("left is W"), "{}", v[0].message);
    }

    #[test]
    fn ratio_times_watts_is_watts() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Ratio, Watts};\n\
             fn f(u: Ratio, cap: Watts, floor: Watts) -> bool {\n\
               let used = u.clamped() * cap.value();\n\
               used < floor.value()\n\
             }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn conflicting_rebinding_poisons_the_name() {
        let v = run_on(&[(
            "crates/power/src/model.rs",
            "use cpm_units::{Watts, Seconds};\n\
             fn f(p: Watts, t: Seconds, q: Watts) -> f64 {\n\
               let mut x = p.value();\n\
               x = t.value();\n\
               x + q.value()\n\
             }",
        )]);
        // `x` was W then s: poisoned, no firing either way.
        assert!(v.is_empty(), "{v:?}");
    }
}

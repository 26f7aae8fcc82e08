//! The lightweight AST the recursive-descent parser ([`crate::parser`])
//! produces, and that the AST rules ([`crate::ast_rules`]) and the
//! dimension pass ([`crate::dims`]) consume.
//!
//! This is deliberately not a full Rust grammar: it models exactly the
//! structure the analyses need — items (fns, impls, structs),
//! expression trees with calls/method-calls/field-accesses/binary ops,
//! and `#[cfg(test)]` attribution — and collapses everything else into
//! [`ExprKind::Unknown`]. Every node carries the 1-based source line it
//! starts on, so diagnostics stay clickable.

use crate::rules::FileContext;

/// Binary operators the analyses distinguish. Arithmetic and comparison
/// matter to the dimension pass; everything else is carried so operand
/// subtrees stay visible to the walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (and `+=`, which dimension-checks identically).
    Add,
    /// `-` (and `-=`).
    Sub,
    /// `*` (and `*=`).
    Mul,
    /// `/` (and `/=`).
    Div,
    /// `%` (and `%=`).
    Rem,
    /// `<`, `<=`, `>`, `>=` — ordered comparison of two quantities.
    Cmp,
    /// `==`, `!=`.
    Eq,
    /// `=` and every other assignment/logical/bit operator.
    Other,
}

/// One expression node.
#[derive(Debug, Clone)]
pub struct Expr {
    /// What kind of expression this is.
    pub kind: ExprKind,
    /// 1-based line the expression starts on.
    pub line: usize,
}

/// The expression forms the analyses distinguish.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A (possibly multi-segment) path: `x`, `self`, `a::b::c`.
    Path(Vec<String>),
    /// A numeric literal (dimensionless unless annotated).
    Num,
    /// A string/char/byte literal.
    Lit,
    /// A path call: `f(a)`, `Type::method(a)`, `krate::module::f(a)`.
    Call {
        /// The callee path segments.
        path: Vec<String>,
        /// Parsed argument expressions.
        args: Vec<Expr>,
    },
    /// A method call: `recv.name(args)`.
    Method {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Parsed argument expressions.
        args: Vec<Expr>,
    },
    /// Field access: `base.name` (tuple indices use the digits as name).
    Field {
        /// The accessed value.
        base: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// Indexing: `base[index]`.
    Index {
        /// The indexed value.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A macro invocation `name!(…)` with best-effort parsed arguments.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Arguments we managed to parse as expressions.
        args: Vec<Expr>,
    },
    /// A struct literal `Path { field: expr, .. }`.
    Struct {
        /// The struct path.
        path: Vec<String>,
        /// `(field, value)` pairs (shorthand fields get a Path value).
        fields: Vec<(String, Expr)>,
    },
    /// Unary `-`, `!`, `*`, `&` — dimension-transparent.
    Unary(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr as Type` — the cast target is dropped.
    Cast(Box<Expr>),
    /// A block `{ … }`, or the desugared body of `loop`/`unsafe`/labels.
    Block(Block),
    /// `if cond { … } else …` (the else arm is an expr: block or `if`).
    If {
        /// Condition (absent for `if let`, whose pattern is skipped).
        cond: Option<Box<Expr>>,
        /// The then-block.
        then_b: Block,
        /// The else arm, when present.
        else_b: Option<Box<Expr>>,
    },
    /// `match scrutinee { pat => arm, … }` — patterns are skipped, arm
    /// bodies kept.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// Arm body expressions in source order.
        arms: Vec<Expr>,
    },
    /// `while cond { … }` / `while let … { … }`.
    While {
        /// Condition (absent for `while let`).
        cond: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// `for pat in iter { … }` — the pattern is skipped.
    For {
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// A closure `|args| body` (parameter patterns are skipped).
    Closure(Box<Expr>),
    /// `return expr?` / `break expr?`.
    Jump(Option<Box<Expr>>),
    /// A tuple `(a, b)` or array `[a, b]` literal.
    Seq(Vec<Expr>),
    /// Anything the tolerant parser gave up on. Child expressions that
    /// were recognized before bailing are preserved for the walks.
    Unknown(Vec<Expr>),
}

/// A `{ … }` block: statements plus a trailing-expression flag folded
/// into the last statement.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement of a block.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let name[: ty] = init;` — destructuring patterns get `name: None`.
    Let {
        /// Bound name for simple `let [mut] name` patterns.
        name: Option<String>,
        /// Type annotation rendered as a compact string (`Vec<Watts>`).
        ty: Option<String>,
        /// Initializer expression.
        init: Option<Expr>,
    },
    /// An expression statement.
    Expr(Expr),
}

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters as `(name, rendered type)`; `self` receivers included
    /// with type `Self`.
    pub params: Vec<(String, String)>,
    /// The body; `None` for trait method declarations.
    pub body: Option<Block>,
    /// True when under `#[cfg(test)]` or marked `#[test]`.
    pub in_test: bool,
}

/// One struct definition (named fields only; tuple structs are skipped).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field name, rendered type)` pairs.
    pub fields: Vec<(String, String)>,
}

/// A fully parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Where the file sits in the workspace.
    pub ctx: FileContext,
    /// Every function, including nested ones and impl/trait methods.
    pub fns: Vec<FnDef>,
    /// Every named-field struct.
    pub structs: Vec<StructDef>,
}

impl Expr {
    /// Walks this expression tree depth-first, calling `f` on every node.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Path(_) | ExprKind::Num | ExprKind::Lit => {}
            ExprKind::Call { args, .. } | ExprKind::Macro { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Method { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Field { base, .. } => base.walk(f),
            ExprKind::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            ExprKind::Struct { fields, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
            }
            ExprKind::Unary(e) | ExprKind::Cast(e) | ExprKind::Closure(e) => e.walk(f),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Block(b) => b.walk(f),
            ExprKind::If {
                cond,
                then_b,
                else_b,
            } => {
                if let Some(c) = cond {
                    c.walk(f);
                }
                then_b.walk(f);
                if let Some(e) = else_b {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for a in arms {
                    a.walk(f);
                }
            }
            ExprKind::While { cond, body } => {
                if let Some(c) = cond {
                    c.walk(f);
                }
                body.walk(f);
            }
            ExprKind::For { iter, body } => {
                iter.walk(f);
                body.walk(f);
            }
            ExprKind::Jump(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Seq(es) | ExprKind::Unknown(es) => {
                for e in es {
                    e.walk(f);
                }
            }
        }
    }
}

impl Block {
    /// Walks every expression in the block depth-first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
            }
        }
    }
}

impl FnDef {
    /// Walks every expression in the body, if there is one.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        if let Some(b) = &self.body {
            b.walk(f);
        }
    }
}

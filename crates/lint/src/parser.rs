//! A tolerant recursive-descent Rust parser over the [`crate::tokenizer`]
//! stream, producing the [`crate::ast`] the workspace passes consume.
//!
//! Design rules, in priority order:
//!
//! 1. **Never panic, never hang.** Every loop provably advances or burns
//!    shared fuel; running out of fuel degrades the current node to
//!    [`ExprKind::Unknown`] instead of failing the file.
//! 2. **Recover, don't reject.** Anything outside the recognized grammar
//!    (complex patterns, where-clauses, trait objects, …) is skipped with
//!    balanced-delimiter scanning; the surrounding structure survives.
//! 3. **Preserve what the analyses need.** Calls, method calls, field
//!    accesses, binary operators, macro invocations, `#[cfg(test)]`
//!    attribution, and struct fields must come out right; everything
//!    else may be approximated.
//!
//! The classic struct-literal ambiguity (`if x { … }`) is handled the
//! way rustc does: condition/scrutinee positions parse in a no-struct-
//! literal mode.

use crate::ast::*;
use crate::rules::FileContext;
use crate::tokenizer::{Tok, TokKind};

/// Parses one tokenized file into the analysis AST.
pub fn parse_file(ctx: &FileContext, toks: &[Tok<'_>]) -> ParsedFile {
    let mut p = P {
        t: toks,
        i: 0,
        fuel: toks.len().saturating_mul(8) + 1024,
        out: ParsedFile {
            ctx: ctx.clone(),
            fns: Vec::new(),
            structs: Vec::new(),
        },
    };
    p.items(false, usize::MAX);
    p.out
}

fn node(kind: ExprKind, line: usize) -> Expr {
    Expr { kind, line }
}

/// An [`ExprKind::Unknown`] node over `kids`.
fn unknown(kids: Vec<Expr>, line: usize) -> Expr {
    node(ExprKind::Unknown(kids), line)
}

struct P<'a, 'b> {
    t: &'a [Tok<'b>],
    i: usize,
    fuel: usize,
    out: ParsedFile,
}

impl<'a, 'b> P<'a, 'b> {
    // ---- token helpers -------------------------------------------------

    fn peek(&self, k: usize) -> Option<&Tok<'b>> {
        self.t.get(self.i + k)
    }

    fn at(&self, s: &str) -> bool {
        self.peek(0).map(|t| t.is(s)).unwrap_or(false)
    }

    fn at2(&self, a: &str, b: &str) -> bool {
        self.at(a) && self.peek(1).map(|t| t.is(b)).unwrap_or(false)
    }

    fn line(&self) -> usize {
        self.peek(0).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) {
        self.i += 1;
        self.fuel = self.fuel.saturating_sub(1);
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn done(&self) -> bool {
        self.i >= self.t.len() || self.fuel == 0
    }

    fn ident(&self) -> Option<&'b str> {
        match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => Some(t.text),
            _ => None,
        }
    }

    /// Skips a balanced delimiter region starting at the current opener
    /// (`(`, `[`, `{`, or `<`). For `<`, `->` arrows are skipped so
    /// `Fn() -> T` bounds don't unbalance the angles.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.at(open) {
            return;
        }
        let mut depth = 0usize;
        while !self.done() {
            if open == "<" && self.at2("-", ">") {
                self.bump();
                self.bump();
                continue;
            }
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if open == "<" && (self.at(";") || self.at("{")) {
                // An unclosed angle run (comparison mis-scan); bail.
                return;
            }
            self.bump();
        }
    }

    /// Skips one attribute `#[…]` / `#![…]`; returns its rendered inner
    /// text (idents and puncts joined) for cfg/test detection.
    fn skip_attr(&mut self) -> String {
        let mut text = String::new();
        if !self.at("#") {
            return text;
        }
        self.bump();
        self.eat("!");
        if !self.at("[") {
            return text;
        }
        let mut depth = 0usize;
        while !self.done() {
            if self.at("[") {
                depth += 1;
            } else if self.at("]") {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return text;
                }
            }
            if let Some(t) = self.peek(0) {
                if !t.text.is_empty() && !t.is("[") {
                    text.push_str(t.text);
                }
            }
            self.bump();
        }
        text
    }

    /// Consumes tokens as a type, rendering them compactly (`Vec<Watts>`,
    /// `&mut [f64; 8]`). Stops at any of `stops` seen at depth 0.
    fn render_type(&mut self, stops: &[&str]) -> String {
        let mut s = String::new();
        let mut angle = 0i32;
        let mut paren = 0i32;
        while !self.done() {
            if self.at2("-", ">") {
                s.push_str("->");
                self.bump();
                self.bump();
                continue;
            }
            let t = match self.peek(0) {
                Some(t) => t,
                None => break,
            };
            if angle == 0 && paren == 0 && stops.iter().any(|x| t.is(x)) {
                break;
            }
            match t.text {
                "<" => angle += 1,
                ">" => {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                }
                "(" | "[" => paren += 1,
                ")" | "]" => {
                    if paren == 0 {
                        break;
                    }
                    paren -= 1;
                }
                _ => {}
            }
            if !t.text.is_empty() {
                s.push_str(t.text);
            } else if t.kind == TokKind::Lifetime {
                s.push('\'');
            }
            self.bump();
        }
        s
    }

    // ---- items ---------------------------------------------------------

    /// Parses items until `}` at depth 0 (or EOF). `in_test` marks
    /// `#[cfg(test)]` regions.
    fn items(&mut self, in_test: bool, mut budget: usize) {
        let mut pending_test = false;
        while !self.done() && budget > 0 && !self.at("}") {
            budget -= 1;
            // Attributes: remember cfg(test) / #[test] for the next item.
            while self.at("#") {
                let a = self.skip_attr();
                pending_test |= a.contains("cfg(test") || a == "test" || a.starts_with("test)");
            }
            // Visibility.
            if self.eat("pub") {
                if self.at("(") {
                    self.skip_balanced("(", ")");
                }
                continue;
            }
            let test = in_test || pending_test;
            pending_test = false;
            let next = self.peek(1).map_or("", |t| t.text);
            match self.ident() {
                Some("fn") => self.parse_fn(test),
                Some("unsafe" | "async" | "const" | "extern") if next == "fn" => {
                    self.bump();
                    self.parse_fn(test);
                }
                Some("use" | "type" | "static" | "const") => self.skip_to_semicolon(),
                Some("impl") => {
                    self.bump();
                    self.parse_impl(test);
                }
                Some("struct") => {
                    self.bump();
                    self.parse_struct();
                }
                Some("trait" | "mod" | "enum" | "union") => {
                    let nested = !matches!(self.ident(), Some("enum" | "union"));
                    self.skip_to_body();
                    if !self.at("{") {
                        self.eat(";");
                    } else if nested {
                        self.bump();
                        self.items(test, budget);
                        self.eat("}");
                    } else {
                        self.skip_balanced("{", "}");
                    }
                }
                Some(_) if next == "!" => {
                    // Item-level macro invocation or definition
                    // (`thread_local! { … }`, `quantity!(…);`,
                    // `macro_rules! name { … }`); skip its delimited body
                    // wholesale so a brace inside doesn't close the
                    // enclosing scope.
                    self.bump();
                    self.bump();
                    if self.ident().is_some() {
                        self.bump();
                    }
                    for (open, close) in [("(", ")"), ("[", "]"), ("{", "}")] {
                        self.skip_balanced(open, close);
                    }
                    self.eat(";");
                }
                // A stray block at item level: skip it whole.
                _ if self.at("{") => self.skip_balanced("{", "}"),
                _ => self.bump(),
            }
        }
    }

    /// Skips a `use`, `type`, `static` or `const` item through its `;`
    /// (renames are resolved on the token stream, see [`crate::rules`]).
    fn skip_to_semicolon(&mut self) {
        while !self.done() && !self.at(";") && !self.at("}") {
            if self.at("{") {
                self.skip_balanced("{", "}");
                continue;
            }
            self.bump();
        }
        self.eat(";");
    }

    fn parse_struct(&mut self) {
        if self.ident().is_some() {
            self.bump();
        }
        self.skip_balanced("<", ">");
        while !self.done() && !self.at("{") && !self.at(";") && !self.at("(") {
            self.bump();
        }
        if self.at("(") {
            // Tuple struct: skip.
            self.skip_balanced("(", ")");
            self.eat(";");
            return;
        }
        if !self.at("{") {
            self.eat(";");
            return;
        }
        self.bump();
        let mut fields = Vec::new();
        while !self.done() && !self.at("}") {
            while self.at("#") {
                self.skip_attr();
            }
            if self.eat("pub") && self.at("(") {
                self.skip_balanced("(", ")");
            }
            let Some(fname) = self.ident() else {
                self.bump();
                continue;
            };
            let fname = fname.to_string();
            self.bump();
            if !self.eat(":") {
                continue;
            }
            let ty = self.render_type(&[",", "}"]);
            fields.push((fname, ty));
            self.eat(",");
        }
        self.eat("}");
        self.out.structs.push(fields);
    }

    /// Skips an item header (`Trait for Type<T>`, a where clause) to its
    /// body `{` or a closing `;`.
    fn skip_to_body(&mut self) {
        while !self.done() && !self.at("{") && !self.at(";") {
            if self.at("<") {
                self.skip_balanced("<", ">");
                continue;
            }
            self.bump();
        }
    }

    fn parse_impl(&mut self, in_test: bool) {
        self.skip_to_body();
        if self.eat("{") {
            self.items(in_test, usize::MAX - 2);
            self.eat("}");
        } else {
            self.eat(";");
        }
    }

    fn parse_fn(&mut self, in_test: bool) {
        self.bump(); // `fn`
        let name = self.ident().unwrap_or("").to_string();
        if !name.is_empty() {
            self.bump();
        }
        self.skip_balanced("<", ">");
        // Parameters.
        let mut params = Vec::new();
        if self.at("(") {
            self.bump();
            while !self.done() {
                if self.at(")") {
                    self.bump();
                    break;
                }
                // `self` receiver forms: self, &self, &mut self, mut self.
                while self.at("&")
                    || self.at("mut")
                    || self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime)
                {
                    self.bump();
                }
                if self.at("self") {
                    self.bump();
                    params.push(("self".to_string(), "Self".to_string()));
                    self.eat(",");
                    continue;
                }
                // `name: Type` (simple) or a pattern we skip to `:`.
                let pname = match self.ident() {
                    Some(id) if self.peek(1).is_some_and(|t| t.is(":")) => {
                        let s = id.to_string();
                        self.bump();
                        s
                    }
                    _ => {
                        // Skip pattern tokens to the `:` at depth 0.
                        let mut d = 0i32;
                        while !self.done() {
                            if self.at("(") || self.at("[") {
                                d += 1;
                            } else if self.at(")") || self.at("]") {
                                if d == 0 {
                                    break;
                                }
                                d -= 1;
                            } else if d == 0 && (self.at(":") || self.at(",")) {
                                break;
                            }
                            self.bump();
                        }
                        String::new()
                    }
                };
                if !self.eat(":") {
                    // Malformed; resync at `,` or `)`.
                    while !self.done() && !self.at(",") && !self.at(")") {
                        if self.at("(") {
                            self.skip_balanced("(", ")");
                            continue;
                        }
                        self.bump();
                    }
                    self.eat(",");
                    continue;
                }
                let ty = self.render_type(&[",", ")"]);
                params.push((pname, ty));
                self.eat(",");
            }
        }
        // Return type.
        if self.at2("-", ">") {
            self.bump();
            self.bump();
            self.render_type(&["{", ";", "where"]);
        }
        self.skip_to_body();
        let body = if self.at("{") {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        self.out.fns.push(FnDef {
            name,
            params,
            body,
            in_test,
        });
    }

    // ---- statements and expressions ------------------------------------

    /// Parses a `{ … }` block (current token must be `{`).
    fn parse_block(&mut self) -> Block {
        let mut stmts = Vec::new();
        if !self.eat("{") {
            return Block { stmts };
        }
        let mut pending_test = false;
        while !self.done() {
            if self.at("}") {
                self.bump();
                break;
            }
            if self.eat(";") {
                continue;
            }
            while self.at("#") {
                let a = self.skip_attr();
                pending_test |= a.contains("cfg(test") || a == "test";
            }
            if self.at("let") {
                stmts.push(self.parse_let());
                continue;
            }
            // Nested items inside the block: one item each.
            let item = matches!(
                self.ident(),
                Some("fn" | "use" | "struct" | "impl" | "mod" | "trait" | "enum")
                    | Some("macro_rules" | "static" | "type")
            );
            let const_item =
                self.at("const") && self.peek(1).is_some_and(|t| t.kind == TokKind::Ident);
            if item || const_item {
                let before = self.i;
                self.items(pending_test, 1);
                pending_test = false;
                if self.i == before {
                    self.bump();
                }
                continue;
            }
            let e = self.expr(true);
            stmts.push(Stmt::Expr(e));
            self.eat(";");
        }
        Block { stmts }
    }

    fn parse_let(&mut self) -> Stmt {
        self.bump(); // `let`
        self.eat("mut");
        let name = match self.ident() {
            Some(id)
                if self
                    .peek(1)
                    .map_or(true, |t| t.is(":") || t.is("=") || t.is(";")) =>
            {
                let s = id.to_string();
                self.bump();
                Some(s)
            }
            _ => {
                // Destructuring pattern: skip to `:`/`=`/`;` at depth 0.
                let mut d = 0i32;
                while !self.done() {
                    if self.at("(") || self.at("[") || self.at("<") {
                        d += 1;
                    } else if self.at(")") || self.at("]") || self.at(">") {
                        d -= 1;
                    } else if d <= 0 && (self.at(":") || self.at("=") || self.at(";")) {
                        break;
                    }
                    self.bump();
                }
                None
            }
        };
        let ty = self.eat(":").then(|| self.render_type(&["=", ";"]));
        let init = self.eat("=").then(|| self.expr(true));
        // `let … else { … }`.
        if self.eat("else") && self.at("{") {
            self.parse_block();
        }
        self.eat(";");
        Stmt::Let { name, ty, init }
    }

    /// Pratt expression parser. `structs_ok` gates struct-literal
    /// parsing (off inside `if`/`while`/`match`/`for` heads).
    fn expr(&mut self, structs_ok: bool) -> Expr {
        self.expr_bp(0, structs_ok)
    }

    fn expr_bp(&mut self, min_bp: u8, structs_ok: bool) -> Expr {
        let mut lhs = self.prefix(structs_ok);
        loop {
            if self.done() {
                break;
            }
            // Postfix: handled inside prefix() via postfix(); here binary.
            let Some((op, lbp, rbp, width)) = self.binop() else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            let line = self.line();
            for _ in 0..width {
                self.bump();
            }
            // `as` cast: right side is a type, not an expression.
            if op == BinOp::Other && width == 0 {
                break;
            }
            let rhs = Box::new(self.expr_bp(rbp, structs_ok));
            let kind = ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs,
            };
            lhs = node(kind, line);
        }
        lhs
    }

    /// Looks at the current tokens for a binary operator; returns
    /// `(op, left-bp, right-bp, token width)`.
    fn binop(&self) -> Option<(BinOp, u8, u8, usize)> {
        let a = self.peek(0)?;
        let b = self.peek(1).map(|t| t.text).unwrap_or("");
        let c = self.peek(2).map(|t| t.text).unwrap_or("");
        // Order matters: longest match first.
        Some(match a.text {
            "=" if b == "=" => (BinOp::Eq, 5, 6, 2),
            "!" if b == "=" => (BinOp::Eq, 5, 6, 2),
            "<" if b == "=" => (BinOp::Cmp, 5, 6, 2),
            ">" if b == "=" => (BinOp::Cmp, 5, 6, 2),
            "&" if b == "&" => (BinOp::Other, 3, 4, 2),
            "|" if b == "|" => (BinOp::Other, 2, 3, 2),
            "<" if b == "<" && c != "=" => (BinOp::Other, 9, 10, 2),
            ">" if b == ">" && c != "=" => (BinOp::Other, 9, 10, 2),
            "<" if b == "<" => (BinOp::Other, 1, 2, 3),
            ">" if b == ">" => (BinOp::Other, 1, 2, 3),
            "+" if b == "=" => (BinOp::Add, 1, 2, 2),
            "-" if b == "=" => (BinOp::Sub, 1, 2, 2),
            "*" if b == "=" => (BinOp::Mul, 1, 2, 2),
            "/" if b == "=" => (BinOp::Div, 1, 2, 2),
            "%" if b == "=" => (BinOp::Rem, 1, 2, 2),
            "^" if b == "=" => (BinOp::Other, 1, 2, 2),
            "&" if b == "=" => (BinOp::Other, 1, 2, 2),
            "|" if b == "=" => (BinOp::Other, 1, 2, 2),
            "=" => (BinOp::Other, 1, 2, 1),
            "<" => (BinOp::Cmp, 5, 6, 1),
            ">" => (BinOp::Cmp, 5, 6, 1),
            "+" => (BinOp::Add, 11, 12, 1),
            "-" => (BinOp::Sub, 11, 12, 1),
            "*" => (BinOp::Mul, 13, 14, 1),
            "/" => (BinOp::Div, 13, 14, 1),
            "%" => (BinOp::Rem, 13, 14, 1),
            "^" => (BinOp::Other, 7, 8, 1),
            "&" => (BinOp::Other, 8, 9, 1),
            "|" => (BinOp::Other, 6, 7, 1),
            "." if b == "." => {
                // Range `..` / `..=`.
                let w = if c == "=" { 3 } else { 2 };
                (BinOp::Other, 1, 2, w)
            }
            _ => return None,
        })
    }

    fn prefix(&mut self, structs_ok: bool) -> Expr {
        let line = self.line();
        if self.done() {
            return unknown(vec![], line);
        }
        let t = &self.t[self.i];
        // Literals, and loop labels (`'outer: loop { … }`).
        if matches!(
            t.kind,
            TokKind::Number | TokKind::Literal | TokKind::Lifetime
        ) {
            self.bump();
            if t.kind == TokKind::Lifetime && self.eat(":") {
                return self.prefix(structs_ok);
            }
            return self.postfix(node(ExprKind::Lit, line));
        }
        // Unary / sigils (`&&x` is two borrows, `&mut x` one).
        if self.eat("-") || self.eat("!") || self.eat("*") || self.eat("&") {
            self.eat("&");
            self.eat("mut");
            let e = self.expr_bp(15, structs_ok);
            return node(ExprKind::Unary(Box::new(e)), line);
        }
        // Closures.
        if self.at("move") {
            self.bump();
            return self.prefix(structs_ok);
        }
        if self.at("|") {
            // `|params| body` — skip params to the closing `|`.
            self.bump();
            let mut d = 0i32;
            while !self.done() {
                if self.at("(") || self.at("[") || self.at("<") {
                    d += 1;
                } else if self.at(")") || self.at("]") || self.at(">") {
                    d -= 1;
                } else if d <= 0 && self.at("|") {
                    self.bump();
                    break;
                }
                self.bump();
            }
            let body = self.expr(structs_ok);
            return unknown(vec![body], line);
        }
        // Grouping / tuples / arrays / blocks.
        if self.eat("(") {
            let mut items = self.args(")");
            let e = match items.len() {
                1 => items.remove(0),
                _ => unknown(items, line),
            };
            return self.postfix(e);
        }
        if self.eat("[") {
            let items = self.args("]");
            return self.postfix(unknown(items, line));
        }
        if self.at("{") {
            let b = self.block_expr();
            return self.postfix(b);
        }
        // Control flow: heads and bodies, in source order.
        if self.eat("if") {
            let mut kids = vec![self.cond(), self.block_expr()];
            if self.eat("else") {
                kids.push(if self.at("if") {
                    self.prefix(structs_ok)
                } else {
                    self.block_expr()
                });
            }
            return unknown(kids, line);
        }
        if self.eat("match") {
            let mut kids = vec![self.expr(false)];
            if self.eat("{") {
                while !self.done() && !self.at("}") {
                    while self.at("#") {
                        self.skip_attr();
                    }
                    self.skip_pattern_to("=>");
                    if !self.at2("=", ">") {
                        break;
                    }
                    self.bump();
                    self.bump();
                    kids.push(self.expr(true));
                    self.eat(",");
                }
                self.eat("}");
            }
            return unknown(kids, line);
        }
        if self.eat("while") {
            let kids = vec![self.cond(), self.block_expr()];
            return unknown(kids, line);
        }
        if self.eat("for") {
            self.skip_pattern_to("in");
            self.eat("in");
            let kids = vec![self.expr(false), self.block_expr()];
            return unknown(kids, line);
        }
        if self.eat("loop") || self.eat("unsafe") || self.eat("async") {
            return match self.at("{") {
                true => self.block_expr(),
                false => self.prefix(structs_ok),
            };
        }
        if self.eat("return") || self.eat("break") {
            let bare = self.at(";") || self.at("}") || self.at(",") || self.at(")");
            let arg = if bare {
                vec![]
            } else {
                vec![self.expr(structs_ok)]
            };
            return unknown(arg, line);
        }
        if self.eat("continue") {
            return unknown(vec![], line);
        }
        // `.` leading ranges `..expr` / stray punctuation → Unknown.
        if self.at(".") {
            self.bump();
            self.eat(".");
            self.eat("=");
            if self.at(";") || self.at(")") || self.at("]") || self.at("}") || self.at(",") {
                return unknown(vec![], line);
            }
            let e = self.expr_bp(2, structs_ok);
            return unknown(vec![e], line);
        }
        // Paths, calls, struct literals, macros.
        if self.ident().is_some() {
            let mut segs: Vec<String> = Vec::new();
            while let Some(id) = self.ident() {
                segs.push(id.to_string());
                self.bump();
                if self.at2(":", ":") {
                    self.bump();
                    self.bump();
                    if self.at("<") {
                        // Turbofish: skip and keep pathing if `::` follows.
                        self.skip_balanced("<", ">");
                        if self.at2(":", ":") {
                            self.bump();
                            self.bump();
                            continue;
                        }
                        break;
                    }
                    continue;
                }
                break;
            }
            // Macro invocation.
            if self.eat("!") {
                let args = self.macro_args();
                return self.postfix(unknown(args, line));
            }
            // Call.
            if self.eat("(") {
                let args = self.args(")");
                return self.postfix(node(ExprKind::Call { path: segs, args }, line));
            }
            // Struct literal.
            if structs_ok && self.at("{") && self.struct_literal_ahead() {
                self.bump();
                let mut fields = Vec::new();
                while !self.done() && !self.at("}") {
                    if self.at2(".", ".") {
                        // `..base`
                        self.bump();
                        self.bump();
                        let base = self.expr(true);
                        fields.push(("..".to_string(), base));
                        break;
                    }
                    let Some(fname) = self.ident() else {
                        self.bump();
                        continue;
                    };
                    let fname = fname.to_string();
                    let fline = self.line();
                    self.bump();
                    if self.eat(":") {
                        let v = self.expr(true);
                        fields.push((fname, v));
                    } else {
                        // Shorthand `Struct { field }`.
                        fields.push((fname.clone(), node(ExprKind::Path(vec![fname]), fline)));
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat("}");
                return self.postfix(node(ExprKind::Struct(fields), line));
            }
            return self.postfix(node(ExprKind::Path(segs), line));
        }
        // Anything else: consume one token so the parser advances.
        self.bump();
        unknown(vec![], line)
    }

    /// Parses a comma-separated expression list after its opener, through
    /// `close`; array literals also separate by `;` (`[x; n]`).
    fn args(&mut self, close: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        while !self.done() && !self.at(close) {
            args.push(self.expr(true));
            let separated = self.eat(",") || close == "]" && self.eat(";");
            if !separated {
                break;
            }
        }
        self.eat(close);
        args
    }

    /// An `if`/`while` condition; for `if let`/`while let` the pattern is
    /// skipped and the matched expression kept.
    fn cond(&mut self) -> Expr {
        if self.eat("let") {
            self.skip_pattern_to("=");
            self.eat("=");
        }
        self.expr(false)
    }

    /// A `{ … }` block as an expression.
    fn block_expr(&mut self) -> Expr {
        let line = self.line();
        let b = self.parse_block();
        node(ExprKind::Block(b), line)
    }

    /// After a path, decides whether `{` starts a struct literal: yes if
    /// the brace is followed by `ident:` / `ident,` / `ident}` / `..`.
    fn struct_literal_ahead(&self) -> bool {
        let Some(n1) = self.peek(1) else { return false };
        if n1.is("}") {
            return true;
        }
        if n1.kind != TokKind::Ident {
            return n1.is(".");
        }
        match self.peek(2) {
            Some(n2) => {
                (n2.is(":") && !self.peek(3).is_some_and(|t| t.is(":"))) || n2.is(",") || n2.is("}")
            }
            None => false,
        }
    }

    /// Best-effort macro arguments: parses a comma-separated expression
    /// list inside `(…)`/`[…]`/`{…}`; on anything weird, falls back to a
    /// loose scan that still recovers call-shaped subsequences.
    fn macro_args(&mut self) -> Vec<Expr> {
        let (open, close) = if self.at("(") {
            ("(", ")")
        } else if self.at("[") {
            ("[", "]")
        } else if self.at("{") {
            ("{", "}")
        } else {
            return Vec::new();
        };
        self.bump();
        let mut args = Vec::new();
        while !self.done() && !self.at(close) {
            let before = self.i;
            args.push(self.expr(true));
            self.eat(",");
            // Format-macro tails (`{x:.3}` inside the literal are dropped
            // by the tokenizer, but named args `x = expr` parse fine).
            if self.i == before {
                self.bump();
            }
        }
        // Resync: we may be deep in unparsed macro soup; skip to close.
        let mut depth = 1i32;
        while !self.done() {
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    break;
                }
            }
            self.bump();
        }
        args
    }

    /// Skips pattern tokens up to `stop` (`=>`, `=`, or `in`) at depth 0.
    fn skip_pattern_to(&mut self, stop: &str) {
        let mut d = 0i32;
        while !self.done() {
            if self.at("(") || self.at("[") || self.at("{") {
                d += 1;
            } else if self.at(")") || self.at("]") || self.at("}") {
                if d == 0 {
                    return;
                }
                d -= 1;
            } else if d == 0 {
                match stop {
                    "=>" if self.at2("=", ">") => {
                        return;
                    }
                    "=" if self.at("=") && !self.peek(1).is_some_and(|t| t.is("=")) => {
                        return;
                    }
                    "in" if self.at("in") => {
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Postfix chain: method calls, field access, indexing, `?`, `.await`,
    /// `as` casts, and call-on-expression.
    fn postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            if self.done() {
                return e;
            }
            if self.at("?") {
                self.bump();
                continue;
            }
            if self.at("as") {
                let line = self.line();
                self.bump();
                // Consume the cast target type.
                let _ = self.render_type(&[
                    ";", ",", ")", "]", "}", "{", "+", "-", "*", "/", "%", "=", "<", ">", "?", ".",
                    "&", "|",
                ]);
                e = node(ExprKind::Unary(Box::new(e)), line);
                continue;
            }
            if self.at(".") && !self.peek(1).is_some_and(|t| t.is(".")) {
                let line = self.line();
                self.bump();
                if self.at("await") {
                    self.bump();
                    continue;
                }
                // A field, method or tuple index (`.0`).
                let named = |t: &&Tok| matches!(t.kind, TokKind::Ident | TokKind::Number);
                let Some(name) = self.peek(0).filter(named).map(|t| t.text.to_string()) else {
                    // `.` followed by something unexpected; stop the chain.
                    return e;
                };
                self.bump();
                // Turbofish on methods: `.collect::<Vec<_>>()`.
                if self.at2(":", ":") {
                    self.bump();
                    self.bump();
                    self.skip_balanced("<", ">");
                }
                let base = Box::new(e);
                let kind = match self.eat("(") {
                    true => ExprKind::Method {
                        recv: base,
                        name,
                        args: self.args(")"),
                    },
                    false => ExprKind::Field { base, name },
                };
                e = node(kind, line);
                continue;
            }
            if self.at("(") {
                // Call-on-expression `(f)(x)`: keep args, drop callee shape.
                let line = self.line();
                self.bump();
                let mut children = vec![e];
                children.extend(self.args(")"));
                e = unknown(children, line);
                continue;
            }
            if self.at("[") {
                let line = self.line();
                self.bump();
                let index = Box::new(self.expr(true));
                self.eat("]");
                e = node(
                    ExprKind::Index {
                        base: Box::new(e),
                        index,
                    },
                    line,
                );
                continue;
            }
            return e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;
    use crate::tokenizer::tokenize;

    fn parse(src: &str) -> ParsedFile {
        let toks = tokenize(src);
        parse_file(&classify("crates/sim/src/fx.rs"), &toks)
    }

    #[test]
    fn fn_items_and_methods_are_found() {
        let p = parse(
            "fn free() {}\n\
             struct S { x: f64 }\n\
             impl S { fn m(&self, y: f64) -> f64 { self.x + y } }\n\
             impl Clone for S { fn clone(&self) -> S { S { x: self.x } } }",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[1].name, "m");
        assert_eq!(p.fns[2].name, "clone");
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0][0].0, "x");
    }

    #[test]
    fn calls_and_method_chains_parse() {
        let p = parse("fn f() -> f64 { let a = helper(1.0); a.step(2.0).value() + g::h(a) }");
        let mut calls = Vec::new();
        let mut methods = Vec::new();
        p.fns[0].walk(&mut |e| match &e.kind {
            ExprKind::Call { path, .. } => calls.push(path.join("::")),
            ExprKind::Method { name, .. } => methods.push(name.clone()),
            _ => {}
        });
        assert_eq!(calls, vec!["helper", "g::h"]);
        // Pre-order walk: the outer call of a chain is visited first.
        assert_eq!(methods, vec!["value", "step"]);
    }

    #[test]
    fn binary_precedence_and_dims_shape() {
        let p = parse("fn f(a: f64, b: f64) -> f64 { a + b * 2.0 }");
        let Some(Stmt::Expr(e)) = p.fns[0].body.as_ref().and_then(|b| b.stmts.first()) else {
            panic!("no body expr");
        };
        let ExprKind::Binary { op, rhs, .. } = &e.kind else {
            panic!("expected binary, got {e:?}");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn cfg_test_marks_fns() {
        let p = parse(
            "fn lib() {}\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { lib(); }\n}",
        );
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test, "{:?}", p.fns[1]);
    }

    #[test]
    fn struct_literal_vs_block_disambiguates() {
        let p = parse("fn f(c: bool, v: f64) -> S { if c { S { x: v } } else { S { x: 0.0 } } }");
        let mut structs = 0;
        p.fns[0].walk(&mut |e| {
            if matches!(e.kind, ExprKind::Struct(_)) {
                structs += 1;
            }
        });
        assert_eq!(structs, 2);
    }

    #[test]
    fn match_arms_keep_bodies() {
        let p = parse(
            "fn f(x: Option<f64>) -> f64 { match x { Some(v) => v + 1.0, None => fallback(), } }",
        );
        let mut calls = Vec::new();
        p.fns[0].walk(&mut |e| {
            if let ExprKind::Call { path, .. } = &e.kind {
                calls.push(path.join("::"));
            }
        });
        assert_eq!(calls, vec!["fallback"]);
    }

    #[test]
    fn closures_and_macros_expose_calls() {
        let p = parse(
            "fn f(v: &[f64]) -> f64 { let s: f64 = v.iter().map(|x| scale(*x)).sum(); \
             assert!(s > lower_bound(), \"bad {s}\"); s }",
        );
        let mut calls = Vec::new();
        p.fns[0].walk(&mut |e| {
            if let ExprKind::Call { path, .. } = &e.kind {
                calls.push(path.join("::"));
            }
        });
        assert!(calls.contains(&"scale".to_string()));
        assert!(calls.contains(&"lower_bound".to_string()));
    }

    #[test]
    fn let_bindings_carry_types_and_inits() {
        let p = parse("fn f() { let w: Watts = Watts::new(3.0); let (a, b) = pair(); }");
        let body = p.fns[0].body.as_ref().unwrap();
        let Stmt::Let { name, ty, init, .. } = &body.stmts[0] else {
            panic!("expected let");
        };
        assert_eq!(name.as_deref(), Some("w"));
        assert_eq!(ty.as_deref(), Some("Watts"));
        assert!(matches!(
            init.as_ref().map(|e| &e.kind),
            Some(ExprKind::Call { .. })
        ));
        let Stmt::Let {
            name: n2, init: i2, ..
        } = &body.stmts[1]
        else {
            panic!("expected let");
        };
        assert!(n2.is_none());
        assert!(i2.is_some());
    }

    #[test]
    fn pathological_input_terminates() {
        // Unbalanced everything; the fuel guard must keep this finite.
        let src = "fn f( { ) [ } < impl :: => if let { { { \"x";
        let _ = parse(src);
        let src2 = "fn f() { ((((((((((((((((((((((((((((((()))))))))))))))))))))))))))))))) }";
        let _ = parse(src2);
    }

    #[test]
    fn nested_fns_and_trait_decls() {
        let p = parse(
            "trait T { fn decl(&self) -> f64; fn dflt(&self) -> f64 { self.decl() * 2.0 } }\n\
             fn outer() { fn inner() {} inner(); }",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"decl"));
        assert!(names.contains(&"dflt"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"outer"));
        let decl = p.fns.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
    }
}

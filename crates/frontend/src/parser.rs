//! Recursive-descent parser.
//!
//! Consumes the lexer's logical lines and builds the AST. Fortran has no
//! reserved words, so statement kinds are recognized contextually from the
//! leading identifier(s); anything unrecognized that contains a top-level
//! `=` is an assignment.
//!
//! Nesting: a statement more than `MAX_DEPTH` (128) levels deep is a parse
//! error, so a hostile source cannot overflow the stack of this parser or
//! of a later pass that walks the tree.

use crate::ast::*;
use crate::error::{FrontendError, Result};
use crate::lexer::{label, lex, logical_lines, Line, Tok, Tokens};
use fortrand_ir::dist::DistKind;
use fortrand_ir::{Interner, Sym};
use std::ops::Range;

/// Deepest nesting [`parse_program`] accepts: enclosing DO/IF blocks plus
/// the levels of an expression (parentheses, subscript lists, unary and
/// binary operators). Every pass compiles and runs a statement this deep
/// on a 2 MiB thread stack in an unoptimized build.
pub const MAX_DEPTH: usize = 128;

/// Parses a whole source file.
pub fn parse_program(source: &str) -> Result<SourceProgram> {
    let mut interner = Interner::new();
    let (units, _) = parse_lines(&lex(source)?, &mut interner, 0)?;
    if units.is_empty() {
        return Err(FrontendError::at(0, "empty program"));
    }
    Ok(SourceProgram { units, interner })
}

/// Parses lexed lines into as many units as they hold, none included,
/// interning names into `interner` and numbering statements from
/// `first_id`. Also returns, per unit, the symbols it names in the order
/// it first names them: the numbering the unit would get from an interner
/// of its own.
pub fn parse_lines(
    lines: &[Line],
    interner: &mut Interner,
    first_id: u32,
) -> Result<(Vec<ProcUnit>, Vec<Vec<Sym>>)> {
    let mut p = Parser {
        interner,
        named: Vec::new(),
        seen: Vec::new(),
        next_id: first_id,
        depth: 0,
    };
    let mut units = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        p.named.push(Vec::new());
        let (unit, consumed) = p.parse_unit(&lines[i..])?;
        units.push(unit);
        i += consumed;
    }
    Ok((units, p.named))
}

/// True when a logical line's tokens, label removed, end a program unit:
/// `END` that no name follows (`END DO` and `END IF` close blocks).
fn ends_unit(toks: &[Tok]) -> bool {
    matches!(toks.first(), Some(Tok::Ident(w)) if w == "end")
        && !matches!(toks.get(1), Some(Tok::Ident(_)))
}

/// Cuts `source` into unit slices: byte ranges in source order, each with
/// the number of lines before it. A cut falls just past each logical line
/// that ends a unit, by the comment, continuation and `END` rules the
/// lexer and [`parse_program`] apply; a line whose first tokens do not lex
/// is no cut, so its slice merges with the next. Lines after the last cut
/// that hold no code join the last slice.
///
/// A unit is parsed from its header through the first line that ends a
/// unit, so [`parse_lines`] finds in each slice, lexed alone, exactly the
/// units [`parse_program`] finds in it, and an error at the same line
/// (counted from the slice's first line).
pub fn split_units(source: &str) -> Vec<(Range<usize>, u32)> {
    let mut out: Vec<(Range<usize>, u32)> = Vec::new();
    let (mut start, mut before, mut code_after) = (0, 0, false);
    for l in logical_lines(source) {
        // A line that ends a unit names `end`; most lines do not.
        let b = l.text.as_bytes();
        let names_end = (1..b.len().saturating_sub(1)).any(|i| {
            b[i].eq_ignore_ascii_case(&b'n')
                && b[i - 1].eq_ignore_ascii_case(&b'e')
                && b[i + 1].eq_ignore_ascii_case(&b'd')
        });
        if !names_end {
            code_after = true;
            continue;
        }
        // A label and the two tokens after it decide.
        let mut head: Vec<Tok> = Vec::with_capacity(3);
        let mut lexed = true;
        for tok in Tokens::new(&l.text, l.number).take(3) {
            match tok {
                Ok(t) => head.push(t),
                Err(_) => {
                    lexed = false;
                    break;
                }
            }
        }
        if head.first().and_then(label).is_some() {
            head.remove(0);
        }
        if !(lexed && ends_unit(&head)) {
            code_after = true;
            continue;
        }
        out.push((start..l.end, before));
        (start, before, code_after) = (l.end, l.last, false);
    }
    match out.last_mut() {
        Some((last, _)) if !code_after => last.end = source.len(),
        _ => out.push((start..source.len(), before)),
    }
    out
}

struct Parser<'a> {
    interner: &'a mut Interner,
    /// Per unit so far, the symbols it names in first-use order; and per
    /// symbol, the number of units when it was last named.
    named: Vec<Vec<Sym>>,
    seen: Vec<usize>,
    next_id: u32,
    /// Levels open above the current parse point: enclosing DO/IF blocks,
    /// then the parentheses, subscript lists and unary operators of the
    /// expression being parsed.
    depth: usize,
}

/// An expression and its height: the levels from its root to its deepest
/// leaf.
type Parsed = (Expr, usize);

/// An open block while parsing a unit body.
enum Block {
    /// The unit body itself.
    Unit(Vec<Stmt>),
    /// An open DO loop: header info + collected body (+ closing label).
    Do {
        var: Sym,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        label: Option<u32>,
        line: u32,
        body: Vec<Stmt>,
    },
    /// An open IF: condition + then-branch (+ else once seen).
    If {
        cond: Expr,
        line: u32,
        then_body: Vec<Stmt>,
        else_body: Option<Vec<Stmt>>,
    },
}

impl Parser<'_> {
    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    fn sym(&mut self, name: &str) -> Sym {
        let s = self.interner.intern(name);
        let i = s.0 as usize;
        if i >= self.seen.len() {
            self.seen.resize(self.interner.len(), 0);
        }
        if self.seen[i] != self.named.len() {
            self.seen[i] = self.named.len();
            self.named.last_mut().expect("inside a unit").push(s);
        }
        s
    }

    /// Errors when `height` levels below the current depth pass
    /// `MAX_DEPTH`.
    fn check_depth(&self, line: u32, height: usize) -> Result<()> {
        if self.depth + height > MAX_DEPTH {
            return Err(FrontendError::at(
                line,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    /// Opens one level (a block, or an expression's nested operand).
    fn enter(&mut self, line: u32) -> Result<()> {
        self.check_depth(line, 1)?;
        self.depth += 1;
        Ok(())
    }

    /// Parses one program unit starting at `lines[0]`; returns it and the
    /// number of lines consumed.
    fn parse_unit(&mut self, lines: &[Line]) -> Result<(ProcUnit, usize)> {
        let header = &lines[0];
        let (kind, name, formals) = self.parse_unit_header(header)?;
        let mut decls = Vec::new();
        let mut blocks: Vec<Block> = vec![Block::Unit(Vec::new())];
        let mut idx = 1;
        loop {
            if idx >= lines.len() {
                return Err(FrontendError::at(
                    header.number,
                    "unit not terminated by END",
                ));
            }
            let line = &lines[idx];
            idx += 1;
            let mut c = Cursor {
                toks: &line.toks,
                pos: 0,
                line: line.number,
            };
            let head = match c.peek_ident() {
                Some(w) => w.to_string(),
                None => String::new(),
            };
            if ends_unit(&line.toks) {
                if blocks.len() != 1 {
                    return Err(FrontendError::at(
                        line.number,
                        "END of unit with unterminated DO/IF block",
                    ));
                }
                let body = match blocks.pop().unwrap() {
                    Block::Unit(b) => b,
                    _ => unreachable!(),
                };
                let unit = ProcUnit {
                    kind,
                    name,
                    formals,
                    decls,
                    body,
                    line: header.number,
                };
                return Ok((unit, idx));
            }
            // The other END variants: a name follows.
            if head == "end" {
                c.bump();
                match c.peek_ident().unwrap_or_default() {
                    "do" => {
                        self.close_do(&mut blocks, line.number)?;
                        continue;
                    }
                    "if" => {
                        self.close_if(&mut blocks, line.number)?;
                        continue;
                    }
                    other => {
                        return Err(FrontendError::at(line.number, format!("END {other}?")));
                    }
                }
            }
            if head == "enddo" {
                self.close_do(&mut blocks, line.number)?;
                continue;
            }
            if head == "endif" {
                self.close_if(&mut blocks, line.number)?;
                continue;
            }
            if head == "else" {
                c.bump();
                if c.peek_ident() == Some("if") || c.peek_ident() == Some("elseif") {
                    return Err(FrontendError::at(
                        line.number,
                        "ELSE IF is not supported; nest an IF inside ELSE",
                    ));
                }
                match blocks.last_mut() {
                    Some(Block::If { else_body, .. }) if else_body.is_none() => {
                        *else_body = Some(Vec::new());
                    }
                    _ => return Err(FrontendError::at(line.number, "ELSE outside IF")),
                }
                continue;
            }
            if head == "elseif" {
                return Err(FrontendError::at(
                    line.number,
                    "ELSE IF is not supported; nest an IF inside ELSE",
                ));
            }

            // Declarations (only legal before executable statements have
            // appeared, which we do not enforce strictly — Fortran D's
            // DECOMPOSITION may be interleaved in real codes).
            if let Some(d) = self.try_parse_decl(&mut c)? {
                decls.extend(d);
                continue;
            }

            // Statements that open blocks.
            if head == "do" {
                let mut c2 = Cursor {
                    toks: &line.toks,
                    pos: 1,
                    line: line.number,
                };
                // Optional closing label: DO 10 i = …
                let label = match c2.peek() {
                    Some(Tok::Int(v)) => {
                        let v = *v as u32;
                        c2.bump();
                        Some(v)
                    }
                    _ => None,
                };
                let var_name = c2.expect_ident("loop index")?;
                let var = self.sym(&var_name);
                c2.expect(&Tok::Assign)?;
                let lo = self.parse_expr(&mut c2)?;
                c2.expect(&Tok::Comma)?;
                let hi = self.parse_expr(&mut c2)?;
                let step = if c2.eat(&Tok::Comma) {
                    Some(self.parse_expr(&mut c2)?)
                } else {
                    None
                };
                c2.expect_end()?;
                self.enter(line.number)?;
                blocks.push(Block::Do {
                    var,
                    lo,
                    hi,
                    step,
                    label,
                    line: line.number,
                    body: Vec::new(),
                });
                continue;
            }
            if head == "if" {
                let mut c2 = Cursor {
                    toks: &line.toks,
                    pos: 1,
                    line: line.number,
                };
                c2.expect(&Tok::LParen)?;
                let cond = self.parse_expr(&mut c2)?;
                c2.expect(&Tok::RParen)?;
                if c2.peek_ident() == Some("then") {
                    c2.bump();
                    c2.expect_end()?;
                    self.enter(line.number)?;
                    blocks.push(Block::If {
                        cond,
                        line: line.number,
                        then_body: Vec::new(),
                        else_body: None,
                    });
                } else {
                    // Logical IF: the rest is a single simple statement.
                    self.enter(line.number)?;
                    let inner = self.parse_simple_stmt(&mut c2)?;
                    self.depth -= 1;
                    let id = self.fresh_id();
                    let stmt = Stmt {
                        id,
                        line: line.number,
                        kind: StmtKind::If {
                            cond,
                            then_body: vec![inner],
                            else_body: Vec::new(),
                        },
                    };
                    self.push_stmt(&mut blocks, stmt);
                }
                continue;
            }

            // Simple statement.
            let stmt = self.parse_simple_stmt(&mut c)?;
            let stmt_label = line.label;
            self.push_stmt(&mut blocks, stmt);
            // A labeled statement may close labeled DO loops.
            if let Some(l) = stmt_label {
                while matches!(blocks.last(), Some(Block::Do { label: Some(dl), .. }) if *dl == l) {
                    self.close_do(&mut blocks, line.number)?;
                }
            }
        }
    }

    fn parse_unit_header(&mut self, line: &Line) -> Result<(UnitKind, Sym, Vec<Sym>)> {
        let mut c = Cursor {
            toks: &line.toks,
            pos: 0,
            line: line.number,
        };
        let first = c.expect_ident("unit header")?;
        let (kind, name) = match first.as_str() {
            "program" => {
                let n = c.expect_ident("program name")?;
                (UnitKind::Program, self.sym(&n))
            }
            "subroutine" => {
                let n = c.expect_ident("subroutine name")?;
                (UnitKind::Subroutine, self.sym(&n))
            }
            "function" => {
                let n = c.expect_ident("function name")?;
                (UnitKind::Function(Type::Real), self.sym(&n))
            }
            ty @ ("real" | "integer" | "logical" | "double") => {
                let ty = match ty {
                    "real" => Type::Real,
                    "integer" => Type::Integer,
                    "logical" => Type::Logical,
                    _ => {
                        if c.peek_ident() == Some("precision") {
                            c.bump();
                        }
                        Type::Double
                    }
                };
                if c.peek_ident() != Some("function") {
                    return Err(FrontendError::at(
                        line.number,
                        "expected FUNCTION after type in unit header",
                    ));
                }
                c.bump();
                let n = c.expect_ident("function name")?;
                (UnitKind::Function(ty), self.sym(&n))
            }
            other => {
                return Err(FrontendError::at(
                    line.number,
                    format!("expected PROGRAM/SUBROUTINE/FUNCTION, found `{other}`"),
                ))
            }
        };
        let mut formals = Vec::new();
        if c.eat(&Tok::LParen) && !c.eat(&Tok::RParen) {
            loop {
                let f = c.expect_ident("formal parameter")?;
                formals.push(self.sym(&f));
                if c.eat(&Tok::RParen) {
                    break;
                }
                c.expect(&Tok::Comma)?;
            }
        }
        c.expect_end()?;
        Ok((kind, name, formals))
    }

    fn close_do(&mut self, blocks: &mut Vec<Block>, lineno: u32) -> Result<()> {
        match blocks.pop() {
            Some(Block::Do {
                var,
                lo,
                hi,
                step,
                body,
                line,
                ..
            }) => {
                self.depth -= 1;
                let id = self.fresh_id();
                let stmt = Stmt {
                    id,
                    line,
                    kind: StmtKind::Do {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    },
                };
                self.push_stmt(blocks, stmt);
                Ok(())
            }
            other => {
                if let Some(b) = other {
                    blocks.push(b);
                }
                Err(FrontendError::at(lineno, "ENDDO without open DO"))
            }
        }
    }

    fn close_if(&mut self, blocks: &mut Vec<Block>, lineno: u32) -> Result<()> {
        match blocks.pop() {
            Some(Block::If {
                cond,
                line,
                then_body,
                else_body,
            }) => {
                self.depth -= 1;
                let id = self.fresh_id();
                let stmt = Stmt {
                    id,
                    line,
                    kind: StmtKind::If {
                        cond,
                        then_body,
                        else_body: else_body.unwrap_or_default(),
                    },
                };
                self.push_stmt(blocks, stmt);
                Ok(())
            }
            other => {
                if let Some(b) = other {
                    blocks.push(b);
                }
                Err(FrontendError::at(lineno, "ENDIF without open IF"))
            }
        }
    }

    fn push_stmt(&mut self, blocks: &mut [Block], stmt: Stmt) {
        match blocks.last_mut().expect("block stack empty") {
            Block::Unit(b) | Block::Do { body: b, .. } => b.push(stmt),
            Block::If {
                then_body,
                else_body,
                ..
            } => match else_body {
                Some(e) => e.push(stmt),
                None => then_body.push(stmt),
            },
        }
    }

    /// Declarations: type decls, PARAMETER, DECOMPOSITION. Returns `None`
    /// if the line is not a declaration.
    fn try_parse_decl(&mut self, c: &mut Cursor) -> Result<Option<Vec<Decl>>> {
        let head = match c.peek_ident() {
            Some(h) => h.to_string(),
            None => return Ok(None),
        };
        let ty = match head.as_str() {
            "real" => Some(Type::Real),
            "integer" => Some(Type::Integer),
            "logical" => Some(Type::Logical),
            "double" => Some(Type::Double),
            _ => None,
        };
        if let Some(ty) = ty {
            // Could be a function header handled elsewhere; here inside a
            // body it is a declaration — unless it is an assignment like
            // `real = 1` (we do not support variables named after types).
            c.bump();
            if head == "double" && c.peek_ident() == Some("precision") {
                c.bump();
            }
            let mut out = Vec::new();
            loop {
                let name = c.expect_ident("declared name")?;
                let name = self.sym(&name);
                let mut dims = Vec::new();
                if c.eat(&Tok::LParen) {
                    loop {
                        let e = self.parse_extent(c)?;
                        dims.push(e);
                        if c.eat(&Tok::RParen) {
                            break;
                        }
                        c.expect(&Tok::Comma)?;
                    }
                }
                out.push(Decl::Var {
                    ty,
                    name,
                    dims,
                    line: c.line,
                });
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.expect_end()?;
            return Ok(Some(out));
        }
        if head == "parameter" {
            c.bump();
            c.expect(&Tok::LParen)?;
            let mut out = Vec::new();
            loop {
                let name = c.expect_ident("parameter name")?;
                let name = self.sym(&name);
                c.expect(&Tok::Assign)?;
                let value = self.parse_expr(c)?;
                out.push(Decl::Parameter {
                    name,
                    value,
                    line: c.line,
                });
                if c.eat(&Tok::RParen) {
                    break;
                }
                c.expect(&Tok::Comma)?;
            }
            c.expect_end()?;
            return Ok(Some(out));
        }
        if head == "decomposition" {
            c.bump();
            let mut out = Vec::new();
            loop {
                let name = c.expect_ident("decomposition name")?;
                let name = self.sym(&name);
                c.expect(&Tok::LParen)?;
                let mut dims = Vec::new();
                loop {
                    dims.push(self.parse_extent(c)?);
                    if c.eat(&Tok::RParen) {
                        break;
                    }
                    c.expect(&Tok::Comma)?;
                }
                out.push(Decl::Decomposition {
                    name,
                    dims,
                    line: c.line,
                });
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.expect_end()?;
            return Ok(Some(out));
        }
        Ok(None)
    }

    fn parse_extent(&mut self, c: &mut Cursor) -> Result<Extent> {
        let first = self.parse_expr(c)?;
        if c.eat(&Tok::Colon) {
            let hi = self.parse_expr(c)?;
            Ok(Extent { lo: first, hi })
        } else {
            Ok(Extent {
                lo: Expr::int(1),
                hi: first,
            })
        }
    }

    /// Simple (non-block) statements.
    fn parse_simple_stmt(&mut self, c: &mut Cursor) -> Result<Stmt> {
        let line = c.line;
        let id = self.fresh_id();
        let head = c.peek_ident().map(str::to_string);
        let kind = match head.as_deref() {
            Some("call") => {
                c.bump();
                let name = c.expect_ident("callee")?;
                let name = self.sym(&name);
                let mut args = Vec::new();
                if c.eat(&Tok::LParen) && !c.eat(&Tok::RParen) {
                    loop {
                        args.push(self.parse_expr(c)?);
                        if c.eat(&Tok::RParen) {
                            break;
                        }
                        c.expect(&Tok::Comma)?;
                    }
                }
                c.expect_end()?;
                StmtKind::Call { name, args }
            }
            Some("return") => {
                c.bump();
                c.expect_end()?;
                StmtKind::Return
            }
            Some("continue") => {
                c.bump();
                c.expect_end()?;
                StmtKind::Continue
            }
            Some("stop") => {
                c.bump();
                // optional stop code ignored
                while c.peek().is_some() {
                    c.bump();
                }
                StmtKind::Stop
            }
            Some("print") => {
                c.bump();
                c.expect(&Tok::Star)?;
                let mut args = Vec::new();
                while c.eat(&Tok::Comma) {
                    if let Some(Tok::Str(_)) = c.peek() {
                        c.bump(); // strings are display-only; drop them
                        continue;
                    }
                    args.push(self.parse_expr(c)?);
                }
                c.expect_end()?;
                StmtKind::Print { args }
            }
            Some("align") => {
                c.bump();
                self.parse_align(c)?
            }
            Some("distribute") => {
                c.bump();
                self.parse_distribute(c)?
            }
            _ => {
                // Assignment: lvalue = expr.
                let name = c.expect_ident("statement")?;
                let base = self.sym(&name);
                let lhs = if c.eat(&Tok::LParen) {
                    let mut subs = Vec::new();
                    loop {
                        subs.push(self.parse_expr(c)?);
                        if c.eat(&Tok::RParen) {
                            break;
                        }
                        c.expect(&Tok::Comma)?;
                    }
                    LValue::Element { array: base, subs }
                } else {
                    LValue::Scalar(base)
                };
                c.expect(&Tok::Assign)?;
                let rhs = self.parse_expr(c)?;
                c.expect_end()?;
                StmtKind::Assign { lhs, rhs }
            }
        };
        Ok(Stmt { id, line, kind })
    }

    /// `ALIGN Y(i,j) WITH X(j,i)` or `ALIGN Y WITH X`.
    fn parse_align(&mut self, c: &mut Cursor) -> Result<StmtKind> {
        let array = c.expect_ident("aligned array")?;
        let array = self.sym(&array);
        let mut dummies: Vec<Sym> = Vec::new();
        if c.eat(&Tok::LParen) {
            loop {
                let d = c.expect_ident("alignment dummy")?;
                dummies.push(self.sym(&d));
                if c.eat(&Tok::RParen) {
                    break;
                }
                c.expect(&Tok::Comma)?;
            }
        }
        if c.peek_ident() != Some("with") {
            return Err(FrontendError::at(c.line, "expected WITH in ALIGN"));
        }
        c.bump();
        let target = c.expect_ident("alignment target")?;
        let target = self.sym(&target);
        let mut perm = Vec::new();
        let mut offset = Vec::new();
        if c.eat(&Tok::LParen) {
            // Target subscripts: each must be dummy [± const].
            let mut tsubs: Vec<(Sym, i64)> = Vec::new();
            loop {
                let d = c.expect_ident("target subscript")?;
                let d = self.sym(&d);
                let mut off = 0i64;
                if c.eat(&Tok::Plus) {
                    off = c.expect_int("alignment offset")?;
                } else if c.eat(&Tok::Minus) {
                    off = -c.expect_int("alignment offset")?;
                }
                tsubs.push((d, off));
                if c.eat(&Tok::RParen) {
                    break;
                }
                c.expect(&Tok::Comma)?;
            }
            // perm[d] = position of dummy d in target subs.
            for &dummy in &dummies {
                let pos = tsubs.iter().position(|&(s, _)| s == dummy).ok_or_else(|| {
                    FrontendError::at(c.line, "alignment dummy missing from target")
                })?;
                perm.push(pos);
                offset.push(tsubs[pos].1);
            }
        } else {
            // Identity alignment; rank checked by sema.
            perm = (0..dummies.len()).collect();
            offset = vec![0; perm.len()];
        }
        c.expect_end()?;
        Ok(StmtKind::Align {
            array,
            target,
            perm,
            offset,
        })
    }

    /// `DISTRIBUTE D(BLOCK, :)`.
    fn parse_distribute(&mut self, c: &mut Cursor) -> Result<StmtKind> {
        let target = c.expect_ident("distribute target")?;
        let target = self.sym(&target);
        c.expect(&Tok::LParen)?;
        let mut kinds = Vec::new();
        loop {
            match c.peek() {
                Some(Tok::Colon) => {
                    c.bump();
                    kinds.push(DistKind::Serial);
                }
                Some(Tok::Ident(w)) => {
                    let w = w.clone();
                    c.bump();
                    match w.as_str() {
                        "block" => {
                            if c.eat(&Tok::LParen) {
                                // BLOCK(k) treated as BLOCK_CYCLIC(k)? No —
                                // plain BLOCK takes no argument in Fortran D.
                                return Err(FrontendError::at(c.line, "BLOCK takes no argument"));
                            }
                            kinds.push(DistKind::Block);
                        }
                        "cyclic" => {
                            if c.eat(&Tok::LParen) {
                                let k = c.expect_int("CYCLIC block size")?;
                                c.expect(&Tok::RParen)?;
                                kinds.push(DistKind::BlockCyclic(k));
                            } else {
                                kinds.push(DistKind::Cyclic);
                            }
                        }
                        "block_cyclic" => {
                            c.expect(&Tok::LParen)?;
                            let k = c.expect_int("BLOCK_CYCLIC block size")?;
                            c.expect(&Tok::RParen)?;
                            kinds.push(DistKind::BlockCyclic(k));
                        }
                        other => {
                            return Err(FrontendError::at(
                                c.line,
                                format!("unknown distribution kind `{other}`"),
                            ))
                        }
                    }
                }
                _ => return Err(FrontendError::at(c.line, "expected distribution kind")),
            }
            if c.eat(&Tok::RParen) {
                break;
            }
            c.expect(&Tok::Comma)?;
        }
        c.expect_end()?;
        Ok(StmtKind::Distribute { target, kinds })
    }

    // ----- expressions ---------------------------------------------------
    //
    // Below `parse_expr`, each level returns its expression with its
    // height. A nested operand is parsed one level deeper (`nested`), and
    // each node built is checked against `MAX_DEPTH` with its height.

    fn parse_expr(&mut self, c: &mut Cursor) -> Result<Expr> {
        Ok(self.parse_or(c)?.0)
    }

    fn parse_or(&mut self, c: &mut Cursor) -> Result<Parsed> {
        self.chain(c, Self::parse_and, |t| (*t == Tok::Or).then_some(BinOp::Or))
    }

    fn parse_and(&mut self, c: &mut Cursor) -> Result<Parsed> {
        self.chain(c, Self::parse_not, |t| {
            (*t == Tok::And).then_some(BinOp::And)
        })
    }

    fn parse_not(&mut self, c: &mut Cursor) -> Result<Parsed> {
        if c.eat(&Tok::Not) {
            return self.unary(c, UnOp::Not, Self::parse_not);
        }
        self.parse_rel(c)
    }

    fn parse_rel(&mut self, c: &mut Cursor) -> Result<Parsed> {
        let l = self.parse_addsub(c)?;
        let op = match c.peek() {
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            _ => return Ok(l),
        };
        c.bump();
        let r = self.parse_addsub(c)?;
        self.bin(c, op, l, r)
    }

    fn parse_addsub(&mut self, c: &mut Cursor) -> Result<Parsed> {
        self.chain(c, Self::parse_muldiv, |t| match t {
            Tok::Plus => Some(BinOp::Add),
            Tok::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_muldiv(&mut self, c: &mut Cursor) -> Result<Parsed> {
        self.chain(c, Self::parse_unary, |t| match t {
            Tok::Star => Some(BinOp::Mul),
            Tok::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    fn parse_unary(&mut self, c: &mut Cursor) -> Result<Parsed> {
        if c.eat(&Tok::Minus) {
            return self.unary(c, UnOp::Neg, Self::parse_unary);
        }
        if c.eat(&Tok::Plus) {
            return self.nested(c, Self::parse_unary);
        }
        self.parse_power(c)
    }

    fn parse_power(&mut self, c: &mut Cursor) -> Result<Parsed> {
        let base = self.parse_primary(c)?;
        if c.eat(&Tok::Pow) {
            // Right associative: the exponent is one level deeper, the
            // level of the node built over it.
            self.enter(c.line)?;
            let exp = self.parse_unary(c)?;
            self.depth -= 1;
            return self.bin(c, BinOp::Pow, base, exp);
        }
        Ok(base)
    }

    fn parse_primary(&mut self, c: &mut Cursor) -> Result<Parsed> {
        let leaf = match c.peek().cloned() {
            Some(Tok::Int(v)) => Expr::Int(v),
            Some(Tok::Real(v)) => Expr::Real(v),
            Some(Tok::True) => Expr::Logical(true),
            Some(Tok::False) => Expr::Logical(false),
            Some(Tok::LParen) => {
                c.bump();
                let e = self.nested(c, Self::parse_or)?;
                c.expect(&Tok::RParen)?;
                return Ok(e);
            }
            Some(Tok::Ident(name)) => {
                c.bump();
                let sym = self.sym(&name);
                if !c.eat(&Tok::LParen) {
                    return Ok((Expr::Var(sym), 0));
                }
                let mut subs = Vec::new();
                let mut height = 0;
                if !c.eat(&Tok::RParen) {
                    loop {
                        let (sub, h) = self.nested(c, Self::parse_or)?;
                        subs.push(sub);
                        height = height.max(h);
                        if c.eat(&Tok::RParen) {
                            break;
                        }
                        c.expect(&Tok::Comma)?;
                    }
                }
                // Array reference vs function/intrinsic call is decided
                // by sema; default to Element here.
                return Ok((Expr::Element { array: sym, subs }, height));
            }
            other => {
                return Err(FrontendError::at(
                    c.line,
                    format!("expected expression, found {other:?}"),
                ))
            }
        };
        c.bump();
        Ok((leaf, 0))
    }

    /// `operand` parsed one level deeper; the level counts in its height.
    fn nested(
        &mut self,
        c: &mut Cursor,
        operand: fn(&mut Self, &mut Cursor) -> Result<Parsed>,
    ) -> Result<Parsed> {
        self.enter(c.line)?;
        let (e, h) = operand(self, c)?;
        self.depth -= 1;
        Ok((e, h + 1))
    }

    /// `op` applied to `operand`, parsed one level deeper.
    fn unary(
        &mut self,
        c: &mut Cursor,
        op: UnOp,
        operand: fn(&mut Self, &mut Cursor) -> Result<Parsed>,
    ) -> Result<Parsed> {
        let (e, h) = self.nested(c, operand)?;
        Ok((Expr::Un { op, e: Box::new(e) }, h))
    }

    /// The node `l op r`, one level above the higher operand.
    fn bin(&mut self, c: &Cursor, op: BinOp, (l, hl): Parsed, (r, hr): Parsed) -> Result<Parsed> {
        let height = 1 + hl.max(hr);
        self.check_depth(c.line, height)?;
        let e = Expr::Bin {
            op,
            l: Box::new(l),
            r: Box::new(r),
        };
        Ok((e, height))
    }

    /// A left-associative chain `operand (op operand)*`, where `op_of`
    /// picks the chain's operators. Each operator nests the chain so far
    /// one level deeper.
    fn chain(
        &mut self,
        c: &mut Cursor,
        operand: fn(&mut Self, &mut Cursor) -> Result<Parsed>,
        op_of: fn(&Tok) -> Option<BinOp>,
    ) -> Result<Parsed> {
        let mut l = operand(self, c)?;
        while let Some(op) = c.peek().and_then(op_of) {
            c.bump();
            let r = operand(self, c)?;
            l = self.bin(c, op, l, r)?;
        }
        Ok(l)
    }
}

/// Token cursor over one line.
struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: u32,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }
    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }
    fn bump(&mut self) {
        self.pos += 1;
    }
    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(FrontendError::at(
                self.line,
                format!("expected {t:?}, found {:?}", self.peek()),
            ))
        }
    }
    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(FrontendError::at(
                self.line,
                format!("expected {what}, found {other:?}"),
            )),
        }
    }
    fn expect_int(&mut self, what: &str) -> Result<i64> {
        match self.peek() {
            Some(Tok::Int(v)) => {
                let v = *v;
                self.bump();
                Ok(v)
            }
            other => Err(FrontendError::at(
                self.line,
                format!("expected {what}, found {other:?}"),
            )),
        }
    }
    fn expect_end(&mut self) -> Result<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(FrontendError::at(
                self.line,
                format!("unexpected trailing tokens: {:?}", &self.toks[self.pos..]),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = r#"
      PROGRAM P1
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      do i = 1,95
        X(i) = 0.5 * X(i+5)
      enddo
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = 0.5 * X(i+5)
      enddo
      END
"#;

    #[test]
    fn parses_fig1_shape() {
        let p = parse_program(FIG1).unwrap();
        assert_eq!(p.units.len(), 2);
        assert_eq!(p.units[0].kind, UnitKind::Program);
        assert_eq!(p.units[1].kind, UnitKind::Subroutine);
        let main = &p.units[0];
        assert_eq!(main.decls.len(), 2); // X decl + parameter
                                         // Body: DISTRIBUTE, DO, CALL.
        assert_eq!(main.body.len(), 3);
        assert!(matches!(main.body[0].kind, StmtKind::Distribute { .. }));
        assert!(matches!(main.body[1].kind, StmtKind::Do { .. }));
        assert!(matches!(main.body[2].kind, StmtKind::Call { .. }));
    }

    #[test]
    fn do_loop_body_nested() {
        let p = parse_program(FIG1).unwrap();
        if let StmtKind::Do { body, .. } = &p.units[0].body[1].kind {
            assert_eq!(body.len(), 1);
            assert!(matches!(body[0].kind, StmtKind::Assign { .. }));
        } else {
            panic!("expected DO");
        }
    }

    #[test]
    fn labeled_do_with_continue() {
        let src = "
      SUBROUTINE S(a, n)
      REAL a(100)
      INTEGER n
      do 10 i = 1, n
        a(i) = 0.0
 10   continue
      END
";
        let p = parse_program(src).unwrap();
        let body = &p.units[0].body;
        assert_eq!(body.len(), 1);
        if let StmtKind::Do { body, .. } = &body[0].kind {
            assert_eq!(body.len(), 2); // assign + continue
        } else {
            panic!("expected DO, got {:?}", body[0].kind);
        }
    }

    #[test]
    fn shared_closing_label_closes_nested_loops() {
        let src = "
      SUBROUTINE S(a)
      REAL a(10,10)
      do 20 i = 1, 10
      do 20 j = 1, 10
        a(i,j) = 0.0
 20   continue
      END
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.units[0].body.len(), 1);
        if let StmtKind::Do { body, .. } = &p.units[0].body[0].kind {
            assert_eq!(body.len(), 1);
            assert!(matches!(body[0].kind, StmtKind::Do { .. }));
        } else {
            panic!("expected outer DO");
        }
    }

    #[test]
    fn block_if_else() {
        let src = "
      SUBROUTINE S(x)
      REAL x(10)
      if (x(1) .gt. 0.0) then
        x(2) = 1.0
      else
        x(2) = 2.0
      endif
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::If {
            then_body,
            else_body,
            ..
        } = &p.units[0].body[0].kind
        {
            assert_eq!(then_body.len(), 1);
            assert_eq!(else_body.len(), 1);
        } else {
            panic!("expected IF");
        }
    }

    #[test]
    fn logical_if_desugars() {
        let src = "
      SUBROUTINE S(x, p)
      REAL x(10)
      INTEGER p
      if (p .gt. 0) x(1) = 3.0
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::If {
            then_body,
            else_body,
            ..
        } = &p.units[0].body[0].kind
        {
            assert_eq!(then_body.len(), 1);
            assert!(else_body.is_empty());
        } else {
            panic!("expected IF");
        }
    }

    #[test]
    fn align_with_transpose() {
        let src = "
      PROGRAM P
      REAL X(100,100), Y(100,100)
      ALIGN Y(i,j) with X(j,i)
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::Align { perm, offset, .. } = &p.units[0].body[0].kind {
            assert_eq!(perm, &vec![1, 0]);
            assert_eq!(offset, &vec![0, 0]);
        } else {
            panic!("expected ALIGN");
        }
    }

    #[test]
    fn align_with_offset() {
        let src = "
      PROGRAM P
      REAL X(100)
      DECOMPOSITION D(110)
      ALIGN X(i) with D(i+10)
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::Align { perm, offset, .. } = &p.units[0].body[0].kind {
            assert_eq!(perm, &vec![0]);
            assert_eq!(offset, &vec![10]);
        } else {
            panic!("expected ALIGN");
        }
    }

    #[test]
    fn distribute_kinds() {
        let src = "
      PROGRAM P
      REAL X(100,100)
      DISTRIBUTE X(BLOCK,:)
      DISTRIBUTE X(:,CYCLIC)
      DISTRIBUTE X(BLOCK_CYCLIC(4),:)
      DISTRIBUTE X(CYCLIC(8),:)
      END
";
        let p = parse_program(src).unwrap();
        let kinds = |i: usize| -> Vec<DistKind> {
            if let StmtKind::Distribute { kinds, .. } = &p.units[0].body[i].kind {
                kinds.clone()
            } else {
                panic!("expected DISTRIBUTE")
            }
        };
        assert_eq!(kinds(0), vec![DistKind::Block, DistKind::Serial]);
        assert_eq!(kinds(1), vec![DistKind::Serial, DistKind::Cyclic]);
        assert_eq!(kinds(2), vec![DistKind::BlockCyclic(4), DistKind::Serial]);
        assert_eq!(kinds(3), vec![DistKind::BlockCyclic(8), DistKind::Serial]);
    }

    #[test]
    fn decomposition_declaration() {
        let src = "
      PROGRAM P
      DECOMPOSITION D(100,100)
      END
";
        let p = parse_program(src).unwrap();
        assert!(matches!(p.units[0].decls[0], Decl::Decomposition { .. }));
    }

    #[test]
    fn expression_precedence() {
        let src = "
      PROGRAM P
      INTEGER x
      x = 1 + 2 * 3
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[0].kind {
            // 1 + (2*3)
            if let Expr::Bin {
                op: BinOp::Add, r, ..
            } = rhs
            {
                assert!(matches!(**r, Expr::Bin { op: BinOp::Mul, .. }));
            } else {
                panic!("expected Add at top");
            }
        }
    }

    #[test]
    fn min_call_parses_as_element() {
        let src = "
      PROGRAM P
      INTEGER x
      x = min((my$p+1)*25, 95)
      END
";
        let p = parse_program(src).unwrap();
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[0].kind {
            assert!(matches!(rhs, Expr::Element { subs, .. } if subs.len() == 2));
        }
    }

    #[test]
    fn unterminated_unit_errors() {
        assert!(parse_program("PROGRAM P\n x = 1\n").is_err());
    }

    #[test]
    fn enddo_without_do_errors() {
        assert!(parse_program("PROGRAM P\n enddo\n END").is_err());
    }

    #[test]
    fn call_without_args() {
        let p = parse_program("PROGRAM P\n call init\n END").unwrap();
        assert!(
            matches!(p.units[0].body[0].kind, StmtKind::Call { ref args, .. } if args.is_empty())
        );
    }

    #[test]
    fn print_statement() {
        let p = parse_program("PROGRAM P\n INTEGER i\n i = 1\n print *, 'x =', i\n END").unwrap();
        assert!(matches!(p.units[0].body[1].kind, StmtKind::Print { ref args } if args.len() == 1));
    }

    /// A one-statement program assigning `rhs`.
    fn assign(rhs: &str) -> Result<SourceProgram> {
        parse_program(&format!("PROGRAM P\n x = {rhs}\n END"))
    }

    #[test]
    fn chain_depth_adds_up_through_parentheses() {
        // Each operator of a left-associative chain nests everything before
        // it one level deeper: a parenthesized 64-addition chain followed
        // by `n` more additions, all in parentheses, is 1 + 65 + n levels.
        let group = format!("(1.0{})", " + 1.0".repeat(64));
        let rhs = |n: usize| format!("({group}{})", " + 1.0".repeat(n));
        assert!(assign(&rhs(MAX_DEPTH - 66)).is_ok());
        let e = assign(&rhs(MAX_DEPTH - 65)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e:?}");
    }

    #[test]
    fn width_is_not_depth() {
        let args = vec!["1"; 1000].join(",");
        let src = format!("PROGRAM P\n x = a({args})\n call f({args})\n END");
        assert!(parse_program(&src).is_ok());
    }

    #[test]
    fn stmt_ids_are_unique() {
        let p = parse_program(FIG1).unwrap();
        let mut ids = std::collections::HashSet::new();
        for u in &p.units {
            for s in u.walk() {
                assert!(ids.insert(s.id), "duplicate id {:?}", s.id);
            }
        }
    }
}

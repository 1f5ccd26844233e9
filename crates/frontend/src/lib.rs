//! # fortrand-frontend
//!
//! Front end for the Fortran 77 + Fortran D subset the compiler accepts:
//!
//! * [`lexer`] — line-oriented tokenizer (case-insensitive keywords,
//!   `.LT.`-style and modern relational operators, `&` continuations,
//!   `C`/`!`/`*` comments).
//! * [`ast`] — the abstract syntax tree. Statements carry stable
//!   [`ast::StmtId`]s that analysis results are keyed on.
//! * [`parser`] — recursive-descent parser producing a [`ast::SourceProgram`].
//! * [`sema`] — semantic analysis: symbol tables, type checking, constant
//!   folding of `PARAMETER`s, array-extent resolution, call-arity checks,
//!   affine classification of subscripts, and the Fortran D legality rules
//!   (e.g. no dynamic decomposition of aliased variables, §6.4).
//!
//! The supported language is exactly what the paper's programs (Figures 1,
//! 4, 15), the dgefa case study and the benchmark generators need; see
//! DESIGN.md §2 for the subset argument.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use ast::{Decl, Expr, LValue, ProcUnit, SourceProgram, Stmt, StmtId, StmtKind, UnitKind};
pub use error::{FrontendError, Result};
pub use parser::parse_program;
pub use sema::{analyze, ProgramInfo};

/// Convenience: parse + analyze in one call.
pub fn load_program(source: &str) -> Result<(SourceProgram, ProgramInfo)> {
    let mut prog = parse_program(source)?;
    let info = analyze(&mut prog)?;
    Ok((prog, info))
}

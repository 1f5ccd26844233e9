//! # fortrand-spmd
//!
//! The *output* language of the Fortran D compiler: SPMD node programs with
//! explicit message passing, plus a pretty printer (for the paper's figure
//! reproductions) and an interpreter that executes node programs on the
//! [`fortrand_machine`] simulator.
//!
//! A [`ir::SpmdProgram`] is what every compilation strategy produces:
//!
//! * the **interprocedural** strategy emits reduced loop bounds, guards
//!   hoisted to callers, and vectorized section sends/recvs (paper Fig. 10);
//! * the **immediate-instantiation** strategy emits the same constructs but
//!   confined inside each procedure (Fig. 12);
//! * the **run-time resolution** strategy emits per-element ownership tests
//!   and element messages (Fig. 3).
//!
//! The interpreter charges computation and communication to the simulated
//! machine's virtual clocks, so `Machine::run` of an interpreted program
//! yields the execution time, message count and volume that the benchmark
//! harness reports.
//!
//! Three [`ExecBackend`]s execute node programs — the bytecode VM
//! (default; programs are flattened by `lower`, once per compiled program
//! when a [`LoweredProgram`] keeps the result, and run by `vm`), the
//! reference tree-walker ([`interp`]), and the native backend
//! ([`codegen`]), which pretty-prints the program as standalone Rust,
//! builds it with `rustc` against the `fortrand-shim` runtime crate, and
//! runs it for real. All three produce identical program-defined
//! observables; pick one with [`ExecOptions::backend`].

#![deny(unsafe_code)]

pub mod codegen;
pub mod interp;
pub mod ir;
mod lower;
pub mod opt;
pub mod print;
pub mod rewrite;
mod runtime;
mod vm;

pub use codegen::Native;
pub use ir::{
    DistId, SActual, SBinOp, SDecl, SExpr, SIntr, SLval, SProc, SRect, SStmt, SpmdProgram,
};
pub use opt::{optimize, CommOpt, OptReport};
pub use print::pretty;
pub use runtime::{
    try_run_spmd, Bytecode, ExecBackend, ExecError, ExecOptions, LoweredProgram, MachineKind,
    RankFailure, RunOutcome, Tree,
};

// Compile-time thread-safety audit: compiled node programs are cached in
// the shared artifact store and executed from server threads, so the IR,
// its stored bytecode (and a rank failure carried across a join) must
// stay Send + Sync.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<ir::SpmdProgram>();
const _: () = assert_send_sync::<runtime::LoweredProgram>();
const _: () = assert_send_sync::<runtime::RunOutcome>();
const _: () = assert_send_sync::<runtime::ExecOptions>();
const _: () = assert_send_sync::<runtime::ExecError>();
const _: () = assert_send_sync::<runtime::RankFailure>();

//! # fortrand — the Fortran D interprocedural compiler
//!
//! Compiles Fortran D source (Fortran 77 subset + `DECOMPOSITION` /
//! `ALIGN` / `DISTRIBUTE`) into SPMD message-passing node programs for a
//! MIMD distributed-memory machine, reproducing the interprocedural
//! compilation system of Hall, Hiranandani, Kennedy & Tseng (SC'92).
//!
//! ## Strategies
//!
//! The same pipeline supports the three compilation strategies the paper
//! compares:
//!
//! * [`Strategy::Interprocedural`] — the paper's contribution: reaching
//!   decompositions with procedure cloning, delayed instantiation of the
//!   computation partition / communication / dynamic data decomposition,
//!   interprocedural message vectorization, and overlap propagation.
//! * [`Strategy::Immediate`] — every residual is instantiated inside the
//!   procedure where it arises (Fig. 12's inferior code: per-invocation
//!   messages, guards instead of caller-side bounds reduction).
//! * [`Strategy::RuntimeResolution`] — per-reference ownership tests and
//!   element messages (Fig. 3), the fallback when compile-time placement
//!   knowledge is unavailable.
//!
//! ## Quick start
//!
//! ```
//! use fortrand::{Session, Strategy};
//!
//! let result = Session::new(fortrand_analysis::fixtures::FIG1)
//!     .strategy(Strategy::Interprocedural)
//!     .compile()
//!     .unwrap()
//!     .run(&Default::default())
//!     .unwrap();
//! assert!(result.stats.time_us > 0.0);
//! ```
//!
//! Pass a [`fortrand_trace::TraceSink`] to [`Session::trace`] — e.g. a
//! [`ChromeTraceSink`] over a file — and the same run additionally yields
//! a timeline of compile phases and simulated per-rank messages.

#![forbid(unsafe_code)]

pub mod cloning;
pub mod codegen;
pub mod corpus;
pub mod driver;
pub mod dynamic_decomp;
mod incremental;
mod local;
pub mod model;
pub mod overlap;
mod reads;
pub mod recompile;
pub mod seq;
pub mod session;
pub mod store;

pub use driver::{
    record_exec_stats, CompileError, CompileMode, CompileOptions, CompileOptionsBuilder,
    CompileOutput, CompileReport,
};
pub use fortrand_spmd::codegen::rustc_available;
pub use fortrand_spmd::opt::{CommOpt, OptReport};
pub use fortrand_spmd::{
    try_run_spmd, Bytecode, ExecBackend, ExecError, ExecOptions, MachineKind, Native, RankFailure,
    RunOutcome, Tree,
};
pub use fortrand_trace::{
    json, ChromeTraceSink, JsonLinesSink, MemorySink, Trace, TraceSink, PID_COMPILE, PID_MACHINE,
};
pub use model::{DynOptLevel, Strategy};
pub use seq::run_sequential;
pub use session::{Compiled, Error, Session};
pub use store::{ArtifactKey, ArtifactStore, StoreStats};

// Compile-time thread-safety audit: the compile-as-a-service stack hands
// these types across threads (server sessions, the shared artifact
// store), so losing Send/Sync on any of them is an API break. A `!Send`
// field added by accident fails the build right here instead of at some
// distant spawn site.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<session::Session>();
const _: () = assert_send_sync::<session::Compiled>();
const _: () = assert_send_sync::<store::ArtifactStore>();
const _: () = assert_send_sync::<store::StoreStats>();
const _: () = assert_send_sync::<driver::CompileOptions>();
const _: () = assert_send_sync::<driver::CompileReport>();

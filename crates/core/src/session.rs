//! The `Session` facade: one fluent entry point for the whole pipeline.
//!
//! A [`Session`] bundles the three things every driver invocation needs —
//! the source text, the [`CompileOptions`], and an (optional)
//! [`fortrand_trace::Trace`] — behind a builder, compiles to a
//! [`Compiled`] program, and lets the caller inspect the report, emit the
//! pretty-printed node program, or run it on the simulated machine:
//!
//! ```
//! use fortrand::{Session, Strategy};
//!
//! let compiled = Session::new(fortrand_analysis::fixtures::FIG1)
//!     .strategy(Strategy::Interprocedural)
//!     .nprocs(4)
//!     .compile()
//!     .unwrap();
//! let out = compiled.run(&Default::default()).unwrap();
//! assert!(out.stats.time_us > 0.0);
//! ```
//!
//! Attach a [`fortrand_trace::TraceSink`] with [`Session::trace`] and the
//! same handle follows the program onto the simulated machine, so compile
//! phases and per-rank message events land in one timeline.
//!
//! The session is also the handle over the shared compile state: bind an
//! [`ArtifactStore`] with [`Session::store`], hand the previous compile's
//! [`ModuleDb`] to [`Session::previous`], and the same compile reuses
//! every unit whose content the store already holds and names the §8
//! reason for each unit it regenerates ([`Compiled::recompiled`],
//! [`Compiled::reused`]).

use crate::driver::{
    self, CompileError, CompileMode, CompileOptions, CompileOutput, CompileReport,
};
use crate::model::{DynOptLevel, Strategy};
use crate::recompile::{ModuleDb, Reason};
use crate::store::ArtifactStore;
use fortrand_ir::Sym;
use fortrand_machine::{Machine, RankFailure};
use fortrand_spmd::ir::SpmdProgram;
use fortrand_spmd::opt::CommOpt;
use fortrand_spmd::print::pretty_all;
use fortrand_spmd::{ExecError, ExecOptions, LoweredProgram, RunOutcome};
use fortrand_trace::{Trace, TraceSink};
use std::collections::BTreeMap;

/// Any failure the facade can produce, with [`std::error::Error`] sources.
///
/// Non-exhaustive: new variants may appear as the pipeline grows; match
/// with a `_` arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Compilation failed (front end, interprocedural analysis, codegen).
    Compile(CompileError),
    /// Execution failed: a rank panicked (in a simulator or inside the
    /// natively compiled node program), or the backend itself could not
    /// run the program (e.g. no `rustc` for the native backend).
    Exec(ExecError),
    /// Trace sink I/O failed on flush.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile: {e}"),
            Error::Exec(e) => write!(f, "execution: {e}"),
            Error::Io(e) => write!(f, "trace output: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<RankFailure> for Error {
    fn from(e: RankFailure) -> Error {
        Error::Exec(ExecError::Rank(e))
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Error {
        Error::Exec(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

/// Builder for one compile-and-run pipeline over a source text.
///
/// A session is a *cheap handle*: attach a shared [`ArtifactStore`] with
/// [`Session::store`] and this compile reuses any unit — by content — that
/// any other session bound to the same store already compiled.
#[derive(Debug)]
pub struct Session {
    source: String,
    opts: CompileOptions,
    trace: Trace,
    store: Option<std::sync::Arc<ArtifactStore>>,
    prev: ModuleDb,
}

impl Session {
    /// Starts a session over `source` with default options and no tracing.
    pub fn new(source: impl Into<String>) -> Session {
        Session {
            source: source.into(),
            opts: CompileOptions::default(),
            trace: Trace::off(),
            store: None,
            prev: ModuleDb::default(),
        }
    }

    /// Replaces the whole option set at once.
    pub fn options(mut self, opts: CompileOptions) -> Session {
        self.opts = opts;
        self
    }

    /// Selects the compilation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Session {
        self.opts.strategy = strategy;
        self
    }

    /// Sets the processor count (defaults to the machine description's).
    pub fn nprocs(mut self, nprocs: usize) -> Session {
        self.opts.nprocs = Some(nprocs);
        self
    }

    /// Sets the dynamic-decomposition optimization level.
    pub fn dyn_opt(mut self, dyn_opt: DynOptLevel) -> Session {
        self.opts.dyn_opt = dyn_opt;
        self
    }

    /// Caps procedure cloning (paper §5's goal-directed clone limit).
    pub fn clone_limit(mut self, clone_limit: usize) -> Session {
        self.opts.clone_limit = clone_limit;
        self
    }

    /// Does nothing: code generation is one pass in reverse topological
    /// order. Kept until the re-baseline (ROADMAP item 12) drops the
    /// benchmark's `core.codegen_par` stage, which calls it.
    pub fn mode(self, _mode: CompileMode) -> Session {
        self
    }

    /// Sets the communication-optimization level.
    pub fn comm_opt(mut self, comm_opt: CommOpt) -> Session {
        self.opts.comm_opt = comm_opt;
        self
    }

    /// Binds this session to a shared content-addressed artifact store:
    /// units already compiled by any session sharing it are grafted
    /// instead of recompiled, and this compile's artifacts become hits
    /// for everyone else. The resulting report carries the store counters
    /// in [`CompileReport::store`] and `pass_stats`.
    pub fn store(mut self, store: std::sync::Arc<ArtifactStore>) -> Session {
        self.store = Some(store);
        self
    }

    /// Hands over the previous compile's database
    /// ([`ModuleDb::from_report`], or one persisted as JSON): each unit
    /// this compile regenerates is then labelled with the paper's §8
    /// reason — own source changed, consumed facts changed, or new —
    /// instead of all being new. A database made under other
    /// code-shaping options is ignored. Reasons only: what is *reused*
    /// is decided by the store's content keys.
    pub fn previous(mut self, db: ModuleDb) -> Session {
        self.prev = db;
        self
    }

    /// Attaches a trace sink: every later phase of this session — compile
    /// and simulated execution — emits structured events into it.
    pub fn trace(mut self, sink: impl TraceSink + Send + 'static) -> Session {
        self.trace = Trace::new(sink);
        self
    }

    /// Runs the compiler, then lowers the node program to the bytecode
    /// its runs execute. The returned [`Compiled`] keeps the trace handle
    /// so subsequent [`Compiled::run`] calls land in the same timeline.
    pub fn compile(self) -> Result<Compiled, Error> {
        let out = driver::compile(
            &self.source,
            &self.opts,
            &self.trace,
            self.store.as_deref(),
            &self.prev,
        )?;
        Ok(Compiled {
            code: LoweredProgram::new(&out.spmd),
            out,
            trace: self.trace,
        })
    }
}

/// A compiled program: report access, emission, and simulated execution.
///
/// It owns the node program's fused bytecode, lowered by
/// [`Session::compile`], so a run on the default bytecode backend only
/// executes. The unfused form (`ExecOptions::kernels(false)`) is lowered
/// on the first run that asks for it and kept too.
#[derive(Debug)]
pub struct Compiled {
    out: CompileOutput,
    code: LoweredProgram,
    trace: Trace,
}

impl Compiled {
    /// Compilation statistics and recompilation bookkeeping.
    pub fn report(&self) -> &CompileReport {
        &self.out.report
    }

    /// The SPMD node program.
    pub fn spmd(&self) -> &SpmdProgram {
        &self.out.spmd
    }

    /// Units whose code this compile generated, with the §8 reason judged
    /// against [`Session::previous`] — every unit, unless a
    /// [`Session::store`] answered some.
    pub fn recompiled(&self) -> &BTreeMap<String, Reason> {
        &self.out.recompiled
    }

    /// Units whose code came out of the artifact store.
    pub fn reused(&self) -> &[String] {
        &self.out.reused
    }

    /// Pretty-prints every procedure of the node program (the paper-figure
    /// renderer).
    pub fn emit(&self) -> String {
        pretty_all(&self.out.spmd)
    }

    /// The trace handle threaded through compilation and execution.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs the program on a simulated machine with default execution
    /// options. `init` supplies initial global values for arrays declared
    /// in the entry unit.
    pub fn run(&self, init: &BTreeMap<Sym, Vec<f64>>) -> Result<RunOutcome, Error> {
        self.run_with(init, &ExecOptions::new())
    }

    /// Like [`Compiled::run`], with explicit execution options (engine and
    /// execution-substrate selection — `ExecOptions::machine` picks the
    /// event scheduler or the thread-per-rank reference). The session's
    /// trace handle rides along onto the machine, so per-rank message
    /// events join the compile timeline.
    pub fn run_with(
        &self,
        init: &BTreeMap<Sym, Vec<f64>>,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, Error> {
        let machine = Machine::new(self.out.spmd.nprocs).with_trace(self.trace.clone());
        Ok(self.code.run(&self.out.spmd, &machine, init, opts)?)
    }

    /// Flushes the trace sink (writes the Chrome-trace closing bracket,
    /// reports deferred I/O errors). Idempotent; a no-op when tracing is
    /// off.
    pub fn finish_trace(&self) -> Result<(), Error> {
        Ok(self.trace.finish()?)
    }

    /// Unwraps into the raw [`CompileOutput`].
    pub fn into_output(self) -> CompileOutput {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_analysis::fixtures::FIG1;

    #[test]
    fn session_run_produces_time() {
        let out = Session::new(FIG1)
            .nprocs(4)
            .compile()
            .unwrap()
            .run(&BTreeMap::new())
            .unwrap();
        assert!(out.stats.time_us > 0.0);
    }

    #[test]
    fn shared_store_sessions_reuse_each_others_artifacts() {
        let store = ArtifactStore::shared();
        let a = Session::new(FIG1).store(store.clone()).compile().unwrap();
        let b = Session::new(FIG1).store(store.clone()).compile().unwrap();
        assert_eq!(a.emit(), b.emit());
        // The second session never compiled anything before, yet every
        // unit was a content hit from the first session's work.
        let st = b.report().store.expect("store-backed compile");
        assert!(st.hits > 0, "{st:?}");
        // And the store-backed output matches a plain compile.
        let plain = Session::new(FIG1).compile().unwrap();
        assert_eq!(b.emit(), plain.emit());
    }

    #[test]
    fn error_display_and_source() {
        let err = Session::new("garbage ( not fortran").compile().unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
        let msg = format!("{err}");
        assert!(msg.starts_with("compile:"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }
}

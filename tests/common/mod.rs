//! Helpers shared by the root integration tests (`mod common;`) and, through
//! a `#[path]` include, by the `fortrand-bench` harness: the call shapes the
//! suites were written against, routed through the `Session` facade.
#![allow(dead_code)]

use fortrand::recompile::ModuleDb;
use fortrand::{ArtifactStore, CompileOutput};
use fortrand_machine::Machine;
use fortrand_spmd::{try_run_spmd, ExecOptions, RunOutcome, SpmdProgram};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One compile through [`fortrand::Session`], unwrapped to the raw output.
/// The callers compile only, so any non-compile session error is a harness
/// bug and panics.
pub fn compile(
    source: &str,
    opts: &fortrand::CompileOptions,
) -> Result<CompileOutput, fortrand::CompileError> {
    match fortrand::Session::new(source)
        .options(opts.clone())
        .compile()
    {
        Ok(compiled) => Ok(compiled.into_output()),
        Err(fortrand::Error::Compile(e)) => Err(e),
        Err(e) => panic!("compile-only session hit a non-compile error: {e}"),
    }
}

/// Runs `prog` on the default backend, panicking with the rank failure if
/// one occurs.
pub fn run_spmd(
    prog: &SpmdProgram,
    machine: &Machine,
    init: &BTreeMap<fortrand_ir::Sym, Vec<f64>>,
) -> RunOutcome {
    try_run_spmd(prog, machine, init, &ExecOptions::new()).unwrap_or_else(|f| panic!("{f}"))
}

/// An edit → compile chain driven the way the daemon drives a client
/// session: every compile goes through the same artifact store and is
/// handed the previous compile's database, so its §8 reasons are judged
/// against the compile before it. The default chain has a private store
/// (its first compile generates every unit).
#[derive(Default)]
pub struct Chain {
    store: Arc<ArtifactStore>,
    prev: ModuleDb,
}

impl Chain {
    /// A chain over `store`, which other chains may share.
    pub fn over(store: Arc<ArtifactStore>) -> Chain {
        Chain {
            store,
            prev: ModuleDb::default(),
        }
    }

    /// The next compile of the chain; panics on a compile error.
    pub fn compile(&mut self, source: &str, opts: &fortrand::CompileOptions) -> CompileOutput {
        let out = fortrand::Session::new(source)
            .options(opts.clone())
            .store(Arc::clone(&self.store))
            .previous(std::mem::take(&mut self.prev))
            .compile()
            .unwrap_or_else(|e| panic!("{e}"))
            .into_output();
        self.prev = ModuleDb::from_report(&out.report);
        out
    }
}

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

/// The sequential oracle's final arrays for `src` from `init`, both keyed
/// by source name.
pub fn oracle(src: &str, init: &BTreeMap<String, Vec<f64>>) -> BTreeMap<String, Vec<f64>> {
    let (prog, info) = fortrand_frontend::load_program(src).unwrap_or_else(|e| panic!("{e}"));
    let init = (init.iter())
        .map(|(name, data)| (prog.interner.get(name).unwrap(), data.clone()))
        .collect();
    (fortrand::run_sequential(&prog, &info, &init)
        .arrays
        .into_iter())
    .map(|(sym, data)| (prog.interner.name(sym).to_string(), data))
    .collect()
}

/// Panics unless `got` holds exactly the arrays of the oracle's `want`,
/// each element within 1e-9 of the oracle's (relative above 1); a NaN
/// never is.
pub fn assert_matches_oracle(
    got: &BTreeMap<String, Vec<f64>>,
    want: &BTreeMap<String, Vec<f64>>,
    ctx: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{ctx}: array inventory differs from the oracle's"
    );
    for (name, expect) in want {
        let got = &got[name];
        assert_eq!(got.len(), expect.len(), "{ctx}: len of {name}");
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            // Written as "not close" so that a NaN is a mismatch too.
            let close = (g - e).abs() <= 1e-9 * e.abs().max(1.0);
            assert!(close, "{ctx}: {name}[{i}] = {g}, oracle {e}");
        }
    }
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
        self.try_compile(source, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The next compile of the chain, or its compile error as the clean
    /// compile's [`compile`] renders it; a failed compile leaves the
    /// chain as it was.
    pub fn try_compile(
        &mut self,
        source: &str,
        opts: &fortrand::CompileOptions,
    ) -> Result<CompileOutput, String> {
        let out = fortrand::Session::new(source)
            .options(opts.clone())
            .store(Arc::clone(&self.store))
            .previous(self.prev.clone())
            .compile()
            .map_err(|e| match e {
                fortrand::Error::Compile(e) => e.to_string(),
                e => panic!("compile-only session hit a non-compile error: {e}"),
            })?
            .into_output();
        self.prev = out.report.db.clone();
        Ok(out)
    }

    /// The chain's store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }
}

/// Two loops read the pinned slice `a(:,3)` of a column-distributed array
/// with a call that writes every element of `a` between them. A broadcast
/// hoisted above both loops would hand the second loop stale values.
pub const CALL_WRITES_PINNED_SLICE: &str = "
      PROGRAM p
      PARAMETER (n$proc = 4)
      REAL a(16,16), b(16), c(16)
      DISTRIBUTE a(:,BLOCK)
      do i = 1, 16
        b(i) = a(i,3)
      enddo
      call bump(a)
      do i = 1, 16
        c(i) = a(i,3)
      enddo
      END
      SUBROUTINE bump(a)
      REAL a(16,16)
      do j = 1, 16
        do i = 1, 16
          a(i,j) = a(i,j) + 1.0
        enddo
      enddo
      END
";

/// The real literals generated programs draw their coefficients from.
pub const COEFFS: [&str; 4] = ["0.5", "0.25", "1.5", "2.0"];

/// One call of a generated chain: `call s{c}(a{src}, a{dst})`, where the
/// subroutine reads `u(i+shift)` into `v(i)`, with `write_back` then
/// updates `u` in place from `v`, and with `tail` finally bumps `v(i)`:
/// a read of the DO variable after its partitioned loops.
#[derive(Debug, Clone)]
pub struct Link {
    pub src: usize,
    pub dst: usize,
    pub shift: i64,
    pub coeff: usize,
    pub write_back: bool,
    pub tail: bool,
}

/// A main program calling one subroutine per link over `k` BLOCK arrays.
/// Every shifted read is an exchange the caller places before the call;
/// the later links read and write arrays the earlier ones exchanged, so
/// the exchanges aggregate only as far as the writes between allow.
pub fn render_chain(n: i64, nprocs: usize, k: usize, links: &[Link]) -> String {
    let arrays: Vec<String> = (0..k).map(|a| format!("a{a}({n})")).collect();
    let mut main = format!(
        "      PROGRAM main\n      PARAMETER (n$proc = {nprocs})\n      REAL {}\n",
        arrays.join(", ")
    );
    let mut subs = String::new();
    for a in 0..k {
        main.push_str(&format!("      DISTRIBUTE a{a}(BLOCK)\n"));
    }
    for (c, l) in links.iter().enumerate() {
        main.push_str(&format!("      call s{c}(a{}, a{})\n", l.src, l.dst));
        let (lo, hi) = ((1 - l.shift).max(1), (n - l.shift).min(n));
        let coeff = COEFFS[l.coeff % COEFFS.len()];
        subs.push_str(&format!(
            "      SUBROUTINE s{c}(u, v)\n      REAL u({n}), v({n})\n      do i = {lo}, {hi}\n        v(i) = v(i) + {coeff} * u(i+{})\n      enddo\n",
            l.shift
        ));
        if l.write_back {
            subs.push_str(&format!(
                "      do i = 1, {n}\n        u(i) = u(i) - 0.5 * v(i)\n      enddo\n"
            ));
        }
        if l.tail {
            subs.push_str("      v(i) = v(i) + 1.0\n");
        }
        subs.push_str("      END\n");
    }
    main.push_str("      END\n");
    main + &subs
}

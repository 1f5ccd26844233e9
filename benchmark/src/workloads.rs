//! The four pipeline workloads: inputs, the sequential oracle, and one
//! untraced iteration from source string to verified arrays.
//!
//! Everything here goes through the facade only — `Session`, `Compiled`,
//! `ExecOptions::new()`, `ArtifactStore::shared`, `corpus::*`,
//! `load_program`, `run_sequential` — so the gated numbers measure what a
//! user of the library calls. Deep calls live in `layers.rs`.

use fortrand::{corpus, run_sequential, ArtifactStore, Compiled, ExecOptions, Session};
use fortrand_frontend::load_program;
use fortrand_ir::Sym;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order a full run visits them. Later issues
/// refer to these names; do not rename them. (`relax_p256` is the
/// issue's `relax_p2048` at a rank count this host measures steadily; see
/// README.md.)
pub const DGEFA: &str = "dgefa_n256_p8";
pub const RELAX: &str = "relax_p256";
pub const ADI: &str = "adi_n256_p8";
pub const WIDE: &str = "wide_u300";
pub const SERVE: &str = "serve_edit_loop";
pub const ALL: [&str; 5] = [DGEFA, RELAX, ADI, WIDE, SERVE];

/// Leaves of the wide corpus (plus the main program: 301 units).
const WIDE_LEAVES: usize = 300;
/// Coefficients an edited leaf can take: 0.2501, 0.2502, … 0.4500.
const EDIT_COEFS: usize = 2000;

/// splitmix64: the seed drives generated inputs only.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.unit()).collect()
    }
}

/// The generated inputs of one pipeline workload.
pub struct Program {
    pub name: &'static str,
    pub src: String,
    /// Initial contents of main-program arrays, by name, row-major.
    pub init: Vec<(String, Vec<f64>)>,
    /// `wide_u300` only: the leaf whose coefficient the recompile half
    /// edits and the first of the coefficients it takes. The other
    /// workloads recompile their unchanged source.
    pub edit: Option<(usize, usize)>,
}

/// dgefa on an `n × n` matrix over 8 processors. Entries in [-1, 1) under
/// a diagonal of ±2n: strictly diagonally dominant by rows and by
/// columns, so the pivot is always the diagonal and the counters do not
/// depend on the seed.
pub fn dgefa_program(n: usize, seed: u64) -> Program {
    let mut rng = Rng(seed);
    let mut a = rng.vec(n * n);
    for i in 0..n {
        let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        a[i * n + i] += sign * 2.0 * n as f64;
    }
    Program {
        name: DGEFA,
        src: corpus::dgefa_source(n as i64, 8),
        init: vec![("a".to_string(), a)],
        edit: None,
    }
}

pub fn program(name: &str, seed: u64) -> Option<Program> {
    let mut rng = Rng(seed);
    let (name, src, init, edit) = match name {
        DGEFA => return Some(dgefa_program(256, seed)),
        RELAX => {
            let x = rng.vec(4096);
            (
                RELAX,
                corpus::relax_source(4096, 1, 160, 256),
                vec![("x".to_string(), x)],
                None,
            )
        }
        ADI => {
            let a = rng.vec(256 * 256);
            (
                ADI,
                corpus::adi_source(256, 4, 8),
                vec![("a".to_string(), a)],
                None,
            )
        }
        WIDE => {
            // Arrays start at zero: with other inputs the node program of
            // this corpus disagrees with the sequential interpreter (see
            // README.md, "A miscompile this benchmark found"), and a
            // benchmark workload must be one on which no operation fails.
            let edit = (rng.below(WIDE_LEAVES), rng.below(EDIT_COEFS));
            (
                WIDE,
                corpus::wide_corpus(WIDE_LEAVES, 256, 4),
                Vec::new(),
                Some(edit),
            )
        }
        _ => return None,
    };
    Some(Program {
        name,
        src,
        init,
        edit,
    })
}

/// `text` with the first `find` after the first `head` replaced.
fn replace_first_after(text: &str, head: &str, find: &str, replace: &str) -> String {
    let at = text.find(head).expect("the seeded leaf is in the text");
    format!("{}{}", &text[..at], text[at..].replacen(find, replace, 1))
}

/// The `k`-th edit of leaf `leaf`: its first coefficient becomes one that
/// none of the last `EDIT_COEFS` edits used, so exactly one unit is new
/// to the store each time. Returns the edited source and the coefficient
/// as the node program prints it.
pub fn edit_leaf(src: &str, leaf: usize, k: usize) -> (String, String) {
    let coef = format!("{}", (2501 + k % EDIT_COEFS) as f64 / 10000.0);
    let head = format!("SUBROUTINE sweep{leaf}(");
    let edited = replace_first_after(src, &head, "0.5 * (u(i)", &format!("{coef} * (u(i)"));
    (edited, coef)
}

/// What the node program of `edit_leaf`'s source must look like, given
/// the node program of the unedited source.
fn expected_edited_emit(base_emit: &str, leaf: usize, coef: &str) -> String {
    let head = format!("SUBROUTINE SWEEP{leaf}(");
    replace_first_after(base_emit, &head, "0.5*(U(i)", &format!("{coef}*(U(i)"))
}

/// The counters of the generated code on the modelled machine, and the
/// size of the node program: exact for a fixed program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exact {
    pub model_time_us: f64,
    pub msgs: u64,
    pub bytes: u64,
    pub node_prog_bytes: usize,
}

/// Wall times of one iteration, in ms.
#[derive(Clone, Copy, Debug)]
pub struct IterTimes {
    pub compile_ms: f64,
    pub run_ms: f64,
    pub recompile_ms: f64,
}

/// The final arrays of the sequential interpreter on a source and its
/// inputs. The oracle is the independent interpreter, never the compiler
/// under test.
pub struct Oracle {
    /// By array name, row-major.
    arrays: Vec<(String, Vec<f64>)>,
    /// Wall time of the interpreter, the baseline beside every run time.
    pub wall_ms: f64,
}

impl Oracle {
    pub fn run(src: &str, init: &[(String, Vec<f64>)]) -> Result<Oracle, String> {
        let (prog, info) = load_program(src).map_err(|e| format!("oracle: {e}"))?;
        let mut seq_init = BTreeMap::new();
        for (array, values) in init {
            let sym = prog
                .interner
                .get(array)
                .ok_or_else(|| format!("oracle: no array {array}"))?;
            seq_init.insert(sym, values.clone());
        }
        let t = Instant::now();
        let seq = run_sequential(&prog, &info, &seq_init);
        let wall_ms = ms_since(t);
        let arrays = seq
            .arrays
            .iter()
            .map(|(&sym, values)| (prog.interner.name(sym).to_string(), values.clone()))
            .collect();
        Ok(Oracle { arrays, wall_ms })
    }

    /// Every array of the oracle against those of a run of `compiled`,
    /// relative 1e-6 (as `tests/dgefa.rs`).
    pub fn verify(
        &self,
        compiled: &Compiled,
        arrays: &BTreeMap<Sym, Vec<f64>>,
    ) -> Result<(), String> {
        let interner = &compiled.spmd().interner;
        let got: BTreeMap<&str, &Vec<f64>> = arrays
            .iter()
            .map(|(&sym, v)| (interner.name(sym), v))
            .collect();
        for (name, want) in &self.arrays {
            let have = got
                .get(name.as_str())
                .ok_or_else(|| format!("run returned no array {name}"))?;
            if have.len() != want.len() {
                return Err(format!(
                    "array {name}: {} elements, oracle has {}",
                    have.len(),
                    want.len()
                ));
            }
            for (i, (g, e)) in have.iter().zip(want).enumerate() {
                let close = (g - e).abs() <= 1e-6 * e.abs().max(1.0);
                // A NaN is not close to anything.
                if !close {
                    return Err(format!("array {name}[{i}]: {g}, oracle has {e}"));
                }
            }
        }
        Ok(())
    }
}

/// A pipeline workload, set up and ready to iterate.
pub struct Pipeline {
    pub program: Program,
    /// Initial arrays keyed for the compiled program's interner.
    pub init: BTreeMap<Sym, Vec<f64>>,
    pub oracle: Oracle,
    /// The store the recompile half compiles through.
    pub store: Arc<ArtifactStore>,
    /// Node program of the unedited source.
    pub base_emit: String,
    /// Counters of the first iteration; every later one must equal them.
    pub exact: Exact,
    recompiles: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Pipeline {
    /// Generates the inputs of workload `name` and sets them up.
    pub fn set_up(name: &str, seed: u64, warmup: usize) -> Result<Pipeline, String> {
        let program =
            program(name, seed).ok_or_else(|| format!("no pipeline workload {name:?}"))?;
        Pipeline::for_program(program, warmup)
    }

    /// Computes the oracle's arrays, fills the store and runs `warmup`
    /// untimed iterations. With no warm-up the counters stay unset: for a
    /// reference program that is verified but never iterated.
    pub fn for_program(program: Program, warmup: usize) -> Result<Pipeline, String> {
        let oracle = Oracle::run(&program.src, &program.init)?;

        let store = ArtifactStore::shared();
        let compiled = Session::new(program.src.as_str())
            .store(Arc::clone(&store))
            .compile()
            .map_err(|e| e.to_string())?;
        let mut init = BTreeMap::new();
        for (array, values) in &program.init {
            let sym = compiled
                .spmd()
                .interner
                .get(array)
                .ok_or_else(|| format!("node program has no array {array}"))?;
            init.insert(sym, values.clone());
        }
        let base_emit = compiled.emit();

        let mut p = Pipeline {
            program,
            init,
            oracle,
            store,
            base_emit,
            exact: Exact {
                model_time_us: 0.0,
                msgs: 0,
                bytes: 0,
                node_prog_bytes: 0,
            },
            recompiles: 0,
        };
        // The first iteration fixes the counters the later ones must equal.
        if warmup > 0 {
            p.exact = p.iterate_unchecked()?.1;
        }
        for _ in 1..warmup {
            p.iterate()?;
        }
        Ok(p)
    }

    /// One iteration; an `Err` is a failed operation and says why.
    pub fn iterate(&mut self) -> Result<IterTimes, String> {
        let (times, exact) = self.iterate_unchecked()?;
        if exact != self.exact {
            return Err(format!(
                "counters changed: {exact:?}, first iteration had {:?}",
                self.exact
            ));
        }
        Ok(times)
    }

    fn iterate_unchecked(&mut self) -> Result<(IterTimes, Exact), String> {
        // Source string → final arrays.
        let t = Instant::now();
        let compiled = Session::new(self.program.src.as_str())
            .compile()
            .map_err(|e| e.to_string())?;
        let compile_ms = ms_since(t);
        let t = Instant::now();
        let out = compiled
            .run_with(&self.init, &ExecOptions::new())
            .map_err(|e| e.to_string())?;
        let run_ms = ms_since(t);
        self.oracle.verify(&compiled, &out.arrays)?;
        let emit = compiled.emit();
        if emit != self.base_emit {
            return Err("node program differs from the set-up compile's".into());
        }

        // The same source, or the next one-leaf edit of it, through the
        // shared store.
        let k = self.recompiles;
        self.recompiles += 1;
        let (src, want_emit) = match self.program.edit {
            Some((leaf, first)) => {
                let (src, coef) = edit_leaf(&self.program.src, leaf, first + k);
                (src, expected_edited_emit(&self.base_emit, leaf, &coef))
            }
            None => (self.program.src.clone(), emit.clone()),
        };
        let t = Instant::now();
        let recompiled = Session::new(src)
            .store(Arc::clone(&self.store))
            .compile()
            .map_err(|e| e.to_string())?;
        let recompile_ms = ms_since(t);
        if recompiled.emit() != want_emit {
            return Err("store-backed recompile emitted a different node program".into());
        }

        let times = IterTimes {
            compile_ms,
            run_ms,
            recompile_ms,
        };
        let exact = Exact {
            model_time_us: out.stats.time_us,
            msgs: out.stats.total_msgs,
            bytes: out.stats.total_bytes,
            node_prog_bytes: emit.len(),
        };
        Ok((times, exact))
    }
}

//! Shared execution runtime for the SPMD engines.
//!
//! Both engines — the reference tree-walker ([`crate::interp`]) and the
//! bytecode VM ([`crate::vm`]) — run node programs against the same
//! [`Machine`] and must produce bit-identical simulated results
//! (`model_time_us`, message counts/volumes, final arrays, printed lines).
//! Everything observable the two share lives here or below it, so the
//! engines cannot drift: the run-time scalar, the ownership walks and the
//! remap routine come from `fortrand-rt` (the one library native node
//! programs link too); this module adds the simulator's side of them —
//! per-rank array storage ([`ArrayStore`], row-major), the remap over a
//! [`Node`]'s sends — and the run harness that assembles global arrays
//! from per-rank finals.

use crate::ir::*;
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use fortrand_machine::{Machine, Node, RunStats};
pub use fortrand_machine::{MachineKind, RankFailure};
pub(crate) use fortrand_rt::{apply_bin, apply_bin_r, apply_intr, LocalStore, Value};
use fortrand_rt::{assemble, scatter_init};
pub use fortrand_rt::{TAG_BCAST, TAG_BCAST_PACK};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The accounting tag of a broadcast of `parts` sections: several sections
/// in one message are a packed broadcast.
pub(crate) fn bcast_tag(parts: usize) -> u64 {
    if parts > 1 {
        TAG_BCAST_PACK
    } else {
        TAG_BCAST
    }
}

/// Unified result of running a node program under any [`ExecBackend`].
#[derive(Debug)]
#[non_exhaustive]
pub struct RunOutcome {
    /// Run statistics. Simulator backends fill the full virtual-clock
    /// cost model; the native backend reports real message/byte tallies
    /// (parsed from the emitted program's stats protocol) with the
    /// simulated-time fields zeroed and `wall_us` set to the node
    /// program's host wall-clock.
    pub stats: RunStats,
    /// Final global contents of every array declared in the entry
    /// procedure, row-major over the array's global extents.
    pub arrays: BTreeMap<Sym, Vec<f64>>,
    /// Lines printed by rank 0 (`print *` statements).
    pub printed: Vec<String>,
    /// Build artifacts kept on disk, if the backend produced any and was
    /// asked to keep them (e.g. `Native { keep_artifacts: true }` leaves
    /// the emitted source, binary, and IO files in this directory).
    /// `None` for the simulator backends.
    pub artifact: Option<PathBuf>,
}

/// Why a run failed.
#[derive(Debug)]
pub enum ExecError {
    /// A rank panicked (deadlock diagnostic, subscript out of local
    /// bounds, …) — in the simulators or inside the emitted native
    /// program.
    Rank(RankFailure),
    /// The backend itself could not run the program: `rustc` missing,
    /// the emitted program failed to compile, the stats protocol came
    /// back malformed, …
    Backend(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Rank(r) => write!(f, "{r}"),
            ExecError::Backend(m) => write!(f, "backend failure: {m}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Rank(r) => Some(r),
            ExecError::Backend(_) => None,
        }
    }
}

impl From<RankFailure> for ExecError {
    fn from(f: RankFailure) -> ExecError {
        ExecError::Rank(f)
    }
}

/// A pluggable way to execute a compiled node program.
///
/// The two simulator engines ([`Tree`], [`Bytecode`]) and the native
/// codegen backend (`crate::codegen::Native`) all implement this; which
/// one runs is selected by [`ExecOptions::backend`]. Implementations must
/// agree on every program-defined observable (final arrays bit for bit,
/// printed lines, message/byte/remap counts, size histogram, per-tag
/// traffic) — `tests/native.rs` and `tests/engines.rs` enforce this
/// differentially. Host-side metrics (`wall_us`, instruction counters)
/// and the simulated clock are backend-specific.
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Short stable name for reports and bench tables.
    fn name(&self) -> &'static str;

    /// Runs `prog` (already checked against `machine.nprocs`) with the
    /// given initial arrays.
    fn run(
        &self,
        prog: &SpmdProgram,
        machine: &Machine,
        init: &BTreeMap<Sym, Vec<f64>>,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, ExecError>;
}

/// Reference tree-walking interpreter backend ([`crate::interp`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tree;

impl ExecBackend for Tree {
    fn name(&self) -> &'static str {
        "tree"
    }
    fn run(
        &self,
        prog: &SpmdProgram,
        machine: &Machine,
        init: &BTreeMap<Sym, Vec<f64>>,
        _opts: &ExecOptions,
    ) -> Result<RunOutcome, ExecError> {
        crate::interp::run_tree(prog, machine, init).map_err(ExecError::Rank)
    }
}

/// Bytecode-VM backend (`vm`), the default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bytecode;

impl ExecBackend for Bytecode {
    fn name(&self) -> &'static str {
        "bytecode"
    }
    fn run(
        &self,
        prog: &SpmdProgram,
        machine: &Machine,
        init: &BTreeMap<Sym, Vec<f64>>,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, ExecError> {
        crate::vm::run_bytecode(prog, machine, init, opts.kernels).map_err(ExecError::Rank)
    }
}

/// Execution knobs for running a compiled node program. Built with
/// chained setters so new knobs never grow a positional-argument list:
///
/// ```ignore
/// let opts = ExecOptions::new().backend(codegen::Native::default());
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ExecOptions {
    /// The execution backend ([`Bytecode`] by default).
    pub backend: Arc<dyn ExecBackend>,
    /// Execution-substrate override for the simulator backends. `None`
    /// (the default) respects the [`Machine`]'s own kind; `Some(kind)`
    /// re-keys the run onto that substrate (event-driven scheduler or
    /// thread-per-rank). Observables are bit-identical either way — this
    /// selects host mechanics only. Ignored by the native backend.
    pub machine: Option<MachineKind>,
    /// Whether the bytecode engine's superinstruction fusion tier runs
    /// (`true` by default). Off, the VM dispatches the unfused lowering
    /// one instruction at a time — observables are bit-identical either
    /// way; this selects host mechanics only. Ignored by other backends.
    pub kernels: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            backend: Arc::new(Bytecode),
            machine: None,
            kernels: true,
        }
    }
}

impl ExecOptions {
    /// Default options (bytecode backend, fusion on).
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: impl ExecBackend + 'static) -> ExecOptions {
        self.backend = Arc::new(backend);
        self
    }

    /// Forces the run onto the given execution substrate, overriding the
    /// kind of whatever [`Machine`] is passed in.
    pub fn machine(mut self, kind: MachineKind) -> ExecOptions {
        self.machine = Some(kind);
        self
    }

    /// Enables or disables the bytecode engine's superinstruction
    /// fusion tier.
    pub fn kernels(mut self, on: bool) -> ExecOptions {
        self.kernels = on;
        self
    }
}

/// Runs `prog` on `machine` under the backend selected by `opts`,
/// surfacing a rank panic (e.g. a deadlock diagnostic) as an
/// [`ExecError::Rank`] value instead of unwinding. This is the primary
/// entry point; `fortrand::Session::run` builds on it.
pub fn try_run_spmd(
    prog: &SpmdProgram,
    machine: &Machine,
    init: &BTreeMap<Sym, Vec<f64>>,
    opts: &ExecOptions,
) -> Result<RunOutcome, ExecError> {
    assert_eq!(
        machine.nprocs, prog.nprocs,
        "program compiled for {} procs, machine has {}",
        prog.nprocs, machine.nprocs
    );
    let rekeyed;
    let machine = match opts.machine {
        Some(kind) if kind != machine.kind => {
            rekeyed = machine.clone().with_kind(kind);
            &rekeyed
        }
        _ => machine,
    };
    opts.backend.run(prog, machine, init, opts)
}

/// Engine-independent run harness: executes `body` once per rank, collects
/// each rank's final arrays (and rank 0's printed lines), then assembles
/// the global arrays. A rank panic comes back as a [`RankFailure`] with
/// the failing rank id; shared state uses poison-proof lock access so one
/// rank's death cannot cascade into mutex-poison unwraps.
pub(crate) fn run_harness(
    prog: &SpmdProgram,
    machine: &Machine,
    body: impl Fn(&mut Node) -> (Vec<ArrayStore>, Vec<String>) + Sync,
) -> Result<RunOutcome, RankFailure> {
    let finals: Mutex<Vec<Option<Vec<ArrayStore>>>> =
        Mutex::new((0..machine.nprocs).map(|_| None).collect());
    let printed: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let stats = machine.try_run(|node| {
        let rank = node.rank();
        let (fin, pr) = body(node);
        if rank == 0 {
            printed.lock().unwrap_or_else(|p| p.into_inner()).extend(pr);
        }
        finals.lock().unwrap_or_else(|p| p.into_inner())[rank] = Some(fin);
    })?;

    let finals = finals.into_inner().unwrap_or_else(|p| p.into_inner());
    let per_rank = finals
        .into_iter()
        .map(|f| f.expect("rank finished without recording finals"))
        .collect();
    let printed = printed.into_inner().unwrap_or_else(|p| p.into_inner());
    Ok(assemble_outcome(prog, stats, per_rank, printed))
}

/// The outcome of a simulator run: `per_rank[r]` are rank `r`'s final
/// arrays, `printed` rank 0's output.
pub(crate) fn assemble_outcome(
    prog: &SpmdProgram,
    stats: RunStats,
    per_rank: Vec<Vec<ArrayStore>>,
    printed: Vec<String>,
) -> RunOutcome {
    RunOutcome {
        stats,
        arrays: assemble_arrays(prog, &per_rank),
        printed,
        artifact: None,
    }
}

/// Assembles global arrays from per-rank finals, reading each element from
/// its owner under the array's final distribution.
fn assemble_arrays(prog: &SpmdProgram, per_rank: &[Vec<ArrayStore>]) -> BTreeMap<Sym, Vec<f64>> {
    let Some(rank0) = per_rank.first() else {
        return BTreeMap::new();
    };
    rank0
        .iter()
        .map(|fa| {
            let dist = &prog.dists[fa.owner_dist.unwrap_or(fa.dist).0 as usize];
            let stores: Vec<&ArrayStore> = per_rank
                .iter()
                .map(|finals| {
                    finals
                        .iter()
                        .find(|x| x.name == fa.name)
                        .expect("array missing on a rank")
                })
                .collect();
            // Run-time resolution storage is global-indexed.
            (fa.name, assemble(dist, fa.owner_dist.is_some(), &stores))
        })
        .collect()
}

/// Array storage on one rank, row-major. A rank's final arrays are its
/// main procedure's stores, cloned.
#[derive(Clone)]
pub(crate) struct ArrayStore {
    pub name: Sym,
    pub bounds: Vec<(i64, i64)>,
    pub data: Vec<f64>,
    pub dist: DistId,
    pub owner_dist: Option<DistId>,
}

impl ArrayStore {
    pub fn alloc(name: Sym, bounds: Vec<(i64, i64)>, dist: DistId) -> Self {
        let len: i64 = bounds
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1).max(0))
            .product();
        ArrayStore {
            name,
            bounds,
            data: vec![0.0; len as usize],
            dist,
            owner_dist: None,
        }
    }
    pub fn flat(&self, subs: &[i64]) -> usize {
        debug_assert_eq!(subs.len(), self.bounds.len());
        let mut flat = 0;
        for (d, &x) in subs.iter().enumerate() {
            flat = flat_step(flat, self.bounds[d], x, d);
        }
        flat
    }
}

/// One dimension of a row-major storage offset: `flat`, the offset of the
/// dimensions before `dim`, extended by subscript `x` within `(lo, hi)`.
/// An `x` outside panics with the subscript diagnostic every engine
/// reports.
#[inline]
pub(crate) fn flat_step(flat: usize, (lo, hi): (i64, i64), x: i64, dim: usize) -> usize {
    assert!(
        x >= lo && x <= hi,
        "subscript {x} out of local bounds {lo}:{hi} (dim {dim}) of array"
    );
    flat * (hi - lo + 1) as usize + (x - lo) as usize
}

impl LocalStore for ArrayStore {
    const COLUMN_MAJOR: bool = false;
    fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }
    fn data(&self) -> &[f64] {
        &self.data
    }
    fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
    fn get(&self, subs: &[i64]) -> f64 {
        self.data[self.flat(subs)]
    }
    fn set(&mut self, subs: &[i64], v: f64) {
        let f = self.flat(subs);
        self.data[f] = v;
    }
}

/// Fills rank `my`'s `store` from a row-major global buffer. Run-time
/// resolution storage (`owner_dist` set) is global-shaped and row-major
/// like the buffer, so it takes a full copy; any other holds what the rank
/// stores under `dists[store.dist]`.
pub(crate) fn scatter_init_store(
    store: &mut ArrayStore,
    dists: &[ArrayDist],
    global: &[f64],
    my: usize,
) {
    if store.owner_dist.is_some() {
        assert_eq!(store.data.len(), global.len(), "rtr init size");
        store.data.copy_from_slice(global);
    } else {
        scatter_init(store, &dists[store.dist.0 as usize], global, my);
    }
}

/// A dynamic remap (library routine of §6) of one array on one simulated
/// rank, between its two halves. The first half ([`begin_remap`],
/// [`begin_remap_global`]) sends through `node.send_buf` and never blocks; the
/// second accepts one source's message at a time — the tree walker drives
/// it with a blocking receive per source, the VM suspends between sources.
/// The caller has already flushed charges and charged the remap call; the
/// routine only moves data (charged as messages).
pub(crate) type Remap = fortrand_rt::Remap<ArrayStore>;

/// First half of a full remap: moves the contents of `old` (distributed as
/// `d0`) towards a fresh store distributed as `d1`.
pub(crate) fn begin_remap(
    node: &mut Node,
    old: &ArrayStore,
    d0: &ArrayDist,
    d1: &ArrayDist,
    to_dist: DistId,
) -> Remap {
    let new = ArrayStore::alloc(old.name, d1.local_bounds(), to_dist);
    let (my, p) = (node.rank(), node.nprocs());
    let send = |dst, tag, buf| node.send_buf(dst, tag, buf);
    Remap::begin(d0, d1, my, p, old, new, send)
}

/// First half of a run-time resolution remap: storage stays global-shaped;
/// the authoritative values move from old owners (`d0`) to new owners
/// (`d1`) in place. The caller updates `owner_dist` afterwards.
pub(crate) fn begin_remap_global(
    node: &mut Node,
    store: &ArrayStore,
    d0: &ArrayDist,
    d1: &ArrayDist,
) -> Remap {
    let (my, p) = (node.rank(), node.nprocs());
    let send = |dst, tag, buf| node.send_buf(dst, tag, buf);
    Remap::begin_global(d0, d1, my, p, store, send)
}

/// Array-kill optimized remap (§6.3): values are dead — swap descriptors,
/// no data motion. Contents become undefined (zeroed).
pub(crate) fn mark_dist_store(store: &mut ArrayStore, new_dist: &ArrayDist, to_dist: DistId) {
    *store = ArrayStore::alloc(store.name, new_dist.local_bounds(), to_dist);
}

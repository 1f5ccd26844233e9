//! Shared execution runtime for the SPMD engines.
//!
//! Both engines — the reference tree-walker ([`crate::interp`]) and the
//! bytecode VM ([`crate::vm`]) — run node programs against the same
//! [`Machine`] and must produce bit-identical simulated results
//! (`model_time_us`, message counts/volumes, final arrays, printed lines).
//! Everything observable lives here so the engines cannot drift: runtime
//! values, per-rank array storage, the initial scatter / final gather,
//! the remap library routines, and the run harness that assembles global
//! arrays from per-rank finals.

use crate::ir::*;
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use fortrand_machine::{Machine, Node, RunStats};
pub use fortrand_machine::{MachineKind, RankFailure};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Accounting tag under which plain broadcasts ([`SStmt::Bcast`],
/// [`SStmt::BcastScalar`]) are recorded in the machine's per-tag message
/// stats. High bits keep it clear of compiler-assigned send tags.
pub const TAG_BCAST: u64 = 1 << 32;
/// Accounting tag for coalesced broadcasts ([`SStmt::BcastPack`]).
pub const TAG_BCAST_PACK: u64 = (1 << 32) + 1;
/// Tag space reserved for remap traffic (compiler tags stay below this).
pub(crate) const REMAP_TAG_BASE: u64 = 1 << 40;

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

/// Former name of [`RunOutcome`]; kept as an alias for existing call
/// sites (the struct gained the `artifact` field in the rename).
pub type ExecOutput = RunOutcome;

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

/// Bytecode-VM backend ([`crate::vm`]), the default.
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
    body: impl Fn(&mut Node) -> (Vec<FinalArray>, Vec<String>) + Sync,
) -> Result<ExecOutput, RankFailure> {
    let finals: Mutex<Vec<Option<Vec<FinalArray>>>> =
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
    per_rank: Vec<Vec<FinalArray>>,
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
fn assemble_arrays(prog: &SpmdProgram, per_rank: &[Vec<FinalArray>]) -> BTreeMap<Sym, Vec<f64>> {
    let mut arrays = BTreeMap::new();
    if let Some(rank0) = per_rank.first() {
        for fa in rank0 {
            let dist = &prog.dists[fa.owner_dist.unwrap_or(fa.dist).0 as usize];
            let shape = RowMajor::new(global_extents(dist));
            let mut global = vec![0.0f64; shape.total as usize];
            let mut pt = vec![1i64; shape.extents.len()];
            for flat in 0..shape.total {
                shape.decode_into(flat, &mut pt);
                let owner = dist.owner_of(&pt);
                let fa_owner = per_rank[owner]
                    .iter()
                    .find(|x| x.name == fa.name)
                    .expect("array missing on owner rank");
                // Run-time resolution storage is global-indexed.
                let local = if fa.owner_dist.is_some() {
                    pt.clone()
                } else {
                    dist.local_of_global(&pt)
                };
                if let Some(v) = fa_owner.read(&local) {
                    global[flat as usize] = v;
                }
            }
            arrays.insert(fa.name, global);
        }
    }
    arrays
}

/// Global (pre-partitioning) extents implied by a distribution, in array
/// index space.
pub fn global_extents(dist: &ArrayDist) -> Vec<i64> {
    dist.dims
        .iter()
        .enumerate()
        .map(|(d, p)| p.extent - dist.offsets[d])
        .collect()
}

/// Row-major index space over `extents` with strides precomputed once, so
/// decoding a flat index is O(d) multiplies instead of O(d²) products.
pub(crate) struct RowMajor {
    pub extents: Vec<i64>,
    strides: Vec<i64>,
    pub total: i64,
}

impl RowMajor {
    pub fn new(extents: Vec<i64>) -> Self {
        let n = extents.len();
        let mut strides = vec![1i64; n];
        for d in (0..n.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
        let total = extents.iter().product();
        RowMajor {
            extents,
            strides,
            total,
        }
    }

    /// Decodes `flat` into 1-based point coordinates.
    pub fn decode_into(&self, flat: i64, pt: &mut [i64]) {
        let mut rem = flat;
        for (p, stride) in pt.iter_mut().zip(&self.strides) {
            *p = rem / stride + 1;
            rem %= stride;
        }
    }

    /// Encodes 1-based point coordinates into a flat index.
    pub fn encode(&self, pt: &[i64]) -> i64 {
        pt.iter()
            .zip(&self.strides)
            .map(|(&x, &s)| (x - 1) * s)
            .sum()
    }
}

/// One array's final state on one rank.
pub(crate) struct FinalArray {
    pub name: Sym,
    pub bounds: Vec<(i64, i64)>,
    pub data: Vec<f64>,
    pub dist: DistId,
    pub owner_dist: Option<DistId>,
}

impl FinalArray {
    fn read(&self, local: &[i64]) -> Option<f64> {
        let mut flat = 0usize;
        for (d, &x) in local.iter().enumerate() {
            let (lo, hi) = self.bounds[d];
            if x < lo || x > hi {
                return None;
            }
            let width = (hi - lo + 1) as usize;
            flat = flat * width + (x - lo) as usize;
        }
        self.data.get(flat).copied()
    }
}

/// Runtime value. The distinction between `I` and `R` is semantic, not just
/// representational: binary operations charge a flop when either operand is
/// `R` and an integer op otherwise, so both engines must carry it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Value {
    I(i64),
    R(f64),
}

impl Value {
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::R(v) => v as i64,
        }
    }
    pub fn as_r(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::R(v) => v,
        }
    }
    pub fn truthy(self) -> bool {
        self.as_i() != 0
    }
}

/// Converts a scalar that traveled over the wire as `f64` back to a
/// [`Value`]: integrality is preserved when exact (broadcast scalars are
/// pivot indices in practice).
pub(crate) fn scalar_from_wire(v: f64) -> Value {
    if v == v.trunc() {
        Value::I(v as i64)
    } else {
        Value::R(v)
    }
}

/// Array storage on one rank.
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
        let mut flat = 0usize;
        for (d, &x) in subs.iter().enumerate() {
            let (lo, hi) = self.bounds[d];
            assert!(
                x >= lo && x <= hi,
                "subscript {} out of local bounds {}:{} (dim {}) of array",
                x,
                lo,
                hi,
                d
            );
            let width = (hi - lo + 1) as usize;
            flat = flat * width + (x - lo) as usize;
        }
        flat
    }
    pub fn get(&self, subs: &[i64]) -> f64 {
        self.data[self.flat(subs)]
    }
    pub fn set(&mut self, subs: &[i64], v: f64) {
        let f = self.flat(subs);
        self.data[f] = v;
    }
}

/// Applies a binary operator. Integer op when both operands are `I`;
/// otherwise both promote to `f64`. Comparisons and logicals yield `I(0|1)`.
pub(crate) fn apply_bin(op: SBinOp, a: Value, b: Value) -> Value {
    use SBinOp::*;
    let bool_v = |c: bool| Value::I(c as i64);
    match (a, b) {
        (Value::I(x), Value::I(y)) => match op {
            Add => Value::I(x + y),
            Sub => Value::I(x - y),
            Mul => Value::I(x * y),
            Div => Value::I(x / y),
            Pow => Value::I(x.pow(y.clamp(0, 62) as u32)),
            Lt => bool_v(x < y),
            Le => bool_v(x <= y),
            Gt => bool_v(x > y),
            Ge => bool_v(x >= y),
            Eq => bool_v(x == y),
            Ne => bool_v(x != y),
            And => bool_v(x != 0 && y != 0),
            Or => bool_v(x != 0 || y != 0),
        },
        _ => {
            let x = a.as_r();
            let y = b.as_r();
            match op {
                Add => Value::R(x + y),
                Sub => Value::R(x - y),
                Mul => Value::R(x * y),
                Div => Value::R(x / y),
                Pow => Value::R(x.powf(y)),
                Lt => bool_v(x < y),
                Le => bool_v(x <= y),
                Gt => bool_v(x > y),
                Ge => bool_v(x >= y),
                Eq => bool_v(x == y),
                Ne => bool_v(x != y),
                And => bool_v(x != 0.0 && y != 0.0),
                Or => bool_v(x != 0.0 || y != 0.0),
            }
        }
    }
}

/// Applies an intrinsic to already-evaluated arguments.
pub(crate) fn apply_intr(name: SIntr, vals: &[Value]) -> Value {
    match name {
        SIntr::Abs => match vals[0] {
            Value::I(v) => Value::I(v.abs()),
            Value::R(v) => Value::R(v.abs()),
        },
        SIntr::Min => {
            if vals.iter().all(|v| matches!(v, Value::I(_))) {
                Value::I(vals.iter().map(|v| v.as_i()).min().unwrap())
            } else {
                Value::R(vals.iter().map(|v| v.as_r()).fold(f64::INFINITY, f64::min))
            }
        }
        SIntr::Max => {
            if vals.iter().all(|v| matches!(v, Value::I(_))) {
                Value::I(vals.iter().map(|v| v.as_i()).max().unwrap())
            } else {
                Value::R(
                    vals.iter()
                        .map(|v| v.as_r())
                        .fold(f64::NEG_INFINITY, f64::max),
                )
            }
        }
        SIntr::Mod => match (vals[0], vals[1]) {
            (Value::I(a), Value::I(b)) => Value::I(a % b),
            (a, b) => Value::R(a.as_r() % b.as_r()),
        },
        SIntr::Sqrt => Value::R(vals[0].as_r().sqrt()),
        SIntr::Sign => {
            let (a, b) = (vals[0].as_r(), vals[1].as_r());
            Value::R(if b >= 0.0 { a.abs() } else { -a.abs() })
        }
    }
}

/// Fills the local part of `store` from a row-major global buffer.
/// Replicated (serial) dims store on every rank; distributed dims only on
/// the owner. Run-time resolution storage is handled by the caller (full
/// copy).
pub(crate) fn scatter_init_store(
    store: &mut ArrayStore,
    dist: &ArrayDist,
    global: &[f64],
    my: usize,
) {
    let shape = RowMajor::new(global_extents(dist));
    assert_eq!(
        shape.total as usize,
        global.len(),
        "initial data size mismatch"
    );
    let replicated = dist.is_replicated();
    if !replicated && scatter_owned_fast(store, dist, global, &shape, my) {
        return;
    }
    let mut pt = vec![1i64; shape.extents.len()];
    for flat in 0..shape.total {
        shape.decode_into(flat, &mut pt);
        let owner = dist.owner_of(&pt);
        if replicated || owner == my {
            let local = dist.local_of_global(&pt);
            // Guard against overlap bounds excluding the point (cannot
            // happen for owned points, but stay defensive).
            let ok = local
                .iter()
                .zip(&store.bounds)
                .all(|(&x, &(lo, hi))| x >= lo && x <= hi);
            if ok {
                store.set(&local, global[flat as usize]);
            }
        }
    }
}

/// O(local) scatter: iterates only this rank's owned index set, via the
/// distribution's owned-region triplets, instead of scanning the whole
/// global array and ownership-testing every point (which costs
/// O(p · global) aggregate — prohibitive at p ≥ 1024). Returns `false`
/// when the owned set is not expressible as exact constant triplets
/// (multi-processor `BLOCK_CYCLIC`), leaving the caller on the full scan.
fn scatter_owned_fast(
    store: &mut ArrayStore,
    dist: &ArrayDist,
    global: &[f64],
    shape: &RowMajor,
    my: usize,
) -> bool {
    if dist.dims.iter().any(|dp| !dp.owned_triplet_exact()) {
        return false;
    }
    let rsd = dist.owned_rsd(my);
    let mut ranges = Vec::with_capacity(rsd.dims.len());
    for (t, &extent) in rsd.dims.iter().zip(&shape.extents) {
        let (Some(lo), Some(hi)) = (t.lo.as_const(), t.hi.as_const()) else {
            return false;
        };
        // Alignment offsets can push the owned triplet past the array
        // bounds; clamp to [1, extent] staying on the stride lattice.
        let mut lo = lo;
        if lo < 1 {
            lo += (1 - lo + t.step - 1) / t.step * t.step;
        }
        ranges.push((lo, hi.min(extent), t.step));
    }
    if ranges.iter().any(|&(lo, hi, _)| hi < lo) {
        return true; // owns nothing
    }
    let mut pt: Vec<i64> = ranges.iter().map(|&(lo, _, _)| lo).collect();
    loop {
        let local = dist.local_of_global(&pt);
        let ok = local
            .iter()
            .zip(&store.bounds)
            .all(|(&x, &(lo, hi))| x >= lo && x <= hi);
        if ok {
            store.set(&local, global[shape.encode(&pt) as usize]);
        }
        // Odometer step, rightmost dimension fastest.
        let mut d = ranges.len();
        loop {
            if d == 0 {
                return true;
            }
            d -= 1;
            pt[d] += ranges[d].2;
            if pt[d] <= ranges[d].1 {
                break;
            }
            pt[d] = ranges[d].0;
        }
    }
}

/// A dynamic remap (library routine of §6) between its two halves. The
/// first half ([`Remap::begin`], [`Remap::begin_global`]) enumerates the
/// array once, sends everything this rank has to send and lists what it
/// will be sent; it never blocks. The second half accepts one source's
/// message at a time ([`Remap::expects`] / [`Remap::accept`]), which is the
/// routine's only blocking point: the tree walker drives it with a blocking
/// receive ([`Remap::complete`]), the VM suspends between sources. The
/// caller has already flushed charges and charged the remap call; the
/// routine only moves data (charged as messages).
pub(crate) struct Remap {
    /// The store being filled under the new distribution; `None` for
    /// run-time resolution storage, which is updated in place.
    new_store: Option<ArrayStore>,
    /// Per source, the global points its message carries, in the sender's
    /// row-major order (same global order, so a simple fill works).
    incoming: Vec<Vec<Vec<i64>>>,
    /// The source accepted next.
    src: usize,
}

impl Remap {
    /// First half of a full remap: moves the contents of `old`
    /// (distributed as `d0`) towards a fresh store distributed as `d1`.
    pub fn begin(
        node: &mut Node,
        old: &ArrayStore,
        d0: &ArrayDist,
        d1: &ArrayDist,
        to_dist: DistId,
    ) -> Remap {
        let shape = RowMajor::new(global_extents(d0));
        assert_eq!(
            shape.extents,
            global_extents(d1),
            "remap changes array shape"
        );
        let my = node.rank();
        let bounds: Vec<(i64, i64)> = d1.local_extents().iter().map(|&e| (1, e)).collect();
        let mut new_store = ArrayStore::alloc(old.name, bounds, to_dist);

        // Outgoing: group my old elements by new owner, row-major order.
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); node.nprocs()];
        let mut pt = vec![1i64; shape.extents.len()];
        for flat in 0..shape.total {
            shape.decode_into(flat, &mut pt);
            if d0.owner_of(&pt) != my {
                continue;
            }
            let v = old.get(&d0.local_of_global(&pt));
            let dst = d1.owner_of(&pt);
            if dst == my {
                new_store.set(&d1.local_of_global(&pt), v);
            } else {
                outgoing[dst].push(v);
            }
        }
        Remap::send(node, &shape, d0, d1, &outgoing, Some(new_store))
    }

    /// First half of a run-time resolution remap: storage stays
    /// global-shaped; the authoritative values move from old owners (`d0`)
    /// to new owners (`d1`) in place. The caller updates `owner_dist`
    /// afterwards.
    pub fn begin_global(
        node: &mut Node,
        store: &ArrayStore,
        d0: &ArrayDist,
        d1: &ArrayDist,
    ) -> Remap {
        let shape = RowMajor::new(global_extents(d0));
        let my = node.rank();
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); node.nprocs()];
        let mut pt = vec![1i64; shape.extents.len()];
        for flat in 0..shape.total {
            shape.decode_into(flat, &mut pt);
            if d0.owner_of(&pt) != my {
                continue;
            }
            let dst = d1.owner_of(&pt);
            if dst != my {
                let v = store.get(&pt);
                outgoing[dst].push(v);
            }
        }
        Remap::send(node, &shape, d0, d1, &outgoing, None)
    }

    /// Sends `outgoing[dst]` to every `dst` it is non-empty for, then lists
    /// this rank's new elements whose old owner differs, by that owner.
    fn send(
        node: &mut Node,
        shape: &RowMajor,
        d0: &ArrayDist,
        d1: &ArrayDist,
        outgoing: &[Vec<f64>],
        new_store: Option<ArrayStore>,
    ) -> Remap {
        let my = node.rank();
        for (dst, buf) in outgoing.iter().enumerate() {
            if dst != my && !buf.is_empty() {
                node.send(dst, REMAP_TAG_BASE + dst as u64, buf);
            }
        }
        let mut incoming: Vec<Vec<Vec<i64>>> = vec![Vec::new(); node.nprocs()];
        let mut pt = vec![1i64; shape.extents.len()];
        for flat in 0..shape.total {
            shape.decode_into(flat, &mut pt);
            if d1.owner_of(&pt) != my {
                continue;
            }
            let src = d0.owner_of(&pt);
            if src != my {
                incoming[src].push(pt.clone());
            }
        }
        Remap {
            new_store,
            incoming,
            src: 0,
        }
    }

    /// The next source that sends rank `my` anything and the tag its
    /// message carries; `None` once every message has been accepted.
    pub fn expects(&mut self, my: usize) -> Option<(usize, u64)> {
        while self.incoming.get(self.src)?.is_empty() {
            self.src += 1;
        }
        Some((self.src, REMAP_TAG_BASE + my as u64))
    }

    /// Accepts the message of the source [`Remap::expects`] named. `store`
    /// is the array being remapped, `d1` its new distribution.
    pub fn accept(&mut self, store: &mut ArrayStore, d1: &ArrayDist, data: &[f64]) {
        let pts = &self.incoming[self.src];
        assert_eq!(data.len(), pts.len(), "remap message size mismatch");
        match &mut self.new_store {
            Some(new_store) => {
                for (pt, &v) in pts.iter().zip(data) {
                    new_store.set(&d1.local_of_global(pt), v);
                }
            }
            None => {
                for (pt, &v) in pts.iter().zip(data) {
                    store.set(pt, v);
                }
            }
        }
        self.src += 1;
    }

    /// Every message is in: a full remap replaces `store` with the new one.
    pub fn finish(self, store: &mut ArrayStore) {
        if let Some(new_store) = self.new_store {
            *store = new_store;
        }
    }

    /// The second half with a blocking receive per source.
    pub fn complete(mut self, node: &mut Node, store: &mut ArrayStore, d1: &ArrayDist) {
        while let Some((src, tag)) = self.expects(node.rank()) {
            let data = node.recv(src, tag);
            self.accept(store, d1, &data);
        }
        self.finish(store);
    }
}

/// Array-kill optimized remap (§6.3): values are dead — swap descriptors,
/// no data motion. Contents become undefined (zeroed).
pub(crate) fn mark_dist_store(store: &mut ArrayStore, new_dist: &ArrayDist, to_dist: DistId) {
    let bounds: Vec<(i64, i64)> = new_dist.local_extents().iter().map(|&e| (1, e)).collect();
    *store = ArrayStore::alloc(store.name, bounds, to_dist);
}

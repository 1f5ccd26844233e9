//! Bytecode VM: the default SPMD execution engine.
//!
//! Executes programs lowered by [`crate::lower`] with a tight dispatch
//! loop over dense instructions. All state lives in contiguous stacks
//! shared across frames (scalar slots, array table, registers) indexed by
//! per-frame bases, so there is no per-statement hashing or allocation on
//! the hot path. Message sections are packed and unpacked by
//! `fortrand_rt::{pack, unpack}`, the routines the tree engine and native
//! node programs call. Every access is bounds-checked except the strided
//! walks of fused loops ([`Walk`]), whose endpoints are checked once.
//!
//! The VM charges the exact same flop/op inventory as the tree engine
//! ([`crate::interp`]) and flushes it at the same communication points, so
//! every simulated observable — virtual clocks, message counts, bytes,
//! final arrays, printed lines — is bit-identical between engines.

use crate::ir::{SBinOp, SIntr, SpmdProgram};
use crate::lower::{
    expr_depth, op_idx, CallArgs, Instr, KAcc, KBody, KLoop, KOp, KSrc, Lowered, SSrc, SecInstr,
    Slot, EXPR_DEPTH, EXPR_NODES, NO_SLOT, N_OPCODES, OPCODE_NAMES,
};
use crate::runtime::{
    apply_bin, apply_bin_r, apply_intr, assemble_outcome, begin_remap, begin_remap_global,
    flat_step, mark_dist_store, scatter_init_store, ArrayStore, Remap, RunOutcome, Value,
};
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use fortrand_machine::{Machine, Node, Payload, RankTask, Wait, Yield};
use fortrand_rt::{pack, rect_len, slot, unpack};
use std::collections::BTreeMap;

/// Runs `prog`, lowered to `lowered`, under the bytecode engine. The
/// bytecode is shared read-only by every rank's VM; whether it is the
/// fused or the unfused form changes dispatch count and wall time only.
pub(crate) fn run_bytecode(
    prog: &SpmdProgram,
    lowered: &Lowered,
    machine: &Machine,
    init: &BTreeMap<Sym, Vec<f64>>,
) -> Result<RunOutcome, crate::runtime::RankFailure> {
    // Resolved once per run, only when tracing: per-call spans need
    // procedure names and the hot path must not touch the interner.
    let proc_names: Vec<String> = if machine.trace().on() {
        prog.procs
            .iter()
            .map(|p| prog.interner.name(p.name).to_string())
            .collect()
    } else {
        Vec::new()
    };
    // One VM per rank, each a resumable task: the machine steps them.
    let vms = (0..machine.nprocs)
        .map(|_| Vm::new(prog, lowered, init, &proc_names))
        .collect();
    let (stats, mut vms) = machine.try_run_tasks(vms)?;
    let printed = std::mem::take(&mut vms[0].printed);
    let finals = vms.iter_mut().map(Vm::finish).collect();
    let mut out = assemble_outcome(prog, stats, finals, printed);
    let mut mix = vec![0u64; N_OPCODES];
    for vm in &vms {
        out.stats.engine_instrs += vm.instrs;
        out.stats.fused_instrs += vm.fused;
        for (total, n) in mix.iter_mut().zip(&vm.mix) {
            *total += n;
        }
    }
    out.stats.instr_mix = mix
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(k, &n)| (OPCODE_NAMES[k].to_string(), n))
        .collect();
    Ok(out)
}

/// A fused loop's strided walk over one array's storage: iteration `k`
/// touches `p[f0 + k*st]`. Outside this module's tests only
/// [`Vm::kacc_plan`] builds one, after checking both endpoints against
/// the local bounds, which puts the index of every iteration `0 <= k < t`
/// below `len`; debug builds check each index again. A walk lives inside
/// one `run_kloop`, which never resizes array storage. Its accessors are
/// the only `unsafe` code in the crate (`lib.rs` denies it elsewhere):
/// walks of one array may alias, so they hold raw pointers.
#[derive(Clone, Copy)]
struct Walk {
    p: *mut f64,
    len: usize,
    f0: i64,
    st: i64,
}

#[allow(unsafe_code)]
impl Walk {
    #[inline(always)]
    fn at(&self, k: i64) -> *mut f64 {
        let idx = (self.f0 + k * self.st) as usize;
        debug_assert!(idx < self.len, "walk index {idx} outside {}", self.len);
        // SAFETY: `idx < len` by the endpoint check (see above).
        unsafe { self.p.add(idx) }
    }

    #[inline(always)]
    fn get(&self, k: i64) -> f64 {
        // SAFETY: in bounds (`at`); walks of one array may alias, which
        // raw pointers permit.
        unsafe { *self.at(k) }
    }

    #[inline(always)]
    fn set(&self, k: i64, v: f64) {
        // SAFETY: as `get`.
        unsafe { *self.at(k) = v }
    }

    /// Lowest and highest storage index of iterations `0..t`.
    fn span(&self, t: i64) -> (i64, i64) {
        let last = self.f0 + (t - 1) * self.st;
        (self.f0.min(last), self.f0.max(last))
    }
}

/// True when a fused loop of `t` iterations that stores through `dst` can
/// evaluate its operands for many iterations before storing any: no
/// iteration's read of `leaf` then returns an earlier iteration's store.
/// That holds when `leaf` walks other storage, when it is `dst` itself
/// with a non-zero stride (each iteration reads the element only it
/// stores), or when the two touch disjoint index ranges (dgefa's
/// `BUF$1(i)/BUF$1(k)` for `i > k`).
fn reads_no_store(leaf: &Walk, dst: &Walk, t: i64) -> bool {
    if leaf.p != dst.p {
        return true;
    }
    if (leaf.f0, leaf.st) == (dst.f0, dst.st) {
        return leaf.st != 0;
    }
    let ((ll, lh), (dl, dh)) = (leaf.span(t), dst.span(t));
    lh < dl || dh < ll
}

/// A fused-loop operand on plain `f64`s, resolved once per loop: its
/// value at iteration `k`.
trait Lane: Copy {
    fn lane(self, k: i64) -> f64;
}

/// A loop-invariant operand.
impl Lane for f64 {
    #[inline(always)]
    fn lane(self, _: i64) -> f64 {
        self
    }
}

impl Lane for Walk {
    #[inline(always)]
    fn lane(self, k: i64) -> f64 {
        self.get(k)
    }
}

/// The product of two operands, in their source order.
#[derive(Clone, Copy)]
struct Prod<X, Y>(X, Y);

impl<X: Lane, Y: Lane> Lane for Prod<X, Y> {
    #[inline(always)]
    fn lane(self, k: i64) -> f64 {
        self.0.lane(k) * self.1.lane(k)
    }
}

/// `dst[k] = f(a[k], b[k])` for `k` in `0..t`, in iteration order: one
/// monomorphic loop per operand shape and operator.
#[inline(always)]
fn store_each(dst: Walk, t: i64, a: impl Lane, b: impl Lane, f: impl Fn(f64, f64) -> f64) {
    for k in 0..t {
        dst.set(k, f(a.lane(k), b.lane(k)));
    }
}

/// Runs `$body` with `$f` bound to a closure computing `apply_bin_r($op,
/// x, y)`, chosen once: the arithmetic operators each get a loop of
/// their own with the operation inlined, the rest share one.
macro_rules! with_bin_r {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            SBinOp::Add => {
                let $f = |x: f64, y: f64| x + y;
                $body
            }
            SBinOp::Sub => {
                let $f = |x: f64, y: f64| x - y;
                $body
            }
            SBinOp::Mul => {
                let $f = |x: f64, y: f64| x * y;
                $body
            }
            SBinOp::Div => {
                let $f = |x: f64, y: f64| x / y;
                $body
            }
            op => {
                let $f = move |x: f64, y: f64| apply_bin_r(op, x, y);
                $body
            }
        }
    };
}

/// One planned node of a [`KBody::Expr`] program: a leaf read once or
/// walked, or an operator.
#[derive(Clone, Copy)]
enum XNode {
    C(f64),
    M(Walk),
    Bin(SBinOp),
    Neg,
}

/// Evaluates `nodes` for iterations `0..t` in iteration order and stores
/// each result through `dst`, so a recurrence such as
/// `v(i) = v(i-1) + ...` reads the value just stored.
fn expr_in_order(nodes: &[XNode], dst: Walk, t: i64) {
    for k in 0..t {
        let mut st = [0.0f64; EXPR_DEPTH];
        let mut sp = 0;
        for x in nodes {
            match *x {
                XNode::C(c) => {
                    st[sp] = c;
                    sp += 1;
                }
                XNode::M(w) => {
                    st[sp] = w.get(k);
                    sp += 1;
                }
                XNode::Bin(op) => {
                    sp -= 1;
                    st[sp - 1] = apply_bin_r(op, st[sp - 1], st[sp]);
                }
                XNode::Neg => st[sp - 1] = -st[sp - 1],
            }
        }
        dst.set(k, st[0]);
    }
}

/// True when `nodes` may run column-wise into `dst` for `t` iterations:
/// every leaf walk [`reads_no_store`].
fn columns_ok(nodes: &[XNode], dst: &Walk, t: i64) -> bool {
    nodes.iter().all(|x| match x {
        XNode::M(leaf) => reads_no_store(leaf, dst, t),
        _ => true,
    })
}

/// Most iterations a column-wise [`KBody::Expr`] evaluates per pass over
/// its program.
const CHUNK: usize = 64;

/// Evaluates `nodes` a node at a time over chunks of up to `w`
/// iterations: stack entry `s` is row `s` of `stack` (rows `w` wide;
/// `stack` holds one row per entry the program needs). Every element sees
/// the same f64 operations in the same order as in [`expr_in_order`];
/// only the order between elements differs, so the two store the same
/// bits whenever [`columns_ok`] holds.
fn expr_columns(nodes: &[XNode], dst: Walk, t: i64, w: usize, stack: &mut [f64]) {
    let mut k0 = 0i64;
    while k0 < t {
        let n = w.min((t - k0) as usize);
        let mut sp = 0;
        for x in nodes {
            match *x {
                XNode::C(c) => {
                    stack[sp * w..][..n].fill(c);
                    sp += 1;
                }
                XNode::M(walk) => {
                    for (j, s) in stack[sp * w..][..n].iter_mut().enumerate() {
                        *s = walk.get(k0 + j as i64);
                    }
                    sp += 1;
                }
                XNode::Bin(op) => {
                    sp -= 1;
                    let (l, r) = stack.split_at_mut(sp * w);
                    let (l, r) = (&mut l[(sp - 1) * w..][..n], &r[..n]);
                    with_bin_r!(op, f => {
                        for (x, &y) in l.iter_mut().zip(r) {
                            *x = f(*x, y);
                        }
                    });
                }
                XNode::Neg => {
                    for s in &mut stack[(sp - 1) * w..][..n] {
                        *s = -*s;
                    }
                }
            }
        }
        for (j, &v) in stack[..n].iter().enumerate() {
            dst.set(k0 + j as i64, v);
        }
        k0 += n as i64;
    }
}

/// Activation record. `ret_pc` resumes the caller after the `Call` at
/// `call_pc` (whose operand also carries the copy-out plan read on return).
struct FrameMark {
    proc: usize,
    ret_pc: usize,
    call_pc: usize,
    s_base: usize,
    a_base: usize,
    r_base: usize,
    heap_mark: usize,
}

/// One rank's interpreter state. Everything a suspended rank needs to
/// resume lives here — frames, `pc`, a remap in flight — so the VM needs
/// no host stack between steps: it is a [`RankTask`] the machine steps.
struct Vm<'a> {
    prog: &'a SpmdProgram,
    lowered: &'a Lowered,
    /// Initial global array contents, scattered at the first step.
    init: &'a BTreeMap<Sym, Vec<f64>>,
    /// Where the dispatch loop resumes (it keeps `pc` in a local while it
    /// runs and writes it back only when it suspends).
    pc: usize,
    /// Scalar slots of every live frame, contiguous.
    scalars: Vec<Value>,
    /// Array table: heap id per frame-local array index.
    atab: Vec<usize>,
    /// Expression registers of every live frame, contiguous.
    regs: Vec<Value>,
    frames: Vec<FrameMark>,
    heap: Vec<ArrayStore>,
    /// Outgoing message under construction (pooled buffer).
    msg: Option<Vec<f64>>,
    /// Last received/broadcast payload, consumed via `in_off`.
    incoming: Option<Payload>,
    in_off: usize,
    /// `(src, tag)` latched by `PostRecvMsg`, keyed by handle.
    posted_recv: Vec<Option<(usize, u64)>>,
    /// `(seq, posted_at)` latched by `PostBcastMsg`, keyed by handle.
    posted_bcast: Vec<Option<(u64, f64)>>,
    /// The remap a suspended `Remap`/`RemapGlobal` is in the middle of:
    /// everything sent, some sources' messages still to come.
    remap: Option<Remap>,
    /// Scratch for subscript evaluation (avoids per-access allocation).
    subs_buf: Vec<i64>,
    /// Scratch for section bound evaluation.
    dims_buf: Vec<(i64, i64, i64)>,
    /// Evaluation stack of column-wise `Expr` kernels ([`expr_columns`]).
    kstack: Vec<f64>,
    printed: Vec<String>,
    pending_flops: u64,
    pending_ops: u64,
    /// Instructions dispatched (diagnostic; summed into
    /// `RunStats::engine_instrs`).
    instrs: u64,
    /// Dispatches retired *inside* superinstructions (the instructions
    /// the unfused program would have dispatched); summed into
    /// `RunStats::fused_instrs`.
    fused: u64,
    /// Dynamic opcode histogram, indexed by [`op_idx`].
    mix: Vec<u64>,
    /// Arrays the main program declares: the first ones on the heap.
    n_main: usize,
    /// The buffer of the store the last remap replaced, for the next one.
    spare: Vec<f64>,
    /// Procedure names for per-call spans; empty unless tracing, which is
    /// what switches the spans off.
    proc_names: &'a [String],
}

impl RankTask for Vm<'_> {
    fn step(&mut self, node: &mut Node) -> Yield {
        if self.frames.is_empty() {
            self.enter_main(node);
        }
        let y = exec(self, node);
        if y == Yield::Done {
            self.close_open_spans(node);
        }
        y
    }
}

impl<'a> Vm<'a> {
    fn new(
        prog: &'a SpmdProgram,
        lowered: &'a Lowered,
        init: &'a BTreeMap<Sym, Vec<f64>>,
        proc_names: &'a [String],
    ) -> Self {
        Vm {
            prog,
            lowered,
            init,
            pc: 0,
            scalars: Vec::new(),
            atab: Vec::new(),
            regs: Vec::new(),
            frames: Vec::new(),
            heap: Vec::new(),
            msg: None,
            incoming: None,
            in_off: 0,
            posted_recv: Vec::new(),
            posted_bcast: Vec::new(),
            remap: None,
            subs_buf: Vec::new(),
            dims_buf: Vec::new(),
            kstack: Vec::new(),
            printed: Vec::new(),
            pending_flops: 0,
            pending_ops: 0,
            instrs: 0,
            fused: 0,
            mix: vec![0; N_OPCODES],
            n_main: 0,
            spare: Vec::new(),
            proc_names,
        }
    }

    /// Opens an execution-slice span for `proc` on this rank's track at
    /// the current simulated clock.
    fn trace_enter(&self, node: &Node, proc: usize) {
        if let Some(name) = self.proc_names.get(proc) {
            let (rank, ts) = (node.rank() as u32, node.clock());
            let pid = fortrand_trace::PID_MACHINE;
            node.trace().begin_at(pid, rank, "vm", name, ts, Vec::new());
        }
    }

    /// Closes the innermost execution-slice span at the current clock.
    fn trace_exit(&self, node: &Node, proc: usize) {
        if let Some(name) = self.proc_names.get(proc) {
            let (rank, ts) = (node.rank() as u32, node.clock());
            node.trace()
                .end_at(fortrand_trace::PID_MACHINE, rank, "vm", name, ts);
        }
    }

    /// Closes spans for frames still live after execution stops (a `STOP`
    /// inside a callee leaves the stack deep), keeping B/E balanced.
    fn close_open_spans(&self, node: &Node) {
        for fr in self.frames.iter().rev() {
            self.trace_exit(node, fr.proc);
        }
    }

    fn flush(&mut self, node: &mut Node) {
        // Every communication instruction flushes before installing a new
        // incoming payload, and the scatters that consume one never
        // flush, so the previous message is fully consumed here. Dropping
        // our clone now (instead of when the *next* receive overwrites
        // it) returns the shared buffer to the pool one pipeline stage
        // earlier — under posted/pipelined schedules each rank would
        // otherwise pin the last broadcast's buffer across the whole
        // in-flight window, forcing the root's gathers to allocate.
        self.incoming = None;
        if self.pending_flops > 0 {
            node.charge_flops(self.pending_flops);
            self.pending_flops = 0;
        }
        if self.pending_ops > 0 {
            node.charge_ops(self.pending_ops);
            self.pending_ops = 0;
        }
    }

    fn enter_main(&mut self, node: &Node) {
        let lowered = self.lowered;
        let main = self.prog.main;
        let lp = &lowered.procs[main];
        assert_eq!(lp.array_formals, 0, "main procedure takes array formals");
        self.scalars.resize(lp.n_slots as usize, Value::I(0));
        self.regs.resize(lp.n_regs as usize, Value::I(0));
        for d in &lp.decls {
            let id = self.heap.len();
            let mut store = ArrayStore::alloc(d.name, d.bounds.clone(), d.dist);
            store.owner_dist = d.owner_dist;
            self.heap.push(store);
            self.atab.push(id);
            self.n_main += 1;
            if let Some(global) = self.init.get(&d.name) {
                scatter_init_store(&mut self.heap[id], &self.prog.dists, global, node.rank());
            }
        }
        self.frames.push(FrameMark {
            proc: main,
            ret_pc: 0,
            call_pc: 0,
            s_base: 0,
            a_base: 0,
            r_base: 0,
            heap_mark: 0,
        });
        self.trace_enter(node, main);
    }

    /// The main program's stores, moved out: they are the first
    /// `n_main` of the heap.
    fn finish(&mut self) -> Vec<ArrayStore> {
        self.heap.truncate(self.n_main);
        std::mem::take(&mut self.heap)
    }

    fn do_call(
        &mut self,
        node: &Node,
        ca: &CallArgs,
        caller_r_base: usize,
        caller_a_base: usize,
        ret_pc: usize,
    ) {
        let lowered = self.lowered;
        let lp = &lowered.procs[ca.callee];
        let s_base = self.scalars.len();
        let a_base = self.atab.len();
        let r_base = self.regs.len();
        let heap_mark = self.heap.len();
        self.scalars
            .resize(s_base + lp.n_slots as usize, Value::I(0));
        for &(slot, reg) in &ca.scalars {
            self.scalars[s_base + slot as usize] = self.regs[caller_r_base + reg as usize];
        }
        for &tidx in &ca.arrays {
            let id = self.atab[caller_a_base + tidx as usize];
            self.atab.push(id);
        }
        for d in &lp.decls {
            let id = self.heap.len();
            let mut store = ArrayStore::alloc(d.name, d.bounds.clone(), d.dist);
            store.owner_dist = d.owner_dist;
            self.heap.push(store);
            self.atab.push(id);
        }
        self.regs.resize(r_base + lp.n_regs as usize, Value::I(0));
        self.pending_ops += 2; // call overhead
        self.frames.push(FrameMark {
            proc: ca.callee,
            ret_pc,
            call_pc: ret_pc - 1,
            s_base,
            a_base,
            r_base,
            heap_mark,
        });
        self.trace_enter(node, ca.callee);
    }

    /// Pops the current frame, applies scalar copy-out, and returns the
    /// caller's resume pc. Frame storage (including callee-local arrays)
    /// is reclaimed.
    fn do_return(&mut self, node: &Node) -> usize {
        let fr = self.frames.pop().unwrap();
        self.trace_exit(node, fr.proc);
        let caller = self.frames.last().unwrap();
        let caller_s_base = caller.s_base;
        let lowered = self.lowered;
        let Instr::Call(ca) = &lowered.procs[caller.proc].code[fr.call_pc] else {
            unreachable!("return without matching call")
        };
        for &(fslot, cslot) in &ca.copy_out {
            self.scalars[caller_s_base + cslot as usize] = self.scalars[fr.s_base + fslot as usize];
        }
        self.scalars.truncate(fr.s_base);
        self.atab.truncate(fr.a_base);
        self.regs.truncate(fr.r_base);
        self.heap.truncate(fr.heap_mark);
        fr.ret_pc
    }

    /// Affine access plan for a [`KAcc`]: the [`Walk`] whose iteration
    /// `k` of the fused loop touches `data[flat0 + k*stride]`. Each
    /// dimension's subscript is affine in `k` (the loop-variable dims
    /// advance by `step`, the rest are constant), so validating both
    /// endpoints validates every iteration. Returns `None` when an
    /// endpoint leaves the local bounds — the caller then runs the intact
    /// interpreted body, which panics at the exact offending iteration
    /// with the exact message.
    #[allow(clippy::too_many_arguments)]
    fn kacc_plan(
        &mut self,
        acc: &KAcc,
        s_base: usize,
        a_base: usize,
        var: Slot,
        i0: i64,
        step: i64,
        t: i64,
    ) -> Option<Walk> {
        let id = self.atab[a_base + acc.arr as usize];
        let store = &self.heap[id];
        let mut flat0 = 0i64;
        let mut stride = 0i64;
        for k in 0..acc.n as usize {
            let s = acc.subs[k];
            let (v0, delta) = if s.slot == NO_SLOT {
                (s.off as i64, 0)
            } else if s.slot == var {
                (i0 + s.off as i64, step)
            } else {
                (
                    self.scalars[s_base + s.slot as usize].as_i() + s.off as i64,
                    0,
                )
            };
            let (lo, hi) = store.bounds[k];
            let vl = v0 + delta * (t - 1);
            if v0 < lo || v0 > hi || vl < lo || vl > hi {
                return None;
            }
            let w = hi - lo + 1;
            flat0 = flat0 * w + (v0 - lo);
            stride = stride * w + delta;
        }
        let data = &mut self.heap[id].data;
        Some(Walk {
            p: data.as_mut_ptr(),
            len: data.len(),
            f0: flat0,
            st: stride,
        })
    }

    /// Reads a non-element kernel operand (loop-invariant by the
    /// fuser's guards, so reading once is exact).
    fn ksrc_val(&self, s: &KSrc, s_base: usize) -> Value {
        match s {
            KSrc::Slot(sl) => self.scalars[s_base + *sl as usize],
            KSrc::ImmI(v) => Value::I(*v),
            KSrc::ImmR(v) => Value::R(*v),
            KSrc::Elem(_) => unreachable!("element operand resolved via kacc_plan"),
        }
    }

    /// Reads a [`BinSS`](Instr::BinSS) operand.
    fn ssrc_val(&self, s: &SSrc, s_base: usize) -> Value {
        match s {
            SSrc::Slot(sl) => self.scalars[s_base + *sl as usize],
            SSrc::ImmI(v) => Value::I(*v),
            SSrc::ImmR(v) => Value::R(*v),
        }
    }

    /// Executes a fused loop's entire trip count (`t >= 1` iterations
    /// from `i0`) in one dispatch, charging the batched per-iteration
    /// inventory. Returns `false` (having performed *no* side effects)
    /// when a precondition fails, so the caller can fall back to the
    /// interpreted body.
    fn run_kloop(&mut self, kl: &KLoop, s_base: usize, a_base: usize, i0: i64, t: i64) -> bool {
        let var = kl.var;
        let step = kl.step;
        /// The walk of an element access, or back to the slow path.
        macro_rules! plan {
            ($acc:expr) => {
                match self.kacc_plan($acc, s_base, a_base, var, i0, step, t) {
                    Some(w) => w,
                    None => return false,
                }
            };
        }
        /// Resolved operand: a loop-invariant value or a strided walk.
        enum Rop {
            C(Value),
            M(Walk),
        }
        macro_rules! operand {
            ($s:expr) => {
                match $s {
                    KSrc::Elem(a) => Rop::M(plan!(a)),
                    other => Rop::C(self.ksrc_val(other, s_base)),
                }
            };
        }
        match &kl.body {
            KBody::Fill { dst, v } => {
                let d = plan!(dst);
                let x = self.ksrc_val(v, s_base).as_r();
                for k in 0..t {
                    d.set(k, x);
                }
            }
            KBody::Copy { dst, src } => {
                let s = plan!(src);
                let d = plan!(dst);
                for k in 0..t {
                    d.set(k, s.get(k));
                }
            }
            KBody::Expr { dst, code } => {
                let mut nodes = [XNode::Neg; EXPR_NODES];
                for (x, op) in nodes.iter_mut().zip(code.iter()) {
                    *x = match op {
                        KOp::Leaf(KSrc::Elem(a)) => XNode::M(plan!(a)),
                        KOp::Leaf(s) => XNode::C(self.ksrc_val(s, s_base).as_r()),
                        KOp::Bin(op) => XNode::Bin(*op),
                        KOp::Neg => XNode::Neg,
                    };
                }
                let nodes = &nodes[..code.len()];
                let d = plan!(dst);
                if columns_ok(nodes, &d, t) {
                    let w = CHUNK.min(t as usize);
                    let rows = expr_depth(code) * w;
                    if self.kstack.len() < rows {
                        self.kstack.resize(rows, 0.0);
                    }
                    expr_columns(nodes, d, t, w, &mut self.kstack);
                } else {
                    expr_in_order(nodes, d, t);
                }
            }
            KBody::Fma {
                op,
                dst,
                acc,
                ml,
                mr,
            } => {
                let (a, x, y) = (operand!(acc), operand!(ml), operand!(mr));
                let d = plan!(dst);
                // A multiplicand is always real (the matcher's guard), so
                // the product is, and both operations take `apply_bin`'s
                // mixed arm: f64 arithmetic on the operands' `as_r`, in
                // iteration order as the operands may alias `dst`.
                let sub = match op {
                    SBinOp::Add => false,
                    SBinOp::Sub => true,
                    _ => unreachable!("Fma adds or subtracts its product"),
                };
                macro_rules! fma {
                    ($m:expr) => {
                        match (a, sub) {
                            (Rop::C(c), false) => store_each(d, t, c.as_r(), $m, |a, m| a + m),
                            (Rop::C(c), true) => store_each(d, t, c.as_r(), $m, |a, m| a - m),
                            (Rop::M(w), false) => store_each(d, t, w, $m, |a, m| a + m),
                            (Rop::M(w), true) => store_each(d, t, w, $m, |a, m| a - m),
                        }
                    };
                }
                match (x, y) {
                    (Rop::M(x), Rop::M(y)) => fma!(Prod(x, y)),
                    (Rop::M(x), Rop::C(y)) => fma!(Prod(x, y.as_r())),
                    (Rop::C(x), Rop::M(y)) => fma!(Prod(x.as_r(), y)),
                    (Rop::C(x), Rop::C(y)) => fma!(apply_bin(SBinOp::Mul, x, y).as_r()),
                }
            }
            KBody::RedBin {
                op,
                slot,
                e,
                acc_left,
            } => {
                let e = plan!(e);
                let acc = &mut self.scalars[s_base + *slot as usize];
                // The element is real, so every step takes `apply_bin`'s
                // mixed arm whatever the accumulator holds: f64 arithmetic
                // on its `as_r`, a truth value kept as 0.0 or 1.0.
                let mut a = acc.as_r();
                with_bin_r!(*op, f => {
                    if *acc_left {
                        for k in 0..t {
                            a = f(a, e.get(k));
                        }
                    } else {
                        for k in 0..t {
                            a = f(e.get(k), a);
                        }
                    }
                });
                *acc = if op.is_boolean() {
                    Value::I(a as i64)
                } else {
                    Value::R(a)
                };
            }
            KBody::Swap { x, y, tmp } => {
                let x = plan!(x);
                let y = plan!(y);
                let mut last_x = 0.0f64;
                for k in 0..t {
                    let xv = x.get(k);
                    let yv = y.get(k);
                    x.set(k, yv);
                    y.set(k, xv);
                    last_x = xv;
                }
                // The interpreted body leaves the last swapped-out value
                // in the temporary (t >= 1 here).
                self.scalars[s_base + *tmp as usize] = Value::R(last_x);
            }
            KBody::ArgMax {
                e,
                intr,
                cmp,
                dmax,
                idx,
            } => {
                let e = plan!(e);
                // `intr` of a real is real, and comparing it takes
                // `apply_bin`'s mixed arm whatever `dmax` holds, truthy
                // when the f64 result truncates to non-zero.
                let mut best = self.scalars[s_base + *dmax as usize].as_r();
                let mut best_k: Option<i64> = None;
                let mut takes = 0u64;
                macro_rules! scan {
                    ($intr:expr, $takes:expr) => {{
                        let (intr_r, take) = ($intr, $takes);
                        for k in 0..t {
                            let m = intr_r(e.get(k));
                            if take(m, best) {
                                takes += 1;
                                best = m;
                                best_k = Some(k);
                            }
                        }
                    }};
                }
                match (intr, cmp) {
                    (SIntr::Abs, SBinOp::Gt) => scan!(|x: f64| x.abs(), |m: f64, b: f64| m > b),
                    _ => scan!(
                        |x| apply_intr(*intr, &[Value::R(x)]).as_r(),
                        |m, b| apply_bin_r(*cmp, m, b) as i64 != 0
                    ),
                }
                if let Some(k) = best_k {
                    self.scalars[s_base + *dmax as usize] = Value::R(best);
                    self.scalars[s_base + *idx as usize] = Value::I(i0 + k * step);
                }
                self.pending_ops += takes * kl.taken_ops;
                self.pending_flops += takes * kl.taken_flops;
            }
        }
        self.pending_ops += t as u64 * kl.ops_per_iter;
        self.pending_flops += t as u64 * kl.flops_per_iter;
        true
    }

    /// Second half of the remap in flight on array `id` (if one is):
    /// accepts the remaining sources' messages in order. `Err` leaves the
    /// remap in flight where it stopped, to be resumed by the same call.
    fn remap_accept(&mut self, node: &mut Node, id: usize, d1: &ArrayDist) -> Result<(), Wait> {
        let Some(mut remap) = self.remap.take() else {
            return Ok(());
        };
        while let Some((src, tag)) = remap.expects() {
            match node.try_recv(src, tag) {
                Ok(data) => remap.accept(d1, &data, &mut self.heap[id]),
                Err(wait) => {
                    self.remap = Some(remap);
                    return Err(wait);
                }
            }
        }
        if let Some(old) = remap.finish(&mut self.heap[id]) {
            self.spare = old.data;
        }
        Ok(())
    }

    /// Evaluates a section's bounds from registers into `dims_buf` and
    /// returns its point count.
    fn section_dims(&mut self, sec: &SecInstr, r_base: usize) -> usize {
        self.dims_buf.clear();
        for &(lo, hi, step) in &sec.dims {
            let l = self.regs[r_base + lo as usize].as_i();
            let h = self.regs[r_base + hi as usize].as_i();
            self.dims_buf.push((l, h, step));
        }
        rect_len(&self.dims_buf)
    }
}

/// The dispatch loop. The outer loop re-fetches the current procedure's
/// code and frame bases after every call/return; the inner loop dispatches
/// until the frame changes or the program halts.
///
/// Registers, scalar slots and elements are read and written with
/// checked indexing: a bad operand index or subscript panics, which fails
/// the rank. Lowering keeps operand indices below the frame's
/// `n_regs`/`n_slots`, so in a well-formed program only subscripts fail.
///
/// Returns when the program halts ([`Yield::Done`]) or a communication
/// instruction cannot complete ([`Yield::Blocked`]); `pc` and the frame
/// bases live in locals in between and `Vm::pc` is written only then.
fn exec(vm: &mut Vm, node: &mut Node) -> Yield {
    let lowered = vm.lowered;
    let prog = vm.prog;
    let mut pc = vm.pc;
    loop {
        let fr = vm.frames.last().unwrap();
        let (s_base, a_base, r_base) = (fr.s_base, fr.a_base, fr.r_base);
        let code = &lowered.procs[fr.proc].code;
        /// Register `$i` of the current frame.
        macro_rules! reg {
            ($i:expr) => {
                vm.regs[r_base + $i as usize]
            };
        }
        /// Scalar slot `$i` of the current frame.
        macro_rules! var {
            ($i:expr) => {
                vm.scalars[s_base + $i as usize]
            };
        }
        /// The flat storage offset of an element access on `$store` whose
        /// subscripts sit in registers `$first..+$n`.
        macro_rules! flat_of {
            ($store:expr, $first:expr, $n:expr) => {{
                let mut flat = 0;
                for k in 0..$n as usize {
                    let x = reg!($first as usize + k).as_i();
                    flat = flat_step(flat, $store.bounds[k], x, k);
                }
                flat
            }};
        }
        /// Like `flat_of!` for folded [`SubIdx`] subscript lists.
        macro_rules! flat_of_sub {
            ($store:expr, $subs:expr, $n:expr) => {{
                let mut flat = 0;
                for k in 0..$n as usize {
                    let s = $subs[k];
                    let x = if s.slot == NO_SLOT {
                        s.off as i64
                    } else {
                        var!(s.slot).as_i() + s.off as i64
                    };
                    flat = flat_step(flat, $store.bounds[k], x, k);
                }
                flat
            }};
        }
        /// Reads a fused-instruction [`Opnd`]: a register, or a scalar
        /// slot of the current frame when `slot != NO_SLOT`.
        macro_rules! opnd {
            ($o:expr) => {{
                let o = $o;
                if o.slot == NO_SLOT {
                    reg!(o.reg)
                } else {
                    var!(o.slot)
                }
            }};
        }
        /// Leaves the loop at communication instruction `$instr`, which
        /// cannot complete until `$wait` is satisfied, un-dispatching it
        /// (`pc` and the counters rewound): the next step executes it again
        /// from the top, so everything it does before its `try_*` call must
        /// be harmless to repeat.
        macro_rules! suspend {
            ($instr:expr, $wait:expr) => {{
                vm.pc = pc - 1;
                vm.instrs -= 1;
                vm.mix[op_idx($instr)] -= 1;
                return Yield::Blocked($wait);
            }};
        }
        let switched = 'frame: loop {
            let instr = &code[pc];
            vm.instrs += 1;
            vm.mix[op_idx(instr)] += 1;
            pc += 1;
            match instr {
                Instr::LdI { dst, v } => {
                    reg!(*dst) = Value::I(*v);
                }
                Instr::LdR { dst, v } => {
                    reg!(*dst) = Value::R(*v);
                }
                Instr::LdVar { dst, slot } => {
                    reg!(*dst) = var!(*slot);
                }
                Instr::StVar { slot, src } => {
                    var!(*slot) = reg!(*src);
                }
                Instr::MovI { dst, src } => {
                    reg!(*dst) = Value::I(reg!(*src).as_i());
                }
                Instr::MyP { dst } => {
                    reg!(*dst) = Value::I(node.rank() as i64);
                }
                Instr::NProcs { dst } => {
                    reg!(*dst) = Value::I(node.nprocs() as i64);
                }
                Instr::Bin { op, dst, l, r } => {
                    let a = reg!(*l);
                    let b = reg!(*r);
                    if matches!(a, Value::R(_)) || matches!(b, Value::R(_)) {
                        vm.pending_flops += 1;
                    } else {
                        vm.pending_ops += 1;
                    }
                    reg!(*dst) = apply_bin(*op, a, b);
                }
                Instr::Fma {
                    op,
                    dst,
                    acc,
                    ml,
                    mr,
                } => {
                    let x = opnd!(*ml);
                    let y = opnd!(*mr);
                    if matches!(x, Value::R(_)) || matches!(y, Value::R(_)) {
                        vm.pending_flops += 1;
                    } else {
                        vm.pending_ops += 1;
                    }
                    let m = apply_bin(SBinOp::Mul, x, y);
                    let a = opnd!(*acc);
                    if matches!(a, Value::R(_)) || matches!(m, Value::R(_)) {
                        vm.pending_flops += 1;
                    } else {
                        vm.pending_ops += 1;
                    }
                    reg!(*dst) = apply_bin(*op, a, m);
                }
                Instr::Neg { dst, src } => {
                    let v = match reg!(*src) {
                        Value::I(i) => {
                            vm.pending_ops += 1;
                            Value::I(-i)
                        }
                        Value::R(r) => {
                            vm.pending_flops += 1;
                            Value::R(-r)
                        }
                    };
                    reg!(*dst) = v;
                }
                Instr::Not { dst, src } => {
                    vm.pending_ops += 1;
                    let v = reg!(*src);
                    reg!(*dst) = Value::I(if v.truthy() { 0 } else { 1 });
                }
                Instr::Intr {
                    name,
                    dst,
                    first,
                    n,
                } => {
                    vm.pending_flops += 1;
                    let lo = r_base + *first as usize;
                    reg!(*dst) = apply_intr(*name, &vm.regs[lo..lo + *n as usize]);
                }
                Instr::Load { dst, arr, first, n } => {
                    let id = vm.atab[a_base + *arr as usize];
                    vm.pending_ops += *n as u64;
                    let store = &vm.heap[id];
                    let flat = flat_of!(store, *first, *n);
                    reg!(*dst) = Value::R(store.data[flat]);
                }
                Instr::Store { arr, first, n, src } => {
                    let id = vm.atab[a_base + *arr as usize];
                    vm.pending_ops += *n as u64;
                    let v = reg!(*src).as_r();
                    let store = &mut vm.heap[id];
                    let flat = flat_of!(store, *first, *n);
                    store.data[flat] = v;
                }
                Instr::LoadS {
                    dst,
                    arr,
                    n,
                    extra_ops,
                    subs,
                } => {
                    let id = vm.atab[a_base + *arr as usize];
                    vm.pending_ops += (*n + *extra_ops) as u64;
                    let store = &vm.heap[id];
                    let flat = flat_of_sub!(store, subs, *n);
                    reg!(*dst) = Value::R(store.data[flat]);
                }
                Instr::StoreS {
                    arr,
                    n,
                    extra_ops,
                    subs,
                    src,
                } => {
                    let id = vm.atab[a_base + *arr as usize];
                    vm.pending_ops += (*n + *extra_ops) as u64;
                    let v = reg!(*src).as_r();
                    let store = &mut vm.heap[id];
                    let flat = flat_of_sub!(store, subs, *n);
                    store.data[flat] = v;
                }
                Instr::Owner {
                    dst,
                    dist,
                    first,
                    n,
                } => {
                    let lo = r_base + *first as usize;
                    vm.subs_buf.clear();
                    for k in 0..*n as usize {
                        vm.subs_buf.push(vm.regs[lo + k].as_i());
                    }
                    vm.pending_ops += 3;
                    let d = &prog.dists[dist.0 as usize];
                    reg!(*dst) = Value::I(d.owner_of(&vm.subs_buf) as i64);
                }
                Instr::CurOwner { dst, arr, first, n } => {
                    let lo = r_base + *first as usize;
                    vm.subs_buf.clear();
                    for k in 0..*n as usize {
                        vm.subs_buf.push(vm.regs[lo + k].as_i());
                    }
                    vm.pending_ops += 3;
                    let id = vm.atab[a_base + *arr as usize];
                    let did = vm.heap[id].owner_dist.unwrap_or(vm.heap[id].dist);
                    let d = &prog.dists[did.0 as usize];
                    reg!(*dst) = Value::I(d.owner_of(&vm.subs_buf) as i64);
                }
                Instr::LocalIdx {
                    dst,
                    dist,
                    dim,
                    src,
                } => {
                    let g = reg!(*src).as_i();
                    vm.pending_ops += 2;
                    let d = &prog.dists[dist.0 as usize];
                    reg!(*dst) = Value::I(d.local_idx(*dim as usize, g));
                }
                Instr::Jmp { to } => {
                    pc = *to as usize;
                }
                Instr::BrFalse { cond, to } => {
                    vm.pending_ops += 1; // guard evaluation
                    if !reg!(*cond).truthy() {
                        pc = *to as usize;
                    }
                }
                Instr::BrNotRank { root, to } => {
                    if node.rank() as i64 != reg!(*root).as_i() {
                        pc = *to as usize;
                    }
                }
                Instr::BrNotRank0 { to } => {
                    if node.rank() != 0 {
                        pc = *to as usize;
                    }
                }
                Instr::LoopHead {
                    i,
                    var,
                    hi,
                    step,
                    exit,
                } => {
                    let iv = reg!(*i).as_i();
                    let hv = reg!(*hi).as_i();
                    if (*step > 0 && iv <= hv) || (*step < 0 && iv >= hv) {
                        var!(*var) = Value::I(iv);
                        vm.pending_ops += 1; // loop bookkeeping
                    } else {
                        pc = *exit as usize;
                    }
                }
                Instr::LoopNext {
                    i,
                    var,
                    hi,
                    step,
                    body,
                } => {
                    let v = reg!(*i).as_i() + *step;
                    reg!(*i) = Value::I(v);
                    let hv = reg!(*hi).as_i();
                    if (*step > 0 && v <= hv) || (*step < 0 && v >= hv) {
                        var!(*var) = Value::I(v);
                        vm.pending_ops += 1; // loop bookkeeping
                        pc = *body as usize;
                    }
                }
                Instr::KLoop(kl) => {
                    // Fused inner loop: identical enter test to LoopHead,
                    // then the whole trip count in one dispatch. On any
                    // precondition failure (`run_kloop` returns false with
                    // no side effects) this does exactly what LoopHead
                    // would have and falls through to the intact body.
                    let iv = reg!(kl.i).as_i();
                    let hv = reg!(kl.hi).as_i();
                    if (kl.step > 0 && iv <= hv) || (kl.step < 0 && iv >= hv) {
                        let t = (hv - iv) / kl.step + 1;
                        if vm.run_kloop(kl, s_base, a_base, iv, t) {
                            reg!(kl.i) = Value::I(iv + t * kl.step);
                            var!(kl.var) = Value::I(iv + (t - 1) * kl.step);
                            vm.fused += t as u64 * kl.fused_per_iter as u64;
                            pc = kl.exit as usize;
                        } else {
                            var!(kl.var) = Value::I(iv);
                            vm.pending_ops += 1; // loop bookkeeping
                        }
                    } else {
                        pc = kl.exit as usize;
                    }
                }
                Instr::MovVar { dst, src } => {
                    // Fused LdVar+StVar: scalar-to-scalar move, uncharged
                    // like its constituents.
                    var!(*dst) = var!(*src);
                    vm.fused += 1;
                    pc += 1; // skip the replaced StVar
                }
                Instr::BinSS { op, dst, l, r } => {
                    // Fused leaf+leaf+Bin+StVar: runtime-typed charge
                    // identical to the constituent Bin.
                    let a = vm.ssrc_val(l, s_base);
                    let b = vm.ssrc_val(r, s_base);
                    if matches!(a, Value::R(_)) || matches!(b, Value::R(_)) {
                        vm.pending_flops += 1;
                    } else {
                        vm.pending_ops += 1;
                    }
                    var!(*dst) = apply_bin(*op, a, b);
                    vm.fused += 3;
                    pc += 3; // skip the replaced leaves and StVar
                }
                Instr::LdElemVar { slot, acc } => {
                    // Fused LoadS+StVar: element load straight into a
                    // scalar slot, charged like the constituent LoadS.
                    let id = vm.atab[a_base + acc.arr as usize];
                    vm.pending_ops += (acc.n as u64) + acc.extra_ops as u64;
                    let store = &vm.heap[id];
                    let flat = flat_of_sub!(store, acc.subs, acc.n);
                    var!(*slot) = Value::R(store.data[flat]);
                    vm.fused += 1;
                    pc += 1; // skip the replaced StVar
                }
                Instr::Call(ca) => {
                    vm.do_call(node, ca, r_base, a_base, pc);
                    pc = 0;
                    break 'frame true;
                }
                Instr::Return => {
                    if vm.frames.len() == 1 {
                        vm.flush(node);
                        break 'frame false;
                    }
                    pc = vm.do_return(node);
                    break 'frame true;
                }
                Instr::Stop => {
                    vm.flush(node);
                    break 'frame false;
                }
                Instr::Gather { arr, sec } => {
                    let id = vm.atab[a_base + *arr as usize];
                    vm.pending_ops += vm.section_dims(sec, r_base) as u64; // pack cost
                    let msg = vm.msg.get_or_insert_with(|| node.acquire_buf());
                    pack(&vm.heap[id], &vm.dims_buf, msg);
                }
                Instr::Scatter { arr, sec, exact } => {
                    let id = vm.atab[a_base + *arr as usize];
                    let n = vm.section_dims(sec, r_base);
                    vm.pending_ops += n as u64; // unpack cost
                    let inc = vm.incoming.as_ref().expect("scatter without message");
                    if *exact {
                        assert_eq!(n, inc.len(), "section/message size mismatch");
                    }
                    unpack(&mut vm.heap[id], &vm.dims_buf, &inc[vm.in_off..][..n]);
                    vm.in_off += n;
                }
                Instr::SendMsg { to, tag } => {
                    let dst = reg!(*to).as_i();
                    assert!(dst >= 0, "negative send destination");
                    vm.flush(node);
                    let data = vm.msg.take().expect("send without gathered message");
                    node.send_buf(dst as usize, *tag, data);
                }
                Instr::RecvMsg { from, tag } => {
                    let src = reg!(*from).as_i();
                    assert!(src >= 0, "negative recv source");
                    vm.flush(node);
                    match node.try_recv_payload(src as usize, *tag) {
                        Ok(data) => vm.incoming = Some(data),
                        Err(wait) => suspend!(instr, wait),
                    }
                    vm.in_off = 0;
                }
                Instr::SendElem { to, val, tag } => {
                    let dst = reg!(*to).as_i() as usize;
                    let v = reg!(*val).as_r();
                    vm.flush(node);
                    let mut buf = node.acquire_buf();
                    buf.push(v);
                    node.send_buf(dst, *tag, buf);
                }
                Instr::RecvElem { from, dst, tag } => {
                    let src = reg!(*from).as_i() as usize;
                    vm.flush(node);
                    match node.try_recv_payload(src, *tag) {
                        Ok(p) => reg!(*dst) = Value::R(p[0]),
                        Err(wait) => suspend!(instr, wait),
                    }
                }
                Instr::Bcast { root, tag } => {
                    let root = reg!(*root).as_i() as usize;
                    vm.flush(node);
                    // The guarded gather/pack ran (an empty section still
                    // acquired a buffer), so the root has a payload — once:
                    // a resumed broadcast handed it over before suspending.
                    let data = if node.rank() == root {
                        vm.msg.take()
                    } else {
                        None
                    };
                    match node.try_bcast_payload(root, data, Some(*tag)) {
                        Ok(out) => vm.incoming = Some(out),
                        Err(wait) => suspend!(instr, wait),
                    }
                    vm.in_off = 0;
                }
                Instr::PostSendMsg { to, tag } => {
                    let dst = reg!(*to).as_i();
                    assert!(dst >= 0, "negative send destination");
                    vm.flush(node);
                    let data = vm.msg.take().expect("post-send without gathered message");
                    node.post_send(dst as usize, *tag, data);
                }
                Instr::WaitSendMsg => {
                    vm.flush(node);
                    node.wait_send();
                }
                Instr::PostRecvMsg { from, tag, handle } => {
                    let src = reg!(*from).as_i();
                    assert!(src >= 0, "negative recv source");
                    vm.flush(node);
                    node.post_recv(src as usize, *tag);
                    *slot(&mut vm.posted_recv, *handle) = Some((src as usize, *tag));
                }
                Instr::WaitRecvMsg { handle } => {
                    // The handle is consumed by the attempt that completes.
                    let posted = slot(&mut vm.posted_recv, *handle);
                    let (src, tag) = posted.expect("wait-recv without matching post");
                    vm.flush(node);
                    match node.try_wait_recv(src, tag) {
                        Ok(data) => vm.incoming = Some(data),
                        Err(wait) => suspend!(instr, wait),
                    }
                    *slot(&mut vm.posted_recv, *handle) = None;
                    vm.in_off = 0;
                }
                Instr::PostBcastMsg { root, tag, handle } => {
                    let root = reg!(*root).as_i() as usize;
                    vm.flush(node);
                    let data = if node.rank() == root {
                        Some(vm.msg.take().expect("posted bcast root without payload"))
                    } else {
                        None
                    };
                    let seq = node.post_bcast(root, data, Some(*tag));
                    let at = node.clock();
                    *slot(&mut vm.posted_bcast, *handle) = Some((seq, at));
                }
                Instr::WaitBcastMsg { handle } => {
                    let posted = slot(&mut vm.posted_bcast, *handle);
                    let (seq, posted_at) = posted.expect("wait-bcast without matching post");
                    vm.flush(node);
                    match node.try_wait_bcast(seq, posted_at) {
                        Ok(data) => vm.incoming = Some(data),
                        Err(wait) => suspend!(instr, wait),
                    }
                    *slot(&mut vm.posted_bcast, *handle) = None;
                    vm.in_off = 0;
                }
                Instr::Remap { arr, to } => {
                    let id = vm.atab[a_base + *arr as usize];
                    let d1 = &prog.dists[to.0 as usize];
                    // First half, once: a resumed remap is already in flight.
                    if vm.remap.is_none() {
                        let from = vm.heap[id].dist;
                        vm.flush(node);
                        node.charge_remap();
                        if from != *to {
                            let d0 = &prog.dists[from.0 as usize];
                            let spare = std::mem::take(&mut vm.spare);
                            let old = &vm.heap[id];
                            vm.remap = Some(begin_remap(node, old, d0, d1, *to, spare));
                        }
                    }
                    if let Err(wait) = vm.remap_accept(node, id, d1) {
                        suspend!(instr, wait);
                    }
                }
                Instr::RemapGlobal { arr, to } => {
                    let id = vm.atab[a_base + *arr as usize];
                    let d1 = &prog.dists[to.0 as usize];
                    if vm.remap.is_none() {
                        let from = vm.heap[id]
                            .owner_dist
                            .expect("remap_global on non-rtr array");
                        vm.flush(node);
                        node.charge_remap();
                        if from != *to {
                            let d0 = &prog.dists[from.0 as usize];
                            vm.remap = Some(begin_remap_global(node, &vm.heap[id], d0, d1));
                        }
                    }
                    if let Err(wait) = vm.remap_accept(node, id, d1) {
                        suspend!(instr, wait);
                    }
                    vm.heap[id].owner_dist = Some(*to);
                }
                Instr::MarkDist { arr, to } => {
                    let id = vm.atab[a_base + *arr as usize];
                    mark_dist_store(&mut vm.heap[id], &prog.dists, *to);
                    vm.pending_ops += 1;
                }
                Instr::Print { first, n } => {
                    let lo = r_base + *first as usize;
                    let parts: Vec<String> = vm.regs[lo..lo + *n as usize]
                        .iter()
                        .map(Value::to_string)
                        .collect();
                    vm.printed.push(parts.join(" "));
                }
            }
        };
        if !switched {
            return Yield::Done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(data: &mut [f64], f0: i64, st: i64) -> Walk {
        Walk {
            p: data.as_mut_ptr(),
            len: data.len(),
            f0,
            st,
        }
    }

    /// The column-wise precondition, judged for an 8-iteration loop.
    #[test]
    fn reads_no_store_judges_each_walk_shape() {
        let (mut v, mut u) = (vec![0.0; 32], vec![0.0; 32]);
        let (v, u) = (walk(&mut v, 0, 0), walk(&mut u, 0, 0));
        let v_at = |f0, st| Walk { f0, st, ..v };
        let ok = |leaf: Walk, dst: Walk| reads_no_store(&leaf, &dst, 8);
        // `v(i)` for `i` in 2..=9 (storage indices 2..=9).
        let dst = v_at(2, 1);
        // The identical walk: each iteration reads only what it stores.
        assert!(ok(v_at(2, 1), dst));
        // Shifted overlap either way: `v(i-1)` reads the previous
        // iteration's store; `v(i+1)` is refused just the same.
        assert!(!ok(v_at(1, 1), dst));
        assert!(!ok(v_at(3, 1), dst));
        // A fixed index inside the stored range, and outside it (dgefa's
        // `BUF$1(k)` below `i`); a disjoint walk above the range.
        assert!(!ok(v_at(5, 0), dst));
        assert!(ok(v_at(0, 0), dst));
        assert!(ok(v_at(10, 1), dst));
        // The identical walk with stride 0: `v(1) = v(1) + u(i)`.
        assert!(!ok(v_at(1, 0), v_at(1, 0)));
        // Negative strides: descending over the stored range is identical
        // or overlapping; one range below it is disjoint.
        assert!(ok(v_at(17, -1), v_at(17, -1)));
        assert!(!ok(v_at(9, -1), dst));
        assert!(ok(v_at(7, -1), v_at(17, -1)));
        // A column of a row-major 2-D array, width 4, against its
        // neighbour: interleaved, so refused though no index is shared.
        assert!(!ok(v_at(0, 4), v_at(1, 4)));
        // Other storage, however it walks.
        for (f0, st) in [(2, 1), (1, 1), (2, 0), (9, -1)] {
            assert!(ok(Walk { f0, st, ..u }, dst));
        }
    }

    /// Column-wise evaluation stores what iteration order stores when
    /// every leaf passes [`reads_no_store`] — over several chunks and a
    /// ragged last one, at full and odd row widths — and on a recurrence,
    /// which fails it, would not.
    #[test]
    fn columns_match_iteration_order_when_no_leaf_reads_a_store() {
        let t = 2 * CHUNK as i64 + 5;
        let len = t as usize + 1;
        let fresh = || -> Vec<f64> {
            (0..len)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.5 - 20.0)
                .collect()
        };
        let u = &mut fresh();
        // `v(i+1) = -(v(i+1)/u(i) - v(0)*0.25)`, and the recurrence
        // `v(i+1) = v(i)*0.5 + 1.0`; each with its destination.
        let scaled = |v: &mut [f64], u: &mut [f64]| {
            let prog = vec![
                XNode::M(walk(v, 1, 1)),
                XNode::M(walk(u, 0, 1)),
                XNode::Bin(SBinOp::Div),
                XNode::M(walk(v, 0, 0)),
                XNode::C(0.25),
                XNode::Bin(SBinOp::Mul),
                XNode::Bin(SBinOp::Sub),
                XNode::Neg,
            ];
            (prog, walk(v, 1, 1))
        };
        let recurrence = |v: &mut [f64], _: &mut [f64]| {
            let prog = vec![
                XNode::M(walk(v, 0, 1)),
                XNode::C(0.5),
                XNode::Bin(SBinOp::Mul),
                XNode::C(1.0),
                XNode::Bin(SBinOp::Add),
            ];
            (prog, walk(v, 1, 1))
        };
        type Prog<'a> = &'a dyn Fn(&mut [f64], &mut [f64]) -> (Vec<XNode>, Walk);
        let in_order = |prog: Prog, u: &mut [f64]| {
            let mut v = fresh();
            let (nodes, dst) = prog(&mut v, u);
            expr_in_order(&nodes, dst, t);
            v
        };
        let columns = |prog: Prog, u: &mut [f64], w: usize| {
            let mut v = fresh();
            let (nodes, dst) = prog(&mut v, u);
            let independent = columns_ok(&nodes, &dst, t);
            expr_columns(&nodes, dst, t, w, &mut vec![0.0; 3 * w]);
            (independent, v)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = bits(&in_order(&scaled, u));
        for w in [CHUNK, 7] {
            let (independent, got) = columns(&scaled, u, w);
            assert!(independent);
            assert_eq!(bits(&got), want, "row width {w}");
        }
        let (independent, got) = columns(&recurrence, u, CHUNK);
        assert!(!independent);
        assert_ne!(bits(&got), bits(&in_order(&recurrence, u)));
    }
}

//! Lowering of SPMD node programs to dense bytecode.
//!
//! The tree IR re-dispatches on enum variants and hashes symbol names on
//! every access. Lowering flattens each procedure once, ahead of the run:
//!
//! * **Slot resolution** — every scalar gets a dense frame slot and every
//!   array a dense frame-table index, computed per procedure in a first
//!   pass over all procedures (so call sites can name callee slots).
//! * **Guards to jumps** — `IF` becomes `BrFalse`, root-only gather code
//!   becomes `BrNotRank`, `print` becomes `BrNotRank0`; loops become a
//!   `LoopHead` entry test plus a rotated `LoopNext` back-edge with pinned
//!   index/bound registers.
//! * **Register file** — expressions evaluate into a per-frame register
//!   stack with a simple watermark allocator; subexpression temporaries
//!   are freed structurally, so argument/subscript lists always occupy
//!   consecutive registers.
//!
//! The VM ([`crate::vm`]) executes the result, replicating the tree
//! engine's cost-charging model instruction by instruction. Since charges
//! only become observable when flushed at communication points, the VM is
//! free to reorder charge accumulation *within* a flush window — totals
//! per window are identical, which is the determinism argument for
//! bit-identical simulated clocks (DESIGN.md).

use crate::ir::*;
use crate::runtime::bcast_tag;
use fortrand_ir::Sym;
use rustc_hash::{FxHashMap, FxHashSet};

/// Frame-relative register index.
pub(crate) type Reg = u16;
/// Frame-relative scalar slot index.
pub(crate) type Slot = u16;

/// Section operand: per-dimension `(lo, hi)` bound registers and the
/// static step. The VM evaluates the bounds each time the section runs and
/// hands them to `fortrand_rt::{pack, unpack}`.
#[derive(Debug)]
pub(crate) struct SecInstr {
    pub dims: Vec<(Reg, Reg, i64)>,
}

/// A folded subscript: `scalars[slot].as_i() + off`, or the constant
/// `off` alone when `slot == NO_SLOT`. Offsets are folded only for slots
/// that provably always hold integers (loop variables never otherwise
/// assigned), so the integer add matches the tree engine's `I + I`
/// evaluation and its 1-op charge exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SubIdx {
    pub slot: Slot,
    pub off: i32,
}

/// Sentinel slot marking a [`SubIdx`] as a pure constant.
pub(crate) const NO_SLOT: Slot = Slot::MAX;

/// Fused-instruction operand: a register, or a scalar slot read at
/// execution time when `slot != NO_SLOT`. Deferring the slot read past
/// the rest of the operand lowering is safe because expression
/// evaluation never writes scalars, so the slot still holds the value a
/// `LdVar` at the original position would have loaded.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Opnd {
    pub slot: Slot,
    pub reg: Reg,
}

/// Strided element access inside a fused kernel: the same folded
/// subscript form as [`LoadS`](Instr::LoadS)/[`StoreS`](Instr::StoreS),
/// packaged so the kernel executor can turn it into a `flat0 + t*stride`
/// walk over the frame's array storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct KAcc {
    pub arr: u16,
    pub n: u16,
    pub extra_ops: u16,
    pub subs: [SubIdx; 3],
}

impl KAcc {
    /// Ops charged by the LoadS/StoreS this access replaces.
    fn ops(&self) -> u64 {
        (self.n + self.extra_ops) as u64
    }
}

/// Decoded operand of a fused kernel or scalar superinstruction: an
/// array element walk, a scalar slot read, or an immediate. Slot
/// operands are only accepted by the fuser when the slot is provably
/// loop-invariant (never the loop variable, never written by the fused
/// window), so the executor may read them once.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KSrc {
    Elem(KAcc),
    Slot(Slot),
    ImmI(i64),
    ImmR(f64),
}

impl KSrc {
    fn elem_ops(&self) -> u64 {
        match self {
            KSrc::Elem(a) => a.ops(),
            _ => 0,
        }
    }
    /// True when the operand is statically known to evaluate to
    /// `Value::R` (elements always load as reals).
    fn always_real(&self) -> bool {
        matches!(self, KSrc::Elem(_) | KSrc::ImmR(_))
    }
}

/// Operand of a [`BinSS`](Instr::BinSS): a scalar slot or an immediate,
/// never an element walk. Keeping element accesses out of it keeps
/// `BinSS` as small as the other instructions.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SSrc {
    Slot(Slot),
    ImmI(i64),
    ImmR(f64),
}

/// One node of a [`KBody::Expr`] postfix program.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KOp {
    /// Pushes an operand.
    Leaf(KSrc),
    /// Pops `r`, then `l`; pushes `l op r`.
    Bin(SBinOp),
    /// Negates the top of the stack.
    Neg,
}

/// Most nodes in a [`KBody::Expr`] program.
pub(crate) const EXPR_NODES: usize = 16;
/// Deepest evaluation stack a [`KBody::Expr`] program may need.
pub(crate) const EXPR_DEPTH: usize = 8;

/// Recognized whole-loop-body kernels. Each variant names the exact
/// instruction shape it replaced; the executor replays that shape's
/// per-element semantics (including `Value` promotion via `apply_bin`/
/// `apply_intr`) in a tight loop with no dispatch.
#[derive(Clone, Debug)]
pub(crate) enum KBody {
    /// `a(...) = v` — loop-invariant fill.
    Fill { dst: KAcc, v: KSrc },
    /// `a(...) = b(...)` — strided copy.
    Copy { dst: KAcc, src: KAcc },
    /// `a(...) = expr` — any tree of leaves, `Bin` and `Neg` (an `Fma`
    /// as its `Mul` then its add/sub) in which every operator has a
    /// statically real operand: each operator then takes `apply_bin`'s
    /// mixed arm and charges one flop, so the program runs on plain
    /// `f64`s (a truth value as 0.0 or 1.0). Covers the stencil
    /// `v(i) = 0.5*(u(i)+u(i+1))` and `Scal`'s `a(i) = a(i)/x`.
    Expr { dst: KAcc, code: Box<[KOp]> },
    /// `a(...) = acc op (ml*mr)` — the Axpy/daxpy inner loop.
    Fma {
        op: SBinOp,
        dst: KAcc,
        acc: KSrc,
        ml: KSrc,
        mr: KSrc,
    },
    /// `s = s op e(...)` (`acc_left`) or `s = e(...) op s` — running
    /// reduction into a scalar (sum, max, ...).
    RedBin {
        op: SBinOp,
        slot: Slot,
        e: KAcc,
        acc_left: bool,
    },
    /// `t = x(...); x(...) = y(...); y(...) = t` — dgefa's row swap.
    Swap { x: KAcc, y: KAcc, tmp: Slot },
    /// `if (intr(e(...)) cmp dmax) then dmax = intr(e(...)); idx = var`
    /// — idamax-style guarded arg-reduction.
    ArgMax {
        e: KAcc,
        intr: SIntr,
        cmp: SBinOp,
        dmax: Slot,
        idx: Slot,
    },
}

/// A fused loop: retains every [`LoopHead`](Instr::LoopHead) field so
/// the executor can fall back to the *intact* unfused body (still in
/// the code right after this instruction) whenever a precondition
/// fails — e.g. an endpoint subscript out of local bounds, where the
/// slow path must panic at the exact offending iteration.
#[derive(Debug)]
pub(crate) struct KLoop {
    pub i: Reg,
    pub var: Slot,
    pub hi: Reg,
    pub step: i64,
    pub exit: u32,
    /// Dispatches the fast path retires per iteration (body + LoopNext).
    pub fused_per_iter: u32,
    /// Flop/op inventory of one iteration (including the 1-op loop
    /// bookkeeping charge), batch-applied as `trip_count * per_iter`.
    pub ops_per_iter: u64,
    pub flops_per_iter: u64,
    /// Extra charges per *taken* guard iteration (ArgMax only).
    pub taken_ops: u64,
    pub taken_flops: u64,
    pub body: KBody,
}

/// Call operand: pre-resolved argument and copy-out plumbing.
#[derive(Debug)]
pub(crate) struct CallArgs {
    pub callee: usize,
    /// `(callee scalar slot, caller register)` for by-value scalars.
    pub scalars: Vec<(Slot, Reg)>,
    /// Caller array-table index per array formal, in formal order.
    pub arrays: Vec<u16>,
    /// `(callee slot, caller slot)` scalar copy-out pairs.
    pub copy_out: Vec<(Slot, Slot)>,
}

/// One bytecode instruction. Register/slot/table operands are
/// frame-relative; jump targets are absolute instruction indices within
/// the procedure.
#[derive(Debug)]
pub(crate) enum Instr {
    LdI {
        dst: Reg,
        v: i64,
    },
    LdR {
        dst: Reg,
        v: f64,
    },
    LdVar {
        dst: Reg,
        slot: Slot,
    },
    StVar {
        slot: Slot,
        src: Reg,
    },
    /// `dst = I(src.as_i())` — loop-bound normalization.
    MovI {
        dst: Reg,
        src: Reg,
    },
    MyP {
        dst: Reg,
    },
    NProcs {
        dst: Reg,
    },
    Bin {
        op: SBinOp,
        dst: Reg,
        l: Reg,
        r: Reg,
    },
    /// Fused multiply-accumulate `dst = acc op (ml * mr)` (`op` is Add
    /// or Sub, the multiply on the right as in the source expression).
    /// Charges exactly what the `Bin(Mul)` + `Bin(op)` pair it replaces
    /// would: one flop-or-op per constituent operation, decided by the
    /// runtime operand types.
    Fma {
        op: SBinOp,
        dst: Reg,
        acc: Opnd,
        ml: Opnd,
        mr: Opnd,
    },
    Neg {
        dst: Reg,
        src: Reg,
    },
    Not {
        dst: Reg,
        src: Reg,
    },
    /// Arguments live in `n` consecutive registers from `first`.
    Intr {
        name: SIntr,
        dst: Reg,
        first: Reg,
        n: u16,
    },
    /// Array element read; subscripts in `n` consecutive registers.
    Load {
        dst: Reg,
        arr: u16,
        first: Reg,
        n: u16,
    },
    /// Array element write of register `src`.
    Store {
        arr: u16,
        first: Reg,
        n: u16,
        src: Reg,
    },
    /// Element read with all subscripts folded to `slot±off`/const forms
    /// (the dominant case), skipping the per-subscript register traffic.
    /// `extra_ops` charges the folded integer adds.
    LoadS {
        dst: Reg,
        arr: u16,
        n: u16,
        extra_ops: u16,
        subs: [SubIdx; 3],
    },
    /// Element write of register `src` with folded subscripts.
    StoreS {
        arr: u16,
        n: u16,
        extra_ops: u16,
        subs: [SubIdx; 3],
        src: Reg,
    },
    Owner {
        dst: Reg,
        dist: DistId,
        first: Reg,
        n: u16,
    },
    CurOwner {
        dst: Reg,
        arr: u16,
        first: Reg,
        n: u16,
    },
    LocalIdx {
        dst: Reg,
        dist: DistId,
        dim: u16,
        src: Reg,
    },
    Jmp {
        to: u32,
    },
    /// `IF` guard: charges 1 op, falls through when truthy.
    BrFalse {
        cond: Reg,
        to: u32,
    },
    /// Skip when this rank is not the one named by `root` (uncharged).
    BrNotRank {
        root: Reg,
        to: u32,
    },
    /// Skip when this rank is not rank 0 (uncharged; `print` guard).
    BrNotRank0 {
        to: u32,
    },
    /// Loop test: enters the body (setting `var`, charging 1 op) while the
    /// pinned index register is within the bound register, else exits.
    LoopHead {
        i: Reg,
        var: Slot,
        hi: Reg,
        step: i64,
        exit: u32,
    },
    /// Rotated back-edge: increments the pinned index, re-tests the bound,
    /// and on success sets `var`, charges 1 op and jumps to `body` (the
    /// instruction after the loop head); on failure falls through to the
    /// loop exit. Fuses the former increment + head re-test dispatches.
    LoopNext {
        i: Reg,
        var: Slot,
        hi: Reg,
        step: i64,
        body: u32,
    },
    Call(Box<CallArgs>),
    Return,
    Stop,
    /// Appends section elements to the outgoing message buffer.
    Gather {
        arr: u16,
        sec: Box<SecInstr>,
    },
    /// Consumes section elements from the incoming message. `exact`
    /// asserts the section spans the whole message (point-to-point and
    /// plain broadcast; packed broadcasts slice).
    Scatter {
        arr: u16,
        sec: Box<SecInstr>,
        exact: bool,
    },
    SendMsg {
        to: Reg,
        tag: u64,
    },
    RecvMsg {
        from: Reg,
        tag: u64,
    },
    SendElem {
        to: Reg,
        val: Reg,
        tag: u64,
    },
    RecvElem {
        from: Reg,
        dst: Reg,
        tag: u64,
    },
    /// Collective broadcast of the outgoing buffer (root) into the
    /// incoming message (all ranks).
    Bcast {
        root: Reg,
        tag: u64,
    },
    /// Nonblocking send of the outgoing buffer. Send completion needs no
    /// handle state in the engine: the wait is pure bookkeeping.
    PostSendMsg {
        to: Reg,
        tag: u64,
    },
    WaitSendMsg,
    /// Posts a receive: latches `(from, tag)` into the handle slot. The
    /// matching `WaitRecvMsg` performs the actual blocking receive.
    PostRecvMsg {
        from: Reg,
        tag: u64,
        handle: u32,
    },
    /// Completes a posted receive into the incoming message.
    WaitRecvMsg {
        handle: u32,
    },
    /// Posts a broadcast of the outgoing buffer (root); every rank
    /// advances its posted-collective sequence number.
    PostBcastMsg {
        root: Reg,
        tag: u64,
        handle: u32,
    },
    /// Completes a posted broadcast into the incoming message.
    WaitBcastMsg {
        handle: u32,
    },
    Remap {
        arr: u16,
        to: DistId,
    },
    RemapGlobal {
        arr: u16,
        to: DistId,
    },
    MarkDist {
        arr: u16,
        to: DistId,
    },
    Print {
        first: Reg,
        n: u16,
    },
    /// Fused whole-loop kernel (replaces a `LoopHead` in place; the
    /// original body and `LoopNext` remain live as the slow path).
    KLoop(Box<KLoop>),
    /// `scalars[dst] = scalars[src]` — fuses `LdVar + StVar` (skips 1).
    MovVar {
        dst: Slot,
        src: Slot,
    },
    /// `scalars[dst] = l op r` — fuses `leaf + leaf + Bin + StVar`
    /// (skips 3); charges one runtime-typed flop-or-op like `Bin`.
    BinSS {
        op: SBinOp,
        dst: Slot,
        l: SSrc,
        r: SSrc,
    },
    /// `scalars[slot] = a(...)` — fuses `LoadS + StVar` (skips 1).
    LdElemVar {
        slot: Slot,
        acc: KAcc,
    },
}

// A compiled program keeps its bytecode for as long as it lives, and a
// recompile holds a second one beside it. At 88 bytes an instruction,
// `wide_u300`'s 27 901 instructions held 3.5 MB and raised its peak RSS
// by 27 %; at 40 they hold 1.5 MB. A variant that grows past 40 bytes
// belongs behind a `Box`, as `Call`, `Gather` and `KLoop` are.
const _: () = assert!(std::mem::size_of::<Instr>() <= 40);

/// Number of distinct opcodes (sizes the VM's dynamic-mix histogram).
pub(crate) const N_OPCODES: usize = 49;

/// Display names indexed by [`op_idx`].
pub(crate) const OPCODE_NAMES: [&str; N_OPCODES] = [
    "LdI",
    "LdR",
    "LdVar",
    "StVar",
    "MovI",
    "MyP",
    "NProcs",
    "Bin",
    "Fma",
    "Neg",
    "Not",
    "Intr",
    "Load",
    "Store",
    "LoadS",
    "StoreS",
    "Owner",
    "CurOwner",
    "LocalIdx",
    "Jmp",
    "BrFalse",
    "BrNotRank",
    "BrNotRank0",
    "LoopHead",
    "LoopNext",
    "Call",
    "Return",
    "Stop",
    "Gather",
    "Scatter",
    "SendMsg",
    "RecvMsg",
    "SendElem",
    "RecvElem",
    "Bcast",
    "PostSendMsg",
    "WaitSendMsg",
    "PostRecvMsg",
    "WaitRecvMsg",
    "PostBcastMsg",
    "WaitBcastMsg",
    "Remap",
    "RemapGlobal",
    "MarkDist",
    "Print",
    "KLoop",
    "MovVar",
    "BinSS",
    "LdElemVar",
];

/// Dense opcode index of an instruction, for the dynamic-mix histogram.
pub(crate) fn op_idx(i: &Instr) -> usize {
    match i {
        Instr::LdI { .. } => 0,
        Instr::LdR { .. } => 1,
        Instr::LdVar { .. } => 2,
        Instr::StVar { .. } => 3,
        Instr::MovI { .. } => 4,
        Instr::MyP { .. } => 5,
        Instr::NProcs { .. } => 6,
        Instr::Bin { .. } => 7,
        Instr::Fma { .. } => 8,
        Instr::Neg { .. } => 9,
        Instr::Not { .. } => 10,
        Instr::Intr { .. } => 11,
        Instr::Load { .. } => 12,
        Instr::Store { .. } => 13,
        Instr::LoadS { .. } => 14,
        Instr::StoreS { .. } => 15,
        Instr::Owner { .. } => 16,
        Instr::CurOwner { .. } => 17,
        Instr::LocalIdx { .. } => 18,
        Instr::Jmp { .. } => 19,
        Instr::BrFalse { .. } => 20,
        Instr::BrNotRank { .. } => 21,
        Instr::BrNotRank0 { .. } => 22,
        Instr::LoopHead { .. } => 23,
        Instr::LoopNext { .. } => 24,
        Instr::Call(_) => 25,
        Instr::Return => 26,
        Instr::Stop => 27,
        Instr::Gather { .. } => 28,
        Instr::Scatter { .. } => 29,
        Instr::SendMsg { .. } => 30,
        Instr::RecvMsg { .. } => 31,
        Instr::SendElem { .. } => 32,
        Instr::RecvElem { .. } => 33,
        Instr::Bcast { .. } => 34,
        Instr::PostSendMsg { .. } => 35,
        Instr::WaitSendMsg => 36,
        Instr::PostRecvMsg { .. } => 37,
        Instr::WaitRecvMsg { .. } => 38,
        Instr::PostBcastMsg { .. } => 39,
        Instr::WaitBcastMsg { .. } => 40,
        Instr::Remap { .. } => 41,
        Instr::RemapGlobal { .. } => 42,
        Instr::MarkDist { .. } => 43,
        Instr::Print { .. } => 44,
        Instr::KLoop(_) => 45,
        Instr::MovVar { .. } => 46,
        Instr::BinSS { .. } => 47,
        Instr::LdElemVar { .. } => 48,
    }
}

/// A lowered procedure.
pub(crate) struct LProc {
    pub code: Vec<Instr>,
    /// Scalar frame size.
    pub n_slots: u16,
    /// Register frame size (peak watermark).
    pub n_regs: u16,
    /// Local array declarations, instantiated at frame entry.
    pub decls: Vec<SDecl>,
    /// True per formal if it is an array (arity/kind checking happens at
    /// lower time; kept for the VM's main-entry assertion).
    pub array_formals: usize,
}

/// A lowered program.
pub(crate) struct Lowered {
    pub procs: Vec<LProc>,
}

/// Per-procedure symbol layout (phase A).
struct Layout {
    scalar_slots: FxHashMap<Sym, Slot>,
    n_slots: u16,
    array_idx: FxHashMap<Sym, u16>,
}

impl Layout {
    fn slot_of(&self, s: Sym, prog: &SpmdProgram) -> Slot {
        *self
            .scalar_slots
            .get(&s)
            .unwrap_or_else(|| panic!("unbound scalar `{}`", prog.interner.name(s)))
    }
    fn arr_of(&self, s: Sym, prog: &SpmdProgram) -> u16 {
        *self
            .array_idx
            .get(&s)
            .unwrap_or_else(|| panic!("unbound array `{}`", prog.interner.name(s)))
    }
}

fn add_scalar(l: &mut Layout, s: Sym) {
    if !l.scalar_slots.contains_key(&s) {
        let slot = Slot::try_from(l.scalar_slots.len()).expect("scalar slot overflow");
        l.scalar_slots.insert(s, slot);
    }
}

/// Phase A: assign scalar slots (formals first, in formal order, then
/// body symbols in first-occurrence order) and array table indices
/// (array formals in formal order, then decls).
fn layout_proc(p: &SProc) -> Layout {
    let mut l = Layout {
        scalar_slots: FxHashMap::default(),
        n_slots: 0,
        array_idx: FxHashMap::default(),
    };
    let mut next_arr = 0u16;
    for f in &p.formals {
        if f.is_array {
            l.array_idx.insert(f.name, next_arr);
            next_arr += 1;
        } else {
            add_scalar(&mut l, f.name);
        }
    }
    for d in &p.decls {
        // A decl sharing a formal's name shadows it (matching the tree
        // engine's frame-construction order).
        l.array_idx.insert(d.name, next_arr);
        next_arr += 1;
    }
    walk_scalar_mentions(&p.body, &mut |s| add_scalar(&mut l, s));
    l.n_slots = Slot::try_from(l.scalar_slots.len()).expect("scalar slot overflow");
    l
}

/// Lowers a whole program: phase A computes every procedure's layout,
/// phase B flattens each body against its own layout (and callees').
/// When `fuse` is set, a peephole pass then collapses recognized
/// whole-loop bodies into [`Instr::KLoop`] superinstructions and short
/// scalar windows into `MovVar`/`BinSS`/`LdElemVar`.
pub(crate) fn lower_with(prog: &SpmdProgram, fuse: bool) -> Lowered {
    let layouts: Vec<Layout> = prog.procs.iter().map(layout_proc).collect();
    let procs = prog
        .procs
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            // Slots guaranteed to always hold integers: loop variables
            // whose only writer is the loop head (formals and any other
            // write could introduce an R).
            let mut do_vars = FxHashSet::default();
            let mut written: FxHashSet<Sym> = p
                .formals
                .iter()
                .filter(|f| !f.is_array)
                .map(|f| f.name)
                .collect();
            walk_operands(&p.body, &mut |op| match op {
                Operand::Scalar {
                    var,
                    role: Role::DoHead,
                } => {
                    do_vars.insert(var);
                }
                Operand::Scalar {
                    var,
                    role: Role::Def,
                }
                | Operand::CopyOut { caller: var, .. } => {
                    written.insert(var);
                }
                _ => {}
            });
            let int_slots: FxHashSet<Slot> = do_vars
                .difference(&written)
                .filter_map(|s| layouts[pi].scalar_slots.get(s).copied())
                .collect();
            let mut lw = ProcLowerer {
                prog,
                layouts: &layouts,
                layout: &layouts[pi],
                int_slots,
                code: Vec::new(),
                next_reg: 0,
                max_reg: 0,
            };
            lw.lower_body(&p.body);
            lw.code.push(Instr::Return);
            let mut code = lw.code;
            if fuse {
                fuse_proc(&mut code);
            }
            // The code outlives the lowering: keep no spare capacity.
            code.shrink_to_fit();
            LProc {
                code,
                n_slots: layouts[pi].n_slots,
                n_regs: lw.max_reg,
                decls: p.decls.clone(),
                array_formals: p.formals.iter().filter(|f| f.is_array).count(),
            }
        })
        .collect();
    Lowered { procs }
}

struct ProcLowerer<'p> {
    prog: &'p SpmdProgram,
    layouts: &'p [Layout],
    layout: &'p Layout,
    /// Slots that always hold `Value::I` (see [`lower`]); offsets may be
    /// folded into subscripts on these.
    int_slots: FxHashSet<Slot>,
    code: Vec<Instr>,
    next_reg: u16,
    max_reg: u16,
}

impl ProcLowerer<'_> {
    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg = self.next_reg.checked_add(1).expect("register overflow");
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn free_to(&mut self, mark: u16) {
        self.next_reg = mark;
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::Jmp { to: t }
            | Instr::BrFalse { to: t, .. }
            | Instr::BrNotRank { to: t, .. }
            | Instr::BrNotRank0 { to: t }
            | Instr::LoopHead { exit: t, .. } => *t = to,
            other => panic!("patching non-branch {other:?}"),
        }
    }

    /// Tries to fold one subscript expression into a [`SubIdx`]. Charges:
    /// a folded `var ± const` carries the 1-op charge of the integer add
    /// it replaces; plain vars and constants charge nothing, exactly like
    /// their register-path evaluation.
    fn fold_sub(&self, e: &SExpr) -> Option<(SubIdx, u16)> {
        match e {
            SExpr::Int(v) => i32::try_from(*v)
                .ok()
                .map(|off| (SubIdx { slot: NO_SLOT, off }, 0)),
            SExpr::Var(s) => Some((
                SubIdx {
                    slot: self.layout.slot_of(*s, self.prog),
                    off: 0,
                },
                0,
            )),
            SExpr::Bin { op, l, r } => {
                let (s, c) = match (op, &**l, &**r) {
                    (SBinOp::Add, SExpr::Var(s), SExpr::Int(c)) => (*s, *c),
                    (SBinOp::Add, SExpr::Int(c), SExpr::Var(s)) => (*s, *c),
                    (SBinOp::Sub, SExpr::Var(s), SExpr::Int(c)) => (*s, c.checked_neg()?),
                    _ => return None,
                };
                let slot = self.layout.slot_of(s, self.prog);
                if !self.int_slots.contains(&slot) {
                    return None;
                }
                let off = i32::try_from(c).ok()?;
                Some((SubIdx { slot, off }, 1))
            }
            _ => None,
        }
    }

    /// Folds a whole subscript list, or gives up (falling back to the
    /// register path) if any subscript is non-simple or rank > 3.
    fn try_fold_subs(&self, subs: &[SExpr]) -> Option<([SubIdx; 3], u16, u16)> {
        if subs.len() > 3 {
            return None;
        }
        let mut out = [SubIdx {
            slot: NO_SLOT,
            off: 0,
        }; 3];
        let mut extra = 0u16;
        for (k, e) in subs.iter().enumerate() {
            let (si, c) = self.fold_sub(e)?;
            out[k] = si;
            extra += c;
        }
        Some((out, subs.len() as u16, extra))
    }

    /// Lowers a fused-instruction operand: plain scalar reads become a
    /// deferred slot access (no register, no dispatch); anything else
    /// goes through [`Self::lower_expr`] into a register.
    fn lower_opnd(&mut self, e: &SExpr) -> Opnd {
        if let SExpr::Var(s) = e {
            Opnd {
                slot: self.layout.slot_of(*s, self.prog),
                reg: 0,
            }
        } else {
            Opnd {
                slot: NO_SLOT,
                reg: self.lower_expr(e),
            }
        }
    }

    /// Lowers `e`, leaving the result in the returned register. Net effect
    /// on the allocator is exactly one register (the result, at the lowest
    /// position); temporaries above it are freed.
    fn lower_expr(&mut self, e: &SExpr) -> Reg {
        match e {
            SExpr::Int(v) => {
                let d = self.alloc();
                self.code.push(Instr::LdI { dst: d, v: *v });
                d
            }
            SExpr::Real(v) => {
                let d = self.alloc();
                self.code.push(Instr::LdR { dst: d, v: *v });
                d
            }
            SExpr::Var(s) => {
                let d = self.alloc();
                let slot = self.layout.slot_of(*s, self.prog);
                self.code.push(Instr::LdVar { dst: d, slot });
                d
            }
            SExpr::MyP => {
                let d = self.alloc();
                self.code.push(Instr::MyP { dst: d });
                d
            }
            SExpr::NProcs => {
                let d = self.alloc();
                self.code.push(Instr::NProcs { dst: d });
                d
            }
            SExpr::Elem { array, subs } => {
                let arr = self.layout.arr_of(*array, self.prog);
                if let Some((sx, n, extra_ops)) = self.try_fold_subs(subs) {
                    let d = self.alloc();
                    self.code.push(Instr::LoadS {
                        dst: d,
                        arr,
                        n,
                        extra_ops,
                        subs: sx,
                    });
                    return d;
                }
                let d = self.alloc();
                let first = self.next_reg;
                for s in subs {
                    self.lower_expr(s);
                }
                self.code.push(Instr::Load {
                    dst: d,
                    arr,
                    first,
                    n: subs.len() as u16,
                });
                self.free_to(d + 1);
                d
            }
            SExpr::Bin { op, l, r } => {
                if matches!(op, SBinOp::Add | SBinOp::Sub) {
                    if let SExpr::Bin {
                        op: SBinOp::Mul,
                        l: ml,
                        r: mr,
                    } = &**r
                    {
                        let d = self.alloc();
                        let acc = self.lower_opnd(l);
                        let x = self.lower_opnd(ml);
                        let y = self.lower_opnd(mr);
                        self.code.push(Instr::Fma {
                            op: *op,
                            dst: d,
                            acc,
                            ml: x,
                            mr: y,
                        });
                        self.free_to(d + 1);
                        return d;
                    }
                }
                let a = self.lower_expr(l);
                let b = self.lower_expr(r);
                self.code.push(Instr::Bin {
                    op: *op,
                    dst: a,
                    l: a,
                    r: b,
                });
                self.free_to(a + 1);
                a
            }
            SExpr::Neg(x) => {
                let s = self.lower_expr(x);
                self.code.push(Instr::Neg { dst: s, src: s });
                s
            }
            SExpr::Not(x) => {
                let s = self.lower_expr(x);
                self.code.push(Instr::Not { dst: s, src: s });
                s
            }
            SExpr::Intr { name, args } => {
                let d = self.alloc();
                let first = self.next_reg;
                for a in args {
                    self.lower_expr(a);
                }
                self.code.push(Instr::Intr {
                    name: *name,
                    dst: d,
                    first,
                    n: args.len() as u16,
                });
                self.free_to(d + 1);
                d
            }
            SExpr::Owner { dist, subs } => {
                let d = self.alloc();
                let first = self.next_reg;
                for s in subs {
                    self.lower_expr(s);
                }
                self.code.push(Instr::Owner {
                    dst: d,
                    dist: *dist,
                    first,
                    n: subs.len() as u16,
                });
                self.free_to(d + 1);
                d
            }
            SExpr::CurOwner { array, subs } => {
                let d = self.alloc();
                let arr = self.layout.arr_of(*array, self.prog);
                let first = self.next_reg;
                for s in subs {
                    self.lower_expr(s);
                }
                self.code.push(Instr::CurOwner {
                    dst: d,
                    arr,
                    first,
                    n: subs.len() as u16,
                });
                self.free_to(d + 1);
                d
            }
            SExpr::LocalIdx { dist, dim, sub } => {
                let s = self.lower_expr(sub);
                self.code.push(Instr::LocalIdx {
                    dst: s,
                    dist: *dist,
                    dim: *dim as u16,
                    src: s,
                });
                s
            }
        }
    }

    /// The root's side of a broadcast: the sources gathered under one
    /// branch the other ranks take (the bounds evaluate on the root only).
    fn lower_bcast_gather<'s>(&mut self, root: Reg, src: impl Iterator<Item = (Sym, &'s SRect)>) {
        let br = self.code.len();
        self.code.push(Instr::BrNotRank { root, to: 0 });
        self.lower_gather(src);
        let after = self.here();
        self.patch(br, after);
    }

    /// Every source section gathered into the outgoing buffer, in order.
    fn lower_gather<'s>(&mut self, src: impl IntoIterator<Item = (Sym, &'s SRect)>) {
        for (array, section) in src {
            let mark = self.next_reg;
            let arr = self.layout.arr_of(array, self.prog);
            let sec = self.lower_section(section);
            self.code.push(Instr::Gather { arr, sec });
            self.free_to(mark);
        }
    }

    /// The receiving side of a message: the incoming payload scattered
    /// into each destination, in order. A single section spans the whole
    /// message; each of several is a slice the tree engine sizes by
    /// enumerating the section once before it scatters, so its bounds are
    /// evaluated twice to keep charge totals equal (the first set is dead).
    fn lower_scatter<'s>(&mut self, dst: impl ExactSizeIterator<Item = (Sym, &'s SRect)>) {
        let whole = dst.len() == 1;
        for (array, section) in dst {
            let mark = self.next_reg;
            if !whole {
                self.lower_section(section);
                self.free_to(mark);
            }
            let arr = self.layout.arr_of(array, self.prog);
            let sec = self.lower_section(section);
            self.code.push(Instr::Scatter {
                arr,
                sec,
                exact: whole,
            });
            self.free_to(mark);
        }
    }

    /// Lowers a section's bound expressions (kept live until the consuming
    /// Gather/Scatter executes) into a [`SecInstr`].
    fn lower_section(&mut self, r: &SRect) -> Box<SecInstr> {
        let dims = r
            .dims
            .iter()
            .map(|(lo, hi, step)| {
                let lr = self.lower_expr(lo);
                let hr = self.lower_expr(hi);
                (lr, hr, *step)
            })
            .collect();
        Box::new(SecInstr { dims })
    }

    fn lower_body(&mut self, body: &[SStmt]) {
        for s in body {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &SStmt) {
        let mark = self.next_reg;
        match s {
            SStmt::Comment(_) => {}
            SStmt::Assign { lhs, rhs } => {
                let r = self.lower_expr(rhs);
                match lhs {
                    SLval::Scalar(sym) => {
                        let slot = self.layout.slot_of(*sym, self.prog);
                        self.code.push(Instr::StVar { slot, src: r });
                    }
                    SLval::Elem { array, subs } => {
                        let arr = self.layout.arr_of(*array, self.prog);
                        if let Some((sx, n, extra_ops)) = self.try_fold_subs(subs) {
                            self.code.push(Instr::StoreS {
                                arr,
                                n,
                                extra_ops,
                                subs: sx,
                                src: r,
                            });
                        } else {
                            let first = self.next_reg;
                            for e in subs {
                                self.lower_expr(e);
                            }
                            self.code.push(Instr::Store {
                                arr,
                                first,
                                n: subs.len() as u16,
                                src: r,
                            });
                        }
                    }
                }
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                assert!(*step != 0, "zero DO step");
                let var_slot = self.layout.slot_of(*var, self.prog);
                let i_reg = self.lower_expr(lo);
                self.code.push(Instr::MovI {
                    dst: i_reg,
                    src: i_reg,
                });
                let hi_reg = self.lower_expr(hi);
                self.code.push(Instr::MovI {
                    dst: hi_reg,
                    src: hi_reg,
                });
                let head = self.code.len();
                self.code.push(Instr::LoopHead {
                    i: i_reg,
                    var: var_slot,
                    hi: hi_reg,
                    step: *step,
                    exit: 0,
                });
                self.lower_body(body);
                self.code.push(Instr::LoopNext {
                    i: i_reg,
                    var: var_slot,
                    hi: hi_reg,
                    step: *step,
                    body: head as u32 + 1,
                });
                let exit = self.here();
                self.patch(head, exit);
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_expr(cond);
                let br = self.code.len();
                self.code.push(Instr::BrFalse { cond: c, to: 0 });
                self.free_to(mark);
                self.lower_body(then_body);
                if else_body.is_empty() {
                    let end = self.here();
                    self.patch(br, end);
                } else {
                    let j = self.code.len();
                    self.code.push(Instr::Jmp { to: 0 });
                    let else_at = self.here();
                    self.patch(br, else_at);
                    self.lower_body(else_body);
                    let end = self.here();
                    self.patch(j, end);
                }
            }
            SStmt::Call {
                proc,
                args,
                copy_out,
            } => {
                let callee = &self.prog.procs[*proc];
                let callee_layout = &self.layouts[*proc];
                assert_eq!(callee.formals.len(), args.len(), "call arity");
                let mut scalars = Vec::new();
                let mut arrays = Vec::new();
                for (f, a) in callee.formals.iter().zip(args) {
                    match (f.is_array, a) {
                        (true, SActual::Array(name)) => {
                            arrays.push(self.layout.arr_of(*name, self.prog));
                        }
                        (false, SActual::Scalar(e)) => {
                            let r = self.lower_expr(e);
                            scalars.push((callee_layout.slot_of(f.name, self.prog), r));
                        }
                        _ => panic!("actual/formal kind mismatch"),
                    }
                }
                // Copy-out entries whose formal the callee never binds are
                // dropped, matching the tree engine's runtime skip.
                let copy_out = copy_out
                    .iter()
                    .filter_map(|(f, caller_var)| {
                        callee_layout
                            .scalar_slots
                            .get(f)
                            .map(|&fs| (fs, self.layout.slot_of(*caller_var, self.prog)))
                    })
                    .collect();
                self.code.push(Instr::Call(Box::new(CallArgs {
                    callee: *proc,
                    scalars,
                    arrays,
                    copy_out,
                })));
            }
            SStmt::Return => self.code.push(Instr::Return),
            SStmt::Stop => self.code.push(Instr::Stop),
            SStmt::Send { to, tag, parts } => {
                let t = self.lower_expr(to);
                self.lower_gather(parts.iter().map(|(a, s)| (*a, s)));
                self.code.push(Instr::SendMsg { to: t, tag: *tag });
            }
            SStmt::Recv { from, tag, parts } => {
                let f = self.lower_expr(from);
                self.code.push(Instr::RecvMsg { from: f, tag: *tag });
                // Destination bounds are evaluated after the receive,
                // matching the tree engine's charge windows.
                self.lower_scatter(parts.iter().map(|(a, s)| (*a, s)));
            }
            SStmt::SendElem { to, tag, value } => {
                let t = self.lower_expr(to);
                let v = self.lower_expr(value);
                self.code.push(Instr::SendElem {
                    to: t,
                    val: v,
                    tag: *tag,
                });
            }
            SStmt::RecvElem { from, tag, lhs } => {
                let f = self.lower_expr(from);
                let d = self.alloc();
                self.code.push(Instr::RecvElem {
                    from: f,
                    dst: d,
                    tag: *tag,
                });
                match lhs {
                    SLval::Scalar(sym) => {
                        let slot = self.layout.slot_of(*sym, self.prog);
                        self.code.push(Instr::StVar { slot, src: d });
                    }
                    SLval::Elem { array, subs } => {
                        let arr = self.layout.arr_of(*array, self.prog);
                        let first = self.next_reg;
                        for e in subs {
                            self.lower_expr(e);
                        }
                        self.code.push(Instr::Store {
                            arr,
                            first,
                            n: subs.len() as u16,
                            src: d,
                        });
                    }
                }
            }
            SStmt::Bcast { root, parts } => {
                let r = self.lower_expr(root);
                self.lower_bcast_gather(r, parts.iter().map(BcastPart::src));
                self.code.push(Instr::Bcast {
                    root: r,
                    tag: bcast_tag(parts.len()),
                });
                self.lower_scatter(parts.iter().map(BcastPart::dst));
            }
            SStmt::PostSend {
                handle: _,
                to,
                tag,
                parts,
            } => {
                let t = self.lower_expr(to);
                self.lower_gather(parts.iter().map(|(a, s)| (*a, s)));
                self.code.push(Instr::PostSendMsg { to: t, tag: *tag });
            }
            SStmt::WaitSend { handle: _ } => {
                self.code.push(Instr::WaitSendMsg);
            }
            SStmt::PostRecv { handle, from, tag } => {
                let f = self.lower_expr(from);
                self.code.push(Instr::PostRecvMsg {
                    from: f,
                    tag: *tag,
                    handle: *handle,
                });
            }
            SStmt::WaitRecv { handle, parts } => {
                self.code.push(Instr::WaitRecvMsg { handle: *handle });
                // Destination bounds are evaluated after the receive
                // completes, matching `Recv` (and the tree engine).
                self.lower_scatter(parts.iter().map(|(a, s)| (*a, s)));
            }
            SStmt::PostBcast { handle, root, src } => {
                let r = self.lower_expr(root);
                self.lower_bcast_gather(r, src.iter().map(|(a, s)| (*a, s)));
                self.code.push(Instr::PostBcastMsg {
                    root: r,
                    tag: bcast_tag(src.len()),
                    handle: *handle,
                });
            }
            SStmt::WaitBcast { handle, dst } => {
                self.code.push(Instr::WaitBcastMsg { handle: *handle });
                self.lower_scatter(dst.iter().map(|(a, s)| (*a, s)));
            }
            SStmt::Remap { array, to_dist } => {
                let arr = self.layout.arr_of(*array, self.prog);
                self.code.push(Instr::Remap { arr, to: *to_dist });
            }
            SStmt::RemapGlobal { array, to_dist } => {
                let arr = self.layout.arr_of(*array, self.prog);
                self.code.push(Instr::RemapGlobal { arr, to: *to_dist });
            }
            SStmt::MarkDist { array, to_dist } => {
                let arr = self.layout.arr_of(*array, self.prog);
                self.code.push(Instr::MarkDist { arr, to: *to_dist });
            }
            SStmt::Print { args } => {
                let br = self.code.len();
                self.code.push(Instr::BrNotRank0 { to: 0 });
                let first = self.next_reg;
                for a in args {
                    self.lower_expr(a);
                }
                self.code.push(Instr::Print {
                    first,
                    n: args.len() as u16,
                });
                let end = self.here();
                self.patch(br, end);
            }
        }
        self.free_to(mark);
    }
}

// ---------------------------------------------------------------------------
// Superinstruction fusion (the kernel tier).
//
// Fusion never moves or removes an instruction, so absolute jump targets
// stay valid. A fused loop replaces only its `LoopHead` with a `KLoop`;
// the body and `LoopNext` stay in place as a live slow path the executor
// falls back to whenever a precondition fails (so even out-of-bounds
// subscripts panic at the exact original iteration with the original
// message). Scalar superinstructions replace the first instruction of a
// straight-line window and *skip* the remainder, which is safe because
// the window interior is never a branch target.

/// Per-iteration charge inventory of a matched kernel body (excluding
/// the 1-op loop bookkeeping charge, added by the pass).
#[derive(Clone, Copy, Debug, Default)]
struct KCharges {
    ops: u64,
    flops: u64,
    taken_ops: u64,
    taken_flops: u64,
}

/// True when `slot` appears in a subscript of `acc` — writing it inside
/// the loop would be a carried dependence through the subscripts, which
/// the affine `flat0 + t*stride` plan cannot express.
fn slot_in_acc(slot: Slot, acc: &KAcc) -> bool {
    acc.subs[..acc.n as usize].iter().any(|s| s.slot == slot)
}

/// Classifies a kernel leaf: an immediate, scalar, or element load whose
/// register result feeds the rest of the body.
fn leaf_of(ins: &Instr) -> Option<(Reg, KSrc)> {
    match ins {
        Instr::LdI { dst, v } => Some((*dst, KSrc::ImmI(*v))),
        Instr::LdR { dst, v } => Some((*dst, KSrc::ImmR(*v))),
        Instr::LdVar { dst, slot } => Some((*dst, KSrc::Slot(*slot))),
        Instr::LoadS {
            dst,
            arr,
            n,
            extra_ops,
            subs,
        } => Some((
            *dst,
            KSrc::Elem(KAcc {
                arr: *arr,
                n: *n,
                extra_ops: *extra_ops,
                subs: *subs,
            }),
        )),
        _ => None,
    }
}

/// Like [`leaf_of`] but scalar-only (for `BinSS` windows, whose charge
/// must stay runtime-typed like `Bin`'s).
fn scalar_leaf(ins: &Instr) -> Option<(Reg, SSrc)> {
    match ins {
        Instr::LdI { dst, v } => Some((*dst, SSrc::ImmI(*v))),
        Instr::LdR { dst, v } => Some((*dst, SSrc::ImmR(*v))),
        Instr::LdVar { dst, slot } => Some((*dst, SSrc::Slot(*slot))),
        _ => None,
    }
}

fn acc_of_store(ins: &Instr) -> Option<(KAcc, Reg)> {
    if let Instr::StoreS {
        arr,
        n,
        extra_ops,
        subs,
        src,
    } = ins
    {
        Some((
            KAcc {
                arr: *arr,
                n: *n,
                extra_ops: *extra_ops,
                subs: *subs,
            },
            *src,
        ))
    } else {
        None
    }
}

/// Fill/Copy: `[leaf, StoreS]`.
fn m_fill_copy(body: &[Instr], var: Slot) -> Option<(KBody, KCharges)> {
    let [a, st] = body else { return None };
    let (r, leaf) = leaf_of(a)?;
    let (dst, src) = acc_of_store(st)?;
    if r != src {
        return None;
    }
    match leaf {
        KSrc::Elem(s) => Some((
            KBody::Copy { dst, src: s },
            KCharges {
                ops: s.ops() + dst.ops(),
                ..KCharges::default()
            },
        )),
        // The loop variable as the fill value varies per iteration;
        // refuse (aliased-slot near miss).
        KSrc::Slot(s) if s == var => None,
        v => Some((
            KBody::Fill { dst, v },
            KCharges {
                ops: dst.ops(),
                ..KCharges::default()
            },
        )),
    }
}

/// Expr: `[(leaf | Bin | Neg | Fma)+, StoreS]` whose registers are used
/// as a stack, every operator with a statically real operand (so each
/// charges one flop every iteration) and no slot operand the loop
/// variable. Each stack entry carries its register, its postfix code
/// and whether it is statically real.
fn m_expr(body: &[Instr], var: Slot) -> Option<(KBody, KCharges)> {
    let (st, window) = body.split_last()?;
    let (dst, src) = acc_of_store(st)?;
    let mut stack: Vec<(Reg, Vec<KOp>, bool)> = Vec::new();
    let mut ops = dst.ops();
    let mut flops = 0u64;
    let mut leaf = |s: KSrc| -> Option<(Vec<KOp>, bool)> {
        if matches!(s, KSrc::Slot(sl) if sl == var) {
            return None;
        }
        ops += s.elem_ops();
        Some((vec![KOp::Leaf(s)], s.always_real()))
    };
    fn pop(stack: &mut Vec<(Reg, Vec<KOp>, bool)>, r: Reg) -> Option<(Vec<KOp>, bool)> {
        let (top, code, real) = stack.pop()?;
        (top == r).then_some((code, real))
    }
    for ins in window {
        let (r, code, real) = if let Some((r, s)) = leaf_of(ins) {
            let (code, real) = leaf(s)?;
            (r, code, real)
        } else {
            match *ins {
                Instr::Bin { op, dst, l, r } => {
                    let (rc, rr) = pop(&mut stack, r)?;
                    let (mut code, lr) = pop(&mut stack, l)?;
                    if !lr && !rr {
                        return None;
                    }
                    flops += 1;
                    code.extend(rc);
                    code.push(KOp::Bin(op));
                    (dst, code, !op.is_boolean())
                }
                Instr::Neg { dst, src } => {
                    let (mut code, real) = pop(&mut stack, src)?;
                    if !real {
                        return None;
                    }
                    flops += 1;
                    code.push(KOp::Neg);
                    (dst, code, true)
                }
                Instr::Fma {
                    op,
                    dst,
                    acc,
                    ml,
                    mr,
                } => {
                    // Register operands are on the stack in `acc, ml, mr`
                    // order; slot operands become leaves in place.
                    let mut opnd = |o: Opnd| {
                        if o.slot == NO_SLOT {
                            pop(&mut stack, o.reg)
                        } else {
                            leaf(KSrc::Slot(o.slot))
                        }
                    };
                    let (mr, mr_real) = opnd(mr)?;
                    let (ml, ml_real) = opnd(ml)?;
                    let (mut code, _) = opnd(acc)?;
                    if !ml_real && !mr_real {
                        return None;
                    }
                    flops += 2;
                    code.extend(ml);
                    code.extend(mr);
                    code.extend([KOp::Bin(SBinOp::Mul), KOp::Bin(op)]);
                    (dst, code, true)
                }
                _ => return None,
            }
        };
        if stack.iter().any(|e| e.0 == r) {
            return None;
        }
        stack.push((r, code, real));
    }
    let [(top, code, _)] = &stack[..] else {
        return None;
    };
    if *top != src || flops == 0 || code.len() > EXPR_NODES || expr_depth(code) > EXPR_DEPTH {
        return None;
    }
    Some((
        KBody::Expr {
            dst,
            code: code.as_slice().into(),
        },
        KCharges {
            ops,
            flops,
            ..KCharges::default()
        },
    ))
}

/// Deepest stack a postfix program reaches.
pub(crate) fn expr_depth(code: &[KOp]) -> usize {
    let (mut d, mut max) = (0usize, 0usize);
    for op in code {
        match op {
            KOp::Leaf(_) => d += 1,
            KOp::Bin(_) => d -= 1,
            KOp::Neg => {}
        }
        max = max.max(d);
    }
    max
}

/// Fma/Axpy: `[leaf*, Fma, StoreS]` — up to three leaves feeding the
/// Fma's register operands in order (slot operands consume no leaf).
fn m_fma(body: &[Instr], var: Slot) -> Option<(KBody, KCharges)> {
    let n = body.len();
    if !(2..=5).contains(&n) {
        return None;
    }
    let Instr::Fma {
        op,
        dst,
        acc,
        ml,
        mr,
    } = &body[n - 2]
    else {
        return None;
    };
    let (dacc, src) = acc_of_store(&body[n - 1])?;
    if src != *dst {
        return None;
    }
    let mut li = 0usize;
    let mut resolved = [KSrc::ImmI(0); 3];
    for (k, o) in [acc, ml, mr].into_iter().enumerate() {
        resolved[k] = if o.slot != NO_SLOT {
            if o.slot == var {
                return None;
            }
            KSrc::Slot(o.slot)
        } else {
            if li >= n - 2 {
                return None;
            }
            let (r, leaf) = leaf_of(&body[li])?;
            li += 1;
            if r != o.reg {
                return None;
            }
            if let KSrc::Slot(s) = leaf {
                if s == var {
                    return None;
                }
            }
            leaf
        };
    }
    if li != n - 2 {
        return None;
    }
    let [racc, rml, rmr] = resolved;
    // A real multiplicand guarantees a real product, making both
    // constituent charges (mul, then add/sub) flops every iteration.
    if !rml.always_real() && !rmr.always_real() {
        return None;
    }
    Some((
        KBody::Fma {
            op: *op,
            dst: dacc,
            acc: racc,
            ml: rml,
            mr: rmr,
        },
        KCharges {
            ops: racc.elem_ops() + rml.elem_ops() + rmr.elem_ops() + dacc.ops(),
            flops: 2,
            ..KCharges::default()
        },
    ))
}

/// RedBin: `[LdVar s, leaf, Bin, StVar s]` (acc left) or
/// `[leaf, LdVar s, Bin, StVar s]` (acc right); the other operand must
/// be an element load so the Bin charge is always a flop.
fn m_redbin(body: &[Instr], var: Slot) -> Option<(KBody, KCharges)> {
    let [a, b, Instr::Bin { op, dst, l, r }, Instr::StVar { slot, src }] = body else {
        return None;
    };
    let (ra, la) = leaf_of(a)?;
    let (rb, lb) = leaf_of(b)?;
    if *l != ra || *r != rb || *dst != ra || *src != ra {
        return None;
    }
    let (e, acc_left) = match (la, lb) {
        (KSrc::Slot(s), KSrc::Elem(e)) if s == *slot => (e, true),
        (KSrc::Elem(e), KSrc::Slot(s)) if s == *slot => (e, false),
        _ => return None,
    };
    if *slot == var || slot_in_acc(*slot, &e) {
        return None;
    }
    Some((
        KBody::RedBin {
            op: *op,
            slot: *slot,
            e,
            acc_left,
        },
        KCharges {
            ops: e.ops(),
            flops: 1,
            ..KCharges::default()
        },
    ))
}

/// Swap: `t = x(..); x(..) = y(..); y(..) = t` (dgefa's row exchange).
fn m_swap(body: &[Instr], var: Slot) -> Option<(KBody, KCharges)> {
    let [lx, Instr::StVar { slot: tmp, src: s0 }, ly, st_x, Instr::LdVar {
        dst: r2,
        slot: tmp2,
    }, st_y] = body
    else {
        return None;
    };
    let (r0, KSrc::Elem(x)) = leaf_of(lx)? else {
        return None;
    };
    let (r1, KSrc::Elem(y)) = leaf_of(ly)? else {
        return None;
    };
    let (x2, sx) = acc_of_store(st_x)?;
    let (y2, sy) = acc_of_store(st_y)?;
    if *s0 != r0 || sx != r1 || *tmp2 != *tmp || sy != *r2 || x2 != x || y2 != y {
        return None;
    }
    if *tmp == var || slot_in_acc(*tmp, &x) || slot_in_acc(*tmp, &y) {
        return None;
    }
    Some((
        KBody::Swap { x, y, tmp: *tmp },
        KCharges {
            ops: 2 * x.ops() + 2 * y.ops(),
            ..KCharges::default()
        },
    ))
}

/// ArgMax: the idamax guarded reduction
/// `if (intr(e) cmp dmax) then dmax = intr(e); idx = var`.
/// `next_at` is the loop's `LoopNext` index — the `BrFalse` of a
/// loop-final `If` must target exactly it.
fn m_argmax(body: &[Instr], var: Slot, next_at: u32) -> Option<(KBody, KCharges)> {
    let [le1, Instr::Intr {
        name,
        dst: i1d,
        first: i1f,
        n: 1,
    }, Instr::LdVar {
        dst: dmr,
        slot: dmax,
    }, Instr::Bin {
        op: cmp,
        dst: bd,
        l: bl,
        r: br,
    }, Instr::BrFalse { cond, to }, le2, Instr::Intr {
        name: name2,
        dst: i2d,
        first: i2f,
        n: 1,
    }, Instr::StVar {
        slot: dmax2,
        src: sv1,
    }, Instr::LdVar {
        dst: vr,
        slot: vslot,
    }, Instr::StVar {
        slot: idx,
        src: sv2,
    }] = body
    else {
        return None;
    };
    let (e1r, KSrc::Elem(e)) = leaf_of(le1)? else {
        return None;
    };
    let (e2r, KSrc::Elem(e2)) = leaf_of(le2)? else {
        return None;
    };
    if *i1f != e1r
        || *bl != *i1d
        || *br != *dmr
        || *bd != *bl
        || *cond != *bd
        || *to != next_at
        || e2 != e
        || *i2f != e2r
        || *name2 != *name
        || *sv1 != *i2d
        || *dmax2 != *dmax
        || *vslot != var
        || *sv2 != *vr
    {
        return None;
    }
    if *dmax == var
        || *idx == var
        || *dmax == *idx
        || slot_in_acc(*dmax, &e)
        || slot_in_acc(*idx, &e)
    {
        return None;
    }
    Some((
        KBody::ArgMax {
            e,
            intr: *name,
            cmp: *cmp,
            dmax: *dmax,
            idx: *idx,
        },
        KCharges {
            ops: e.ops() + 1, // element load + BrFalse guard
            flops: 2,         // Intr + Bin (always real: elements load as R)
            taken_ops: e.ops(),
            taken_flops: 1, // taken branch re-runs the Intr
        },
    ))
}

fn match_kernel(body: &[Instr], var: Slot, next_at: u32) -> Option<(KBody, KCharges)> {
    // `Fma` ahead of the `Expr` that would also take its shape: it is
    // dgefa's hot loop, and its specialised executor is the faster one.
    m_fill_copy(body, var)
        .or_else(|| m_redbin(body, var))
        .or_else(|| m_fma(body, var))
        .or_else(|| m_expr(body, var))
        .or_else(|| m_swap(body, var))
        .or_else(|| m_argmax(body, var, next_at))
}

/// The fusion pass over one lowered procedure.
fn fuse_proc(code: &mut [Instr]) {
    // Kernel tier first, so matchers see pristine loop bodies.
    for h in 0..code.len() {
        let &Instr::LoopHead {
            i,
            var,
            hi,
            step,
            exit,
        } = &code[h]
        else {
            continue;
        };
        let e = exit as usize;
        if e < h + 3 || e > code.len() {
            continue;
        }
        let &Instr::LoopNext {
            i: ni,
            var: nv,
            hi: nh,
            step: ns,
            body: nb,
        } = &code[e - 1]
        else {
            continue;
        };
        if ni != i || nv != var || nh != hi || ns != step || nb as usize != h + 1 {
            continue;
        }
        if let Some((kb, ch)) = match_kernel(&code[h + 1..e - 1], var, (e - 1) as u32) {
            code[h] = Instr::KLoop(Box::new(KLoop {
                i,
                var,
                hi,
                step,
                exit,
                fused_per_iter: (e - 1 - h) as u32,
                ops_per_iter: ch.ops + 1, // + loop bookkeeping
                flops_per_iter: ch.flops,
                taken_ops: ch.taken_ops,
                taken_flops: ch.taken_flops,
                body: kb,
            }));
        }
    }

    // Scalar tier: superinstructions that skip their window's interior,
    // which is only sound when no branch targets an interior position.
    let mut target = vec![false; code.len() + 1];
    for ins in code.iter() {
        match ins {
            Instr::Jmp { to }
            | Instr::BrFalse { to, .. }
            | Instr::BrNotRank { to, .. }
            | Instr::BrNotRank0 { to }
            | Instr::LoopHead { exit: to, .. } => target[*to as usize] = true,
            Instr::KLoop(kl) => target[kl.exit as usize] = true,
            Instr::LoopNext { body, .. } => target[*body as usize] = true,
            _ => {}
        }
    }
    let mut pc = 0usize;
    while pc + 1 < code.len() {
        // BinSS: [leaf, leaf, Bin, StVar], all-scalar operands.
        if pc + 3 < code.len() && !target[pc + 1] && !target[pc + 2] && !target[pc + 3] {
            if let (Some((ra, la)), Some((rb, lb))) =
                (scalar_leaf(&code[pc]), scalar_leaf(&code[pc + 1]))
            {
                if let (&Instr::Bin { op, dst, l, r }, &Instr::StVar { slot, src }) =
                    (&code[pc + 2], &code[pc + 3])
                {
                    if l == ra && r == rb && dst == ra && src == ra {
                        code[pc] = Instr::BinSS {
                            op,
                            dst: slot,
                            l: la,
                            r: lb,
                        };
                        pc += 4;
                        continue;
                    }
                }
            }
        }
        if !target[pc + 1] {
            // LdElemVar: [LoadS, StVar].
            if let (
                &Instr::LoadS {
                    dst,
                    arr,
                    n,
                    extra_ops,
                    subs,
                },
                &Instr::StVar { slot, src },
            ) = (&code[pc], &code[pc + 1])
            {
                if dst == src {
                    code[pc] = Instr::LdElemVar {
                        slot,
                        acc: KAcc {
                            arr,
                            n,
                            extra_ops,
                            subs,
                        },
                    };
                    pc += 2;
                    continue;
                }
            }
            // MovVar: [LdVar, StVar].
            if let (&Instr::LdVar { dst, slot: s_src }, &Instr::StVar { slot, src }) =
                (&code[pc], &code[pc + 1])
            {
                if dst == src {
                    code[pc] = Instr::MovVar {
                        dst: slot,
                        src: s_src,
                    };
                    pc += 2;
                    continue;
                }
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{SDecl, SFormal, SLval, SProc, SStmt};
    use fortrand_ir::Interner;

    /// Builds a one-rank, one-procedure program over two 1-D arrays
    /// `a(1:8)` and `b(1:8)` with the given body. The dist table is
    /// empty — lowering copies `DistId`s verbatim and never indexes it.
    struct TB {
        it: Interner,
    }

    impl TB {
        fn new() -> TB {
            TB {
                it: Interner::new(),
            }
        }

        fn s(&mut self, n: &str) -> Sym {
            self.it.intern(n)
        }

        fn prog(mut self, body: Vec<SStmt>) -> SpmdProgram {
            let a = self.s("a");
            let b = self.s("b");
            let name = self.s("main");
            let decl = |name| SDecl {
                name,
                bounds: vec![(1, 8)],
                dist: DistId(0),
                owner_dist: None,
            };
            SpmdProgram {
                interner: self.it,
                nprocs: 1,
                procs: vec![SProc {
                    name,
                    formals: Vec::<SFormal>::new(),
                    decls: vec![decl(a), decl(b)],
                    body,
                }],
                main: 0,
                dists: vec![],
            }
        }
    }

    fn elem(array: Sym, i: Sym) -> SExpr {
        SExpr::Elem {
            array,
            subs: vec![SExpr::Var(i)],
        }
    }

    fn st_elem(array: Sym, i: Sym, rhs: SExpr) -> SStmt {
        SStmt::Assign {
            lhs: SLval::Elem {
                array,
                subs: vec![SExpr::Var(i)],
            },
            rhs,
        }
    }

    fn do8(var: Sym, body: Vec<SStmt>) -> SStmt {
        SStmt::Do {
            var,
            lo: SExpr::Int(1),
            hi: SExpr::Int(8),
            step: 1,
            body,
        }
    }

    fn kloops(lw: &Lowered) -> Vec<&KLoop> {
        lw.procs
            .iter()
            .flat_map(|p| p.code.iter())
            .filter_map(|ins| match ins {
                Instr::KLoop(kl) => Some(&**kl),
                _ => None,
            })
            .collect()
    }

    fn fused_body(p: SpmdProgram) -> Vec<KBody> {
        // Fusion must be opt-in: the unfused lowering of the same program
        // never contains a superinstruction.
        let plain = lower_with(&p, false);
        assert!(kloops(&plain).is_empty(), "unfused lowering has KLoop");
        let lw = lower_with(&p, true);
        kloops(&lw).iter().map(|kl| kl.body.clone()).collect()
    }

    #[test]
    fn fuses_fill() {
        let mut tb = TB::new();
        let (a, i) = (tb.s("a"), tb.s("i"));
        let p = tb.prog(vec![do8(i, vec![st_elem(a, i, SExpr::Real(0.0))])]);
        let ks = fused_body(p);
        assert!(
            matches!(ks[..], [KBody::Fill { v: KSrc::ImmR(v), .. }] if v == 0.0),
            "{ks:?}"
        );
    }

    #[test]
    fn fuses_copy() {
        let mut tb = TB::new();
        let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
        let p = tb.prog(vec![do8(i, vec![st_elem(b, i, elem(a, i))])]);
        let ks = fused_body(p);
        assert!(matches!(ks[..], [KBody::Copy { .. }]), "{ks:?}");
    }

    #[test]
    fn fuses_scal_ebin() {
        // dscal: a(i) = a(i) / t
        let mut tb = TB::new();
        let (a, i, t) = (tb.s("a"), tb.s("i"), tb.s("t"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(t),
                rhs: SExpr::Real(2.0),
            },
            do8(
                i,
                vec![st_elem(
                    a,
                    i,
                    SExpr::bin(SBinOp::Div, elem(a, i), SExpr::Var(t)),
                )],
            ),
        ]);
        let ks = fused_body(p);
        let [KBody::Expr { code, .. }] = &ks[..] else {
            panic!("{ks:?}")
        };
        assert!(
            matches!(
                code[..],
                [
                    KOp::Leaf(KSrc::Elem(_)),
                    KOp::Leaf(KSrc::Slot(_)),
                    KOp::Bin(SBinOp::Div)
                ]
            ),
            "{code:?}"
        );
    }

    /// The one fused loop of `p`.
    fn one_kloop(p: SpmdProgram) -> (KBody, u64, u64) {
        let lw = lower_with(&p, true);
        let [kl] = kloops(&lw)[..] else {
            panic!("expected one fused loop")
        };
        (kl.body.clone(), kl.ops_per_iter, kl.flops_per_iter)
    }

    fn elem_off(array: Sym, i: Sym, off: i64) -> SExpr {
        SExpr::Elem {
            array,
            subs: vec![SExpr::add(SExpr::Var(i), SExpr::Int(off))],
        }
    }

    fn leaves_and_operators(code: &[KOp]) -> (usize, usize) {
        let leaves = code.iter().filter(|o| matches!(o, KOp::Leaf(_))).count();
        (leaves, code.len() - leaves)
    }

    #[test]
    fn fuses_expr_stencil() {
        // relax: b(i) = 0.5 * (a(i) + a(i+1))
        let mut tb = TB::new();
        let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
        let rhs = SExpr::mul(SExpr::Real(0.5), SExpr::add(elem(a, i), elem_off(a, i, 1)));
        let (body, ops, flops) = one_kloop(tb.prog(vec![do8(i, vec![st_elem(b, i, rhs)])]));
        let KBody::Expr { code, .. } = &body else {
            panic!("{body:?}")
        };
        assert_eq!(leaves_and_operators(code), (3, 2), "{code:?}");
        // Unfused: LoadS a(i) 1 op, LoadS a(i+1) 1 + 1 folded add,
        // StoreS b(i) 1, LoopNext 1; two real Bins, a flop each.
        assert_eq!((ops, flops), (5, 2));
    }

    #[test]
    fn fuses_expr_with_inner_fma() {
        // b(i) = 0.25 * (a(i-1) + 2.0*a(i) + a(i+1)): the inner
        // `a(i-1) + 2.0*a(i)` lowers to an Fma, which becomes Mul, Add.
        let mut tb = TB::new();
        let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
        let sum = SExpr::add(
            SExpr::add(elem_off(a, i, -1), SExpr::mul(SExpr::Real(2.0), elem(a, i))),
            elem_off(a, i, 1),
        );
        let rhs = SExpr::mul(SExpr::Real(0.25), sum);
        let (body, ops, flops) = one_kloop(tb.prog(vec![do8(i, vec![st_elem(b, i, rhs)])]));
        let KBody::Expr { code, .. } = &body else {
            panic!("{body:?}")
        };
        assert_eq!(leaves_and_operators(code), (5, 4), "{code:?}");
        assert!(code
            .windows(2)
            .any(|w| matches!(w, [KOp::Bin(SBinOp::Mul), KOp::Bin(SBinOp::Add)])));
        // LoadS 2 + 1 + 2, StoreS 1, LoopNext 1; Fma 2 flops, 2 Bins.
        assert_eq!((ops, flops), (7, 4));
    }

    #[test]
    fn refuses_expr_integer_subtree() {
        // b(i) = a(i) + (k+1)*2: `k+1` has no real operand, so its charge
        // (op or flop) is decided by what `k` holds at run time.
        let mut tb = TB::new();
        let (a, b, i, k) = (tb.s("a"), tb.s("b"), tb.s("i"), tb.s("k"));
        let int = SExpr::mul(SExpr::add(SExpr::Var(k), SExpr::Int(1)), SExpr::Int(2));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(k),
                rhs: SExpr::Int(3),
            },
            do8(i, vec![st_elem(b, i, SExpr::add(elem(a, i), int))]),
        ]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn refuses_expr_loop_var_operand() {
        // 0.5*(a(i) + i) as a leaf, b(i) + i*a(i) as an Fma slot operand.
        for with_fma in [false, true] {
            let mut tb = TB::new();
            let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
            let rhs = if with_fma {
                SExpr::add(elem(b, i), SExpr::mul(SExpr::Var(i), elem(a, i)))
            } else {
                SExpr::mul(SExpr::Real(0.5), SExpr::add(elem(a, i), SExpr::Var(i)))
            };
            let p = tb.prog(vec![do8(i, vec![st_elem(b, i, rhs)])]);
            assert!(fused_body(p).is_empty(), "with_fma={with_fma}");
        }
    }

    #[test]
    fn refuses_expr_deeper_than_stack() {
        // a(i) + (a(i) + (... + a(i))): `n` leaves need an `n`-deep stack.
        let chain = |n: usize| {
            let mut tb = TB::new();
            let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
            let mut e = elem(a, i);
            for _ in 1..n {
                e = SExpr::add(elem(a, i), e);
            }
            fused_body(tb.prog(vec![do8(i, vec![st_elem(b, i, e)])]))
        };
        assert!(matches!(chain(EXPR_DEPTH)[..], [KBody::Expr { .. }]));
        assert!(chain(EXPR_DEPTH + 1).is_empty());
    }

    #[test]
    fn fuses_axpy_fma() {
        // daxpy: b(i) = b(i) - t * a(i)
        let mut tb = TB::new();
        let (a, b, i, t) = (tb.s("a"), tb.s("b"), tb.s("i"), tb.s("t"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(t),
                rhs: SExpr::Real(2.0),
            },
            do8(
                i,
                vec![st_elem(
                    b,
                    i,
                    SExpr::sub(elem(b, i), SExpr::mul(SExpr::Var(t), elem(a, i))),
                )],
            ),
        ]);
        let ks = fused_body(p);
        assert!(
            matches!(
                ks[..],
                [KBody::Fma {
                    op: SBinOp::Sub,
                    acc: KSrc::Elem(_),
                    ml: KSrc::Slot(_),
                    mr: KSrc::Elem(_),
                    ..
                }]
            ),
            "{ks:?}"
        );
    }

    #[test]
    fn fuses_reduction() {
        // s = s + a(i)
        let mut tb = TB::new();
        let (a, i, s) = (tb.s("a"), tb.s("i"), tb.s("s"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Real(0.0),
            },
            do8(
                i,
                vec![SStmt::Assign {
                    lhs: SLval::Scalar(s),
                    rhs: SExpr::add(SExpr::Var(s), elem(a, i)),
                }],
            ),
        ]);
        let ks = fused_body(p);
        assert!(
            matches!(
                ks[..],
                [KBody::RedBin {
                    op: SBinOp::Add,
                    acc_left: true,
                    ..
                }]
            ),
            "{ks:?}"
        );
    }

    #[test]
    fn fuses_swap() {
        // t = a(i); a(i) = b(i); b(i) = t
        let mut tb = TB::new();
        let (a, b, i, t) = (tb.s("a"), tb.s("b"), tb.s("i"), tb.s("t"));
        let p = tb.prog(vec![do8(
            i,
            vec![
                SStmt::Assign {
                    lhs: SLval::Scalar(t),
                    rhs: elem(a, i),
                },
                st_elem(a, i, elem(b, i)),
                st_elem(b, i, SExpr::Var(t)),
            ],
        )]);
        let ks = fused_body(p);
        assert!(matches!(ks[..], [KBody::Swap { .. }]), "{ks:?}");
    }

    #[test]
    fn fuses_argmax() {
        // idamax: if (abs(a(i)) > dmax) { dmax = abs(a(i)); l = i }
        let mut tb = TB::new();
        let (a, i, dmax, l) = (tb.s("a"), tb.s("i"), tb.s("dmax"), tb.s("l"));
        let abs = |e| SExpr::Intr {
            name: SIntr::Abs,
            args: vec![e],
        };
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(dmax),
                rhs: SExpr::Real(0.0),
            },
            do8(
                i,
                vec![SStmt::If {
                    cond: SExpr::bin(SBinOp::Gt, abs(elem(a, i)), SExpr::Var(dmax)),
                    then_body: vec![
                        SStmt::Assign {
                            lhs: SLval::Scalar(dmax),
                            rhs: abs(elem(a, i)),
                        },
                        SStmt::Assign {
                            lhs: SLval::Scalar(l),
                            rhs: SExpr::Var(i),
                        },
                    ],
                    else_body: vec![],
                }],
            ),
        ]);
        let ks = fused_body(p);
        assert!(
            matches!(
                ks[..],
                [KBody::ArgMax {
                    intr: SIntr::Abs,
                    cmp: SBinOp::Gt,
                    ..
                }]
            ),
            "{ks:?}"
        );
    }

    #[test]
    fn refuses_carried_scalar_dependence_in_subscript() {
        // s = s + a(s): the reduction slot feeds the subscript, so each
        // iteration reads a different element than the batched walk would.
        let mut tb = TB::new();
        let (a, i, s) = (tb.s("a"), tb.s("i"), tb.s("s"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Int(1),
            },
            do8(
                i,
                vec![SStmt::Assign {
                    lhs: SLval::Scalar(s),
                    rhs: SExpr::add(SExpr::Var(s), elem(a, s)),
                }],
            ),
        ]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn refuses_loop_var_as_scalar_operand() {
        // b(i) = a(i) * i: the slot operand aliases the loop variable,
        // so it is not loop-invariant.
        let mut tb = TB::new();
        let (a, b, i) = (tb.s("a"), tb.s("b"), tb.s("i"));
        let p = tb.prog(vec![do8(
            i,
            vec![st_elem(b, i, SExpr::mul(elem(a, i), SExpr::Var(i)))],
        )]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn refuses_runtime_typed_charge() {
        // a(i) = s + t: neither operand is statically REAL, so the
        // per-iteration flop-vs-op split depends on runtime values and
        // cannot be batch-charged.
        let mut tb = TB::new();
        let (a, i, s, t) = (tb.s("a"), tb.s("i"), tb.s("s"), tb.s("t"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Int(1),
            },
            SStmt::Assign {
                lhs: SLval::Scalar(t),
                rhs: SExpr::Int(2),
            },
            do8(
                i,
                vec![st_elem(a, i, SExpr::add(SExpr::Var(s), SExpr::Var(t)))],
            ),
        ]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn refuses_near_miss_swap() {
        // Third statement stores a different scalar than the temporary,
        // so the window is not a rotation.
        let mut tb = TB::new();
        let (a, b, i, t, s) = (tb.s("a"), tb.s("b"), tb.s("i"), tb.s("t"), tb.s("s"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Real(7.0),
            },
            do8(
                i,
                vec![
                    SStmt::Assign {
                        lhs: SLval::Scalar(t),
                        rhs: elem(a, i),
                    },
                    st_elem(a, i, elem(b, i)),
                    st_elem(b, i, SExpr::Var(s)),
                ],
            ),
        ]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn refuses_argmax_with_nonvar_index() {
        // l = s instead of l = i: the taken branch does not record the
        // loop index, so this is not an argmax.
        let mut tb = TB::new();
        let (a, i, dmax, l, s) = (tb.s("a"), tb.s("i"), tb.s("dmax"), tb.s("l"), tb.s("s"));
        let abs = |e| SExpr::Intr {
            name: SIntr::Abs,
            args: vec![e],
        };
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(dmax),
                rhs: SExpr::Real(0.0),
            },
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Int(3),
            },
            do8(
                i,
                vec![SStmt::If {
                    cond: SExpr::bin(SBinOp::Gt, abs(elem(a, i)), SExpr::Var(dmax)),
                    then_body: vec![
                        SStmt::Assign {
                            lhs: SLval::Scalar(dmax),
                            rhs: abs(elem(a, i)),
                        },
                        SStmt::Assign {
                            lhs: SLval::Scalar(l),
                            rhs: SExpr::Var(s),
                        },
                    ],
                    else_body: vec![],
                }],
            ),
        ]);
        assert!(fused_body(p).is_empty());
    }

    #[test]
    fn fuses_scalar_windows() {
        // Straight-line statements outside loops fuse into scalar
        // superinstructions: s = t (MovVar), s = s + t (BinSS),
        // s = a(1) (LdElemVar).
        let mut tb = TB::new();
        let (a, s, t) = (tb.s("a"), tb.s("s"), tb.s("t"));
        let p = tb.prog(vec![
            SStmt::Assign {
                lhs: SLval::Scalar(t),
                rhs: SExpr::Real(1.0),
            },
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Var(t),
            },
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::add(SExpr::Var(s), SExpr::Var(t)),
            },
            SStmt::Assign {
                lhs: SLval::Scalar(s),
                rhs: SExpr::Elem {
                    array: a,
                    subs: vec![SExpr::Int(1)],
                },
            },
        ]);
        let lw = lower_with(&p, true);
        let code = &lw.procs[0].code;
        assert!(code.iter().any(|x| matches!(x, Instr::MovVar { .. })));
        assert!(code.iter().any(|x| matches!(x, Instr::BinSS { .. })));
        assert!(code.iter().any(|x| matches!(x, Instr::LdElemVar { .. })));
        let plain = lower_with(&p, false);
        assert!(!plain.procs[0].code.iter().any(|x| matches!(
            x,
            Instr::MovVar { .. } | Instr::BinSS { .. } | Instr::LdElemVar { .. }
        )));
    }

    #[test]
    fn opcode_table_covers_every_instr() {
        assert_eq!(OPCODE_NAMES.len(), N_OPCODES);
        // Names are unique and nonempty.
        let set: std::collections::BTreeSet<&str> = OPCODE_NAMES.iter().copied().collect();
        assert_eq!(set.len(), N_OPCODES);
    }
}

//! SPMD node-program IR.
//!
//! The program is "single program, multiple data": every node executes the
//! same procedures, parameterized by `my$p` ([`SExpr::MyP`]). Arrays are
//! declared with explicit (possibly overlap-extended) local bounds; section
//! communication is expressed in *local* index space; run-time resolution
//! constructs ([`SExpr::Owner`], [`SExpr::LocalIdx`]) consult a distribution
//! table carried by the program.

use fortrand_ir::dist::ArrayDist;
use fortrand_ir::{Interner, Sym};
pub use fortrand_rt::{SBinOp, SIntr};

mod operands;
pub use operands::{
    walk_array_mentions, walk_operands, walk_operands_mut, walk_scalar_mentions, walk_stmts,
    Access, MsgKind, Operand, OperandMut, Role,
};

/// Index into [`SpmdProgram::dists`] — a compile-time-known distribution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DistId(pub u32);

/// A complete SPMD program.
#[derive(Debug, Clone)]
pub struct SpmdProgram {
    /// Identifier names (shared with the front end).
    pub interner: Interner,
    /// Number of processors the program was compiled for.
    pub nprocs: usize,
    /// All node procedures; `procs[main]` is the entry.
    pub procs: Vec<SProc>,
    /// Entry procedure index.
    pub main: usize,
    /// Distribution table referenced by `DistId`s.
    pub dists: Vec<ArrayDist>,
}

impl SpmdProgram {
    /// Finds a procedure by name.
    pub fn proc_index(&self, name: Sym) -> Option<usize> {
        self.procs.iter().position(|p| p.name == name)
    }

    /// Registers a distribution, returning its id (deduplicating).
    pub fn add_dist(&mut self, d: ArrayDist) -> DistId {
        if let Some(i) = self.dists.iter().position(|x| *x == d) {
            return DistId(i as u32);
        }
        self.dists.push(d);
        DistId(self.dists.len() as u32 - 1)
    }
}

/// One node procedure.
#[derive(Debug, Clone)]
pub struct SProc {
    /// Procedure name (clones get suffixed names like `f1$row`).
    pub name: Sym,
    /// Formal parameter names, in order.
    pub formals: Vec<SFormal>,
    /// Local array declarations (formals re-declared here get their local
    /// bounds from the caller's storage and must not appear).
    pub decls: Vec<SDecl>,
    /// Body.
    pub body: Vec<SStmt>,
}

/// A formal parameter of a node procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct SFormal {
    /// Name within the procedure.
    pub name: Sym,
    /// True if the formal is an array (passed by reference); false for
    /// scalars (passed by value).
    pub is_array: bool,
}

/// A local array declaration with explicit per-dimension bounds
/// `lo:hi` — overlap areas widen these (e.g. `X(1:30)` in Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SDecl {
    /// Array name.
    pub name: Sym,
    /// Inclusive local bounds per dimension.
    pub bounds: Vec<(i64, i64)>,
    /// Distribution the local bounds were derived from (used by the
    /// interpreter for initial scatter / final gather and by run-time
    /// resolution expressions).
    pub dist: DistId,
    /// Run-time resolution storage mode: when set, `bounds` cover the whole
    /// global array on every rank (each rank holds a full-size copy, with
    /// only the owner's elements authoritative per this distribution).
    /// Initial scatter fills every rank; the final gather reads each
    /// element from its owner at *global* indices.
    pub owner_dist: Option<DistId>,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum SExpr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Scalar variable (formal, local scalar, loop index).
    Var(Sym),
    /// `my$p` — this node's rank.
    MyP,
    /// `n$proc` — total ranks.
    NProcs,
    /// Array element in *local* index space.
    Elem {
        /// Array.
        array: Sym,
        /// Local subscripts.
        subs: Vec<SExpr>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: SBinOp,
        /// Left operand.
        l: Box<SExpr>,
        /// Right operand.
        r: Box<SExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<SExpr>),
    /// Logical negation.
    Not(Box<SExpr>),
    /// Intrinsic call.
    Intr {
        /// Which intrinsic.
        name: SIntr,
        /// Arguments.
        args: Vec<SExpr>,
    },
    /// Run-time resolution: owner rank of the element with the given
    /// *global* subscripts under distribution `dist`.
    Owner {
        /// Distribution consulted.
        dist: DistId,
        /// Global subscripts.
        subs: Vec<SExpr>,
    },
    /// Run-time resolution: owner rank of the element under the array's
    /// *current* distribution (tracked at run time across `RemapGlobal`).
    CurOwner {
        /// The array whose current owner distribution is consulted.
        array: Sym,
        /// Global subscripts.
        subs: Vec<SExpr>,
    },
    /// Run-time resolution: local index (dimension `dim`) of a global
    /// subscript under `dist`.
    LocalIdx {
        /// Distribution consulted.
        dist: DistId,
        /// Dimension.
        dim: usize,
        /// Global subscript.
        sub: Box<SExpr>,
    },
}

#[allow(clippy::should_implement_trait)] // add/sub/mul are builder helpers, not ops
impl SExpr {
    /// Integer literal helper.
    pub fn int(v: i64) -> SExpr {
        SExpr::Int(v)
    }
    /// Binary helper.
    pub fn bin(op: SBinOp, l: SExpr, r: SExpr) -> SExpr {
        SExpr::Bin {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }
    /// `l + r`.
    pub fn add(l: SExpr, r: SExpr) -> SExpr {
        Self::bin(SBinOp::Add, l, r)
    }
    /// `l - r`.
    pub fn sub(l: SExpr, r: SExpr) -> SExpr {
        Self::bin(SBinOp::Sub, l, r)
    }
    /// `l * r`.
    pub fn mul(l: SExpr, r: SExpr) -> SExpr {
        Self::bin(SBinOp::Mul, l, r)
    }
    /// `min(a, b)`.
    pub fn min2(a: SExpr, b: SExpr) -> SExpr {
        SExpr::Intr {
            name: SIntr::Min,
            args: vec![a, b],
        }
    }
    /// `max(a, b)`.
    pub fn max2(a: SExpr, b: SExpr) -> SExpr {
        SExpr::Intr {
            name: SIntr::Max,
            args: vec![a, b],
        }
    }
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq)]
pub enum SLval {
    /// Scalar.
    Scalar(Sym),
    /// Array element (local index space).
    Elem {
        /// Array.
        array: Sym,
        /// Local subscripts.
        subs: Vec<SExpr>,
    },
}

/// A rectangular section in local index space, `lo:hi:step` per dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SRect {
    /// Per-dimension bounds (inclusive) and step.
    pub dims: Vec<(SExpr, SExpr, i64)>,
}

impl SRect {
    /// A one-dimensional section.
    pub fn one(lo: SExpr, hi: SExpr) -> SRect {
        SRect {
            dims: vec![(lo, hi, 1)],
        }
    }
}

/// Actual arguments at call sites.
#[derive(Clone, Debug, PartialEq)]
pub enum SActual {
    /// Pass an array by reference.
    Array(Sym),
    /// Pass a scalar by value.
    Scalar(SExpr),
}

/// One section of a broadcast ([`SStmt::Bcast`]): the root gathers
/// `src_array[src_section]`; every rank scatters that slice of the payload
/// into `dst_array[dst_section]`.
#[derive(Clone, Debug, PartialEq)]
pub struct BcastPart {
    /// Source array (root side).
    pub src_array: Sym,
    /// Source section, local index space of the root.
    pub src_section: SRect,
    /// Destination array (all ranks).
    pub dst_array: Sym,
    /// Destination section.
    pub dst_section: SRect,
}

impl BcastPart {
    /// The half a [`SStmt::PostBcast`] carries.
    pub fn src(&self) -> (Sym, &SRect) {
        (self.src_array, &self.src_section)
    }

    /// The half a [`SStmt::WaitBcast`] carries.
    pub fn dst(&self) -> (Sym, &SRect) {
        (self.dst_array, &self.dst_section)
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum SStmt {
    /// Pretty-printer-visible comment (e.g. `{ phase banners }`).
    Comment(String),
    /// `lhs = rhs`.
    Assign {
        /// Target.
        lhs: SLval,
        /// Value.
        rhs: SExpr,
    },
    /// Counted loop, inclusive bounds.
    Do {
        /// Index variable.
        var: Sym,
        /// Lower bound.
        lo: SExpr,
        /// Upper bound.
        hi: SExpr,
        /// Step.
        step: i64,
        /// Body.
        body: Vec<SStmt>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: SExpr,
        /// Then branch.
        then_body: Vec<SStmt>,
        /// Else branch.
        else_body: Vec<SStmt>,
    },
    /// Call a node procedure.
    Call {
        /// Callee index into [`SpmdProgram::procs`].
        proc: usize,
        /// Actuals.
        args: Vec<SActual>,
        /// Fortran copy-out: after return, copy each listed scalar formal's
        /// final value back into the caller's scalar.
        copy_out: Vec<(Sym, Sym)>,
    },
    /// Return from the current procedure.
    Return,
    /// Vectorized section send: gathers every part's `array[section]`
    /// (local indices) into one message, in order. Codegen emits one
    /// part; the communication optimizer ([`crate::opt`]) aggregates the
    /// exchanges of one statement list that share a guard and a peer
    /// (one α instead of several).
    Send {
        /// Destination rank.
        to: SExpr,
        /// Message tag.
        tag: u64,
        /// Source array and section (local index space) of each part;
        /// never empty.
        parts: Vec<(Sym, SRect)>,
    },
    /// Matching receive: scatters the message into every part's
    /// `array[section]`, in order.
    Recv {
        /// Source rank.
        from: SExpr,
        /// Message tag.
        tag: u64,
        /// Destination array and section of each part; never empty.
        parts: Vec<(Sym, SRect)>,
    },
    /// Run-time resolution element send.
    SendElem {
        /// Destination rank.
        to: SExpr,
        /// Tag.
        tag: u64,
        /// Value sent.
        value: SExpr,
    },
    /// Run-time resolution element receive.
    RecvElem {
        /// Source rank.
        from: SExpr,
        /// Tag.
        tag: u64,
        /// Where the value lands.
        lhs: SLval,
    },
    /// Collective broadcast: the root gathers every part's source section
    /// (evaluated on the root only) into one message, in order, and every
    /// rank — root included — scatters the payload into the parts'
    /// destinations, in order. Codegen emits one part (pinned column/row
    /// broadcasts such as dgefa's pivot column, run-time resolution of
    /// replicated reads); the communication optimizer ([`crate::opt`])
    /// concatenates the part lists of same-root runs (one α instead of
    /// several). A message of several parts travels under
    /// [`crate::interp::TAG_BCAST_PACK`], a single part under
    /// [`crate::interp::TAG_BCAST`].
    Bcast {
        /// Root rank (shared by every part).
        root: SExpr,
        /// Sections broadcast, packed in order; never empty.
        parts: Vec<BcastPart>,
    },
    /// Nonblocking half of [`SStmt::Send`]: gathers its parts and posts
    /// the message immediately (the sender is charged the message
    /// startup α only; the per-byte cost overlaps with subsequent compute).
    /// Produced by the `overlap` communication-optimizer level; every
    /// `PostSend` is paired with exactly one later [`SStmt::WaitSend`] with
    /// the same handle, and at most one post per handle is outstanding.
    PostSend {
        /// Static handle pairing this post with its wait.
        handle: u32,
        /// Destination rank.
        to: SExpr,
        /// Message tag.
        tag: u64,
        /// Source array and section of each part, packed in order.
        parts: Vec<(Sym, SRect)>,
    },
    /// Completion point of a [`SStmt::PostSend`]. The payload was captured
    /// at the post, so this is pure bookkeeping (frees the handle).
    WaitSend {
        /// Handle of the matching post.
        handle: u32,
    },
    /// Nonblocking half of [`SStmt::Recv`]: records the (rank, tag) to
    /// match, evaluated at the post point. The message is consumed at the
    /// matching [`SStmt::WaitRecv`].
    PostRecv {
        /// Static handle pairing this post with its wait.
        handle: u32,
        /// Source rank.
        from: SExpr,
        /// Message tag.
        tag: u64,
    },
    /// Completion point of a [`SStmt::PostRecv`]: blocks until the posted
    /// message is available and scatters it into its parts, in order.
    WaitRecv {
        /// Handle of the matching post.
        handle: u32,
        /// Destination array and section of each part, unpacked in order.
        parts: Vec<(Sym, SRect)>,
    },
    /// Nonblocking half of [`SStmt::Bcast`]: the root gathers the source
    /// half of every part and posts the broadcast (charged α on the root;
    /// the tree latency overlaps with compute on every rank). The matching
    /// [`SStmt::WaitBcast`] scatters on all ranks. Executed by every rank
    /// (the post advances each rank's collective sequence number), so the
    /// optimizer only emits it under replicated guards.
    PostBcast {
        /// Static handle pairing this post with its wait.
        handle: u32,
        /// Root rank.
        root: SExpr,
        /// Source array and section (local index space of the root) of
        /// each part, packed in order.
        src: Vec<(Sym, SRect)>,
    },
    /// Completion point of a [`SStmt::PostBcast`]: every rank blocks until
    /// the posted payload is complete, then scatters it into the
    /// destination half of every part.
    WaitBcast {
        /// Handle of the matching post.
        handle: u32,
        /// Destination array and section of each part, unpacked in order.
        dst: Vec<(Sym, SRect)>,
    },
    /// Dynamic data decomposition: remap `array` to `to_dist`, moving data
    /// between nodes (charged as messages + a remap call).
    Remap {
        /// Array to remap.
        array: Sym,
        /// New distribution.
        to_dist: DistId,
    },
    /// Run-time resolution remap: storage stays global-shaped on every
    /// rank; authoritative values move from old owners to new owners and
    /// the array's owner distribution is updated.
    RemapGlobal {
        /// Array to remap.
        array: Sym,
        /// New owner distribution.
        to_dist: DistId,
    },
    /// Array-kill optimized remap: mark the array as having `to_dist`
    /// without moving values (§6.3); contents become undefined.
    MarkDist {
        /// Array.
        array: Sym,
        /// New distribution.
        to_dist: DistId,
    },
    /// `print *, …` — executes on rank 0 only; collected into the output.
    Print {
        /// Items.
        args: Vec<SExpr>,
    },
    /// Terminate the whole node program.
    Stop,
}

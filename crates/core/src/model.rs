//! Shared compiler model types: strategies, optimization levels, and the
//! *residual* records that implement delayed instantiation.
//!
//! Delayed instantiation (paper §5) is the load-bearing mechanism: when a
//! procedure is compiled, its computation-partition constraints, nonlocal
//! index sets, and dynamic-decomposition mappings are *not* immediately
//! turned into guards/messages/remap calls. They are stored in a
//! [`Residual`] and handed to callers (procedures compile in reverse
//! topological order, so every callee's residual is ready when the caller
//! compiles), where vectorization, bounds reduction and remap optimization
//! can act with the caller's loop context.

use fortrand_analysis::DecompSpec;
use fortrand_ir::digest::{Digester, StableHash};
use fortrand_ir::rsd::Rsd;
use fortrand_ir::{Affine, Sym};
use std::collections::BTreeSet;

/// Compilation strategy (the paper's three-way comparison).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Full interprocedural compilation with delayed instantiation.
    Interprocedural,
    /// Immediate instantiation at procedure boundaries (Fig. 12).
    Immediate,
    /// Run-time resolution (Fig. 3).
    RuntimeResolution,
}

/// Dynamic data decomposition optimization level (Fig. 16a–d).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DynOptLevel {
    /// No optimization: remap around every call (16a).
    None,
    /// Live decompositions: dead remaps removed, identical ones coalesced
    /// (16b).
    Live,
    /// Plus loop-invariant remap hoisting (16c).
    Hoist,
    /// Plus array-kill in-place remapping (16d).
    Kills,
}

/// One pending (delayed) communication: a nonlocal index set in the
/// *callee's* name space, tagged with the pattern the code generator knows
/// how to instantiate.
#[derive(Clone, Debug)]
pub struct PendingComm {
    /// The array (formal or local of the procedure the residual belongs to).
    pub array: Sym,
    /// Recognized communication pattern.
    pub pattern: CommPattern,
    /// The nonlocal section in global index space (symbolic in formals and
    /// not-yet-vectorized outer loop variables).
    pub rsd: Rsd,
}

/// Communication patterns the code generator instantiates.
#[derive(Clone, Debug, PartialEq)]
pub enum CommPattern {
    /// Shift along a BLOCK-distributed dimension by a constant offset:
    /// neighbours exchange `offset` boundary planes (positive offset =
    /// data flows from `my$p+1` toward `my$p`, i.e. a read of `i+c`).
    BlockShift {
        /// Array dimension.
        dim: usize,
        /// Subscript offset `c` (nonzero; sign picks the neighbour).
        offset: i64,
    },
    /// Read of a single distributed-dimension index owned by one
    /// processor: broadcast that slice from its owner into a buffer.
    BroadcastDim {
        /// Distributed array dimension being pinned.
        dim: usize,
        /// The pinned (global) subscript expression.
        index: Affine,
    },
}

/// Constraint a procedure's computation partition places on a formal:
/// "this formal must be a *local* index of the given distributed
/// dimension of the given array" — the caller reduces the loop whose index
/// it passes (or guards the call).
#[derive(Clone, Debug, PartialEq)]
pub struct IterConstraint {
    /// The formal parameter (a scalar used as a distributed-dim subscript).
    pub formal: Sym,
    /// The array whose distribution drives the constraint.
    pub array: Sym,
    /// Which array dimension.
    pub dim: usize,
}

/// Marks a procedure whose every statement touches distributed data only
/// through a single pinned subscript (e.g. `idamax` reading column `k`):
/// the caller guards the call with an ownership test and broadcasts the
/// scalar results.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnerOnly {
    /// Array whose owner executes the procedure.
    pub array: Sym,
    /// Distributed dimension.
    pub dim: usize,
    /// Pinned subscript (in the procedure's formals).
    pub index: Affine,
    /// Scalar formals modified by the procedure (broadcast after the call).
    pub out_scalars: Vec<Sym>,
}

/// Dynamic-decomposition summary sets of §6.1 (Fig. 17), in the
/// procedure's own name space.
#[derive(Clone, Debug, Default)]
pub struct DynDecompSummary {
    /// `DecompUse(P)`: variables that may use a decomposition reaching P.
    pub uses: BTreeSet<Sym>,
    /// `DecompKill(P)`: variables that must be remapped when P is invoked.
    pub kills: BTreeSet<Sym>,
    /// `DecompBefore(P)`: mappings required before the call.
    pub before: Vec<(Sym, DecompSpec)>,
    /// `DecompAfter(P)`: mappings required after the call (restores).
    pub after: Vec<(Sym, DecompSpec)>,
    /// Variables whose *values* are fully killed (array kill analysis,
    /// §6.3) before any use in P.
    pub value_kills: BTreeSet<Sym>,
}

/// Everything a compiled procedure hands to its callers.
#[derive(Clone, Debug, Default)]
pub struct Residual {
    /// Delayed communication (empty under `Immediate`).
    pub comms: Vec<PendingComm>,
    /// Computation-partition constraints on formals.
    pub iter_constraints: Vec<IterConstraint>,
    /// Whole-procedure single-owner classification.
    pub owner_only: Option<OwnerOnly>,
    /// Dynamic-decomposition summary.
    pub dyn_decomp: DynDecompSummary,
    /// Per-(array, dim) overlap widths `(lo, hi)` required by this
    /// procedure and its descendants (bottom-up overlap offsets, Fig. 13).
    pub overlaps: Vec<(Sym, usize, i64, i64)>,
}

impl DynDecompSummary {
    /// Renames every symbol through `f`.
    pub(crate) fn remap_syms(&mut self, f: &mut dyn FnMut(Sym) -> Sym) {
        for set in [&mut self.uses, &mut self.kills, &mut self.value_kills] {
            *set = set.iter().map(|&s| f(s)).collect();
        }
        for (s, _) in self.before.iter_mut().chain(self.after.iter_mut()) {
            *s = f(*s);
        }
    }
}

impl Residual {
    /// Renames every symbol through `f`.
    pub(crate) fn remap_syms(&mut self, f: &mut dyn FnMut(Sym) -> Sym) {
        for c in &mut self.comms {
            c.array = f(c.array);
            if let CommPattern::BroadcastDim { index, .. } = &mut c.pattern {
                *index = index.map_syms(f);
            }
            c.rsd = c.rsd.map_syms(f);
        }
        for ic in &mut self.iter_constraints {
            ic.formal = f(ic.formal);
            ic.array = f(ic.array);
        }
        if let Some(oo) = &mut self.owner_only {
            oo.array = f(oo.array);
            oo.index = oo.index.map_syms(f);
            for s in &mut oo.out_scalars {
                *s = f(*s);
            }
        }
        self.dyn_decomp.remap_syms(f);
        for (s, _, _, _) in &mut self.overlaps {
            *s = f(*s);
        }
    }
}

// Structural digests of what a compiled unit hands its callers: the
// `residuals` fact class of every caller (see `CachedUnit::residual_digest`).

impl StableHash for Residual {
    fn stable_hash(&self, d: &mut Digester) {
        self.comms.stable_hash(d);
        self.iter_constraints.stable_hash(d);
        self.owner_only.stable_hash(d);
        self.dyn_decomp.stable_hash(d);
        self.overlaps.stable_hash(d);
    }
}

impl StableHash for PendingComm {
    fn stable_hash(&self, d: &mut Digester) {
        d.sym(self.array);
        self.pattern.stable_hash(d);
        self.rsd.stable_hash(d);
    }
}

impl StableHash for CommPattern {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            CommPattern::BlockShift { dim, offset } => {
                d.tag(0);
                dim.stable_hash(d);
                d.i64(*offset);
            }
            CommPattern::BroadcastDim { dim, index } => {
                d.tag(1);
                dim.stable_hash(d);
                index.stable_hash(d);
            }
        }
    }
}

impl StableHash for IterConstraint {
    fn stable_hash(&self, d: &mut Digester) {
        d.sym(self.formal);
        d.sym(self.array);
        self.dim.stable_hash(d);
    }
}

impl StableHash for OwnerOnly {
    fn stable_hash(&self, d: &mut Digester) {
        d.sym(self.array);
        self.dim.stable_hash(d);
        self.index.stable_hash(d);
        self.out_scalars.stable_hash(d);
    }
}

impl StableHash for DynDecompSummary {
    fn stable_hash(&self, d: &mut Digester) {
        self.uses.stable_hash(d);
        self.kills.stable_hash(d);
        self.before.stable_hash(d);
        self.after.stable_hash(d);
        self.value_kills.stable_hash(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_opt_levels_are_ordered() {
        assert!(DynOptLevel::None < DynOptLevel::Live);
        assert!(DynOptLevel::Live < DynOptLevel::Hoist);
        assert!(DynOptLevel::Hoist < DynOptLevel::Kills);
    }

    #[test]
    fn residual_default_is_empty() {
        let r = Residual::default();
        assert!(r.comms.is_empty());
        assert!(r.iter_constraints.is_empty());
        assert!(r.owner_only.is_none());
        assert!(r.overlaps.is_empty());
    }
}

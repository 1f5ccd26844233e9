//! # fortrand-ir
//!
//! Core intermediate representations shared by every stage of the Fortran D
//! interprocedural compiler:
//!
//! * [`intern`] — cheap interned symbols ([`Sym`]) for identifiers.
//! * [`affine`] — the symbolic affine-expression domain used for loop bounds,
//!   subscripts and section bounds (`2*i + n - 1`, …).
//! * [`rsd`] — *regular section descriptors* (Callahan/Kennedy RSDs), the
//!   rectangular `lo:hi:step` sections the Fortran D compiler uses to
//!   represent index sets, iteration sets and messages.
//! * [`dist`] — decompositions, alignments and distributions (`BLOCK`,
//!   `CYCLIC`, `BLOCK_CYCLIC(k)`), together with the owner/local-index
//!   arithmetic that the partitioning and communication phases rely on.
//! * [`digest`] — structural digests that name symbols instead of
//!   numbering them, for the §8 recompilation test and the artifact store.
//! * [`symenv`] — a small environment of symbol ranges/constants that lets
//!   the RSD algebra answer symbolic bound comparisons conservatively.
//!
//! The representations are deliberately independent of the front end: the
//! parser lowers source expressions into [`affine::Affine`] where possible,
//! and every later phase (dependence analysis, reaching decompositions,
//! partitioning, communication, overlaps) manipulates only these types.

#![forbid(unsafe_code)]

pub mod affine;
pub mod digest;
pub mod dist;
pub mod intern;
pub mod rsd;
pub mod symenv;

pub use affine::Affine;
pub use dist::{Alignment, Decomposition, DistKind, Distribution, ProcGrid};
pub use intern::{Interner, Sym};
pub use rsd::{Rsd, Triplet};
pub use symenv::SymEnv;

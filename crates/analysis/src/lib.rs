//! # fortrand-analysis
//!
//! Program analyses feeding the Fortran D compiler, mirroring Table 1 of
//! the paper (each interprocedural data-flow problem, its propagation
//! direction, and when it runs):
//!
//! | module | problem | direction |
//! |---|---|---|
//! | [`acg`] | call graph + loop structure (augmented call graph) | top-down |
//! | [`side_effects`] | scalar & array side effects (GMOD/GREF with RSDs) | bottom-up |
//! | [`reaching`] | reaching decompositions | top-down |
//! | [`consts`] | interprocedural symbolics & constants | bidirectional* |
//! | [`depend`] | data dependence with interprocedural RSDs | per-unit |
//! | [`kills`] | array kill analysis | per-unit |
//! | [`refs`] | reference collection / local RSD construction | per-unit |
//! | [`registry`] | the machine-readable Table 1 | — |
//!
//! *our constant propagation runs top-down only; the bidirectional cases in
//! the paper (symbolics used by overlap estimation) are handled in the
//! compiler's overlap phase.
//!
//! The remaining Table 1 problems — local iteration sets, nonlocal index
//! sets, overlaps, buffers, live and loop-invariant decompositions — are
//! computed *during interprocedural code generation* (paper §5), so they
//! live in the `fortrand` compiler crate; [`registry`] indexes them all.

#![forbid(unsafe_code)]

pub mod acg;
pub mod consts;
pub mod depend;
pub mod fixtures;
pub mod framework;
pub mod kills;
pub mod reaching;
pub mod refs;
pub mod registry;
pub mod side_effects;

pub use acg::{Acg, CallEdge};
pub use consts::InterConsts;
pub use kills::Kills;
pub use reaching::{DecompSpec, ReachingDecomps};
pub use refs::ArrayRef;
pub use refs::LoopCtx;
pub use side_effects::SideEffects;

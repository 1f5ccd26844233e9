//! # fortrand-rt
//!
//! The run-time library of a Fortran D node program (paper §6, §9): the
//! routines generated code *calls* rather than contains. One definition
//! each of
//!
//! * the run-time scalar and its operators ([`Value`], [`apply_bin`],
//!   [`apply_intr`]);
//! * the distribution arithmetic ([`dist`]: who owns a global point, where
//!   it sits in the owner's local storage);
//! * the section odometer ([`rect_for_each`]);
//! * the ownership walks — initial scatter, final assembly and the dynamic
//!   remap ([`scatter_init`], [`assemble`], [`Remap`]) — nested loops over
//!   the few strided runs a rank owns along each dimension (and the runs
//!   two owners share), copying whole contiguous spans between
//!   [`LocalStore`] buffers and a `send` callback;
//! * the message accounting every back end must agree on
//!   ([`size_bucket`], the reserved tags).
//!
//! The simulator engines link it through cargo (`fortrand-ir`,
//! `fortrand-spmd` and `fortrand-machine` re-export its names at their
//! historical paths); the native backend builds this very source with a
//! bare `rustc` next to the `fortrand-shim` crate, which re-exports it
//! whole. So the crate is **std-only with zero dependencies**, and what
//! is hot carries `#[inline]`: neither build links it with LTO.

#![forbid(unsafe_code)]

// A new module file must also be listed in `fortrand_spmd::codegen::RT_SRC`,
// which embeds this crate's sources for the native backend.
pub mod dist;
mod space;
mod value;
mod walk;

pub use dist::{ArrayDist, DimPartition, DistKind, ProcGrid};
pub use space::{rect_for_each, rect_len};
pub use value::{
    apply_bin, apply_bin_r, apply_intr, fmax, fmin, fsign, ipow, neg, SBinOp, SIntr, Value,
};
pub use walk::{assemble, pack, scatter_init, unpack, LocalStore, Remap};

/// Accounting tag under which plain broadcasts are recorded in the
/// per-tag message statistics. High bits keep it clear of
/// compiler-assigned send tags.
pub const TAG_BCAST: u64 = 1 << 32;
/// Accounting tag for coalesced broadcasts.
pub const TAG_BCAST_PACK: u64 = (1 << 32) + 1;
/// Tag space reserved for remap traffic (compiler tags stay below this).
pub const REMAP_TAG_BASE: u64 = 1 << 40;

/// Grow-on-demand access to the slot of a posted operation's handle
/// (handles are dense small integers assigned program-wide by the overlap
/// pass).
pub fn slot<T>(v: &mut Vec<Option<T>>, h: u32) -> &mut Option<T> {
    let h = h as usize;
    if v.len() <= h {
        v.resize_with(h + 1, || None);
    }
    &mut v[h]
}

/// A rank's panic payload rendered as text: the message of the rank
/// failure every back end reports.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of message-size histogram buckets (see [`size_bucket`]).
pub const HIST_BUCKETS: usize = 5;

/// Histogram bucket index for a message of `bytes` payload bytes.
#[inline]
pub fn size_bucket(bytes: u64) -> usize {
    match bytes {
        0..=64 => 0,
        65..=512 => 1,
        513..=4096 => 2,
        4097..=32768 => 3,
        _ => 4,
    }
}

//! Communication optimization over SPMD node programs (the "between codegen
//! and emit" pass pipeline).
//!
//! Two cooperating optimizations, run in this order:
//!
//! 1. **Redundant-communication elimination** (level [`CommOpt::Full`] only):
//!    a forward "available data" dataflow over broadcast sections. A
//!    broadcast `buf ← A[sec] from root` makes `A[sec]`'s values *available*
//!    (replicated) in `buf` on every rank. A later broadcast of a contained
//!    section of the same array from the same root is redundant — every
//!    receiver already holds the data — *provided* the tracked region of `A`
//!    on the root has not changed since, or its changes can be **shadowed**:
//!    re-applied to `buf` locally by every rank (possible exactly when the
//!    updates are computable from replicated values, e.g. dgefa's pivot swap
//!    and scale steps). The facts propagate interprocedurally: at each call
//!    site the caller's facts are mapped through array/scalar actuals onto
//!    the callee's formals, met over all call sites in reverse-invocation
//!    (callers-first) order over the call graph.
//! 2. **Message coalescing**: adjacent broadcasts with the same root fuse
//!    into one [`crate::ir::SStmt::Bcast`] of several parts; adjacent send/send and
//!    recv/recv pairs over adjacent sections of the same array merge when
//!    the pairing is provably symmetric. Adjacency is judged on linear
//!    forms over scalar variables, comm-opt's one bound prover (`lin`).
//!    The exchanges of one statement list that share a guard and a peer
//!    aggregate into one message over a parts list, hoisted across the
//!    statements and calls that neither mention their arrays nor assign
//!    the scalars their guards and bounds read.
//!
//! Every transformation preserves bit-identical array results: shadows
//! perform the same IEEE operations on the same broadcast bytes every rank
//! already holds, and packing only re-batches identical payloads. See
//! DESIGN.md §"Communication optimization" for the dataflow equations and
//! the soundness argument.

use crate::ir::SpmdProgram;
use std::collections::BTreeMap;

mod coalesce;
mod dataflow;
mod lin;
mod overlap;
#[cfg(test)]
mod tests;

use coalesce::coalesce;
use dataflow::eliminate;
use overlap::overlap;

/// Communication optimization level (driver flag).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum CommOpt {
    /// Pass disabled: emit exactly what codegen produced.
    Off,
    /// Message coalescing only.
    Coalesce,
    /// Everything: redundant-communication elimination + coalescing (the
    /// default).
    #[default]
    Full,
    /// [`CommOpt::Full`] plus communication/computation overlap: blocking
    /// sends, receives and broadcasts split into nonblocking post/wait
    /// pairs, posts hoisted backward (interprocedurally) and waits sunk
    /// forward, and eligible loops coarse-grain pipelined so the next
    /// iteration's broadcast is in flight during this iteration's update.
    Overlap,
}

impl CommOpt {
    /// Stable spelling for reports, hashing and CLI parsing.
    pub fn as_str(self) -> &'static str {
        match self {
            CommOpt::Off => "off",
            CommOpt::Coalesce => "coalesce",
            CommOpt::Full => "full",
            CommOpt::Overlap => "overlap",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<CommOpt> {
        match s {
            "off" => Some(CommOpt::Off),
            "coalesce" => Some(CommOpt::Coalesce),
            "full" => Some(CommOpt::Full),
            "overlap" => Some(CommOpt::Overlap),
            _ => None,
        }
    }
}

/// What the pass did — used for reporting and for incremental-compilation
/// fact hashing (the per-procedure strings participate in the recompilation
/// analysis: a change in optimization decisions must change the hash).
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// Level the pass ran at.
    pub level: CommOpt,
    /// Broadcasts (or send/recv couples) eliminated as redundant.
    pub eliminated: usize,
    /// Messages removed by packing/merging (per merged pair).
    pub coalesced: usize,
    /// Communication statements lifted out of loops: always 0. Codegen
    /// already places every loop-invariant message outside the loops no
    /// dependence pins, and the pass that lifted them never fired on its
    /// output, so it is gone; reports still carry the count.
    pub hoisted: usize,
    /// Blocking operations split into post/wait pairs
    /// ([`CommOpt::Overlap`] only).
    pub overlapped: usize,
    /// Posts moved backward past at least one statement.
    pub posts_hoisted: usize,
    /// Receive waits moved forward past at least one statement.
    pub waits_sunk: usize,
    /// Loops coarse-grain pipelined (next iteration's broadcast posted
    /// before this iteration's trailing update).
    pub pipelined_loops: usize,
    /// Per-procedure summary of decisions, keyed by procedure name.
    /// Deterministic; hashed into the driver's fact hashes.
    pub per_proc: BTreeMap<String, String>,
}

/// Runs the communication optimizer in place at the given level.
pub fn optimize(prog: &mut SpmdProgram, level: CommOpt) -> OptReport {
    optimize_with_stats(prog, level).0
}

/// Like [`optimize`], but also returns per-problem solver statistics for
/// the dataflow passes that ran (currently the available-sections problem
/// at [`CommOpt::Full`]).
pub fn optimize_with_stats(
    prog: &mut SpmdProgram,
    level: CommOpt,
) -> (OptReport, Vec<fortrand_analysis::framework::SolveStats>) {
    optimize_traced(prog, level, &fortrand_trace::Trace::off())
}

/// [`optimize_with_stats`] recording one compile-timeline span per
/// optimizer pass (eliminate / coalesce / overlap) plus the embedded
/// available-sections dataflow solve.
pub fn optimize_traced(
    prog: &mut SpmdProgram,
    level: CommOpt,
    trace: &fortrand_trace::Trace,
) -> (OptReport, Vec<fortrand_analysis::framework::SolveStats>) {
    use fortrand_trace::PID_COMPILE;
    let mut report = OptReport {
        level,
        ..Default::default()
    };
    let mut stats = Vec::new();
    if level == CommOpt::Off {
        return (report, stats);
    }
    if matches!(level, CommOpt::Full | CommOpt::Overlap) {
        let span = trace.span(PID_COMPILE, 0, "comm-opt", "eliminate");
        let solve = eliminate(prog, &mut report);
        fortrand_analysis::framework::record_solve(trace, &solve);
        stats.push(solve);
        drop(span);
    }
    {
        let _span = trace.span(PID_COMPILE, 0, "comm-opt", "coalesce");
        coalesce(prog, &mut report);
    }
    if level == CommOpt::Overlap {
        let _span = trace.span(PID_COMPILE, 0, "comm-opt", "overlap");
        let t0 = std::time::Instant::now();
        let units = overlap(prog, &mut report);
        // The overlap pass is a code-motion transformation, not a lattice
        // solve, but it reports through the same per-pass channel so
        // `tables passes` shows its motion counts: contributions = ops
        // split + posts hoisted + waits sunk + loops pipelined.
        stats.push(fortrand_analysis::framework::SolveStats {
            problem: "comm overlap".into(),
            direction: "<>".into(),
            units,
            contributions: report.overlapped
                + report.posts_hoisted
                + report.waits_sunk
                + report.pipelined_loops,
            iterations: 1,
            wall_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    if trace.on() {
        let ts = trace.now_us();
        trace.instant(
            PID_COMPILE,
            0,
            "comm-opt",
            "comm-opt done",
            ts,
            vec![
                ("level", report.level.as_str().into()),
                ("eliminated", report.eliminated.into()),
                ("hoisted", report.hoisted.into()),
                ("coalesced", report.coalesced.into()),
                ("overlapped", report.overlapped.into()),
                ("posts_hoisted", report.posts_hoisted.into()),
                ("waits_sunk", report.waits_sunk.into()),
                ("pipelined_loops", report.pipelined_loops.into()),
            ],
        );
    }
    (report, stats)
}

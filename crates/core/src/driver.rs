//! Compilation driver: the 3-phase ParaScope-style pipeline (paper §4–§5).
//!
//! 1. **Local analysis** — parse + semantic analysis per unit (the
//!    after-edit summary collection).
//! 2. **Interprocedural propagation** — ACG construction, interprocedural
//!    constants, reaching decompositions with procedure cloning, GMOD/GREF
//!    side effects, overlap offsets.
//! 3. **Interprocedural code generation** — units compiled in reverse
//!    topological order, residuals flowing caller-ward (delayed
//!    instantiation).
//!
//! Phase 3 is one sweep (`incremental::sweep`) for every kind of
//! compile, with or without an artifact store. It also produces per-unit
//! *fact hashes* — digests of the interprocedural information each unit's
//! code depends on — which key the artifact store and which the
//! [`crate::recompile`] module compares across compilations to decide what
//! must be recompiled after an edit (paper §8).

use crate::cloning::{clone_for_decompositions, CloneResult};
use crate::codegen::{CodegenError, CompiledUnit, Ctx};
use crate::incremental::{self, Sweep};
use crate::model::{DynOptLevel, Strategy};
use crate::overlap::{self, Overlaps};
use crate::recompile::{ModuleDb, Reason, UnitRecord};
use crate::store::ArtifactStore;
use fortrand_analysis::acg::Acg;
use fortrand_analysis::consts;
use fortrand_analysis::consts::InterConsts;
use fortrand_analysis::framework::{FactStore, SolveStats};
use fortrand_analysis::reaching::ReachingDecomps;
use fortrand_analysis::registry::{self, SolverId};
use fortrand_analysis::side_effects::SideEffects;
use fortrand_frontend::parse_program;
use fortrand_frontend::sema::ProgramInfo;
use fortrand_frontend::SourceProgram;
use fortrand_ir::digest::{digest, Digester, StableHash, SymNames};
use fortrand_ir::Sym;
use fortrand_spmd::ir::{walk_stmts, MsgKind, SStmt, SpmdProgram};
use fortrand_spmd::opt::{self, CommOpt, OptReport};
use fortrand_trace::{Trace, PID_COMPILE};
use rustc_hash::FxHashSet;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A code-generation schedule, as [`crate::Session::mode`] takes it.
/// Code generation is one pass in reverse topological order whichever is
/// given: the type stays until the re-baseline (ROADMAP item 12) drops
/// the benchmark's `core.codegen_par` stage, which names
/// [`CompileMode::Parallel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileMode {
    /// One unit at a time, in reverse topological order over the ACG.
    Sequential,
    /// Compiles as [`CompileMode::Sequential`]; the thread count is
    /// ignored.
    Parallel(usize),
}

/// Compilation options.
///
/// Non-exhaustive: construct with [`CompileOptions::default`] or
/// [`CompileOptions::builder`] and adjust fields/setters from there —
/// new knobs can then be added without breaking downstream code.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Strategy (interprocedural / immediate / run-time resolution).
    pub strategy: Strategy,
    /// Processor count override (`None` = the program's `n$proc`
    /// parameter, defaulting to 1).
    pub nprocs: Option<usize>,
    /// Dynamic-decomposition optimization level.
    pub dyn_opt: DynOptLevel,
    /// Cloning growth threshold before falling back to run-time
    /// resolution (paper §5.2).
    pub clone_limit: usize,
    /// Communication optimization level (message coalescing plus
    /// interprocedural redundant-communication elimination).
    pub comm_opt: CommOpt,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: Strategy::Interprocedural,
            nprocs: None,
            dyn_opt: DynOptLevel::Kills,
            clone_limit: 64,
            comm_opt: CommOpt::Full,
        }
    }
}

impl CompileOptions {
    /// Starts a builder mirroring `fortrand::Session`'s setters.
    pub fn builder() -> CompileOptionsBuilder {
        CompileOptionsBuilder {
            opts: CompileOptions::default(),
        }
    }
}

/// Chained-setter builder for [`CompileOptions`] (see
/// [`CompileOptions::builder`]). Every setter has the same name and
/// meaning as the corresponding `fortrand::Session` method.
#[derive(Clone, Debug, Default)]
pub struct CompileOptionsBuilder {
    opts: CompileOptions,
}

impl CompileOptionsBuilder {
    /// Compilation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Processor-count override.
    pub fn nprocs(mut self, nprocs: usize) -> Self {
        self.opts.nprocs = Some(nprocs);
        self
    }

    /// Dynamic-decomposition optimization level.
    pub fn dyn_opt(mut self, dyn_opt: DynOptLevel) -> Self {
        self.opts.dyn_opt = dyn_opt;
        self
    }

    /// Cloning growth threshold.
    pub fn clone_limit(mut self, clone_limit: usize) -> Self {
        self.opts.clone_limit = clone_limit;
        self
    }

    /// Communication optimization level.
    pub fn comm_opt(mut self, comm_opt: CommOpt) -> Self {
        self.opts.comm_opt = comm_opt;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CompileOptions {
        self.opts
    }
}

/// Compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// Front-end error.
    Frontend(fortrand_frontend::FrontendError),
    /// Call graph / cloning error.
    Graph(String),
    /// Code generation error.
    Codegen(CodegenError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "front end: {e}"),
            CompileError::Graph(e) => write!(f, "interprocedural: {e}"),
            CompileError::Codegen(e) => write!(f, "code generation: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compilation statistics and recompilation bookkeeping.
///
/// Non-exhaustive: read fields freely, but construct only through the
/// driver (new statistics fields may be added in any release).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct CompileReport {
    /// Processors compiled for.
    pub nprocs: usize,
    /// Strategy actually used (may differ from the request when cloning
    /// hit its limit and the driver fell back to run-time resolution).
    pub strategy_used: String,
    /// Clones created: original → clone names.
    pub clones: BTreeMap<String, Vec<String>>,
    /// Static counts over the emitted program.
    pub static_sends: usize,
    /// Static broadcast statements.
    pub static_bcasts: usize,
    /// Static element-message statements (run-time resolution).
    pub static_elem_msgs: usize,
    /// Static remap statements.
    pub static_remaps: usize,
    /// Static mark-only remaps.
    pub static_marks: usize,
    /// Per-unit source hashes (recompilation analysis input).
    pub source_hashes: BTreeMap<String, u64>,
    /// Per-unit hashes of consumed interprocedural facts — the *monolithic*
    /// digest (all fact classes concatenated, optimizer decisions folded
    /// in). Kept for §8 reporting and as the baseline the per-class
    /// digests in [`CompileReport::facts`] improve on.
    pub fact_hashes: BTreeMap<String, u64>,
    /// Per-`(problem, unit)` fact digests: the same information as
    /// [`CompileReport::fact_hashes`] but split by fact class (`reaching`,
    /// `constants`, `overlaps`, `residuals`, `comm`), so an edit
    /// perturbing one class invalidates only its consumers.
    pub facts: FactStore,
    /// Per-problem solver statistics, in the order the problems ran.
    pub pass_stats: Vec<SolveStats>,
    /// What the communication optimizer did.
    pub comm: OptReport,
    /// Artifact-store counters at the end of the compile, when a store
    /// was attached ([`crate::Session::store`]); `None` otherwise.
    pub store: Option<crate::store::StoreStats>,
    /// Fingerprint of the options that shape generated code (strategy,
    /// processor count, dynamic-decomposition and communication levels):
    /// the first component of every artifact key, and the condition under
    /// which two compiles' per-unit hashes are comparable.
    pub opts_hash: u64,
}

/// Folds one simulated run's execution-engine cost into a report's
/// `pass_stats`, so `tables passes` shows what running the program cost
/// next to what compiling it cost. `units` carries the processor count,
/// `contributions` the instructions the engine dispatched (0 for the tree
/// engine, which does not count dispatches), and `wall_ns` the host
/// wall-clock of the simulated run.
pub fn record_exec_stats(
    report: &mut CompileReport,
    label: &str,
    stats: &fortrand_machine::RunStats,
) {
    report.pass_stats.push(SolveStats {
        problem: format!("exec {label}"),
        direction: "run".into(),
        units: stats.per_node.len(),
        contributions: stats.engine_instrs as usize,
        iterations: 1,
        wall_ns: (stats.wall_us * 1e3) as u64,
    });
}

/// A compiled program plus its report.
#[derive(Debug)]
pub struct CompileOutput {
    /// The SPMD node program.
    pub spmd: SpmdProgram,
    /// Statistics and recompilation records.
    pub report: CompileReport,
    /// Units whose code was generated by this compile, with the §8 reason
    /// (every unit, when no artifact store is attached).
    pub recompiled: BTreeMap<String, Reason>,
    /// Units whose code was taken from the artifact store.
    pub reused: Vec<String>,
}

/// The product of phases 1 and 2: everything code generation consumes.
pub(crate) struct Analysis {
    pub prog: SourceProgram,
    pub info: ProgramInfo,
    pub acg: Acg,
    pub reaching: ReachingDecomps,
    pub clones: BTreeMap<Sym, Vec<Sym>>,
    pub strategy: Strategy,
    pub strategy_used: String,
    pub nprocs: usize,
    pub ic: InterConsts,
    pub se: SideEffects,
    pub overlaps: Overlaps,
    pub pass_stats: Vec<SolveStats>,
}

impl Analysis {
    /// Borrows a codegen context from the analysis results.
    pub fn ctx(&self, dyn_opt: DynOptLevel) -> Ctx<'_> {
        Ctx {
            prog: &self.prog,
            info: &self.info,
            acg: &self.acg,
            reaching: &self.reaching,
            se: &self.se,
            consts: &self.ic,
            overlaps: &self.overlaps,
            nprocs: self.nprocs,
            strategy: self.strategy,
            dyn_opt,
        }
    }
}

/// Phases 1 and 2: parse, clone, and solve the interprocedural problems.
pub(crate) fn analyze(
    source: &str,
    opts: &CompileOptions,
    trace: &Trace,
) -> Result<Analysis, CompileError> {
    // Phase 1+2a: parse, then clone to unique reaching decompositions.
    let parsed = {
        let _span = trace.span(PID_COMPILE, 0, "driver", "parse");
        parse_program(source).map_err(CompileError::Frontend)?
    };
    let clone_span = trace.span(PID_COMPILE, 0, "driver", "clone for decompositions");
    let CloneResult {
        prog,
        info,
        acg,
        reaching,
        reaching_stats,
        side_effects,
        clones,
        unresolved,
    } = clone_for_decompositions(parsed, opts.clone_limit).map_err(CompileError::Graph)?;
    drop(clone_span);

    let mut strategy = opts.strategy;
    let mut strategy_used = format!("{strategy:?}");
    if !unresolved.is_empty() && strategy != Strategy::RuntimeResolution {
        // Paper §5.2: past the growth threshold, force run-time resolution.
        strategy = Strategy::RuntimeResolution;
        strategy_used = format!("{strategy:?} (cloning limit fallback)");
    }

    let nprocs = opts
        .nprocs
        .or(info.n_proc.map(|v| v as usize))
        .unwrap_or(1)
        .max(1);

    // Phase 2b: remaining propagation problems, driven through the
    // registry — each Table 1 row carrying a framework solver handle runs
    // here, in registry order (available-sections runs post-codegen in
    // [`compile`]). Reaching and side effects were already solved by the
    // cloning fixpoint's last round on the final program — side effects
    // ahead of the `Consts` row's ACG refinement, as its own row sits —
    // so their rows just record the stats.
    let mut acg = acg;
    let mut pass_stats: Vec<SolveStats> = Vec::new();
    let mut ic = None;
    let (se, se_stats) = side_effects;
    for row in registry::table1() {
        match row.solver {
            Some(SolverId::SideEffects) => {
                fortrand_analysis::framework::record_solve(trace, &se_stats);
                pass_stats.push(se_stats.clone());
            }
            Some(SolverId::Consts) => {
                let (r, st) = consts::compute_with_stats(&info, &acg);
                fortrand_analysis::framework::record_solve(trace, &st);
                pass_stats.push(st);
                // Interprocedural constants sharpen loop bounds, which in
                // turn sharpen the ACG's formal-range annotations (needed
                // by the symbolic section algebra for dgefa-style
                // `k ≤ n-1` facts).
                fortrand_analysis::acg::refine_formal_ranges(&mut acg, &info, &|u| {
                    r.params_for(u, &info)
                });
                ic = Some(r);
            }
            Some(SolverId::Reaching) => {
                fortrand_analysis::framework::record_solve(trace, &reaching_stats);
                pass_stats.push(reaching_stats.clone());
            }
            Some(SolverId::AvailSections) | None => {}
        }
    }
    let ic = ic.expect("registry carries the constants row");
    let overlaps = {
        let _span = trace.span(PID_COMPILE, 0, "driver", "overlap offsets");
        overlap::compute(&prog, &info, &acg)
    };

    Ok(Analysis {
        prog,
        info,
        acg,
        reaching,
        clones,
        strategy,
        strategy_used,
        nprocs,
        ic,
        se,
        overlaps,
        pass_stats,
    })
}

/// Compiles Fortran D source to an SPMD node program, recording every
/// driver phase — parse, cloning, each dataflow solve, per-unit code
/// generation, the communication optimizer passes, and with a `store`
/// the cache decisions and counters — on `trace`'s compile timeline.
///
/// `store`, when given, answers units whose content key it holds and
/// receives the rest; `prev` is the previous compile's database, read only
/// to name the §8 reason of each unit that is generated.
pub(crate) fn compile(
    source: &str,
    opts: &CompileOptions,
    trace: &Trace,
    store: Option<&ArtifactStore>,
    prev: &ModuleDb,
) -> Result<CompileOutput, CompileError> {
    let root = trace.span(PID_COMPILE, 0, "driver", "compile");
    if trace.on() {
        trace.name_track(PID_COMPILE, 0, "driver");
    }
    let stats0 = store.map(ArtifactStore::stats);
    let an = analyze(source, opts, trace)?;
    let opts_hash = hash_of(&format!(
        "{:?}|{}|{:?}|{}|{}",
        an.strategy,
        an.nprocs,
        opts.dyn_opt,
        an.strategy_used,
        opts.comm_opt.as_str()
    ));

    // Phase 3: the sweep in reverse topological order.
    let codegen_span = trace.span(PID_COMPILE, 0, "driver", "codegen");
    let Sweep {
        mut spmd,
        records,
        fact_hashes,
        recompiled,
        reused,
        ..
    } = incremental::sweep(&an.ctx(opts.dyn_opt), store, opts_hash, prev, trace)
        .map_err(CompileError::Codegen)?;
    drop(codegen_span);

    // Between codegen and emit: the communication optimization pass. The
    // store holds pre-optimization artifacts, so graft-then-optimize is
    // byte-identical to a clean compile.
    let (comm, comm_stats) = opt::optimize_traced(&mut spmd, opts.comm_opt, trace);

    let mut report = {
        let _span = trace.span(PID_COMPILE, 0, "driver", "build report");
        build_report(&an, &spmd, records, fact_hashes, comm, comm_stats)
    };
    report.opts_hash = opts_hash;
    if let (Some(store), Some(stats0)) = (store, stats0) {
        let stats = store.stats();
        report.store = Some(stats);
        for (label, delta) in [
            ("store hits", stats.hits - stats0.hits),
            ("store misses", stats.misses - stats0.misses),
            ("store evictions", stats.evictions - stats0.evictions),
        ] {
            report.pass_stats.push(SolveStats {
                problem: label.into(),
                direction: "shared".into(),
                units: stats.entries,
                contributions: delta as usize,
                iterations: 1,
                wall_ns: 0,
            });
        }
        if trace.on() {
            let ts = trace.now_us();
            for (name, value) in [
                ("cache_hits", reused.len() as f64),
                ("cache_misses", recompiled.len() as f64),
                ("store_hits", stats.hits as f64),
                ("store_misses", stats.misses as f64),
                ("store_evictions", stats.evictions as f64),
                ("store_entries", stats.entries as f64),
                ("store_cost_bytes", stats.cost as f64),
            ] {
                trace.counter(PID_COMPILE, 0, name, ts, value);
            }
        }
    }
    // Inside the span: tearing the analysis down is part of the compile.
    drop(an);
    drop(root);
    Ok(CompileOutput {
        spmd,
        report,
        recompiled,
        reused,
    })
}

/// Builds the statistics + recompilation-hash report for a finished
/// compile from the hashes the sweep computed (`records`: source hash and
/// per-class digests; `fact_hashes`: the monolithic digest).
fn build_report(
    an: &Analysis,
    spmd: &SpmdProgram,
    records: BTreeMap<String, UnitRecord>,
    fact_hashes: BTreeMap<String, u64>,
    comm: OptReport,
    comm_stats: Vec<SolveStats>,
) -> CompileReport {
    let mut report = CompileReport {
        nprocs: an.nprocs,
        strategy_used: an.strategy_used.clone(),
        clones: an
            .clones
            .iter()
            .map(|(k, v)| {
                (
                    an.prog.interner.name(*k).to_string(),
                    v.iter()
                        .map(|s| an.prog.interner.name(*s).to_string())
                        .collect(),
                )
            })
            .collect(),
        pass_stats: an.pass_stats.clone(),
        fact_hashes,
        ..Default::default()
    };
    report.pass_stats.extend(comm_stats);
    for p in &spmd.procs {
        count_static(&p.body, &mut report);
    }
    for (name, rec) in records {
        for (class, digest) in rec.digests {
            report.facts.record_digest(&class, &name, digest);
        }
        report.source_hashes.insert(name, rec.source_hash);
    }
    // Fold the optimizer's per-procedure decisions into the fact hashes:
    // a unit whose communication was rewritten based on interprocedural
    // available-data facts must be re-examined when those facts change.
    for (pname, facts) in &comm.per_proc {
        let h = hash_of(facts) ^ hash_of(comm.level.as_str());
        report
            .fact_hashes
            .entry(pname.clone())
            .and_modify(|e| *e ^= h)
            .or_insert(h);
        report.facts.record_digest("comm", pname, h);
    }
    report.comm = comm;
    report
}

/// The hashes the §8 test and the artifact store key on, for one unit
/// whose callees are all in `compiled`: its record (source digest plus one
/// digest per fact class — a unit is reusable only when *every* class it
/// consumes is unchanged, and an edit perturbing one class leaves units
/// that don't consume it untouched) and the monolithic digest kept for §8
/// reporting (every class, every formal constant included, mentioned or
/// not: the baseline the per-class digests improve on). Every digest is
/// structural and names symbols ([`fortrand_ir::digest`]); DESIGN.md
/// "Digests" says what each class covers.
pub(crate) fn unit_hashes(
    ctx: &Ctx,
    u: &fortrand_frontend::ProcUnit,
    compiled: &BTreeMap<Sym, CompiledUnit>,
) -> (UnitRecord, u64) {
    let names = &ctx.prog.interner;
    // The source digest. Every symbol the declarations and statements
    // name on the way is a mention (the header's name and formal list are
    // not).
    let mentions = Mentions {
        names,
        seen: RefCell::default(),
    };
    let mut d = Digester::new(names);
    u.kind.stable_hash(&mut d);
    d.sym(u.name);
    u.formals.stable_hash(&mut d);
    d.u64(digest(&(&u.decls, &u.body), &mentions));
    let source_hash = d.finish();
    let mentioned = mentions.seen.into_inner();
    // The decomposition sets flowing into the unit.
    let reaching = digest(&ctx.reaching.reaching.get(&u.name), names);
    // The interprocedural constants of the unit's formals: the class keeps
    // only formals the unit mentions (a constant landing in a formal the
    // unit never reads cannot affect its code), the monolithic digest all.
    let consts: Vec<(Sym, i64)> = (u.formals.iter())
        .filter_map(|&f| Some((f, *ctx.consts.formals.get(&(u.name, f))?)))
        .collect();
    let constants = digest(
        &consts
            .iter()
            .filter(|(f, _)| mentioned.contains(f))
            .collect::<Vec<_>>(),
        names,
    );
    let all_constants = digest(&consts, names);
    // The overlap widths of the unit's arrays.
    let unit_keys = (u.name, Sym(0))..=(u.name, Sym(u32::MAX));
    let mut d = Digester::new(names);
    d.unordered(
        ctx.overlaps
            .widths
            .range(unit_keys)
            .map(|((_, a), w)| (a, w)),
    );
    let overlaps = d.finish();
    // Every callee's residual, in call order.
    let mut d = Digester::new(names);
    for edge in ctx.acg.calls.get(&u.name).into_iter().flatten() {
        if let Some(cu) = compiled.get(&edge.callee) {
            d.u64(cu.residual_digest);
        }
    }
    let residuals = d.finish();

    let record = UnitRecord {
        source_hash,
        digests: [
            ("reaching", reaching),
            ("constants", constants),
            ("overlaps", overlaps),
            ("residuals", residuals),
        ]
        .into_iter()
        .map(|(class, h)| (class.to_string(), h))
        .collect(),
    };
    let monolithic = digest(&[reaching, all_constants, overlaps, residuals][..], names);
    (record, monolithic)
}

/// The program's names, recording every symbol looked up: digesting a
/// unit's declarations and statements through it collects what they
/// mention.
struct Mentions<'a> {
    names: &'a fortrand_ir::Interner,
    seen: RefCell<FxHashSet<Sym>>,
}

impl SymNames for Mentions<'_> {
    fn sym_name(&self, s: Sym) -> &str {
        self.seen.borrow_mut().insert(s);
        self.names.sym_name(s)
    }
}

/// Static message counts: a posted operation counts as the message it
/// initiates, its wait as nothing, so the figures survive `CommOpt::Overlap`.
fn count_static(body: &[SStmt], r: &mut CompileReport) {
    walk_stmts(body, &mut |s| match s.msg_kind() {
        Some(MsgKind::Send { .. }) => r.static_sends += 1,
        Some(MsgKind::Bcast) => r.static_bcasts += 1,
        Some(MsgKind::ElemSend { .. }) => r.static_elem_msgs += 1,
        Some(MsgKind::Remap) => r.static_remaps += 1,
        Some(MsgKind::Mark) => r.static_marks += 1,
        Some(MsgKind::Recv { .. } | MsgKind::ElemRecv { .. } | MsgKind::Wait) | None => {}
    });
}

pub(crate) fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};

    fn compile(source: &str, opts: &CompileOptions) -> Result<CompileOutput, CompileError> {
        super::compile(source, opts, &Trace::off(), None, &ModuleDb::default())
    }

    #[test]
    fn fig1_compiles_interprocedurally() {
        let out = compile(FIG1, &CompileOptions::default()).unwrap();
        assert_eq!(out.spmd.nprocs, 4);
        assert_eq!(out.spmd.procs.len(), 2);
        // One vectorized send in the whole program.
        assert_eq!(out.report.static_sends, 1);
        assert_eq!(out.report.static_elem_msgs, 0);
    }

    #[test]
    fn fig1_runtime_resolution_uses_element_messages() {
        let out = compile(
            FIG1,
            &CompileOptions {
                strategy: Strategy::RuntimeResolution,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.report.static_elem_msgs > 0);
        assert_eq!(out.report.static_sends, 0);
    }

    #[test]
    fn fig4_compiles_with_clones() {
        let out = compile(FIG4, &CompileOptions::default()).unwrap();
        assert!(out.report.clones.contains_key("f1"));
        assert!(out.report.clones.contains_key("f2"));
        // Row version ships one vectorized exchange, column version none.
        assert_eq!(out.report.static_sends, 1, "{:?}", out.report);
    }

    #[test]
    fn fig15_remap_counts_by_level() {
        let count = |lvl: DynOptLevel| {
            let out = compile(
                FIG15,
                &CompileOptions {
                    dyn_opt: lvl,
                    ..Default::default()
                },
            )
            .unwrap();
            (out.report.static_remaps, out.report.static_marks)
        };
        assert_eq!(count(DynOptLevel::None), (4, 0));
        assert_eq!(count(DynOptLevel::Live), (2, 0));
        assert_eq!(count(DynOptLevel::Hoist), (2, 0));
        assert_eq!(count(DynOptLevel::Kills), (1, 1));
    }

    #[test]
    fn nprocs_override_wins() {
        let out = compile(
            FIG1,
            &CompileOptions {
                nprocs: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.spmd.nprocs, 2);
    }

    #[test]
    fn clone_limit_falls_back_to_runtime_resolution() {
        let out = compile(
            FIG4,
            &CompileOptions {
                clone_limit: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.report.strategy_used.contains("fallback"),
            "{}",
            out.report.strategy_used
        );
        assert!(out.report.static_elem_msgs > 0);
    }
}

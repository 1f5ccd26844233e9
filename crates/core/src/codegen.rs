//! SPMD code generation.
//!
//! Each program unit is compiled into a node procedure, in one pass in
//! reverse topological order (`incremental::sweep`). The generator implements the paper's compilation
//! strategy concretely:
//!
//! * **data partitioning** — each array's unique reaching decomposition
//!   (post-cloning) becomes an [`ArrayDist`]; local declarations use the
//!   reduced bounds widened by overlap areas;
//! * **computation partitioning** (owner computes, Fig. 9) — loops whose
//!   index drives a distributed dimension of an assigned array are reduced
//!   to local bounds (`BLOCK`) or guarded local loops (`CYCLIC`);
//!   constraints on *formals* are delayed to callers
//!   (`Strategy::Interprocedural`) or turned into ownership guards in
//!   place (`Strategy::Immediate`);
//! * **communication** (Fig. 11) — recognized patterns (`BlockShift`
//!   stencils, `BroadcastDim` pinned slices) are vectorized outward to the
//!   deepest loop carrying a true dependence and instantiated there, or
//!   delayed to callers when no local dependence binds them;
//! * **dynamic data decomposition** (Figs. 16–17) — remap placements from
//!   [`crate::dynamic_decomp`] are emitted around calls (interprocedural)
//!   or inside callees (immediate);
//! * **run-time resolution** (Fig. 3) — the fallback strategy generating
//!   per-reference ownership tests and element messages.
//!
//! The subset of computation/communication patterns accepted is documented
//! in DESIGN.md; unsupported shapes produce a [`CodegenError`] rather than
//! silently wrong code.

use crate::dynamic_decomp::{self, Placements};
use crate::model::*;
use crate::overlap::Overlaps;
use crate::store::CachedUnit;
use fortrand_analysis::acg::Acg;
use fortrand_analysis::consts::InterConsts;
use fortrand_analysis::reaching::{DecompSpec, ReachingDecomps};
use fortrand_analysis::refs::{collect_refs, ArrayRef, LoopCtx};
use fortrand_analysis::side_effects::{translate_effects, Sections, SideEffects};
use fortrand_frontend::ast::*;
use fortrand_frontend::sema::{expr_affine, ProgramInfo, UnitInfo};
use fortrand_ir::digest::digest;
use fortrand_ir::dist::{ArrayDist, DimPartition, DistKind};
use fortrand_ir::rsd::{Rsd, Triplet};
use fortrand_ir::{Affine, Sym, SymEnv};
use fortrand_spmd::ir::{
    BcastPart, DistId, SActual, SDecl, SExpr, SFormal, SLval, SProc, SRect, SStmt, SpmdProgram,
};
use fortrand_spmd::{SBinOp, SIntr};
use rustc_hash::FxHashMap;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Code generation failure with a source line and reason.
#[derive(Clone, Debug)]
pub struct CodegenError {
    /// Source line.
    pub line: u32,
    /// Explanation.
    pub message: String,
}

impl CodegenError {
    pub(crate) fn at(line: u32, m: impl Into<String>) -> Self {
        CodegenError {
            line,
            message: m.into(),
        }
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

type R<T> = Result<T, CodegenError>;

/// Everything the per-unit compilers need.
pub struct Ctx<'a> {
    /// Cloned program.
    pub prog: &'a SourceProgram,
    /// Semantic info.
    pub info: &'a ProgramInfo,
    /// Call graph.
    pub acg: &'a Acg,
    /// Reaching decompositions (post-cloning).
    pub reaching: &'a ReachingDecomps,
    /// Side effects.
    pub se: &'a SideEffects,
    /// Interprocedural constants.
    pub consts: &'a InterConsts,
    /// Overlap widths.
    pub overlaps: &'a Overlaps,
    /// Processor count.
    pub nprocs: usize,
    /// Strategy.
    pub strategy: Strategy,
    /// Dynamic-decomposition optimization level.
    pub dyn_opt: DynOptLevel,
}

/// A compiled unit's public record.
#[derive(Clone)]
pub struct CompiledUnit {
    /// Index into `SpmdProgram::procs`.
    pub proc: usize,
    /// Residual handed to callers.
    pub residual: Residual,
    /// Dynamic decomposition summary (for caller placement).
    pub dyn_summary: DynDecompSummary,
    /// Stable digest of the residual and summary (see
    /// [`CachedUnit`]'s field of the same name): callers' `residuals`
    /// fact class combines these in call order.
    pub residual_digest: u64,
}

/// Compiles every unit, returning the program and per-unit records: the
/// code-generation sweep (`incremental::sweep`) with no artifact store.
/// With an enabled `trace`, each unit's compilation is a complete span on
/// the driver track.
pub fn compile_all(
    ctx: &Ctx,
    trace: &fortrand_trace::Trace,
) -> R<(SpmdProgram, BTreeMap<Sym, CompiledUnit>)> {
    let sweep = crate::incremental::sweep(ctx, None, 0, &Default::default(), trace)?;
    Ok((sweep.spmd, sweep.compiled))
}

/// Generates a single unit, with every callee's record already present in
/// `compiled`/`dyn_summaries`, as a position-independent [`CachedUnit`]:
/// the same value whether it is then grafted only or also stored.
pub(crate) fn compile_one(
    ctx: &Ctx,
    name: Sym,
    compiled: &BTreeMap<Sym, CompiledUnit>,
    dyn_summaries: &BTreeMap<Sym, DynDecompSummary>,
) -> R<CachedUnit> {
    let unit = ctx
        .prog
        .unit(name)
        .ok_or_else(|| CodegenError::at(0, "unit missing from program"))?;
    if matches!(unit.kind, UnitKind::Function(_)) {
        return Err(CodegenError::at(
            unit.line,
            "FUNCTION units are not supported by SPMD code generation; use a subroutine",
        ));
    }
    let uc = UnitCompiler::new(ctx, unit, compiled, dyn_summaries)?;
    match ctx.strategy {
        Strategy::RuntimeResolution => uc.compile_rtr(),
        _ => uc.compile(),
    }
}

/// How a scalar symbol is valued in the current context.
#[derive(Clone, Debug, PartialEq)]
enum VKind {
    /// Ordinary global-valued scalar / loop index.
    Global,
    /// Partitioned loop index: holds a LOCAL index of `part`.
    Local {
        part: DimPartition,
        dist: DistId,
        dim: usize,
    },
}

/// A message instantiated before a statement: the recognised pattern and
/// its vectorized global section, the array's distribution, and what the
/// message runs on.
#[derive(Clone, Debug)]
struct CommOp {
    comm: PendingComm,
    dist: DistId,
    via: Via,
}

/// A shift's message tag, or the buffer a broadcast fills.
#[derive(Clone, Copy, Debug)]
enum Via {
    Tag(u64),
    Buffer(Sym),
}

/// Key identifying a pinned read rewritten to a buffer.
type PinKey = (Sym, usize, Affine);

/// One write of an array in the unit: a definition in its body, or one
/// section of a callee's GMOD translated at a call site.
struct Write {
    /// The defining statement, or the call.
    stmt: StmtId,
    /// Loops enclosing the definition or call, outermost first.
    loops: Vec<LoopCtx>,
    /// The written section; `None` = the whole array.
    section: Option<Rsd>,
}

struct UnitCompiler<'a, 'b> {
    ctx: &'a Ctx<'a>,
    unit: &'a ProcUnit,
    ui: &'a UnitInfo,
    /// The unit's names, distributions and callees, in the order codegen
    /// first uses them: what its `Sym`s, `DistId`s and callee indices
    /// index (see [`CachedUnit`]).
    names: Vec<String>,
    dist_table: Vec<ArrayDist>,
    callees: Vec<Sym>,
    /// Program symbol → the unit's symbol, for the names already taken.
    syms: FxHashMap<Sym, Sym>,
    compiled: &'b BTreeMap<Sym, CompiledUnit>,
    dyn_summaries: &'b BTreeMap<Sym, DynDecompSummary>,
    params: BTreeMap<Sym, i64>,
    env: SymEnv,
    is_main: bool,
    /// Unique decomposition spec per array for this unit (the *initial*
    /// one; dynamic redistribution is tracked separately).
    specs: BTreeMap<Sym, Option<DecompSpec>>,
    dists: BTreeMap<Sym, DistId>,
    /// Partitioned loop decisions: loop stmt → (array, dim).
    partitioned: BTreeMap<StmtId, (Sym, usize)>,
    /// Formals constrained to be local indices (Interprocedural only).
    local_formals: BTreeMap<Sym, (Sym, usize)>,
    /// Scalar value kinds in scope.
    vkinds: BTreeMap<Sym, VKind>,
    /// Comm operations anchored before a statement.
    comm_before: BTreeMap<StmtId, Vec<CommOp>>,
    /// Pinned-read buffer rewrites.
    pin_buffers: BTreeMap<PinKey, Sym>,
    /// Pinned reads made local by the statement's own ownership guard.
    guard_local: std::collections::BTreeSet<(StmtId, PinKey)>,
    /// Buffer declarations to emit.
    buffer_decls: Vec<SDecl>,
    /// Buffer extra-formals (delayed broadcasts) in residual-comm order.
    buffer_formals: Vec<Sym>,
    /// Remap placements.
    placements: Placements,
    /// Residual being accumulated.
    residual: Residual,
    /// Fresh-name/tag counters.
    next_tag: u64,
    temp_counter: u32,
    /// Arrays whose first DISTRIBUTE establishes the declaration spec.
    first_distribute_seen: BTreeMap<Sym, bool>,
    /// Buffers to pass at each call site (delayed broadcasts), in callee
    /// buffer-formal order.
    edge_buffers: BTreeMap<StmtId, Vec<Sym>>,
    /// Global-value companion symbols for guarded local loops (`i$g`).
    global_companion: BTreeMap<Sym, Sym>,
    /// The unit's array references, collected once.
    refs: Rc<[ArrayRef]>,
    /// Every write of each array in the unit, built on the first question
    /// (see [`Self::writes`]).
    writes: OnceCell<FxHashMap<Sym, Vec<Write>>>,
    /// Each statement's position in `unit.walk()` order, built when first
    /// asked.
    walk_pos: OnceCell<FxHashMap<StmtId, usize>>,
}

impl<'a, 'b> UnitCompiler<'a, 'b> {
    fn new(
        ctx: &'a Ctx<'a>,
        unit: &'a ProcUnit,
        compiled: &'b BTreeMap<Sym, CompiledUnit>,
        dyn_summaries: &'b BTreeMap<Sym, DynDecompSummary>,
    ) -> R<Self> {
        let ui = ctx.info.unit(unit.name);
        let params = ctx.consts.params_for(unit.name, ctx.info);
        let mut env = SymEnv::new();
        for (&s, &v) in &params {
            env.set_const(s, v);
        }
        let unit_keys = (unit.name, Sym(0))..=(unit.name, Sym(u32::MAX));
        for (&(_, f), &(lo, hi)) in ctx.acg.formal_ranges.range(unit_keys) {
            env.set_range(f, lo, hi);
        }
        Ok(UnitCompiler {
            ctx,
            unit,
            ui,
            names: Vec::new(),
            dist_table: Vec::new(),
            callees: Vec::new(),
            syms: FxHashMap::default(),
            compiled,
            dyn_summaries,
            params,
            env,
            is_main: unit.kind == UnitKind::Program,
            specs: BTreeMap::new(),
            dists: BTreeMap::new(),
            partitioned: BTreeMap::new(),
            local_formals: BTreeMap::new(),
            vkinds: BTreeMap::new(),
            comm_before: BTreeMap::new(),
            pin_buffers: BTreeMap::new(),
            guard_local: std::collections::BTreeSet::new(),
            buffer_decls: Vec::new(),
            buffer_formals: Vec::new(),
            placements: Placements::default(),
            residual: Residual::default(),
            next_tag: 1,
            temp_counter: 0,
            first_distribute_seen: BTreeMap::new(),
            edge_buffers: BTreeMap::new(),
            global_companion: BTreeMap::new(),
            refs: Vec::new().into(),
            writes: OnceCell::new(),
            walk_pos: OnceCell::new(),
        })
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    fn fresh(&mut self, stem: &str) -> Sym {
        self.temp_counter += 1;
        self.new_name(format!("{stem}${}", self.temp_counter))
    }

    /// A unit symbol for a name codegen makes up. Grafting interns it, so
    /// it is the program's symbol of that name if there already is one.
    fn new_name(&mut self, name: String) -> Sym {
        self.names.push(name);
        Sym(self.names.len() as u32 - 1)
    }

    /// The unit's symbol for a program symbol.
    fn sym(&mut self, s: Sym) -> Sym {
        if let Some(&u) = self.syms.get(&s) {
            return u;
        }
        let u = self.new_name(self.ctx.prog.interner.name(s).to_string());
        self.syms.insert(s, u);
        u
    }

    fn add_dist(&mut self, d: ArrayDist) -> DistId {
        DistId(index_of(&mut self.dist_table, d) as u32)
    }

    fn dist(&self, id: DistId) -> &ArrayDist {
        &self.dist_table[id.0 as usize]
    }

    /// The unit's callee index for the procedure `name`.
    fn callee(&mut self, name: Sym) -> usize {
        index_of(&mut self.callees, name)
    }

    /// Closes the unit: its residual and summary move into the unit's
    /// symbol space beside the procedure.
    fn finish(
        mut self,
        proc: SProc,
        mut residual: Residual,
        mut dyn_summary: DynDecompSummary,
    ) -> CachedUnit {
        residual.remap_syms(&mut |s| self.sym(s));
        dyn_summary.remap_syms(&mut |s| self.sym(s));
        let interner = &self.ctx.prog.interner;
        let residual_digest = digest(&(&residual, &dyn_summary), &self.names);
        CachedUnit {
            proc,
            residual,
            dyn_summary,
            residual_digest,
            names: self.names,
            dists: self.dist_table,
            callees: self
                .callees
                .iter()
                .map(|&c| interner.name(c).to_string())
                .collect(),
        }
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        // Tag space partitioned per unit to keep cross-procedure tags
        // distinct: high bits from the unit symbol.
        (self.unit.name.0 as u64) << 20 | t
    }

    /// The unique decomposition spec of `array` at `stmt` (None =
    /// replicated).
    fn spec_at(&self, stmt: StmtId, array: Sym) -> R<Option<DecompSpec>> {
        let set = self.ctx.reaching.at(self.unit.name, stmt, array);
        match set.len() {
            0 => Ok(None),
            1 => Ok(set.first().cloned()),
            _ => Err(CodegenError::at(
                self.unit.line,
                format!(
                    "multiple decompositions reach `{}` (cloning limit hit?)",
                    self.ctx.prog.interner.name(array)
                ),
            )),
        }
    }

    /// Resolves the *declaration* spec per array (first spec it ever has)
    /// and registers distributions. Returns per-array DistId.
    fn resolve_specs(&mut self) -> R<()> {
        let arrays: Vec<Sym> = self
            .ui
            .vars
            .iter()
            .filter(|(_, v)| v.is_array())
            .map(|(&s, _)| s)
            .collect();
        for a in arrays {
            let is_formal = self.ui.var(a).map(|v| v.is_formal).unwrap_or(false);
            let mut spec: Option<DecompSpec> = None;
            // Formals: the inherited (entry) decomposition.
            if is_formal {
                if let Some(set) = self
                    .ctx
                    .reaching
                    .reaching
                    .get(&self.unit.name)
                    .and_then(|m| m.get(&a))
                {
                    if set.len() == 1 {
                        spec = Some(set.iter().next().unwrap().clone());
                    } else if set.len() > 1 {
                        return Err(CodegenError::at(
                            self.unit.line,
                            "multiple inherited decompositions (cloning limit hit?)",
                        ));
                    }
                }
            }
            // Locals (and main arrays): the first spec ever established.
            if spec.is_none() {
                spec = self
                    .ctx
                    .reaching
                    .first_spec(self.unit.name, a, |set| set.len() == 1)
                    .cloned();
            }
            let extents = self.ui.var(a).unwrap().dims.clone();
            let dist = match &spec {
                Some(s) => s.array_dist(&extents, self.ctx.nprocs),
                None => ArrayDist::replicated(&extents),
            };
            // Compile-time partitioning arithmetic (bounds reduction,
            // global↔local formulas) assumes zero alignment offsets on
            // distributed dimensions; nonzero offsets are a run-time
            // resolution case.
            for (d, &off) in dist.offsets.iter().enumerate() {
                if off != 0 && dist.grid_axis[d].is_some() {
                    return Err(CodegenError::at(
                        self.unit.line,
                        format!(
                            "alignment offset {off} on a distributed dimension of `{}` \
                             is unsupported by compile-time partitioning; use \
                             run-time resolution",
                            self.ctx.prog.interner.name(a)
                        ),
                    ));
                }
            }
            let id = self.add_dist(dist);
            self.specs.insert(a, spec);
            self.dists.insert(a, id);
        }
        Ok(())
    }

    /// Lenient spec resolution for run-time resolution: ambiguity is fine
    /// (ownership is resolved dynamically); the first spec found seeds the
    /// initial owner distribution of locally-declared arrays.
    fn resolve_specs_lenient(&mut self) {
        let arrays: Vec<Sym> = self
            .ui
            .vars
            .iter()
            .filter(|(_, v)| v.is_array())
            .map(|(&s, _)| s)
            .collect();
        for a in arrays {
            let mut spec = self
                .ctx
                .reaching
                .first_spec(self.unit.name, a, |set| !set.is_empty())
                .cloned();
            if spec.is_none() {
                if let Some(set) = self
                    .ctx
                    .reaching
                    .reaching
                    .get(&self.unit.name)
                    .and_then(|m| m.get(&a))
                {
                    spec = set.iter().next().cloned();
                }
            }
            let extents = self.ui.var(a).unwrap().dims.clone();
            let dist = match &spec {
                Some(s) => s.array_dist(&extents, self.ctx.nprocs),
                None => ArrayDist::replicated(&extents),
            };
            let id = self.add_dist(dist);
            self.specs.insert(a, spec);
            self.dists.insert(a, id);
        }
    }

    /// True when the array has any (possibly ambiguous) reaching
    /// decomposition at the statement — run-time resolution then treats
    /// it as distributed with dynamic ownership.
    fn rtr_is_distributed(&self, stmt: StmtId, array: Sym) -> bool {
        if !self.ctx.reaching.at(self.unit.name, stmt, array).is_empty() {
            return true;
        }
        self.ctx
            .reaching
            .reaching
            .get(&self.unit.name)
            .and_then(|m| m.get(&array))
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    }

    fn dist_of(&self, array: Sym) -> &ArrayDist {
        self.dist(self.dists[&array])
    }

    /// Local declaration bounds for an array (reduced + overlap-widened).
    fn decl_bounds(&self, array: Sym) -> Vec<(i64, i64)> {
        let dist = self.dist_of(array).clone();
        let widths = self.ctx.overlaps.of(self.unit.name, array).cloned();
        dist.local_extents()
            .iter()
            .enumerate()
            .map(|(d, &e)| {
                let (lo_w, hi_w) = widths
                    .as_ref()
                    .and_then(|w| w.get(d).copied())
                    .unwrap_or((0, 0));
                // Overlaps only widen distributed block dims; serial dims
                // already span the whole extent.
                if dist.grid_axis[d].is_some() && matches!(dist.dims[d].kind, DistKind::Block) {
                    (1 - lo_w, e + hi_w)
                } else {
                    (1, e)
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Pass A: planning
    // ------------------------------------------------------------------

    /// Plans partitioning and communication from one walk of the unit's
    /// references.
    fn plan(&mut self) -> R<()> {
        self.refs = collect_refs(self.unit, self.ui).into();
        let refs = Rc::clone(&self.refs);
        self.plan_partitioning(&refs)?;
        self.plan_comm(&refs)
    }

    /// The unit's write table: per array, each definition and each section
    /// of a callee's GMOD, translated once per call edge. An array the
    /// unit never writes has no entry. Built when first asked, so a unit
    /// that asks no dependence question translates no callee effects.
    fn writes(&self) -> &FxHashMap<Sym, Vec<Write>> {
        self.writes.get_or_init(|| self.write_table())
    }

    fn walk_pos(&self) -> &FxHashMap<StmtId, usize> {
        (self.walk_pos).get_or_init(|| {
            self.unit
                .walk()
                .enumerate()
                .map(|(i, st)| (st.id, i))
                .collect()
        })
    }

    fn write_table(&self) -> FxHashMap<Sym, Vec<Write>> {
        let mut writes: FxHashMap<Sym, Vec<Write>> = FxHashMap::default();
        for r in self.refs.iter().filter(|r| r.is_def) {
            writes.entry(r.array).or_default().push(Write {
                stmt: r.stmt,
                loops: r.nest.clone(),
                section: r.point_rsd(),
            });
        }
        for edge in self
            .ctx
            .acg
            .calls
            .get(&self.unit.name)
            .into_iter()
            .flatten()
        {
            let Some(eff) = self.ctx.se.units.get(&edge.callee) else {
                continue;
            };
            let ((mods, _), _) = translate_effects(eff, edge, self.ctx.info, &self.env);
            for (array, secs) in mods {
                let sections = match secs {
                    Sections::Whole => vec![None],
                    Sections::Some(v) => v.into_iter().map(Some).collect(),
                };
                for section in sections {
                    writes.entry(array).or_default().push(Write {
                        stmt: edge.site,
                        loops: edge.loops.clone(),
                        section,
                    });
                }
            }
        }
        writes
    }

    /// Decides which loops are partitioned and which formals are
    /// owner-local, from assignment left-hand sides and callee residual
    /// constraints.
    fn plan_partitioning(&mut self, refs: &[ArrayRef]) -> R<()> {
        // LHS-driven decisions.
        for r in refs.iter().filter(|r| r.is_def) {
            let Some(spec) = self.spec_at(r.stmt, r.array)? else {
                continue;
            };
            let dist = spec.array_dist(&self.ui.var(r.array).unwrap().dims, self.ctx.nprocs);
            for (d, sub) in r.subs.iter().enumerate() {
                if dist.grid_axis[d].is_none() {
                    continue;
                }
                let Some(a) = sub else {
                    return Err(CodegenError::at(
                        0,
                        "non-affine subscript on a distributed dimension (lhs)",
                    ));
                };
                if let Some((v, off)) = a.as_sym_plus_const() {
                    if off != 0 {
                        return Err(CodegenError::at(
                            0,
                            "shifted lhs subscript on a distributed dimension is unsupported",
                        ));
                    }
                    // Enclosing loop?
                    if let Some(l) = r.nest.iter().find(|l| l.var == v) {
                        if self.partition_safe(l.stmt, v) {
                            self.record_partition(l.stmt, r.array, d)?;
                        }
                        // Unsafe loops fall back to per-statement
                        // ownership guards (pinned handling).
                        continue;
                    }
                    // A formal parameter?
                    if self.ui.var(v).map(|x| x.is_formal).unwrap_or(false) {
                        if self.ctx.strategy == Strategy::Interprocedural && !self.is_main {
                            self.local_formals.insert(v, (r.array, d));
                            continue;
                        }
                        // Immediate: handled as pinned (ownership guard).
                        continue;
                    }
                }
                // Loop-invariant pinned subscript: ownership guard at the
                // statement — handled during emission.
            }
        }
        // Callee-constraint-driven decisions (Interprocedural).
        if self.ctx.strategy == Strategy::Interprocedural {
            for edge in self
                .ctx
                .acg
                .calls
                .get(&self.unit.name)
                .into_iter()
                .flatten()
            {
                let Some(cu) = self.compiled.get(&edge.callee) else {
                    continue;
                };
                for c in &cu.residual.iter_constraints {
                    let callee_info = self.ctx.info.unit(edge.callee);
                    let Some(pos) = callee_info.formals.iter().position(|&f| f == c.formal) else {
                        continue;
                    };
                    if let Some(Expr::Var(v)) = edge.actuals.get(pos) {
                        if let Some(l) = edge.loops.iter().find(|l| l.var == *v) {
                            // The constrained dimension belongs to the
                            // callee's array; map to our actual array.
                            let apos = callee_info
                                .formals
                                .iter()
                                .position(|&f| f == c.array)
                                .ok_or_else(|| {
                                    CodegenError::at(0, "constraint on non-formal array")
                                })?;
                            if let Some(Expr::Var(arr)) = edge.actuals.get(apos) {
                                if self.partition_safe(l.stmt, *v) {
                                    self.record_partition(l.stmt, *arr, c.dim)?;
                                }
                                // Otherwise the call is guarded on
                                // ownership at emission time.
                            }
                        } else if self.ui.var(*v).map(|x| x.is_formal).unwrap_or(false)
                            && !self.is_main
                        {
                            // Pass-through constraint to our own caller.
                            let apos = callee_info
                                .formals
                                .iter()
                                .position(|&f| f == c.array)
                                .unwrap_or(usize::MAX);
                            if let Some(Expr::Var(arr)) = edge.actuals.get(apos) {
                                self.local_formals.insert(*v, (*arr, c.dim));
                            }
                        }
                    }
                }
            }
        }
        // Export local-formal constraints.
        for (&f, &(arr, dim)) in &self.local_formals {
            self.residual.iter_constraints.push(IterConstraint {
                formal: f,
                array: arr,
                dim,
            });
        }
        Ok(())
    }

    /// Owner-computes legality of partitioning a loop: every statement in
    /// the body must be executable by the owning processor alone —
    /// distributed writes driven by the loop index, loop-private scalar
    /// temporaries, and calls whose only use of the index is a constrained
    /// (owner-local) formal. Anything else (replicated writes like
    /// `ipvt(k) = l`, calls that must run on every processor) keeps the
    /// loop sequential-replicated and falls back to ownership guards.
    fn partition_safe(&mut self, loop_stmt: StmtId, var: Sym) -> bool {
        // Locate the loop subtree.
        let Some(loop_node) = self.unit.walk().find(|s| s.id == loop_stmt) else {
            return false;
        };
        let StmtKind::Do { body, .. } = &loop_node.kind else {
            return false;
        };
        let mut private_candidates: Vec<Sym> = Vec::new();
        if !self.subtree_safe(body, var, &mut private_candidates) {
            return false;
        }
        // Scalars assigned inside the loop must be loop-private: every
        // read of the scalar anywhere in the unit sits inside a loop body
        // that assigns it earlier (simple privatization test).
        for s in private_candidates {
            if !self.scalar_privatizable(s) {
                return false;
            }
        }
        true
    }

    fn subtree_safe(&mut self, body: &[Stmt], var: Sym, scalars: &mut Vec<Sym>) -> bool {
        for st in body {
            match &st.kind {
                StmtKind::Assign { lhs, .. } => match lhs {
                    LValue::Scalar(s) => scalars.push(*s),
                    LValue::Element { array, subs } => {
                        let Ok(spec) = self.spec_at(st.id, *array) else {
                            return false;
                        };
                        let Some(spec) = spec else { return false }; // replicated write
                        let dist =
                            spec.array_dist(&self.ui.var(*array).unwrap().dims, self.ctx.nprocs);
                        let mut driven = false;
                        for (d, sub) in subs.iter().enumerate() {
                            if dist.grid_axis[d].is_none() {
                                continue;
                            }
                            if let Some(a) = expr_affine(sub, &self.params) {
                                if a.is_sym(var) {
                                    driven = true;
                                }
                            }
                        }
                        if !driven {
                            return false;
                        }
                    }
                },
                StmtKind::Do { body, .. } => {
                    if !self.subtree_safe(body, var, scalars) {
                        return false;
                    }
                }
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    if !self.subtree_safe(then_body, var, scalars)
                        || !self.subtree_safe(else_body, var, scalars)
                    {
                        return false;
                    }
                }
                StmtKind::Call { name, args } => {
                    let Some(cu) = self.compiled.get(name) else {
                        return false;
                    };
                    let callee_info = self.ctx.info.unit(*name);
                    let mut uses_var_constrained = false;
                    for (i, a) in args.iter().enumerate() {
                        let mut mentioned = vec![];
                        a.mentioned_syms(&mut mentioned);
                        if !mentioned.contains(&var) {
                            continue;
                        }
                        // The index may only flow into a constrained formal,
                        // as a bare variable.
                        let Some(&f) = callee_info.formals.get(i) else {
                            return false;
                        };
                        let constrained =
                            cu.residual.iter_constraints.iter().any(|c| c.formal == f);
                        if !matches!(a, Expr::Var(v) if *v == var) || !constrained {
                            return false;
                        }
                        uses_var_constrained = true;
                    }
                    if !uses_var_constrained {
                        // The call ignores the index entirely: under
                        // partitioning it would run once per *owned*
                        // iteration — a semantics change.
                        return false;
                    }
                }
                StmtKind::Continue => {}
                _ => return false,
            }
        }
        true
    }

    /// Simple privatization test: every read of `s` in the unit is inside
    /// some loop whose body assigns `s` at an earlier pre-order position.
    fn scalar_privatizable(&self, s: Sym) -> bool {
        // Assignments to s: (position, enclosing loop stmts).
        let mut assigns: Vec<(usize, Vec<StmtId>)> = Vec::new();
        let mut reads: Vec<(usize, Vec<StmtId>)> = Vec::new();
        collect_scalar_uses(
            &self.unit.body,
            s,
            &mut Vec::new(),
            self.walk_pos(),
            &mut assigns,
            &mut reads,
        );
        for (rp, rnest) in &reads {
            let ok = rnest.iter().any(|loop_id| {
                assigns
                    .iter()
                    .any(|(ap, anest)| anest.contains(loop_id) && ap < rp)
            });
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether the value a partitioned loop leaves in its index `var` is
    /// read: the unit copies it out to its caller (a scalar formal), or
    /// some read of `var` is inside no loop over `var` (a call's actual
    /// included).
    fn index_read_after(&self, var: Sym) -> bool {
        if self.unit.formals.contains(&var) {
            return true;
        }
        let over_var: Vec<StmtId> = (self.unit.walk())
            .filter(|s| matches!(&s.kind, StmtKind::Do { var: v, .. } if *v == var))
            .map(|s| s.id)
            .collect();
        let (mut assigns, mut reads) = (Vec::new(), Vec::new());
        collect_scalar_uses(
            &self.unit.body,
            var,
            &mut Vec::new(),
            self.walk_pos(),
            &mut assigns,
            &mut reads,
        );
        (reads.iter()).any(|(_, nest)| !nest.iter().any(|id| over_var.contains(id)))
    }

    fn record_partition(&mut self, loop_stmt: StmtId, array: Sym, dim: usize) -> R<()> {
        if let Some(&(a0, d0)) = self.partitioned.get(&loop_stmt) {
            // Must be the same partition (same kind/extent/procs).
            let p0 = self.dist_of(a0).dims[d0].clone();
            let p1 = self.dist_of(array).dims[dim].clone();
            if p0 != p1 {
                return Err(CodegenError::at(
                    0,
                    "loop drives two differently-distributed dimensions",
                ));
            }
            return Ok(());
        }
        self.partitioned.insert(loop_stmt, (array, dim));
        Ok(())
    }

    /// Whether `v` holds a local index in `nest`: the index of one of its
    /// partitioned loops, or an owner-local formal.
    fn local_index(&self, nest: &[LoopCtx], v: Sym) -> bool {
        nest.iter()
            .any(|l| l.var == v && self.partitioned.contains_key(&l.stmt))
            || self.local_formals.contains_key(&v)
    }

    /// Plans communication: local stencil reads and callee residual comms.
    fn plan_comm(&mut self, refs: &[ArrayRef]) -> R<()> {
        // Pinned lhs dimensions per statement: a rhs read of the same
        // (array, dim, index) under that ownership guard is local and
        // needs no broadcast (Fig. 12's guarded column access).
        let mut lhs_pins: BTreeMap<StmtId, Vec<PinKey>> = BTreeMap::new();
        for r in refs.iter().filter(|r| r.is_def) {
            let Some(spec) = self.spec_at(r.stmt, r.array)? else {
                continue;
            };
            let dist = spec.array_dist(&self.ui.var(r.array).unwrap().dims, self.ctx.nprocs);
            for (d, sub) in r.subs.iter().enumerate() {
                if dist.grid_axis[d].is_none() {
                    continue;
                }
                let Some(a) = sub else { continue };
                let local_match = (a.as_sym_plus_const())
                    .is_some_and(|(v, off)| off == 0 && self.local_index(&r.nest, v));
                if !local_match {
                    lhs_pins
                        .entry(r.stmt)
                        .or_default()
                        .push((r.array, d, a.clone()));
                }
            }
        }
        let mut pinned_reads: Vec<(ArrayRef, usize, Affine)> = Vec::new();
        for r in refs {
            if r.is_def {
                continue;
            }
            let Some(spec) = self.spec_at(r.stmt, r.array)? else {
                continue;
            };
            let dist = spec.array_dist(&self.ui.var(r.array).unwrap().dims, self.ctx.nprocs);
            for (d, sub) in r.subs.iter().enumerate() {
                if dist.grid_axis[d].is_none() {
                    continue;
                }
                let Some(a) = sub else {
                    return Err(CodegenError::at(
                        0,
                        "non-affine subscript on a distributed dimension (rhs)",
                    ));
                };
                // Local-var-matched subscript?
                if let Some((v, off)) = a.as_sym_plus_const() {
                    if self.local_index(&r.nest, v) {
                        if off == 0 {
                            continue; // purely local
                        }
                        if dist.dims[d].kind != DistKind::Block {
                            return Err(CodegenError::at(
                                0,
                                "shifted read on a non-BLOCK distributed dimension",
                            ));
                        }
                        self.plan_shift(r, d, off)?;
                        continue;
                    }
                }
                // Pinned subscript: every symbol is global-valued here.
                if a.syms().any(|s| self.local_index(&r.nest, s)) {
                    return Err(CodegenError::at(
                        0,
                        "distributed subscript mixes local and global index values",
                    ));
                }
                let key: PinKey = (r.array, d, a.clone());
                if lhs_pins.get(&r.stmt).is_some_and(|v| v.contains(&key)) {
                    // Guard-local: the statement's ownership guard makes
                    // this read local (LocalIdx access, no broadcast).
                    self.guard_local.insert((r.stmt, key));
                    continue;
                }
                pinned_reads.push((r.clone(), d, a.clone()));
            }
        }
        // Pinned reads sharing (array, dim, index) share one buffer and one
        // broadcast; their sections are hulled.
        #[allow(clippy::type_complexity)]
        let mut groups: Vec<(PinKey, Vec<(ArrayRef, usize, Affine)>)> = Vec::new();
        for (r, d, a) in pinned_reads {
            let key: PinKey = (r.array, d, a.clone());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push((r, d, a)),
                None => groups.push((key, vec![(r, d, a)])),
            }
        }
        for (_, group) in groups {
            self.plan_broadcast_group(&group)?;
        }
        // Callee residual comms (Interprocedural delayed instantiation).
        if self.ctx.strategy == Strategy::Interprocedural {
            let edges: Vec<_> = self
                .ctx
                .acg
                .calls
                .get(&self.unit.name)
                .into_iter()
                .flatten()
                .cloned()
                .collect();
            for edge in edges {
                let Some(cu) = self.compiled.get(&edge.callee) else {
                    continue;
                };
                let pending: Vec<PendingComm> = cu.residual.comms.clone();
                for pc in &pending {
                    self.adopt_pending(&edge, pc)?;
                }
            }
        }
        Ok(())
    }

    /// Shift pattern from a local read (e.g. `x(i+5)`).
    fn plan_shift(&mut self, r: &ArrayRef, dim: usize, offset: i64) -> R<()> {
        // Point access section; `place` vectorizes it over each loop it
        // clears (message vectorization, §5.4).
        let mut comm = PendingComm {
            array: r.array,
            pattern: CommPattern::BlockShift { dim, offset },
            rsd: r.point_rsd().unwrap_or_else(|| self.whole_of(r.array)),
        };
        let level = self.place(&r.nest, &mut comm);
        // If the shifted subscript's loop variable survives vectorization,
        // a flow dependence pins the exchange inside its own loop.
        if let Some((v, _)) = r.subs[dim].as_ref().and_then(|a| a.as_sym_plus_const()) {
            if comm.rsd.dims[dim].lo.mentions(v) {
                return Err(needs_pipelining());
            }
        }
        self.delay_or_instantiate(comm, level, anchor_at(&r.nest, level, r.stmt));
        Ok(())
    }

    /// Pinned-slice broadcast pattern (e.g. `a(i,k)` with `k` global):
    /// one buffer + one broadcast per (array, dim, index) group, sections
    /// hulled over all the group's references.
    fn plan_broadcast_group(&mut self, group: &[(ArrayRef, usize, Affine)]) -> R<()> {
        let (array, dim, index) = (group[0].0.array, group[0].1, group[0].2.clone());
        let pattern = CommPattern::BroadcastDim {
            dim,
            index: index.clone(),
        };
        // Environment for hulling: every group member's loop ranges.
        let henv = self.loop_env(group.iter().flat_map(|(r, _, _)| &r.nest));
        let conflict =
            || CodegenError::at(0, "pinned reads of one slice need conflicting placements");
        // The group's level, anchor and hulled section so far, and
        // whether every member so far is delayed to the callers.
        let mut placed: Option<(usize, StmtId, Rsd)> = None;
        let mut all_delay = true;
        for (r, _, _) in group {
            let mut comm = PendingComm {
                array,
                pattern: pattern.clone(),
                rsd: r.point_rsd().unwrap_or_else(|| self.whole_of(array)),
            };
            let lv = self.place(&r.nest, &mut comm);
            // A broadcast left inside a partitioned loop runs at each
            // rank's own local iterations, not after the global iteration
            // that last wrote the element (`place` keeps it there when the
            // loop writes what it reads).
            if (r.nest[..lv].iter()).any(|l| self.partitioned.contains_key(&l.stmt)) {
                return Err(needs_pipelining());
            }
            let an = anchor_at(&r.nest, lv, r.stmt);
            all_delay &= self.delays(array, lv, an);
            let Some((level, anchor, hull)) = &mut placed else {
                placed = Some((lv, an, comm.rsd));
                continue;
            };
            if *level != lv {
                return Err(conflict());
            }
            if !all_delay && *anchor != an {
                // Differing anchors are safe when nothing in the unit,
                // calls included, writes the array (the slice is constant
                // through the body): hoist to the earliest anchor.
                if self.writes().contains_key(&array) {
                    return Err(conflict());
                }
                if self.walk_pos()[&an] < self.walk_pos()[anchor] {
                    *anchor = an;
                }
            }
            *hull = hull_rsd(hull, &comm.rsd, &henv)
                .ok_or_else(|| CodegenError::at(0, "cannot hull pinned-read sections"))?;
        }
        let (level, anchor, rsd) = placed.expect("a group has a member");
        let comm = PendingComm {
            array,
            pattern,
            rsd,
        };
        if let Some(buf) = self.delay_or_instantiate(comm, level, anchor) {
            self.pin_buffers.insert((array, dim, index), buf);
        }
        Ok(())
    }

    /// Adopts a callee's pending communication at one call edge.
    fn adopt_pending(&mut self, edge: &fortrand_analysis::CallEdge, pc: &PendingComm) -> R<()> {
        let callee_info = self.ctx.info.unit(edge.callee);
        // Translate: callee array formal → our actual array; scalar
        // formals in bounds → actual affine expressions.
        let apos = callee_info.formals.iter().position(|&f| f == pc.array);
        let our_array = match apos {
            Some(p) => match edge.actuals.get(p) {
                Some(Expr::Var(a)) => *a,
                _ => return Err(CodegenError::at(0, "pending comm on non-variable actual")),
            },
            None => return Err(CodegenError::at(0, "pending comm on callee local")),
        };
        let subst: BTreeMap<Sym, Affine> = (callee_info.formals.iter().zip(&edge.actuals))
            .filter(|&(&f, _)| !callee_info.is_array(f))
            .filter_map(|(&f, a)| Some((f, expr_affine(a, &self.params)?)))
            .collect();
        let mut comm = PendingComm {
            array: our_array,
            ..pc.clone()
        };
        for (&s, rep) in &subst {
            comm.rsd = comm.rsd.subst(s, rep);
            if let CommPattern::BroadcastDim { index, .. } = &mut comm.pattern {
                *index = index.subst(s, rep);
            }
        }
        let level = self.place(&edge.loops, &mut comm);
        let anchor = anchor_at(&edge.loops, level, edge.site);
        if let Some(buf) = self.delay_or_instantiate(comm, level, anchor) {
            // The call passes the buffer as the callee's extra formal.
            self.edge_buffers.entry(edge.site).or_default().push(buf);
        }
        Ok(())
    }

    /// Paper §5's delay rule: a message hoisted out of every loop of a
    /// subroutine, on a formal, is delayed to the callers
    /// (`Strategy::Interprocedural`) when no local dependence binds it:
    /// no write of the array (a definition, or a call's GMOD section)
    /// comes before `anchor`. A delayed message reads the values the
    /// array had on entry, which such a write would have changed.
    fn delays(&self, array: Sym, level: usize, anchor: StmtId) -> bool {
        level == 0
            && !self.is_main
            && self.ctx.strategy == Strategy::Interprocedural
            && self.ui.var(array).is_some_and(|v| v.is_formal)
            && self.writes().get(&array).is_none_or(|ws| {
                let pos = self.walk_pos();
                ws.iter().all(|w| pos[&w.stmt] >= pos[&anchor])
            })
    }

    /// The one delay-or-instantiate step for every message codegen plans:
    /// `comm`, placed at `level`, joins the residual when [`Self::delays`]
    /// allows, and is otherwise instantiated before `anchor`. Returns a
    /// broadcast's buffer: an extra formal when delayed, a replicated
    /// local otherwise.
    fn delay_or_instantiate(
        &mut self,
        comm: PendingComm,
        level: usize,
        anchor: StmtId,
    ) -> Option<Sym> {
        let buffer =
            matches!(comm.pattern, CommPattern::BroadcastDim { .. }).then(|| self.fresh("buf"));
        if self.delays(comm.array, level, anchor) {
            self.buffer_formals.extend(buffer);
            self.residual.comms.push(comm);
            return buffer;
        }
        let via = match (&comm.pattern, buffer) {
            (&CommPattern::BroadcastDim { dim, .. }, Some(buf)) => {
                let extents: Vec<i64> = (self.dist_of(comm.array).dims.iter().enumerate())
                    .filter(|&(d, _)| d != dim)
                    .map(|(_, p)| p.extent)
                    .collect();
                let dist = self.add_dist(ArrayDist::replicated(&extents));
                self.buffer_decls.push(SDecl {
                    name: buf,
                    bounds: extents.iter().map(|&e| (1, e)).collect(),
                    dist,
                    owner_dist: None,
                });
                Via::Buffer(buf)
            }
            _ => Via::Tag(self.fresh_tag()),
        };
        let dist = self.dists[&comm.array];
        let op = CommOp { comm, dist, via };
        self.comm_before.entry(anchor).or_default().push(op);
        buffer
    }

    /// Vectorize-and-place: walks the enclosing loops innermost-out,
    /// vectorizing `comm`'s section over each loop that carries no true
    /// dependence, never past [`pin_floor`]. Returns the remaining level
    /// (0 = fully hoisted).
    fn place(&self, nest: &[LoopCtx], comm: &mut PendingComm) -> usize {
        let floor = pin_floor(nest, &comm.pattern);
        // Comparison environment: every enclosing loop's constant range
        // (so `k ≤ n-1`-style facts are available).
        let env = self.loop_env(nest);
        let mut level = nest.len();
        for l in nest.iter().rev() {
            if level <= floor || self.carried_dep(l, &comm.rsd, comm.array, &env) {
                break;
            }
            let (Some(lo), Some(hi), Some(1)) = (&l.lo, &l.hi, l.step) else {
                break;
            };
            match comm.rsd.vectorize(l.var, lo, hi) {
                Some(v) => comm.rsd = v,
                None => break,
            }
            level -= 1;
        }
        level
    }

    /// The unit's facts plus the constant range of each loop in `loops`,
    /// outermost first.
    fn loop_env<'l>(&self, loops: impl IntoIterator<Item = &'l LoopCtx>) -> SymEnv {
        let mut env = self.env.clone();
        for l in loops {
            let fold = |b: &Option<Affine>| b.as_ref().and_then(|a| env.fold(a).as_const());
            if let (Some(lo), Some(hi)) = (fold(&l.lo), fold(&l.hi)) {
                env.set_range(l.var, lo, hi);
            }
        }
        env
    }

    /// Conservative carried-dependence test for loop `l` between the
    /// writes of `array` inside `l` (the unit's write table) and the read
    /// section `rsd`. Writes outside `l` cannot create an `l`-carried
    /// dependence; ordering with siblings is preserved by positional
    /// anchoring.
    fn carried_dep(&self, l: &LoopCtx, rsd: &Rsd, array: Sym, env: &SymEnv) -> bool {
        let writes = self.writes().get(&array).into_iter().flatten();
        'mods: for w in writes {
            let Some(pos) = w.loops.iter().position(|x| x.stmt == l.stmt) else {
                continue;
            };
            let m = self.swept(w.section.clone(), &w.loops[pos + 1..], array);
            if m.rank() != rsd.rank() {
                return true;
            }
            // Point-point dimensions with matching coefficients in the
            // loop variable decide the flow direction exactly: elements
            // coincide when read-iteration − write-iteration =
            // (c_mod − c_read)/coeff. A non-positive distance means the
            // read happens no later than the write (anti/loop-independent
            // only) — no *carried flow* dependence from this write.
            for d in 0..m.rank() {
                let (mt, rt) = (&m.dims[d], &rsd.dims[d]);
                if mt.lo == mt.hi && rt.lo == rt.hi {
                    let cm = mt.lo.coeff(l.var);
                    let cr = rt.lo.coeff(l.var);
                    if cm == cr && cm != 0 {
                        if let Some(diff) = (mt.lo.clone() - rt.lo.clone()).as_const() {
                            let dist = diff / cm;
                            if dist <= 0 {
                                continue 'mods;
                            }
                            return true; // definite carried flow dep
                        }
                    }
                }
            }
            // Disjointness after sweeping the loop var on both sides.
            let (Some(lo), Some(hi)) = (l.lo.clone(), l.hi.clone()) else {
                return true;
            };
            let ms = m.vectorize(l.var, &lo, &hi);
            let rs = rsd.vectorize(l.var, &lo, &hi);
            if let (Some(ms), Some(rs)) = (ms, rs) {
                if let Some(i) = ms.intersect(&rs, env) {
                    if i.is_empty(env) {
                        continue 'mods;
                    }
                }
            }
            return true;
        }
        false
    }

    /// A write's `section` of `array` vectorized over `loops`, innermost
    /// first. Unknown sections, and loops without affine bounds, with a
    /// step ≠ 1 or that the section cannot be vectorized over, give the
    /// whole array.
    fn swept(&self, section: Option<Rsd>, loops: &[LoopCtx], array: Sym) -> Rsd {
        section
            .and_then(|rsd| {
                loops
                    .iter()
                    .rev()
                    .try_fold(rsd, |rsd, l| match (&l.lo, &l.hi, l.step) {
                        (Some(lo), Some(hi), Some(1)) => rsd.vectorize(l.var, lo, hi),
                        _ => None,
                    })
            })
            .unwrap_or_else(|| self.whole_of(array))
    }

    fn whole_of(&self, array: Sym) -> Rsd {
        let dims = self
            .ui
            .var(array)
            .map(|v| v.dims.clone())
            .unwrap_or_default();
        Rsd::whole(&dims.iter().map(|&e| Affine::konst(e)).collect::<Vec<_>>())
    }
}

/// The index of `x` in `table`, appended if absent.
fn index_of<T: PartialEq>(table: &mut Vec<T>, x: T) -> usize {
    table.iter().position(|t| *t == x).unwrap_or_else(|| {
        table.push(x);
        table.len() - 1
    })
}

/// Collects scalar assignment/read positions for the privatization test.
fn collect_scalar_uses(
    body: &[Stmt],
    s: Sym,
    nest: &mut Vec<StmtId>,
    pos: &FxHashMap<StmtId, usize>,
    assigns: &mut Vec<(usize, Vec<StmtId>)>,
    reads: &mut Vec<(usize, Vec<StmtId>)>,
) {
    for st in body {
        let p = pos.get(&st.id).copied().unwrap_or(usize::MAX);
        let mut note_reads = |e: &Expr| {
            let mut m = vec![];
            e.mentioned_syms(&mut m);
            if m.contains(&s) {
                reads.push((p, nest.clone()));
            }
        };
        match &st.kind {
            StmtKind::Assign { lhs, rhs } => {
                note_reads(rhs);
                match lhs {
                    LValue::Scalar(v) if *v == s => assigns.push((p, nest.clone())),
                    LValue::Element { subs, .. } => {
                        for sub in subs {
                            note_reads(sub);
                        }
                    }
                    _ => {}
                }
            }
            StmtKind::Do {
                lo, hi, step, body, ..
            } => {
                note_reads(lo);
                note_reads(hi);
                if let Some(e) = step {
                    note_reads(e);
                }
                nest.push(st.id);
                collect_scalar_uses(body, s, nest, pos, assigns, reads);
                nest.pop();
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                note_reads(cond);
                collect_scalar_uses(then_body, s, nest, pos, assigns, reads);
                collect_scalar_uses(else_body, s, nest, pos, assigns, reads);
            }
            StmtKind::Call { args, .. } | StmtKind::Print { args } => {
                for a in args {
                    note_reads(a);
                }
            }
            _ => {}
        }
    }
}

/// The outermost level a message may be hoisted to: a broadcast never
/// leaves a loop that defines its pinned index.
fn pin_floor(nest: &[LoopCtx], pattern: &CommPattern) -> usize {
    match pattern {
        CommPattern::BroadcastDim { index, .. } => (nest.iter())
            .rposition(|l| index.mentions(l.var))
            .map_or(0, |p| p + 1),
        CommPattern::BlockShift { .. } => 0,
    }
}

/// A flow dependence carried by a partitioned loop: the pipelined code
/// generation of the companion papers, which this reproduction does not
/// implement.
fn needs_pipelining() -> CodegenError {
    CodegenError::at(
        0,
        "carried flow dependence on a distributed dimension requires \
         pipelining (unsupported); restructure the loop or use \
         run-time resolution",
    )
}

/// The anchoring statement for a communication placed at `level` within
/// `nest` (level = nest.len() means "at the reference's own statement").
fn anchor_at(nest: &[LoopCtx], level: usize, site: StmtId) -> StmtId {
    if level >= nest.len() {
        site
    } else {
        nest[level].stmt
    }
}

mod emit;
mod rtr;

/// Per-dimension hull of two unit-stride sections under `env`.
fn hull_rsd(a: &Rsd, b: &Rsd, env: &SymEnv) -> Option<Rsd> {
    if a.rank() != b.rank() {
        return None;
    }
    let dims = a
        .dims
        .iter()
        .zip(&b.dims)
        .map(|(x, y)| {
            if x.step != 1 || y.step != 1 {
                return None;
            }
            let lo = env.min(&x.lo, &y.lo)?.clone();
            let hi = env.max(&x.hi, &y.hi)?.clone();
            Some(Triplet::new(lo, hi))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Rsd::new(dims))
}

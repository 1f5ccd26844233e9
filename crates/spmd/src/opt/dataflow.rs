use crate::ir::{
    walk_array_mentions, walk_operands, walk_operands_mut, walk_stmts, Access, BcastPart, Operand,
    OperandMut, Role, SActual, SBinOp, SExpr, SLval, SProc, SRect, SStmt, SpmdProgram,
};
use fortrand_analysis::framework::{self, DataflowGraph, DataflowProblem, SolveStats};
use fortrand_analysis::registry::Direction;
use fortrand_ir::dist::ArrayDist;

use fortrand_ir::{Interner, Sym};
use std::collections::{BTreeMap, BTreeSet};

use super::lin::{const_diff, const_of, linearize, prove_ge, simplify, syn_eq, Ranges};
use super::OptReport;

// ---------------------------------------------------------------------------
// Expression utilities
// ---------------------------------------------------------------------------

/// True if some node of `e` satisfies `pred`.
pub(super) fn any_node(e: &SExpr, pred: impl Fn(&SExpr) -> bool) -> bool {
    let mut hit = false;
    e.walk(&mut |x| hit |= pred(x));
    hit
}

/// True if `e` mentions any of the given scalar symbols.
pub(super) fn mentions_any(e: &SExpr, syms: &BTreeSet<Sym>) -> bool {
    any_node(e, |x| matches!(x, SExpr::Var(s) if syms.contains(s)))
}

/// True if `e` loads from an array (`Elem`) or consults its run-time
/// owner table (`CurOwner`).
pub(super) fn reads_memory(e: &SExpr) -> bool {
    any_node(e, |x| {
        matches!(x, SExpr::Elem { .. } | SExpr::CurOwner { .. })
    })
}

/// True if `e` evaluates to the same value on every rank given that the
/// scalars in `repl` are replicated. `my$p` and array elements are not;
/// `owner()`/`local()` of replicated subscripts are (they consult the
/// shared distribution table).
fn expr_replicated(e: &SExpr, repl: &BTreeSet<Sym>) -> bool {
    !any_node(e, |x| match x {
        SExpr::Var(s) => !repl.contains(s),
        SExpr::MyP | SExpr::Elem { .. } | SExpr::CurOwner { .. } => true,
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Effect analyses over the pristine (pre-optimization) procedures
// ---------------------------------------------------------------------------

/// For each procedure, the set of formal positions whose arrays may be
/// written (transitively through nested calls). Fixpoint over the call
/// graph.
pub(super) fn written_formals(procs: &[SProc]) -> Vec<BTreeSet<usize>> {
    let mut wf: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); procs.len()];
    loop {
        let mut changed = false;
        for (i, p) in procs.iter().enumerate() {
            let mut written: BTreeSet<Sym> = BTreeSet::new();
            collect_written_arrays(&p.body, &wf, &mut written);
            for (pos, f) in p.formals.iter().enumerate() {
                if f.is_array && written.contains(&f.name) && wf[i].insert(pos) {
                    changed = true;
                }
            }
        }
        if !changed {
            return wf;
        }
    }
}

/// Collects every array symbol that may be written by `stmts` (locals,
/// formals and, through calls, actual arrays at written formal positions).
pub(super) fn collect_written_arrays(
    stmts: &[SStmt],
    wf: &[BTreeSet<usize>],
    out: &mut BTreeSet<Sym>,
) {
    walk_operands(stmts, &mut |op| {
        let Operand::Array { name, access, .. } = op else {
            return;
        };
        let written = match access {
            Access::Write => true,
            Access::Actual { callee, pos } => wf[callee].contains(&pos),
            Access::Read => false,
        };
        if written {
            out.insert(name);
        }
    });
}

/// Collects scalar symbols that may be assigned by `stmts` (including loop
/// variables, copy-out targets and received/broadcast scalars).
pub(super) fn collect_assigned_scalars(stmts: &[SStmt], out: &mut BTreeSet<Sym>) {
    walk_operands(stmts, &mut |op| match op {
        Operand::Scalar {
            var,
            role: Role::Def | Role::DoHead,
        }
        | Operand::CopyOut { caller: var, .. } => {
            out.insert(var);
        }
        _ => {}
    });
}

/// Counts textual occurrences of `array` in any array position of `stmts`
/// (element reads/writes, sections, call actuals). The mention audit of the
/// elimination pass compares validated mentions against this total.
fn count_mentions(stmts: &[SStmt], array: Sym) -> usize {
    let mut n = 0;
    walk_array_mentions(stmts, &mut |name, _| n += usize::from(name == array));
    n
}

/// Finds the call sites (callee proc indices) anywhere inside `stmts`.
pub(super) fn collect_callees(stmts: &[SStmt], out: &mut Vec<usize>) {
    walk_operands(stmts, &mut |op| {
        if let Operand::Callee(c) = op {
            out.push(c);
        }
    });
}

/// Orders procedures callers-before-callees (Kahn). Procedures on call
/// cycles (or called from them) are appended in index order and flagged:
/// their recorded entry states are discarded (⊥).
fn topo_callers_first(procs: &[SProc]) -> (Vec<usize>, Vec<bool>) {
    let n = procs.len();
    let mut callees: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut indeg = vec![0usize; n];
    for p in procs {
        let mut cs = Vec::new();
        collect_callees(&p.body, &mut cs);
        cs.sort_unstable();
        cs.dedup();
        for &c in &cs {
            indeg[c] += 1;
        }
        callees.push(cs);
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = vec![false; n];
    while let Some(i) = queue.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        order.push(i);
        for &c in &callees[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
        queue.sort_unstable_by(|a, b| b.cmp(a)); // deterministic: lowest index next
    }
    let mut cyclic = vec![false; n];
    for i in 0..n {
        if !seen[i] {
            cyclic[i] = true;
            order.push(i);
        }
    }
    (order, cyclic)
}

// ---------------------------------------------------------------------------
// Redundant-communication elimination: available-section facts
// ---------------------------------------------------------------------------

/// One available-data fact: every rank holds `src[src_sec]` (as seen on
/// `root`) in `buf[dst_sec]`. `shadows` are pending replicated updates to
/// `buf` (mirrors of guarded writes to `src`) that must be spliced into the
/// output before the fact can be used.
#[derive(Clone, Debug, PartialEq)]
struct Fact {
    id: usize,
    src: Sym,
    buf: Sym,
    root: SExpr,
    /// Source section (simplified); pinned dims have `lo == hi`.
    src_sec: SRect,
    /// Buffer section — one dim per non-pinned source dim, same bounds.
    dst_sec: SRect,
    /// Indices of the non-pinned dims of `src_sec`, in order.
    row_dims: Vec<usize>,
    shadows: Vec<SStmt>,
    is_entry: bool,
}

impl Fact {
    fn mentions(&self, syms: &BTreeSet<Sym>) -> bool {
        let mut hit = mentions_any(&self.root, syms);
        for (lo, hi, _) in self.src_sec.dims.iter().chain(self.dst_sec.dims.iter()) {
            hit |= mentions_any(lo, syms) || mentions_any(hi, syms);
        }
        hit
    }

    fn pinned_dims(&self) -> Vec<usize> {
        (0..self.src_sec.dims.len())
            .filter(|d| !self.row_dims.contains(d))
            .collect()
    }
}

/// Dataflow state at a program point.
#[derive(Clone, Debug, Default)]
struct State {
    /// Scalars provably holding the same value on every rank.
    repl: BTreeSet<Sym>,
    /// Value ranges for scalars (used by the containment prover).
    ranges: Ranges,
    /// Live available-section facts.
    facts: Vec<Fact>,
}

/// Callee entry state accumulated over call sites (met pairwise).
#[derive(Clone, Debug, Default)]
struct Entry {
    repl: BTreeSet<Sym>,
    ranges: Ranges,
    facts: Vec<Fact>,
    bounds: BTreeMap<Sym, Vec<(i64, i64)>>,
}

fn meet_entries(a: Entry, b: &Entry) -> Entry {
    Entry {
        repl: a.repl.intersection(&b.repl).copied().collect(),
        ranges: a
            .ranges
            .into_iter()
            .filter(|(s, r)| b.ranges.get(s) == Some(r))
            .collect(),
        facts: a
            .facts
            .into_iter()
            .filter(|f| {
                b.facts.iter().any(|g| {
                    f.src == g.src
                        && f.buf == g.buf
                        && f.root == g.root
                        && f.src_sec == g.src_sec
                        && f.dst_sec == g.dst_sec
                })
            })
            .collect(),
        bounds: a
            .bounds
            .into_iter()
            .filter(|(s, bs)| b.bounds.get(s) == Some(bs))
            .collect(),
    }
}

/// The elimination scan for one procedure.
struct Scan<'a> {
    interner: &'a mut Interner,
    dists: &'a [ArrayDist],
    /// The program's procedures. Callers are scanned first, so every
    /// non-cyclic callee's body is still the one codegen emitted; the
    /// scanned procedure's own body is taken out while it is rewritten.
    procs: &'a [SProc],
    wf: &'a [BTreeSet<usize>],
    /// Index of the procedure being scanned (the dataflow node).
    caller: usize,
    /// Callee entry contributions recorded per `(caller, callee)` edge in
    /// arrival order; the framework solver replays them through
    /// [`meet_entries`] when the callee's turn comes.
    contribs: &'a mut BTreeMap<(usize, usize), Vec<Entry>>,
    cyclic: &'a [bool],
    /// Decl bounds for this proc's arrays (own decls + entry-mapped formals).
    bounds: BTreeMap<Sym, Vec<(i64, i64)>>,
    /// Array formals of this proc (shadow writes to them are not allowed:
    /// callers were analyzed against the pristine write sets).
    formal_arrays: BTreeSet<Sym>,
    /// Pristine body, kept for mention counting; `None` when the body has
    /// no broadcast. Only a fact this body establishes can gain shadows,
    /// and only such a fact is ever audited.
    original: Option<Vec<SStmt>>,
    mention_memo: BTreeMap<Sym, usize>,
    /// Validated buffer mentions (scan-wide, per buffer array).
    validated: BTreeMap<Sym, usize>,
    next_fact_id: usize,
    eliminated: usize,
    notes: Vec<String>,
}

impl<'a> Scan<'a> {
    fn mention_total(&mut self, buf: Sym) -> usize {
        if let Some(&n) = self.mention_memo.get(&buf) {
            return n;
        }
        let original = (self.original.as_ref())
            .expect("a fact with shadows was established by a broadcast of this body");
        let n = count_mentions(original, buf);
        self.mention_memo.insert(buf, n);
        n
    }

    fn rect_simplify(&self, r: &SRect) -> SRect {
        SRect {
            dims: r
                .dims
                .iter()
                .map(|(lo, hi, st)| (simplify(lo, self.dists), simplify(hi, self.dists), *st))
                .collect(),
        }
    }

    fn rect_replicated(&self, r: &SRect, repl: &BTreeSet<Sym>) -> bool {
        r.dims
            .iter()
            .all(|(lo, hi, _)| expr_replicated(lo, repl) && expr_replicated(hi, repl))
    }

    fn kill_facts_writing(&mut self, st: &mut State, arrays: &BTreeSet<Sym>) {
        st.facts
            .retain(|f| !arrays.contains(&f.src) && !arrays.contains(&f.buf));
    }

    fn kill_facts_mentioning(&mut self, st: &mut State, syms: &BTreeSet<Sym>) {
        st.facts.retain(|f| !f.mentions(syms));
    }

    fn drop_ranges_mentioning(&mut self, st: &mut State, syms: &BTreeSet<Sym>) {
        st.ranges.retain(|s, (lo, hi)| {
            !syms.contains(s) && !mentions_any(lo, syms) && !mentions_any(hi, syms)
        });
    }

    /// Validates element reads of live fact buffers inside `e`: each
    /// in-region read is accounted toward the mention audit.
    fn validate_expr(&mut self, e: &SExpr, st: &State) {
        let mut inside = Vec::new();
        e.walk(&mut |x| {
            let SExpr::Elem { array, subs } = x else {
                return;
            };
            if let Some(f) = st.facts.iter().find(|f| f.buf == *array) {
                if self.subs_in_region(subs, f, &st.ranges) {
                    inside.push(*array);
                }
            }
        });
        for array in inside {
            *self.validated.entry(array).or_insert(0) += 1;
        }
    }

    /// True if `subs` (one per buffer dim) provably lie inside the fact's
    /// buffer region.
    fn subs_in_region(&self, subs: &[SExpr], f: &Fact, ranges: &Ranges) -> bool {
        subs.len() == f.dst_sec.dims.len()
            && subs
                .iter()
                .zip(f.dst_sec.dims.iter())
                .all(|(s, (lo, hi, _))| {
                    prove_ge(s, lo, ranges, self.dists) && prove_ge(hi, s, ranges, self.dists)
                })
    }

    /// Validates a section read of a fact buffer (e.g. as a broadcast or
    /// send source).
    fn validate_section_read(&mut self, array: Sym, sec: &SRect, st: &State) {
        if let Some(f) = st.facts.iter().find(|f| f.buf == array) {
            let inside = sec.dims.len() == f.dst_sec.dims.len()
                && sec.dims.iter().zip(f.dst_sec.dims.iter()).all(
                    |((lo, hi, _), (flo, fhi, _))| {
                        prove_ge(lo, flo, &st.ranges, self.dists)
                            && prove_ge(fhi, hi, &st.ranges, self.dists)
                    },
                );
            if inside {
                *self.validated.entry(array).or_insert(0) += 1;
            }
        }
    }

    /// Attempts to establish a fact for the broadcast `dst ← src[sec]`.
    fn establish(
        &mut self,
        st: &mut State,
        root: &SExpr,
        src: Sym,
        src_sec: &SRect,
        dst: Sym,
        dst_sec: &SRect,
    ) {
        if src == dst || !expr_replicated(root, &st.repl) {
            return;
        }
        let src_sec = self.rect_simplify(src_sec);
        let dst_sec = self.rect_simplify(dst_sec);
        if !self.rect_replicated(&src_sec, &st.repl)
            || !self.rect_replicated(&dst_sec, &st.repl)
            || src_sec.dims.iter().any(|d| d.2 != 1)
            || dst_sec.dims.iter().any(|d| d.2 != 1)
        {
            return;
        }
        let row_dims: Vec<usize> = (0..src_sec.dims.len())
            .filter(|&d| !syn_eq(&src_sec.dims[d].0, &src_sec.dims[d].1, self.dists))
            .collect();
        if dst_sec.dims.len() != row_dims.len() {
            return;
        }
        for (i, &rd) in row_dims.iter().enumerate() {
            if !syn_eq(&dst_sec.dims[i].0, &src_sec.dims[rd].0, self.dists)
                || !syn_eq(&dst_sec.dims[i].1, &src_sec.dims[rd].1, self.dists)
            {
                return;
            }
        }
        st.facts.retain(|f| f.buf != dst);
        *self.validated.entry(dst).or_insert(0) += 1;
        let id = self.next_fact_id;
        self.next_fact_id += 1;
        st.facts.push(Fact {
            id,
            src,
            buf: dst,
            root: simplify(root, self.dists),
            src_sec,
            dst_sec,
            row_dims,
            shadows: vec![],
            is_entry: false,
        });
    }

    /// Handles one single-section `Bcast`: tries elimination against the
    /// live facts, else performs kills and (re-)establishment. Pushes the
    /// replacement statements onto `out`.
    fn scan_bcast(&mut self, st: &mut State, out: &mut Vec<SStmt>, root: SExpr, part: BcastPart) {
        let (src_array, src_section) = (part.src_array, &part.src_section);
        let (dst_array, dst_section) = (part.dst_array, &part.dst_section);
        self.validate_section_read(src_array, src_section, st);
        if let Some((rep, buf)) =
            self.try_eliminate(st, &root, src_array, src_section, dst_array, dst_section)
        {
            out.extend(rep);
            self.eliminated += 1;
            if dst_array == buf {
                // Nothing was written: the buffer already holds the data.
                *self.validated.entry(dst_array).or_insert(0) += 1;
            } else {
                // The copy writes dst exactly as the broadcast would have.
                st.facts
                    .retain(|f| f.buf != dst_array && f.src != dst_array);
                self.establish(st, &root, src_array, src_section, dst_array, dst_section);
            }
            return;
        }
        let mut w = BTreeSet::new();
        w.insert(dst_array);
        self.kill_facts_writing(st, &w);
        self.establish(st, &root, src_array, src_section, dst_array, dst_section);
        out.push(SStmt::Bcast {
            root,
            parts: vec![part],
        });
    }

    /// The elimination check proper: returns the replacement statements
    /// (spliced shadows + local copy) if the broadcast is redundant.
    fn try_eliminate(
        &mut self,
        st: &mut State,
        root: &SExpr,
        src: Sym,
        src_sec: &SRect,
        dst: Sym,
        dst_sec: &SRect,
    ) -> Option<(Vec<SStmt>, Sym)> {
        let src_sec = self.rect_simplify(src_sec);
        let dst_sec = self.rect_simplify(dst_sec);
        if !self.rect_replicated(&src_sec, &st.repl)
            || !self.rect_replicated(&dst_sec, &st.repl)
            || !expr_replicated(root, &st.repl)
            || src_sec.dims.iter().any(|d| d.2 != 1)
            || dst_sec.dims.iter().any(|d| d.2 != 1)
        {
            return None;
        }
        let fidx = (0..st.facts.len()).find(|&i| {
            let f = &st.facts[i];
            if f.src != src
                || !syn_eq(&f.root, &simplify(root, self.dists), self.dists)
                || f.src_sec.dims.len() != src_sec.dims.len()
                || dst_sec.dims.len() != f.row_dims.len()
            {
                return false;
            }
            // Pinned dims must match exactly; row dims must be contained.
            for d in f.pinned_dims() {
                let (lo, hi, _) = &src_sec.dims[d];
                if !syn_eq(lo, hi, self.dists) || !syn_eq(lo, &f.src_sec.dims[d].0, self.dists) {
                    return false;
                }
            }
            for (i2, &rd) in f.row_dims.iter().enumerate() {
                let (lo, hi, _) = &src_sec.dims[rd];
                let (flo, fhi, _) = &f.src_sec.dims[rd];
                if !prove_ge(lo, flo, &st.ranges, self.dists)
                    || !prove_ge(fhi, hi, &st.ranges, self.dists)
                {
                    return false;
                }
                // The new destination must be indexed by the same row
                // coordinates as the buffer.
                let (dlo, dhi, _) = &dst_sec.dims[i2];
                if !syn_eq(dlo, lo, self.dists) || !syn_eq(dhi, hi, self.dists) {
                    return false;
                }
            }
            true
        })?;
        // Mention audit: splicing shadows mutates the buffer, so every
        // textual mention of it must already be validated (i.e. covered by
        // an establishment at its execution point).
        let buf = st.facts[fidx].buf;
        if !st.facts[fidx].shadows.is_empty() {
            let total = self.mention_total(buf);
            if self.validated.get(&buf).copied().unwrap_or(0) != total {
                return None;
            }
        }
        let mut rep: Vec<SStmt> = Vec::new();
        rep.append(&mut st.facts[fidx].shadows);
        if dst != buf {
            // Nested copy loops: dst[sec] = buf[sec], indexed by the shared
            // row coordinates.
            let mut vars = Vec::new();
            for _ in &dst_sec.dims {
                vars.push(self.interner.fresh("i$c"));
            }
            let subs: Vec<SExpr> = vars.iter().map(|&v| SExpr::Var(v)).collect();
            let mut stmt = SStmt::Assign {
                lhs: SLval::Elem {
                    array: dst,
                    subs: subs.clone(),
                },
                rhs: SExpr::Elem { array: buf, subs },
            };
            for (i2, &v) in vars.iter().enumerate().rev() {
                let (lo, hi, _) = &dst_sec.dims[i2];
                stmt = SStmt::Do {
                    var: v,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: 1,
                    body: vec![stmt],
                };
            }
            rep.push(stmt);
        }
        self.notes.push(format!(
            "elim bcast src={} via buf={}",
            self.interner.name(src),
            self.interner.name(buf)
        ));
        Some((rep, buf))
    }
}

/// Substitutes every variable of `e` through `lookup`. Fails (None) on a
/// variable `lookup` does not know and on anything rank-local (`my$p`,
/// array elements, current-owner queries); constants and the other
/// run-time resolution nodes pass through.
fn subst_vars(e: &SExpr, lookup: impl Fn(Sym) -> Option<SExpr>) -> Option<SExpr> {
    let mut out = e.clone();
    let mut ok = true;
    out.walk_mut(&mut |x| match x {
        SExpr::Var(s) => match lookup(*s) {
            Some(v) => *x = v,
            None => ok = false,
        },
        SExpr::MyP | SExpr::Elem { .. } | SExpr::CurOwner { .. } => ok = false,
        _ => {}
    });
    ok.then_some(out)
}

/// Rewrites a caller-term expression into callee formal terms: plain-`Var`
/// scalar actuals map to their formals.
fn rewrite_to_callee(e: &SExpr, smap: &BTreeMap<Sym, Sym>) -> Option<SExpr> {
    subst_vars(e, |s| smap.get(&s).map(|f| SExpr::Var(*f)))
}

fn rewrite_rect_to_callee(r: &SRect, smap: &BTreeMap<Sym, Sym>) -> Option<SRect> {
    let mut out = r.clone();
    for e in out.bounds_mut() {
        *e = rewrite_to_callee(e, smap)?;
    }
    Some(out)
}

fn expr_rank_dependent_value(e: &SExpr) -> bool {
    reads_memory(e) || any_node(e, |x| matches!(x, SExpr::MyP))
}

fn mentions_sym(e: &SExpr, s: Sym) -> bool {
    any_node(e, |x| *x == SExpr::Var(s))
}

impl<'a> Scan<'a> {
    fn record_bottom_calls(&mut self, stmts: &[SStmt]) {
        let mut cs = Vec::new();
        collect_callees(stmts, &mut cs);
        for c in cs {
            self.merge_entry(c, Entry::default());
        }
    }

    fn merge_entry(&mut self, callee: usize, e: Entry) {
        if self.cyclic[callee] {
            return;
        }
        self.contribs
            .entry((self.caller, callee))
            .or_default()
            .push(e);
    }

    fn record_entry(&mut self, callee: usize, args: &[SActual], st: &State) {
        if self.cyclic[callee] {
            return;
        }
        let cal = &self.procs[callee];
        if cal.formals.len() != args.len() {
            self.merge_entry(callee, Entry::default());
            return;
        }
        let mut smap: BTreeMap<Sym, Sym> = BTreeMap::new();
        let mut amap: BTreeMap<Sym, Sym> = BTreeMap::new();
        let mut e = Entry::default();
        for (f, a) in cal.formals.iter().zip(args) {
            match a {
                SActual::Scalar(x) => {
                    if expr_replicated(x, &st.repl) {
                        e.repl.insert(f.name);
                    }
                    if let SExpr::Var(s) = x {
                        smap.entry(*s).or_insert(f.name);
                    }
                }
                SActual::Array(s) => {
                    amap.entry(*s).or_insert(f.name);
                    if let Some(b) = self.bounds.get(s) {
                        e.bounds.insert(f.name, b.clone());
                    }
                }
            }
        }
        for (f, a) in cal.formals.iter().zip(args) {
            if let SActual::Scalar(x) = a {
                let rng = match x {
                    SExpr::Int(v) => Some((SExpr::int(*v), SExpr::int(*v))),
                    SExpr::Var(s) => st.ranges.get(s).and_then(|(lo, hi)| {
                        Some((rewrite_to_callee(lo, &smap)?, rewrite_to_callee(hi, &smap)?))
                    }),
                    _ => None,
                };
                if let Some(r) = rng {
                    e.ranges.insert(f.name, r);
                }
            }
        }
        for f in &st.facts {
            if !f.shadows.is_empty() {
                continue;
            }
            let (Some(&fs), Some(&fb)) = (amap.get(&f.src), amap.get(&f.buf)) else {
                continue;
            };
            let Some(root) = rewrite_to_callee(&f.root, &smap) else {
                continue;
            };
            let Some(ss) = rewrite_rect_to_callee(&f.src_sec, &smap) else {
                continue;
            };
            let Some(ds) = rewrite_rect_to_callee(&f.dst_sec, &smap) else {
                continue;
            };
            e.facts.push(Fact {
                id: 0,
                src: fs,
                buf: fb,
                root,
                src_sec: ss,
                dst_sec: ds,
                row_dims: f.row_dims.clone(),
                shadows: vec![],
                is_entry: true,
            });
        }
        self.merge_entry(callee, e);
    }

    /// For every live fact touched by the given write/assign sets, tries to
    /// absorb the effect as a shadow (a mirror of `to_mirror` with
    /// `my$p ↦ fact.root`), else kills the fact. `guard_root`, when set,
    /// additionally requires the fact's root to equal the guarding rank.
    fn absorb(
        &mut self,
        st: &mut State,
        writes: &BTreeSet<Sym>,
        assigned: &BTreeSet<Sym>,
        to_mirror: Option<&[SStmt]>,
        guard_root: Option<&SExpr>,
    ) {
        let mut i = 0;
        while i < st.facts.len() {
            let (touched_w, touched_s, can_shadow, root, guard_ok) = {
                let f = &st.facts[i];
                let tw = writes.contains(&f.src) || writes.contains(&f.buf);
                let ts = f.mentions(assigned);
                let can = tw
                    && !ts
                    && !writes.contains(&f.buf)
                    && !f.is_entry
                    && !self.formal_arrays.contains(&f.buf);
                let gok = match guard_root {
                    None => true,
                    Some(r) => syn_eq(r, &f.root, self.dists),
                };
                (tw, ts, can, f.root.clone(), gok)
            };
            if !touched_w && !touched_s {
                i += 1;
                continue;
            }
            let mut survived = false;
            if can_shadow && guard_ok {
                if let Some(stmts) = to_mirror {
                    let fact = st.facts[i].clone();
                    let _ = root;
                    if let Some(sh) = self.mirror_entry(&fact, stmts, &st.repl, &st.ranges) {
                        st.facts[i].shadows.extend(sh);
                        survived = true;
                    }
                }
            }
            if survived {
                i += 1;
            } else {
                st.facts.remove(i);
            }
        }
    }

    fn scan_stmts(&mut self, stmts: Vec<SStmt>, st: &mut State) -> Vec<SStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                SStmt::Comment(_) | SStmt::Return | SStmt::Stop => out.push(s),
                SStmt::Print { args } => {
                    for a in &args {
                        self.validate_expr(a, st);
                    }
                    out.push(SStmt::Print { args });
                }
                SStmt::Assign { lhs, rhs } => {
                    self.validate_expr(&rhs, st);
                    match lhs {
                        SLval::Scalar(sy) => {
                            let new_repl = expr_replicated(&rhs, &st.repl);
                            let srhs = simplify(&rhs, self.dists);
                            let range_ok = new_repl
                                && !expr_rank_dependent_value(&srhs)
                                && !mentions_sym(&srhs, sy);
                            let mut killed = BTreeSet::new();
                            killed.insert(sy);
                            st.repl.remove(&sy);
                            self.drop_ranges_mentioning(st, &killed);
                            self.kill_facts_mentioning(st, &killed);
                            if new_repl {
                                st.repl.insert(sy);
                            }
                            if range_ok {
                                st.ranges.insert(sy, (srhs.clone(), srhs));
                            }
                            out.push(SStmt::Assign {
                                lhs: SLval::Scalar(sy),
                                rhs,
                            });
                        }
                        SLval::Elem { array, subs } => {
                            for sub in &subs {
                                self.validate_expr(sub, st);
                            }
                            let stmt = SStmt::Assign {
                                lhs: SLval::Elem { array, subs },
                                rhs,
                            };
                            let mut writes = BTreeSet::new();
                            writes.insert(array);
                            let empty = BTreeSet::new();
                            self.absorb(
                                st,
                                &writes,
                                &empty,
                                Some(std::slice::from_ref(&stmt)),
                                None,
                            );
                            out.push(stmt);
                        }
                    }
                }
                SStmt::Bcast { root, mut parts } if parts.len() == 1 => {
                    let part = parts.pop().expect("one part");
                    self.scan_bcast(st, &mut out, root, part);
                }
                SStmt::Send { to, tag, parts } => {
                    self.validate_expr(&to, st);
                    for (array, section) in &parts {
                        self.validate_section_read(*array, section, st);
                    }
                    out.push(SStmt::Send { to, tag, parts });
                }
                SStmt::Recv { from, tag, parts } => {
                    self.validate_expr(&from, st);
                    let w = parts.iter().map(|(array, _)| *array).collect();
                    self.kill_facts_writing(st, &w);
                    out.push(SStmt::Recv { from, tag, parts });
                }
                SStmt::SendElem { to, tag, value } => {
                    self.validate_expr(&to, st);
                    self.validate_expr(&value, st);
                    out.push(SStmt::SendElem { to, tag, value });
                }
                SStmt::RecvElem { from, tag, lhs } => {
                    self.validate_expr(&from, st);
                    match &lhs {
                        SLval::Scalar(v) => {
                            let mut killed = BTreeSet::new();
                            killed.insert(*v);
                            st.repl.remove(v);
                            self.drop_ranges_mentioning(st, &killed);
                            self.kill_facts_mentioning(st, &killed);
                        }
                        SLval::Elem { array, .. } => {
                            let mut w = BTreeSet::new();
                            w.insert(*array);
                            self.kill_facts_writing(st, &w);
                        }
                    }
                    out.push(SStmt::RecvElem { from, tag, lhs });
                }
                s @ (SStmt::Bcast { .. }
                | SStmt::PostSend { .. }
                | SStmt::WaitSend { .. }
                | SStmt::PostRecv { .. }
                | SStmt::WaitRecv { .. }
                | SStmt::PostBcast { .. }
                | SStmt::WaitBcast { .. }
                | SStmt::Remap { .. }
                | SStmt::RemapGlobal { .. }
                | SStmt::MarkDist { .. }) => {
                    // Nothing to learn from these (packs and post/wait
                    // forms come from later passes): keep the state sound
                    // by killing what they write.
                    let mut writes = BTreeSet::new();
                    collect_written_arrays(std::slice::from_ref(&s), self.wf, &mut writes);
                    self.kill_facts_writing(st, &writes);
                    out.push(s);
                }
                SStmt::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let stmt = self.scan_do(st, var, lo, hi, step, body);
                    out.push(stmt);
                }
                SStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let stmt = self.scan_if(st, cond, then_body, else_body);
                    out.push(stmt);
                }
                SStmt::Call {
                    proc,
                    args,
                    copy_out,
                } => {
                    let stmt = self.scan_call(st, proc, args, copy_out);
                    out.push(stmt);
                }
            }
        }
        out
    }

    fn scan_do(
        &mut self,
        st: &mut State,
        var: Sym,
        lo: SExpr,
        hi: SExpr,
        step: i64,
        body: Vec<SStmt>,
    ) -> SStmt {
        self.validate_expr(&lo, st);
        self.validate_expr(&hi, st);
        let mut writes = BTreeSet::new();
        collect_written_arrays(&body, self.wf, &mut writes);
        let mut assigned = BTreeSet::new();
        assigned.insert(var);
        collect_assigned_scalars(&body, &mut assigned);

        // Partition facts: untouched shadow-free facts flow into the body
        // (valid at every iteration start); untouched facts with pending
        // shadows survive the loop but must not enter it (their shadows
        // would splice per-iteration); touched facts get a whole-loop
        // mirror or die.
        let mut passed: Vec<Fact> = vec![];
        let mut kept: Vec<Fact> = vec![];
        let mut touched: Vec<Fact> = vec![];
        for f in std::mem::take(&mut st.facts) {
            let t = writes.contains(&f.src) || writes.contains(&f.buf) || f.mentions(&assigned);
            if !t && f.shadows.is_empty() {
                passed.push(f);
            } else if !t {
                kept.push(f);
            } else {
                touched.push(f);
            }
        }
        let whole = (!touched.is_empty()).then(|| SStmt::Do {
            var,
            lo: lo.clone(),
            hi: hi.clone(),
            step,
            body: body.clone(),
        });
        let mut touched_alive: Vec<Fact> = vec![];
        for mut f in touched {
            let can = !writes.contains(&f.buf)
                && !f.mentions(&assigned)
                && !f.is_entry
                && !self.formal_arrays.contains(&f.buf);
            if can {
                let whole = whole.as_ref().expect("built when a fact is touched");
                if let Some(sh) =
                    self.mirror_entry(&f, std::slice::from_ref(whole), &st.repl, &st.ranges)
                {
                    f.shadows.extend(sh);
                    touched_alive.push(f);
                }
            }
        }

        let passed_ids: BTreeSet<usize> = passed.iter().map(|f| f.id).collect();
        let bounds_repl = expr_replicated(&lo, &st.repl) && expr_replicated(&hi, &st.repl);
        let mut inner = State {
            repl: st.repl.difference(&assigned).copied().collect(),
            ranges: st
                .ranges
                .iter()
                .filter(|(sy, (l, h))| {
                    !assigned.contains(sy)
                        && !mentions_any(l, &assigned)
                        && !mentions_any(h, &assigned)
                })
                .map(|(sy, r)| (*sy, r.clone()))
                .collect(),
            facts: passed,
        };
        if bounds_repl {
            inner.repl.insert(var);
        }
        let bounds_stable = !mentions_any(&lo, &assigned) && !mentions_any(&hi, &assigned);
        if bounds_stable {
            let slo = simplify(&lo, self.dists);
            let shi = simplify(&hi, self.dists);
            if step == 1 {
                inner.ranges.insert(var, (slo, shi));
            } else if step == -1 {
                inner.ranges.insert(var, (shi, slo));
            }
        }
        let new_body = self.scan_stmts(body, &mut inner);

        // Post-loop state.
        let mut candidate = st.repl.clone();
        if bounds_repl {
            candidate.insert(var);
        }
        st.repl = inner.repl.intersection(&candidate).copied().collect();
        let mut dropped = assigned.clone();
        dropped.insert(var);
        self.drop_ranges_mentioning(st, &dropped);
        st.facts = inner
            .facts
            .into_iter()
            .filter(|f| passed_ids.contains(&f.id))
            .chain(kept)
            .chain(touched_alive)
            .collect();
        SStmt::Do {
            var,
            lo,
            hi,
            step,
            body: new_body,
        }
    }

    fn scan_if(
        &mut self,
        st: &mut State,
        cond: SExpr,
        then_body: Vec<SStmt>,
        else_body: Vec<SStmt>,
    ) -> SStmt {
        self.validate_expr(&cond, st);
        self.record_bottom_calls(&then_body);
        self.record_bottom_calls(&else_body);
        let mut writes = BTreeSet::new();
        collect_written_arrays(&then_body, self.wf, &mut writes);
        collect_written_arrays(&else_body, self.wf, &mut writes);
        let mut assigned = BTreeSet::new();
        collect_assigned_scalars(&then_body, &mut assigned);
        collect_assigned_scalars(&else_body, &mut assigned);

        if expr_replicated(&cond, &st.repl) {
            let whole = SStmt::If {
                cond: cond.clone(),
                then_body: then_body.clone(),
                else_body: else_body.clone(),
            };
            self.absorb(
                st,
                &writes,
                &assigned,
                Some(std::slice::from_ref(&whole)),
                None,
            );
        } else {
            let root_guard = match &cond {
                SExpr::Bin {
                    op: SBinOp::Eq,
                    l,
                    r,
                } => {
                    if matches!(**l, SExpr::MyP) {
                        Some((**r).clone())
                    } else if matches!(**r, SExpr::MyP) {
                        Some((**l).clone())
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match root_guard {
                Some(r) if else_body.is_empty() => {
                    self.absorb(st, &writes, &assigned, Some(&then_body), Some(&r));
                }
                _ => self.absorb(st, &writes, &assigned, None, None),
            }
        }
        for a in &assigned {
            st.repl.remove(a);
        }
        self.drop_ranges_mentioning(st, &assigned);
        SStmt::If {
            cond,
            then_body,
            else_body,
        }
    }

    fn scan_call(
        &mut self,
        st: &mut State,
        proc: usize,
        args: Vec<SActual>,
        copy_out: Vec<(Sym, Sym)>,
    ) -> SStmt {
        for a in &args {
            if let SActual::Scalar(e) = a {
                self.validate_expr(e, st);
            }
        }
        let mut writes = BTreeSet::new();
        for &pos in &self.wf[proc] {
            if let Some(SActual::Array(a)) = args.get(pos) {
                writes.insert(*a);
            }
        }
        // The summary answers two questions only: which buffer actuals the
        // callee reads inside their fact regions, and what the copy-outs
        // hold. Without a copy-out or a live buffer among the actuals
        // there is nothing to ask.
        let buffer_actual =
            |a: &SActual| matches!(a, SActual::Array(s) if st.facts.iter().any(|f| f.buf == *s));
        let summary = if !copy_out.is_empty() || args.iter().any(buffer_actual) {
            self.analyze_call(proc, &args, st)
        } else {
            None
        };
        // Account buffer actuals: a read-only pass of a live fact's buffer,
        // with all callee accesses provably inside the fact region, counts
        // as a validated mention.
        if let Some(sm) = &summary {
            for a in &args {
                if let SActual::Array(sy) = a {
                    if !writes.contains(sy)
                        && sm.validated_bufs.contains(sy)
                        && st.facts.iter().any(|f| f.buf == *sy)
                    {
                        *self.validated.entry(*sy).or_insert(0) += 1;
                    }
                }
            }
        }
        self.record_entry(proc, &args, st);
        self.kill_facts_writing(st, &writes);
        let mut outs = BTreeSet::new();
        for (_, c) in &copy_out {
            outs.insert(*c);
        }
        for c in &outs {
            st.repl.remove(c);
        }
        self.drop_ranges_mentioning(st, &outs);
        self.kill_facts_mentioning(st, &outs);
        if let Some(sm) = &summary {
            for (formal, caller) in &copy_out {
                if let Some((r, range)) = sm.outputs.get(formal) {
                    if *r {
                        st.repl.insert(*caller);
                    }
                    if let Some((lo, hi)) = range {
                        if !mentions_sym(lo, *caller) && !mentions_sym(hi, *caller) {
                            st.ranges.insert(*caller, (lo.clone(), hi.clone()));
                        }
                    }
                }
            }
        }
        SStmt::Call {
            proc,
            args,
            copy_out,
        }
    }
}

/// Runs the elimination pass over all procedures, callers first.
/// [`DataflowGraph`] view of the SPMD program's call graph: nodes are
/// procedure indices in callers-first order, edges are `(caller, callee)`
/// pairs, and procedures on call cycles are flagged so the solver pins
/// them to the boundary value (no entry facts).
struct SpmdCallGraph {
    order: Vec<usize>,
    cyclic: Vec<bool>,
    edges: Vec<(usize, usize)>,
    /// For each node, indices into `edges` of its in-edges, callers
    /// enumerated in solve order (the fold order of the pre-framework
    /// pass, which matters: `meet_entries` is applied pairwise).
    in_edges: Vec<Vec<usize>>,
}

impl SpmdCallGraph {
    fn build(procs: &[SProc]) -> Self {
        let (order, cyclic) = topo_callers_first(procs);
        let mut edges = Vec::new();
        let mut in_edges = vec![Vec::new(); procs.len()];
        for &i in &order {
            let mut cs = Vec::new();
            collect_callees(&procs[i].body, &mut cs);
            cs.sort_unstable();
            cs.dedup();
            for c in cs {
                in_edges[c].push(edges.len());
                edges.push((i, c));
            }
        }
        SpmdCallGraph {
            order,
            cyclic,
            edges,
            in_edges,
        }
    }
}

impl DataflowGraph for SpmdCallGraph {
    type Node = usize;
    type Edge = (usize, usize);

    fn order(&self, _dir: Direction) -> Vec<usize> {
        self.order.clone()
    }

    fn on_cycle(&self, n: usize) -> bool {
        self.cyclic[n]
    }

    fn deps(&self, n: usize, _dir: Direction) -> Vec<(usize, &(usize, usize))> {
        self.in_edges[n]
            .iter()
            .map(|&i| (self.edges[i].0, &self.edges[i]))
            .collect()
    }
}

/// The available-sections problem: a node's input fact is its callers'
/// met entry state (`None` = ⊤, no call site seen yet), and the transfer
/// function is the elimination scan itself, which rewrites the procedure
/// body and records entry contributions for its callees.
struct AvailProblem<'a> {
    prog: &'a mut SpmdProgram,
    report: &'a mut OptReport,
    wf: Vec<BTreeSet<usize>>,
    dists: Vec<ArrayDist>,
    cyclic: Vec<bool>,
    contribs: BTreeMap<(usize, usize), Vec<Entry>>,
}

impl DataflowProblem<SpmdCallGraph> for AvailProblem<'_> {
    type Fact = Option<Entry>;

    fn name(&self) -> &'static str {
        "Available sections"
    }

    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn boundary(&mut self, _g: &SpmdCallGraph, _n: usize) -> Option<Entry> {
        None
    }

    fn translate(
        &mut self,
        _g: &SpmdCallGraph,
        edge: &(usize, usize),
        _src: usize,
        _src_fact: &Option<Entry>,
    ) -> Vec<Option<Entry>> {
        // Entries the caller's scan recorded for this edge, in arrival
        // order (one per call site, plus ⊥ for unscanned branch calls).
        self.contribs
            .remove(edge)
            .unwrap_or_default()
            .into_iter()
            .map(Some)
            .collect()
    }

    fn meet(&mut self, acc: &mut Option<Entry>, contrib: Option<Entry>) {
        let e = contrib.expect("translate only produces concrete entries");
        match acc {
            None => *acc = Some(e),
            Some(prev) => *prev = meet_entries(e, prev),
        }
    }

    fn transfer(&mut self, _g: &SpmdCallGraph, idx: usize, input: Option<Entry>) -> Option<Entry> {
        let entry = input.unwrap_or_default();
        let pname = self
            .prog
            .interner
            .name(self.prog.procs[idx].name)
            .to_string();
        let mut bounds = entry.bounds.clone();
        for d in &self.prog.procs[idx].decls {
            bounds.insert(d.name, d.bounds.clone());
        }
        let formal_arrays: BTreeSet<Sym> = self.prog.procs[idx]
            .formals
            .iter()
            .filter(|f| f.is_array)
            .map(|f| f.name)
            .collect();
        let body = std::mem::take(&mut self.prog.procs[idx].body);
        let mut has_bcast = false;
        walk_stmts(&body, &mut |s| {
            has_bcast |= matches!(s, SStmt::Bcast { .. })
        });
        let mut st = State {
            repl: entry.repl.clone(),
            ranges: entry.ranges.clone(),
            facts: vec![],
        };
        let (new_body, elim_here, notes, entry_fact_names) = {
            let mut scan = Scan {
                interner: &mut self.prog.interner,
                dists: &self.dists,
                procs: &self.prog.procs,
                wf: &self.wf,
                caller: idx,
                contribs: &mut self.contribs,
                cyclic: &self.cyclic,
                bounds,
                formal_arrays,
                original: has_bcast.then(|| body.clone()),
                mention_memo: BTreeMap::new(),
                validated: BTreeMap::new(),
                next_fact_id: 0,
                eliminated: 0,
                notes: vec![],
            };
            let mut entry_fact_names = Vec::new();
            for mut f in entry.facts.clone() {
                f.id = scan.next_fact_id;
                scan.next_fact_id += 1;
                entry_fact_names.push(format!(
                    "{}<-{}",
                    scan.interner.name(f.buf),
                    scan.interner.name(f.src)
                ));
                st.facts.push(f);
            }
            let new_body = scan.scan_stmts(body, &mut st);
            (new_body, scan.eliminated, scan.notes, entry_fact_names)
        };
        self.prog.procs[idx].body = new_body;
        self.report.eliminated += elim_here;
        let repl_names: Vec<String> = entry
            .repl
            .iter()
            .map(|s| self.prog.interner.name(*s).to_string())
            .collect();
        self.report.per_proc.insert(
            pname,
            format!(
                "entry_repl=[{}] entry_facts=[{}] {}",
                repl_names.join(","),
                entry_fact_names.join(","),
                notes.join("; ")
            ),
        );
        Some(entry)
    }
}

pub(super) fn eliminate(prog: &mut SpmdProgram, report: &mut OptReport) -> SolveStats {
    let wf = written_formals(&prog.procs);
    let dists = prog.dists.clone();
    let g = SpmdCallGraph::build(&prog.procs);
    let cyclic = g.cyclic.clone();
    let mut problem = AvailProblem {
        prog,
        report,
        wf,
        dists,
        cyclic,
        contribs: BTreeMap::new(),
    };
    let (_, stats) = framework::solve(&g, &mut problem);
    stats
}

// ---------------------------------------------------------------------------
// Mirroring: replaying the root's guarded updates on every rank
// ---------------------------------------------------------------------------

/// Context for mirroring a statement region: rewrite the root's computation
/// so every rank can replay it against the fact's buffer.
struct MCtx {
    fact: Fact,
    /// Value substitution: original scalar → mirrored expression (fresh
    /// `$m` locals, or the pinned index in sweep mode).
    env: BTreeMap<Sym, SExpr>,
    /// Scalars whose mirrored value is unknown (divergent assignments).
    clobbered: BTreeSet<Sym>,
    /// Replicated scalars at the absorb point.
    repl: BTreeSet<Sym>,
    /// Ranges at the absorb point, extended with mirrored loop variables
    /// and degenerate ranges for pure `$m` locals.
    ranges: Ranges,
    /// Call-inlining depth guard.
    depth: usize,
    /// Sweep mode: the loop variable currently bound to the pinned index
    /// (writes to the source must subscript the pinned dim by exactly this
    /// variable so that exactly one iteration touches the tracked region).
    sweep_var: Option<Sym>,
}

impl<'a> Scan<'a> {
    /// Entry point: mirrors `stmts` for `fact`, returning the shadow
    /// statements (executable on every rank) or None if not provably
    /// replayable.
    fn mirror_entry(
        &mut self,
        fact: &Fact,
        stmts: &[SStmt],
        repl: &BTreeSet<Sym>,
        ranges: &Ranges,
    ) -> Option<Vec<SStmt>> {
        let mut m = MCtx {
            fact: fact.clone(),
            env: BTreeMap::new(),
            clobbered: BTreeSet::new(),
            repl: repl.clone(),
            ranges: ranges.clone(),
            depth: 0,
            sweep_var: None,
        };
        let out = self.mirror_stmts(stmts, &mut m)?;
        if !out.is_empty() {
            self.notes
                .push(format!("shadow buf={}", self.interner.name(fact.buf)));
        }
        Some(out)
    }

    fn mirror_expr(&self, e: &SExpr, m: &MCtx) -> Option<SExpr> {
        let out = match e {
            SExpr::Int(_) | SExpr::Real(_) | SExpr::NProcs => e.clone(),
            SExpr::MyP => m.fact.root.clone(),
            SExpr::Var(s) => {
                if let Some(v) = m.env.get(s) {
                    v.clone()
                } else if m.clobbered.contains(s) {
                    return None;
                } else if m.repl.contains(s) {
                    e.clone()
                } else {
                    return None;
                }
            }
            SExpr::Elem { array, subs } => {
                let ms: Vec<SExpr> = subs
                    .iter()
                    .map(|x| self.mirror_expr(x, m))
                    .collect::<Option<_>>()?;
                if *array == m.fact.src {
                    self.map_src_subs(&ms, m).and_then(|rs| {
                        rs.map(|row| SExpr::Elem {
                            array: m.fact.buf,
                            subs: row,
                        })
                    })?
                } else if *array == m.fact.buf {
                    if !self.subs_in_region(&ms, &m.fact, &m.ranges) {
                        return None;
                    }
                    SExpr::Elem {
                        array: *array,
                        subs: ms,
                    }
                } else {
                    return None;
                }
            }
            SExpr::CurOwner { .. } => return None,
            SExpr::Bin { op, l, r } => {
                SExpr::bin(*op, self.mirror_expr(l, m)?, self.mirror_expr(r, m)?)
            }
            SExpr::Neg(x) => SExpr::Neg(Box::new(self.mirror_expr(x, m)?)),
            SExpr::Not(x) => SExpr::Not(Box::new(self.mirror_expr(x, m)?)),
            SExpr::Intr { name, args } => SExpr::Intr {
                name: *name,
                args: args
                    .iter()
                    .map(|a| self.mirror_expr(a, m))
                    .collect::<Option<Vec<_>>>()?,
            },
            SExpr::Owner { dist, subs } => SExpr::Owner {
                dist: *dist,
                subs: subs
                    .iter()
                    .map(|a| self.mirror_expr(a, m))
                    .collect::<Option<Vec<_>>>()?,
            },
            SExpr::LocalIdx { dist, dim, sub } => SExpr::LocalIdx {
                dist: *dist,
                dim: *dim,
                sub: Box::new(self.mirror_expr(sub, m)?),
            },
        };
        Some(simplify(&out, self.dists))
    }

    /// Classifies mirrored subscripts of the fact's source array.
    /// `Some(Some(row))` — inside the tracked region, `row` are the buffer
    /// subscripts; `Some(None)` — provably outside; `None` — unknown.
    fn map_src_subs(&self, ms: &[SExpr], m: &MCtx) -> Option<Option<Vec<SExpr>>> {
        if ms.len() != m.fact.src_sec.dims.len() {
            return None;
        }
        let mut row = Vec::new();
        for (d, sub) in ms.iter().enumerate() {
            let (flo, fhi, _) = &m.fact.src_sec.dims[d];
            if m.fact.row_dims.contains(&d) {
                if prove_ge(sub, flo, &m.ranges, self.dists)
                    && prove_ge(fhi, sub, &m.ranges, self.dists)
                {
                    row.push(sub.clone());
                } else if self.provably_outside(sub, flo, fhi, &m.ranges) {
                    return Some(None);
                } else {
                    return None;
                }
            } else {
                // Pinned dim: must hit the tracked index or provably miss.
                if syn_eq(sub, flo, self.dists) {
                    continue;
                }
                if self.provably_ne(sub, flo, &m.ranges) {
                    return Some(None);
                }
                return None;
            }
        }
        Some(Some(row))
    }

    fn provably_ne(&self, a: &SExpr, b: &SExpr, ranges: &Ranges) -> bool {
        if let (Some(la), Some(lb)) = (
            linearize(&simplify(a, self.dists)),
            linearize(&simplify(b, self.dists)),
        ) {
            if const_diff(la, lb).is_some_and(|c| c != 0) {
                return true;
            }
        }
        let one = SExpr::int(1);
        prove_ge(&SExpr::sub(a.clone(), b.clone()), &one, ranges, self.dists)
            || prove_ge(&SExpr::sub(b.clone(), a.clone()), &one, ranges, self.dists)
    }

    fn provably_outside(&self, s: &SExpr, lo: &SExpr, hi: &SExpr, ranges: &Ranges) -> bool {
        let one = SExpr::int(1);
        prove_ge(&SExpr::sub(lo.clone(), s.clone()), &one, ranges, self.dists)
            || prove_ge(&SExpr::sub(s.clone(), hi.clone()), &one, ranges, self.dists)
    }

    fn mirror_stmts(&mut self, stmts: &[SStmt], m: &mut MCtx) -> Option<Vec<SStmt>> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                SStmt::Comment(_) | SStmt::Print { .. } => {}
                SStmt::Return | SStmt::Stop => return None,
                SStmt::Assign { lhs, rhs } => match lhs {
                    SLval::Scalar(sy) => match self.mirror_expr(rhs, m) {
                        Some(v) => {
                            let base = self.interner.name(*sy).to_string();
                            let nm = self.interner.fresh(&format!("{base}$m"));
                            let pure = linearize(&v).is_some()
                                && !expr_rank_dependent_value(&v)
                                && !mentions_sym(&v, nm);
                            if pure {
                                m.ranges.insert(nm, (v.clone(), v.clone()));
                            }
                            out.push(SStmt::Assign {
                                lhs: SLval::Scalar(nm),
                                rhs: v,
                            });
                            m.env.insert(*sy, SExpr::Var(nm));
                            m.clobbered.remove(sy);
                        }
                        None => {
                            m.env.remove(sy);
                            m.clobbered.insert(*sy);
                        }
                    },
                    SLval::Elem { array, subs } => {
                        if *array == m.fact.buf {
                            return None;
                        }
                        if *array != m.fact.src {
                            continue; // other arrays: not replayed
                        }
                        let ms: Vec<SExpr> = subs
                            .iter()
                            .map(|x| self.mirror_expr(x, m))
                            .collect::<Option<_>>()?;
                        // Sweep soundness: the pinned subscript must be the
                        // swept variable itself, so exactly one iteration
                        // touches the tracked region.
                        if let Some(sv) = m.sweep_var {
                            for &d in &m.fact.pinned_dims() {
                                let hits = syn_eq(&ms[d], &m.fact.src_sec.dims[d].0, self.dists);
                                if hits && subs[d] != SExpr::Var(sv) {
                                    return None;
                                }
                            }
                        }
                        match self.map_src_subs(&ms, m)? {
                            None => {} // provably outside the region: skip
                            Some(row) => {
                                let rv = self.mirror_expr(rhs, m)?;
                                out.push(SStmt::Assign {
                                    lhs: SLval::Elem {
                                        array: m.fact.buf,
                                        subs: row,
                                    },
                                    rhs: rv,
                                });
                            }
                        }
                    }
                },
                SStmt::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    if let Some(stmt) = self.mirror_do_generic(*var, lo, hi, *step, body, m) {
                        out.push(stmt);
                    } else if let Some(mut sw) = self.mirror_do_sweep(*var, lo, hi, *step, body, m)
                    {
                        out.append(&mut sw);
                    } else {
                        return None;
                    }
                    // Post-loop: body-assigned scalars are control-dependent.
                    let mut assigned = BTreeSet::new();
                    assigned.insert(*var);
                    collect_assigned_scalars(body, &mut assigned);
                    for a in assigned {
                        m.env.remove(&a);
                        m.clobbered.insert(a);
                    }
                }
                SStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mc = self.mirror_expr(cond, m);
                    let mut assigned = BTreeSet::new();
                    collect_assigned_scalars(then_body, &mut assigned);
                    collect_assigned_scalars(else_body, &mut assigned);
                    match mc {
                        Some(c) => {
                            let save_env = m.env.clone();
                            let save_clob = m.clobbered.clone();
                            let tb = self.mirror_stmts(then_body, m)?;
                            m.env = save_env.clone();
                            m.clobbered = save_clob.clone();
                            let eb = self.mirror_stmts(else_body, m)?;
                            m.env = save_env;
                            m.clobbered = save_clob;
                            for a in assigned {
                                m.env.remove(&a);
                                m.clobbered.insert(a);
                            }
                            if !tb.is_empty() || !eb.is_empty() {
                                out.push(SStmt::If {
                                    cond: c,
                                    then_body: tb,
                                    else_body: eb,
                                });
                            }
                        }
                        None => {
                            // Unmirrorable condition: admissible only if
                            // neither branch can touch the tracked arrays.
                            let mut w = BTreeSet::new();
                            collect_written_arrays(then_body, self.wf, &mut w);
                            collect_written_arrays(else_body, self.wf, &mut w);
                            if w.contains(&m.fact.src) || w.contains(&m.fact.buf) {
                                return None;
                            }
                            for a in assigned {
                                m.env.remove(&a);
                                m.clobbered.insert(a);
                            }
                        }
                    }
                }
                SStmt::Call {
                    proc,
                    args,
                    copy_out,
                } => {
                    let mut inl = self.inline_call(*proc, args, copy_out)?;
                    if m.depth >= 3 {
                        return None;
                    }
                    m.depth += 1;
                    let r = self.mirror_stmts(&std::mem::take(&mut inl), m);
                    m.depth -= 1;
                    out.append(&mut r?);
                }
                // Shadows must be communication-free.
                SStmt::Send { .. }
                | SStmt::Recv { .. }
                | SStmt::SendElem { .. }
                | SStmt::RecvElem { .. }
                | SStmt::Bcast { .. }
                | SStmt::PostSend { .. }
                | SStmt::WaitSend { .. }
                | SStmt::PostRecv { .. }
                | SStmt::WaitRecv { .. }
                | SStmt::PostBcast { .. }
                | SStmt::WaitBcast { .. }
                | SStmt::Remap { .. }
                | SStmt::RemapGlobal { .. }
                | SStmt::MarkDist { .. } => return None,
            }
        }
        Some(out)
    }

    /// Generic loop mirror: mirrored bounds, fresh index, recursed body.
    fn mirror_do_generic(
        &mut self,
        var: Sym,
        lo: &SExpr,
        hi: &SExpr,
        step: i64,
        body: &[SStmt],
        m: &mut MCtx,
    ) -> Option<SStmt> {
        let mlo = self.mirror_expr(lo, m)?;
        let mhi = self.mirror_expr(hi, m)?;
        let base = self.interner.name(var).to_string();
        let vm = self.interner.fresh(&format!("{base}$m"));
        let save_env = m.env.clone();
        let save_clob = m.clobbered.clone();
        let save_ranges = m.ranges.clone();
        m.env.insert(var, SExpr::Var(vm));
        if step == 1 {
            m.ranges.insert(vm, (mlo.clone(), mhi.clone()));
        } else if step == -1 {
            m.ranges.insert(vm, (mhi.clone(), mlo.clone()));
        }
        let body_m = self.mirror_stmts(body, m);
        m.env = save_env;
        m.clobbered = save_clob;
        m.ranges = save_ranges;
        Some(SStmt::Do {
            var: vm,
            lo: mlo,
            hi: mhi,
            step,
            body: body_m?,
        })
    }

    /// Sweep mirror: a step-1 loop whose bounds equal the declared bounds of
    /// the source's (single) pinned dimension, iterated by a variable used
    /// as that dimension's subscript. On the root only the iteration with
    /// `var == pinned index` touches the tracked region, so the body is
    /// replayed once with the variable bound to the pinned index.
    fn mirror_do_sweep(
        &mut self,
        var: Sym,
        lo: &SExpr,
        hi: &SExpr,
        step: i64,
        body: &[SStmt],
        m: &mut MCtx,
    ) -> Option<Vec<SStmt>> {
        if step != 1 || m.sweep_var.is_some() {
            return None;
        }
        let pinned = m.fact.pinned_dims();
        let [pd] = pinned.as_slice() else {
            return None;
        };
        let pe = m.fact.src_sec.dims[*pd].0.clone();
        // The pinned index must be a local index of the swept dimension so
        // it is guaranteed to lie within the declared bounds.
        let SExpr::LocalIdx { dim, .. } = &pe else {
            return None;
        };
        if dim != pd {
            return None;
        }
        let decl = self.bounds.get(&m.fact.src)?;
        let (dlo, dhi) = *decl.get(*pd)?;
        if const_of(lo, self.dists) != Some(dlo) || const_of(hi, self.dists) != Some(dhi) {
            return None;
        }
        let save_env = m.env.clone();
        let save_clob = m.clobbered.clone();
        m.env.insert(var, pe);
        m.sweep_var = Some(var);
        let body_m = self.mirror_stmts(body, m);
        m.sweep_var = None;
        m.env = save_env;
        m.clobbered = save_clob;
        body_m
    }

    /// Inlines a call for mirroring: substitutes actuals into the callee
    /// body. Refuses callees with local array storage, copy-outs, assigned
    /// scalar formals, or a non-trailing Return.
    fn inline_call(
        &self,
        proc: usize,
        args: &[SActual],
        copy_out: &[(Sym, Sym)],
    ) -> Option<Vec<SStmt>> {
        // A cyclic callee may be the procedure being rewritten.
        if !copy_out.is_empty() || self.cyclic[proc] {
            return None;
        }
        let cal = &self.procs[proc];
        if !cal.decls.is_empty() || cal.formals.len() != args.len() {
            return None;
        }
        let mut body = cal.body.clone();
        while body.last() == Some(&SStmt::Return) {
            body.pop();
        }
        let mut assigned = BTreeSet::new();
        collect_assigned_scalars(&body, &mut assigned);
        let mut smap: BTreeMap<Sym, SExpr> = BTreeMap::new();
        let mut amap: BTreeMap<Sym, Sym> = BTreeMap::new();
        for (f, a) in cal.formals.iter().zip(args) {
            match a {
                SActual::Scalar(x) => {
                    if assigned.contains(&f.name) {
                        return None; // by-value formal mutated: no clean subst
                    }
                    smap.insert(f.name, x.clone());
                }
                SActual::Array(s) => {
                    amap.insert(f.name, *s);
                }
            }
        }
        Some(subst_stmts(&body, &smap, &amap))
    }
}

/// Substitutes scalar formals by actual expressions and renames arrays,
/// recursively. Scalars named outside expressions (assignment targets,
/// loop variables, copy-outs) and callee locals pass through unchanged:
/// the mirror gives them fresh names anyway.
fn subst_stmts(
    stmts: &[SStmt],
    smap: &BTreeMap<Sym, SExpr>,
    amap: &BTreeMap<Sym, Sym>,
) -> Vec<SStmt> {
    let node = &mut |x: &mut SExpr| match x {
        SExpr::Var(s) => {
            if let Some(actual) = smap.get(s) {
                *x = actual.clone();
            }
        }
        SExpr::Elem { array, .. } | SExpr::CurOwner { array, .. } => {
            *array = *amap.get(array).unwrap_or(array);
        }
        _ => {}
    };
    let mut out = stmts.to_vec();
    walk_operands_mut(&mut out, &mut |op| match op {
        OperandMut::Expr(e) => e.walk_mut(node),
        OperandMut::Array { name, .. } => *name = *amap.get(name).unwrap_or(name),
        _ => {}
    });
    out
}

// ---------------------------------------------------------------------------
// Call summaries: a bounded abstract interpretation of the callee
// ---------------------------------------------------------------------------

/// Abstract value of a callee scalar, expressed in caller terms.
#[derive(Clone, Debug, PartialEq)]
struct AbsVal {
    repl: bool,
    range: Option<(SExpr, SExpr)>,
    val: Option<SExpr>,
}

impl AbsVal {
    fn bottom() -> AbsVal {
        AbsVal {
            repl: false,
            range: None,
            val: None,
        }
    }
}

/// What a call does, as seen by the caller's dataflow.
struct CallSummary {
    /// Caller arrays that are live fact buffers and whose every callee
    /// access is a read provably inside the fact region.
    validated_bufs: BTreeSet<Sym>,
    /// Scalar formal → (replicated at exit, exit range in caller terms).
    outputs: BTreeMap<Sym, (bool, Option<(SExpr, SExpr)>)>,
}

struct AbsWalk<'b> {
    dists: &'b [ArrayDist],
    /// Formal array sym → caller array sym.
    fmap: BTreeMap<Sym, Sym>,
    /// Formal array sym → caller fact (region in caller terms).
    mapped: BTreeMap<Sym, Fact>,
    /// Caller buffer sym → still fully validated.
    buf_ok: BTreeMap<Sym, bool>,
    /// Caller-side ranges for the containment prover.
    caller_ranges: Ranges,
}

impl<'b> AbsWalk<'b> {
    /// Caller-term value of a callee expression via `val` substitution.
    fn to_caller(&self, e: &SExpr, env: &BTreeMap<Sym, AbsVal>) -> Option<SExpr> {
        subst_vars(e, |s| env.get(&s).and_then(|v| v.val.clone()))
    }

    /// True if the callee subscript provably lies in `[lo, hi]` (caller
    /// terms): either its caller value substitutes cleanly, or its own range
    /// is contained.
    fn sub_in(&self, sub: &SExpr, lo: &SExpr, hi: &SExpr, env: &BTreeMap<Sym, AbsVal>) -> bool {
        if let Some(cv) = self.to_caller(sub, env) {
            if prove_ge(&cv, lo, &self.caller_ranges, self.dists)
                && prove_ge(hi, &cv, &self.caller_ranges, self.dists)
            {
                return true;
            }
        }
        if let SExpr::Var(s) = sub {
            if let Some(Some((slo, shi))) = env.get(s).map(|v| v.range.clone()) {
                return prove_ge(&slo, lo, &self.caller_ranges, self.dists)
                    && prove_ge(hi, &shi, &self.caller_ranges, self.dists);
            }
        }
        false
    }

    /// Checks every mapped-buffer element access in `e`; marks buffers with
    /// an unprovable access. Returns false if any array access blocks
    /// replication of the value.
    fn scan_reads(&mut self, e: &SExpr, env: &BTreeMap<Sym, AbsVal>) {
        let mut outside = Vec::new();
        e.walk(&mut |x| {
            let (af, subs) = match x {
                SExpr::Elem { array, subs } => (array, subs.as_slice()),
                SExpr::CurOwner { array, .. } => (array, &[][..]),
                _ => return,
            };
            let Some(f) = self.mapped.get(af) else {
                return;
            };
            let inside = subs.len() == f.dst_sec.dims.len()
                && subs
                    .iter()
                    .zip(&f.dst_sec.dims)
                    .all(|(s, (lo, hi, _))| self.sub_in(s, lo, hi, env));
            if !inside {
                outside.push(self.fmap[af]);
            }
        });
        for caller in outside {
            self.buf_ok.insert(caller, false);
        }
    }

    /// Replication of a callee expression: reads of a mapped buffer inside
    /// the fact region yield replicated values.
    fn repl_of(&self, e: &SExpr, env: &BTreeMap<Sym, AbsVal>) -> bool {
        match e {
            SExpr::Int(_) | SExpr::Real(_) | SExpr::NProcs => true,
            SExpr::Var(s) => env.get(s).map(|v| v.repl).unwrap_or(false),
            SExpr::MyP | SExpr::CurOwner { .. } => false,
            SExpr::Elem { array, subs } => {
                let Some(f) = self.mapped.get(array) else {
                    return false;
                };
                subs.len() == f.dst_sec.dims.len()
                    && subs
                        .iter()
                        .zip(f.dst_sec.dims.clone().iter())
                        .all(|(s, (lo, hi, _))| self.repl_of(s, env) && self.sub_in(s, lo, hi, env))
            }
            SExpr::Bin { l, r, .. } => self.repl_of(l, env) && self.repl_of(r, env),
            SExpr::Neg(x) | SExpr::Not(x) => self.repl_of(x, env),
            SExpr::Intr { args, .. } | SExpr::Owner { subs: args, .. } => {
                args.iter().all(|a| self.repl_of(a, env))
            }
            SExpr::LocalIdx { sub, .. } => self.repl_of(sub, env),
        }
    }

    fn join_env(
        &self,
        a: &BTreeMap<Sym, AbsVal>,
        b: &BTreeMap<Sym, AbsVal>,
    ) -> BTreeMap<Sym, AbsVal> {
        let mut out = BTreeMap::new();
        for (s, va) in a {
            let Some(vb) = b.get(s) else { continue };
            let val = match (&va.val, &vb.val) {
                (Some(x), Some(y)) if syn_eq(x, y, self.dists) => Some(x.clone()),
                _ => None,
            };
            let range = match (&va.range, &vb.range) {
                (Some((alo, ahi)), Some((blo, bhi))) => {
                    let lo = if prove_ge(blo, alo, &self.caller_ranges, self.dists) {
                        Some(alo.clone())
                    } else if prove_ge(alo, blo, &self.caller_ranges, self.dists) {
                        Some(blo.clone())
                    } else {
                        None
                    };
                    let hi = if prove_ge(ahi, bhi, &self.caller_ranges, self.dists) {
                        Some(ahi.clone())
                    } else if prove_ge(bhi, ahi, &self.caller_ranges, self.dists) {
                        Some(bhi.clone())
                    } else {
                        None
                    };
                    match (lo, hi) {
                        (Some(l), Some(h)) => Some((l, h)),
                        _ => None,
                    }
                }
                _ => None,
            };
            out.insert(
                *s,
                AbsVal {
                    repl: va.repl && vb.repl,
                    range,
                    val,
                },
            );
        }
        out
    }

    fn walk(&mut self, stmts: &[SStmt], env: &mut BTreeMap<Sym, AbsVal>) -> Option<()> {
        for s in stmts {
            match s {
                SStmt::Comment(_) | SStmt::Return | SStmt::Stop => {}
                SStmt::Print { args } => {
                    for a in args {
                        self.scan_reads(a, env);
                    }
                }
                SStmt::Assign { lhs, rhs } => {
                    self.scan_reads(rhs, env);
                    match lhs {
                        SLval::Scalar(sy) => {
                            let repl = self.repl_of(rhs, env);
                            let val = self
                                .to_caller(rhs, env)
                                .map(|v| simplify(&v, self.dists))
                                .filter(|v| linearize(v).is_some());
                            let range = match (&val, rhs) {
                                (Some(v), _) => Some((v.clone(), v.clone())),
                                (None, SExpr::Var(t)) => env.get(t).and_then(|x| x.range.clone()),
                                _ => None,
                            };
                            env.insert(*sy, AbsVal { repl, range, val });
                        }
                        SLval::Elem { array, subs } => {
                            for sub in subs {
                                self.scan_reads(sub, env);
                            }
                            if self.mapped.contains_key(array) {
                                let caller = self.fmap[array];
                                self.buf_ok.insert(caller, false);
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
                    self.scan_reads(lo, env);
                    self.scan_reads(hi, env);
                    let var_av = AbsVal {
                        repl: self.repl_of(lo, env) && self.repl_of(hi, env),
                        range: match (self.to_caller(lo, env), self.to_caller(hi, env), *step) {
                            (Some(a), Some(b), 1) => Some((a, b)),
                            (Some(a), Some(b), -1) => Some((b, a)),
                            _ => None,
                        },
                        val: None,
                    };
                    let entry = env.clone();
                    let mut head = entry.clone();
                    head.insert(*var, var_av.clone());
                    let mut stable = false;
                    for _ in 0..4 {
                        let mut exit = head.clone();
                        self.walk(body, &mut exit)?;
                        exit.insert(*var, var_av.clone());
                        let joined = self.join_env(&head, &exit);
                        if joined == head {
                            stable = true;
                            break;
                        }
                        head = joined;
                    }
                    if !stable {
                        // Demote body-assigned scalars to ⊥ and settle.
                        let mut assigned = BTreeSet::new();
                        collect_assigned_scalars(body, &mut assigned);
                        for a in &assigned {
                            head.insert(*a, AbsVal::bottom());
                        }
                        head.insert(*var, var_av.clone());
                    }
                    // One final pass from the settled head for buffer checks.
                    let mut exit = head.clone();
                    self.walk(body, &mut exit)?;
                    // Post-loop: join entry (zero trips) with exit.
                    *env = self.join_env(&entry, &exit);
                    env.insert(
                        *var,
                        AbsVal {
                            repl: var_av.repl,
                            range: None,
                            val: None,
                        },
                    );
                }
                SStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.scan_reads(cond, env);
                    let cond_repl = self.repl_of(cond, env);
                    let mut te = env.clone();
                    self.walk(then_body, &mut te)?;
                    let mut ee = env.clone();
                    self.walk(else_body, &mut ee)?;
                    let mut joined = self.join_env(&te, &ee);
                    if !cond_repl {
                        // Rank-dependent branch: values that differ between
                        // branches are rank-dependent too.
                        for v in joined.values_mut() {
                            if v.val.is_none() {
                                v.repl = false;
                            }
                        }
                    }
                    *env = joined;
                }
                SStmt::Call { .. } => return None,
                SStmt::RecvElem { from, lhs, .. } => {
                    self.scan_reads(from, env);
                    match lhs {
                        SLval::Scalar(v) => {
                            env.insert(*v, AbsVal::bottom());
                        }
                        SLval::Elem { array, .. } => {
                            if self.mapped.contains_key(array) {
                                let caller = self.fmap[array];
                                self.buf_ok.insert(caller, false);
                            }
                        }
                    }
                }
                SStmt::Send { .. }
                | SStmt::Recv { .. }
                | SStmt::SendElem { .. }
                | SStmt::Bcast { .. }
                | SStmt::PostSend { .. }
                | SStmt::WaitSend { .. }
                | SStmt::PostRecv { .. }
                | SStmt::WaitRecv { .. }
                | SStmt::PostBcast { .. }
                | SStmt::WaitBcast { .. }
                | SStmt::Remap { .. }
                | SStmt::RemapGlobal { .. }
                | SStmt::MarkDist { .. } => {
                    // Any mention of a mapped buffer inside communication is
                    // beyond the region prover: de-validate bluntly.
                    walk_array_mentions(std::slice::from_ref(s), &mut |af, _| {
                        if self.mapped.contains_key(&af) {
                            self.buf_ok.insert(self.fmap[&af], false);
                        }
                    });
                }
            }
        }
        Some(())
    }
}

impl<'a> Scan<'a> {
    /// Analyzes one call site: maps actuals onto formals, abstractly walks
    /// the callee, and reports validated buffers plus scalar-formal exit
    /// states (for copy-out). None = unanalyzable, treat conservatively.
    fn analyze_call(&self, callee: usize, args: &[SActual], st: &State) -> Option<CallSummary> {
        if self.cyclic[callee] {
            return None;
        }
        let cal = &self.procs[callee];
        if cal.formals.len() != args.len() {
            return None;
        }
        // Aliased array actuals defeat per-buffer reasoning.
        let mut seen_arrays = BTreeSet::new();
        for a in args {
            if let SActual::Array(s) = a {
                if !seen_arrays.insert(*s) {
                    return None;
                }
            }
        }
        let mut env: BTreeMap<Sym, AbsVal> = BTreeMap::new();
        let mut fmap: BTreeMap<Sym, Sym> = BTreeMap::new();
        let mut mapped: BTreeMap<Sym, Fact> = BTreeMap::new();
        let mut buf_ok: BTreeMap<Sym, bool> = BTreeMap::new();
        for (f, a) in cal.formals.iter().zip(args) {
            match a {
                SActual::Scalar(x) => {
                    let val = Some(simplify(x, self.dists))
                        .filter(|v| linearize(v).is_some() && !expr_rank_dependent_value(v));
                    let range = match (&val, x) {
                        (Some(v), _) => Some((v.clone(), v.clone())),
                        (None, SExpr::Var(s)) => st.ranges.get(s).cloned(),
                        _ => None,
                    };
                    env.insert(
                        f.name,
                        AbsVal {
                            repl: expr_replicated(x, &st.repl),
                            range,
                            val,
                        },
                    );
                }
                SActual::Array(s) => {
                    fmap.insert(f.name, *s);
                    if let Some(fact) = st.facts.iter().find(|f2| f2.buf == *s) {
                        mapped.insert(f.name, fact.clone());
                        buf_ok.insert(*s, true);
                    }
                }
            }
        }
        let mut aw = AbsWalk {
            dists: self.dists,
            fmap,
            mapped,
            buf_ok,
            caller_ranges: st.ranges.clone(),
        };
        aw.walk(&cal.body, &mut env)?;
        let outputs = cal
            .formals
            .iter()
            .filter(|f| !f.is_array)
            .filter_map(|f| {
                env.get(&f.name)
                    .map(|v| (f.name, (v.repl, v.range.clone())))
            })
            .collect();
        let validated_bufs = aw
            .buf_ok
            .into_iter()
            .filter_map(|(s, ok)| ok.then_some(s))
            .collect();
        Some(CallSummary {
            validated_bufs,
            outputs,
        })
    }
}

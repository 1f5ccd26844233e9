//! What code generation reads of the interprocedural analysis, recorded
//! (paper §8).
//!
//! A unit's code is a function of its own source and of the answers to
//! the questions its compiler asks about the rest of the program. Code
//! generation asks them only through [`Reads`], a view over [`Ctx`] and
//! the callees compiled so far. The first time a question is asked, the
//! view digests its answer — symbols by name, through the [`Digester`],
//! never by id — into the unit's read log, which the stored unit keeps. A
//! later compile reuses a stored unit only when every logged question
//! re-answers to the same digest against its own analysis
//! ([`Reads::still`], rustc's "try-mark-green"). So a fact codegen reads
//! is in the key by construction, and a fact it never asked for cannot
//! move the key.

use crate::codegen::{CompiledUnit, Ctx};
use crate::recompile::UnitRecord;
use fortrand_analysis::acg::CallEdge;
use fortrand_analysis::reaching::DecompSpec;
use fortrand_analysis::side_effects::{translate_effects, Sections, UnitEffects};
use fortrand_frontend::ast::StmtId;
use fortrand_frontend::sema::UnitInfo;
use fortrand_ir::digest::{digest, Digester};
use fortrand_ir::{Interner, Sym, SymEnv};
use rustc_hash::FxHashSet;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// The questions codegen asks. `Entry` and `Timeline` are about the unit
/// itself, the others about one symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Fact {
    /// The decompositions reaching the unit's formals at entry.
    Entry,
    /// The decompositions reaching each array before each statement.
    Timeline,
    /// A formal's interprocedural constant and value range.
    Formal,
    /// An array's overlap widths.
    Overlap,
    /// A unit's side-effect summary (GMOD/GREF): the unit's own or a
    /// callee's.
    Effects,
    /// A callee's residual and dynamic-decomposition summary.
    Residual,
    /// A callee's formals and their shapes.
    Interface,
}

impl Fact {
    /// The fact class a read is recorded under in the unit's record.
    fn class(self) -> &'static str {
        match self {
            Fact::Entry | Fact::Timeline => "reaching",
            Fact::Formal => "constants",
            Fact::Overlap => "overlaps",
            Fact::Effects => "effects",
            Fact::Residual => "residuals",
            Fact::Interface => "interfaces",
        }
    }
}

/// One logged read: the question, the name of the symbol it asks about
/// (the unit's own for `Entry` and `Timeline`), and the answer's digest.
pub(crate) type Read = (Fact, String, u64);

/// A unit's record: its source digest and, per fact class, the digest of
/// the set of its reads of that class (the order codegen asked in does not
/// move it).
pub(crate) fn record(source_hash: u64, log: &[Read]) -> UnitRecord {
    let mut classes: BTreeMap<&str, BTreeSet<&Read>> = BTreeMap::new();
    for read in log {
        classes.entry(read.0.class()).or_default().insert(read);
    }
    let digests = classes.into_iter().map(|(c, reads)| {
        let mut h = DefaultHasher::new();
        reads.hash(&mut h);
        (c.to_string(), h.finish())
    });
    UnitRecord {
        source_hash,
        digests: digests.collect(),
    }
}

/// The recording view of one unit's facts (see the module docs).
pub(crate) struct Reads<'a> {
    ctx: &'a Ctx<'a>,
    compiled: &'a BTreeMap<Sym, CompiledUnit>,
    unit: Sym,
    seen: RefCell<FxHashSet<(Fact, Sym)>>,
    log: RefCell<Vec<Read>>,
}

impl<'a> Reads<'a> {
    /// The view of `unit`'s facts, its callees' records in `compiled`.
    pub(crate) fn new(
        ctx: &'a Ctx<'a>,
        compiled: &'a BTreeMap<Sym, CompiledUnit>,
        unit: Sym,
    ) -> Self {
        Reads {
            ctx,
            compiled,
            unit,
            seen: RefCell::default(),
            log: RefCell::default(),
        }
    }

    /// The program's names.
    pub(crate) fn names(&self) -> &'a Interner {
        &self.ctx.prog.interner
    }

    /// The unit's own semantic information: its source, not a fact.
    pub(crate) fn unit_info(&self) -> &'a UnitInfo {
        self.ctx.info.unit(self.unit)
    }

    /// The unit's call sites: its source, not a fact.
    pub(crate) fn calls(&self) -> &'a [CallEdge] {
        (self.ctx.acg.calls.get(&self.unit)).map_or(&[], Vec::as_slice)
    }

    /// The decompositions reaching `array` at the unit's entry.
    pub(crate) fn entry(&self, array: Sym) -> Option<&'a BTreeSet<DecompSpec>> {
        self.note(Fact::Entry, self.unit);
        self.ctx.reaching.reaching.get(&self.unit)?.get(&array)
    }

    /// The decompositions reaching `array` before `stmt`.
    pub(crate) fn at(&self, stmt: StmtId, array: Sym) -> &'a BTreeSet<DecompSpec> {
        self.note(Fact::Timeline, self.unit);
        self.ctx.reaching.at(self.unit, stmt, array)
    }

    /// The first spec of the first reaching set of `array` in statement
    /// order that `accept` takes.
    pub(crate) fn first_spec(
        &self,
        array: Sym,
        accept: impl Fn(&BTreeSet<DecompSpec>) -> bool,
    ) -> Option<&'a DecompSpec> {
        self.note(Fact::Timeline, self.unit);
        self.ctx.reaching.first_spec(self.unit, array, accept)
    }

    /// The interprocedural constant and the value range of the unit's
    /// formal `f`.
    pub(crate) fn formal(&self, f: Sym) -> (Option<&'a i64>, Option<&'a (i64, i64)>) {
        self.note(Fact::Formal, f);
        self.formal_of(f)
    }

    /// The constant and range of `f`, unlogged.
    fn formal_of(&self, f: Sym) -> (Option<&'a i64>, Option<&'a (i64, i64)>) {
        let key = (self.unit, f);
        (
            self.ctx.consts.formals.get(&key),
            self.ctx.acg.formal_ranges.get(&key),
        )
    }

    /// The overlap widths of the unit's `array`.
    pub(crate) fn overlap(&self, array: Sym) -> Option<&'a Vec<(i64, i64)>> {
        self.note(Fact::Overlap, array);
        self.ctx.overlaps.of(self.unit, array)
    }

    /// The side-effect summary of `unit`, this one or a callee.
    pub(crate) fn effects(&self, unit: Sym) -> &'a UnitEffects {
        self.note(Fact::Effects, unit);
        self.ctx.se.unit(unit)
    }

    /// The sections of this unit's arrays the call at `edge` may write,
    /// under `env`; `None` when the callee has no summary.
    pub(crate) fn call_writes(
        &self,
        edge: &CallEdge,
        env: &SymEnv,
    ) -> Option<BTreeMap<Sym, Sections>> {
        self.note(Fact::Effects, edge.callee);
        self.note(Fact::Interface, edge.callee);
        let eff = self.ctx.se.units.get(&edge.callee)?;
        Some(translate_effects(eff, edge, self.ctx.info, env).0 .0)
    }

    /// A compiled callee's record: its residual and dynamic-decomposition
    /// summary.
    pub(crate) fn callee(&self, callee: Sym) -> Option<&'a CompiledUnit> {
        self.note(Fact::Residual, callee);
        self.compiled.get(&callee)
    }

    /// A callee's interface: its formals and their shapes.
    pub(crate) fn interface(&self, callee: Sym) -> &'a UnitInfo {
        self.note(Fact::Interface, callee);
        self.ctx.info.unit(callee)
    }

    /// Logs the read of `fact` about `of` the first time it is asked.
    fn note(&self, fact: Fact, of: Sym) {
        if self.seen.borrow_mut().insert((fact, of)) {
            let name = self.names().name(of).to_string();
            self.log
                .borrow_mut()
                .push((fact, name, self.answer(fact, of)));
        }
    }

    /// The digest of the answer to `fact` about `of` against this view's
    /// analysis.
    fn answer(&self, fact: Fact, of: Sym) -> u64 {
        let (ctx, unit, names) = (self.ctx, self.unit, self.names());
        match fact {
            Fact::Entry => digest(&ctx.reaching.reaching.get(&unit), names),
            Fact::Timeline => ctx.reaching.timeline_digest(unit, names),
            Fact::Formal => digest(&self.formal_of(of), names),
            Fact::Overlap => digest(&ctx.overlaps.of(unit, of), names),
            Fact::Effects => {
                let Some(eff) = ctx.se.units.get(&of) else {
                    return 0;
                };
                // A callee's effects on its locals end at its return: only
                // those on its formals reach this unit.
                let escapes = |s: &Sym| of == unit || ctx.info.unit(of).formals.contains(s);
                let mut d = Digester::new(names);
                d.unordered(eff.mod_scalars.iter().filter(|s| escapes(s)));
                d.unordered(eff.ref_scalars.iter().filter(|s| escapes(s)));
                d.unordered(eff.mod_arrays.iter().filter(|(s, _)| escapes(s)));
                d.unordered(eff.ref_arrays.iter().filter(|(s, _)| escapes(s)));
                d.finish()
            }
            Fact::Residual => digest(&self.compiled.get(&of).map(|c| c.residual_digest), names),
            Fact::Interface => {
                let shapes = ctx.info.units.get(&of).map(|ui| {
                    let shape = |f: Sym| (f, ui.var(f).map(|v| (&v.dims, &v.lower)));
                    ui.formals.iter().map(|&f| shape(f)).collect::<Vec<_>>()
                });
                digest(&shapes, names)
            }
        }
    }

    /// Whether every read of `log` re-answers to its digest here: the
    /// test a stored unit passes to be reused.
    pub(crate) fn still(&self, log: &[Read]) -> bool {
        (log.iter()).all(|(fact, name, d)| {
            (self.names().get(name)).is_some_and(|of| self.answer(*fact, of) == *d)
        })
    }

    /// The reads logged so far, in the order they were first asked.
    pub(crate) fn take_log(&self) -> Vec<Read> {
        self.log.take()
    }
}

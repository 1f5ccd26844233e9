//! Phase 1, local analysis (paper §4, §8): per unit, from the store.
//!
//! The source is cut into unit slices ([`split_units`], by the lexer's own
//! comment, continuation and `END` rules). Each slice has one artifact: its
//! units parsed and sema-checked, with their local summaries — the local
//! side effects and constant subscript offsets, both drawn from the
//! references `collect_refs` finds. An artifact is position-independent: its symbols index a name table of its
//! own in first-intern order, and its statement ids and lines count from
//! the slice's start.
//!
//! A unit's references themselves are kept only for the compile that
//! collected them, where code generation reads them: a stored unit is
//! generated again only when its facts moved, and collecting its
//! references then costs what renaming stored ones would, while keeping
//! them would hold every unit's in the store.
//!
//! An artifact is keyed by its slice's text and by the unit-table entries
//! its sema read (the kind and formal count of each name it looked up,
//! logged as it asked). With an [`ArtifactStore`] attached, a slice whose
//! text the store holds, under a unit table that answers the logged reads
//! alike, is taken from the store and neither lexed, parsed, checked nor
//! summarized; every other slice is made afresh and stored. A compile with
//! no store takes the same path, with the whole source as its one slice,
//! and stores nothing.
//!
//! The artifacts are grafted into the program in source order: interning
//! each one's names, moving its statement ids past the earlier slices'
//! and its lines by the lines before it. The program, its interner order,
//! ids and lines are then exactly those of `parse_program` and
//! `sema::analyze`, and every error is the one they give, at the same
//! line: lexing errors come first, then parsing errors, then the unit
//! table's, then sema's, each kind in source order.

use crate::overlap::local_offsets;
use crate::store::ArtifactStore;
use fortrand_analysis::refs::{collect_refs, ArrayRef};
use fortrand_analysis::side_effects::{local_effects, UnitEffects};
use fortrand_frontend::ast::{ProcUnit, SourceProgram, UnitKind};
use fortrand_frontend::lexer::{lex, Line};
use fortrand_frontend::parser::{parse_lines, split_units};
use fortrand_frontend::sema::{self, ProgramInfo, UnitInfo};
use fortrand_frontend::FrontendError;
use fortrand_ir::{Interner, Sym};
use fortrand_trace::{Trace, PID_COMPILE};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// One unit's local summaries: what side effects, overlaps and code
/// generation read of the unit instead of walking it again.
pub(crate) enum Local {
    /// Made for this program.
    Own {
        refs: Rc<[ArrayRef]>,
        effects: UnitEffects,
        offsets: Offsets,
    },
    /// Unit `unit` of a stored artifact, renamed through `map` when asked
    /// for.
    Stored {
        art: Arc<SliceArtifact>,
        unit: usize,
        map: Rc<[Sym]>,
    },
}

/// Constant subscript offsets per array (`overlap::local_offsets`).
type Offsets = BTreeMap<Sym, Vec<(i64, i64)>>;

impl Local {
    /// Summarizes `unit`.
    pub fn of(unit: &ProcUnit, ui: &UnitInfo) -> Local {
        let refs = collect_refs(unit, ui);
        Local::Own {
            effects: local_effects(unit, ui, &refs),
            offsets: local_offsets(&refs),
            refs: refs.into(),
        }
    }

    /// The array references (`collect_refs`) of `unit`, whose summaries
    /// these are.
    pub fn refs(&self, unit: &ProcUnit, ui: &UnitInfo) -> Rc<[ArrayRef]> {
        match self {
            Local::Own { refs, .. } => Rc::clone(refs),
            Local::Stored { .. } => collect_refs(unit, ui).into(),
        }
    }

    /// The unit's own side effects, no callee's.
    pub fn effects(&self) -> UnitEffects {
        match self {
            Local::Own { effects, .. } => effects.clone(),
            Local::Stored { art, unit, map } => art.units[*unit]
                .effects
                .relocated(&mut |s| map[s.0 as usize]),
        }
    }

    /// The unit's constant subscript offsets per array, for their one
    /// reader: a unit's own are moved out.
    pub fn take_offsets(&mut self) -> Offsets {
        match self {
            Local::Own { offsets, .. } => std::mem::take(offsets),
            Local::Stored { art, unit, map } => (art.units[*unit].offsets.iter())
                .map(|(&a, w)| (map[a.0 as usize], w.clone()))
                .collect(),
        }
    }
}

/// Local summaries by unit name.
pub(crate) type Locals = BTreeMap<Sym, Local>;

/// A name table entry as sema reads it: the kind and formal count of the
/// unit of that name, if there is one.
type Entry = Option<(UnitKind, usize)>;

/// The unit table (`sema::unit_table`).
type Table = FxHashMap<Sym, (UnitKind, usize)>;

/// One unit of a slice artifact, in the slice's own numbering.
struct SliceUnit {
    unit: ProcUnit,
    info: UnitInfo,
    effects: UnitEffects,
    offsets: Offsets,
}

/// The front end's artifact for one slice (see the module docs).
pub(crate) struct SliceArtifact {
    /// The slice's text, compared in full before the artifact is used.
    text: Box<str>,
    /// Symbol id → name, in first-intern order.
    names: Vec<String>,
    /// The statement ids the slice's units use: `0..stmts`.
    stmts: u32,
    units: Vec<SliceUnit>,
    /// The unit-table entries sema read, by name, in the order it first
    /// asked.
    reads: Vec<(String, Entry)>,
}

impl SliceArtifact {
    /// Approximate heap footprint in bytes, charged against the store's
    /// capacity (an estimate, as `CachedUnit::approx_cost`).
    pub(crate) fn approx_cost(&self) -> usize {
        let names: usize = self.names.iter().map(|n| n.len() + 24).sum();
        let reads: usize = self.reads.iter().map(|(n, _)| n.len() + 40).sum();
        let arrays: usize = (self.units.iter())
            .map(|u| u.offsets.len() + u.effects.mod_arrays.len() + u.effects.ref_arrays.len())
            .sum();
        self.text.len() + self.stmts as usize * 160 + arrays * 96 + names + reads + 256
    }

    /// True when `table` answers every read alike.
    fn reads_hold(&self, table: &Table, interner: &Interner) -> bool {
        (self.reads.iter())
            .all(|(name, entry)| interner.get(name).and_then(|s| table.get(&s)) == entry.as_ref())
    }
}

/// What phase 1 hands to phase 2.
pub(crate) struct Phase1 {
    pub prog: SourceProgram,
    pub info: ProgramInfo,
    pub locals: Locals,
    /// Slices taken from the store.
    pub hits: usize,
    /// Slices made afresh.
    pub misses: usize,
}

/// One slice on its way through phase 1.
struct Slice<'s> {
    /// Where the slice lies in the source, and its text.
    range: Range<usize>,
    text: &'s str,
    /// Lines before the slice.
    before: u32,
    /// Digest of `text`.
    key: u64,
    /// The stored artifacts of this text.
    stored: Vec<Arc<SliceArtifact>>,
    /// The program's symbol for each of the slice's own, in the order the
    /// slice first names them (a fresh slice's only when it is stored).
    syms: Vec<Sym>,
    /// Statement ids before the slice.
    ids: u32,
    /// The slice's units as parsed into the program, when no stored
    /// artifact has its text.
    parsed: Option<Vec<ProcUnit>>,
}

/// An error found in a slice, at its line in the whole source.
fn shifted(mut e: FrontendError, before: u32) -> FrontendError {
    if e.line > 0 {
        e.line += before;
    }
    e
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Phase 1 over `source` (see the module docs). With a `store` and an
/// enabled `trace`, each slice leaves a `front end hit` or `front end
/// miss` instant; a miss names what moved: the slice's `text`, or the
/// `names` its sema read.
pub(crate) fn front_end(
    source: &str,
    store: Option<&ArtifactStore>,
    trace: &Trace,
) -> Result<Phase1, FrontendError> {
    // With no store, no slice is looked up or kept: the source is one.
    let cuts = match store {
        Some(_) => split_units(source),
        None => vec![(0..source.len(), 0)],
    };
    let mut slices: Vec<Slice> = (cuts.into_iter())
        .map(|(range, before)| {
            let text = &source[range.clone()];
            let key = store.map_or(0, |_| hash_of(&text));
            let stored = store.map_or_else(Vec::new, |s| s.slice_variants(key));
            Slice {
                range,
                text,
                before,
                key,
                stored: stored.into_iter().filter(|a| *a.text == *text).collect(),
                syms: Vec::new(),
                ids: 0,
                parsed: None,
            }
        })
        .collect();

    // Each run of slices no artifact holds is lexed as one text, all runs
    // before any is parsed, as `parse_program` lexes the whole source
    // first. Then, in source order, each slice's names are interned and
    // its statement ids counted off: a stored slice's from its artifact,
    // a run's as it parses, each slice taking the units that start in it.
    let mut runs: Vec<(Range<usize>, Vec<Line>)> = Vec::new();
    let mut k = 0;
    while k < slices.len() {
        let j = k
            + (slices[k..].iter())
                .take_while(|s| s.stored.is_empty())
                .count();
        if j > k {
            let (first, before) = (slices[k].range.start, slices[k].before);
            let text = &source[first..slices[j - 1].range.end];
            let mut lines = lex(text).map_err(|e| shifted(e, before))?;
            lines.iter_mut().for_each(|l| l.number += before);
            runs.push((k..j, lines));
        }
        k = j + 1;
    }
    let mut interner = Interner::new();
    let mut ids = 0;
    let mut runs = runs.into_iter().peekable();
    let mut k = 0;
    while k < slices.len() {
        let Some((run, lines)) = runs.next_if(|(run, _)| run.start == k) else {
            let s = &mut slices[k];
            let art = &s.stored[0];
            s.syms = art.names.iter().map(|n| interner.intern(n)).collect();
            (s.ids, ids) = (ids, ids + art.stmts);
            k += 1;
            continue;
        };
        let (units, named) = parse_lines(&lines, &mut interner, ids)?;
        let mut units = units.into_iter().zip(named).peekable();
        for i in run.clone() {
            let last = slices.get(i + 1).map_or(u32::MAX, |next| next.before);
            let s = &mut slices[i];
            let mut mine = Vec::new();
            let mut seen = FxHashSet::default();
            while let Some((unit, named)) = units.next_if(|(u, _)| u.line <= last) {
                if store.is_some() {
                    s.syms.extend(named.into_iter().filter(|&n| seen.insert(n)));
                }
                mine.push(unit);
            }
            let stmts: u32 = mine.iter().map(|u| u.walk().count() as u32).sum();
            (s.ids, ids, s.parsed) = (ids, ids + stmts, Some(mine));
        }
        k = run.end;
    }

    // Pass 0 over every slice's unit headers.
    let headers = slices.iter().flat_map(|s| {
        let (parsed, stored) = (s.parsed.as_deref(), s.stored.first());
        let fresh = parsed.into_iter().flatten().map(|u| (u.name, u, 0));
        let stored = (stored.into_iter().flat_map(|a| &a.units))
            .map(|u| (s.syms[u.unit.name.0 as usize], &u.unit, s.before));
        (fresh.chain(stored))
            .map(|(name, u, before)| (name, u.kind, u.formals.len(), u.line + before))
    });
    let table = sema::unit_table(headers, &interner)?;
    if table.is_empty() {
        return Err(FrontendError::at(0, "empty program"));
    }

    // Pass 1, slice by slice in source order: a stored artifact whose
    // reads hold is grafted; any other slice is checked and summarized as
    // parsed into the program.
    let mut graft = Graft::default();
    // Fresh slices to store: the slice, its units, its reads.
    let mut fresh = Vec::new();
    for (k, s) in slices.iter_mut().enumerate() {
        let stored = (s.stored.iter())
            .find(|a| a.reads_hold(&table, &interner))
            .cloned();
        let moved = match (&stored, s.stored.is_empty()) {
            (Some(_), _) => None,
            (None, true) => Some("text"),
            (None, false) => Some("names"),
        };
        let first = graft.units.len();
        match stored {
            Some(art) => graft.stored(art, s, &interner),
            None => {
                let units = match s.parsed.take() {
                    Some(units) => units,
                    // Stored under another unit table: the text parsed
                    // before, so it parses again, to the same names.
                    None => {
                        let mut lines = lex(s.text).map_err(|e| shifted(e, s.before))?;
                        lines.iter_mut().for_each(|l| l.number += s.before);
                        parse_lines(&lines, &mut interner, s.ids)?.0
                    }
                };
                let reads = graft.fresh(units, &interner, &table)?;
                fresh.push((k, first..graft.units.len(), reads));
            }
        }
        if store.is_some() && trace.on() {
            let units: Vec<&str> = (graft.units[first..].iter())
                .map(|u| interner.name(u.name))
                .collect();
            let mut args = vec![
                ("units", units.join(",").into()),
                ("line", i64::from(s.before + 1).into()),
            ];
            let event = match moved {
                Some(moved) => {
                    args.push(("moved", moved.into()));
                    "front end miss"
                }
                None => "front end hit",
            };
            trace.instant(PID_COMPILE, 0, "incremental", event, trace.now_us(), args);
        }
    }

    // The fresh units' summaries.
    for (_, units, _) in &fresh {
        for unit in &graft.units[units.clone()] {
            let local = Local::of(unit, &graft.info.units[&unit.name]);
            graft.locals.insert(unit.name, local);
        }
    }
    let misses = fresh.len();
    if let Some(store) = store {
        for (k, units, reads) in fresh {
            let s = &slices[k];
            let art = Arc::new(graft.artifact(units, s, &interner, reads));
            store.put_slice(s.key, hash_of(&art.reads), art);
        }
    }
    let Graft {
        units,
        mut info,
        locals,
    } = graft;
    if let Some(n_proc) = interner.get("n$proc") {
        // The last unit that declares it sets it, as in `sema::analyze`.
        info.n_proc =
            (units.iter().rev()).find_map(|u| info.units[&u.name].params.get(&n_proc).copied());
    }
    Ok(Phase1 {
        prog: SourceProgram { units, interner },
        info,
        locals,
        hits: slices.len() - misses,
        misses,
    })
}

/// The program's units as phase 1 grafts them, slice by slice.
#[derive(Default)]
struct Graft {
    units: Vec<ProcUnit>,
    info: ProgramInfo,
    locals: Locals,
}

impl Graft {
    /// Grafts a stored artifact: its units and their infos renamed and
    /// moved into the program, its summaries left to rename when asked for.
    fn stored(&mut self, art: Arc<SliceArtifact>, s: &Slice, interner: &Interner) {
        let map: Rc<[Sym]> = s.syms.as_slice().into();
        let sym = |x: Sym| map[x.0 as usize];
        for (k, u) in art.units.iter().enumerate() {
            let unit = u.unit.relocated(&sym, s.ids, s.before);
            debug_assert_eq!(interner.name(unit.name), art.names[u.unit.name.0 as usize]);
            self.info
                .units
                .insert(unit.name, u.info.relocated(&sym, s.ids));
            self.info.unit_kinds.insert(unit.name, unit.kind);
            let local = Local::Stored {
                art: Arc::clone(&art),
                unit: k,
                map: Rc::clone(&map),
            };
            self.locals.insert(unit.name, local);
            self.units.push(unit);
        }
    }

    /// Checks units parsed into the program against `table` and grafts
    /// them; returns the table entries sema read.
    fn fresh(
        &mut self,
        units: Vec<ProcUnit>,
        interner: &Interner,
        table: &Table,
    ) -> Result<Vec<(Sym, Entry)>, FrontendError> {
        let mut reads: Vec<(Sym, Entry)> = Vec::new();
        for mut unit in units {
            let ui = sema::analyze_unit(&mut unit, interner, &mut |s| {
                let entry = table.get(&s).copied();
                if !reads.iter().any(|&(r, _)| r == s) {
                    reads.push((s, entry));
                }
                entry
            })?;
            self.info.unit_kinds.insert(unit.name, unit.kind);
            self.info.units.insert(unit.name, ui);
            self.units.push(unit);
        }
        Ok(reads)
    }

    /// The stored form of slice `s`, whose units are `self.units[units]`:
    /// renamed and moved back into the slice's own numbering.
    fn artifact(
        &self,
        units: Range<usize>,
        s: &Slice,
        interner: &Interner,
        reads: Vec<(Sym, Entry)>,
    ) -> SliceArtifact {
        let back: FxHashMap<Sym, Sym> = (s.syms.iter().enumerate())
            .map(|(i, &g)| (g, Sym(i as u32)))
            .collect();
        let sym = |g: Sym| back[&g];
        let (ids, lines) = (s.ids.wrapping_neg(), s.before.wrapping_neg());
        let units: Vec<SliceUnit> = (self.units[units].iter())
            .map(|unit| {
                let Local::Own {
                    effects, offsets, ..
                } = &self.locals[&unit.name]
                else {
                    unreachable!("a fresh unit's summaries are its own")
                };
                SliceUnit {
                    unit: unit.relocated(&sym, ids, lines),
                    info: self.info.units[&unit.name].relocated(&sym, ids),
                    effects: effects.relocated(&mut |g| sym(g)),
                    offsets: (offsets.iter())
                        .map(|(&a, w)| (sym(a), w.clone()))
                        .collect(),
                }
            })
            .collect();
        SliceArtifact {
            text: s.text.into(),
            names: s
                .syms
                .iter()
                .map(|&g| interner.name(g).to_string())
                .collect(),
            stmts: units.iter().map(|u| u.unit.walk().count() as u32).sum(),
            units,
            reads: (reads.into_iter())
                .map(|(s, entry)| (interner.name(s).to_string(), entry))
                .collect(),
        }
    }
}

//! The code-generation sweep (paper §5 phase 3, with §8 operationalized).
//!
//! Every compile — clean, store-backed, from the daemon — generates code
//! through [`sweep`]: one pass over the units in reverse topological
//! order, callees before callers. Every unit, however it was obtained, is
//! a position-independent [`CachedUnit`] (its symbols, distributions and
//! callees index tables of its own) and enters the program through one
//! [`graft`]. Per unit there is one decision, reuse or generate: with an
//! [`ArtifactStore`] attached, a unit whose content key — driver options,
//! unit source hash, consumed-facts digests — is present is *reused*: the
//! stored unit is grafted, skipping code generation entirely. The store
//! is shared: a unit compiled by one session is a hit for every other
//! session whose key matches. Everything else is generated, for the §8
//! reason [`crate::recompile::reason`] gives against the previous
//! compile's [`ModuleDb`], and stored as the same value that is grafted.
//!
//! Because callees are decided before callers, a changed residual in a
//! leaf transparently flips its callers to "facts changed" in the same
//! sweep. Reused output is identical to what recompiling would produce:
//! codegen is a deterministic function of (unit source, consumed facts),
//! and both are covered by the content key; and whichever way a unit was
//! obtained, units are grafted in the one order, interning names and
//! adding distributions in the order codegen first used them, so the
//! program is byte-identical with or without a store.

use crate::codegen::{self, CodegenError, CompiledUnit, Ctx};
use crate::driver::unit_hashes;
use crate::model::DynDecompSummary;
use crate::recompile::{self, ModuleDb, Reason, UnitRecord};
use crate::store::{ArtifactKey, ArtifactStore, CachedUnit};
use fortrand_frontend::ast::UnitKind;
use fortrand_ir::Sym;
use fortrand_spmd::ir::{DistId, SpmdProgram};
use fortrand_spmd::rewrite::{remap_proc, ProcRemap};
use fortrand_trace::{Trace, PID_COMPILE};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What the sweep produced.
pub(crate) struct Sweep {
    /// The node program, before communication optimization.
    pub spmd: SpmdProgram,
    /// Per-unit codegen records.
    pub compiled: BTreeMap<Sym, CompiledUnit>,
    /// Per-unit source hash and per-class fact digests, by unit name.
    pub records: BTreeMap<String, UnitRecord>,
    /// Per-unit monolithic fact hash, by unit name.
    pub fact_hashes: BTreeMap<String, u64>,
    /// Units generated by this sweep, with the §8 reason.
    pub recompiled: BTreeMap<String, Reason>,
    /// Units taken from the store.
    pub reused: Vec<String>,
}

/// Generates code for every unit (see the module docs). `store` is
/// consulted under `opts_hash` and receives what was generated; `prev`
/// only names reasons.
pub(crate) fn sweep(
    ctx: &Ctx,
    store: Option<&ArtifactStore>,
    opts_hash: u64,
    prev: &ModuleDb,
    trace: &Trace,
) -> Result<Sweep, CodegenError> {
    let interner = &ctx.prog.interner;
    let mut spmd = SpmdProgram {
        interner: interner.clone(),
        nprocs: ctx.nprocs,
        procs: Vec::new(),
        main: usize::MAX,
        dists: Vec::new(),
    };
    let mut compiled: BTreeMap<Sym, CompiledUnit> = BTreeMap::new();
    let mut dyn_summaries: BTreeMap<Sym, DynDecompSummary> = BTreeMap::new();
    let mut proc_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut records: BTreeMap<String, UnitRecord> = BTreeMap::new();
    let mut fact_hashes: BTreeMap<String, u64> = BTreeMap::new();
    let mut recompiled: BTreeMap<String, Reason> = BTreeMap::new();
    let mut reused: Vec<String> = Vec::new();
    let mut generated: BTreeMap<Sym, (ArtifactKey, Arc<CachedUnit>)> = BTreeMap::new();

    // Callees come first, so every record a unit's digests and code read
    // is already in `compiled`. `?` surfaces the first error in this order.
    for name in ctx.acg.reverse_topo() {
        let unit = ctx
            .prog
            .unit(name)
            .ok_or_else(|| CodegenError::at(0, "unit missing from program"))?;
        let is_main = unit.kind == UnitKind::Program;
        let name_str = interner.name(name).to_string();
        let (record, fact_hash) = unit_hashes(ctx, unit, &compiled);
        let key = store.map(|_| {
            ArtifactKey::new(opts_hash, record.source_hash, {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                record.digests.hash(&mut h);
                h.finish()
            })
        });
        let cached = store.zip(key).and_then(|(store, key)| store.get(&key));
        // Only asked on a miss, where an unchanged record can only
        // mean an evicted (or never stored) artifact: the store can't
        // tell that from another session's edit.
        let why = cached.is_none().then(|| {
            recompile::reason(prev.previous(opts_hash, &name_str), &record)
                .unwrap_or(Reason::FactsChanged)
        });
        if store.is_some() && trace.on() {
            let mut args = vec![("unit", name_str.as_str().into())];
            if let Some(why) = why {
                args.push(("reason", format!("{why:?}").into()));
            }
            let event = if why.is_some() {
                "cache miss"
            } else {
                "cache hit"
            };
            trace.instant(PID_COMPILE, 0, "incremental", event, trace.now_us(), args);
        }
        match why {
            Some(why) => {
                recompiled.insert(name_str.clone(), why);
            }
            None => reused.push(name_str.clone()),
        }
        records.insert(name_str.clone(), record);
        fact_hashes.insert(name_str.clone(), fact_hash);

        let unit = match cached {
            Some(unit) => unit,
            None => {
                let t0 = trace.now_us();
                let unit = Arc::new(codegen::compile_one(ctx, name, &compiled, &dyn_summaries)?);
                if trace.on() {
                    let dur = trace.now_us() - t0;
                    trace.complete(PID_COMPILE, 0, "codegen", &name_str, t0, dur, Vec::new());
                }
                if let Some(key) = key {
                    generated.insert(name, (key, Arc::clone(&unit)));
                }
                unit
            }
        };
        let cu = graft(unit, &mut spmd, &proc_index);
        proc_index.insert(name_str, cu.proc);
        if is_main {
            spmd.main = cu.proc;
        }
        dyn_summaries.insert(name, cu.dyn_summary.clone());
        compiled.insert(name, cu);
    }
    if spmd.main == usize::MAX {
        return Err(CodegenError::at(0, "no PROGRAM unit"));
    }

    // Hits are already stored (and their recency was bumped by the
    // lookup); only freshly generated units are new.
    if let Some(store) = store {
        for (key, unit) in generated.into_values() {
            store.put(key, unit);
        }
    }

    Ok(Sweep {
        spmd,
        compiled,
        records,
        fact_hashes,
        recompiled,
        reused,
    })
}

/// Grafts a unit into the program, interning its names and adding its
/// distributions in unit order, and returns the [`CompiledUnit`] record
/// callers consume. The unit's code is moved when no one else holds the
/// unit (a generated unit that is not stored) and copied otherwise.
fn graft(
    unit: Arc<CachedUnit>,
    spmd: &mut SpmdProgram,
    proc_index: &BTreeMap<String, usize>,
) -> CompiledUnit {
    let sym_map: Vec<Sym> = unit.names.iter().map(|n| spmd.interner.intern(n)).collect();
    let dist_map: Vec<DistId> = unit
        .dists
        .iter()
        .map(|d| spmd.add_dist(d.clone()))
        .collect();
    let proc_map: Vec<usize> = unit
        .callees
        .iter()
        .map(|n| {
            *proc_index
                .get(n)
                .expect("callee precedes caller in reverse topo order")
        })
        .collect();

    let residual_digest = unit.residual_digest;
    let (mut proc, mut residual, mut dyn_summary) = match Arc::try_unwrap(unit) {
        Ok(unit) => (unit.proc, unit.residual, unit.dyn_summary),
        Err(shared) => (
            shared.proc.clone(),
            shared.residual.clone(),
            shared.dyn_summary.clone(),
        ),
    };
    let sym_f = |s: Sym| sym_map[s.0 as usize];
    residual.remap_syms(&mut |s| sym_f(s));
    dyn_summary.remap_syms(&mut |s| sym_f(s));
    remap_proc(
        &mut proc,
        &ProcRemap {
            sym: &sym_f,
            dist: &|d: DistId| dist_map[d.0 as usize],
            proc: &|p: usize| proc_map[p],
        },
    );
    let idx = spmd.procs.len();
    spmd.procs.push(proc);

    CompiledUnit {
        proc: idx,
        residual,
        dyn_summary,
        residual_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, CompileOutput, Session};
    use fortrand_analysis::fixtures::{FIG1, FIG4};
    use fortrand_spmd::print::pretty_all;

    /// One compile of an edit → compile chain over `store`.
    fn step(
        src: &str,
        opts: &CompileOptions,
        store: &Arc<ArtifactStore>,
        prev: Option<&CompileOutput>,
    ) -> CompileOutput {
        Session::new(src)
            .options(opts.clone())
            .store(Arc::clone(store))
            .previous(prev.map_or_else(ModuleDb::default, |p| ModuleDb::from_report(&p.report)))
            .compile()
            .unwrap()
            .into_output()
    }

    #[test]
    fn clean_compile_recompiles_everything_then_noop_reuses_everything() {
        let store = ArtifactStore::shared();
        let opts = CompileOptions::default();
        let first = step(FIG4, &opts, &store, None);
        assert!(first.reused.is_empty());
        assert!(first.recompiled.values().all(|r| *r == Reason::New));

        let second = step(FIG4, &opts, &store, Some(&first));
        assert!(second.recompiled.is_empty(), "{:?}", second.recompiled);
        assert_eq!(second.reused.len(), first.recompiled.len());
        assert_eq!(pretty_all(&second.spmd), pretty_all(&first.spmd));
    }

    #[test]
    fn reused_output_matches_clean_compile_after_edit() {
        let edited = FIG4.replace("0.5 * Z(k+5,i)", "0.25 * Z(k+5,i)");
        let opts = CompileOptions::default();

        let store = ArtifactStore::shared();
        let base = step(FIG4, &opts, &store, None);
        let inc = step(&edited, &opts, &store, Some(&base));
        let clean = Session::new(edited).compile().unwrap().into_output();

        assert!(!inc.reused.is_empty(), "some units must come from cache");
        assert!(
            inc.recompiled.keys().all(|k| k.starts_with("f2")),
            "only the edited unit's clones recompile: {:?}",
            inc.recompiled
        );
        assert_eq!(pretty_all(&inc.spmd), pretty_all(&clean.spmd));
        assert_eq!(inc.report.fact_hashes, clean.report.fact_hashes);
        assert_eq!(inc.report.source_hashes, clean.report.source_hashes);
    }

    #[test]
    fn option_change_invalidates_cache() {
        let store = ArtifactStore::shared();
        let base = step(FIG1, &CompileOptions::default(), &store, None);
        let opts = CompileOptions::builder().nprocs(2).build();
        let out = step(FIG1, &opts, &store, Some(&base));
        assert!(out.reused.is_empty(), "nprocs change must drop the cache");
        assert!(out.recompiled.values().all(|r| *r == Reason::New));
    }
}

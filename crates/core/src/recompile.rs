//! Recompilation analysis (paper §8, reconstructed).
//!
//! ParaScope preserves separate compilation by recording, per procedure,
//! the summary information it produced and the interprocedural facts its
//! compiled code consumed. After an edit, a module must be recompiled only
//! if (a) its own source changed, or (b) some fact it consumed — reaching
//! decompositions, callee residuals (iteration sets, nonlocal index sets,
//! remap summaries), interprocedural constants, overlap widths — changed.
//!
//! The code-generation sweep (`incremental::sweep`) builds each unit's
//! record from the source digest and the log of facts its code read
//! (`crate::reads`) during every compile; this module holds the records
//! as a *module database* ([`crate::CompileReport::db`]), the per-unit
//! test ([`reason`]) the sweep applies to every unit it cannot take from
//! the artifact store, and diffs whole databases with the same test to
//! produce a recompilation plan.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// Persisted per-program compilation records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModuleDb {
    /// Fingerprint of the code-shaping driver options the records were
    /// made under (strategy, processor count, dynamic-decomposition and
    /// communication levels). Records made under other options say
    /// nothing about a unit: see [`ModuleDb::previous`].
    pub opts_hash: u64,
    /// Per-unit records, keyed by unit name.
    pub units: BTreeMap<String, UnitRecord>,
}

/// One unit's record.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitRecord {
    /// Hash of the unit's own source (structural fingerprint).
    pub source_hash: u64,
    /// Per-fact-class digests of the interprocedural facts the unit's
    /// code read, keyed by fact-class name (`reaching`, `constants`,
    /// `overlaps`, `effects`, `residuals`, `interfaces`; a class the unit
    /// never read is absent), plus `comm` for the optimizer's decisions.
    /// A fact the unit never read moves no digest.
    pub digests: BTreeMap<String, u64>,
}

impl ModuleDb {
    /// The record a compile under `opts_hash` tests `unit` against: the
    /// one stored here, unless this database was made under other options
    /// (then every unit counts as new).
    pub fn previous(&self, opts_hash: u64, unit: &str) -> Option<&UnitRecord> {
        self.units.get(unit).filter(|_| self.opts_hash == opts_hash)
    }

    /// Serializes to JSON (the on-disk module database). Hashes are stored
    /// as hex strings because JSON numbers cannot represent all of `u64`.
    pub fn to_json(&self) -> String {
        let units = self
            .units
            .iter()
            .map(|(name, rec)| {
                let digests = rec
                    .digests
                    .iter()
                    .map(|(class, &d)| (class.clone(), Json::hex_u64(d)))
                    .collect();
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("source_hash".into(), Json::hex_u64(rec.source_hash)),
                        ("digests".into(), Json::Obj(digests)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("opts_hash".into(), Json::hex_u64(self.opts_hash)),
            ("units".into(), Json::Obj(units)),
        ])
        .pretty()
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let root = json::parse(s)?;
        let hex = |v: Option<&Json>, bad: &dyn Fn() -> String| {
            v.and_then(Json::as_hex_u64).ok_or_else(bad)
        };
        let units = (root.get("units").and_then(Json::as_obj))
            .ok_or("module db: missing \"units\" object")?;
        let opts_hash = hex(root.get("opts_hash"), &|| "module db: bad opts_hash".into())?;
        let mut db = ModuleDb {
            opts_hash,
            ..Default::default()
        };
        for (name, rec) in units {
            let bad = |what: &str| format!("module db: unit {name}: bad {what}");
            let source_hash = hex(rec.get("source_hash"), &|| bad("source_hash"))?;
            let obj = rec.get("digests").and_then(Json::as_obj);
            let mut digests = BTreeMap::new();
            for (class, v) in obj.ok_or_else(|| bad("digests"))? {
                let d = hex(Some(v), &|| bad(&format!("digest for {class}")))?;
                digests.insert(class.clone(), d);
            }
            let record = UnitRecord {
                source_hash,
                digests,
            };
            db.units.insert(name.clone(), record);
        }
        Ok(db)
    }
}

/// Why a unit must be recompiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The unit's own source changed.
    SourceChanged,
    /// Interprocedural facts it consumed changed.
    FactsChanged,
    /// The unit is new.
    New,
}

/// Result of recompilation analysis.
#[derive(Clone, Debug, Default)]
pub struct RecompilePlan {
    /// Units to recompile, with reasons.
    pub recompile: BTreeMap<String, Reason>,
    /// Units whose compiled code is still valid.
    pub skip: Vec<String>,
}

/// The §8 test for one unit: why `now` must be recompiled given the
/// record `prev` of the previous compile, or `None` when the compiled
/// code is still valid.
pub fn reason(prev: Option<&UnitRecord>, now: &UnitRecord) -> Option<Reason> {
    match prev {
        None => Some(Reason::New),
        Some(prev) if prev.source_hash != now.source_hash => Some(Reason::SourceChanged),
        Some(prev) if prev.digests != now.digests => Some(Reason::FactsChanged),
        Some(_) => None,
    }
}

/// Diffs two databases (old compile vs new program state).
pub fn plan(old: &ModuleDb, new: &ModuleDb) -> RecompilePlan {
    let mut out = RecompilePlan::default();
    for (name, rec) in &new.units {
        match reason(old.previous(new.opts_hash, name), rec) {
            Some(why) => {
                out.recompile.insert(name.clone(), why);
            }
            None => out.skip.push(name.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use fortrand_analysis::fixtures::FIG4;

    fn db_of(src: &str) -> ModuleDb {
        Session::new(src).compile().unwrap().report().db.clone()
    }

    #[test]
    fn unchanged_program_recompiles_nothing() {
        let a = db_of(FIG4);
        let b = db_of(FIG4);
        let p = plan(&a, &b);
        assert!(p.recompile.is_empty(), "{p:?}");
        assert_eq!(p.skip.len(), b.units.len());
    }

    #[test]
    fn body_edit_recompiles_only_that_unit() {
        // Change F2's arithmetic (same decompositions, same interface).
        let edited = FIG4.replace("0.5 * Z(k+5,i)", "0.25 * Z(k+5,i)");
        let a = db_of(FIG4);
        let b = db_of(&edited);
        let p = plan(&a, &b);
        // The edited unit's clones are recompiled for source change.
        assert!(p.recompile.keys().all(|k| k.starts_with("f2")), "{p:?}");
        assert!(!p.recompile.is_empty());
        // F1 clones and P1 keep their compiled code... unless the edit
        // changed F2's residual (here the stencil is unchanged in shape,
        // but the RHS coefficient is local — facts stay equal).
        assert!(p.skip.iter().any(|k| k.starts_with("f1")), "{p:?}");
        assert!(p.skip.iter().any(|k| k == "p1"), "{p:?}");
    }

    #[test]
    fn decomposition_edit_ripples_to_callees() {
        // Change the distribution in the main program: every procedure
        // that inherited it must be recompiled (facts changed).
        let edited = FIG4.replace("DISTRIBUTE X(BLOCK,:)", "DISTRIBUTE X(:,BLOCK)");
        let a = db_of(FIG4);
        let b = db_of(&edited);
        let p = plan(&a, &b);
        assert!(p.recompile.contains_key("p1"), "{p:?}");
        assert!(
            p.recompile.keys().any(|k| k.starts_with("f1")),
            "callee must see changed reaching decomposition: {p:?}"
        );
    }

    #[test]
    fn stencil_width_edit_changes_caller_facts() {
        // Widening the stencil changes F2's residual (overlaps + nonlocal
        // sets), which P1's compiled code consumed.
        let edited = FIG4
            .replace("Z(k+5,i)", "Z(k+7,i)")
            .replace("do k = 1,95", "do k = 1,93");
        let a = db_of(FIG4);
        let b = db_of(&edited);
        let p = plan(&a, &b);
        assert!(
            p.recompile.contains_key("p1"),
            "caller consumed changed residual: {p:?}"
        );
    }

    #[test]
    fn db_roundtrips_through_json() {
        let a = db_of(FIG4);
        let json = a.to_json();
        let b = ModuleDb::from_json(&json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn db_rejects_a_digest_written_as_a_float() {
        let text = r#"{"opts_hash":"0x1","units":{"p1":{"source_hash":"0x2","digests":{"reaching":1.5}}}}"#;
        let err = ModuleDb::from_json(text).unwrap_err();
        assert!(err.contains("bad digest for reaching"), "{err}");
    }
}

//! Incremental-compilation correctness over the paper's §8 edit
//! scenarios: a store-backed compile must (a) regenerate exactly the units
//! the §8 recompilation test selects, for the reasons it gives, and (b)
//! produce output byte-identical to a clean compile — reused artifacts
//! included.

mod common;

use common::{compile, Chain};
use fortrand::recompile::{self, ModuleDb, Reason};
use fortrand::CompileOptions;
use fortrand_analysis::fixtures::FIG4;
use fortrand_spmd::print::pretty_all;

/// The `tables sec8` edit scenarios.
fn scenarios() -> Vec<(&'static str, String)> {
    vec![
        ("no edit", FIG4.to_string()),
        ("local body edit in F2", FIG4.replace("0.5 *", "0.25 *")),
        (
            "stencil width edit in F2",
            FIG4.replace("Z(k+5,i)", "Z(k+7,i)")
                .replace("do k = 1,95", "do k = 1,93"),
        ),
        (
            "distribution edit in P1",
            FIG4.replace("(BLOCK,:)", "(:,BLOCK)"),
        ),
    ]
}

/// The sweep and `recompile::plan` apply one §8 test: with a private store
/// and no intervening hit, what the second compile of a chain regenerates
/// — units and reasons — is exactly the plan diffed from the two clean
/// compiles' databases.
#[test]
fn sweep_recompiles_exactly_the_sec8_plan() {
    let opts = CompileOptions::default();
    let fig4 = scenarios()
        .into_iter()
        .map(|(label, src)| (label, FIG4, src));
    let consts = (
        "constants-only edit",
        CONSTS_CORPUS,
        CONSTS_CORPUS.replace("(c = 8)", "(c = 9)"),
    );
    for (label, base, src) in fig4.chain([consts]) {
        let before = ModuleDb::from_report(&compile(base, &opts).unwrap().report);
        let after = ModuleDb::from_report(&compile(&src, &opts).unwrap().report);
        let plan = recompile::plan(&before, &after);

        let mut chain = Chain::default();
        chain.compile(base, &opts);
        let inc = chain.compile(&src, &opts);
        assert_eq!(inc.recompiled, plan.recompile, "scenario {label:?}");
        assert_eq!(
            inc.recompiled.len() + inc.reused.len(),
            after.units.len(),
            "scenario {label:?}"
        );
    }
}

#[test]
fn from_cache_output_is_byte_identical_to_clean_compile() {
    for (label, src) in scenarios() {
        let clean = compile(&src, &CompileOptions::default()).unwrap();

        let mut eng = Chain::default();
        eng.compile(FIG4, &CompileOptions::default());
        let inc = eng.compile(&src, &CompileOptions::default());

        assert_eq!(
            pretty_all(&inc.spmd),
            pretty_all(&clean.spmd),
            "scenario {label:?}: cached output must match a clean compile"
        );
        assert_eq!(inc.spmd.main, clean.spmd.main, "scenario {label:?}");
        assert_eq!(
            inc.report.fact_hashes, clean.report.fact_hashes,
            "scenario {label:?}: hash state must converge (next round would misdecide)"
        );
    }
}

#[test]
fn local_edit_recompiles_strictly_fewer_units_than_a_clean_build() {
    // The body edit keeps F2's residual shape, so the ripple stops at the
    // edited clones; the stencil-width and distribution edits legitimately
    // invalidate every unit (their facts reach all callers), so strict
    // savings are only demanded where the §8 analysis can deliver them.
    let (label, src) = ("local body edit in F2", FIG4.replace("0.5 *", "0.25 *"));
    let mut eng = Chain::default();
    let first = eng.compile(FIG4, &CompileOptions::default());
    let total = first.recompiled.len();
    let inc = eng.compile(&src, &CompileOptions::default());
    assert!(
        !inc.recompiled.is_empty() && inc.recompiled.len() < total,
        "scenario {label:?}: {}/{total} recompiled",
        inc.recompiled.len()
    );
    assert!(inc.recompiled.len() + inc.reused.len() == total);
}

/// Two-callee program for the per-fact-class digest scenarios: `a`
/// ignores its `m` formal entirely, `b` uses it as a loop bound, and the
/// constant flows into both from `main`'s PARAMETER.
const CONSTS_CORPUS: &str = "
      PROGRAM MAIN
      REAL X(100)
      PARAMETER (n$proc = 4)
      PARAMETER (c = 8)
      DISTRIBUTE X(BLOCK)
      call A(X, c)
      call B(X, c)
      END
      SUBROUTINE A(X, m)
      REAL X(100)
      do i = 1, 100
        X(i) = 1.0
      enddo
      END
      SUBROUTINE B(X, m)
      REAL X(100)
      do i = 1, m
        X(i) = 2.0
      enddo
      END
";

#[test]
fn constants_only_edit_recompiles_fewer_units_than_decomposition_edit() {
    let const_edit = CONSTS_CORPUS.replace("(c = 8)", "(c = 9)");
    let decomp_edit = CONSTS_CORPUS.replace("DISTRIBUTE X(BLOCK)", "DISTRIBUTE X(CYCLIC)");
    let opts = CompileOptions::default();

    let recompiled = |edit: &str| {
        let mut eng = Chain::default();
        eng.compile(CONSTS_CORPUS, &opts);
        let inc = eng.compile(edit, &opts);
        assert_eq!(
            pretty_all(&inc.spmd),
            pretty_all(&compile(edit, &opts).unwrap().spmd),
            "incremental output must stay byte-identical"
        );
        inc.recompiled
    };

    // The constants-only edit recompiles `main` (its own source changed —
    // PARAMETER lives in the declarations, covered by the fingerprint) and
    // `b` (the constant reaches its loop bound), but *reuses* `a`, whose
    // code never reads the `m` formal the constant lands in.
    let const_rec = recompiled(&const_edit);
    assert!(const_rec.contains_key("main"), "{const_rec:?}");
    assert_eq!(
        const_rec.get("b"),
        Some(&Reason::FactsChanged),
        "{const_rec:?}"
    );
    assert!(!const_rec.contains_key("a"), "{const_rec:?}");

    // The decomposition edit changes the reaching class of every callee.
    let decomp_rec = recompiled(&decomp_edit);
    assert!(
        const_rec.len() < decomp_rec.len(),
        "{const_rec:?} vs {decomp_rec:?}"
    );

    // Monolithic baseline: with one all-classes hash per unit (plus the
    // source hashes), the same constants edit would have invalidated `a`
    // too — the constant sits in its concatenated fact string even though
    // nothing consumes it. The per-class engine recompiles strictly fewer.
    let clean0 = compile(CONSTS_CORPUS, &opts).unwrap();
    let clean1 = compile(&const_edit, &opts).unwrap();
    let monolithic = clean1
        .report
        .fact_hashes
        .iter()
        .filter(|(name, h)| {
            clean0.report.fact_hashes.get(*name) != Some(h)
                || clean0.report.source_hashes.get(*name) != clean1.report.source_hashes.get(*name)
        })
        .count();
    assert!(
        const_rec.len() < monolithic,
        "per-class {} vs monolithic {monolithic}",
        const_rec.len()
    );
}

#[test]
fn chained_edits_keep_converging() {
    // Edit, edit back, edit again: each round's decisions must be based on
    // the *latest* state. Because artifacts are content-addressed, both
    // the original and the edited versions of the f2 clones coexist in the
    // store under different keys, so a revert reuses *everything* the
    // original compile produced — no slot was overwritten.
    let edited = FIG4.replace("0.5 *", "0.25 *");
    let mut eng = Chain::default();
    let opts = CompileOptions::default();
    eng.compile(FIG4, &opts);
    let fwd = eng.compile(&edited, &opts);
    assert!(
        fwd.recompiled.keys().all(|k| k.starts_with("f2")),
        "{:?}",
        fwd.recompiled
    );
    assert!(fwd.recompiled.values().all(|r| *r == Reason::SourceChanged));
    let back = eng.compile(FIG4, &opts);
    assert!(
        back.recompiled.is_empty(),
        "content-addressed store keeps both versions: {:?}",
        back.recompiled
    );
    let clean = compile(FIG4, &opts).unwrap();
    assert_eq!(pretty_all(&back.spmd), pretty_all(&clean.spmd));
    assert_eq!(back.report.fact_hashes, clean.report.fact_hashes);
}

/// The communication-optimizer level is part of the compilation contract:
/// switching to `CommOpt::Overlap` must drop every cached artifact (the
/// emitted bodies change shape — post/wait pairs, pipelined loops), the
/// per-unit `comm` fact digest must distinguish the levels wherever the
/// overlap pass made decisions, and steady-state incremental compiles at
/// `Overlap` must behave exactly like `Full` ones: full reuse on no-edit,
/// byte-identical output on an edit.
#[test]
fn comm_opt_level_participates_in_caching() {
    use fortrand::corpus::dgefa_source;
    use fortrand::CommOpt;
    let src = dgefa_source(8, 2);
    let full_opts = CompileOptions::builder().comm_opt(CommOpt::Full).build();
    let ov_opts = CompileOptions::builder().comm_opt(CommOpt::Overlap).build();

    // The comm digest class separates the levels on the procedure the
    // overlap pass rewrote (dgefa carries the pipelined broadcast).
    let full = compile(&src, &full_opts).unwrap();
    let ov = compile(&src, &ov_opts).unwrap();
    assert!(ov.report.comm.pipelined_loops >= 1, "{:?}", ov.report.comm);
    let (df, do_) = (
        full.report.facts.digest("comm", "dgefa"),
        ov.report.facts.digest("comm", "dgefa"),
    );
    assert!(df.is_some() && do_.is_some(), "comm digests must exist");
    assert_ne!(df, do_, "comm digest must fold in the overlap decisions");

    // Switching levels invalidates everything; staying put reuses all.
    let mut eng = Chain::default();
    eng.compile(&src, &full_opts);
    let switched = eng.compile(&src, &ov_opts);
    assert!(
        switched.reused.is_empty(),
        "level switch must clear the cache, reused {:?}",
        switched.reused
    );
    assert!(switched
        .recompiled
        .values()
        .all(|r| matches!(r, Reason::New)));
    let steady = eng.compile(&src, &ov_opts);
    assert!(steady.recompiled.is_empty(), "{:?}", steady.recompiled);

    // An edit under Overlap converges to the clean compile byte for byte.
    let edited = src.replace("a(i,j) - t * a(i,k)", "a(i,j) - a(i,k) * t");
    assert_ne!(src, edited, "the edit must change the source");
    let inc = eng.compile(&edited, &ov_opts);
    let clean = compile(&edited, &ov_opts).unwrap();
    assert!(!inc.recompiled.is_empty());
    assert_eq!(pretty_all(&inc.spmd), pretty_all(&clean.spmd));
    assert_eq!(inc.report.fact_hashes, clean.report.fact_hashes);
}

/// Satellite: per-class fact digests are *content* addresses, so they
/// must not move when the program text changes in ways that leave every
/// unit's structure alone — reordering whole units in the file, or
/// whitespace-only edits. (If they did move, the shared artifact store
/// would miss on programs it has already compiled.)
mod digest_stability {
    use super::*;
    use fortrand::corpus::wide_corpus;
    use proptest::prelude::*;

    /// Deterministic Fisher–Yates driven by a proptest-chosen seed (the
    /// vendored proptest has no shuffle strategy).
    fn permute<T>(items: &mut [T], mut seed: u64) {
        for i in (1..items.len()).rev() {
            // xorshift64* step; any full-period mixer works here.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            items.swap(i, (seed % (i as u64 + 1)) as usize);
        }
    }

    /// `wide_corpus` with its SUBROUTINE blocks permuted (PROGRAM first —
    /// the frontend requires the entry unit, not any particular order of
    /// the rest).
    fn reordered(src: &str, seed: u64) -> String {
        let mut parts: Vec<&str> = src.split("\n      SUBROUTINE ").collect();
        let program = parts.remove(0).to_string();
        permute(&mut parts, seed);
        parts.iter().fold(program, |mut acc, p| {
            acc.push_str("\n      SUBROUTINE ");
            acc.push_str(p);
            acc
        })
    }

    fn db_of(src: &str) -> ModuleDb {
        let out = compile(src, &CompileOptions::default()).unwrap();
        ModuleDb::from_report(&out.report)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]
        #[test]
        fn digests_survive_unit_reordering_and_whitespace_edits(
            procs in 2usize..7,
            n in 16i64..65,
            nprocs in 2usize..5,
            // Bounded: the vendored proptest draws u64 ranges through i64.
            seed in 1u64..0x7fff_ffff_ffff_0000,
        ) {
            let src = wide_corpus(procs, n, nprocs);
            let base = db_of(&src);

            let shuffled = reordered(&src, seed);
            prop_assert_eq!(
                &base, &db_of(&shuffled),
                "unit reordering must not move any source hash or digest"
            );

            // Trailing spaces on every line plus extra blank lines.
            let spaced = format!("\n\n{}\n\n", src.replace('\n', "  \n"));
            prop_assert_ne!(&src, &spaced);
            prop_assert_eq!(
                &base, &db_of(&spaced),
                "whitespace-only edits must not move any source hash or digest"
            );

            // Both at once, for good measure.
            let both = reordered(&spaced, seed ^ 0x9e37_79b9_7f4a_7c15);
            prop_assert_eq!(&base, &db_of(&both));
        }
    }

    /// The invariance is what makes cross-program artifact sharing work:
    /// a whitespace-edited copy of an already-compiled program must be a
    /// 100% store hit in a fresh session.
    #[test]
    fn whitespace_edit_is_a_full_store_hit_across_sessions() {
        use fortrand::ArtifactStore;

        let store = ArtifactStore::shared();
        let src = wide_corpus(4, 32, 4);
        let mut a = Chain::over(store.clone());
        a.compile(&src, &CompileOptions::default());

        let spaced = src.replace('\n', " \n");
        let mut b = Chain::over(store);
        let out = b.compile(&spaced, &CompileOptions::default());
        assert!(
            out.recompiled.is_empty(),
            "every unit should come from the shared store, recompiled {:?}",
            out.recompiled
        );
    }
}

/// Digest selectivity, pinned by name: for each edit scenario, which
/// units' source hashes move and which `(class, unit)` fact digests move
/// between a clean compile of the base and one of the edited source. A
/// digest change that recompiles more (or fewer) units than these tables
/// say shows up here as a named diff, not as a count.
mod digest_selectivity {
    use super::*;
    use fortrand::corpus::{dgefa_source, wide_corpus};
    use fortrand_analysis::fixtures::{FIG1, FIG15};
    use std::collections::BTreeSet;

    /// Two callees of one constant actual each: `a` never mentions its
    /// `m`, `b` bounds a loop with it.
    const ACTUALS: &str = "
      PROGRAM MAIN
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call A(X, 8)
      call B(X, 8)
      END
      SUBROUTINE A(X, m)
      REAL X(100)
      do i = 1, 100
        X(i) = 1.0
      enddo
      END
      SUBROUTINE B(X, m)
      REAL X(100)
      do i = 1, m
        X(i) = 2.0
      enddo
      END
";

    struct Moved {
        sources: BTreeSet<String>,
        digests: BTreeSet<(String, String)>,
    }

    fn moved(base: &str, edited: &str) -> Moved {
        let opts = CompileOptions::default();
        let (a, b) = (
            compile(base, &opts).unwrap().report,
            compile(edited, &opts).unwrap().report,
        );
        let names: BTreeSet<&String> = a
            .source_hashes
            .keys()
            .chain(b.source_hashes.keys())
            .collect();
        let sources = names
            .into_iter()
            .filter(|n| a.source_hashes.get(*n) != b.source_hashes.get(*n))
            .cloned()
            .collect();
        let keys: BTreeSet<(String, String)> = a
            .facts
            .iter()
            .chain(b.facts.iter())
            .map(|(class, unit, _)| (class.to_string(), unit.to_string()))
            .collect();
        let digests = keys
            .into_iter()
            .filter(|(class, unit)| a.facts.digest(class, unit) != b.facts.digest(class, unit))
            .collect();
        Moved { sources, digests }
    }

    /// Whitespace: trailing blanks on every line and blank lines around.
    fn spaced(src: &str) -> String {
        format!("\n\n{}\n\n", src.replace('\n', "  \n"))
    }

    /// Moves the first SUBROUTINE block to the end of the file.
    fn first_subroutine_last(src: &str) -> String {
        let mut parts: Vec<&str> = src.split("\n      SUBROUTINE ").collect();
        let first = parts.remove(1);
        parts.push(first);
        parts.join("\n      SUBROUTINE ")
    }

    /// Label, base source, edited source, the units whose source hash
    /// moves, and the `(class, unit)` digests that move.
    type Row = (
        &'static str,
        String,
        String,
        &'static [&'static str],
        &'static [(&'static str, &'static str)],
    );

    #[rustfmt::skip]
    fn table() -> Vec<Row> {
        let dgefa = dgefa_source(64, 4);
        let wide = wide_corpus(6, 64, 4);
        vec![
            ("FIG1 whitespace", FIG1.into(), spaced(FIG1), &[], &[]),
            ("FIG1 leaf coefficient", FIG1.into(), FIG1.replace("0.5 *", "0.25 *"), &["f1"], &[]),
            ("FIG1 array bound", FIG1.into(), FIG1.replace("X(100)", "X(120)"), &["f1", "p1"], &[("reaching", "f1")]),
            ("FIG1 local rename", FIG1.into(), FIG1.replace("do i = 1,95\n        X(i) = 0.5 * X(i+5)", "do ii = 1,95\n        X(ii) = 0.5 * X(ii+5)"), &["f1"], &[]),
            ("FIG4 unit reordering", FIG4.into(), first_subroutine_last(FIG4), &[], &[]),
            ("FIG4 leaf coefficient", FIG4.into(), FIG4.replace("0.5 *", "0.25 *"), &["f2$1", "f2$2"], &[]),
            ("FIG4 PARAMETER value", FIG4.into(), FIG4.replace("(n$proc = 4)", "(n$proc = 2)"), &["p1"], &[]),
            ("FIG4 DISTRIBUTE kind", FIG4.into(), FIG4.replace("(BLOCK,:)", "(:,BLOCK)"), &["p1"], &[("comm", "f1$1"), ("comm", "f1$2"), ("comm", "f2$1"), ("comm", "f2$2"), ("reaching", "f1$1"), ("reaching", "f1$2"), ("reaching", "f2$1"), ("reaching", "f2$2"), ("residuals", "f1$1"), ("residuals", "f1$2"), ("residuals", "p1")]),
            ("FIG15 PARAMETER value", FIG15.into(), FIG15.replace("(t = 4)", "(t = 5)"), &["p1"], &[]),
            ("FIG15 DISTRIBUTE kind", FIG15.into(), FIG15.replace("X(CYCLIC)", "X(BLOCK)"), &["f1"], &[("residuals", "p1")]),
            ("FIG15 unit reordering", FIG15.into(), first_subroutine_last(FIG15), &[], &[]),
            ("dgefa whitespace", dgefa.clone(), spaced(&dgefa), &[], &[]),
            ("dgefa leaf coefficient", dgefa.clone(), dgefa.replace("a(i,j) - t * a(i,k)", "a(i,j) - a(i,k) * t"), &["daxpy"], &[]),
            ("dgefa PARAMETER value", dgefa.clone(), dgefa.replace("(n = 64)", "(n = 48)"), &["main"], &[("constants", "daxpy"), ("constants", "dgefa"), ("constants", "dscal"), ("constants", "idamax")]),
            ("dgefa array bound", dgefa.clone(), dgefa.replace("ipvt(64)", "ipvt(65)"), &["dgefa", "main"], &[]),
            ("dgefa local rename", dgefa.clone(), dgefa.replace("REAL dmax", "REAL dmx").replace("dmax =", "dmx =").replace(".gt. dmax", ".gt. dmx"), &["idamax"], &[]),
            ("wide unit reordering", wide.clone(), first_subroutine_last(&wide), &[], &[]),
            ("wide leaf coefficient", wide.clone(), wide.replacen("0.5 * (u(i)", "0.25 * (u(i)", 1), &["sweep0"], &[]),
            ("wide array bound", wide.clone(), wide.replace("REAL u(64), v(64)", "REAL u(65), v(65)"), &["sweep0", "sweep1", "sweep2", "sweep3", "sweep4", "sweep5"], &[]),
            ("constant actual, unmentioned formal", ACTUALS.into(), ACTUALS.replace("call A(X, 8)", "call A(X, 9)"), &["main"], &[]),
            ("constant actual, mentioned formal", ACTUALS.into(), ACTUALS.replace("call B(X, 8)", "call B(X, 9)"), &["main"], &[("constants", "b")]),
        ]
    }

    #[test]
    fn edits_move_exactly_the_pinned_hashes() {
        let mut failures = Vec::new();
        for (label, base, edited, sources, digests) in table() {
            assert_ne!(base, edited, "{label}: the edit must change the source");
            let got = moved(&base, &edited);
            let want_sources: BTreeSet<String> = sources.iter().map(|s| s.to_string()).collect();
            let want_digests: BTreeSet<(String, String)> = digests
                .iter()
                .map(|(c, u)| (c.to_string(), u.to_string()))
                .collect();
            if got.sources != want_sources || got.digests != want_digests {
                failures.push(format!(
                    "{label}:\n  sources {:?}\n  digests {:?}",
                    got.sources, got.digests
                ));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

/// Moving a statement out of the loop that held it changes the unit's
/// code but neither its statements nor their order in a pre-order walk.
/// Its source hash must move anyway (nested bodies are part of the unit's
/// structure), or the store answers the edited program with the old
/// unit's code.
#[test]
fn moving_a_statement_out_of_its_loop_is_a_source_change() {
    let body = "        Z(k,i) = 0.5 * Z(k+5,i)\n      enddo\n";
    let inside = FIG4.replace(
        body,
        "        Z(k,i) = 0.5 * Z(k+5,i)\n        t = 1.0\n      enddo\n",
    );
    let after = FIG4.replace(
        body,
        "        Z(k,i) = 0.5 * Z(k+5,i)\n      enddo\n      t = 1.0\n",
    );
    assert!(inside != FIG4 && after != FIG4);
    let opts = CompileOptions::default();
    let mut chain = Chain::default();
    chain.compile(&inside, &opts);
    let inc = chain.compile(&after, &opts);
    let f2: Vec<&str> = inc.recompiled.keys().map(String::as_str).collect();
    assert_eq!(f2, ["f2$1", "f2$2"]);
    let clean = compile(&after, &opts).unwrap();
    assert_eq!(pretty_all(&inc.spmd), pretty_all(&clean.spmd));
}

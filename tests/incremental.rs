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

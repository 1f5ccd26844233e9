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
        let before = compile(base, &opts).unwrap().report.db;
        let after = compile(&src, &opts).unwrap().report.db;
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
            inc.report.db, clean.report.db,
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
    assert_eq!(back.report.db, clean.report.db);
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
    let comm = |db: &ModuleDb| {
        db.units
            .get("dgefa")
            .and_then(|r| r.digests.get("comm").copied())
    };
    let (df, do_) = (comm(&full.report.db), comm(&ov.report.db));
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
    assert_eq!(inc.report.db, clean.report.db);
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
        compile(src, &CompileOptions::default()).unwrap().report.db
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
            compile(base, &opts).unwrap().report.db,
            compile(edited, &opts).unwrap().report.db,
        );
        let names: BTreeSet<&String> = a.units.keys().chain(b.units.keys()).collect();
        let source = |db: &ModuleDb, n: &str| db.units.get(n).map(|r| r.source_hash);
        let digest = |db: &ModuleDb, class: &str, n: &str| {
            db.units.get(n).and_then(|r| r.digests.get(class).copied())
        };
        let sources = (names.iter())
            .filter(|n| source(&a, n) != source(&b, n))
            .map(|n| n.to_string())
            .collect();
        let mut keys: BTreeSet<(String, String)> = BTreeSet::new();
        for (n, r) in a.units.iter().chain(&b.units) {
            keys.extend(r.digests.keys().map(|c| (c.clone(), n.clone())));
        }
        let digests = keys
            .into_iter()
            .filter(|(class, unit)| digest(&a, class, unit) != digest(&b, class, unit))
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
            ("FIG1 array bound", FIG1.into(), FIG1.replace("X(100)", "X(120)"), &["f1", "p1"], &[("interfaces", "p1"), ("reaching", "f1"), ("reaching", "p1")]),
            ("FIG1 local rename", FIG1.into(), FIG1.replace("do i = 1,95\n        X(i) = 0.5 * X(i+5)", "do ii = 1,95\n        X(ii) = 0.5 * X(ii+5)"), &["f1"], &[]),
            ("FIG4 unit reordering", FIG4.into(), first_subroutine_last(FIG4), &[], &[]),
            ("FIG4 leaf coefficient", FIG4.into(), FIG4.replace("0.5 *", "0.25 *"), &["f2$1", "f2$2"], &[]),
            ("FIG4 PARAMETER value", FIG4.into(), FIG4.replace("(n$proc = 4)", "(n$proc = 2)"), &["p1"], &[]),
            ("FIG4 DISTRIBUTE kind", FIG4.into(), FIG4.replace("(BLOCK,:)", "(:,BLOCK)"), &["p1"], &[("comm", "f1$1"), ("comm", "f1$2"), ("comm", "f2$1"), ("comm", "f2$2"), ("reaching", "f1$1"), ("reaching", "f1$2"), ("reaching", "f2$1"), ("reaching", "f2$2"), ("reaching", "p1"), ("residuals", "f1$1"), ("residuals", "f1$2"), ("residuals", "p1")]),
            ("FIG15 PARAMETER value", FIG15.into(), FIG15.replace("(t = 4)", "(t = 5)"), &["p1"], &[]),
            ("FIG15 DISTRIBUTE kind", FIG15.into(), FIG15.replace("X(CYCLIC)", "X(BLOCK)"), &["f1"], &[("reaching", "f1"), ("residuals", "p1")]),
            ("FIG15 unit reordering", FIG15.into(), first_subroutine_last(FIG15), &[], &[]),
            ("dgefa whitespace", dgefa.clone(), spaced(&dgefa), &[], &[]),
            ("dgefa leaf coefficient", dgefa.clone(), dgefa.replace("a(i,j) - t * a(i,k)", "a(i,j) - a(i,k) * t"), &["daxpy"], &[]),
            ("dgefa PARAMETER value", dgefa.clone(), dgefa.replace("(n = 64)", "(n = 48)"), &["main"], &[("constants", "daxpy"), ("constants", "dgefa"), ("constants", "dscal"), ("constants", "idamax")]),
            ("dgefa array bound", dgefa.clone(), dgefa.replace("ipvt(64)", "ipvt(65)"), &["dgefa", "main"], &[("interfaces", "main")]),
            ("dgefa local rename", dgefa.clone(), dgefa.replace("REAL dmax", "REAL dmx").replace("dmax =", "dmx =").replace(".gt. dmax", ".gt. dmx"), &["idamax"], &[]),
            ("wide unit reordering", wide.clone(), first_subroutine_last(&wide), &[], &[]),
            ("wide leaf coefficient", wide.clone(), wide.replacen("0.5 * (u(i)", "0.25 * (u(i)", 1), &["sweep0"], &[]),
            ("wide array bound", wide.clone(), wide.replace("REAL u(64), v(64)", "REAL u(65), v(65)"), &["sweep0", "sweep1", "sweep2", "sweep3", "sweep4", "sweep5"], &[("interfaces", "main")]),
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

/// FIG4 with a second statement in F2's `k` loop, which writes `Z(k,i)`.
fn fig4_with_bump(bump: &str) -> String {
    FIG4.replace(
        "        Z(k,i) = 0.5 * Z(k+5,i)\n",
        &format!("        Z(k,i) = 0.5 * Z(k+5,i)\n        {bump}\n"),
    )
}

/// An edit that changes only what a leaf writes: F2's second statement
/// writes the pinned column `Z(k,1)` instead of `Z(k,i)`. F2's residual
/// keeps its shape, but its side effects move, and with them where P1
/// may place its exchange of `X` (no longer above the `i` loop, whose
/// calls now write the rows it sends). No DO variable is read after its
/// loop. A store-backed compile must print what a clean compile prints.
#[test]
fn a_callee_write_edit_reaches_the_caller() {
    let base = fig4_with_bump("Z(k,i) = Z(k,i) + 1.0");
    let edited = fig4_with_bump("Z(k,1) = Z(k,1) + 1.0");
    let opts = CompileOptions::default();
    let mut chain = Chain::default();
    chain.compile(&base, &opts);
    let inc = chain.compile(&edited, &opts);
    let clean = compile(&edited, &opts).unwrap();
    assert!(pretty_all(&clean.spmd).contains("  if (my$p .gt. 0) send X(1:5,i) to my$p-1\n"));
    assert!(inc.recompiled.contains_key("p1"), "{:?}", inc.recompiled);
    assert_eq!(pretty_all(&inc.spmd), pretty_all(&clean.spmd));
}

/// Why a unit was recompiled: a store-backed compile's `cache miss`
/// instant names the fact classes whose reads answer otherwise than in
/// the previous compile. After the callee-write edit, P1 and F1's clones
/// miss on the side effects of their callees alone, and F2's clones on
/// their own source, no class moving.
#[test]
fn a_cache_miss_names_the_classes_that_moved() {
    use fortrand::{ArtifactStore, MemorySink, Session};
    use fortrand_trace::Arg;
    let store = ArtifactStore::shared();
    let base = Session::new(fig4_with_bump("Z(k,i) = Z(k,i) + 1.0"))
        .store(store.clone())
        .compile()
        .unwrap();
    let (sink, events) = MemorySink::new();
    Session::new(fig4_with_bump("Z(k,1) = Z(k,1) + 1.0"))
        .store(store)
        .previous(base.report().db.clone())
        .trace(sink)
        .compile()
        .unwrap();
    let arg = |args: &[(&str, Arg)], key: &str| {
        (args.iter()).find_map(|(k, v)| match v {
            Arg::S(s) if *k == key => Some(s.clone()),
            _ => None,
        })
    };
    let misses: Vec<(String, String)> = (events.lock().unwrap().iter())
        .filter(|e| e.name == "cache miss")
        .map(|e| {
            (
                arg(&e.args, "unit").unwrap(),
                arg(&e.args, "moved").unwrap(),
            )
        })
        .collect();
    let moved = |unit: &str| {
        misses
            .iter()
            .find(|(u, _)| u == unit)
            .map(|(_, m)| m.as_str())
    };
    assert_eq!(moved("p1"), Some("effects"), "{misses:?}");
    assert_eq!(moved("f1$1"), Some("effects"), "{misses:?}");
    assert_eq!(moved("f2$1"), Some(""), "{misses:?}");
}

/// The front end's program and info as text, names and lines included:
/// through `store` when given, else `load_program`'s. An error is its
/// line and message.
fn front_end_of(src: &str, store: Option<&fortrand::ArtifactStore>) -> String {
    let loaded = match store {
        Some(store) => fortrand::driver::front_end(src, Some(store)),
        None => fortrand_frontend::load_program(src),
    };
    match loaded {
        Ok((prog, info)) => {
            let names: Vec<&str> = (0..prog.interner.len() as u32)
                .map(|i| prog.interner.name(fortrand_ir::Sym(i)))
                .collect();
            format!("{names:?}\n{:?}\n{info:?}", prog.units)
        }
        Err(e) => format!("line {}: {}", e.line, e.message),
    }
}

/// Phase 1 through a store equals a clean `load_program` after each edit
/// that moves lines, names or units: its units, interner order, statement
/// ids and lines, and its semantic info, with the slices before the edit
/// from the store. A syntax error gives the same message at the same line.
#[test]
fn store_backed_front_end_matches_a_clean_load() {
    use fortrand_analysis::fixtures::{FIG1, FIG15};
    let leaf = "      SUBROUTINE leafnew\n      t = 1.0\n      END\n";
    type Edit = (&'static str, fn(&str) -> String);
    let edits: [Edit; 6] = [
        ("blank line", |s| {
            s.replacen("      SUBROUTINE", "\n      SUBROUTINE", 1)
        }),
        ("comment line", |s| {
            s.replacen("      SUBROUTINE", "C a comment\n      SUBROUTINE", 1)
        }),
        ("new local name", |s| {
            s.replacen("      enddo\n", "      enddo\n      qnew = 1.0\n", 1)
        }),
        ("new leaf and its call", |s| {
            let s = s.replacen("      call", "      call leafnew\n      call", 1);
            s + "      SUBROUTINE leafnew\n      t = 1.0\n      END\n"
        }),
        ("syntax error", |s| {
            s.replacen("      enddo\n", "      enddo +\n", 1)
        }),
        ("lex error", |s| {
            s.replacen("      enddo\n", "      enddo ;\n", 1)
        }),
    ];
    assert!(edits[3].1(FIG4).ends_with(leaf));
    for base in [FIG1, FIG4, FIG15] {
        for (what, edit) in &edits {
            let edited = edit(base);
            assert_ne!(edited, base, "{what}");
            let store = fortrand::ArtifactStore::new();
            assert_eq!(front_end_of(base, Some(&store)), front_end_of(base, None));
            let want = front_end_of(&edited, None);
            assert_eq!(
                front_end_of(&edited, Some(&store)),
                want,
                "{what}:\n{edited}"
            );
            // Again, every slice from the store.
            assert_eq!(
                front_end_of(&edited, Some(&store)),
                want,
                "{what}, stored:\n{edited}"
            );
        }
    }
}

/// The edit fuzzer: chains of source edits over FIG1/4/15, a wide corpus
/// and generated call chains. After every edit a clean compile accepts,
/// the store-backed compile of the chain must print the clean compile's
/// node program and carry its unit records. An edit the clean compile
/// rejects is dropped, and the chain goes on from the source before it.
mod edit_fuzzer {
    use super::*;
    use common::{render_chain, Link};
    use fortrand::corpus::wide_corpus;
    use fortrand::Strategy;
    use fortrand_analysis::fixtures::{FIG1, FIG15};
    use proptest::prelude::*;

    /// The number of edit kinds [`edit`] knows: the interprocedural ones,
    /// `0..KINDS`, then the front end's, [`FRONT_END_KINDS`].
    const KINDS: usize = 9;

    /// The edit kinds that move lines, names or units, or break the
    /// syntax.
    const FRONT_END_KINDS: std::ops::Range<usize> = KINDS..13;

    /// The first word of a line, lower-cased.
    fn head(line: &str) -> String {
        let word = line.trim_start().split([' ', '(']).next().unwrap_or("");
        word.to_ascii_lowercase()
    }

    /// An assignment: `lhs = rhs` that no keyword starts.
    fn assignment(line: &str) -> bool {
        let keywords = ["do", "if", "call", "parameter", "real", "integer", "align"];
        line.contains(" = ") && !keywords.contains(&head(line).as_str())
    }

    /// An assignment or a call.
    fn statement(line: &str) -> bool {
        assignment(line) || head(line) == "call"
    }

    /// Per line: whether it lies inside a SUBROUTINE.
    fn in_subroutine(lines: &[String]) -> Vec<bool> {
        let mut sub = false;
        (lines.iter())
            .map(|l| {
                match head(l).as_str() {
                    "subroutine" => sub = true,
                    "program" => sub = false,
                    _ => {}
                }
                sub
            })
            .collect()
    }

    /// Byte spans of the real literals (`0.5`, `1.0`) in `line`.
    fn reals(line: &str) -> Vec<(usize, usize)> {
        let b = line.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < b.len() {
            let starts = b[i].is_ascii_digit() && (i == 0 || !b[i - 1].is_ascii_alphanumeric());
            if !starts {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                j += 1;
            }
            let lit = &line[i..j];
            if lit.contains('.') && !lit.ends_with('.') {
                out.push((i, j));
            }
            i = j;
        }
        out
    }

    /// Byte spans of the constant offsets in subscripts (`5` of `X(i+5)`).
    fn offsets(line: &str) -> Vec<(usize, usize)> {
        let b = line.as_bytes();
        let mut out = Vec::new();
        for i in 1..b.len() {
            if (b[i] == b'+' || b[i] == b'-') && b[i - 1].is_ascii_alphanumeric() {
                let mut j = i + 1;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                if j > i + 1 && j < b.len() && (b[j] == b')' || b[j] == b',') {
                    out.push((i + 1, j));
                }
            }
        }
        out
    }

    /// The comma-separated items between the first `(` at or after
    /// `from` and its `)`, with the byte span of the whole list.
    fn args(line: &str, from: usize) -> Option<((usize, usize), Vec<String>)> {
        let open = from + line[from..].find('(')?;
        let close = open + line[open..].find(')')?;
        let items = line[open + 1..close]
            .split(',')
            .map(|a| a.trim().to_string());
        Some(((open + 1, close), items.collect()))
    }

    /// Applies edit `kind` at the site `pick` chooses among the source's
    /// sites for it, or `None` when it has none:
    /// 0. a statement moves out of, or into, the loop or branch ending
    ///    next to it;
    /// 1. a coefficient changes;
    /// 2. a subscript offset changes;
    /// 3. a subscript of a written element becomes the constant 1, on
    ///    both sides of its statement;
    /// 4. a loop bound changes;
    /// 5. a `DISTRIBUTE` or `ALIGN` changes;
    /// 6. a call's actual changes;
    /// 7. a callee writes again what one of its assignments wrote, or
    ///    that with one subscript pinned to 1;
    /// 8. a callee loses a write;
    /// 9. a blank line, or a `C`, `*` or `!` comment, goes in before a
    ///    unit;
    /// 10. a callee assigns a new local name;
    /// 11. the main program calls a new leaf, which goes in at the end;
    /// 12. a statement gets a syntax error.
    fn edit(src: &str, kind: usize, pick: usize) -> Option<String> {
        let mut lines: Vec<String> = src.lines().map(String::from).collect();
        let sub = in_subroutine(&lines);
        // Each site is a line and a choice within it.
        let mut sites: Vec<(usize, usize)> = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let n = match kind {
                0 => {
                    let ends = |j: usize| matches!(head(&lines[j]).as_str(), "enddo" | "endif");
                    let swap_up = ends(i) && i > 0 && statement(&lines[i - 1]);
                    let swap_down = ends(i) && i + 1 < lines.len() && statement(&lines[i + 1]);
                    sites.extend(swap_up.then_some((i, 0)));
                    sites.extend(swap_down.then_some((i, 1)));
                    0
                }
                1 if statement(l) => reals(l).len(),
                2 if statement(l) => offsets(l).len(),
                3 if assignment(l) && l.split(" = ").next()?.contains('(') => {
                    args(l, 0).map_or(0, |(_, a)| a.len())
                }
                4 if head(l) == "do" => 2,
                5 if matches!(head(l).as_str(), "distribute" | "align") => 2,
                6 if head(l) == "call" => args(l, 0).map_or(0, |(_, a)| 2 * a.len()),
                7 if sub[i] && assignment(l) => args(l, 0).map_or(1, |(_, a)| a.len() + 1),
                8 if sub[i] && assignment(l) => 1,
                9 if matches!(head(l).as_str(), "program" | "subroutine") => 4,
                10 if sub[i] && assignment(l) => 1,
                11 if !sub[i] && statement(l) => 1,
                12 if statement(l) => 1,
                _ => 0,
            };
            sites.extend((0..n).map(|c| (i, c)));
        }
        if sites.is_empty() {
            return None;
        }
        let (i, c) = sites[pick % sites.len()];
        let line = lines[i].clone();
        let splice =
            |(a, b): (usize, usize), with: &str| format!("{}{with}{}", &line[..a], &line[b..]);
        let next = match kind {
            0 => {
                let j = if c == 0 { i - 1 } else { i + 1 };
                lines.swap(i, j);
                return Some(lines.join("\n") + "\n");
            }
            1 => {
                let span = reals(&line)[c];
                splice(span, &format!("{}5", &line[span.0..span.1]))
            }
            2 => {
                let span = offsets(&line)[c];
                let v: i64 = line[span.0..span.1].parse().ok()?;
                splice(span, &(v + 1).to_string())
            }
            3 => {
                let (span, mut subs) = args(&line, 0)?;
                if subs[c].parse::<i64>().is_ok() {
                    return None;
                }
                let old = line[..span.1 + 1].trim_start().to_string();
                subs[c] = "1".into();
                let new = format!("{}({})", &old[..old.find('(')?], subs.join(","));
                line.replace(&old, &new)
            }
            4 => {
                // The upper bound, or the lower one.
                let eq = line.find('=')?;
                let (span, parts) = args(&format!("({})", &line[eq + 1..]), 0)?;
                let _ = span;
                let mut parts = parts;
                let b = &mut parts[1 - c.min(1)];
                *b = match b.parse::<i64>() {
                    Ok(v) if v > 1 => (v - 1).to_string(),
                    _ => format!("{b}+1"),
                };
                format!("{}= {}", &line[..eq], parts.join(", "))
            }
            5 => {
                let (span, items) = args(&line, line.find(" with ").unwrap_or(0))?;
                let mut items = items;
                if c == 0 && items.len() > 1 {
                    items.reverse();
                } else if let Some(k) = items.iter().position(|k| k == "BLOCK" || k == "CYCLIC") {
                    items[k] = if items[k] == "BLOCK" {
                        "CYCLIC"
                    } else {
                        "BLOCK"
                    }
                    .into();
                } else {
                    return None;
                }
                splice(span, &items.join(","))
            }
            6 => {
                let (span, mut items) = args(&line, 0)?;
                let k = c / 2;
                if c % 2 == 0 && k + 1 < items.len() {
                    items.swap(k, k + 1);
                } else {
                    items[k] = match items[k].parse::<i64>() {
                        Ok(v) => (v + 1).to_string(),
                        Err(_) => "1".into(),
                    };
                }
                splice(span, &items.join(", "))
            }
            7 => {
                // `lhs = lhs + 1.0` after the write of `lhs`, with its
                // `c`-th subscript (counting from 1) pinned to 1.
                let eq = line.find(" = ")?;
                let mut lhs = line[..eq].trim().to_string();
                if c > 0 {
                    let (span, mut subs) = args(&lhs, 0)?;
                    subs[c - 1] = "1".into();
                    lhs = format!("{}{}{}", &lhs[..span.0], subs.join(","), &lhs[span.1..]);
                }
                let indent = &line[..line.len() - line.trim_start().len()];
                lines.insert(i + 1, format!("{indent}{lhs} = {lhs} + 1.0"));
                return Some(lines.join("\n") + "\n");
            }
            8 => {
                lines.remove(i);
                return Some(lines.join("\n") + "\n");
            }
            9 => {
                let blank = ["", "C a comment", "* a comment", "      ! a comment"][c];
                lines.insert(i, blank.into());
                return Some(lines.join("\n") + "\n");
            }
            10 | 11 => {
                let indent = &line[..line.len() - line.trim_start().len()];
                if kind == 10 {
                    lines.insert(i, format!("{indent}qnew = 1.0"));
                } else {
                    lines.insert(i, format!("{indent}call leafnew"));
                    lines.extend(
                        ["      SUBROUTINE leafnew", "      t = 1.0", "      END"]
                            .map(String::from),
                    );
                }
                return Some(lines.join("\n") + "\n");
            }
            _ => format!("{line} +"),
        };
        lines[i] = next;
        Some(lines.join("\n") + "\n")
    }

    /// The store-backed compiles of `base` and of each edit in turn match
    /// clean compiles, and so does the front end through the chain's
    /// store. An edit the clean compile rejects is rejected alike, with the
    /// same message at the same line.
    fn edits_converge(
        base: &str,
        edits: &[(usize, usize)],
        opts: &CompileOptions,
    ) -> Result<(), TestCaseError> {
        if compile(base, opts).is_err() {
            return Ok(());
        }
        let mut chain = Chain::default();
        chain.compile(base, opts);
        let mut src = base.to_string();
        for &(kind, pick) in edits {
            let Some(next) = edit(&src, kind, pick) else {
                continue;
            };
            let clean = match compile(&next, opts) {
                Ok(clean) => clean,
                Err(e) => {
                    let inc = chain.try_compile(&next, opts).err();
                    prop_assert_eq!(
                        inc,
                        Some(e.to_string()),
                        "edit {} at {}:\n{}",
                        kind,
                        pick,
                        next
                    );
                    continue;
                }
            };
            let inc = chain.compile(&next, opts);
            prop_assert_eq!(
                pretty_all(&inc.spmd),
                pretty_all(&clean.spmd),
                "edit {} at {} of\n{}\ninto\n{}",
                kind,
                pick,
                src,
                next
            );
            prop_assert_eq!(
                &inc.report.db,
                &clean.report.db,
                "unit records after edit {} at {}:\n{}",
                kind,
                pick,
                next
            );
            prop_assert_eq!(
                front_end_of(&next, Some(chain.store())),
                front_end_of(&next, None),
                "front end after edit {} at {}:\n{}",
                kind,
                pick,
                next
            );
            src = next;
        }
        Ok(())
    }

    #[test]
    fn every_edit_kind_has_a_site_in_fig4() {
        let kinds = 0..FRONT_END_KINDS.end;
        let sited: Vec<usize> = (kinds.clone())
            .filter(|&k| edit(FIG4, k, 0).is_some())
            .collect();
        assert_eq!(sited, kinds.collect::<Vec<_>>());
    }

    /// Chain links as the strategies draw them.
    type Drawn = (usize, usize, usize, bool, bool);

    /// Runs a drawn chain of edits over the drawn base and strategy.
    fn converges(
        base: usize,
        edits: &[(usize, usize)],
        links: Vec<Drawn>,
        strategy: usize,
    ) -> Result<(), TestCaseError> {
        let links: Vec<Link> = (links.into_iter())
            .map(|(src, step, coeff, write_back, tail)| Link {
                src,
                dst: (src + step) % 3,
                shift: [1, 2, -1, 1][coeff],
                coeff,
                write_back,
                tail,
            })
            .collect();
        let base = match base {
            0 => FIG1.to_string(),
            1 => FIG4.to_string(),
            2 => FIG15.to_string(),
            3 => wide_corpus(6, 64, 4),
            _ => render_chain(32, 4, 3, &links),
        };
        let strategy = [
            Strategy::Interprocedural,
            Strategy::Interprocedural,
            Strategy::Immediate,
            Strategy::RuntimeResolution,
        ][strategy];
        let opts = CompileOptions::builder().strategy(strategy).build();
        edits_converge(&base, edits, &opts)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]
        #[test]
        fn chained_edits_match_clean_compiles(
            base in 0usize..5,
            edits in prop::collection::vec((0usize..KINDS, 0usize..1 << 16), 1..6),
            links in prop::collection::vec(
                (0usize..3, 1usize..3, 0usize..4, any::<bool>(), any::<bool>()),
                2..5,
            ),
            strategy in 0usize..4,
        ) {
            converges(base, &edits, links, strategy)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]
        /// The front end's edit kinds, on their own budget.
        #[test]
        fn chained_front_end_edits_match_clean_compiles(
            base in 0usize..5,
            edits in prop::collection::vec((FRONT_END_KINDS, 0usize..1 << 16), 1..6),
            links in prop::collection::vec(
                (0usize..3, 1usize..3, 0usize..4, any::<bool>(), any::<bool>()),
                2..5,
            ),
            strategy in 0usize..4,
        ) {
            converges(base, &edits, links, strategy)?;
        }
    }
}

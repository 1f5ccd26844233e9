//! Determinism properties of the compilation driver.
//!
//! Code generation is one pass in reverse topological order. For any
//! program in the supported space, repeated compiles pretty-print
//! bit-identically (no iteration-order nondeterminism leaks into the
//! output), and a compile that takes units from an artifact store emits
//! the same program as one that generates them all.

mod common;

use common::compile;
use fortrand::corpus::{adi_source, dgefa_source, relax_source, wide_corpus};
use fortrand::recompile::ModuleDb;
use fortrand::{ArtifactStore, CompileMode, CompileOptions, MemorySink, Session, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG4};
use fortrand_spmd::print::pretty_all;
use proptest::prelude::*;
use std::sync::Arc;

fn compiled_text(src: &str) -> String {
    let out = compile(src, &CompileOptions::default()).expect("corpus programs compile");
    pretty_all(&out.spmd)
}

/// Every path a unit can take into the program — generated and grafted,
/// generated and stored, grafted from the store — gives one node program
/// and one set of unit records per (program, strategy). Run-time
/// resolution is the strategy that adds replicated distributions and
/// fresh names in the middle of a unit.
#[test]
fn every_schedule_and_store_state_gives_one_program_per_strategy() {
    type Outcome = Result<(String, ModuleDb), String>;
    let programs = [
        ("FIG1", FIG1.to_string()),
        ("FIG4", FIG4.to_string()),
        ("dgefa", dgefa_source(16, 4)),
        ("adi", adi_source(16, 2, 4)),
        ("wide", wide_corpus(8, 64, 4)),
    ];
    let strategies = [
        Strategy::Interprocedural,
        Strategy::Immediate,
        Strategy::RuntimeResolution,
    ];
    for (label, src) in &programs {
        for strategy in strategies {
            let outcome = |store: Option<&Arc<ArtifactStore>>| -> Outcome {
                let mut session = Session::new(src.as_str()).strategy(strategy);
                if let Some(store) = store {
                    session = session.store(Arc::clone(store));
                }
                session
                    .compile()
                    .map(|c| (c.emit(), c.report().db.clone()))
                    .map_err(|e| e.to_string())
            };
            let reference = outcome(None);
            assert!(reference.is_ok(), "{label} {strategy:?}: {reference:?}");
            let store = ArtifactStore::shared();
            let cases = [
                ("no store", outcome(None)),
                ("fresh store", outcome(Some(&store))),
                ("warm store", outcome(Some(&store))),
            ];
            for (state, got) in cases {
                assert!(
                    got == reference,
                    "{label} {strategy:?} {state}: {:?}",
                    got.as_ref().err()
                );
            }
        }
    }
}

/// `CompileMode::Parallel` is accepted and changes nothing: a
/// store-backed compile given it emits the plain compile's program, makes
/// the same store decisions as a `Sequential` store-backed compile, and
/// generates every unit on the driver track (tid 0).
#[test]
fn store_backed_compile_honours_the_parallel_schedule() {
    let src = wide_corpus(8, 64, 4);
    let plain = compiled_text(&src);
    let store_backed = |mode| {
        let (sink, events) = MemorySink::new();
        let compiled = Session::new(src.as_str())
            .store(ArtifactStore::shared())
            .mode(mode)
            .trace(sink)
            .compile()
            .unwrap();
        let codegen_tids: Vec<u32> = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.cat == "codegen")
            .map(|e| e.tid)
            .collect();
        (compiled, codegen_tids)
    };
    let (seq, _) = store_backed(CompileMode::Sequential);
    let (par, par_tids) = store_backed(CompileMode::Parallel(4));
    assert_eq!(par.emit(), plain);
    assert!(par.report().store.is_some());
    assert_eq!(par.report().store, seq.report().store);
    assert_eq!(par.recompiled(), seq.recompiled());
    assert_eq!(par.reused(), seq.reused());
    assert_eq!(
        par_tids,
        vec![0; 9],
        "one span per unit, all on the driver track"
    );
}

proptest! {
    #[test]
    fn parallel_schedule_matches_sequential(
        procs in 1usize..9,
        n in 16i64..129,
        nprocs in 1usize..9,
    ) {
        let src = wide_corpus(procs, n, nprocs);
        let first = compiled_text(&src);
        // Bit-identical across repeated runs.
        prop_assert_eq!(&compiled_text(&src), &first);
        prop_assert_eq!(&compiled_text(&src), &first);
    }

    #[test]
    fn parallel_schedule_matches_on_deep_call_graphs(
        n in 8i64..33,
        steps in 1i64..4,
    ) {
        // Multi-level ACGs: dgefa has three leaves below one caller below
        // main; relax and adi have one level.
        for src in [
            dgefa_source(n, 4),
            relax_source(4 * n, 2, steps, 4),
            adi_source(n, steps, 4),
        ] {
            let first = compiled_text(&src);
            prop_assert_eq!(compiled_text(&src), first);
        }
    }
}

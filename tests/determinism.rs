//! Determinism properties of the compilation driver.
//!
//! The wavefront-parallel schedule must be a pure optimization: for any
//! program in the supported space and any thread count, the emitted
//! [`fortrand_spmd::ir::SpmdProgram`] pretty-prints byte-identically to
//! the sequential schedule's, and repeated runs of either schedule are
//! bit-identical to each other (no iteration-order or scheduling
//! nondeterminism leaks into the output).

mod common;

use common::compile;
use fortrand::corpus::{adi_source, dgefa_source, relax_source, wide_corpus};
use fortrand::{ArtifactStore, CompileMode, CompileOptions, MemorySink, Session, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG4};
use fortrand_spmd::print::pretty_all;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn compiled_text(src: &str, mode: CompileMode) -> String {
    let out = compile(src, &CompileOptions::builder().mode(mode).build())
        .expect("corpus programs compile");
    pretty_all(&out.spmd)
}

/// Every path a unit can take into the program — generated inline,
/// generated on the pool, generated and stored, grafted from the store —
/// gives one node program and one set of fact hashes per (program,
/// strategy). Run-time resolution is the strategy that adds replicated
/// distributions and fresh names in the middle of a unit.
#[test]
fn every_schedule_and_store_state_gives_one_program_per_strategy() {
    type Outcome = Result<(String, BTreeMap<String, u64>), String>;
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
            let outcome = |mode: CompileMode, store: Option<&Arc<ArtifactStore>>| -> Outcome {
                let mut session = Session::new(src.as_str()).strategy(strategy).mode(mode);
                if let Some(store) = store {
                    session = session.store(Arc::clone(store));
                }
                session
                    .compile()
                    .map(|c| (c.emit(), c.report().fact_hashes.clone()))
                    .map_err(|e| e.to_string())
            };
            let reference = outcome(CompileMode::Sequential, None);
            assert!(reference.is_ok(), "{label} {strategy:?}: {reference:?}");
            for mode in [CompileMode::Sequential, CompileMode::Parallel(3)] {
                let store = ArtifactStore::shared();
                let cases = [
                    ("no store", outcome(mode, None)),
                    ("fresh store", outcome(mode, Some(&store))),
                    ("warm store", outcome(mode, Some(&store))),
                ];
                for (state, got) in cases {
                    assert!(
                        got == reference,
                        "{label} {strategy:?} {mode:?} {state}: {:?}",
                        got.as_ref().err()
                    );
                }
            }
        }
    }
}

/// The schedule and the artifact store are independent choices: a
/// store-backed compile honours `CompileMode::Parallel` (its misses go to
/// the transient pool, visible as codegen spans on worker tracks), makes
/// the same store decisions as the sequential store-backed compile, and
/// emits the plain sequential compile's program.
#[test]
fn store_backed_compile_honours_the_parallel_schedule() {
    let src = wide_corpus(8, 64, 4);
    let plain = compiled_text(&src, CompileMode::Sequential);
    let store_backed = |mode| {
        let (sink, events) = MemorySink::new();
        let compiled = Session::new(src.as_str())
            .store(ArtifactStore::shared())
            .mode(mode)
            .trace(sink)
            .compile()
            .unwrap();
        let worker_spans = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.cat == "codegen" && e.tid >= 1)
            .count();
        (compiled, worker_spans)
    };
    let (seq, seq_worker_spans) = store_backed(CompileMode::Sequential);
    let (par, par_worker_spans) = store_backed(CompileMode::Parallel(4));
    assert_eq!(par.emit(), plain);
    assert_eq!(par.report().store, seq.report().store);
    assert!(par.report().store.is_some());
    assert_eq!(seq_worker_spans, 0);
    assert_eq!(par_worker_spans, 8, "the eight leaves of level 0");
}

proptest! {
    #[test]
    fn parallel_schedule_matches_sequential(
        procs in 1usize..9,
        n in 16i64..129,
        nprocs in 1usize..9,
        threads in 1usize..7,
    ) {
        let src = wide_corpus(procs, n, nprocs);
        let seq = compiled_text(&src, CompileMode::Sequential);
        let par = compiled_text(&src, CompileMode::Parallel(threads));
        prop_assert_eq!(&par, &seq);
        // Bit-identical across repeated runs of each schedule.
        prop_assert_eq!(&compiled_text(&src, CompileMode::Sequential), &seq);
        prop_assert_eq!(&compiled_text(&src, CompileMode::Parallel(threads)), &seq);
    }

    #[test]
    fn parallel_schedule_matches_on_deep_call_graphs(
        n in 8i64..33,
        steps in 1i64..4,
        threads in 1usize..5,
    ) {
        // Multi-level ACGs (dgefa: three leaves below one caller below
        // main; relax/adi: one level) exercise the per-level snapshot +
        // merge machinery rather than a single wide level.
        for src in [
            dgefa_source(n, 4),
            relax_source(4 * n, 2, steps, 4),
            adi_source(n, steps, 4),
        ] {
            let seq = compiled_text(&src, CompileMode::Sequential);
            let par = compiled_text(&src, CompileMode::Parallel(threads));
            prop_assert_eq!(par, seq);
        }
    }
}

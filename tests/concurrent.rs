//! Concurrent-session stress: N threads hammer one shared
//! [`ArtifactStore`] with edit → compile loops and must
//! (a) each produce output byte-identical to a sequential reference,
//! (b) leave no lock poisoned, and (c) actually share artifacts across
//! threads (cross-session hits).

mod common;

use common::{compile, Chain};
use fortrand::corpus::{wide_corpus, wide_corpus_edited};
use fortrand::{ArtifactStore, CompileOptions};
use fortrand_spmd::print::pretty_all;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

/// The two source states every thread alternates between. Threads are
/// split across two program shapes so the store holds artifacts from
/// unrelated programs at the same time.
fn sources(thread: usize) -> (String, String) {
    let procs = if thread.is_multiple_of(2) { 4 } else { 6 };
    (wide_corpus(procs, 48, 4), wide_corpus_edited(procs, 48, 4))
}

#[test]
fn concurrent_sessions_share_one_store_and_stay_byte_identical() {
    let store = ArtifactStore::shared();
    let opts = CompileOptions::default();

    // Sequential reference for every (thread, round) cell.
    let expected: Vec<Vec<String>> = (0..THREADS)
        .map(|t| {
            let (base, edited) = sources(t);
            (0..ROUNDS)
                .map(|r| {
                    let src = if r % 2 == 0 { &base } else { &edited };
                    pretty_all(&compile(src, &opts).unwrap().spmd)
                })
                .collect()
        })
        .collect();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let opts = opts.clone();
            std::thread::spawn(move || -> Vec<String> {
                let (base, edited) = sources(t);
                let mut eng = Chain::over(store);
                (0..ROUNDS)
                    .map(|r| {
                        let src = if r % 2 == 0 { &base } else { &edited };
                        pretty_all(&eng.compile(src, &opts).spmd)
                    })
                    .collect()
            })
        })
        .collect();

    for (t, w) in workers.into_iter().enumerate() {
        let got = w.join().expect("worker must not panic");
        for (r, text) in got.iter().enumerate() {
            assert_eq!(
                text, &expected[t][r],
                "thread {t} round {r} diverged from the sequential reference"
            );
        }
    }

    // No lock poisoning: the store still answers, and sharing happened.
    let stats = store.stats();
    assert!(
        stats.hits > 0,
        "threads never shared an artifact: {stats:?}"
    );
    // 8 threads × 2 shapes × 2 states: after each (shape, state) pair is
    // compiled once, every other compile of it should hit. Demand a
    // conservative floor well above "no sharing".
    assert!(
        stats.hit_rate_x100() >= 50,
        "cross-session hit rate collapsed: {stats:?}"
    );
}

/// A tiny store must keep evicting under concurrent load without
/// corrupting anything — correctness can degrade only to "recompile".
#[test]
fn eviction_under_concurrency_degrades_to_recompiles_not_corruption() {
    let store = Arc::new(ArtifactStore::with_capacity(8 << 10));
    let opts = CompileOptions::default();

    let expected: Vec<String> = (0..4)
        .map(|t| {
            let (base, _) = sources(t);
            pretty_all(&compile(&base, &opts).unwrap().spmd)
        })
        .collect();

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            let opts = opts.clone();
            std::thread::spawn(move || -> Vec<String> {
                let (base, _) = sources(t);
                let mut eng = Chain::over(store);
                (0..3)
                    .map(|_| pretty_all(&eng.compile(&base, &opts).spmd))
                    .collect()
            })
        })
        .collect();

    for (t, w) in workers.into_iter().enumerate() {
        for text in w.join().expect("worker must not panic") {
            assert_eq!(text, expected[t], "thread {t} output corrupted");
        }
    }
    let stats = store.stats();
    assert!(stats.evictions > 0, "capacity never pressured: {stats:?}");
    assert!(
        stats.cost <= stats.capacity || stats.entries == 1,
        "{stats:?}"
    );
}

//! `BENCH.json` at the repository root is the golden copy of
//! [`fortrand_bench::counters_report`]: every figure in it is exact
//! (messages, bytes, modelled time, dispatch, fusion and scheduler
//! counts), so the committed file is compared byte for byte and cannot
//! go stale. When an intentional change moves a counter, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p fortrand-bench --test bench_json
//! ```
//!
//! and review the diff like any other code change.

#[test]
fn bench_json_matches_the_committed_document() {
    if cfg!(debug_assertions) {
        eprintln!("skipping BENCH.json check in debug build (dgefa n=256 is slow unoptimized)");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    let actual = fortrand_bench::counters_report().pretty();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing {path}: {e}; run UPDATE_GOLDEN=1 cargo test --release -p fortrand-bench --test bench_json")
    });
    assert!(
        actual == expected,
        "BENCH.json differs from counters_report(); if intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

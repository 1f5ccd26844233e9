//! Full-text golden snapshots of the `tables` sections that reproduce the
//! paper's figures (fig2, fig10, fig12) and Table 1.
//!
//! Unlike `figures.rs` (which asserts structural properties), these pin
//! the *entire* pretty-printed output byte for byte, so any codegen or
//! pretty-printer drift is caught immediately. When an intentional change
//! shifts the output, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change.

mod common;

use common::compile;
use fortrand::{CompileOptions, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG4};
use fortrand_spmd::print::pretty_all;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the snapshots live beside the
    // workspace-level test sources.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}; run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig2_interprocedural_output() {
    let out = compile(FIG1, &CompileOptions::default()).unwrap();
    check("fig2.txt", &pretty_all(&out.spmd));
}

#[test]
fn fig10_interprocedural_clones_output() {
    let out = compile(FIG4, &CompileOptions::default()).unwrap();
    check("fig10.txt", &pretty_all(&out.spmd));
}

#[test]
fn fig12_immediate_instantiation_output() {
    let out = compile(
        FIG4,
        &CompileOptions::builder()
            .strategy(Strategy::Immediate)
            .build(),
    )
    .unwrap();
    check("fig12.txt", &pretty_all(&out.spmd));
}

#[test]
fn tab1_dataflow_problems() {
    check("tab1.txt", &fortrand_analysis::registry::render_table1());
}

//! Golden dumps of the interprocedural *facts* — the equivalence suite
//! for the `fortrand_analysis::framework` refactor.
//!
//! The snapshots under `tests/golden/facts_*.txt` were generated from the
//! pre-framework, hand-rolled traversals. The framework-ported solvers
//! must reproduce them byte for byte: reaching decompositions (maps,
//! per-statement records, and call-site bindings), interprocedural
//! constants, GMOD/GREF side effects, and the communication optimizer's
//! per-procedure available-sections decisions.
//!
//! Regenerate (only for an *intentional* fact change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test facts
//! ```

mod common;

use common::compile;
use fortrand::corpus::{dgefa_source, relax_source, wide_corpus};
use fortrand::CompileOptions;
use fortrand_analysis::acg::build_acg;
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_analysis::framework::resolve_syms;
use fortrand_analysis::{consts, reaching, side_effects};
use fortrand_frontend::load_program;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
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
            "missing golden snapshot {}: {e}; run UPDATE_GOLDEN=1 cargo test --test facts",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "fact mismatch for {name}: the framework port must produce \
         identical facts; if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1"
    );
}

/// Dumps every interprocedural fact class the analysis layer computes for
/// one source, with symbol ids resolved to names.
fn dump_analysis_facts(src: &str) -> String {
    let (prog, info) = load_program(src).unwrap();
    let acg = build_acg(&prog, &info).unwrap();
    let reaching = reaching::compute(&prog, &info, &acg);
    let ic = consts::compute(&info, &acg);
    let se = side_effects::compute(&prog, &info, &acg);
    let mut out = String::new();
    writeln!(out, "== reaching: unit -> formal -> decomposition specs ==").unwrap();
    writeln!(out, "{:#?}", reaching.reaching).unwrap();
    writeln!(out, "== reaching: statement -> array -> specs ==").unwrap();
    writeln!(out, "{:#?}", reaching.expand_before_stmt()).unwrap();
    writeln!(out, "== reaching: call site -> formal -> specs ==").unwrap();
    writeln!(out, "{:#?}", reaching.at_call).unwrap();
    writeln!(out, "== interprocedural constants ==").unwrap();
    writeln!(out, "{:#?}", ic.formals).unwrap();
    writeln!(out, "== side effects (GMOD/GREF) ==").unwrap();
    writeln!(out, "{:#?}", se.units).unwrap();
    resolve_syms(&out, &prog.interner)
}

/// Dumps the communication optimizer's per-procedure available-sections
/// decisions from a full compile (the fourth ported problem).
fn dump_comm_facts(src: &str) -> String {
    let out = compile(src, &CompileOptions::default()).unwrap();
    let mut s = String::new();
    writeln!(
        s,
        "level={} eliminated={} hoisted={} coalesced={}",
        out.report.comm.level.as_str(),
        out.report.comm.eliminated,
        out.report.comm.hoisted,
        out.report.comm.coalesced
    )
    .unwrap();
    for (proc, facts) in &out.report.comm.per_proc {
        writeln!(s, "[{proc}] {facts}").unwrap();
    }
    s
}

#[test]
fn fig1_analysis_facts() {
    check("facts_fig1.txt", &dump_analysis_facts(FIG1));
}

#[test]
fn fig4_analysis_facts() {
    check("facts_fig4.txt", &dump_analysis_facts(FIG4));
}

#[test]
fn fig15_analysis_facts() {
    check("facts_fig15.txt", &dump_analysis_facts(FIG15));
}

#[test]
fn dgefa_analysis_facts() {
    check(
        "facts_dgefa.txt",
        &dump_analysis_facts(&dgefa_source(16, 4)),
    );
}

#[test]
fn relax_analysis_facts() {
    check(
        "facts_relax.txt",
        &dump_analysis_facts(&relax_source(16, 1, 2, 4)),
    );
}

#[test]
fn fig4_comm_facts() {
    check("facts_comm_fig4.txt", &dump_comm_facts(FIG4));
}

#[test]
fn fig15_comm_facts() {
    check("facts_comm_fig15.txt", &dump_comm_facts(FIG15));
}

#[test]
fn dgefa_comm_facts() {
    check(
        "facts_comm_dgefa.txt",
        &dump_comm_facts(&dgefa_source(64, 4)),
    );
}

/// The per-statement reaching record is stored where it changes, so it
/// grows with the program — statements plus arrays — and not with their
/// product. A table of every array at every statement holds 6p² + 8p
/// entries for these programs (15 400, 60 800, 241 600) and meets neither
/// bound.
#[test]
fn reaching_record_grows_with_the_program_not_statements_times_arrays() {
    let mut smaller: Option<usize> = None;
    for p in [50, 100, 200] {
        let (prog, info) = load_program(&wide_corpus(p, 64, 4)).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let stored = reaching::compute(&prog, &info, &acg).stored_entries();
        let size: usize = prog
            .units
            .iter()
            .map(|u| {
                let arrays = info.unit(u.name).vars.values().filter(|v| v.is_array());
                u.walk().count() + arrays.count()
            })
            .sum();
        assert!(
            stored <= 8 * size,
            "p={p}: {stored} entries for {size} statements + arrays"
        );
        if let Some(smaller) = smaller {
            assert!(
                10 * stored <= 22 * smaller,
                "p={p}: {stored} entries, more than double (+10 %) the {smaller} of p/2"
            );
        }
        smaller = Some(stored);
    }
}

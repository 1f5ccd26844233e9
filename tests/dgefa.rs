//! dgefa case study: compiled LU factorization must match the sequential
//! reference under every strategy, and the strategies must rank as the
//! paper reports (interprocedural fastest, run-time resolution slowest).

mod common;

use common::{compile, run_spmd};
use fortrand::corpus::{dgefa_matrix, dgefa_source};
use fortrand::{run_sequential, CompileOptions, Strategy};
use fortrand_machine::Machine;
use std::collections::BTreeMap;

fn run_strategy(n: i64, p: usize, strategy: Strategy) -> (Vec<f64>, fortrand_machine::RunStats) {
    let (a, _ipvt, stats) = run_strategy_full(n, p, strategy);
    (a, stats)
}

fn run_strategy_full(
    n: i64,
    p: usize,
    strategy: Strategy,
) -> (Vec<f64>, Vec<f64>, fortrand_machine::RunStats) {
    let src = dgefa_source(n, p);
    let out = compile(&src, &CompileOptions::builder().strategy(strategy).build())
        .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
    let machine = Machine::new(p);
    let mut init = BTreeMap::new();
    init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(n));
    let res = run_spmd(&out.spmd, &machine, &init);
    let a = res.arrays[&out.spmd.interner.get("a").unwrap()].clone();
    let ipvt = res.arrays[&out.spmd.interner.get("ipvt").unwrap()].clone();
    (a, ipvt, res.stats)
}

fn run_seq(n: i64) -> Vec<f64> {
    let src = dgefa_source(n, 1);
    let (prog, info) = fortrand_frontend::load_program(&src).unwrap();
    let mut init = BTreeMap::new();
    init.insert(prog.interner.get("a").unwrap(), dgefa_matrix(n));
    let out = run_sequential(&prog, &info, &init);
    out.arrays[&prog.interner.get("a").unwrap()].clone()
}

fn assert_close(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len());
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() <= 1e-6 * e.abs().max(1.0),
            "{what}: element {i}: {g} vs {e}"
        );
    }
}

#[test]
fn dgefa_interprocedural_matches_sequential() {
    let expect = run_seq(16);
    let (got, stats) = run_strategy(16, 4, Strategy::Interprocedural);
    assert_close(&got, &expect, "interprocedural n=16 p=4");
    assert!(stats.total_msgs > 0, "LU must communicate");
}

#[test]
fn dgefa_immediate_matches_sequential() {
    let expect = run_seq(12);
    let (got, _) = run_strategy(12, 3, Strategy::Immediate);
    assert_close(&got, &expect, "immediate n=12 p=3");
}

#[test]
fn dgefa_runtime_resolution_matches_sequential() {
    let expect = run_seq(10);
    let (got, stats) = run_strategy(10, 2, Strategy::RuntimeResolution);
    assert_close(&got, &expect, "runtime resolution n=10 p=2");
    assert!(stats.total_msgs > 0);
}

/// The pivot vector (a replicated INTEGER array filled from broadcast
/// pivot indices) must match the sequential factorization exactly.
#[test]
fn dgefa_pivot_vector_matches() {
    let n = 16;
    let src = dgefa_source(n, 1);
    let (prog, info) = fortrand_frontend::load_program(&src).unwrap();
    let mut init = BTreeMap::new();
    init.insert(prog.interner.get("a").unwrap(), dgefa_matrix(n));
    let seq = run_sequential(&prog, &info, &init);
    let expect = &seq.arrays[&prog.interner.get("ipvt").unwrap()];
    let (_, ipvt, _) = run_strategy_full(n, 4, Strategy::Interprocedural);
    assert_eq!(&ipvt, expect);
}

#[test]
fn dgefa_single_processor_degenerates() {
    let expect = run_seq(8);
    let (got, _) = run_strategy(8, 1, Strategy::Interprocedural);
    assert_close(&got, &expect, "n=8 p=1");
}

/// The headline §9 claim: interprocedural compilation beats run-time
/// resolution by a wide margin on dgefa, and is no slower than immediate
/// instantiation.
#[test]
fn dgefa_strategy_ordering() {
    let n = 24;
    let p = 4;
    let (_, inter) = run_strategy(n, p, Strategy::Interprocedural);
    let (_, rtr) = run_strategy(n, p, Strategy::RuntimeResolution);
    assert!(
        rtr.time_us > 3.0 * inter.time_us,
        "run-time resolution ({}) must be far slower than interprocedural ({})",
        rtr.time_us,
        inter.time_us
    );
    assert!(
        rtr.total_msgs > inter.total_msgs,
        "rtr msgs {} vs inter {}",
        rtr.total_msgs,
        inter.total_msgs
    );
}

//! Property-based end-to-end testing: randomly generated Fortran D
//! programs must compile under every strategy and produce exactly the
//! sequential interpreter's results on the simulated machine.
//!
//! The generator samples the compiler's supported pattern space:
//! distributions (BLOCK/CYCLIC/none), stencil shifts (flow-free), loop
//! bounds (including partial ranges and uneven blocks), call chains with
//! scalar threading, and replicated scalars.

mod common;

use common::{compile, run_spmd};
use fortrand::Strategy as CompileStrategy;
use fortrand::{run_sequential, CompileOptions, DynOptLevel};
use fortrand_machine::Machine;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A generated program specification.
#[derive(Debug, Clone)]
struct Spec {
    n: i64,
    nprocs: usize,
    dist: &'static str,
    /// Per-sweep (shift, lo_off, hi_off, coefficient index).
    sweeps: Vec<(i64, i64, i64, usize)>,
    /// Route sweeps through a subroutine (vs inline in main).
    through_call: bool,
}

const COEFFS: [&str; 4] = ["0.5", "0.25", "1.5", "2.0"];

fn render(spec: &Spec) -> String {
    let Spec {
        n,
        nprocs,
        dist,
        sweeps,
        through_call,
    } = spec;
    let mut body = String::new();
    for (si, &(shift, lo_off, hi_off, ci)) in sweeps.iter().enumerate() {
        let c = COEFFS[ci % COEFFS.len()];
        let lo = 1 + lo_off;
        let hi = n - shift - hi_off;
        if *through_call {
            body.push_str(&format!("      call sweep{si}(x, y)\n"));
        } else {
            body.push_str(&format!(
                "      do i = {lo}, {hi}\n        y(i) = {c} * x(i+{shift}) + y(i)\n      enddo\n"
            ));
        }
    }
    let mut subs = String::new();
    if *through_call {
        for (si, &(shift, lo_off, hi_off, ci)) in sweeps.iter().enumerate() {
            let c = COEFFS[ci % COEFFS.len()];
            let lo = 1 + lo_off;
            let hi = n - shift - hi_off;
            subs.push_str(&format!(
                "      SUBROUTINE sweep{si}(u, v)\n      REAL u({n}), v({n})\n      do i = {lo}, {hi}\n        v(i) = {c} * u(i+{shift}) + v(i)\n      enddo\n      END\n"
            ));
        }
    }
    format!(
        "      PROGRAM main\n      PARAMETER (n$proc = {nprocs})\n      REAL x({n}), y({n})\n      DISTRIBUTE x({dist})\n      DISTRIBUTE y({dist})\n{body}      END\n{subs}"
    )
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        16i64..80,
        1usize..5,
        prop_oneof![Just("BLOCK"), Just("CYCLIC")],
        prop::collection::vec((0i64..4, 0i64..3, 0i64..3, 0usize..4), 1..4),
        any::<bool>(),
    )
        .prop_map(|(n, nprocs, dist, sweeps, through_call)| Spec {
            n,
            nprocs,
            dist,
            sweeps,
            through_call,
        })
        .prop_filter("cyclic shifts unsupported at compile time", |s| {
            // CYCLIC distributions only support shift-0 sweeps in the
            // compile-time strategies; keep those cases for run-time
            // resolution coverage below.
            s.dist != "CYCLIC" || s.sweeps.iter().all(|&(sh, ..)| sh == 0)
        })
}

fn check_spec(spec: &Spec, strategy: CompileStrategy) -> Result<(), TestCaseError> {
    let src = render(spec);
    let (prog, info) = fortrand_frontend::load_program(&src)
        .map_err(|e| TestCaseError::fail(format!("frontend: {e}\n{src}")))?;
    let main = prog.main_unit().unwrap();
    let mut init = BTreeMap::new();
    for (&name, vi) in &info.unit(main.name).vars {
        if vi.is_array() {
            let len: i64 = vi.dims.iter().product();
            init.insert(
                name,
                (0..len)
                    .map(|i| ((i * 13 + 7) % 23) as f64 * 0.25 + 1.0)
                    .collect::<Vec<f64>>(),
            );
        }
    }
    let seq = run_sequential(&prog, &info, &init);
    let out = compile(
        &src,
        &CompileOptions::builder()
            .strategy(strategy)
            .nprocs(spec.nprocs)
            .dyn_opt(DynOptLevel::Kills)
            .build(),
    )
    .map_err(|e| TestCaseError::fail(format!("compile {strategy:?}: {e}\n{src}")))?;
    let machine = Machine::new(spec.nprocs);
    let mut spmd_init = BTreeMap::new();
    for (name, data) in &init {
        let n = prog.interner.name(*name);
        spmd_init.insert(out.spmd.interner.get(n).unwrap(), data.clone());
    }
    let res = run_spmd(&out.spmd, &machine, &spmd_init);
    for (name, expect) in &seq.arrays {
        let n = prog.interner.name(*name);
        let got = &res.arrays[&out.spmd.interner.get(n).unwrap()];
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            prop_assert!(
                (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                "{strategy:?}: {n}[{i}] = {g} vs {e}\n{src}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Interprocedural compilation preserves sequential semantics on
    /// random stencil programs.
    #[test]
    fn interprocedural_preserves_semantics(spec in spec_strategy()) {
        check_spec(&spec, CompileStrategy::Interprocedural)?;
    }

    /// Immediate instantiation preserves sequential semantics.
    #[test]
    fn immediate_preserves_semantics(spec in spec_strategy()) {
        check_spec(&spec, CompileStrategy::Immediate)?;
    }

    /// Run-time resolution preserves sequential semantics — including the
    /// shifted-CYCLIC cases the compile-time strategies reject.
    #[test]
    fn runtime_resolution_preserves_semantics(
        n in 8i64..40,
        nprocs in 1usize..5,
        dist in prop_oneof![Just("BLOCK"), Just("CYCLIC"), Just("BLOCK_CYCLIC(3)")],
        shift in 0i64..4,
    ) {
        let spec = Spec {
            n,
            nprocs,
            dist: Box::leak(dist.to_string().into_boxed_str()),
            sweeps: vec![(shift, 0, 0, 1)],
            through_call: false,
        };
        check_spec(&spec, CompileStrategy::RuntimeResolution)?;
    }
}

//! Checked-in regressions: minimal programs that once computed a wrong
//! array or failed at run time, each run against the sequential oracle.
//!
//! Every `*.f` file in this directory is one fixture. Its first line is a
//! header naming the configurations it runs under, one `key=value` per
//! word, where a value may list alternatives separated by commas (every
//! combination runs):
//!
//! ```text
//! ! strategy=Interprocedural comm_opt=Full dyn_opt=None,Kills nprocs=4
//! ```
//!
//! The rest of the file is the Fortran D source. Each main-program array
//! starts from seeded non-zero values; the final arrays of the tree
//! walker, the VM with and without its fused kernels, and the native
//! backend (when a `rustc` is on `PATH`) must match `run_sequential`.
//! The test runs every fixture, configuration and engine, then fails once
//! with the list of every (fixture, configuration, engine) that did not.

use fortrand::{
    run_sequential, rustc_available, CommOpt, CompileOptions, DynOptLevel, Session, Strategy,
};
use fortrand_spmd::{Bytecode, ExecOptions, Native, Tree};
use std::collections::BTreeMap;
use std::path::Path;

/// One `key=value` list of the header, every alternative parsed.
fn alternatives<T>(header: &str, key: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let values = (header.split_whitespace())
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("header lacks `{key}=`: {header}"));
    (values.split(','))
        .map(|v| parse(v).unwrap_or_else(|| panic!("bad {key} `{v}`: {header}")))
        .collect()
}

fn strategy(s: &str) -> Option<Strategy> {
    Some(match s {
        "Interprocedural" => Strategy::Interprocedural,
        "Immediate" => Strategy::Immediate,
        "RuntimeResolution" => Strategy::RuntimeResolution,
        _ => return None,
    })
}

fn comm_opt(s: &str) -> Option<CommOpt> {
    Some(match s {
        "Off" => CommOpt::Off,
        "Coalesce" => CommOpt::Coalesce,
        "Full" => CommOpt::Full,
        "Overlap" => CommOpt::Overlap,
        _ => return None,
    })
}

fn dyn_opt(s: &str) -> Option<DynOptLevel> {
    Some(match s {
        "None" => DynOptLevel::None,
        "Live" => DynOptLevel::Live,
        "Hoist" => DynOptLevel::Hoist,
        "Kills" => DynOptLevel::Kills,
        _ => return None,
    })
}

/// Seeded values in [0.5, 1.5): never zero, so a dropped or misplaced
/// element shows (splitmix64 over the seed and the element index).
fn seeded(seed: u64, len: usize) -> Vec<f64> {
    let value = |i: u64| {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        0.5 + (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..len as u64).map(value).collect()
}

/// Runs one fixture under every configuration its header names and
/// returns one line per failing (configuration, engine).
fn check_fixture(path: &Path) -> Vec<String> {
    let name = path.file_name().unwrap().to_string_lossy();
    let text = std::fs::read_to_string(path).unwrap();
    let (header, src) = text.split_once('\n').expect("header line");
    let (prog, info) = match fortrand_frontend::load_program(src) {
        Ok(loaded) => loaded,
        Err(e) => return vec![format!("{name}: front end: {e}")],
    };
    let main = prog.main_unit().unwrap();
    let mut init = BTreeMap::new();
    for (seed, (&array, vi)) in (1992..).zip(&info.unit(main.name).vars) {
        if vi.is_array() {
            init.insert(
                array,
                seeded(seed, vi.dims.iter().product::<i64>() as usize),
            );
        }
    }
    let want = run_sequential(&prog, &info, &init).arrays;

    let mut engines = vec![
        ("tree", ExecOptions::new().backend(Tree)),
        ("vm", ExecOptions::new().backend(Bytecode)),
        (
            "vm unfused",
            ExecOptions::new().backend(Bytecode).kernels(false),
        ),
    ];
    if rustc_available() {
        let native = Native {
            opt_level: 0,
            keep_artifacts: false,
        };
        engines.push(("native", ExecOptions::new().backend(native)));
    } else {
        eprintln!("SKIP native for {name}: no rustc on PATH");
    }
    let mut failures = Vec::new();
    for strategy in alternatives(header, "strategy", strategy) {
        for comm_opt in alternatives(header, "comm_opt", comm_opt) {
            for dyn_opt in alternatives(header, "dyn_opt", dyn_opt) {
                for nprocs in alternatives(header, "nprocs", |s| s.parse().ok()) {
                    let opts = CompileOptions::builder()
                        .strategy(strategy)
                        .comm_opt(comm_opt)
                        .dyn_opt(dyn_opt)
                        .nprocs(nprocs)
                        .build();
                    let ctx = format!("{name} {strategy:?}/{comm_opt:?}/{dyn_opt:?}/{nprocs}p");
                    let compiled = match Session::new(src).options(opts).compile() {
                        Ok(compiled) => compiled,
                        Err(e) => {
                            failures.push(format!("{ctx}: {e}"));
                            continue;
                        }
                    };
                    let spmd = compiled.spmd();
                    let init: BTreeMap<_, _> = (init.iter())
                        .map(|(s, v)| {
                            (
                                spmd.interner.get(prog.interner.name(*s)).unwrap(),
                                v.clone(),
                            )
                        })
                        .collect();
                    for (engine, exec) in &engines {
                        let got = match compiled.run_with(&init, exec) {
                            Ok(got) => got,
                            Err(e) => {
                                failures.push(format!("{ctx} on {engine}: {e}"));
                                continue;
                            }
                        };
                        for (array, expect) in &want {
                            let array = prog.interner.name(*array);
                            let got = &got.arrays[&spmd.interner.get(array).unwrap()];
                            if let Some(why) = mismatch(got, expect) {
                                failures.push(format!("{ctx} on {engine}: {array}{why}"));
                            }
                        }
                    }
                }
            }
        }
    }
    failures
}

/// Where `got` first leaves the oracle's `expect`, if it does.
fn mismatch(got: &[f64], expect: &[f64]) -> Option<String> {
    if got.len() != expect.len() {
        return Some(format!(
            " has {} elements, oracle {}",
            got.len(),
            expect.len()
        ));
    }
    // Written as "not close" so that a NaN on either side is a mismatch.
    let close = |g: f64, e: f64| (g - e).abs() <= 1e-9 * e.abs().max(1.0);
    let (i, (g, e)) = (got.iter().zip(expect).enumerate()).find(|(_, (g, e))| !close(**g, **e))?;
    Some(format!("[{i}] = {g}, oracle {e}"))
}

#[test]
fn mismatch_flags_nan_and_accepts_rounding() {
    assert!(mismatch(&[f64::NAN], &[1.0]).is_some());
    assert!(mismatch(&[1.0], &[f64::NAN]).is_some());
    assert!(mismatch(&[1.0, 2.5], &[1.0, 2.0]).is_some());
    assert!(mismatch(&[1.0], &[1.0, 2.0]).is_some());
    assert!(mismatch(&[1.0 + 1e-12, 0.0], &[1.0, 0.0]).is_none());
}

#[test]
fn every_fixture_matches_the_sequential_oracle() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regressions");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no fixtures in {}", dir.display());
    let failures: Vec<String> = fixtures.iter().flat_map(|f| check_fixture(f)).collect();
    assert!(
        failures.is_empty(),
        "{} failing (fixture, configuration, engine):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

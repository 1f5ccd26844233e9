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

/// Runs one fixture under every configuration its header names.
fn check_fixture(path: &Path) {
    let name = path.file_name().unwrap().to_string_lossy();
    let text = std::fs::read_to_string(path).unwrap();
    let (header, src) = text.split_once('\n').expect("header line");
    let (prog, info) =
        fortrand_frontend::load_program(src).unwrap_or_else(|e| panic!("{name}: front end: {e}"));
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
                    let compiled = Session::new(src)
                        .options(opts)
                        .compile()
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
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
                        let got = compiled
                            .run_with(&init, exec)
                            .unwrap_or_else(|e| panic!("{ctx} on {engine}: {e}"));
                        for (array, expect) in &want {
                            let array = prog.interner.name(*array);
                            let got = &got.arrays[&spmd.interner.get(array).unwrap()];
                            assert_eq!(got.len(), expect.len(), "{ctx} on {engine}: {array}");
                            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                                assert!(
                                    (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                                    "{ctx} on {engine}: {array}[{i}] = {g}, oracle {e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
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
    for fixture in &fixtures {
        check_fixture(fixture);
    }
}

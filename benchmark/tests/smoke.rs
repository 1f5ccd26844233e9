//! The harness's only test: every workload still builds, runs and
//! verifies, and `BENCHMARK.json` still says what the harness reports.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_run_verifies_every_workload() {
    let exe = env!("CARGO_BIN_EXE_fortrand-benchmark");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in a directory of the repository");

    let described = Command::new(exe)
        .arg("describe")
        .output()
        .expect("describe runs");
    assert!(described.status.success());
    let committed =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    assert_eq!(
        String::from_utf8_lossy(&described.stdout),
        committed,
        "BENCHMARK.json is out of date: regenerate it with the `describe` subcommand"
    );

    // One iteration per workload, p and n unchanged.
    let smoke = Command::new(exe)
        .args(["run", "--smoke"])
        .current_dir(root)
        .output()
        .expect("run --smoke runs");
    assert!(
        smoke.status.success(),
        "run --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&smoke.stdout),
        String::from_utf8_lossy(&smoke.stderr)
    );
}

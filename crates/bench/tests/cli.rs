//! The `tables` command line: a verb it does not know is an error, not an
//! empty success — CI names verbs, and a misspelt one must fail the job.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables")
}

#[test]
fn unknown_verb_exits_2_and_lists_the_verbs() {
    let out = tables(&["no-such-verb"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is printed before the error");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no-such-verb"), "{err}");
    for verb in ["fig1", "tab1", "sec9", "vmprof", "weakscale"] {
        assert!(err.contains(verb), "usage must list `{verb}`:\n{err}");
    }
}

#[test]
fn deleted_timing_verbs_are_unknown() {
    // Wall clock is measured by `benchmark/`: `wide_u300` and
    // `serve_edit_loop` replaced these two reports.
    for verb in ["serve", "compile-time"] {
        let out = tables(&[verb]);
        assert_eq!(out.status.code(), Some(2), "`tables {verb}`");
        assert!(out.stdout.is_empty(), "`tables {verb}`");
    }
}

#[test]
fn tab1_prints_table_1() {
    let out = tables(&["tab1"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("==== TABLE 1 — interprocedural dataflow problems ===="),
        "{text}"
    );
    assert!(!text.contains("==== FIG"), "only the named verb runs");
}

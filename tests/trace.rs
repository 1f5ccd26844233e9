//! Tests for the structured-tracing facility (`fortrand_trace`) as
//! threaded through the whole stack by [`fortrand::Session`]:
//!
//! * the compile-phase **span tree** over FIG1 is pinned as a golden
//!   snapshot (structure only — names and nesting, never timestamps);
//! * a traced compile-and-run exports a **Chrome trace** that passes the
//!   crate's own `chrome::validate` (balanced B/E per track, well-typed
//!   events) and contains both compile-phase spans and per-rank message
//!   events;
//! * tracing **off is free**: compiled output and run observables are
//!   byte-identical with and without a sink attached;
//! * [`fortrand::Compiled::run`] is **equivalent to the raw** runner
//!   (`try_run_spmd` on a hand-built machine).
//!
//! Regenerate the golden snapshot with
//! `UPDATE_GOLDEN=1 cargo test --test trace`.

use fortrand::{Session, Strategy};
use fortrand_analysis::fixtures::FIG1;
use fortrand_trace::chrome::validate;
use fortrand_trace::{span_tree, ChromeTraceSink, MemorySink, PID_COMPILE, PID_MACHINE};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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
            "missing golden snapshot {}: {e}; run UPDATE_GOLDEN=1 cargo test --test trace",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A `Write` target backed by a shared byte buffer, so the test can read
/// what a streaming sink produced without touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The compile-phase span structure is deterministic (sequential codegen
/// sweeps units in a fixed order), so the rendered tree is golden-stable.
/// Timestamps never appear in the rendering.
#[test]
fn compile_span_tree_is_golden_stable() {
    let (sink, events) = MemorySink::new();
    let compiled = Session::new(FIG1).trace(sink).compile().unwrap();
    drop(compiled);
    let tree = span_tree(&events.lock().unwrap());
    check("trace_fig1.txt", &tree);
}

/// A traced compile + simulated run exports Chrome trace JSON that our
/// own validator accepts, with compile-phase spans on the compile track
/// and message events on the per-rank machine tracks.
#[test]
fn chrome_export_validates_with_compile_and_machine_events() {
    let buf = SharedBuf::default();
    let compiled = Session::new(FIG1)
        .strategy(Strategy::Interprocedural)
        .trace(ChromeTraceSink::new(buf.clone()))
        .compile()
        .unwrap();
    let out = compiled.run(&BTreeMap::new()).unwrap();
    assert!(out.stats.time_us > 0.0);
    compiled.finish_trace().unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let summary = validate(&text).unwrap_or_else(|e| panic!("invalid Chrome trace: {e}\n{text}"));
    assert!(summary.spans > 0, "expected compile-phase spans");
    assert!(
        summary
            .tracks
            .iter()
            .any(|&(pid, _)| pid == i64::from(PID_COMPILE)),
        "expected a compile track: {:?}",
        summary.tracks
    );
    assert!(
        summary
            .tracks
            .iter()
            .any(|&(pid, _)| pid == i64::from(PID_MACHINE)),
        "expected per-rank machine tracks: {:?}",
        summary.tracks
    );
    // FIG1 communicates, so the machine timeline must carry messages.
    assert!(
        text.contains("\"send\"") || text.contains("\"bcast\""),
        "expected message events in the trace"
    );
}

/// At [`fortrand::CommOpt::Overlap`] the machine timeline carries the
/// nonblocking post/wait events, the validator's pairing discipline holds
/// (no wait before its post, nothing in flight at exit), and the compile
/// track shows the `overlap` optimizer span. dgefa is the program whose
/// pivot broadcast actually pipelines across the loop back-edge.
#[test]
fn chrome_export_carries_overlap_events() {
    use fortrand::corpus::{dgefa_matrix, dgefa_source};
    let src = dgefa_source(16, 4);
    let buf = SharedBuf::default();
    let compiled = Session::new(src.as_str())
        .strategy(Strategy::Interprocedural)
        .comm_opt(fortrand::CommOpt::Overlap)
        .trace(ChromeTraceSink::new(buf.clone()))
        .compile()
        .unwrap();
    let mut init = BTreeMap::new();
    init.insert(compiled.spmd().interner.get("a").unwrap(), dgefa_matrix(16));
    let out = compiled.run(&init).unwrap();
    assert!(out.stats.overlap_posts > 0, "run must post operations");
    compiled.finish_trace().unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let summary = validate(&text).unwrap_or_else(|e| panic!("invalid Chrome trace: {e}"));
    assert!(
        summary.posts > 0 && summary.waits > 0,
        "expected post/wait events on the machine tracks, got {} posts / {} waits",
        summary.posts,
        summary.waits
    );
    assert!(
        text.contains("\"post_bcast\"") && text.contains("\"wait_bcast\""),
        "expected the pipelined broadcast's post/wait pair in the trace"
    );
    assert!(
        text.contains("\"overlap\""),
        "expected the overlap optimizer span on the compile track"
    );
}

/// Attaching a sink must not change what the compiler produces or what
/// the simulated machine computes — tracing is observation only.
#[test]
fn tracing_off_and_on_produce_identical_outputs() {
    let plain = Session::new(FIG1).compile().unwrap();
    let (sink, _events) = MemorySink::new();
    let traced = Session::new(FIG1).trace(sink).compile().unwrap();
    assert_eq!(plain.emit(), traced.emit());

    let r0 = plain.run(&BTreeMap::new()).unwrap();
    let r1 = traced.run(&BTreeMap::new()).unwrap();
    assert_eq!(r0.stats.time_us, r1.stats.time_us);
    assert_eq!(r0.stats.total_msgs, r1.stats.total_msgs);
    assert_eq!(r0.stats.total_bytes, r1.stats.total_bytes);
    assert_eq!(r0.arrays, r1.arrays);
}

/// Running through the facade is a veneer: it must produce the same
/// simulated results as handing the compiled program to the raw runner.
#[test]
fn session_run_is_equivalent_to_raw_runner() {
    let session = Session::new(FIG1).compile().unwrap();
    let machine = fortrand_machine::Machine::new(session.spmd().nprocs);
    let raw_run = fortrand_spmd::try_run_spmd(
        session.spmd(),
        &machine,
        &BTreeMap::new(),
        &fortrand_spmd::ExecOptions::default(),
    )
    .unwrap_or_else(|f| panic!("{f}"));
    let session_run = session.run(&BTreeMap::new()).unwrap();
    assert_eq!(raw_run.stats.time_us, session_run.stats.time_us);
    assert_eq!(raw_run.arrays, session_run.arrays);
}

/// Every dataflow solve the driver runs shows up as a span on the compile
/// track, so `tables passes` is a projection of the trace.
#[test]
fn pass_stats_are_a_projection_of_the_trace() {
    let (sink, events) = MemorySink::new();
    let compiled = Session::new(FIG1).trace(sink).compile().unwrap();
    let solved: Vec<String> = compiled
        .report()
        .pass_stats
        .iter()
        .map(|s| s.problem.clone())
        .collect();
    let events = events.lock().unwrap();
    for problem in &solved {
        assert!(
            events
                .iter()
                .any(|e| e.cat == "solve" && &e.name == problem),
            "pass {problem} missing from trace"
        );
    }
}

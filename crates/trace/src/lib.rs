//! # fortrand-trace
//!
//! Zero-cost-when-off structured tracing for the Fortran D compiler and
//! the machine simulator. The whole stack — driver phases, dataflow
//! solves, per-unit code generation (including the wavefront-parallel
//! schedule), communication-optimizer passes, incremental cache
//! decisions, and the simulated machine's per-rank execution and message
//! traffic — reports into one [`Trace`] handle, which forwards events to
//! a pluggable [`TraceSink`].
//!
//! Two timebases share one timeline, separated by Chrome-trace *process*
//! ids:
//!
//! * [`PID_COMPILE`] — host wall-clock microseconds since the trace was
//!   created. Compilation spans live here; `tid` is 0 for the driver
//!   thread and `1 + worker` for wavefront codegen workers.
//! * [`PID_MACHINE`] — *simulated* microseconds (the machine's virtual
//!   clocks). Per-rank execution slices and message events live here;
//!   `tid` is the rank.
//!
//! A disabled handle ([`Trace::off`], the default everywhere) is a
//! `None`: every recording method starts with one branch and returns, so
//! the traced-off path stays unmeasurable and — because tracing is pure
//! observation — compiled programs and simulated results are byte-for-byte
//! identical with tracing on or off (asserted by `tests/trace.rs`).
//!
//! Exporters ([`sink`]): [`MemorySink`] (inspection + golden span trees),
//! [`JsonLinesSink`] (one JSON object per line), and [`ChromeTraceSink`]
//! (the Chrome trace-event format, loadable in `chrome://tracing` or
//! Perfetto; validated by [`chrome::validate`]).
//!
//! [`json`] is the workspace's one JSON tree, parser and emitter; the
//! sinks share its string escaper and float formatter, and the compiler
//! re-exports it as `fortrand::json`.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod sink;

pub use sink::{ChromeTraceSink, JsonLinesSink, MemorySink, TraceSink};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chrome-trace process id for compilation events (wall-clock timebase).
pub const PID_COMPILE: u32 = 1;
/// Chrome-trace process id for simulated-machine events (virtual-clock
/// timebase).
pub const PID_MACHINE: u32 = 2;

/// One argument value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Integer.
    I(i64),
    /// Float.
    F(f64),
    /// String.
    S(String),
}

impl From<i64> for Arg {
    fn from(v: i64) -> Arg {
        Arg::I(v)
    }
}
impl From<usize> for Arg {
    fn from(v: usize) -> Arg {
        Arg::I(v as i64)
    }
}
impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::I(v as i64)
    }
}
impl From<f64> for Arg {
    fn from(v: f64) -> Arg {
        Arg::F(v)
    }
}
impl From<&str> for Arg {
    fn from(v: &str) -> Arg {
        Arg::S(v.to_string())
    }
}
impl From<String> for Arg {
    fn from(v: String) -> Arg {
        Arg::S(v)
    }
}

/// Event arguments: small ordered key/value list (rendered as the Chrome
/// `args` object).
pub type Args = Vec<(&'static str, Arg)>;

/// Event kind, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Self-contained span with a duration (`ph: "X"`).
    Complete {
        /// Span duration in µs (same timebase as `ts_us`).
        dur_us: f64,
    },
    /// Point event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`); the value rides in `args`.
    Counter,
    /// Track-name metadata (`ph: "M"`); the name is the track label.
    Meta,
}

/// One trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event (or span, or counter) name.
    pub name: String,
    /// Category tag (`cat` in Chrome traces), e.g. `"driver"`, `"solve"`,
    /// `"codegen"`, `"comm-opt"`, `"incremental"`, `"vm"`, `"msg"`.
    pub cat: &'static str,
    /// Process id: [`PID_COMPILE`] or [`PID_MACHINE`].
    pub pid: u32,
    /// Track within the process (worker index or rank).
    pub tid: u32,
    /// Timestamp in µs (wall for compile, simulated for machine).
    pub ts_us: f64,
    /// Event kind.
    pub phase: Phase,
    /// Attached key/value arguments.
    pub args: Args,
}

struct Inner {
    sink: Mutex<Box<dyn TraceSink + Send>>,
    t0: Instant,
}

/// Cheap clonable tracing handle. [`Trace::off`] (the [`Default`]) is
/// disabled: recording methods are a single branch. An enabled handle
/// forwards every event to its sink under a mutex (events from codegen
/// workers and simulator ranks interleave by arrival).
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Trace(on)"
        } else {
            "Trace(off)"
        })
    }
}

impl Trace {
    /// The disabled handle: records nothing, costs one branch per call.
    pub fn off() -> Trace {
        Trace::default()
    }

    /// An enabled handle forwarding events to `sink`.
    pub fn new(sink: impl TraceSink + Send + 'static) -> Trace {
        Trace {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(Box::new(sink)),
                t0: Instant::now(),
            })),
        }
    }

    /// True when events are being recorded. Hot paths may check this once
    /// and skip argument construction entirely.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall-clock µs since the trace was created (the [`PID_COMPILE`]
    /// timebase). 0.0 when disabled.
    #[inline]
    pub fn now_us(&self) -> f64 {
        match &self.inner {
            Some(i) => i.t0.elapsed().as_secs_f64() * 1e6,
            None => 0.0,
        }
    }

    /// Forwards one event to the sink (no-op when disabled).
    pub fn emit(&self, e: Event) {
        if let Some(inner) = &self.inner {
            inner
                .sink
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .event(&e);
        }
    }

    /// Opens a wall-clock span on `(pid, tid)`; the returned guard closes
    /// it on drop. Disabled handles return an inert guard.
    pub fn span(&self, pid: u32, tid: u32, cat: &'static str, name: &str) -> SpanGuard {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat,
                pid,
                tid,
                ts_us: self.now_us(),
                phase: Phase::Begin,
                args: Vec::new(),
            });
            SpanGuard {
                trace: self.clone(),
                pid,
                tid,
                cat,
                name: name.to_string(),
            }
        } else {
            SpanGuard {
                trace: Trace::off(),
                pid,
                tid,
                cat,
                name: String::new(),
            }
        }
    }

    /// Records a self-contained span `[ts_us, ts_us + dur_us]`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: Args,
    ) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat,
                pid,
                tid,
                ts_us,
                phase: Phase::Complete { dur_us },
                args,
            });
        }
    }

    /// Opens a span at an explicit timestamp (simulated-time spans close
    /// with [`Trace::end_at`], not a guard).
    pub fn begin_at(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_us: f64,
        args: Args,
    ) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat,
                pid,
                tid,
                ts_us,
                phase: Phase::Begin,
                args,
            });
        }
    }

    /// Closes the innermost open span on `(pid, tid)` at an explicit
    /// timestamp.
    pub fn end_at(&self, pid: u32, tid: u32, cat: &'static str, name: &str, ts_us: f64) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat,
                pid,
                tid,
                ts_us,
                phase: Phase::End,
                args: Vec::new(),
            });
        }
    }

    /// Records a point event.
    pub fn instant(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_us: f64,
        args: Args,
    ) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat,
                pid,
                tid,
                ts_us,
                phase: Phase::Instant,
                args,
            });
        }
    }

    /// Records a counter sample.
    pub fn counter(&self, pid: u32, tid: u32, name: &str, ts_us: f64, value: f64) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat: "counter",
                pid,
                tid,
                ts_us,
                phase: Phase::Counter,
                args: vec![("value", Arg::F(value))],
            });
        }
    }

    /// Labels a `(pid, tid)` track (rendered as Chrome `thread_name`
    /// metadata).
    pub fn name_track(&self, pid: u32, tid: u32, name: &str) {
        if self.on() {
            self.emit(Event {
                name: name.to_string(),
                cat: "meta",
                pid,
                tid,
                ts_us: 0.0,
                phase: Phase::Meta,
                args: Vec::new(),
            });
        }
    }

    /// Flushes the sink (closes the Chrome JSON document, flushes
    /// writers). Safe to call on a disabled handle. IO errors collected
    /// by streaming sinks surface here.
    pub fn finish(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner
                .sink
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .finish(),
            None => Ok(()),
        }
    }
}

/// Guard for a wall-clock span opened by [`Trace::span`]; emits the
/// matching [`Phase::End`] on drop.
pub struct SpanGuard {
    trace: Trace,
    pid: u32,
    tid: u32,
    cat: &'static str,
    name: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.trace.on() {
            let ts = self.trace.now_us();
            self.trace
                .end_at(self.pid, self.tid, self.cat, &self.name, ts);
        }
    }
}

/// Renders the span tree of `events` — names and nesting only, no
/// timestamps — grouped by `(pid, tid)` track in ascending order. This is
/// the deterministic projection `tests/trace.rs` pins as a golden: span
/// structure is stable run to run even though timings are not.
pub fn span_tree(events: &[Event]) -> String {
    let mut tracks: Vec<(u32, u32)> = events.iter().map(|e| (e.pid, e.tid)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut out = String::new();
    for (pid, tid) in tracks {
        let track: Vec<&Event> = events
            .iter()
            .filter(|e| e.pid == pid && e.tid == tid && e.phase != Phase::Meta)
            .collect();
        if track.is_empty() {
            continue;
        }
        out.push_str(&format!("track {pid}.{tid}\n"));
        let mut depth = 1usize;
        for e in track {
            match &e.phase {
                Phase::Begin => {
                    out.push_str(&format!("{}{} {}\n", "  ".repeat(depth), e.cat, e.name));
                    depth += 1;
                }
                Phase::End => depth = depth.saturating_sub(1).max(1),
                Phase::Complete { .. } => {
                    out.push_str(&format!("{}{} {}\n", "  ".repeat(depth), e.cat, e.name));
                }
                Phase::Instant => {
                    out.push_str(&format!("{}! {}\n", "  ".repeat(depth), e.name));
                }
                Phase::Counter => {
                    out.push_str(&format!("{}# {}\n", "  ".repeat(depth), e.name));
                }
                Phase::Meta => {}
            }
        }
    }
    out
}

// Compile-time thread-safety audit: traces are cloned into codegen pool
// workers and simulated ranks, and sinks aggregate events from all of
// them, so `Trace` and the bundled sinks must stay Send + Sync.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Trace>();
const _: () = assert_send_sync::<sink::MemorySink>();
const _: () = assert_send_sync::<sink::JsonLinesSink<std::io::Sink>>();
const _: () = assert_send_sync::<sink::ChromeTraceSink<std::io::Sink>>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_is_cheap() {
        let t = Trace::off();
        assert!(!t.on());
        t.complete(PID_COMPILE, 0, "x", "y", 0.0, 1.0, vec![]);
        t.counter(PID_MACHINE, 0, "c", 0.0, 1.0);
        let _g = t.span(PID_COMPILE, 0, "x", "y");
        assert!(t.finish().is_ok());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let (sink, events) = MemorySink::new();
        let t = Trace::new(sink);
        {
            let _root = t.span(PID_COMPILE, 0, "driver", "compile");
            t.complete(PID_COMPILE, 0, "solve", "constants", 1.0, 2.0, vec![]);
        }
        t.instant(
            PID_MACHINE,
            3,
            "msg",
            "send",
            10.0,
            vec![("bytes", 16i64.into())],
        );
        let ev = events.lock().unwrap();
        let names: Vec<&str> = ev.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["compile", "constants", "compile", "send"]);
        assert!(matches!(ev[0].phase, Phase::Begin));
        assert!(matches!(ev[2].phase, Phase::End));
    }

    #[test]
    fn span_tree_nests_by_track() {
        let (sink, events) = MemorySink::new();
        let t = Trace::new(sink);
        {
            let _a = t.span(PID_COMPILE, 0, "driver", "compile");
            let _b = t.span(PID_COMPILE, 0, "driver", "parse");
        }
        t.begin_at(PID_MACHINE, 0, "vm", "rank 0", 0.0, vec![]);
        t.end_at(PID_MACHINE, 0, "vm", "rank 0", 5.0);
        let ev = events.lock().unwrap();
        let tree = span_tree(&ev);
        assert_eq!(
            tree,
            "track 1.0\n  driver compile\n    driver parse\ntrack 2.0\n  vm rank 0\n"
        );
    }

    #[test]
    fn guard_closes_in_reverse_order() {
        let (sink, events) = MemorySink::new();
        let t = Trace::new(sink);
        {
            let _a = t.span(PID_COMPILE, 0, "d", "outer");
            let _b = t.span(PID_COMPILE, 0, "d", "inner");
        }
        let ev = events.lock().unwrap();
        let seq: Vec<(String, bool)> = ev
            .iter()
            .map(|e| (e.name.clone(), matches!(e.phase, Phase::Begin)))
            .collect();
        assert_eq!(
            seq,
            vec![
                ("outer".into(), true),
                ("inner".into(), true),
                ("inner".into(), false),
                ("outer".into(), false)
            ]
        );
    }
}

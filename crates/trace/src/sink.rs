//! Trace exporters: where [`Event`]s go.

use crate::json::{push_escaped, push_f64};
use crate::{Arg, Event, Phase};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receives every event from an enabled [`crate::Trace`] handle, in
/// arrival order. `finish` closes the output (called once, from
/// [`crate::Trace::finish`]).
pub trait TraceSink {
    /// One event.
    fn event(&mut self, e: &Event);
    /// Close the output and surface any deferred IO error.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects events into a shared `Vec` for inspection (golden span
/// trees, unit tests).
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Returns the sink and a shared handle to its event buffer.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MemorySink, Arc<Mutex<Vec<Event>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: events.clone(),
            },
            events,
        )
    }
}

impl TraceSink for MemorySink {
    fn event(&mut self, e: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(e.clone());
    }
}

fn arg_json(out: &mut String, a: &Arg) {
    match a {
        Arg::I(v) => {
            let _ = write!(out, "{v}");
        }
        Arg::F(v) => push_f64(out, *v),
        Arg::S(v) => {
            out.push('"');
            push_escaped(out, v);
            out.push('"');
        }
    }
}

/// Renders one event as a Chrome trace-event JSON object (no trailing
/// newline). Shared by both streaming sinks; written by hand rather than
/// through a [`crate::json::Json`] tree, so tracing allocates one string
/// per event.
pub fn event_json(e: &Event) -> String {
    let ph = match e.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Complete { .. } => "X",
        Phase::Instant => "i",
        Phase::Counter => "C",
        Phase::Meta => "M",
    };
    let mut out = String::from("{\"name\":\"");
    if e.phase == Phase::Meta {
        out.push_str("thread_name");
    } else {
        push_escaped(&mut out, &e.name);
    }
    out.push_str("\",\"cat\":\"");
    push_escaped(&mut out, e.cat);
    let _ = write!(out, "\",\"ph\":\"{ph}\",\"ts\":");
    push_f64(&mut out, e.ts_us);
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
    match e.phase {
        Phase::Complete { dur_us } => {
            out.push_str(",\"dur\":");
            push_f64(&mut out, dur_us);
        }
        Phase::Instant => out.push_str(",\"s\":\"t\""),
        _ => {}
    }
    if e.phase == Phase::Meta {
        out.push_str(",\"args\":{\"name\":\"");
        push_escaped(&mut out, &e.name);
        out.push_str("\"}");
    } else if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            push_escaped(&mut out, k);
            out.push_str("\":");
            arg_json(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Streams one JSON object per line (newline-delimited JSON). Easy to
/// grep and post-process; not directly loadable by Chrome.
pub struct JsonLinesSink<W: Write> {
    w: W,
    err: Option<std::io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> JsonLinesSink<W> {
        JsonLinesSink { w, err: None }
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn event(&mut self, e: &Event) {
        if self.err.is_some() {
            return;
        }
        if let Err(err) = writeln!(self.w, "{}", event_json(e)) {
            self.err = Some(err);
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if let Some(err) = self.err.take() {
            return Err(err);
        }
        self.w.flush()
    }
}

/// Streams the Chrome trace-event JSON array format
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
/// Perfetto. IO errors are deferred to [`TraceSink::finish`].
pub struct ChromeTraceSink<W: Write> {
    w: W,
    first: bool,
    err: Option<std::io::Error>,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps a writer; the JSON document opens on the first event (or at
    /// finish if there were none).
    pub fn new(w: W) -> ChromeTraceSink<W> {
        ChromeTraceSink {
            w,
            first: true,
            err: None,
        }
    }

    fn write(&mut self, s: &str) {
        if self.err.is_some() {
            return;
        }
        if let Err(err) = self.w.write_all(s.as_bytes()) {
            self.err = Some(err);
        }
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn event(&mut self, e: &Event) {
        let json = event_json(e);
        if self.first {
            self.first = false;
            self.write("{\"traceEvents\":[\n");
        } else {
            self.write(",\n");
        }
        self.write(&json);
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if self.first {
            self.first = false;
            self.write("{\"traceEvents\":[\n");
        }
        self.write("\n]}\n");
        if let Some(err) = self.err.take() {
            return Err(err);
        }
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, PID_COMPILE, PID_MACHINE};

    #[test]
    fn chrome_sink_emits_valid_document() {
        let buf: Vec<u8> = Vec::new();
        let shared = Arc::new(Mutex::new(buf));
        struct SharedW(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedW {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let t = Trace::new(ChromeTraceSink::new(SharedW(shared.clone())));
        {
            let _s = t.span(PID_COMPILE, 0, "driver", "compile");
        }
        t.complete(
            PID_MACHINE,
            2,
            "msg",
            "send",
            1.5,
            0.25,
            vec![("bytes", 128i64.into()), ("dst", 3i64.into())],
        );
        t.name_track(PID_MACHINE, 2, "rank 2");
        t.finish().unwrap();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        crate::chrome::validate(&text).unwrap();
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"thread_name\""));
    }

    #[test]
    fn jsonl_sink_one_object_per_line() {
        let shared = Arc::new(Mutex::new(Vec::new()));
        struct SharedW(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedW {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let t = Trace::new(JsonLinesSink::new(SharedW(shared.clone())));
        t.instant(
            PID_COMPILE,
            0,
            "driver",
            "hit",
            3.0,
            vec![("unit", "dgefa".into())],
        );
        t.counter(PID_MACHINE, 1, "pool_reuses", 9.0, 42.0);
        t.finish().unwrap();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            crate::json::parse(l).unwrap();
        }
    }

    #[test]
    fn floats_render_parseably() {
        let fmt_f64 = |v: f64| {
            let mut s = String::new();
            push_f64(&mut s, v);
            s
        };
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "0");
        let v: f64 = fmt_f64(0.1 + 0.2).parse().unwrap();
        assert!((v - 0.3).abs() < 1e-12);
    }

    #[test]
    fn escapes_strings() {
        let e = Event {
            name: "a\"b\\c\nd".to_string(),
            cat: "x",
            pid: 1,
            tid: 0,
            ts_us: 0.0,
            phase: Phase::Instant,
            args: vec![("k", Arg::S("\t".to_string()))],
        };
        let json = event_json(&e);
        crate::json::parse(&json).unwrap();
    }
}

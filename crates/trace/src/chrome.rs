//! Chrome trace-event format validation.
//!
//! Re-parses an exported trace with the workspace's one JSON parser
//! ([`crate::json`]) and checks that it is structurally a trace-event
//! document: a top-level `{"traceEvents": [...]}` whose entries each carry
//! `name`/`ph`/`ts`/`pid`/`tid` with the right types, `ph` drawn from the
//! phases we emit, `dur` on complete events, and balanced B/E pairs per
//! `(pid, tid)` track.

use crate::json::{self, Json};
use std::collections::HashMap;

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) | Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn field<'a>(e: &'a Json, key: &str, idx: usize) -> Result<&'a Json, String> {
    e.get(key)
        .ok_or_else(|| format!("event {idx}: missing \"{key}\""))
}

fn num(e: &Json, key: &str, idx: usize) -> Result<f64, String> {
    let v = field(e, key, idx)?;
    v.as_f64().ok_or_else(|| {
        format!(
            "event {idx}: \"{key}\" must be a number, got {}",
            type_name(v)
        )
    })
}

fn string<'a>(e: &'a Json, key: &str, idx: usize) -> Result<&'a str, String> {
    let v = field(e, key, idx)?;
    v.as_str().ok_or_else(|| {
        format!(
            "event {idx}: \"{key}\" must be a string, got {}",
            type_name(v)
        )
    })
}

/// Summary of a validated trace, for quick assertions in tests and the
/// `tables --trace` self-check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events, including metadata.
    pub events: usize,
    /// Complete ("X") + matched B/E span count.
    pub spans: usize,
    /// Instant ("i") event count.
    pub instants: usize,
    /// Counter ("C") sample count.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events, in
    /// order of first appearance.
    pub tracks: Vec<(i64, i64)>,
    /// Nonblocking post events (`post_send`/`post_recv`/`post_bcast`).
    pub posts: usize,
    /// Nonblocking completion events (`wait_send`/`wait_recv`/`wait_bcast`).
    pub waits: usize,
}

/// Validates `text` as a Chrome trace-event document and returns a
/// summary. Checks JSON well-formedness, the `traceEvents` envelope,
/// per-event required fields and types, known phases, `dur` on "X"
/// events, and that every "B" has a matching "E" per `(pid, tid)` track.
///
/// Nonblocking-communication events are checked for pairing discipline
/// per track: a `wait_send`/`wait_bcast` may never appear before its
/// matching post on the same track (events per track are in emission
/// order), and every posted send/broadcast must be waited for by the end
/// of the trace — an in-flight operation left open at exit is a bug in
/// the overlap transformation, not a rendering choice.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let root = json::parse(text)?;
    if root.as_obj().is_none() {
        return Err(format!(
            "top level must be an object, got {}",
            type_name(&root)
        ));
    }
    let events = match root.get("traceEvents") {
        Some(Json::Arr(a)) => a,
        Some(other) => {
            return Err(format!(
                "\"traceEvents\" must be an array, got {}",
                type_name(other)
            ))
        }
        None => return Err("missing \"traceEvents\"".to_string()),
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut open: HashMap<(i64, i64), Vec<&str>> = HashMap::new();
    // Outstanding posted [sends, broadcasts] per track (post − wait).
    let mut in_flight: HashMap<(i64, i64), [i64; 2]> = HashMap::new();
    for (idx, e) in events.iter().enumerate() {
        if e.as_obj().is_none() {
            return Err(format!(
                "event {idx}: must be an object, got {}",
                type_name(e)
            ));
        }
        let name = string(e, "name", idx)?;
        let ph = string(e, "ph", idx)?;
        let ts = num(e, "ts", idx)?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {idx}: non-finite or negative ts {ts}"));
        }
        let pid = num(e, "pid", idx)? as i64;
        let tid = num(e, "tid", idx)? as i64;
        let track = (pid, tid);
        if ph != "M" && ph != "E" {
            if !summary.tracks.contains(&track) {
                summary.tracks.push(track);
            }
            if let Some((dir @ ("post" | "wait"), op @ ("send" | "recv" | "bcast"))) =
                name.split_once('_')
            {
                let posted = dir == "post";
                if posted {
                    summary.posts += 1;
                } else {
                    summary.waits += 1;
                }
                if op != "recv" {
                    let fl = in_flight.entry(track).or_default();
                    let n = &mut fl[usize::from(op == "bcast")];
                    *n += if posted { 1 } else { -1 };
                    if *n < 0 {
                        return Err(format!(
                            "event {idx}: track {pid}.{tid} has \"{name}\" with no \
                             matching post"
                        ));
                    }
                }
            }
        }
        match ph {
            "B" => open.entry(track).or_default().push(name),
            "E" => match open.entry(track).or_default().pop() {
                Some(opened) if opened == name => summary.spans += 1,
                Some(opened) => {
                    return Err(format!(
                        "event {idx}: track {pid}.{tid} closes \"{name}\" but \
                         \"{opened}\" is open"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {idx}: track {pid}.{tid} has \"E\" with no open span"
                    ))
                }
            },
            "X" => {
                let dur = num(e, "dur", idx)?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {idx}: bad dur {dur}"));
                }
                summary.spans += 1;
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "M" => {}
            other => return Err(format!("event {idx}: unknown phase \"{other}\"")),
        }
    }
    for ((pid, tid), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("track {pid}.{tid}: span \"{name}\" never closed"));
        }
    }
    for ((pid, tid), [sends, bcasts]) in &in_flight {
        if *sends != 0 || *bcasts != 0 {
            return Err(format!(
                "track {pid}.{tid}: {sends} posted send(s) and {bcasts} posted \
                 broadcast(s) still in flight at end of trace"
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_minimal_trace() {
        let s = validate(
            r#"{"traceEvents":[
                {"name":"compile","cat":"driver","ph":"B","ts":0,"pid":1,"tid":0},
                {"name":"solve","cat":"solve","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":0},
                {"name":"compile","cat":"driver","ph":"E","ts":10,"pid":1,"tid":0},
                {"name":"send","cat":"msg","ph":"i","ts":3,"pid":2,"tid":1,"s":"t"},
                {"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"rank 1"}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.instants, 1);
        assert_eq!(s.tracks.len(), 2);
        assert_eq!(s.events, 5);
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let err = validate(r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":0}]}"#)
            .unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        let err = validate(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":0,"pid":1,"tid":0},
                {"name":"b","ph":"E","ts":1,"pid":1,"tid":0}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("closes"), "{err}");
    }

    #[test]
    fn counts_and_pairs_post_wait_events() {
        let s = validate(
            r#"{"traceEvents":[
                {"name":"post_send","cat":"msg","ph":"X","ts":0,"dur":1,"pid":2,"tid":0},
                {"name":"wait_send","cat":"msg","ph":"i","ts":5,"pid":2,"tid":0},
                {"name":"post_bcast","cat":"coll","ph":"i","ts":6,"pid":2,"tid":1},
                {"name":"wait_bcast","cat":"coll","ph":"X","ts":9,"dur":2,"pid":2,"tid":1}
            ]}"#,
        )
        .unwrap();
        assert_eq!(s.posts, 2);
        assert_eq!(s.waits, 2);
    }

    #[test]
    fn rejects_wait_before_post() {
        let err = validate(
            r#"{"traceEvents":[
                {"name":"wait_bcast","cat":"coll","ph":"X","ts":0,"dur":1,"pid":2,"tid":0}
            ]}"#,
        )
        .unwrap_err();
        assert!(
            err.contains("no \u{22}wait_bcast\u{22}") || err.contains("matching post"),
            "{err}"
        );
    }

    #[test]
    fn rejects_unwaited_post() {
        let err = validate(
            r#"{"traceEvents":[
                {"name":"post_send","cat":"msg","ph":"X","ts":0,"dur":1,"pid":2,"tid":0}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("in flight"), "{err}");
    }

    #[test]
    fn rejects_missing_fields() {
        let err = validate(r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":0}]}"#)
            .unwrap_err();
        assert!(err.contains("dur"), "{err}");
        let err = validate(r#"{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":0}]}"#).unwrap_err();
        assert!(err.contains("name"), "{err}");
    }
}

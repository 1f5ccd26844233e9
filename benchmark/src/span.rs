//! The harness's own span list for the traced pass.
//!
//! Spans are recorded around calls into the crates' public functions —
//! nothing is added to the program. They stay in memory until the run
//! ends and are then written out as one JSON file.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The traced iteration the span belongs to.
    pub iter: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: usize,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Later spans belong to traced iteration `iter`.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter;
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = now;
        self.spans[id].ms()
    }

    /// Times one call as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// A span's duration minus the part its direct children cover, in ms.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    /// Ids of the spans called `name`.
    pub fn ids(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iter", Json::Num(s.iter as f64)),
                        ("self_ms", Json::Num(self.self_ms(id))),
                    ])
                })
                .collect(),
        )
    }
}

//! The `serve_edit_loop` workload: an in-process daemon and the harness's
//! own closed-loop client.
//!
//! `fortrand_serve::loadgen::run_load` is not used: it writes each request
//! and its newline as two TCP segments without `TCP_NODELAY`, so Nagle's
//! algorithm and delayed ACKs dominate what it measures (192 compiles took
//! 17.3 s wall on 0.97 s CPU). This client sends request and newline in
//! one `write_all` on a no-delay socket.

use crate::span::Spans;
use crate::workloads::{Exact, Oracle, Rng};
use fortrand::json::{self as wire, Json as Wire};
use fortrand::{corpus, Session};
use fortrand_serve::server::ServerHandle;
use fortrand_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const VARIANTS: usize = 8;
/// Sessions of the warm-up: every variant twice, so both source states of
/// each are in the store before anything is timed.
pub const WARMUP_SESSIONS: usize = 2 * VARIANTS;

/// What a `run` response must report for one variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunFacts {
    pub time_us_x100: i128,
    pub msgs: i128,
    pub bytes: i128,
}

pub struct Variant {
    pub source: String,
    pub want: RunFacts,
}

/// The generated inputs: eight coefficient variants of one program, each
/// with the `run` answer a direct `Session` gives for it.
pub struct Inputs {
    pub variants: Vec<Variant>,
    /// Counters and node-program size of the first variant.
    pub exact: Exact,
}

fn base_source() -> String {
    corpus::wide_corpus(24, 128, 4)
}

pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng(seed);
    let mut variants = Vec::new();
    let mut exact = None;
    let mut coefs: Vec<usize> = Vec::new();
    while coefs.len() < VARIANTS {
        // Three digits, none of them a trailing zero, so every variant's
        // node program has the same size whatever the seed.
        let c = 511 + rng.below(480);
        if !c.is_multiple_of(10) && !coefs.contains(&c) {
            coefs.push(c);
        }
    }
    for c in coefs {
        let source = base_source().replace("0.5 * (u(i)", &format!("0.{c} * (u(i)"));
        let compiled = Session::new(source.as_str())
            .compile()
            .map_err(|e| e.to_string())?;
        let out = compiled.run(&BTreeMap::new()).map_err(|e| e.to_string())?;

        // The direct session is itself checked against the sequential
        // interpreter, so a `run` answer equal to it is a verified one.
        Oracle::run(&source, &[])?
            .verify(&compiled, &out.arrays)
            .map_err(|e| format!("variant 0.{c}: {e}"))?;

        exact.get_or_insert(Exact {
            model_time_us: out.stats.time_us,
            msgs: out.stats.total_msgs,
            bytes: out.stats.total_bytes,
            node_prog_bytes: compiled.emit().len(),
        });
        variants.push(Variant {
            source,
            want: RunFacts {
                time_us_x100: (out.stats.time_us * 100.0) as i128,
                msgs: out.stats.total_msgs as i128,
                bytes: out.stats.total_bytes as i128,
            },
        });
    }
    Ok(Inputs {
        variants,
        exact: exact.expect("there is at least one variant"),
    })
}

/// How a request reaches the server: over a socket, or straight into
/// `Server::handle_line`.
pub trait Transport {
    fn ask(&mut self, request: &str) -> Result<String, String>;
}

pub struct TcpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl TcpClient {
    pub fn connect(addr: SocketAddr) -> Result<TcpClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(TcpClient {
            writer,
            reader: BufReader::new(stream),
            line: Vec::new(),
        })
    }
}

impl Transport for TcpClient {
    fn ask(&mut self, request: &str) -> Result<String, String> {
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        self.writer
            .write_all(&self.line)
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed".into());
        }
        Ok(response)
    }
}

pub struct Direct<'a>(pub &'a Server);

impl Transport for Direct<'_> {
    fn ask(&mut self, request: &str) -> Result<String, String> {
        Ok(self.0.handle_line(request))
    }
}

/// Client-observed latencies in ms, one vector per step of the session
/// script, and the counts beside them.
#[derive(Default)]
pub struct Observed {
    pub open: Vec<f64>,
    pub edit: Vec<f64>,
    /// The compile after `open`: a whole program new to the session.
    pub compile_first: Vec<f64>,
    /// The compiles after an `edit`.
    pub compile_edit: Vec<f64>,
    pub run: Vec<f64>,
    pub close: Vec<f64>,
    pub session: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Units each after-edit compile recompiled and reused, as the
    /// server's answer counts them.
    pub recompiled: Vec<f64>,
    pub reused: Vec<f64>,
    /// The `run` answer of the last verified session.
    pub last_run: Option<RunFacts>,
    /// Traced pass only: a span per session and per request.
    pub spans: Option<Spans>,
}

impl Observed {
    /// Every compile request, first and after-edit alike.
    pub fn compiles(&self) -> Vec<f64> {
        self.compile_first
            .iter()
            .chain(&self.compile_edit)
            .copied()
            .collect()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// One timed request; returns the parsed answer when it was
    /// `{"ok":true,...}`, and counts a failure otherwise.
    fn ask(
        &mut self,
        via: &mut dyn Transport,
        step: &'static str,
        request: &str,
    ) -> (f64, Option<Wire>) {
        self.requests += 1;
        self.bytes_out += request.len() as u64 + 1;
        let span = self.spans.as_mut().map(|s| s.enter(step));
        let t = Instant::now();
        let answer = via.ask(request);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), span) {
            spans.exit(id);
        }
        let parsed = answer.and_then(|line| {
            self.bytes_in += line.len() as u64;
            let obj = wire::parse(&line).map_err(|e| format!("bad response: {e}"))?;
            match obj.get("ok") {
                Some(Wire::Bool(true)) => Ok(obj),
                _ => Err(obj
                    .get("error")
                    .and_then(Wire::as_str)
                    .unwrap_or("request failed")
                    .to_string()),
            }
        });
        match parsed {
            Ok(obj) => (ms, Some(obj)),
            Err(e) => {
                let cmd: String = request.chars().take(40).collect();
                self.fail(format!("{cmd}…: {e}"));
                (ms, None)
            }
        }
    }

    /// One session: open → compile → (edit → compile)×2 → run → close.
    /// The two edits toggle the second loop's coefficient and back, so the
    /// program that runs is the variant itself.
    pub fn session(&mut self, via: &mut dyn Transport, sid: &str, variant: &Variant) {
        let request = |cmd: &str, extra: &[(&str, &str)]| {
            let mut fields = vec![
                ("cmd".to_string(), Wire::str(cmd)),
                ("session".to_string(), Wire::str(sid)),
            ];
            fields.extend(extra.iter().map(|&(k, v)| (k.to_string(), Wire::str(v))));
            Wire::Obj(fields).compact()
        };
        let compile = request("compile", &[]);
        let session_span = self.spans.as_mut().map(|s| s.enter("serve.session"));
        let start = Instant::now();

        let (ms, _) = self.ask(
            via,
            "serve.open",
            &request("open", &[("source", &variant.source)]),
        );
        self.open.push(ms);
        let (ms, _) = self.ask(via, "serve.compile", &compile);
        self.compile_first.push(ms);
        for (find, replace) in [
            ("0.5 * (v(i)", "0.25 * (v(i)"),
            ("0.25 * (v(i)", "0.5 * (v(i)"),
        ] {
            let edit = request("edit", &[("find", find), ("replace", replace)]);
            let (ms, _) = self.ask(via, "serve.edit", &edit);
            self.edit.push(ms);
            let (ms, answer) = self.ask(via, "serve.compile", &compile);
            self.compile_edit.push(ms);
            if let Some(obj) = answer {
                let count = |k: &str| obj.get(k).and_then(Wire::as_int).unwrap_or(0) as f64;
                self.recompiled.push(count("recompiled"));
                self.reused.push(count("reused"));
            }
        }
        let (ms, answer) = self.ask(via, "serve.run", &request("run", &[]));
        self.run.push(ms);
        if let Some(obj) = answer {
            let field = |k: &str| obj.get(k).and_then(Wire::as_int).unwrap_or(-1);
            let got = RunFacts {
                time_us_x100: field("time_us_x100"),
                msgs: field("msgs"),
                bytes: field("bytes"),
            };
            if got == variant.want {
                self.last_run = Some(got);
            } else {
                self.fail(format!(
                    "session {sid}: run answered {got:?}, oracle has {:?}",
                    variant.want
                ));
            }
        }
        let (ms, _) = self.ask(via, "serve.close", &request("close", &[]));
        self.close.push(ms);
        self.session.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), session_span) {
            spans.exit(id);
        }
    }
}

/// A running daemon with a warm store.
pub struct Daemon {
    pub inputs: Inputs,
    pub server: Arc<Server>,
    handle: ServerHandle,
}

impl Daemon {
    /// Generates the variants and their oracles, starts the server and
    /// runs the warm-up sessions over a socket.
    pub fn set_up(seed: u64, warmup_sessions: usize) -> Result<Daemon, String> {
        let inputs = inputs(seed)?;
        let server = Server::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let handle = server
            .spawn("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let daemon = Daemon {
            inputs,
            server,
            handle,
        };
        let mut warm = Observed::default();
        let mut client = TcpClient::connect(daemon.addr())?;
        for s in 0..warmup_sessions {
            warm.session(
                &mut client,
                &format!("warm-{s}"),
                &daemon.inputs.variants[s % VARIANTS],
            );
        }
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(daemon),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// Closed loop: one connection on the calling thread, sending its next
    /// request only after the previous answer, until `until` says stop
    /// (asked before each session with the count so far).
    pub fn closed_loop(
        &self,
        seed: u64,
        traced: bool,
        until: &dyn Fn(usize) -> bool,
    ) -> Result<Observed, String> {
        let mut client = TcpClient::connect(self.addr())?;
        // The seed drives the variant order.
        let mut rng = Rng(seed ^ 0xA24B_AED4_963E_E407);
        let mut seen = Observed {
            spans: traced.then(Spans::new),
            ..Observed::default()
        };
        let mut s = 0;
        while !until(s) {
            let variant = &self.inputs.variants[rng.below(VARIANTS)];
            seen.session(&mut client, &format!("c-{s}"), variant);
            s += 1;
        }
        Ok(seen)
    }

    /// Stops the accept loop and joins every connection thread.
    pub fn shut_down(self) {
        self.handle.shutdown();
    }
}

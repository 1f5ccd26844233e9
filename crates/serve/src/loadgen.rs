//! Load-generator harness: thousands of synthetic clients over the wire.
//!
//! Drives a freshly spawned [`Server`] with `clients` synthetic sessions
//! over TCP, each performing an open → compile → (edit → compile)×rounds
//! script against a [`fortrand::corpus::wide_corpus`] variant. Clients
//! are assigned `variant = id % variants`, so most compiles repeat a
//! program some earlier session already compiled — the cross-session
//! hit-rate scenario the shared [`fortrand::ArtifactStore`] exists for.
//!
//! Two phases, same total work:
//!
//! 1. **multi** — `concurrency` worker threads drain the client queue
//!    concurrently (aggregate throughput, client-side compile latency
//!    percentiles, store hit rate);
//! 2. **baseline** — every script replayed one client at a time against
//!    a *fresh* server (the single-client sequential reference).
//!
//! All report numbers are integers (µs, or ratios ×100), and
//! `fortrand-serve load` prints them as JSON. `fortrand::json` reads and
//! writes floats too; the integer encodings stay so that the load report
//! keeps its byte form.

use crate::server::{Server, ServerConfig};
use fortrand::corpus::wide_corpus;
use fortrand::json::{self, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load-test shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Synthetic clients (sessions) to run.
    pub clients: usize,
    /// Concurrent client-runner threads in the multi phase.
    pub concurrency: usize,
    /// Edit → compile rounds per client after the initial compile.
    pub rounds: usize,
    /// Distinct program variants; client `id` gets `id % variants`.
    pub variants: usize,
    /// `wide_corpus` width (procedures per program).
    pub procs: usize,
    /// `wide_corpus` array extent.
    pub n: i64,
    /// `wide_corpus` processor count.
    pub nprocs: usize,
    /// Server codegen pool threads.
    pub threads: usize,
    /// Server artifact-store capacity (approximate bytes).
    pub capacity: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 1000,
            concurrency: 32,
            rounds: 2,
            variants: 8,
            procs: 6,
            n: 64,
            nprocs: 4,
            threads: 4,
            capacity: 256 << 20,
        }
    }
}

/// Everything the load test measured. Integer units throughout: `*_us`
/// fields are microseconds, `*_x100` fields are ratios scaled by 100.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Clients run.
    pub clients: u64,
    /// Compile requests issued (across both phases this is per phase —
    /// both phases do the same work).
    pub compiles: u64,
    /// Requests that returned `{"ok":false}` or failed at the IO layer
    /// in the multi phase. `tables serve` exits nonzero unless it is zero.
    pub failures: u64,
    /// Multi-phase wall time.
    pub wall_us: u64,
    /// Multi-phase aggregate compile throughput, compiles/second × 100.
    pub throughput_x100: u64,
    /// Client-observed compile latency percentiles (multi phase).
    pub p50_us: u64,
    /// 95th percentile compile latency.
    pub p95_us: u64,
    /// 99th percentile compile latency.
    pub p99_us: u64,
    /// Shared-store hit rate over the multi phase, percent (0–100).
    pub hit_rate_x100: u64,
    /// Baseline (sequential) wall time for the same work.
    pub baseline_wall_us: u64,
    /// Baseline throughput, compiles/second × 100.
    pub baseline_throughput_x100: u64,
    /// Multi vs baseline throughput ratio × 100 (`200` = 2×).
    pub speedup_x100: u64,
}

impl LoadReport {
    /// The report as a JSON object (what `fortrand-serve load` prints).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clients".into(), Json::Int(self.clients as i128)),
            ("compiles".into(), Json::Int(self.compiles as i128)),
            ("failures".into(), Json::Int(self.failures as i128)),
            ("wall_us".into(), Json::Int(self.wall_us as i128)),
            (
                "throughput_x100".into(),
                Json::Int(self.throughput_x100 as i128),
            ),
            ("p50_us".into(), Json::Int(self.p50_us as i128)),
            ("p95_us".into(), Json::Int(self.p95_us as i128)),
            ("p99_us".into(), Json::Int(self.p99_us as i128)),
            (
                "hit_rate_x100".into(),
                Json::Int(self.hit_rate_x100 as i128),
            ),
            (
                "baseline_wall_us".into(),
                Json::Int(self.baseline_wall_us as i128),
            ),
            (
                "baseline_throughput_x100".into(),
                Json::Int(self.baseline_throughput_x100 as i128),
            ),
            ("speedup_x100".into(), Json::Int(self.speedup_x100 as i128)),
        ])
    }
}

/// One client's scripted conversation. Returns per-compile latencies in
/// µs, or an error description on the first failed request.
fn run_client(
    addr: std::net::SocketAddr,
    id: usize,
    source: &str,
    rounds: usize,
) -> Result<Vec<u64>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(rounds + 1);
    let sid = format!("c{id}");

    let mut ask = |req: &str, timed: Option<&mut Vec<u64>>| -> Result<(), String> {
        let start = Instant::now();
        writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if line.is_empty() {
            return Err("connection closed".into());
        }
        if let Some(lat) = timed {
            lat.push(start.elapsed().as_micros() as u64);
        }
        let obj = json::parse(&line).map_err(|e| format!("bad response json: {e}"))?;
        match obj.get("ok") {
            Some(Json::Bool(true)) => Ok(()),
            _ => Err(obj
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request failed")
                .to_string()),
        }
    };

    let open = Json::Obj(vec![
        ("cmd".into(), Json::str("open")),
        ("session".into(), Json::str(&sid)),
        ("source".into(), Json::str(source)),
    ])
    .compact();
    ask(&open, None)?;
    let compile = format!(r#"{{"cmd":"compile","session":"{sid}"}}"#);
    ask(&compile, Some(&mut latencies))?;
    for round in 0..rounds {
        // Alternate the v-loop coefficient back and forth: two source
        // states per variant, so every state recurs across clients.
        let (find, replace) = if round % 2 == 0 {
            ("0.5 * (v(i)", "0.25 * (v(i)")
        } else {
            ("0.25 * (v(i)", "0.5 * (v(i)")
        };
        let edit = Json::Obj(vec![
            ("cmd".into(), Json::str("edit")),
            ("session".into(), Json::str(&sid)),
            ("find".into(), Json::str(find)),
            ("replace".into(), Json::str(replace)),
        ])
        .compact();
        ask(&edit, None)?;
        ask(&compile, Some(&mut latencies))?;
    }
    let close = format!(r#"{{"cmd":"close","session":"{sid}"}}"#);
    ask(&close, None)?;
    Ok(latencies)
}

/// Distinct coefficient per variant so variants never share artifacts
/// (but clients of the *same* variant share everything).
fn variant_source(cfg: &LoadConfig, v: usize) -> String {
    let coeff = format!("0.{:03} * (u(i)", 500 + (v % 499));
    wide_corpus(cfg.procs, cfg.n, cfg.nprocs).replace("0.5 * (u(i)", &coeff)
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p as usize / 100]
}

fn throughput_x100(compiles: u64, wall_us: u64) -> u64 {
    if wall_us == 0 {
        return 0;
    }
    (compiles as u128 * 100 * 1_000_000 / wall_us as u128) as u64
}

struct PhaseResult {
    wall_us: u64,
    latencies: Vec<u64>,
    failures: u64,
    hit_rate_x100: u64,
}

/// Runs every client script against a fresh server, with `concurrency`
/// runner threads (1 = the sequential baseline).
fn run_phase(cfg: &LoadConfig, sources: &[String], concurrency: usize) -> PhaseResult {
    let server = Server::new(ServerConfig {
        capacity: cfg.capacity,
        threads: cfg.threads,
        opts: fortrand::CompileOptions::default(),
    });
    let handle = server.spawn("127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr;

    let queue: Arc<Mutex<VecDeque<usize>>> = Arc::new(Mutex::new((0..cfg.clients).collect()));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let runners: Vec<_> = (0..concurrency.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let latencies = Arc::clone(&latencies);
            let failures = Arc::clone(&failures);
            let sources = sources.to_vec();
            let rounds = cfg.rounds;
            std::thread::spawn(move || loop {
                let id = match queue.lock().expect("queue").pop_front() {
                    Some(id) => id,
                    None => break,
                };
                match run_client(addr, id, &sources[id % sources.len()], rounds) {
                    Ok(lat) => latencies.lock().expect("latencies").extend(lat),
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for r in runners {
        let _ = r.join();
    }
    let wall_us = start.elapsed().as_micros() as u64;
    let hit_rate_x100 = server.store().stats().hit_rate_x100();
    handle.shutdown();

    let mut latencies = Arc::try_unwrap(latencies)
        .expect("runners joined")
        .into_inner()
        .expect("latencies lock");
    latencies.sort_unstable();
    PhaseResult {
        wall_us,
        latencies,
        failures: failures.load(Ordering::Relaxed),
        hit_rate_x100,
    }
}

/// Runs the full load test: the concurrent multi phase, then the
/// sequential baseline over the same scripts, and derives the report.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let sources: Vec<String> = (0..cfg.variants.max(1))
        .map(|v| variant_source(cfg, v))
        .collect();
    let multi = run_phase(cfg, &sources, cfg.concurrency);
    let baseline = run_phase(cfg, &sources, 1);

    let compiles = (cfg.clients * (cfg.rounds + 1)) as u64;
    let throughput = throughput_x100(compiles, multi.wall_us);
    let baseline_throughput = throughput_x100(compiles, baseline.wall_us);
    LoadReport {
        clients: cfg.clients as u64,
        compiles,
        failures: multi.failures + baseline.failures,
        wall_us: multi.wall_us,
        throughput_x100: throughput,
        p50_us: percentile(&multi.latencies, 50),
        p95_us: percentile(&multi.latencies, 95),
        p99_us: percentile(&multi.latencies, 99),
        hit_rate_x100: multi.hit_rate_x100,
        baseline_wall_us: baseline.wall_us,
        baseline_throughput_x100: baseline_throughput,
        speedup_x100: if multi.wall_us == 0 {
            0
        } else {
            (baseline.wall_us as u128 * 100 / multi.wall_us as u128) as u64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_load_completes_without_failures_and_shares_the_store() {
        let cfg = LoadConfig {
            clients: 12,
            concurrency: 4,
            rounds: 2,
            variants: 2,
            procs: 4,
            n: 32,
            nprocs: 4,
            threads: 2,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.failures, 0, "{report:?}");
        assert_eq!(report.compiles, 36);
        assert!(
            report.hit_rate_x100 >= 50,
            "cross-session hit rate too low: {report:?}"
        );
        assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
        let json = report.to_json();
        assert!(json.get("speedup_x100").is_some());
    }
}

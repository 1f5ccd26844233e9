//! One benchmark for the whole pipeline: source string → verified arrays.
//!
//! ```text
//! fortrand-benchmark run [--seed N] [--seconds S] [--out FILE] [--smoke]
//!     every workload: passes A and B, then the traced pass; each workload
//!     of each pass in a fresh child process; writes the result file
//! fortrand-benchmark run --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     one JSON object (the form a driver consumes)
//! fortrand-benchmark compare A.json B.json
//! fortrand-benchmark describe        prints BENCHMARK.json
//! ```
//!
//! See README.md for the workloads, the metrics and what each should move.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod serve;
mod span;
mod stats;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Exact, Pipeline, SERVE};

/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Untimed iterations at the end of each set-up.
const WARMUP: usize = 1;
/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 1992;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// One iteration per workload, one set-up, no traced pass.
    smoke: bool,
    /// Where a child writes its samples for the parent.
    detail: Option<PathBuf>,
    /// Where a full run writes its result file.
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        detail: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--detail" => a.detail = Some(value.into()),
            "--out" => a.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// `benchmark/out` under the current directory when that is the
/// repository root, else beside this crate's manifest.
fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    let base = if here.join("Cargo.toml").exists() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The value reported for a metric's samples: the pace of a wall-clock
/// timing (see `stats`), the fastest of the few set-ups, the median of
/// anything else (which is measured once per run).
fn reported(name: &str, samples: &[f64]) -> f64 {
    if name.ends_with("_wall_ms") {
        stats::pace(samples)
    } else if name == "setup_s" {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        stats::median(samples)
    }
}

/// What one workload of one pass measured: every metric's samples (one
/// sample for a metric measured once), and the operations behind them.
struct Outcome {
    workload: String,
    seed: u64,
    traced: bool,
    pinned_cpu: Option<usize>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    fn new(args: &Args, workload: &str, pinned_cpu: Option<usize>) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed: args.seed,
            traced: args.traced,
            pinned_cpu,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Counts `count` failed operations, of which `listed` are described.
    fn fail(&mut self, count: u64, listed: Vec<String>) {
        self.failed += count;
        for what in &listed {
            eprintln!("FAILED {}: {what}", self.workload);
        }
        self.failures.extend(listed);
    }

    /// Takes over the values, notes and failed guards of a traced pass.
    fn absorb(&mut self, layers: layers::Layers) {
        self.notes = layers.notes;
        self.fail(layers.failures.len() as u64, layers.failures);
        for (name, value) in layers.values {
            self.push(name, vec![value]);
        }
    }

    fn push(&mut self, name: &'static str, samples: Vec<f64>) {
        self.samples.push((name, samples));
    }

    fn push_exact(&mut self, exact: Exact) {
        self.push("model_time", vec![exact.model_time_us]);
        self.push("msgs", vec![exact.msgs as f64]);
        self.push("bytes", vec![exact.bytes as f64]);
        self.push("node_prog_bytes", vec![exact.node_prog_bytes as f64]);
    }

    fn value(&self, name: &str) -> f64 {
        let samples = self.samples.iter().find(|(n, _)| *n == name);
        samples.map_or(0.0, |(_, s)| reported(name, s))
    }

    /// Every metric by name with its unit, then — as the last line — the
    /// one JSON object a driver reads.
    fn print(&self) {
        let listed: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect()
        };
        println!(
            "# {} seed {} {} pass, pinned to cpu {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.pinned_cpu
                .map_or("none".to_string(), |c| c.to_string()),
        );
        for &(name, unit) in &listed {
            let samples = self
                .samples
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.as_slice());
            let s = stats::summarize(samples.unwrap_or(&[]));
            print!("{name:<34} {:>16.6} {unit:<7}", self.value(name));
            if s.n > 1 {
                print!(
                    " median {:.6} q1 {:.6} q3 {:.6} n {}",
                    s.median, s.q1, s.q3, s.n
                );
                if let Some((p, v)) = s.tail {
                    print!(" p{p} {v:.6}");
                }
            }
            println!();
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        let metrics = listed.iter().map(|&(name, unit)| {
            let fields = [
                ("value", Json::Num(self.value(name))),
                ("unit", Json::str(unit)),
            ];
            (name, Json::obj(fields))
        });
        let line = Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", line.compact());
    }

    fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "samples",
                Json::obj(self.samples.iter().map(|(n, s)| (*n, Json::nums(s)))),
            ),
        ])
    }
}

/// Times one set-up into `seconds`.
fn timed_set_up<T>(
    seconds: &mut Vec<f64>,
    set_up: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let t = Instant::now();
    let ready = set_up()?;
    seconds.push(t.elapsed().as_secs_f64());
    Ok(ready)
}

/// Set-ups a run times besides the one it measures on. They run after the
/// measurement, so that the set-ups span the run and a slow stretch of the
/// host does not cover them all.
fn extra_set_ups(args: &Args) -> usize {
    if args.smoke || args.traced {
        0
    } else {
        SETUPS - 1
    }
}

fn run_pipeline(args: &Args, name: &str) -> Result<Outcome, String> {
    // The event machine runs exactly one rank at a time, so a second core
    // adds only cross-core wake-ups: pin before any thread is spawned.
    let allowed = host::allowed_cpus();
    let mut out = Outcome::new(args, name, host::pin_to_one_cpu());
    let warmup = if args.smoke { 1 } else { WARMUP };
    let mut setup_s = Vec::new();
    let set_up = || Pipeline::set_up(name, args.seed, warmup);
    let mut pipeline = timed_set_up(&mut setup_s, set_up)?;
    let start = Instant::now();
    // A traced pass iterates for half the time and leaves the rest to the
    // one-shot reference points.
    let budget_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let more = |done: usize| !args.smoke && (done < 3 || start.elapsed().as_secs_f64() < budget_s);

    if args.traced {
        let mut spans = span::Spans::new();
        let scratch = std::path::absolute(out_dir().join("tmp")).map_err(|e| e.to_string())?;
        let layers = layers::pipeline(&pipeline, args.seed, &scratch, &mut spans, &more, allowed)?;
        out.attempted = layers.values["harness.traced_iterations"] as u64;
        out.absorb(layers);
        out.push("harness.setup_ms", vec![setup_s[0] * 1e3]);
        out.push("harness.peak_rss_mb", vec![host::peak_rss_mb()]);
        let trace = out_dir().join(format!("trace-{name}.json"));
        write_file(&trace, &spans.to_json().pretty())?;
        return Ok(out);
    }

    let (mut e2e, mut compile, mut run, mut recompile) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut whole = Vec::new();
    loop {
        out.attempted += 1;
        let t = Instant::now();
        match pipeline.iterate() {
            Ok(t) => {
                e2e.push(t.compile_ms + t.run_ms);
                compile.push(t.compile_ms);
                run.push(t.run_ms);
                recompile.push(t.recompile_ms);
            }
            Err(e) => out.fail(1, vec![format!("iteration {}: {e}", out.attempted)]),
        }
        whole.push(t.elapsed().as_secs_f64() * 1e3);
        if !more(out.attempted as usize) {
            break;
        }
    }
    let exact = pipeline.exact;
    drop(pipeline);
    for _ in 0..extra_set_ups(args) {
        timed_set_up(&mut setup_s, set_up)?;
    }
    out.push("setup_s", setup_s);
    out.push("e2e_wall_ms", e2e);
    out.push("compile_wall_ms", compile);
    out.push("run_wall_ms", run);
    out.push("recompile_wall_ms", recompile);
    // Whole iterations — verification and recompile included — per second,
    // at the pace of the undisturbed host.
    out.push("ops_per_s", vec![1e3 / stats::pace(&whole)]);
    out.push("peak_rss_mb", vec![host::peak_rss_mb()]);
    out.push_exact(exact);
    Ok(out)
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    // The daemon's threads inherit this thread's pin, and the client runs
    // on this thread: every hand-off between them stays on one CPU. With
    // the client on another CPU every request is a cross-CPU wake-up and a
    // session read 20 or 30 ms with nothing between; two clients split one
    // queueing delay between their requests differently from run to run
    // (10 to 25 % on the per-request latencies). See README.md, "Pinning".
    let mut out = Outcome::new(args, SERVE, host::pin_to_one_cpu());
    let mut setup_s = Vec::new();
    let warmup = if args.smoke {
        1
    } else {
        serve::WARMUP_SESSIONS
    };
    let set_up = || serve::Daemon::set_up(args.seed, warmup);
    let daemon = timed_set_up(&mut setup_s, set_up)?;
    let start = Instant::now();
    let until = |sessions: usize| {
        if args.smoke {
            sessions >= 1
        } else {
            start.elapsed().as_secs_f64() >= args.seconds
        }
    };

    let seen = if args.traced {
        let (layers, seen, trace) = layers::serve(&daemon, args.seed, &until)?;
        out.absorb(layers);
        out.push("harness.setup_ms", vec![setup_s[0] * 1e3]);
        write_file(
            &out_dir().join(format!("trace-{SERVE}.json")),
            &trace.pretty(),
        )?;
        seen
    } else {
        daemon.closed_loop(args.seed, false, &until)?
    };
    // The protocol has no request that returns the program text, so the
    // node program's size is the first variant's, compiled in set-up.
    let node_prog_bytes = daemon.inputs.exact.node_prog_bytes;
    daemon.shut_down();
    for _ in 0..extra_set_ups(args) {
        timed_set_up(&mut setup_s, set_up)?.shut_down();
    }

    out.attempted = seen.requests;
    out.fail(seen.failed, seen.failures);
    if args.traced {
        out.push("harness.peak_rss_mb", vec![host::peak_rss_mb()]);
        return Ok(out);
    }

    // The counters come off the wire: the answer of the last verified
    // `run` request.
    let answered = seen
        .last_run
        .ok_or("no run request was answered and verified")?;
    // Requests per second of the closed loop at the pace of the
    // undisturbed host: each session is eight requests.
    let per_session = seen.requests as f64 / seen.session.len().max(1) as f64;
    out.push(
        "ops_per_s",
        vec![per_session * 1e3 / stats::pace(&seen.session)],
    );
    out.push("setup_s", setup_s);
    out.push("e2e_wall_ms", seen.session);
    out.push("compile_wall_ms", seen.compile_first);
    out.push("run_wall_ms", seen.run);
    out.push("recompile_wall_ms", seen.compile_edit);
    out.push("peak_rss_mb", vec![host::peak_rss_mb()]);
    out.push_exact(Exact {
        model_time_us: answered.time_us_x100 as f64 / 100.0,
        msgs: answered.msgs as u64,
        bytes: answered.bytes as u64,
        node_prog_bytes,
    });
    Ok(out)
}

/// One workload in this process.
fn run_one(args: &Args, name: &str) -> Result<Outcome, String> {
    let out = if name == SERVE {
        run_serve(args)?
    } else {
        run_pipeline(args, name)?
    };
    if let Some(path) = &args.detail {
        write_file(path, &out.detail().pretty())?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    // Counted before any thread is pinned.
    host::nproc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_args(&argv[1..]).and_then(|args| match args.workload.clone() {
            Some(name) => run_one(&args, &name).map(|out| {
                out.print();
                out.failed == 0
            }),
            None => full::run(&args),
        }),
        Some("compare") if argv.len() == 3 => {
            compare::run(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("describe") => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(
            "usage: fortrand-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--smoke] [--out FILE] | compare A.json B.json | describe"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fortrand-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The full run: every workload, passes A and B and the traced pass, each
/// in a fresh child process, pooled into one result file.
mod full {
    use super::*;
    use std::process::{Command, Stdio};

    /// Runs one workload of one pass in a child and reads its samples back.
    fn child(args: &Args, name: &str, pass: &str, traced: bool) -> Result<Json, String> {
        let detail = out_dir().join(format!("detail-{pass}-{name}.json"));
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--detail")
            .arg(&detail)
            .stdout(Stdio::null());
        if args.smoke {
            cmd.arg("--smoke");
        }
        eprintln!("pass {pass}: {name}");
        let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
        // Exit code 1 is a run with failed operations; its samples count.
        if !matches!(status.code(), Some(0 | 1)) {
            return Err(format!("pass {pass}: {name} ended with {status}"));
        }
        let text =
            std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
        json::parse(&text)
    }

    fn samples(detail: &Json, metric: &str) -> Vec<f64> {
        detail
            .get("samples")
            .and_then(|s| s.get(metric))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    }

    fn count(detail: &Json, key: &str) -> f64 {
        detail.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    pub fn run(args: &Args) -> Result<bool, String> {
        // The smoke run makes one untraced pass only.
        let passes: &[(&str, bool)] = if args.smoke {
            &[("A", false)]
        } else {
            &[("A", false), ("B", false), ("traced", true)]
        };
        let mut details: Vec<Vec<Json>> = Vec::new();
        for &(pass, traced) in passes {
            let pass_details: Result<Vec<Json>, String> = workloads::ALL
                .iter()
                .map(|name| child(args, name, pass, traced))
                .collect();
            details.push(pass_details?);
        }

        let mut workloads = Vec::new();
        let (mut total, mut failed) = (0.0, 0.0);
        for (i, name) in workloads::ALL.iter().enumerate() {
            let a = &details[0][i];
            let b = details.get(1).map(|pass| &pass[i]);
            let traced = details.get(2).map(|pass| &pass[i]);

            let mut failures: Vec<Json> = Vec::new();
            let mut ops_failed = 0.0;
            for pass in &details {
                total += count(&pass[i], "attempted");
                ops_failed += count(&pass[i], "failed");
                failures.extend(
                    pass[i]
                        .get("failures")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .cloned(),
                );
            }

            println!("\n## {name}");
            let mut end_to_end = Vec::new();
            let mut untraced_e2e = 0.0;
            for (m, bound) in &END_TO_END {
                let sa = samples(a, m.name);
                let sb = b.map_or_else(Vec::new, |b| samples(b, m.name));
                let pooled: Vec<f64> = sa.iter().chain(&sb).copied().collect();
                let s = stats::summarize(&pooled);
                let value = reported(m.name, &pooled);
                if m.name == "e2e_wall_ms" {
                    untraced_e2e = value;
                }
                let (va, vb) = (reported(m.name, &sa), reported(m.name, &sb));
                let spread = if sb.is_empty() {
                    0.0
                } else {
                    stats::ab_spread_pct(va, vb, value)
                };
                let exact = *bound < 0.01;
                if exact && !sb.is_empty() && va != vb {
                    ops_failed += 1.0;
                    let what = format!("{}: passes A and B disagree", m.name);
                    eprintln!("FAILED {name}: {what}");
                    failures.push(Json::str(what));
                }
                print!("{:<34} {value:>16.6} {:<7}", m.name, m.unit);
                if !exact {
                    print!(
                        " ab_spread_pct {spread:.2} median {:.6} q1 {:.6} q3 {:.6} n {}",
                        s.median, s.q1, s.q3, s.n
                    );
                    if let Some((p, v)) = s.tail {
                        print!(" p{p} {v:.6}");
                    }
                }
                println!();
                let mut fields = vec![
                    ("unit".to_string(), Json::str(m.unit)),
                    ("better".to_string(), Json::str(m.better)),
                    ("bound".to_string(), Json::Num(*bound)),
                    ("ab_spread_pct".to_string(), Json::Num(spread)),
                    ("value".to_string(), Json::Num(value)),
                    ("value_a".to_string(), Json::Num(va)),
                    ("value_b".to_string(), Json::Num(vb)),
                ];
                fields.extend(s.to_json().as_obj().unwrap_or(&[]).iter().cloned());
                end_to_end.push((m.name.to_string(), Json::Obj(fields)));
            }
            let mut per_layer = Vec::new();
            if let Some(t) = traced {
                for m in &PER_LAYER {
                    let v = stats::median(&samples(t, m.name));
                    println!("{:<34} {v:>16.6} {:<7}", m.name, m.unit);
                    per_layer.push((
                        m.name.to_string(),
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                    ));
                }
                for note in t.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
                    println!("note: {}", note.as_str().unwrap_or(""));
                }
                // Source → arrays with and without the harness's spans.
                let untraced = untraced_e2e;
                let with_spans = stats::median(&samples(t, "harness.traced_e2e_ms"));
                println!(
                    "harness tracing overhead: traced e2e {with_spans:.3} ms against untraced {untraced:.3} ms ({:+.2} %)",
                    100.0 * (with_spans - untraced) / untraced
                );
            }
            failed += ops_failed;
            workloads.push((
                name.to_string(),
                Json::obj([
                    (
                        "pinned_cpu",
                        a.get("pinned_cpu").cloned().unwrap_or(Json::Null),
                    ),
                    ("ops_failed", Json::Num(ops_failed)),
                    ("failures", Json::Arr(failures)),
                    ("end_to_end", Json::Obj(end_to_end)),
                    ("per_layer", Json::Obj(per_layer)),
                ]),
            ));
        }

        println!("\nops_total {total} ops_failed {failed}");
        let results = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds_per_pass", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("host", host::facts()),
            ("ops_total", Json::Num(total)),
            ("ops_failed", Json::Num(failed)),
            ("workloads", Json::Obj(workloads)),
        ]);
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| out_dir().join("results.json"));
        write_file(&path, &results.pretty())?;
        println!("results written to {}", path.display());
        Ok(failed == 0.0)
    }
}

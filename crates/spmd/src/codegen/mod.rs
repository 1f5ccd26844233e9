//! Native codegen backend: compiles a [`SpmdProgram`] to a real
//! executable and runs it.
//!
//! The pipeline is
//!
//! 1. **emit** ([`emit`]): pretty-print the program as standalone Rust —
//!    one `fn` per procedure, typed scalar locals (see
//!    `types`), RSD loops as counted `while` loops, and every
//!    communication statement as a call into the `fortrand-shim` runtime
//!    crate (thread-per-rank typed channels, rank-ordered collectives
//!    matching the simulator's `CollCore`, and the message-statistics
//!    accounting) or, through it, into `fortrand-rt` — the scalar
//!    arithmetic, distribution arithmetic and remap library the simulator
//!    engines themselves run;
//! 2. **build**: drive `rustc` directly (no cargo) — `fortrand-rt` and the
//!    shim are built once per (sources, rustc) pair into a
//!    content-addressed rlib cache under the system temp dir, then the
//!    node program is compiled against them at the backend's `opt_level`;
//! 3. **run**: execute the binary with the initial arrays serialized to
//!    an init file; the program writes the assembled global arrays to an
//!    out file and prints the stats protocol below on stdout, which is
//!    parsed back into [`fortrand_machine::RunStats`].
//!
//! ### Stats protocol (v1)
//!
//! ```text
//! FORTRAND-NATIVE-STATS v1
//! nprocs <p>
//! print <line>                            (0+ lines, rank 0's output)
//! node <rank> <msgs> <bytes> <remaps> <posts> <waits>
//! hist <rank> <b0> <b1> <b2> <b3> <b4>
//! tag <rank> <tag> <msgs> <bytes>         (0+ lines per rank)
//! END
//! ```
//!
//! A rank failure instead prints `FAIL rank=<r> msg=<one line>` and exits
//! nonzero; the driver surfaces it as [`ExecError::Rank`], exactly like
//! the simulators surface a panicking rank.
//!
//! Because the node program links the simulator's own run-time library
//! and the shim keeps its collective ordering and FP evaluation order, a
//! native run is **bit-identical** to a simulated one in every
//! program-defined
//! observable: final arrays, printed lines, message/byte/remap counts,
//! the size histogram, and per-tag traffic (`tests/native.rs` enforces
//! this differentially). Virtual-clock metrics have no native analog and
//! are reported as zero; `RunStats::wall_us` is the node program's real
//! wall-clock (build time excluded).

mod emit;
mod types;

use crate::ir::SpmdProgram;
use crate::runtime::{ExecBackend, ExecError, ExecOptions, RunOutcome};
use fortrand_ir::Sym;
use fortrand_machine::{Machine, NodeStats, RankFailure, RunStats, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The run-time library's and the shim's sources, baked into this crate so
/// the backend can build node programs on machines that only have the
/// `fortrand` binary and a `rustc` (no checkout, no cargo, no registry).
/// `(file name, contents)`; each crate's root is its `lib.rs`.
const RT_SRC: &[(&str, &str)] = &[
    ("lib.rs", include_str!("../../../rt/src/lib.rs")),
    ("dist.rs", include_str!("../../../rt/src/dist.rs")),
    ("space.rs", include_str!("../../../rt/src/space.rs")),
    ("value.rs", include_str!("../../../rt/src/value.rs")),
    ("walk.rs", include_str!("../../../rt/src/walk.rs")),
];
const SHIM_SRC: &[(&str, &str)] = &[("lib.rs", include_str!("../../../shim/src/lib.rs"))];

/// Pretty-prints `prog` as the complete source of a native node program
/// (what the [`Native`] backend feeds to `rustc`). Deterministic: equal
/// programs emit byte-identical source.
pub fn emit(prog: &SpmdProgram) -> String {
    emit::emit_program(prog)
}

/// Native codegen execution backend.
///
/// ```ignore
/// let opts = ExecOptions::new().backend(Native::default());
/// let out = try_run_spmd(&prog, &machine, &init, &opts)?;
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Native {
    /// `rustc -C opt-level` for the node program (the runtime rlibs are
    /// always built at opt-level 2 and cached). Use 0 in tests for build
    /// speed.
    pub opt_level: u8,
    /// Keep the build directory (emitted source, binary, IO files) and
    /// return it in [`RunOutcome::artifact`] instead of deleting it.
    pub keep_artifacts: bool,
}

impl Default for Native {
    fn default() -> Native {
        Native {
            opt_level: 2,
            keep_artifacts: false,
        }
    }
}

impl ExecBackend for Native {
    fn name(&self) -> &'static str {
        "native"
    }

    fn run(
        &self,
        prog: &SpmdProgram,
        _machine: &Machine,
        init: &BTreeMap<Sym, Vec<f64>>,
        _opts: &ExecOptions,
    ) -> Result<RunOutcome, ExecError> {
        run_native(self, prog, init)
    }
}

/// Overridable `rustc` path (`FORTRAND_RUSTC` env var).
fn rustc_bin() -> String {
    std::env::var("FORTRAND_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// `rustc -V` output, probed once per process. `None` when no toolchain
/// is reachable — callers (the native tests, the benchmark) skip the
/// native backend then.
pub fn rustc_version() -> Option<&'static str> {
    static V: OnceLock<Option<String>> = OnceLock::new();
    V.get_or_init(|| {
        let out = Command::new(rustc_bin()).arg("-V").output().ok()?;
        if out.status.success() {
            Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
        } else {
            None
        }
    })
    .as_deref()
}

/// Whether the native backend can run at all on this host.
pub fn rustc_available() -> bool {
    rustc_version().is_some()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn run_rustc(args: &[&str]) -> Result<(), String> {
    let out = Command::new(rustc_bin())
        .args(args)
        .output()
        .map_err(|e| format!("spawning {}: {e}", rustc_bin()))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "rustc {} failed:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

/// Builds (or reuses) the `fortrand-rt` and `fortrand-shim` rlibs in a
/// content-addressed cache — one directory per key, the key covering both
/// crates' sources and the rustc version, so stale toolchain or source
/// changes never link — and returns that directory. A process-wide mutex
/// plus build-in-a-temp-directory-then-rename keeps concurrent builds
/// (parallel tests, the serve daemon) safe.
fn runtime_rlibs() -> Result<PathBuf, String> {
    static LOCK: Mutex<()> = Mutex::new(());
    let version = rustc_version().ok_or_else(|| "no rustc toolchain available".to_string())?;
    let mut keyed = Vec::new();
    for (name, text) in RT_SRC.iter().chain(SHIM_SRC) {
        keyed.extend_from_slice(name.as_bytes());
        keyed.extend_from_slice(text.as_bytes());
    }
    keyed.extend_from_slice(version.as_bytes());
    let key = fnv1a(&keyed);
    let cache = std::env::temp_dir().join("fortrand-shim-cache");
    let dir = cache.join(format!("{key:016x}"));
    if dir.exists() {
        return Ok(dir);
    }
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    if dir.exists() {
        return Ok(dir);
    }
    let tmp = cache.join(format!("{key:016x}.tmp{}", std::process::id()));
    let io = |e: std::io::Error| format!("preparing {}: {e}", tmp.display());
    let build = |krate: &str, files: &[(&str, &str)], rt: Option<&Path>| {
        let src = tmp.join(krate);
        std::fs::create_dir_all(&src).map_err(io)?;
        for (name, text) in files {
            std::fs::write(src.join(name), text).map_err(io)?;
        }
        let rlib = tmp.join(format!("lib{krate}.rlib"));
        let root = src.join("lib.rs");
        let rt = rt.map(|rt| format!("fortrand_rt={}", rt.display()));
        let mut args = vec!["--edition", "2021", "--crate-name", krate];
        args.extend(["--crate-type", "rlib", "-C", "opt-level=2"]);
        if let Some(rt) = &rt {
            args.extend(["--extern", rt]);
        }
        args.extend(["-o", rlib.to_str().unwrap(), root.to_str().unwrap()]);
        run_rustc(&args).map(|()| rlib)
    };
    let rt = build("fortrand_rt", RT_SRC, None)?;
    build("fortrand_shim", SHIM_SRC, Some(&rt))?;
    match std::fs::rename(&tmp, &dir) {
        Ok(()) => Ok(dir),
        // Another process installed the same key first; use its copy.
        Err(_) if dir.exists() => {
            let _ = std::fs::remove_dir_all(&tmp);
            Ok(dir)
        }
        Err(e) => Err(format!("installing runtime rlibs: {e}")),
    }
}

/// Init-file format: one record per entry-procedure array declaration, in
/// declaration order — `present: u8`, then (if present) `len: u64 LE` and
/// `len` little-endian `f64`s of row-major global contents.
fn write_init(
    path: &Path,
    prog: &SpmdProgram,
    init: &BTreeMap<Sym, Vec<f64>>,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    for decl in &prog.procs[prog.main].decls {
        match init.get(&decl.name) {
            Some(data) => {
                bytes.push(1u8);
                bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
                for v in data {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => bytes.push(0u8),
        }
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Out-file format: one record per entry-procedure array declaration, in
/// declaration order — `len: u64 LE`, then `len` little-endian `f64`s.
fn read_out(path: &Path, prog: &SpmdProgram) -> Result<BTreeMap<Sym, Vec<f64>>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    let mut at = 0usize;
    for decl in &prog.procs[prog.main].decls {
        let len_bytes: [u8; 8] = bytes
            .get(at..at + 8)
            .ok_or("truncated out file")?
            .try_into()
            .unwrap();
        let len = u64::from_le_bytes(len_bytes) as usize;
        at += 8;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            let vb: [u8; 8] = bytes
                .get(at..at + 8)
                .ok_or("truncated out file")?
                .try_into()
                .unwrap();
            data.push(f64::from_le_bytes(vb));
            at += 8;
        }
        out.insert(decl.name, data);
    }
    Ok(out)
}

/// Parses the stats protocol (see module docs) into per-rank stats and
/// rank 0's printed lines.
fn parse_stats(stdout: &str, p: usize) -> Result<(Vec<NodeStats>, Vec<String>), String> {
    let mut lines = stdout.lines();
    match lines.next() {
        Some("FORTRAND-NATIVE-STATS v1") => {}
        other => return Err(format!("bad stats header: {other:?}")),
    }
    match lines.next() {
        Some(l) if l == format!("nprocs {p}") => {}
        other => return Err(format!("bad nprocs line: {other:?}")),
    }
    let mut printed = Vec::new();
    let mut nodes = vec![NodeStats::default(); p];
    let mut saw_end = false;
    for line in lines {
        if line == "END" {
            saw_end = true;
            break;
        }
        if let Some(text) = line.strip_prefix("print ") {
            printed.push(text.to_string());
            continue;
        }
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad field {s:?}: {e}"))
        };
        match fields.as_slice() {
            ["node", rank, msgs, bytes, remaps, posts, waits] => {
                let r = num(rank)? as usize;
                let n = nodes.get_mut(r).ok_or("rank out of range")?;
                n.msgs_sent = num(msgs)?;
                n.bytes_sent = num(bytes)?;
                n.remaps = num(remaps)?;
                n.overlap_posts = num(posts)?;
                n.overlap_waits = num(waits)?;
            }
            ["hist", rank, rest @ ..] if rest.len() == HIST_BUCKETS => {
                let r = num(rank)? as usize;
                let n = nodes.get_mut(r).ok_or("rank out of range")?;
                for (slot, s) in n.msg_hist.iter_mut().zip(rest) {
                    *slot = num(s)?;
                }
            }
            ["tag", rank, tag, msgs, bytes] => {
                let r = num(rank)? as usize;
                let n = nodes.get_mut(r).ok_or("rank out of range")?;
                n.msgs_by_tag.insert(num(tag)?, (num(msgs)?, num(bytes)?));
            }
            _ => return Err(format!("unrecognized stats line: {line:?}")),
        }
    }
    if !saw_end {
        return Err("stats protocol not terminated with END".to_string());
    }
    Ok((nodes, printed))
}

fn backend_err(m: String) -> ExecError {
    ExecError::Backend(m)
}

fn run_native(
    cfg: &Native,
    prog: &SpmdProgram,
    init: &BTreeMap<Sym, Vec<f64>>,
) -> Result<RunOutcome, ExecError> {
    if !rustc_available() {
        return Err(backend_err(format!(
            "no rustc toolchain found (checked {:?}; set FORTRAND_RUSTC to override)",
            rustc_bin()
        )));
    }
    let entry = &prog.procs[prog.main];
    if !entry.formals.is_empty() {
        return Err(backend_err(
            "entry procedure with formals cannot be compiled natively".to_string(),
        ));
    }

    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fortrand-native-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| backend_err(format!("creating {}: {e}", dir.display())))?;
    let cleanup = |dir: &Path| {
        if !cfg.keep_artifacts {
            let _ = std::fs::remove_dir_all(dir);
        }
    };

    let result = (|| -> Result<RunOutcome, ExecError> {
        let src_path = dir.join("prog.rs");
        std::fs::write(&src_path, emit::emit_program(prog))
            .map_err(|e| backend_err(format!("writing {}: {e}", src_path.display())))?;

        let rlibs = runtime_rlibs().map_err(backend_err)?;
        let bin_path = dir.join("prog");
        run_rustc(&[
            "--edition",
            "2021",
            "--crate-name",
            "node_prog",
            "-C",
            &format!("opt-level={}", cfg.opt_level),
            "-C",
            "debug-assertions=off",
            "-L",
            &format!("dependency={}", rlibs.display()),
            "--extern",
            &format!(
                "fortrand_shim={}",
                rlibs.join("libfortrand_shim.rlib").display()
            ),
            "-o",
            bin_path.to_str().unwrap(),
            src_path.to_str().unwrap(),
        ])
        .map_err(backend_err)?;

        let init_path = dir.join("init.bin");
        let out_path = dir.join("out.bin");
        write_init(&init_path, prog, init).map_err(backend_err)?;

        let started = Instant::now();
        let run = Command::new(&bin_path)
            .arg(&init_path)
            .arg(&out_path)
            .output()
            .map_err(|e| backend_err(format!("running node program: {e}")))?;
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        let stdout = String::from_utf8_lossy(&run.stdout);

        if !run.status.success() {
            // A rank panic is a program-defined failure, same as in the
            // simulators; anything else is the backend's problem.
            for line in stdout.lines() {
                if let Some(rest) = line.strip_prefix("FAIL rank=") {
                    if let Some((rank, msg)) = rest.split_once(" msg=") {
                        if let Ok(rank) = rank.parse::<usize>() {
                            return Err(ExecError::Rank(RankFailure {
                                rank,
                                message: msg.to_string(),
                            }));
                        }
                    }
                }
            }
            return Err(backend_err(format!(
                "node program exited with {}: {}",
                run.status,
                String::from_utf8_lossy(&run.stderr)
            )));
        }

        let (nodes, printed) = parse_stats(&stdout, prog.nprocs).map_err(backend_err)?;
        let arrays = read_out(&out_path, prog).map_err(backend_err)?;
        let mut stats = RunStats::aggregate(nodes);
        stats.wall_us = wall_us;
        Ok(RunOutcome {
            stats,
            arrays,
            printed,
            artifact: if cfg.keep_artifacts {
                Some(dir.clone())
            } else {
                None
            },
        })
    })();

    match &result {
        Ok(_) => {
            if !cfg.keep_artifacts {
                cleanup(&dir);
            }
        }
        Err(_) => cleanup(&dir),
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::runtime::{try_run_spmd, ExecOptions};
    use fortrand_ir::dist::{array_dist, Alignment, DistKind, Distribution};
    use fortrand_ir::Interner;
    use fortrand_machine::Machine;

    /// A small two-procedure program exercising scalars of every static
    /// type, section sends, a broadcast, copy-out, and print: rank 0
    /// fills its block of `a`, sends one element to rank 1's halo, and
    /// everyone broadcasts and prints a mixed-type scalar.
    fn sample(p: usize) -> SpmdProgram {
        fn add(l: SExpr, r: SExpr) -> SExpr {
            SExpr::Bin {
                op: SBinOp::Add,
                l: Box::new(l),
                r: Box::new(r),
            }
        }
        let n = 8i64;
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let i = interner.intern("i");
        let t = interner.intern("t");
        let z = interner.intern("z");
        let v = interner.intern("v");
        let sub = interner.intern("addone");
        let main = interner.intern("main");
        let dist = array_dist(
            &[n],
            &Alignment::identity(1),
            &[n],
            &Distribution {
                kinds: vec![DistKind::Block],
                nprocs: p,
            },
        );
        let lb = n / p as i64;
        let callee = SProc {
            name: sub,
            formals: vec![
                SFormal {
                    name: z,
                    is_array: true,
                },
                SFormal {
                    name: v,
                    is_array: false,
                },
            ],
            decls: vec![],
            body: vec![
                SStmt::Assign {
                    lhs: SLval::Elem {
                        array: z,
                        subs: vec![SExpr::Int(1)],
                    },
                    rhs: SExpr::Bin {
                        op: SBinOp::Add,
                        l: Box::new(SExpr::Elem {
                            array: z,
                            subs: vec![SExpr::Int(1)],
                        }),
                        r: Box::new(SExpr::Var(v)),
                    },
                },
                SStmt::Assign {
                    lhs: SLval::Scalar(v),
                    rhs: add(SExpr::Var(v), SExpr::Real(0.5)),
                },
            ],
        };
        // `a(from)` on the root into `a(to)` everywhere.
        let part = |from: i64, to: i64| BcastPart {
            src_array: a,
            src_section: SRect::one(SExpr::Int(from), SExpr::Int(from)),
            dst_array: a,
            dst_section: SRect::one(SExpr::Int(to), SExpr::Int(to)),
        };
        let body = vec![
            SStmt::Do {
                var: i,
                lo: SExpr::Int(1),
                hi: SExpr::Int(lb),
                step: 1,
                body: vec![SStmt::Assign {
                    lhs: SLval::Elem {
                        array: a,
                        subs: vec![SExpr::Var(i)],
                    },
                    rhs: add(
                        SExpr::Elem {
                            array: a,
                            subs: vec![SExpr::Var(i)],
                        },
                        SExpr::Bin {
                            op: SBinOp::Mul,
                            l: Box::new(SExpr::MyP),
                            r: Box::new(SExpr::Real(0.25)),
                        },
                    ),
                }],
            },
            SStmt::If {
                cond: SExpr::Bin {
                    op: SBinOp::Eq,
                    l: Box::new(SExpr::MyP),
                    r: Box::new(SExpr::Int(0)),
                },
                then_body: vec![SStmt::Send {
                    to: SExpr::Int(1),
                    tag: 7,
                    array: a,
                    section: SRect {
                        dims: vec![(SExpr::Int(lb), SExpr::Int(lb), 1)],
                    },
                }],
                else_body: vec![],
            },
            SStmt::If {
                cond: SExpr::Bin {
                    op: SBinOp::Eq,
                    l: Box::new(SExpr::MyP),
                    r: Box::new(SExpr::Int(1)),
                },
                then_body: vec![SStmt::Recv {
                    from: SExpr::Int(0),
                    tag: 7,
                    array: a,
                    section: SRect {
                        dims: vec![(SExpr::Int(1), SExpr::Int(1), 1)],
                    },
                }],
                else_body: vec![],
            },
            SStmt::Assign {
                lhs: SLval::Scalar(t),
                rhs: SExpr::Int(3),
            },
            // One section, then two packed into one message.
            SStmt::Bcast {
                root: SExpr::Int(0),
                parts: vec![part(1, 1)],
            },
            SStmt::Bcast {
                root: SExpr::Int(1),
                parts: vec![part(2, 3), part(lb, 2)],
            },
            SStmt::Call {
                proc: 1,
                args: vec![SActual::Array(a), SActual::Scalar(SExpr::Real(2.5))],
                copy_out: vec![(v, t)],
            },
            SStmt::Print {
                args: vec![
                    SExpr::Var(t),
                    SExpr::Elem {
                        array: a,
                        subs: vec![SExpr::Int(1)],
                    },
                ],
            },
        ];
        SpmdProgram {
            interner,
            nprocs: p,
            procs: vec![
                SProc {
                    name: main,
                    formals: vec![],
                    decls: vec![SDecl {
                        name: a,
                        bounds: vec![(1, lb)],
                        dist: DistId(0),
                        owner_dist: None,
                    }],
                    body,
                },
                callee,
            ],
            main: 0,
            dists: vec![dist],
        }
    }

    #[test]
    fn emission_is_deterministic() {
        let prog = sample(2);
        let first = emit(&prog);
        let second = emit(&prog);
        assert_eq!(first, second, "re-emission must be byte-identical");
        assert!(first.contains("fn main()"));
        assert!(first.contains("shim::drive(2usize"));
    }

    #[test]
    fn emitted_source_names_are_stable_across_clones() {
        let prog = sample(4);
        assert_eq!(emit(&prog), emit(&prog.clone()));
    }

    #[test]
    fn native_matches_bytecode_on_sample() {
        if !rustc_available() {
            eprintln!("skipping: no rustc toolchain");
            return;
        }
        let p = 2;
        let prog = sample(p);
        let a = prog.interner.get("a").unwrap();
        let mut init = BTreeMap::new();
        init.insert(a, (0..8).map(|i| i as f64 * 0.5).collect::<Vec<f64>>());
        let machine = Machine::new(p);
        let sim = try_run_spmd(&prog, &machine, &init, &ExecOptions::new()).unwrap();
        let nat = try_run_spmd(
            &prog,
            &machine,
            &init,
            &ExecOptions::new().backend(Native {
                opt_level: 0,
                keep_artifacts: false,
            }),
        )
        .unwrap();
        assert_eq!(sim.printed, nat.printed);
        assert_eq!(sim.stats.total_msgs, nat.stats.total_msgs);
        assert_eq!(sim.stats.total_bytes, nat.stats.total_bytes);
        assert_eq!(sim.stats.msg_hist, nat.stats.msg_hist);
        assert_eq!(sim.stats.msgs_by_tag, nat.stats.msgs_by_tag);
        let (sa, na) = (&sim.arrays[&a], &nat.arrays[&a]);
        assert_eq!(sa.len(), na.len());
        for (x, y) in sa.iter().zip(na) {
            assert_eq!(x.to_bits(), y.to_bits(), "arrays must match bit for bit");
        }
        assert!(nat.artifact.is_none());
    }

    #[test]
    fn keep_artifacts_returns_build_dir() {
        if !rustc_available() {
            eprintln!("skipping: no rustc toolchain");
            return;
        }
        let prog = sample(2);
        let machine = Machine::new(2);
        let out = try_run_spmd(
            &prog,
            &machine,
            &BTreeMap::new(),
            &ExecOptions::new().backend(Native {
                opt_level: 0,
                keep_artifacts: true,
            }),
        )
        .unwrap();
        let dir = out.artifact.expect("artifact dir");
        assert!(dir.join("prog.rs").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

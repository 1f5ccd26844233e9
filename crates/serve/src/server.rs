//! The daemon: shared compile state plus a TCP accept loop.
//!
//! One [`Server`] owns the shared [`ArtifactStore`]; each client session
//! is a cheap handle (source text + its last [`Compiled`] program, whose
//! artifacts live in the shared store). Each connection has its own
//! thread and compiles on it; requests mutate only their own session
//! under its own lock, so sessions compile concurrently.

use crate::protocol::{err_response, ok_response, parse_request, Request};
use fortrand::json::Json;
use fortrand::{ArtifactStore, CompileOptions, Compiled, Session};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Artifact-store capacity in approximate bytes.
    pub capacity: usize,
    /// Ignored: each connection compiles on its own thread. Kept until the
    /// re-baseline (ROADMAP item 12), because the benchmark sets it.
    pub threads: usize,
    /// Compile options applied to every session.
    pub opts: CompileOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 256 << 20,
            threads: 4,
            opts: CompileOptions::default(),
        }
    }
}

/// One client session: its current source and its last compiled program
/// (what `run` executes).
struct SessionState {
    source: String,
    last: Option<Compiled>,
}

/// The daemon state. Wrap in an [`Arc`]; every connection thread holds a
/// clone.
pub struct Server {
    store: Arc<ArtifactStore>,
    opts: CompileOptions,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionState>>>>,
    requests: AtomicU64,
    failures: AtomicU64,
    shutdown: AtomicBool,
    /// Live connection handles (keyed by an accept counter, pruned when
    /// the handler exits), so shutdown can sever clients parked in a
    /// blocking read.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

/// Recovers a usable guard from a poisoned mutex: a panic in one request
/// must not brick the session (or the session table) for everyone else.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Builds the shared state (no sockets yet — see [`Server::spawn`]).
    pub fn new(config: ServerConfig) -> Arc<Server> {
        Arc::new(Server {
            store: Arc::new(ArtifactStore::with_capacity(config.capacity)),
            opts: config.opts,
            sessions: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        })
    }

    /// The shared artifact store (for external stats inspection).
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    fn session(&self, id: &str) -> Result<Arc<Mutex<SessionState>>, String> {
        relock(&self.sessions)
            .get(id)
            .cloned()
            .ok_or_else(|| format!("no such session {id:?}"))
    }

    /// Handles one request line, returning one response line (no `\n`).
    /// Never panics: pipeline panics become `{"ok":false}` responses.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => return self.fail(e),
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(req)));
        match outcome {
            Ok(Ok(resp)) => resp,
            Ok(Err(e)) => self.fail(e),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                self.fail(format!("internal panic: {msg}"))
            }
        }
    }

    fn fail(&self, error: String) -> String {
        self.failures.fetch_add(1, Ordering::Relaxed);
        err_response(&error)
    }

    fn dispatch(&self, req: Request) -> Result<String, String> {
        match req {
            Request::Open { session, source } => {
                let state = Arc::new(Mutex::new(SessionState { source, last: None }));
                relock(&self.sessions).insert(session, state);
                Ok(ok_response(Vec::new()))
            }
            Request::Edit {
                session,
                source,
                find,
                replace,
            } => {
                let state = self.session(&session)?;
                let mut state = relock(&state);
                match (source, find, replace) {
                    (Some(text), _, _) => state.source = text,
                    (None, Some(find), Some(replace)) => {
                        if !state.source.contains(&find) {
                            return Err(format!("find text {find:?} not present"));
                        }
                        state.source = state.source.replace(&find, &replace);
                    }
                    _ => return Err("edit needs either source or find+replace".into()),
                }
                Ok(ok_response(Vec::new()))
            }
            Request::Compile { session } => {
                let state = self.session(&session)?;
                let mut state = relock(&state);
                let out = Session::new(state.source.as_str())
                    .options(self.opts.clone())
                    .store(Arc::clone(&self.store))
                    .compile()
                    .map_err(|e| e.to_string())?;
                let store = out.report().store.expect("store-backed compile");
                let fields = vec![
                    ("procs".into(), Json::Int(out.spmd().procs.len() as i128)),
                    (
                        "recompiled".into(),
                        Json::Int(out.recompiled().len() as i128),
                    ),
                    ("reused".into(), Json::Int(out.reused().len() as i128)),
                    ("store_hits".into(), Json::Int(store.hits as i128)),
                    ("store_misses".into(), Json::Int(store.misses as i128)),
                    (
                        "hit_rate_x100".into(),
                        Json::Int(store.hit_rate_x100() as i128),
                    ),
                ];
                state.last = Some(out);
                Ok(ok_response(fields))
            }
            Request::Run { session } => {
                let state = self.session(&session)?;
                let state = relock(&state);
                let out = state
                    .last
                    .as_ref()
                    .ok_or_else(|| format!("session {session:?} has no compiled program"))?
                    .run(&BTreeMap::new())
                    .map_err(|e| e.to_string())?;
                Ok(ok_response(vec![
                    (
                        "time_us_x100".into(),
                        Json::Int((out.stats.time_us * 100.0) as i128),
                    ),
                    ("msgs".into(), Json::Int(out.stats.total_msgs as i128)),
                    ("bytes".into(), Json::Int(out.stats.total_bytes as i128)),
                ]))
            }
            Request::Stats => {
                let st = self.store.stats();
                Ok(ok_response(vec![
                    (
                        "sessions".into(),
                        Json::Int(relock(&self.sessions).len() as i128),
                    ),
                    (
                        "requests".into(),
                        Json::Int(self.requests.load(Ordering::Relaxed) as i128),
                    ),
                    (
                        "failures".into(),
                        Json::Int(self.failures.load(Ordering::Relaxed) as i128),
                    ),
                    ("store_hits".into(), Json::Int(st.hits as i128)),
                    ("store_misses".into(), Json::Int(st.misses as i128)),
                    ("store_evictions".into(), Json::Int(st.evictions as i128)),
                    ("store_entries".into(), Json::Int(st.entries as i128)),
                    ("store_cost".into(), Json::Int(st.cost as i128)),
                    (
                        "hit_rate_x100".into(),
                        Json::Int(st.hit_rate_x100() as i128),
                    ),
                ]))
            }
            Request::Close { session } => {
                relock(&self.sessions)
                    .remove(&session)
                    .ok_or_else(|| format!("no such session {session:?}"))?;
                Ok(ok_response(Vec::new()))
            }
        }
    }
}

/// A running server: its listening address plus the shutdown plumbing.
pub struct ServerHandle {
    /// The shared daemon state.
    pub server: Arc<Server>,
    /// The bound listening address (an ephemeral port unless configured).
    pub addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Signals the accept loop to stop, unblocks it with a throwaway
    /// connection, and joins every connection thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.server.shutdown.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next wakeup.
        let _ = TcpStream::connect(self.addr);
        // Sever clients parked in a blocking read so their handler
        // threads unwind and the accept thread can join them.
        for (_, s) in relock(&self.server.conns).drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Longest request line accepted, newline excluded. The largest request a
/// client of this repository sends is an `open` carrying the 105 kB
/// `wide_corpus(300)` source; a client that never sends a newline must not
/// be able to grow the line buffer until the host runs out of memory.
const MAX_REQUEST_LINE: usize = 8 << 20;

fn handle_connection(server: &Server, stream: TcpStream, conn_id: u64) {
    if let Ok(w) = stream.try_clone() {
        let mut writer = w;
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            line.clear();
            // One byte past the cap tells a line that fits from one that
            // does not.
            let limit = MAX_REQUEST_LINE as u64 + 1;
            match (&mut reader).take(limit).read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let too_long = line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n");
            let mut resp = if too_long {
                server.fail(format!(
                    "request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection"
                ))
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => server.handle_line(text),
                    Err(_) => server.fail("request line is not UTF-8".into()),
                }
            };
            resp.push('\n');
            if writer.write_all(resp.as_bytes()).is_err() || too_long {
                break;
            }
        }
    }
    relock(&server.conns).retain(|(id, _)| *id != conn_id);
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves connections on a background thread, one thread per client,
    /// until the returned handle is shut down or dropped.
    pub fn spawn(self: &Arc<Server>, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let server = Arc::clone(self);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                let mut next_id: u64 = 0;
                for stream in listener.incoming() {
                    if server.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // Reap the handlers whose clients have left, so a
                    // long-running daemon holds one handle per live
                    // connection, not one per connection ever accepted.
                    for t in handlers.extract_if(.., |t| t.is_finished()) {
                        let _ = t.join();
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_id = next_id;
                    next_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        relock(&server.conns).push((conn_id, clone));
                    }
                    let server = Arc::clone(&server);
                    if let Ok(t) = std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_connection(&server, stream, conn_id))
                    {
                        handlers.push(t);
                    }
                }
                for t in handlers {
                    let _ = t.join();
                }
            })?;
        Ok(ServerHandle {
            server: Arc::clone(self),
            addr: bound,
            accept_thread: Some(accept_thread),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand::json;

    fn source() -> String {
        fortrand::corpus::wide_corpus(4, 64, 4)
    }

    fn open_request(sid: &str, source: &str) -> String {
        Json::Obj(vec![
            ("cmd".into(), Json::str("open")),
            ("session".into(), Json::str(sid)),
            ("source".into(), Json::str(source)),
        ])
        .compact()
    }

    fn open(server: &Server, sid: &str, source: &str) {
        let resp = server.handle_line(&open_request(sid, source));
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    #[test]
    fn compile_reports_store_counters_and_shares_across_sessions() {
        let server = Server::new(ServerConfig::default());
        open(&server, "s1", &source());
        let resp = server.handle_line(r#"{"cmd":"compile","session":"s1"}"#);
        let obj = json::parse(&resp).unwrap();
        assert!(obj.get("recompiled").and_then(Json::as_int).unwrap() > 0);
        // A second session over identical source hits the shared store.
        open(&server, "s2", &source());
        let resp = server.handle_line(r#"{"cmd":"compile","session":"s2"}"#);
        let obj = json::parse(&resp).unwrap();
        assert_eq!(
            obj.get("recompiled").and_then(Json::as_int),
            Some(0),
            "{resp}"
        );
        assert!(obj.get("reused").and_then(Json::as_int).unwrap() > 0);
        assert!(obj.get("hit_rate_x100").and_then(Json::as_int).unwrap() >= 50);
    }

    #[test]
    fn bad_requests_fail_without_killing_the_session() {
        let server = Server::new(ServerConfig::default());
        open(&server, "s", &source());
        let resp =
            server.handle_line(r#"{"cmd":"edit","session":"s","find":"NOPE","replace":"x"}"#);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        let resp = server.handle_line(r#"{"cmd":"compile","session":"s"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let open = open_request("t", &source());
        for req in [
            open.as_str(),
            r#"{"cmd":"compile","session":"t"}"#,
            r#"{"cmd":"run","session":"t"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"close","session":"t"}"#,
        ] {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{req} -> {line}");
        }
        handle.shutdown();
    }

    #[test]
    fn oversized_request_line_is_refused_and_the_daemon_lives() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let mut hostile = TcpStream::connect(handle.addr).unwrap();
        // The daemon may answer and close before the last chunk is
        // written, so a write error here is as good as success.
        let chunk = vec![b'x'; 1 << 20];
        let mut left = MAX_REQUEST_LINE + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            if hostile.write_all(&chunk[..n]).is_err() {
                break;
            }
            left -= n;
        }
        let mut answer = String::new();
        BufReader::new(&hostile).read_line(&mut answer).unwrap();
        assert!(answer.contains("\"ok\":false"), "{answer}");
        assert!(answer.contains("exceeds"), "{answer}");
        // Closed: nothing follows the refusal.
        let mut rest = Vec::new();
        let _ = (&hostile).read_to_end(&mut rest);
        assert!(rest.is_empty());

        let stream = TcpStream::connect(handle.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let open = open_request("t", &source());
        for req in [open.as_str(), r#"{"cmd":"compile","session":"t"}"#] {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{req} -> {line}");
        }
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_request_line_is_refused_and_the_daemon_lives() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        // 100 000 `[` in a 100 kB line: far under the line cap, and deep
        // enough to overflow a connection thread's stack without the
        // parser's nesting cap.
        let mut hostile = TcpStream::connect(handle.addr).unwrap();
        let mut line = vec![b'['; 100_000];
        line.push(b'\n');
        hostile.write_all(&line).unwrap();
        let mut answer = String::new();
        BufReader::new(&hostile).read_line(&mut answer).unwrap();
        assert!(answer.contains("\"ok\":false"), "{answer}");
        assert!(answer.contains("nesting"), "{answer}");

        let stream = TcpStream::connect(handle.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let open = open_request("t", &source());
        for req in [open.as_str(), r#"{"cmd":"compile","session":"t"}"#] {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{req} -> {line}");
        }
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_source_fails_its_compile_and_the_connection_lives() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let (mut writer, mut reader) = connect(handle.addr);
        // 100 000 parentheses: deep enough to overflow a connection
        // thread's stack without the Fortran parser's nesting cap.
        let n = 100_000;
        let source = format!(
            "      PROGRAM p\n      REAL x\n      x = {}1.0{}\n      END\n",
            "(".repeat(n),
            ")".repeat(n)
        );
        let open = open_request("d", &source);
        let replies: Vec<String> = [
            open.as_bytes(),
            br#"{"cmd":"compile","session":"d"}"#,
            br#"{"cmd":"stats"}"#,
        ]
        .into_iter()
        .map(|req| ask(&mut writer, &mut reader, req))
        .collect();
        assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
        assert!(replies[1].contains("\"ok\":false"), "{}", replies[1]);
        assert!(replies[1].contains("nesting"), "{}", replies[1]);
        assert!(replies[2].contains("\"ok\":true"), "{}", replies[2]);
        handle.shutdown();
    }

    /// Writes `req` and a newline, and returns the one response line.
    fn ask(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &[u8]) -> String {
        writer.write_all(req).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        (stream.try_clone().unwrap(), BufReader::new(stream))
    }

    #[test]
    fn non_utf8_request_line_fails_that_request_only() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let (mut writer, mut reader) = connect(handle.addr);
        let open = open_request("t", &source());
        let replies: Vec<String> = [
            &[0xff, 0xfe][..],
            open.as_bytes(),
            br#"{"cmd":"compile","session":"t"}"#,
            br#"{"cmd":"stats"}"#,
        ]
        .into_iter()
        .map(|req| ask(&mut writer, &mut reader, req))
        .collect();
        let replies: Vec<Json> = replies
            .iter()
            .map(|r| json::parse(r).unwrap_or_else(|e| panic!("{r:?}: {e}")))
            .collect();
        assert_eq!(
            replies[0].get("ok"),
            Some(&Json::Bool(false)),
            "{replies:?}"
        );
        for r in &replies[1..] {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{replies:?}");
        }
        assert_eq!(replies[3].get("failures").and_then(Json::as_int), Some(1));
        handle.shutdown();
    }

    #[test]
    fn half_closed_client_gets_its_answer() {
        let server = Server::new(ServerConfig::default());
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(handle.addr).unwrap();
        // An unterminated last line, then end of input.
        client.write_all(br#"{"cmd":"stats"}"#).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        // The daemon answers, then closes: reading to the end returns.
        let mut answer = String::new();
        client.read_to_string(&mut answer).unwrap();
        assert_eq!(answer.lines().count(), 1, "{answer}");
        assert!(answer.contains("\"ok\":true"), "{answer}");
        handle.shutdown();
    }

    /// Many concurrent TCP clients on one daemon: 12 sessions on 4 client
    /// threads, each open → compile → 2 × (edit → compile) → close over
    /// one of 2 program variants. No request fails, and the sessions of a
    /// variant compile out of each other's store entries.
    #[test]
    fn small_load_completes_without_failures_and_shares_the_store() {
        const SESSIONS: usize = 12;
        const THREADS: usize = 4;
        let server = Server::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let addr = handle.addr;
        // A coefficient per variant, so the two share no leaf.
        let variants: Vec<String> = (0..2)
            .map(|v| {
                fortrand::corpus::wide_corpus(4, 32, 4)
                    .replace("0.5 * (u(i)", &format!("0.{} * (u(i)", 500 + v))
            })
            .collect();
        let compiles: usize = std::thread::scope(|s| {
            let clients: Vec<_> = (0..THREADS)
                .map(|t| {
                    let variants = &variants;
                    s.spawn(move || {
                        let mut compiles = 0;
                        for id in (t..SESSIONS).step_by(THREADS) {
                            let (mut writer, mut reader) = connect(addr);
                            let sid = format!("c{id}");
                            let compile = format!(r#"{{"cmd":"compile","session":"{sid}"}}"#);
                            let mut script = vec![
                                open_request(&sid, &variants[id % variants.len()]),
                                compile.clone(),
                            ];
                            // Back and forth: every source state recurs
                            // across the sessions of a variant.
                            for (find, replace) in [
                                ("0.5 * (v(i)", "0.25 * (v(i)"),
                                ("0.25 * (v(i)", "0.5 * (v(i)"),
                            ] {
                                script.push(
                                    Json::Obj(vec![
                                        ("cmd".into(), Json::str("edit")),
                                        ("session".into(), Json::str(&sid)),
                                        ("find".into(), Json::str(find)),
                                        ("replace".into(), Json::str(replace)),
                                    ])
                                    .compact(),
                                );
                                script.push(compile.clone());
                            }
                            script.push(format!(r#"{{"cmd":"close","session":"{sid}"}}"#));
                            for req in &script {
                                let resp = ask(&mut writer, &mut reader, req.as_bytes());
                                assert!(resp.contains("\"ok\":true"), "{req} -> {resp}");
                                compiles += usize::from(req == &compile);
                            }
                        }
                        compiles
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(compiles, 36);
        let (mut writer, mut reader) = connect(addr);
        let stats = json::parse(&ask(&mut writer, &mut reader, br#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(stats.get("failures").and_then(Json::as_int), Some(0));
        let hit_rate = stats.get("hit_rate_x100").and_then(Json::as_int).unwrap();
        assert!(hit_rate >= 50, "cross-session hit rate too low: {stats:?}");
        handle.shutdown();
    }
}

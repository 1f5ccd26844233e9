//! # fortrand-serve — compile-as-a-service
//!
//! A long-lived daemon multiplexing many concurrent edit → compile → run
//! sessions over one shared [`fortrand::ArtifactStore`] (content-addressed
//! artifact cache); each connection compiles on its own thread. Clients
//! speak a **line-delimited JSON protocol** over TCP: one request object
//! per line, one response object per line.
//!
//! ## Protocol grammar
//!
//! ```text
//! request  := open | edit | compile | run | stats | close
//! open     := {"cmd":"open",    "session":S, "source":TEXT}
//! edit     := {"cmd":"edit",    "session":S, "source":TEXT}
//!           | {"cmd":"edit",    "session":S, "find":TEXT, "replace":TEXT}
//! compile  := {"cmd":"compile", "session":S}
//! run      := {"cmd":"run",     "session":S}
//! stats    := {"cmd":"stats"}
//! close    := {"cmd":"close",   "session":S}
//! response := {"ok":true, ...}  |  {"ok":false, "error":TEXT}
//! ```
//!
//! Failures are isolated per request: a line that is not UTF-8 or not a
//! request, a compile error, a simulated-rank failure (`RankFailure`), or
//! even a panic inside the pipeline produces an `{"ok":false}` response on
//! that request only — the connection, the session, and every other
//! session stay live. The one exception is a line over the length cap,
//! which is answered and then closes its connection.
//!
//! The daemon's request latencies and store hit rate are measured by the
//! `serve_edit_loop` workload of the repository's `benchmark/`.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;

pub use server::{Server, ServerConfig};

// Compile-time thread-safety audit: one `Server` is shared by every
// connection thread.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<server::Server>();

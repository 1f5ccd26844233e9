//! `fortrand-serve` — the compile-as-a-service daemon.
//!
//! ```text
//! fortrand-serve [--addr HOST:PORT] [--threads N] [--capacity-mb MB]
//! ```
//!
//! Binds the address (default `127.0.0.1:7377`) and serves the
//! line-delimited JSON protocol until killed.

#![forbid(unsafe_code)]

use fortrand_serve::{Server, ServerConfig};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("fortrand-serve: bad value for {flag}: {v}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7377".to_string());
    let config = ServerConfig {
        threads: parse_num(&args, "--threads", ServerConfig::default().threads),
        capacity: parse_num(&args, "--capacity-mb", 256usize) << 20,
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    let handle = server.spawn(&addr).unwrap_or_else(|e| {
        eprintln!("fortrand-serve: {e}");
        std::process::exit(1);
    });
    eprintln!("fortrand-serve listening on {}", handle.addr);
    // The accept loop runs on its own thread; holding `handle` keeps it
    // serving until the process is killed.
    loop {
        std::thread::park();
    }
}

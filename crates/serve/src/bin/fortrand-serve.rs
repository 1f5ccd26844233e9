//! `fortrand-serve` — the compile-as-a-service daemon.
//!
//! ```text
//! fortrand-serve [--addr HOST:PORT] [--capacity-mb MB]
//! ```
//!
//! Binds the address (default `127.0.0.1:7377`) and serves the
//! line-delimited JSON protocol until killed. Any other argument, or a
//! flag without its value, prints the usage line and exits with status 2
//! before binding.

#![forbid(unsafe_code)]

use fortrand_serve::{Server, ServerConfig};

/// The address and the store capacity in MiB, or `None` when `args` holds
/// a flag the daemon does not know, a flag without its value, or a
/// capacity that is not a number.
fn parse(args: &[String]) -> Option<(String, usize)> {
    let (mut addr, mut capacity_mb) = ("127.0.0.1:7377".to_string(), 256);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--capacity-mb" => capacity_mb = value.parse().ok()?,
            _ => return None,
        }
    }
    Some((addr, capacity_mb))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((addr, capacity_mb)) = parse(&args) else {
        eprintln!("usage: fortrand-serve [--addr HOST:PORT] [--capacity-mb MB]");
        std::process::exit(2);
    };
    let config = ServerConfig {
        capacity: capacity_mb << 20,
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

//! `fortrand-serve` — the compile-as-a-service daemon.
//!
//! ```text
//! fortrand-serve [--addr HOST:PORT] [--threads N] [--capacity-mb MB]
//! fortrand-serve load [--clients N] [--concurrency N] [--rounds N]
//!                     [--variants N] [--procs N] [--threads N]
//! ```
//!
//! With no subcommand, binds the address (default `127.0.0.1:7377`) and
//! serves the line-delimited JSON protocol until killed. The `load`
//! subcommand runs the in-process load generator and prints the report
//! as JSON on stdout (the same report `tables serve` prints as text).

#![forbid(unsafe_code)]

use fortrand_serve::{run_load, LoadConfig, Server, ServerConfig};

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
    if args.first().map(String::as_str) == Some("load") {
        let defaults = LoadConfig::default();
        let cfg = LoadConfig {
            clients: parse_num(&args, "--clients", defaults.clients),
            concurrency: parse_num(&args, "--concurrency", defaults.concurrency),
            rounds: parse_num(&args, "--rounds", defaults.rounds),
            variants: parse_num(&args, "--variants", defaults.variants),
            procs: parse_num(&args, "--procs", defaults.procs),
            threads: parse_num(&args, "--threads", defaults.threads),
            ..defaults
        };
        let report = run_load(&cfg);
        println!("{}", report.to_json().pretty());
        if report.failures > 0 {
            std::process::exit(1);
        }
        return;
    }

    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7377".to_string());
    let config = ServerConfig {
        threads: parse_num(&args, "--threads", ServerConfig::default().threads),
        capacity: parse_num(&args, "--capacity-mb", 256usize) << 20,
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    if let Err(e) = server.serve_forever(&addr) {
        eprintln!("fortrand-serve: {e}");
        std::process::exit(1);
    }
}

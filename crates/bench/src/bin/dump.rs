//! Debug dump: pretty-prints the compiled SPMD program for a corpus entry.
//!
//! ```text
//! cargo run -p fortrand-bench --bin dump -- dgefa 8 4
//! ```

#![forbid(unsafe_code)]

use fortrand::corpus::dgefa_source;
use fortrand::CompileOptions;
use fortrand_bench::compile;
use fortrand_spmd::print::pretty_all;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let p: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let src = dgefa_source(n, p);
    let out = compile(&src, &CompileOptions::default()).unwrap();
    println!("{}", pretty_all(&out.spmd));
    println!(
        "static: sends={} bcasts={} elem={}",
        out.report.static_sends, out.report.static_bcasts, out.report.static_elem_msgs
    );
}

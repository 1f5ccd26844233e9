//! Compile-time benchmark for the compilation driver itself: the
//! sequential reverse-topological sweep vs the wavefront-parallel
//! schedule vs an incremental one-leaf-edit recompile, over the wide
//! multi-procedure corpus ([`fortrand::corpus::wide_corpus`]).
//!
//! The parallel schedule only pays off with >1 host core; the artifact
//! store pays off everywhere (the sweep skips code generation for every
//! unit whose source and consumed facts are unchanged).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fortrand::corpus::{wide_corpus, wide_corpus_edited};
use fortrand::{CompileMode, CompileOptions};
use fortrand_bench::{compile, Chain};

fn bench_compile_time(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile-time");
    g.sample_size(10);
    let procs = 16;
    let src = wide_corpus(procs, 256, 8);
    let edited = wide_corpus_edited(procs, 256, 8);

    g.bench_with_input(BenchmarkId::new("sequential", procs), &src, |b, src| {
        b.iter(|| compile(src, &CompileOptions::default()).unwrap())
    });

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    g.bench_with_input(BenchmarkId::new("parallel", threads), &src, |b, src| {
        b.iter(|| {
            compile(
                src,
                &CompileOptions::builder()
                    .mode(CompileMode::Parallel(threads))
                    .build(),
            )
            .unwrap()
        })
    });

    g.bench_with_input(
        BenchmarkId::new("incremental-edit", procs),
        &src,
        |b, src| {
            let mut chain = Chain::default();
            chain.compile(src, &CompileOptions::default());
            // Alternate base/edited so every iteration is a real one-leaf edit.
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let s: &str = if flip { &edited } else { src };
                chain.compile(s, &CompileOptions::default())
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_compile_time);
criterion_main!(benches);

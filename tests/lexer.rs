//! The lexer's full output — line numbers, labels and tokens — pinned as
//! one digest per checked-in source: the paper's figures, every
//! `tests/regressions/*.f` fixture, and the dgefa, relax, adi and wide
//! corpora at the benchmark's sizes. A lexer rewrite that changes any
//! token of any of them fails here by name.

use fortrand::corpus::{adi_source, dgefa_source, relax_source, wide_corpus};
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_frontend::lexer::lex;

/// FNV-1a over the `Debug` rendering of `lex`'s output: std-only and
/// stable across toolchains, unlike `DefaultHasher`.
fn lex_digest(src: &str) -> u64 {
    let rendered = format!("{:?}", lex(src).expect("checked-in sources lex"));
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn lex_output_of_every_checked_in_source_is_pinned() {
    let mut sources: Vec<(String, String)> = vec![
        ("FIG1".into(), FIG1.into()),
        ("FIG4".into(), FIG4.into()),
        ("FIG15".into(), FIG15.into()),
        ("dgefa(256,8)".into(), dgefa_source(256, 8)),
        (
            "relax(4096,1,160,256)".into(),
            relax_source(4096, 1, 160, 256),
        ),
        ("adi(256,4,8)".into(), adi_source(256, 4, 8)),
        ("wide(300,256,4)".into(), wide_corpus(300, 256, 4)),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut fixtures: Vec<_> = std::fs::read_dir(dir)
        .expect("regressions directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        sources.push((name, std::fs::read_to_string(&path).expect("fixture")));
    }

    let pinned: &[(&str, u64)] = &[
        ("FIG1", 0x2f98_2046_0723_852f),
        ("FIG4", 0xc116_4fc4_6e0e_4312),
        ("FIG15", 0x9c7f_e08a_02ca_d5e8),
        ("dgefa(256,8)", 0x1710_ef45_8cee_2f08),
        ("relax(4096,1,160,256)", 0x37b6_0e6a_be9a_c4d7),
        ("adi(256,4,8)", 0x4f88_0a55_ab06_9487),
        ("wide(300,256,4)", 0xf9b1_e5a3_fe49_a6d1),
        (
            "aggregation_keeps_peers_and_guards_apart.f",
            0xf274_b60b_8916_d28a,
        ),
        (
            "aggregation_stops_at_a_call_that_writes_the_array.f",
            0xeda9_9405_6afa_d030,
        ),
        (
            "aggregation_stops_at_a_copied_out_bound.f",
            0x6533_ac1f_8fd9_68e8,
        ),
        (
            "broadcast_of_an_element_the_loop_writes.f",
            0xd1b5_def9_2bce_96e6,
        ),
        (
            "delayed_exchange_after_callee_write.f",
            0x4a97_f7ba_a6e1_be0c,
        ),
        (
            "delayed_exchange_after_sibling_call_write.f",
            0x2e3f_5418_17f6_2f25,
        ),
        (
            "do_variable_read_after_partitioned_loop.f",
            0xb550_dc47_bab4_93cc,
        ),
        ("packed_column_broadcast.f", 0x2ee4_3fb6_da8f_739d),
        ("remap_keeps_overlap_cells.f", 0x5f33_8b07_2d17_4755),
    ];
    let got: Vec<(String, u64)> = sources
        .iter()
        .map(|(name, src)| (name.clone(), lex_digest(src)))
        .collect();
    let want: Vec<(String, u64)> = pinned.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(got, want, "lex output moved (or a source was added)");
}

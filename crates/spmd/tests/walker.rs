//! Totality of the operand walkers: over a procedure holding every
//! statement and expression kind, the shared and the mutable walker agree,
//! a remap built on them reaches every identifier, and the array-mention
//! count matches the hand-written expectation.

mod common;

use common::{every_kind, MENTIONS_OF_A};
use fortrand_ir::Sym;
use fortrand_spmd::ir::*;
use fortrand_spmd::rewrite::{remap_proc, ProcRemap};
use std::collections::BTreeSet;

/// The variant name: the `{:?}` rendering up to its first delimiter.
fn kind(debug: String) -> String {
    let end = debug.find([' ', '(', '{']).unwrap_or(debug.len());
    debug[..end].to_string()
}

#[test]
fn fixture_holds_every_kind() {
    let (prog, _) = every_kind();
    let mut stmts = BTreeSet::new();
    let mut exprs = BTreeSet::new();
    walk_stmts(&prog.procs[0].body, &mut |s| {
        stmts.insert(kind(format!("{s:?}")));
    });
    walk_operands(&prog.procs[0].body, &mut |op| {
        if let Operand::Expr(e) = op {
            e.walk(&mut |x| {
                exprs.insert(kind(format!("{x:?}")));
            });
        }
    });
    // Raise these with the enums, and give the fixture the new kind.
    assert_eq!(stmts.len(), 22, "{stmts:?}");
    assert_eq!(exprs.len(), 13, "{exprs:?}");
}

#[test]
fn both_walkers_report_the_same_positions() {
    let (prog, _) = every_kind();
    walk_stmts(&prog.procs[0].body, &mut |s| {
        let mut shared = Vec::new();
        s.operands(&mut |op| shared.push(format!("{op:?}")));
        let mut mutable = Vec::new();
        s.clone()
            .operands_mut(&mut |op| mutable.push(format!("{op:?}")));
        assert_eq!(shared, mutable, "walkers disagree on {s:?}");
    });
}

/// Every number that follows `prefix` in `text`, in order.
fn ids_after(text: &str, prefix: &str) -> Vec<u64> {
    text.match_indices(prefix)
        .map(|(at, _)| {
            let digits: String = text[at + prefix.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("an id")
        })
        .collect()
}

/// After a remap no original id is left: every id site of the `{:?}`
/// rendering holds its image.
#[test]
fn remap_reaches_every_id() {
    let (mut prog, _) = every_kind();
    let m = ProcRemap {
        sym: &|s| Sym(s.0 + 1000),
        dist: &|d| DistId(d.0 + 10),
        proc: &|p| p + 1,
    };
    let mut p = prog.procs.swap_remove(0);
    let before = format!("{p:?}");
    remap_proc(&mut p, &m);
    let after = format!("{p:?}");
    for (prefix, shift) in [("Sym(", 1000), ("DistId(", 10), ("proc: ", 1)] {
        let want: Vec<u64> = ids_after(&before, prefix)
            .iter()
            .map(|n| n + shift)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(ids_after(&after, prefix), want, "{prefix} in {after}");
    }
}

#[test]
fn array_mentions_match_the_hand_count() {
    let (prog, a) = every_kind();
    let mut used = 0;
    walk_array_mentions(&prog.procs[0].body, &mut |name, _| {
        used += usize::from(name == a)
    });
    assert_eq!(used, MENTIONS_OF_A);
}

#[test]
fn a_post_counts_as_its_message_and_a_wait_as_none() {
    let (prog, _) = every_kind();
    let mut kinds = Vec::new();
    walk_stmts(&prog.procs[0].body, &mut |s| {
        assert_eq!(s.is_comm(), s.msg_kind().is_some());
        kinds.extend(s.msg_kind());
    });
    let count = |k: fn(&MsgKind) -> bool| kinds.iter().filter(|x| k(x)).count();
    assert_eq!(count(|k| matches!(k, MsgKind::Send { .. })), 2);
    assert_eq!(count(|k| matches!(k, MsgKind::Recv { .. })), 2);
    assert_eq!(count(|k| matches!(k, MsgKind::Bcast)), 4);
    assert_eq!(count(|k| matches!(k, MsgKind::Wait)), 4);
    assert_eq!(count(|k| matches!(k, MsgKind::Remap)), 2);
    assert_eq!(count(|k| matches!(k, MsgKind::Mark)), 1);
}

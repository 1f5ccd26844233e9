//! Golden reproductions of the paper's code figures: the pretty-printed
//! compiler output must match the structure of Figs. 2, 3, 10 and 12.

mod common;

use common::compile;
use fortrand::{CommOpt, CompileOptions, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG4};
use fortrand_spmd::print::{pretty, pretty_all};

fn compiled(src: &str, strategy: Strategy) -> fortrand::CompileOutput {
    compile(src, &CompileOptions::builder().strategy(strategy).build()).unwrap()
}

/// Figure 2: compile-time code for F1 — reduced bounds, overlap-widened
/// declaration, one vectorized exchange outside the loop.
#[test]
fn fig2_f1_output_shape() {
    let out = compiled(FIG1, Strategy::Interprocedural);
    // Communication is hoisted into the caller (delayed instantiation), so
    // look at the whole program text.
    let text = pretty_all(&out.spmd);
    // Overlap-widened declaration.
    assert!(text.contains("REAL X(30)"), "{text}");
    // Paper-style upper bound reduction.
    assert!(text.contains("min((my$p+1)*25,95)-my$p*25"), "{text}");
    // Guarded neighbour exchange, vectorized (whole sections, no loop var).
    assert!(
        text.contains("if (my$p .gt. 0) send X(1:5) to my$p-1"),
        "{text}"
    );
    assert!(
        text.contains("if (my$p .lt. 3) recv X(26:30) from my$p+1"),
        "{text}"
    );
}

/// Figure 3: run-time resolution — full-size arrays, per-element ownership
/// tests, element messages.
#[test]
fn fig3_runtime_resolution_shape() {
    let out = compiled(FIG1, Strategy::RuntimeResolution);
    let f1 = out
        .spmd
        .proc_index(out.spmd.interner.get("f1").unwrap())
        .unwrap();
    let text = pretty(&out.spmd, f1);
    // Full global loop bounds (no reduction).
    assert!(text.contains("do i = 1,95"), "{text}");
    // Ownership tests against both sides of the assignment.
    assert!(text.to_lowercase().contains("owner(x(i+5))"), "{text}");
    // Element sends/recvs inside the loop.
    assert!(text.contains("send X(i+5) to"), "{text}");
    assert!(text.contains("recv X(i+5) from"), "{text}");
    // Guarded owner-computes assignment.
    assert!(text.contains("X(i) = "), "{text}");
}

/// Figure 10: interprocedural output for the two clones — the row clone
/// gets its k loop reduced, the column clone keeps full bounds but the
/// caller's j loop shrinks to 25, and the single vectorized exchange sits
/// in P1 before the i loop.
#[test]
fn fig10_interprocedural_shape() {
    let out = compiled(FIG4, Strategy::Interprocedural);
    let spmd = &out.spmd;
    // Clones exist.
    let f2r = spmd.interner.get("f2$1").unwrap();
    let f2c = spmd.interner.get("f2$2").unwrap();
    // Row version of F2: k loop reduced via ub$.
    let f2r_text = pretty(spmd, spmd.proc_index(f2r).unwrap());
    assert!(
        f2r_text.contains("min((my$p+1)*25,95)-my$p*25"),
        "{f2r_text}"
    );
    // Column version of F2: full k loop, no messages.
    let f2c_text = pretty(spmd, spmd.proc_index(f2c).unwrap());
    assert!(f2c_text.contains("do k = 1,95"), "{f2c_text}");
    assert!(!f2c_text.contains("send"), "{f2c_text}");
    assert!(!f2c_text.contains("recv"), "{f2c_text}");
    // Main: vectorized exchange of X's boundary rows over all columns,
    // placed once (outside the i loop); the j loop is reduced to 25.
    let main_text = pretty(spmd, spmd.main);
    assert!(
        main_text.contains("send X(1:5,1:100) to my$p-1"),
        "{main_text}"
    );
    assert!(
        main_text.contains("recv X(26:30,1:100) from my$p+1"),
        "{main_text}"
    );
    // The j loop is reduced to the 25 local columns (either as a literal
    // or via the paper's min() upper-bound form).
    assert!(
        main_text.contains("do j = 1,25") || main_text.contains("min((my$p+1)*25,100)-my$p*25"),
        "{main_text}"
    );
    assert!(!main_text.contains("do j = 1,100"), "{main_text}");
    assert!(main_text.contains("do i = 1,100"), "{main_text}");
    // Declarations carry the reduced + overlap-widened shapes.
    assert!(main_text.contains("REAL X(30,100)"), "{main_text}");
    assert!(main_text.contains("REAL Y(100,25)"), "{main_text}");
}

/// Figure 12: immediate instantiation — the exchange lives inside the row
/// clone (one message per invocation) and the column clone guards its own
/// iterations instead of the caller reducing the j loop.
#[test]
fn fig12_immediate_shape() {
    let out = compiled(FIG4, Strategy::Immediate);
    let spmd = &out.spmd;
    let f2r = spmd.interner.get("f2$1").unwrap();
    let f2r_text = pretty(spmd, spmd.proc_index(f2r).unwrap());
    // Per-invocation message inside the procedure, single column `i`.
    assert!(f2r_text.contains("send Z(1:5,i) to my$p-1"), "{f2r_text}");
    assert!(
        f2r_text.contains("recv Z(26:30,i) from my$p+1"),
        "{f2r_text}"
    );
    // Column clone: ownership guard inside, caller loop not reduced.
    let f2c = spmd.interner.get("f2$2").unwrap();
    let f2c_text = pretty(spmd, spmd.proc_index(f2c).unwrap());
    assert!(f2c_text.contains("owner"), "{f2c_text}");
    let main_text = pretty(spmd, spmd.main);
    assert!(main_text.contains("do j = 1,100"), "{main_text}");
    // No messages in main under immediate instantiation.
    assert!(!main_text.contains("send X"), "{main_text}");
}

/// Message-count contrast between Figs. 10 and 12 (§5.5): the
/// delayed-instantiation program sends once per boundary; immediate
/// instantiation sends per invocation (trip-count times).
#[test]
fn fig10_vs_fig12_message_counts() {
    use fortrand_machine::Machine;
    use fortrand_spmd::{try_run_spmd, ExecOptions};
    let inter = compiled(FIG4, Strategy::Interprocedural);
    let imm = compiled(FIG4, Strategy::Immediate);
    let m = Machine::new(4);
    let run = |out: &fortrand::CompileOutput| {
        try_run_spmd(&out.spmd, &m, &Default::default(), &ExecOptions::default())
            .unwrap_or_else(|f| panic!("{f}"))
    };
    let ri = run(&inter);
    let rm = run(&imm);
    // Paper: 100 messages (per invocation) vs 1; three of four ranks send.
    assert_eq!(
        ri.stats.total_msgs, 3,
        "interprocedural: one vectorized msg per boundary"
    );
    assert_eq!(rm.stats.total_msgs, 300, "immediate: one per invocation");
    assert!(rm.stats.time_us > ri.stats.time_us);
}

/// The loop header that directly encloses the first `send` in `text`, or
/// `None` when the exchange sits outside every loop.
fn exchange_loop(text: &str) -> Option<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains(" send "))
        .unwrap_or_else(|| panic!("no exchange in\n{text}"));
    let indent = |l: &str| l.len() - l.trim_start().len();
    let depth = indent(lines[at]);
    lines[..at]
        .iter()
        .rev()
        .find(|l| indent(l) < depth)
        .map(|l| l.trim())
}

const STENCIL_HEAD: &str = "
      PROGRAM p
      PARAMETER (n$proc = 4)
      REAL x(100), y(100)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
";

/// Compiles `STENCIL_HEAD` followed by `body` and returns the loop header
/// enclosing its exchange, as `exchange_loop` does.
fn stencil_exchange_loop(body: &str) -> Result<Option<String>, String> {
    let text = fortrand::Session::new(format!("{STENCIL_HEAD}{body}"))
        .compile()
        .map_err(|e| format!("{e}"))?
        .emit();
    Ok(exchange_loop(&text).map(str::to_string))
}

/// Fig. 1's shape `x(i) = f(x(i+5))`: the read precedes the write of the
/// same element, so the dependence is anti only and the exchange is
/// vectorized out of the loop (§3.1).
#[test]
fn fig1_has_no_true_dep_only_anti() {
    let body = "
      do i = 1, 95
        x(i) = 0.5 * x(i+5)
      enddo
      END
";
    assert_eq!(stencil_exchange_loop(body), Ok(None));
}

/// `x(i) = x(i-1)`: the element read was written one iteration earlier,
/// a flow dependence carried by the partitioned loop itself. That needs
/// pipelining, which the compiler rejects; the same stencil over an array
/// the loop does not write has no true dependence and compiles with the
/// exchange outside the loop.
#[test]
fn forward_stencil_has_true_dep() {
    let carried = "
      do i = 2, 100
        x(i) = x(i-1)
      enddo
      END
";
    let e = stencil_exchange_loop(carried).expect_err("flow dependence accepted");
    assert!(e.contains("pipelining"), "{e}");
    let free = "
      do i = 2, 100
        x(i) = y(i-1)
      enddo
      END
";
    assert_eq!(stencil_exchange_loop(free), Ok(None));
}

/// A 2-D nest whose read `a(i+1,j-1)` was written by the previous `j`
/// iteration: the dependence is carried by the outer loop, so the exchange
/// sits in it, not outside the nest and not in the inner loop.
#[test]
fn two_level_nest_carried_at_outer() {
    let body = "
      REAL a(16,16)
      DISTRIBUTE a(BLOCK,:)
      do j = 2, 16
        do i = 1, 15
          a(i,j) = a(i+1,j-1)
        enddo
      enddo
      END
";
    assert_eq!(
        stencil_exchange_loop(body),
        Ok(Some("do j = 2,16".to_string()))
    );
}

/// §5.4: an exchange is vectorized out to the deepest loop that carries a
/// true dependence into the read, and no further. One row per case of the
/// dependence test codegen asks about writes in an enclosing loop; the
/// anti-only, single-loop flow and 2-D nest cases have tests of their own
/// above.
#[test]
fn exchange_sits_at_the_deepest_carrying_loop() {
    let cases: [(&str, &str, Option<&str>); 3] = [
        (
            "write in the enclosing k loop",
            "
      do k = 1, 10
        do i = 1, 95
          y(i) = x(i+5)
        enddo
        do i = 1, 100
          x(i) = y(i) + 1.0
        enddo
      enddo
      END
",
            Some("do k = 1,10"),
        ),
        (
            "write through a call in the k loop",
            "
      do k = 1, 10
        do i = 1, 95
          y(i) = x(i+5)
        enddo
        call bump(x)
      enddo
      END
      SUBROUTINE bump(x)
      REAL x(100)
      do i = 1, 100
        x(i) = x(i) + 1.0
      enddo
      END
",
            Some("do k = 1,10"),
        ),
        (
            "write disjoint from the read after the sweep",
            "
      do k = 1, 10
        do i = 1, 50
          y(i) = x(i+5)
        enddo
        do i = 61, 100
          x(i) = 2.0 * x(i)
        enddo
      enddo
      END
",
            None,
        ),
    ];
    for (name, body, want) in cases {
        let got = stencil_exchange_loop(body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got.as_deref(), want, "{name}");
    }
}

/// Two pinned reads of one slice at different anchors share one broadcast,
/// hoisted to the earlier anchor, when nothing in the unit writes the
/// array: here the call between them writes `d` only. A call that writes
/// the slice is rejected instead (`errors::pinned_slice_written_by_a_call_rejected`).
#[test]
fn pinned_slice_broadcast_hoists_over_a_call_that_only_reads_it() {
    let text = fortrand::Session::new(
        "
      PROGRAM p
      PARAMETER (n$proc = 4)
      REAL a(16,16), d(16,16), b(16), c(16)
      DISTRIBUTE a(:,BLOCK)
      DISTRIBUTE d(:,BLOCK)
      do i = 1, 16
        b(i) = a(i,3)
      enddo
      call copy(a, d)
      do i = 1, 16
        c(i) = a(i,3)
      enddo
      END
      SUBROUTINE copy(a, d)
      REAL a(16,16), d(16,16)
      do j = 1, 16
        do i = 1, 16
          d(i,j) = a(i,j) + 1.0
        enddo
      enddo
      END
",
    )
    .compile()
    .unwrap_or_else(|e| panic!("{e}"))
    .emit();
    let lines: Vec<&str> = text.lines().collect();
    let bcasts: Vec<usize> = (0..lines.len())
        .filter(|&k| lines[k].starts_with("broadcast A("))
        .collect();
    let first_loop = lines.iter().position(|l| l.starts_with("do i")).unwrap();
    assert_eq!(bcasts.len(), 1, "{text}");
    assert!(bcasts[0] < first_loop, "{text}");
}

/// A read without a point section (`j*j` is not affine) exchanges the
/// whole of its serial dimension: the array's declared extent (8), not
/// the wider decomposition's (12) that sizes the local declaration.
#[test]
fn whole_section_fallback_uses_the_array_extent() {
    let text = fortrand::Session::new(
        "
      PROGRAM p
      PARAMETER (n$proc = 4)
      REAL a(16,8), b(16,8)
      DECOMPOSITION d(16,12)
      ALIGN a(i,j) with d(i,j)
      ALIGN b(i,j) with d(i,j)
      DISTRIBUTE d(BLOCK,:)
      do j = 1, 2
        do i = 1, 15
          b(i,j) = a(i+1,j*j)
        enddo
      enddo
      END
",
    )
    .compile()
    .unwrap_or_else(|e| panic!("{e}"))
    .emit();
    assert!(text.contains("REAL A(5,12)"), "{text}");
    assert!(
        text.contains("if (my$p .gt. 0) send A(1,1:8) to my$p-1"),
        "{text}"
    );
    assert!(
        text.contains("if (my$p .lt. 3) recv A(5,1:8) from my$p+1"),
        "{text}"
    );
}

/// Two column reads with one owner pack into one broadcast under
/// `CommOpt::Coalesce`. This is the one source program whose node program
/// packs; `tests/regressions/packed_column_broadcast.f` runs it on every
/// engine against the sequential oracle.
#[test]
fn same_root_column_broadcasts_pack_into_one() {
    let fixture = include_str!("regressions/packed_column_broadcast.f");
    let (_header, src) = fixture.split_once('\n').unwrap();
    let compiled = fortrand::Session::new(src)
        .comm_opt(CommOpt::Coalesce)
        .compile()
        .unwrap_or_else(|e| panic!("{e}"));
    let text = compiled.emit();
    assert!(
        text.contains("broadcast [A(1:16,local(k)), D(1:16,local(k))] from owner(1,k)"),
        "{text}"
    );
    assert_eq!(compiled.report().comm.coalesced, 1, "{text}");
}

/// A subroutine that writes `v` in one loop and reads `v(i+1)` in the
/// next must exchange `v` between the loops: delayed to the caller, the
/// exchange would ship the values `v` had on entry. `u`'s exchange has
/// no write before it and is still delayed into `MAIN` as `x`'s, before
/// the call.
/// `tests/regressions/delayed_exchange_after_callee_write.f` runs the
/// program against the sequential oracle.
#[test]
fn delayed_exchange_stays_after_a_write_in_the_callee() {
    let fixture = include_str!("regressions/delayed_exchange_after_callee_write.f");
    let (_header, src) = fixture.split_once('\n').unwrap();
    let text = compiled(src, Strategy::Interprocedural);
    let text = pretty_all(&text.spmd);
    let (main, sweep) = text.split_once("SUBROUTINE SWEEP").unwrap();
    let at = |body: &str, needle: &str| {
        body.find(needle)
            .unwrap_or_else(|| panic!("no `{needle}` in:\n{text}"))
    };
    assert!(
        at(main, "send X(1) to my$p-1") < at(main, "call SWEEP")
            && at(main, "recv X(17) from my$p+1") < at(main, "call SWEEP"),
        "{text}"
    );
    assert!(!main.contains("send Y"), "{text}");
    let second_loop = at(sweep, "U(i) = ");
    for exchange in ["send V(1) to my$p-1", "recv V(17) from my$p+1"] {
        let pos = at(sweep, exchange);
        assert!(at(sweep, "V(i) = ") < pos && pos < second_loop, "{text}");
    }
}

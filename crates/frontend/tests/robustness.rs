//! Front-end robustness: the lexer/parser/sema pipeline must never panic —
//! any input either parses or produces a diagnostic with a line number.

use fortrand_frontend::lexer::lex;
use fortrand_frontend::{load_program, FrontendError};
use proptest::prelude::*;

/// Non-ASCII characters that are not whitespace, so no trim removes them.
const FOREIGN: [char; 6] = ['é', 'ß', '€', '中', '𝄞', '\u{feff}'];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Arbitrary byte-ish soup: no panics, ever.
    #[test]
    fn arbitrary_text_never_panics(s in "[ -~\\n]{0,400}") {
        let _ = load_program(&s);
    }

    /// Beyond printable ASCII: tabs, carriage returns, Unicode whitespace
    /// and multi-byte characters of every UTF-8 length. No panics, and an
    /// "unexpected character" diagnostic names one whole character of the
    /// source, on the line it reports or a continuation of it.
    #[test]
    fn text_beyond_ascii_never_panics(s in "[ -~\\t\\r\\n\u{a0}\u{3000}éß€中𝄞]{0,400}") {
        if let Err(e) = load_program(&s) {
            if let Some(c) = e.message.strip_prefix("unexpected character `").and_then(|m| m.strip_suffix('`')) {
                prop_assert_eq!(c.chars().count(), 1, "{:?}", e);
                let from = (e.line as usize).saturating_sub(1);
                prop_assert!(s.lines().skip(from).any(|l| l.contains(c)), "{:?} not at or after line {}", c, e.line);
            }
        }
    }

    /// A foreign character after a lexable prefix on a tab-indented,
    /// CRLF-terminated line is reported whole, on its own line.
    #[test]
    fn foreign_character_is_reported_whole_on_its_line(
        before in 0usize..4,
        prefix in "[a-z0-9 \\t+*(),=]{0,20}",
        pick in 0usize..6,
        suffix in "[a-z0-9 \\t+*(),=]{0,20}",
    ) {
        let c = FOREIGN[pick];
        let mut src = "\tx = 1\r\n".repeat(before);
        src.push_str(&format!("\t{prefix}{c}{suffix}\r\n\ty = 2\r\n"));
        prop_assert_eq!(
            lex(&src).unwrap_err(),
            FrontendError::at(before as u32 + 1, format!("unexpected character `{c}`"))
        );
    }

    /// Structured-ish soup assembled from plausible Fortran fragments: no
    /// panics, and diagnostics carry plausible line numbers.
    #[test]
    fn fragment_soup_never_panics(
        frags in prop::collection::vec(
            prop_oneof![
                Just("PROGRAM p"),
                Just("SUBROUTINE s(a)"),
                Just("REAL a(10)"),
                Just("INTEGER i"),
                Just("PARAMETER (n = 4)"),
                Just("DISTRIBUTE a(BLOCK)"),
                Just("ALIGN a(i) with b(i)"),
                Just("do i = 1, 10"),
                Just("enddo"),
                Just("if (i .gt. 0) then"),
                Just("else"),
                Just("endif"),
                Just("a(i) = a(i) + 1.0"),
                Just("call s(a)"),
                Just("return"),
                Just("continue"),
                Just("END"),
            ],
            0..30,
        )
    ) {
        let src = frags.join("\n");
        match load_program(&src) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(e.line as usize <= src.lines().count() + 1, "line {} of {}", e.line, src.lines().count());
            }
        }
    }

    /// Well-formed single-unit programs with random identifiers and
    /// literals always parse.
    #[test]
    fn wellformed_programs_parse(
        name in "[a-z][a-z0-9]{0,6}",
        size in 1i64..500,
        lit in -1000.0f64..1000.0,
    ) {
        let src = format!(
            "      PROGRAM {name}\n      REAL arr({size})\n      do i = 1, {size}\n        arr(i) = {lit:.3}\n      enddo\n      END\n"
        );
        // Identifier may collide with a keyword-ish name; either outcome
        // must be a clean Result.
        let _ = load_program(&src);
    }
}

/// Tabs and carriage returns are blanks: a tab-indented, CRLF-terminated
/// program lexes as the same tokens as its space-indented LF twin, and a
/// foreign character inside a string literal is kept whole.
#[test]
fn tabs_and_crlf_lex_like_spaces() {
    let unix = "      PROGRAM p\n      x = 1 + 2\n      PRINT *, 'hé€'\n      END\n";
    let dos = unix.replace("      ", "\t").replace('\n', "\r\n");
    assert_eq!(lex(unix).unwrap(), lex(&dos).unwrap());
    assert!(format!("{:?}", lex(unix).unwrap()).contains("hé€"));
}

//! Front-end robustness: the lexer/parser/sema pipeline must never panic —
//! any input either parses or produces a diagnostic with a line number.

use fortrand_frontend::lexer::lex;
use fortrand_frontend::parser::{parse_lines, parse_program, split_units};
use fortrand_frontend::{load_program, FrontendError, SourceProgram};
use fortrand_ir::{Interner, Sym};
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

/// The units the split-and-parse property strings together: every `END`
/// variant, labels, `&` continuations of both styles and comments.
const UNITS: [&str; 4] = [
    "      PROGRAM p\n      REAL a(10)\n      do i = 1, 10\n        a(i) = 0.0\n      end do\n      call s(a)\n      END\n",
    "      SUBROUTINE s(a)\n      REAL a(10)\n      if (a(1) .gt. 0.0) then\n        a(1) = 1.0\n      endif\n      end\n",
    "      SUBROUTINE t\n      do 10 i = 1, 3\n      x = 1.0 &\n        + 2.0\n   10 continue\n   20 End ! done\n",
    "      real function f(x)\n      f = x\n     & + 1.0\n      enddo\n      end if\n      END\n",
];

/// Lines the mutations put in: comments of every style, blanks, and
/// lines that end a unit, close a block, or only look like they might.
const LINES: [&str; 16] = [
    "",
    "C comment",
    "c comment",
    "* star comment",
    "! bang comment",
    "      ! indented comment",
    "      END",
    "      end",
    "   30 end",
    "      end ! trailing",
    "      end &",
    "     & do",
    "      END subroutine",
    "      end = 5",
    "      enddo",
    "      endif",
];

/// A mutation of one line: a line of [`LINES`] goes in before it, it is
/// replaced by one, it is cut into two by an `&` of either style, or it is
/// dropped.
fn mutate(src: &str, muts: &[(usize, usize, usize)]) -> String {
    let mut lines: Vec<String> = src.lines().map(String::from).collect();
    for &(op, at, pick) in muts {
        if lines.is_empty() {
            break;
        }
        let at = at % lines.len();
        let new = LINES[pick % LINES.len()].to_string();
        match op % 5 {
            0 => lines.insert(at, new),
            1 => lines[at] = new,
            2 | 3 => {
                let line = lines[at].clone();
                let Some(cut) = line.trim_end().rfind(' ').filter(|&c| c > 6) else {
                    continue;
                };
                let (head, tail) = line.split_at(cut);
                let (a, b) = if op % 5 == 2 {
                    (format!("{head} &"), format!("      {tail}"))
                } else {
                    (head.to_string(), format!("     &{tail}"))
                };
                lines[at] = a;
                lines.insert(at + 1, b);
            }
            _ => {
                lines.remove(at);
            }
        }
    }
    lines.join("\n") + "\n"
}

/// A parse, or its error, as text.
fn render(parsed: Result<SourceProgram, FrontendError>) -> String {
    match parsed {
        Ok(p) => {
            let names: Vec<&str> = (0..p.interner.len() as u32)
                .map(|i| p.interner.name(Sym(i)))
                .collect();
            format!("{names:?}\n{:?}", p.units)
        }
        Err(e) => format!("line {}: {}", e.line, e.message),
    }
}

/// `src` parsed slice by slice, as the compiler's phase 1 parses it:
/// every slice lexed first, then each parsed into the program, names and
/// statement ids continuing and lines moved past the slices before. Checks
/// on the way that the slices tile the source, and that each slice parsed
/// alone, relocated, gives the units it gave in place.
fn by_slices(src: &str) -> Result<SourceProgram, FrontendError> {
    let slices = split_units(src);
    let mut at = 0;
    for (range, before) in &slices {
        assert_eq!(range.start, at, "slices tile the source");
        assert_eq!(*before as usize, src[..at].matches('\n').count());
        at = range.end;
    }
    assert_eq!(at, src.len(), "slices tile the source");
    let shifted = |mut e: FrontendError, before: u32| {
        e.line += before * u32::from(e.line > 0);
        e
    };
    let mut lexed = Vec::new();
    for (range, before) in &slices {
        let mut lines = lex(&src[range.clone()]).map_err(|e| shifted(e, *before))?;
        lines.iter_mut().for_each(|l| l.number += before);
        lexed.push(lines);
    }
    let (mut interner, mut units, mut ids) = (Interner::new(), Vec::new(), 0);
    for ((range, before), lines) in slices.iter().zip(&lexed) {
        let (parsed, named) = parse_lines(lines, &mut interner, ids)?;
        // The slice's names in the order it first names them.
        let mut syms: Vec<Sym> = Vec::new();
        for s in named.into_iter().flatten() {
            if !syms.contains(&s) {
                syms.push(s);
            }
        }
        let mut own = Interner::new();
        let (alone, _) = parse_lines(&lex(&src[range.clone()])?, &mut own, 0)?;
        assert_eq!(own.len(), syms.len());
        let relocated: Vec<_> = (alone.iter())
            .map(|u| u.relocated(&|s| syms[s.0 as usize], ids, *before))
            .collect();
        assert_eq!(
            format!("{relocated:?}"),
            format!("{parsed:?}"),
            "relocated slice"
        );
        ids += parsed.iter().map(|u| u.walk().count() as u32).sum::<u32>();
        units.extend(parsed);
    }
    if units.is_empty() {
        return Err(FrontendError::at(0, "empty program"));
    }
    Ok(SourceProgram { units, interner })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Split ≡ parse: a source cut into unit slices and parsed slice by
    /// slice gives `parse_program`'s units, names, statement ids and
    /// lines, or its error at the same line, whatever comments,
    /// continuations and `END` variants stand at the unit boundaries.
    #[test]
    fn split_units_parse_like_the_whole_source(
        order in prop::collection::vec(0usize..4, 1..6),
        muts in prop::collection::vec((0usize..5, 0usize..64, 0usize..16), 0..6),
    ) {
        let base: String = order.iter().map(|&u| UNITS[u]).collect();
        let src = mutate(&base, &muts);
        prop_assert_eq!(render(by_slices(&src)), render(parse_program(&src)), "{}", src);
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

//! Line-oriented lexer.
//!
//! Fortran is statement-per-line; the lexer produces one token vector per
//! logical line (after gluing `&` continuations), together with the source
//! line number and any numeric statement label. Keywords are *not*
//! distinguished here — Fortran has no reserved words — so the parser
//! decides contextually whether `do` starts a loop or names a variable.

use crate::error::{FrontendError, Result};
use std::borrow::Cow;

/// One token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword, lower-cased. May contain `$` (compiler names).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal (both `E` and `D` exponents).
    Real(f64),
    /// String literal (single-quoted).
    Str(String),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `**`
    Pow,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=` (assignment / PARAMETER binding)
    Assign,
    /// `:`
    Colon,
    /// `.lt.` or `<`
    Lt,
    /// `.le.` or `<=`
    Le,
    /// `.gt.` or `>`
    Gt,
    /// `.ge.` or `>=`
    Ge,
    /// `.eq.` or `==`
    EqEq,
    /// `.ne.` or `/=`
    Ne,
    /// `.and.`
    And,
    /// `.or.`
    Or,
    /// `.not.`
    Not,
    /// `.true.`
    True,
    /// `.false.`
    False,
}

/// One logical source line of tokens.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// 1-based source line number (of the first physical line).
    pub number: u32,
    /// Optional numeric statement label.
    pub label: Option<u32>,
    /// The tokens.
    pub toks: Vec<Tok>,
}

/// One logical line before it is tokenized: its `&` continuations glued
/// on, its comments stripped.
pub(crate) struct Logical<'a> {
    /// 1-based number of its first physical line.
    pub number: u32,
    /// 1-based number of its last physical line.
    pub last: u32,
    /// Byte offset just past its last physical line and that line's
    /// terminator.
    pub end: usize,
    /// The glued text.
    pub text: Cow<'a, str>,
}

/// The logical lines of a source, in order: the comment and continuation
/// rules every reader of the source shares ([`lex`] and the unit
/// splitter, `parser::split_units`). A logical line is given once the next
/// line of code is known not to continue it.
pub(crate) fn logical_lines(source: &str) -> impl Iterator<Item = Logical<'_>> {
    let mut physical = source.lines().enumerate();
    let mut pending: Option<Logical<'_>> = None;
    std::iter::from_fn(move || {
        for (idx, raw) in physical.by_ref() {
            let lineno = idx as u32 + 1;
            // `lines` strips a `\n` or a `\r\n`; the physical line ends past it.
            let start = raw.as_ptr() as usize - source.as_ptr() as usize;
            let rest = &source.as_bytes()[start + raw.len()..];
            let newline = rest.iter().take(2).position(|&c| c == b'\n');
            let end = start + raw.len() + newline.map_or(0, |p| p + 1);
            let trimmed = raw.trim_start();
            // Whole-line comments: blank, C/c/* in column 1 style, or '!'
            if trimmed.is_empty() {
                continue;
            }
            // Column-1 comment markers: `*` always; `C`/`c` only when
            // followed by whitespace or nothing (so `CALL` in column 1
            // stays code).
            let b = raw.as_bytes();
            if b[0] == b'*'
                || ((b[0] == b'C' || b[0] == b'c') && matches!(b.get(1), None | Some(b' ' | b'\t')))
                || trimmed.starts_with('!')
            {
                continue;
            }
            // Trailing '!' comment (we have no strings containing '!').
            let text = match raw.find('!') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim_end();
            match pending.as_mut() {
                // Continuation: the previous line ended with '&'.
                Some(prev) if prev.text.ends_with('&') => {
                    let glued = prev.text.to_mut();
                    glued.pop(); // drop '&'
                    glued.push(' ');
                    glued.push_str(text.trim_start());
                    (prev.last, prev.end) = (lineno, end);
                }
                // Leading '&' style continuation also accepted.
                Some(prev) if text.starts_with('&') => {
                    let glued = prev.text.to_mut();
                    glued.push(' ');
                    glued.push_str(text[1..].trim_start());
                    (prev.last, prev.end) = (lineno, end);
                }
                _ => {
                    let line = Logical {
                        number: lineno,
                        last: lineno,
                        end,
                        text: Cow::Borrowed(text),
                    };
                    if let Some(done) = pending.replace(line) {
                        return Some(done);
                    }
                }
            }
        }
        pending.take()
    })
}

/// Lexes a whole source file into logical lines.
///
/// Works on bytes: every byte the lexer branches on is ASCII, and a
/// UTF-8 multi-byte character never contains an ASCII byte, so slices
/// cut at those bytes always fall on character boundaries. A logical line
/// borrows its physical line's text unless continuations glue several.
pub fn lex(source: &str) -> Result<Vec<Line>> {
    let mut out = Vec::new();
    for l in logical_lines(source) {
        let mut toks = lex_line(&l.text, l.number)?;
        let label = toks.first().and_then(label);
        if label.is_some() {
            toks.remove(0);
        }
        if toks.is_empty() {
            continue;
        }
        out.push(Line {
            number: l.number,
            label,
            toks,
        });
    }
    Ok(out)
}

/// The statement label a line's first token makes, if it is one.
pub(crate) fn label(first: &Tok) -> Option<u32> {
    match first {
        Tok::Int(v) if *v >= 0 => Some(*v as u32),
        _ => None,
    }
}

/// The tokens of one logical line, lexed as they are asked for: a reader
/// that needs only a line's first tokens does not lex the rest.
pub(crate) struct Tokens<'a> {
    text: &'a str,
    lineno: u32,
    i: usize,
}

impl<'a> Tokens<'a> {
    /// The tokens of `text`, logical line `lineno`.
    pub(crate) fn new(text: &'a str, lineno: u32) -> Self {
        Tokens { text, lineno, i: 0 }
    }
}

impl Iterator for Tokens<'_> {
    type Item = Result<Tok>;

    fn next(&mut self) -> Option<Result<Tok>> {
        let n = self.text.len();
        let i = skip_blanks(self.text.as_bytes(), self.i);
        if i >= n {
            self.i = n;
            return None;
        }
        let lexed = token(self.text, i, self.lineno);
        // After an error the line has nothing more to give.
        self.i = lexed.as_ref().map_or(n, |(_, len)| i + len);
        Some(lexed.map(|(tok, _)| tok))
    }
}

/// All the tokens of logical line `lineno`, `text`.
fn lex_line(text: &str, lineno: u32) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut i = skip_blanks(text.as_bytes(), 0);
    while i < text.len() {
        let (tok, len) = token(text, i, lineno)?;
        toks.push(tok);
        i = skip_blanks(text.as_bytes(), i + len);
    }
    Ok(toks)
}

/// The first byte at or after `i` that is no blank.
fn skip_blanks(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\r') {
        i += 1;
    }
    i
}

/// The token that starts at byte `i` of logical line `lineno`, `text`
/// (no blank), and its length in bytes.
fn token(text: &str, i: usize, lineno: u32) -> Result<(Tok, usize)> {
    let b = text.as_bytes();
    let n = b.len();
    // The byte after `i`, if any.
    let next = |i: usize| b.get(i + 1).copied();
    let (tok, len) = match b[i] {
        b'+' => (Tok::Plus, 1),
        b'-' => (Tok::Minus, 1),
        b'*' if next(i) == Some(b'*') => (Tok::Pow, 2),
        b'*' => (Tok::Star, 1),
        b'/' if next(i) == Some(b'=') => (Tok::Ne, 2),
        b'/' => (Tok::Slash, 1),
        b'(' => (Tok::LParen, 1),
        b')' => (Tok::RParen, 1),
        b',' => (Tok::Comma, 1),
        b':' => (Tok::Colon, 1),
        b'<' if next(i) == Some(b'=') => (Tok::Le, 2),
        b'<' => (Tok::Lt, 1),
        b'>' if next(i) == Some(b'=') => (Tok::Ge, 2),
        b'>' => (Tok::Gt, 1),
        b'=' if next(i) == Some(b'=') => (Tok::EqEq, 2),
        b'=' => (Tok::Assign, 1),
        b'\'' => {
            let Some(len) = b[i + 1..].iter().position(|&c| c == b'\'') else {
                return Err(FrontendError::at(lineno, "unterminated string literal"));
            };
            (Tok::Str(text[i + 1..i + 1 + len].to_string()), len + 2)
        }
        // Dotted operator (.lt. etc).
        b'.' if next(i).is_some_and(|c| c.is_ascii_alphabetic()) && {
            let letters = alpha_run(&b[i + 1..]);
            b.get(i + 1 + letters) == Some(&b'.')
        } =>
        {
            let letters = alpha_run(&b[i + 1..]);
            let word = text[i + 1..i + 1 + letters].to_ascii_lowercase();
            let tok = match word.as_str() {
                "lt" => Tok::Lt,
                "le" => Tok::Le,
                "gt" => Tok::Gt,
                "ge" => Tok::Ge,
                "eq" => Tok::EqEq,
                "ne" => Tok::Ne,
                "and" => Tok::And,
                "or" => Tok::Or,
                "not" => Tok::Not,
                "true" => Tok::True,
                "false" => Tok::False,
                _ => {
                    return Err(FrontendError::at(
                        lineno,
                        format!("unknown dotted operator `.{word}.`"),
                    ))
                }
            };
            (tok, letters + 2)
        }
        // Real literal starting with '.'
        b'.' if next(i).is_some_and(|c| c.is_ascii_digit()) => lex_number(&text[i..], lineno)?,
        b'.' => return Err(FrontendError::at(lineno, "stray `.`")),
        c if c.is_ascii_digit() => lex_number(&text[i..], lineno)?,
        c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
            let len = b[i..]
                .iter()
                .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b'$'))
                .unwrap_or(n - i);
            (Tok::Ident(text[i..i + len].to_ascii_lowercase()), len)
        }
        _ => {
            // `i` is on a character boundary: every branch above
            // advances over ASCII bytes or a whole quoted string.
            let other = text[i..].chars().next().expect("i < n");
            return Err(FrontendError::at(
                lineno,
                format!("unexpected character `{other}`"),
            ));
        }
    };
    Ok((tok, len))
}

/// Length of the run of ASCII letters at the start of `b`.
fn alpha_run(b: &[u8]) -> usize {
    b.iter().take_while(|c| c.is_ascii_alphabetic()).count()
}

/// Lexes a numeric literal at the start of `text`; returns the token and
/// length consumed. Handles the `1.eq.2` ambiguity by refusing to absorb
/// a `.` that begins a dotted operator.
fn lex_number(text: &str, lineno: u32) -> Result<(Tok, usize)> {
    let b = text.as_bytes();
    let n = b.len();
    let digits = |from: usize| from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut j = digits(0);
    let mut is_real = false;
    if j < n && b[j] == b'.' {
        // Is this `.lt.`-style? Look ahead: letters then '.'.
        let k = j + 1 + alpha_run(&b[j + 1..]);
        let dotted_op = k > j + 1 && k < n && b[k] == b'.';
        if !dotted_op {
            is_real = true;
            j = digits(j + 1);
        }
    }
    // Exponent: e/d [+/-] digits.
    if j < n && matches!(b[j], b'e' | b'E' | b'd' | b'D') {
        let mut k = j + 1;
        if k < n && (b[k] == b'+' || b[k] == b'-') {
            k += 1;
        }
        if k < n && b[k].is_ascii_digit() {
            is_real = true;
            j = digits(k);
        }
    }
    let text = &text[..j];
    if is_real {
        let norm = text.to_ascii_lowercase().replace('d', "e");
        norm.parse::<f64>()
            .map(|v| (Tok::Real(v), j))
            .map_err(|_| FrontendError::at(lineno, format!("bad real literal `{text}`")))
    } else {
        text.parse::<i64>()
            .map(|v| (Tok::Int(v), j))
            .map_err(|_| FrontendError::at(lineno, format!("bad integer literal `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        let lines = lex(src).unwrap();
        assert_eq!(lines.len(), 1, "expected one logical line");
        lines[0].toks.clone()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            toks("x(i) = f(i+5)"),
            vec![
                Tok::Ident("x".into()),
                Tok::LParen,
                Tok::Ident("i".into()),
                Tok::RParen,
                Tok::Assign,
                Tok::Ident("f".into()),
                Tok::LParen,
                Tok::Ident("i".into()),
                Tok::Plus,
                Tok::Int(5),
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn dotted_operators() {
        assert_eq!(
            toks("if (my$p .gt. 0 .and. j .ne. k)"),
            vec![
                Tok::Ident("if".into()),
                Tok::LParen,
                Tok::Ident("my$p".into()),
                Tok::Gt,
                Tok::Int(0),
                Tok::And,
                Tok::Ident("j".into()),
                Tok::Ne,
                Tok::Ident("k".into()),
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn modern_relationals() {
        assert_eq!(
            toks("a <= b >= c == d /= e < f > g"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Ident("b".into()),
                Tok::Ge,
                Tok::Ident("c".into()),
                Tok::EqEq,
                Tok::Ident("d".into()),
                Tok::Ne,
                Tok::Ident("e".into()),
                Tok::Lt,
                Tok::Ident("f".into()),
                Tok::Gt,
                Tok::Ident("g".into()),
            ]
        );
    }

    #[test]
    fn number_then_dotted_op() {
        // `1.eq.2` must lex as Int(1) EqEq Int(2), not Real(1.0) …
        assert_eq!(toks("if (1.eq.2)")[2], Tok::Int(1));
        assert_eq!(toks("if (1.eq.2)")[3], Tok::EqEq);
    }

    #[test]
    fn real_literals() {
        assert_eq!(
            toks("x = 1.5e2"),
            vec![Tok::Ident("x".into()), Tok::Assign, Tok::Real(150.0)]
        );
        assert_eq!(toks("x = 1.0d0")[2], Tok::Real(1.0));
        assert_eq!(toks("x = .5")[2], Tok::Real(0.5));
        assert_eq!(toks("x = 2.")[2], Tok::Real(2.0));
        assert_eq!(toks("x = 1e3")[2], Tok::Real(1000.0));
    }

    #[test]
    fn comments_skipped() {
        let lines = lex("C a comment\n! another\n* old style\n  x = 1 ! trailing\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].toks,
            vec![Tok::Ident("x".into()), Tok::Assign, Tok::Int(1)]
        );
        assert_eq!(lines[0].number, 4);
    }

    #[test]
    fn continuation_lines_glued() {
        let lines = lex("x = 1 + &\n    2\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].toks,
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Int(2)
            ]
        );
    }

    #[test]
    fn labels_extracted() {
        let lines = lex("10 continue").unwrap();
        assert_eq!(lines[0].label, Some(10));
        assert_eq!(lines[0].toks, vec![Tok::Ident("continue".into())]);
    }

    #[test]
    fn case_insensitive_identifiers() {
        assert_eq!(toks("CALL F1(X)")[0], Tok::Ident("call".into()));
        assert_eq!(toks("CALL F1(X)")[1], Tok::Ident("f1".into()));
    }

    #[test]
    fn power_operator() {
        assert_eq!(toks("y = x ** 2")[3], Tok::Pow);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("print *, 'oops").is_err());
    }

    #[test]
    fn logical_literals() {
        assert_eq!(toks("p = .true.")[2], Tok::True);
        assert_eq!(toks("p = .false.")[2], Tok::False);
    }
}

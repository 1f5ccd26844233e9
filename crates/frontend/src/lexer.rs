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

/// Lexes a whole source file into logical lines.
///
/// Works on bytes: every byte the lexer branches on is ASCII, and a
/// UTF-8 multi-byte character never contains an ASCII byte, so slices
/// cut at those bytes always fall on character boundaries. A logical line
/// borrows its physical line's text unless continuations glue several.
pub fn lex(source: &str) -> Result<Vec<Line>> {
    // Glue continuations and strip comments first.
    let mut logical: Vec<(u32, Cow<'_, str>)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let trimmed = raw.trim_start();
        // Whole-line comments: blank, C/c/* in column 1 style, or '!'
        if trimmed.is_empty() {
            continue;
        }
        // Column-1 comment markers: `*` always; `C`/`c` only when followed
        // by whitespace or nothing (so `CALL` in column 1 stays code).
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
        // Continuation: previous line ended with '&'.
        match logical.last_mut() {
            Some((_, prev)) if prev.ends_with('&') => {
                let prev = prev.to_mut();
                prev.pop(); // drop '&'
                prev.push(' ');
                prev.push_str(text.trim_start());
            }
            // Leading '&' style continuation also accepted.
            Some((_, prev)) if text.starts_with('&') => {
                let prev = prev.to_mut();
                prev.push(' ');
                prev.push_str(text[1..].trim_start());
            }
            _ => logical.push((lineno, Cow::Borrowed(text))),
        }
    }

    let mut out = Vec::with_capacity(logical.len());
    for (lineno, text) in logical {
        let mut toks = lex_line(&text, lineno)?;
        // Leading integer label.
        let label = match toks.first() {
            Some(Tok::Int(v)) if *v >= 0 => {
                let v = *v as u32;
                toks.remove(0);
                Some(v)
            }
            _ => None,
        };
        if toks.is_empty() {
            continue;
        }
        out.push(Line {
            number: lineno,
            label,
            toks,
        });
    }
    Ok(out)
}

fn lex_line(text: &str, lineno: u32) -> Result<Vec<Tok>> {
    let b = text.as_bytes();
    let n = b.len();
    // The byte after `i`, if any.
    let next = |i: usize| b.get(i + 1).copied();
    let mut i = 0;
    let mut toks = Vec::new();
    while i < n {
        let (tok, len) = match b[i] {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
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
        toks.push(tok);
        i += len;
    }
    Ok(toks)
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

//! The workspace's one JSON implementation. The module database
//! (`fortrand::recompile`), the daemon's line-delimited wire protocol,
//! `BENCH.json` and the trace validator ([`crate::chrome`]) all read and
//! write this tree; `fortrand::json` re-exports it.
//!
//! The build environment has no registry access, so instead of serde this
//! module provides a small [`Json`] tree with an emitter and a
//! recursive-descent parser for the full JSON grammar.
//!
//! Numbers: an integer literal is a [`Json::Int`], exact over the whole
//! `u64`/`i64` range. A literal with a fraction or an exponent (or an
//! integer beyond `i128`) is a [`Json::Num`]; it is written the way the
//! trace sinks write floats: a whole value below 1e15 without a fraction,
//! any other finite value in Rust's shortest round-trip form, a non-finite
//! one as `0`. The module database still stores 64-bit hashes as hex
//! *strings*, for readers whose JSON numbers are all `f64`.
//!
//! Nesting: an array or object more than `MAX_DEPTH` (128) levels deep is
//! a parse error, so a hostile request line cannot overflow the parsing
//! thread's stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The deepest document in
/// the repository, `BENCH.json`, nests about 5 levels; the wire protocol 2.
const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order so emission is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer literal (`i128` covers the full `u64`/`i64` range).
    Int(i128),
    /// A number written with a fraction or an exponent.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Hex-string encoding for a 64-bit hash (lossless for any reader,
    /// unlike a JSON number).
    pub fn hex_u64(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Any number, integer or not, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Decodes a [`Json::hex_u64`]-encoded hash.
    pub fn as_hex_u64(&self) -> Option<u64> {
        let s = self.as_str()?;
        let s = s.strip_prefix("0x").unwrap_or(s);
        u64::from_str_radix(s, 16).ok()
    }

    /// Pretty-prints with 2-space indentation and a trailing newline, the
    /// canonical on-disk form of the module database.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the wire form of
    /// the `fortrand-serve` line-delimited protocol.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None);
        out
    }

    /// Writes `self` pretty-printed at nesting level `indent`, or compact
    /// when `indent` is `None`.
    fn emit(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => push_f64(out, *v),
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => emit_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.emit(out, inner)
            }),
            Json::Obj(fields) => emit_seq(out, indent, ['{', '}'], fields, |out, (k, v), inner| {
                push_string(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.emit(out, inner);
            }),
        }
    }
}

/// Writes a bracketed, comma-separated sequence. Pretty-printed, each item
/// goes on its own line one level deeper, and an empty one stays `[]`/`{}`.
fn emit_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    emit_item: impl Fn(&mut String, &T, Option<usize>),
) {
    let inner = indent.map(|n| n + 1);
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        emit_item(out, item, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n {
            out.push_str("  ");
        }
    }
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` with JSON string escapes, without the surrounding quotes.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `v` as a JSON number: a whole value below 1e15 as an integer,
/// any other finite value in shortest round-trip form, a non-finite one as
/// `0`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parses a JSON document; trailing whitespace is allowed, trailing content
/// is an error, and so is nesting deeper than `MAX_DEPTH`.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn digits(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    /// Parses an array or object one level deeper.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, kw: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(format!("expected {kw:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        self.digits();
        if self.eat(b'.') {
            self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("a number literal is ASCII digits, signs, '.', 'e'");
        text.parse::<i128>().map(Json::Int).or_else(|e| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number {text:?}: {e}"))
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as is.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run;
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let e = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.hex4()?;
                    // A high surrogate escaped before a low one is one
                    // character; a lone surrogate becomes U+FFFD.
                    if (0xd800..0xdc00).contains(&code)
                        && self.bytes[self.pos..].starts_with(b"\\u")
                    {
                        let high_end = self.pos;
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => self.pos = high_end,
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Json::Obj(vec![
            (
                "units".into(),
                Json::Obj(vec![(
                    "p1".into(),
                    Json::Obj(vec![
                        ("source_hash".into(), Json::hex_u64(u64::MAX)),
                        ("level".into(), Json::Int(2)),
                        (
                            "deps".into(),
                            Json::Arr(vec![Json::str("f1"), Json::str("f2$1")]),
                        ),
                    ]),
                )]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            ("neg".into(), Json::Int(-42)),
        ]);
        let text = v.pretty();
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn hex_u64_is_lossless() {
        for v in [0u64, 1, u64::MAX, 0x8000_0000_0000_0001, (1 << 53) + 1] {
            assert_eq!(Json::hex_u64(v).as_hex_u64(), Some(v));
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("a\"b\\c\nd\te\u{1}é");
        let back = parse(&v.pretty()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_floats_and_trailing_garbage() {
        // A float is a number, never a hash.
        let f = parse("1.5").unwrap();
        assert_eq!(f.as_int(), None);
        assert_eq!(f.as_hex_u64(), None);
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": }").is_err());
    }

    #[test]
    fn parses_floats_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Int(1),
                Json::Num(2.5),
                Json::Num(-300.0)
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("-").is_err());
        assert!(parse("1e400").is_err());
    }

    #[test]
    fn integers_stay_exact_and_fractions_read_as_f64() {
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Json::Int(u64::MAX as i128)
        );
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("-3e2").unwrap(), Json::Num(-300.0));
        assert_eq!(Json::Num(2.0).as_int(), None);
        assert_eq!(Json::Int(-7).as_f64(), Some(-7.0));
        assert_eq!(Json::str("1").as_f64(), None);
    }

    #[test]
    fn emitted_num_reparses_to_the_same_bits() {
        for v in [
            1.5,
            -300.0,
            0.1 + 0.2,
            -2.5e-8,
            1e15,
            123_456_789.125,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            for text in [Json::Num(v).compact(), Json::Num(v).pretty()] {
                let back = parse(&text).unwrap().as_f64().unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
            }
        }
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // A JSON string literal spelled by `parts`.
        let quoted = |parts: &[&str]| format!("\"{}\"", parts.join(""));
        let (high, low) = ("\\ud83d", "\\ude00");
        assert_eq!(
            parse(&quoted(&[high, low])).unwrap(),
            Json::str("\u{1f600}")
        );
        assert_eq!(
            parse(&quoted(&["a", high, low, "b"])).unwrap(),
            Json::str("a\u{1f600}b")
        );
        // Lone surrogates, high or low, stay U+FFFD.
        assert_eq!(
            parse(&quoted(&[high, "x"])).unwrap(),
            Json::str("\u{fffd}x")
        );
        assert_eq!(parse(&quoted(&[low])).unwrap(), Json::str("\u{fffd}"));
        assert_eq!(
            parse(&quoted(&[high, "\\u0041"])).unwrap(),
            Json::str("\u{fffd}A")
        );
    }
}

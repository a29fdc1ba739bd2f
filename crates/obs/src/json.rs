//! The workspace's one JSON codec: a minimal value type with a
//! deterministic emitter and a recursive-descent parser.
//!
//! The workspace's `serde` is an offline no-op stand-in (`compat/serde`),
//! so every JSON document the workspace writes — the metrics registry and
//! progress snapshots here, lint reports, sweep results, the result cache,
//! campaign manifests and bench records — is built as a [`Json`] value and
//! emitted through this module. Three properties matter more than
//! generality:
//!
//! * **Determinism** — object members keep insertion order and floats are
//!   emitted with Rust's shortest round-trip formatting, so the same
//!   [`Json`] value always produces the same bytes. The sweep engine's
//!   "`--jobs 1` and `--jobs 4` emit identical JSON" guarantee rests on
//!   this.
//! * **Round-tripping** — `parse(emit(v)) == v` for every value with
//!   finite floats, which is what the result cache needs. Integers are
//!   exact over the whole `u64` and `i64` ranges.
//! * **Total parsing** — [`parse`] reads outside input (progress streams,
//!   cache lines, campaign manifests) in linear time and returns a
//!   [`ParseError`] for anything malformed, including nesting deeper than
//!   [`MAX_DEPTH`]; it never panics.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Documents the
/// workspace emits nest a handful of levels; the cap keeps hostile input
/// from exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are split into integer and float variants so that
/// counters round-trip exactly and floats keep shortest-form formatting.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point); wide enough for every
    /// `u64` and `i64`.
    Int(i128),
    /// A float, emitted via `{:?}` (shortest round-trip form). Non-finite
    /// values are emitted as `null` per RFC 8259.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    /// An exact integer (counters up to `u64::MAX` keep every digit).
    fn from(v: u64) -> Json {
        Json::Int(v.into())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (accepting both number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (for `results/*.json`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    let _ = write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal, copying unescaped runs whole.
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    // Every escaped character is ASCII, so byte offsets of matches are
    // always char boundaries.
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        if esc.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(esc)?;
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

impl fmt::Display for Json {
    /// Compact serialization (JSON-lines friendly: no interior newlines).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.is_finite() => {
                // `{:?}` is Rust's shortest round-trip form: "1.5", "1e300",
                // always with enough digits to reparse to the same bits.
                write!(f, "{n:?}")
            }
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// What made a document unparseable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not well-formed JSON; says what was expected.
    Syntax(&'static str),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: ", self.at)?;
        match self.kind {
            ParseErrorKind::Syntax(msg) => f.write_str(msg),
            ParseErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// A [`ParseError`] at the first malformed byte, or where nesting first
/// exceeds [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Parser state. `pos` only ever advances over ASCII bytes or whole
/// unescaped runs, so it always sits on a char boundary of `src`.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            kind: ParseErrorKind::Syntax(msg),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseError {
                        at: self.pos,
                        kind: ParseErrorKind::TooDeep,
                    });
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut s = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one go.
            let rest = &self.src[self.pos..];
            let Some(run) = rest.find(['"', '\\']) else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            s.push_str(&rest[..run]);
            self.pos += run;
            if self.eat(b'"') {
                return Ok(s);
            }
            self.pos += 1; // the backslash
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    self.pos += 4;
                    // Surrogates are not produced by our emitter; map
                    // unpairable ones to the replacement char.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("invalid escape")),
            };
            s.push(c);
            self.pos += 1;
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        self.digits();
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.src[start..self.pos];
        let int = if float { None } else { text.parse().ok() };
        match int {
            Some(i) => Ok(Json::Int(i)),
            // Integers beyond i128 fall back to float semantics.
            None => text
                .parse()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.skip_ws();
            members.push((k, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX.into()),
            Json::Int(i64::MIN.into()),
            Json::from(u64::MAX),
            Json::Num(0.03),
            Json::Num(1e-8),
            Json::Num(123.456_789_012_345),
            Json::Str("hello \"world\"\n\t\\".to_owned()),
            Json::Str("unicode: ↯ λ".to_owned()),
            Json::Str("ctl \u{1}\u{1f} end".to_owned()),
        ] {
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{v}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            ("name", Json::Str("fig07".into())),
            (
                "points",
                Json::Arr(vec![
                    Json::obj(vec![("rate", Json::Num(0.008)), ("sat", Json::Bool(false))]),
                    Json::Null,
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert_eq!(
            Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::Int(1), Json::Obj(vec![])])
            )])
            .pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn parses_foreign_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\/\" ] } ").unwrap();
        assert_eq!(
            v,
            Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Str("A/".into())])
            )])
        );
    }

    #[test]
    fn escapes_specials() {
        let lit = |s: &str| Json::Str(s.to_owned()).to_string();
        assert_eq!(lit("plain"), "\"plain\"");
        assert_eq!(lit("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(lit("line\nfeed\ttab\r"), "\"line\\nfeed\\ttab\\r\"");
        assert_eq!(lit("\u{1}λ\u{1f}"), "\"\\u0001λ\\u001f\"");
    }

    #[test]
    fn floats_round_trip_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(0.0).to_string(), "0.0");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
    }

    #[test]
    fn emits_deterministic_float_forms() {
        assert_eq!(Json::Num(0.1).to_string(), "0.1");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Int(15000).to_string(), "15000");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{\"a\":}",
            "[1,]",
            "12 34",
            "\"open",
            "-",
            "{1:2}",
            "[1 2]",
            "\"\\u12\"",
            "\"\\x\"",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(
                matches!(
                    parse(bad),
                    Err(ParseError {
                        kind: ParseErrorKind::Syntax(_),
                        ..
                    })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&deep),
            Err(ParseError {
                at: MAX_DEPTH,
                kind: ParseErrorKind::TooDeep
            })
        );
        let err = parse(&"[{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert!(
            err.to_string().contains("nesting deeper than 64 levels"),
            "{err}"
        );
    }
}

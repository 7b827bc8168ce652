//! A minimal JSON value, serializer, and parser for machine-readable
//! reports.
//!
//! The workspace builds without external crates, so this is a small
//! hand-rolled implementation: enough JSON to write schema-versioned
//! experiment records and read them back (`aquila-prof`, verify.sh
//! scalar assertions) and nothing more. Keys keep insertion order
//! (reports are diffable run to run), numbers are emitted losslessly for
//! `u64` and with enough precision for `f64`, and strings are escaped
//! per RFC 8259.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (cycle counts, op counts).
    U64(u64),
    /// A float (throughput, shares). Non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a key to an object (panics on non-objects: a programming bug).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `/`-separated key path through nested objects
    /// (`"scalars/async-qd4/speedup_over_sync_qd1"`).
    pub fn lookup(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('/') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The value as a float, accepting both number kinds.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer (floats only when integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
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

    /// Extracts a named scalar from a report's `scalars`
    /// object. This is the one place report consumers (aquila-prof,
    /// verify.sh via `aquila-prof get`, the regression baseline) resolve
    /// scalar names, replacing ad-hoc awk extraction.
    pub fn report_scalar(&self, name: &str) -> Option<f64> {
        self.get("scalars")?.get(name)?.as_f64()
    }

    /// Parses a JSON document (strict enough for our own reports and
    /// Chrome trace exports; rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A parse failure with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates only appear for astral-plane
                            // chars, which our emitters never escape;
                            // map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let j = Json::obj()
            .with("schema_version", Json::U64(1))
            .with("name", Json::from("fig8"))
            .with(
                "rows",
                Json::Arr(vec![Json::obj()
                    .with("kops", Json::F64(12.5))
                    .with("ok", Json::Bool(true))]),
            )
            .with("empty", Json::Arr(vec![]))
            .with("none", Json::Null);
        let s = j.render();
        assert!(s.contains("\"schema_version\": 1"));
        assert!(s.contains("\"kops\": 12.5"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.contains("\"none\": null"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        Json::Str("a\"b\\c\nd\u{1}".into()).write(&mut out, 0);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn u64_is_lossless() {
        let mut out = String::new();
        Json::U64(u64::MAX).write(&mut out, 0);
        assert_eq!(out, format!("{}", u64::MAX));
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut out = String::new();
        Json::F64(f64::NAN).write(&mut out, 0);
        assert_eq!(out, "null");
    }

    #[test]
    fn get_finds_keys() {
        let j = Json::obj().with("a", Json::U64(1));
        assert_eq!(j.get("a"), Some(&Json::U64(1)));
        assert_eq!(j.get("b"), None);
    }

    #[test]
    fn parse_roundtrips_render() {
        let j = Json::obj()
            .with("schema_version", Json::U64(3))
            .with("name", Json::from("fig8 \"quoted\"\npath\\x"))
            .with("neg", Json::F64(-1.5))
            .with("big", Json::U64(u64::MAX))
            .with(
                "rows",
                Json::Arr(vec![
                    Json::obj()
                        .with("kops", Json::F64(12.5))
                        .with("ok", Json::Bool(true)),
                    Json::Null,
                ]),
            )
            .with("empty_arr", Json::Arr(vec![]))
            .with("empty_obj", Json::obj());
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_unicode_escapes() {
        let j = Json::parse("\"a\\u0041\\u00e9\\t\"").unwrap();
        assert_eq!(j, Json::Str("aA\u{e9}\t".into()));
    }

    #[test]
    fn lookup_walks_paths() {
        let j = Json::obj().with(
            "scalars",
            Json::obj().with("latency", Json::obj().with("p99", Json::U64(123))),
        );
        assert_eq!(j.lookup("scalars/latency/p99"), Some(&Json::U64(123)));
        assert_eq!(j.lookup("scalars/missing"), None);
        assert_eq!(
            j.lookup("scalars/latency/p99").unwrap().as_f64(),
            Some(123.0)
        );
    }

    #[test]
    fn report_scalar_resolves_names() {
        let j = Json::obj().with(
            "scalars",
            Json::obj()
                .with("a/b", Json::F64(2.5))
                .with("c", Json::U64(7)),
        );
        assert_eq!(j.report_scalar("a/b"), Some(2.5));
        assert_eq!(j.report_scalar("c"), Some(7.0));
        assert_eq!(j.report_scalar("missing"), None);
    }
}

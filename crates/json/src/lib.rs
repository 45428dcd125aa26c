#![warn(missing_docs)]

//! A minimal JSON value: writer plus a recursive-descent parser.
//!
//! The writer serializes reports, models, and streaming checkpoints; the
//! parser loads them back. Both handle the full JSON grammar the workspace
//! produces — there is no intent to be a general-purpose JSON library. The
//! crate is dependency-free so every layer (CLI reports, `hdoutlier-stream`
//! checkpoints, bench baselines) shares one implementation.

pub mod normalize;

use std::fmt;
use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (NaN/inf serialize as `null`, per common convention;
    /// the parser refuses literals beyond the `f64` range).
    Number(f64),
    /// String (escaped on render).
    String(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object.
    ///
    /// # Errors
    /// [`JsonError`] when `self` is not an object. Chains keep reading
    /// naturally because [`FieldChain`] implements `field` on the returned
    /// `Result`; put one `?` at the end of the chain.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Result<Self, JsonError> {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => {
                return Err(JsonError {
                    message: format!("field {key:?} on a non-object ({})", type_name(other)),
                    offset: 0,
                })
            }
        }
        Ok(self)
    }

    /// Renders compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn type_name(j: &Json) -> &'static str {
    match j {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Number(_) => "number",
        Json::String(_) => "string",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    }
}

/// Keeps `.field(..).field(..)` chains flowing through the fallible builder:
/// every link after the first operates on the `Result`, short-circuiting on
/// the first error, so call sites need a single `?` at the end.
pub trait FieldChain {
    /// Adds a field to the object inside `Ok`, or passes the error through.
    ///
    /// # Errors
    /// The carried error, or [`JsonError`] when the value is not an object.
    fn field(self, key: &str, value: impl Into<Json>) -> Result<Json, JsonError>;
}

impl FieldChain for Result<Json, JsonError> {
    fn field(self, key: &str, value: impl Into<Json>) -> Result<Json, JsonError> {
        self?.field(key, value)
    }
}

/// Appends `n` as [`Json::render`] writes a number: integral values below
/// 1e15 without a fraction, others in Rust's shortest round-trip form, NaN
/// and the infinities as `null`. Exposed so a caller that streams a
/// document shape it knows writes the same bytes without building a tree.
pub fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaped exactly as
/// [`Json::render`] escapes strings and object keys.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// How deep arrays and objects may nest in a parsed document. The parser
/// recurses once per level, so an unbounded depth would let one hostile
/// input (a request body, an NDJSON line) overflow the thread's stack.
/// Every document the workspace writes nests fewer than 10 levels.
pub const MAX_DEPTH: usize = 128;

/// Parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the failure was noticed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Decode the one character starting at the byte just
                    // consumed (the input is a `str`, so it is valid UTF-8).
                    let start = self.pos - 1;
                    let ch = self
                        .text
                        .get(start..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number bytes"))?;
        let error = |message: String| JsonError {
            message,
            offset: start,
        };
        match text.parse::<f64>() {
            // `9e999` parses as infinity, which the writer would render as
            // `null`: refuse it so a value cannot change on a round trip.
            Ok(n) if !n.is_finite() => Err(error(format!("number out of range {text:?}"))),
            Ok(n) => Ok(Json::Number(n)),
            Err(_) => Err(error(format!("cannot parse number {text:?}"))),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Number(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Number(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Number(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Number(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42usize).render(), "42");
        assert_eq!(Json::from(-1.5).render(), "-1.5");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::from("a\"b\\c\nd\te\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn renders_nested_structures() {
        let j = Json::object()
            .field("name", "outliers")
            .field("rows", vec![1usize, 2, 3])
            .field(
                "nested",
                Json::object()
                    .field("ok", true)
                    .field("x", Json::Null)
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(
            j.render(),
            r#"{"name":"outliers","rows":[1,2,3],"nested":{"ok":true,"x":null}}"#
        );
    }

    #[test]
    fn pretty_is_parseable_shape() {
        let j = Json::object()
            .field("a", vec![1usize])
            .field("b", Json::Array(vec![]))
            .field("c", Json::object())
            .unwrap();
        let p = j.pretty();
        assert!(p.contains("\"a\": [\n"));
        assert!(p.contains("\"b\": []"));
        assert!(p.contains("\"c\": {}"));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::from(3.0).render(), "3");
        assert_eq!(Json::from(1e20).render(), "100000000000000000000");
    }

    #[test]
    fn field_on_non_object_is_an_error_that_short_circuits() {
        let err = Json::Array(vec![]).field("k", 1usize).unwrap_err();
        assert!(err.message.contains("non-object"), "{err}");
        assert!(err.message.contains("array"), "{err}");
        // The error survives further chaining untouched.
        let chained = Json::from(1.0)
            .field("a", 2usize)
            .field("b", 3usize)
            .unwrap_err();
        assert!(chained.message.contains("\"a\""), "{chained}");
    }

    #[test]
    fn parser_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_number(), Some(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap().as_number(), Some(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parser_structures_and_lookup() {
        let j = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(j.get("c").and_then(Json::as_str), Some("x"));
        let arr = j.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_number(), Some(2.0));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
        assert_eq!(j.get("nope"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn parser_string_escapes() {
        let j = Json::parse(r#""a\"b\\c\nd\teA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\nd\teA"));
        // Unicode content passes through.
        let j = Json::parse("\"héllo→\"").unwrap();
        assert_eq!(j.as_str(), Some("héllo→"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12\"",
            "1 2",
            "{,}",
        ] {
            let e = Json::parse(bad);
            assert!(e.is_err(), "{bad:?} parsed as {e:?}");
        }
        let err = Json::parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn numbers_beyond_f64_range_are_refused() {
        for (text, offset) in [("9e999", 0), ("[1, -1e400]", 4)] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.message.contains("number out of range"), "{err}");
            assert_eq!(err.offset, offset, "{text}");
        }
        let max = Json::parse("1.7976931348623157e308").unwrap();
        assert_eq!(max.as_number(), Some(f64::MAX));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // A megabyte of `[` is an error, not a stack overflow, even on a
        // thread with the default 2 MiB stack.
        let deep = "[".repeat(1 << 20);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep).map(|_| ()))
            .unwrap()
            .join()
            .expect("parser thread survives");
        assert!(outcome.is_err());
    }

    #[test]
    fn long_non_ascii_strings_parse_in_linear_time() {
        // 1 MiB of two-byte characters: one decode per character, not one
        // re-validation of the rest of the input per character.
        let body = "é".repeat(1 << 19);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(parsed.as_str(), Some(body.as_str()));
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let original = Json::object()
            .field("name", "say \"hi\"\nplease")
            .field("values", vec![1.5f64, -2.25, 0.0])
            .field("flag", true)
            .field("missing", Json::Null)
            .field(
                "nested",
                Json::object().field("deep", vec![7usize]).unwrap(),
            )
            .unwrap();
        for text in [original.render(), original.pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.render(), original.render());
        }
    }
}

//! A minimal hand-rolled JSON reader/writer helper.
//!
//! The workspace emits JSON by hand (no serde); this module closes the
//! loop with a small recursive-descent parser so round-trip tests and
//! trace-file validation need no external dependency either. It parses
//! the full JSON grammar (RFC 8259) into a [`Json`] tree; numbers are
//! `f64`, which is exact for every integer this workspace emits. The
//! writing side is [`Writer`]: every document the workspace emits is
//! rendered through it.
//!
//! # Examples
//!
//! ```
//! use sdf_trace::json::{parse, Json};
//!
//! let value = parse(r#"{"graph":"fig2","candidates":[{"shared":30}]}"#).unwrap();
//! assert_eq!(value.get("graph").and_then(Json::as_str), Some("fig2"));
//! let first = &value.get("candidates").and_then(Json::as_array).unwrap()[0];
//! assert_eq!(first.get("shared").and_then(Json::as_num), Some(30.0));
//! ```

use std::fmt::{self, Write as _};

use crate::metrics::Histogram;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// The one JSON writer of the workspace: every document it emits is
/// appended to a single `String` through this type, which owns string
/// escaping, comma placement, the microsecond number format and the
/// shapes of the shared counter and histogram tables.
///
/// Members take a key (`str`, `num`, `object`, …); array elements use
/// the `item_*` forms, and a member is its key followed by one. A comma
/// is written before a member or element unless the buffer ends in `{`,
/// `[` or a key's `:`, so no per-level state is kept.
/// Root values come from [`document`], [`object`] and [`lines`].
///
/// # Examples
///
/// ```
/// let text = sdf_trace::json::object(|w| {
///     w.str("graph", "fig2").us("total_us", 1_234_567);
///     w.array("orders", |w| {
///         w.item_object(|w| {
///             w.num("nonshared_bufmem", 40);
///         });
///     });
/// });
/// let expected = r#"{"graph":"fig2","total_us":1234.567,"orders":[{"nonshared_bufmem":40}]}"#;
/// assert_eq!(text, expected);
/// ```
#[derive(Debug)]
pub struct Writer {
    buf: String,
}

/// Renders a top-level document under the workspace's unified envelope:
/// `{"kind":"<kind>","schema_version":N,` then the members `body` writes,
/// then `}`. Every document the workspace emits (`engine_report`,
/// `baseline_profile`, `executable_plan`, `service_response`, …) opens
/// with this exact header, so consumers can dispatch on `kind` and
/// version-check before reading anything else.
pub fn document(kind: &str, body: impl FnOnce(&mut Writer)) -> String {
    object(|w| {
        w.str("kind", kind)
            .num("schema_version", crate::SCHEMA_VERSION);
        body(w);
    })
}

/// Renders one bare JSON object (no envelope) from the members `body`
/// writes.
pub fn object(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer {
        buf: String::with_capacity(1024),
    };
    w.open('{', '}', body);
    w.buf
}

/// Renders a JSONL stream: `body` writes one object per line with
/// [`Writer::line`].
pub fn lines(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer {
        buf: String::with_capacity(1024),
    };
    body(&mut w);
    w.buf
}

/// The envelope header alone, `{"kind":"<kind>","schema_version":N,`,
/// for callers that splice a document body by hand.
pub fn document_header(kind: &str) -> String {
    let mut s = document(kind, |_| {});
    s.pop();
    s.push(',');
    s
}

impl Writer {
    /// Writes the `,` that separates this member or element from the
    /// previous one: none after an opening `{`/`[` or a member's `:`.
    fn sep(&mut self) {
        if !matches!(self.buf.as_bytes().last(), Some(b'{' | b'[' | b':')) {
            self.buf.push(',');
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        self.item_str(key);
        self.buf.push(':');
        self
    }

    fn open(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.buf.push(open);
        body(self);
        self.buf.push(close);
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key).item_str(value)
    }

    /// A number member, written with its `Display` form (integers).
    pub fn num(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.key(key).item_num(value)
    }

    /// A `true`/`false` member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).item_num(value)
    }

    /// A number member with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.key(key).item_num(format_args!("{value:.decimals$}"))
    }

    /// A nanosecond duration as a microsecond member with three decimal
    /// places (`1234567` → `1234.567`), computed in integers so it is
    /// exact for every `u64`.
    pub fn us(&mut self, key: &str, ns: u64) -> &mut Self {
        let (us, frac) = (ns / 1_000, ns % 1_000);
        self.key(key).item_num(format_args!("{us}.{frac:03}"))
    }

    /// A member whose value is already-serialised JSON, embedded
    /// verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).item_num(json)
    }

    /// An object member whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.key(key).item_object(body)
    }

    /// An array member whose elements `body` writes with the `item_*`
    /// methods.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.key(key).item_array(body)
    }

    /// A string array element, escaped: `"`, `\\`, `\n`, `\r`, `\t`
    /// and `\u00XX` for the other control characters.
    pub fn item_str(&mut self, value: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        let mut start = 0;
        for (i, b) in value.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            self.buf.push_str(&value[start..i]);
            match escaped {
                "" => write!(self.buf, "\\u{b:04x}").unwrap_or(()),
                _ => self.buf.push_str(escaped),
            }
            start = i + 1;
        }
        self.buf.push_str(&value[start..]);
        self.buf.push('"');
        self
    }

    /// An element written verbatim with its `Display` form: a number,
    /// or already-serialised JSON.
    pub fn item_num(&mut self, value: impl fmt::Display) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{value}");
        self
    }

    /// An object array element.
    pub fn item_object(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.sep();
        self.open('{', '}', body)
    }

    /// An array array element.
    pub fn item_array(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.sep();
        self.open('[', ']', body)
    }

    /// One JSONL line: an object whose members `body` writes, then a
    /// newline.
    pub fn line(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.open('{', '}', body);
        self.buf.push('\n');
        self
    }

    /// A `{name:value,…}` counter (or gauge) table member.
    pub fn counters(&mut self, key: &str, rows: &[(String, u64)]) -> &mut Self {
        self.object(key, |w| {
            for (name, value) in rows {
                w.num(name, value);
            }
        })
    }

    /// A `{name:{count,sum,buckets},…}` histogram table member.
    pub fn histograms(&mut self, key: &str, rows: &[(String, Histogram)]) -> &mut Self {
        self.object(key, |w| {
            for (name, h) in rows {
                w.object(name, |w| {
                    w.histogram(h);
                });
            }
        })
    }

    /// One histogram's `count`, `sum` and `buckets` members, the
    /// buckets as `[lo,hi,count]` triples of the non-empty buckets.
    pub fn histogram(&mut self, h: &Histogram) -> &mut Self {
        self.num("count", h.count()).num("sum", h.sum());
        self.array("buckets", |w| {
            for (lo, hi, count) in h.nonzero_buckets() {
                w.item_array(|w| {
                    w.item_num(lo).item_num(hi).item_num(count);
                });
            }
        })
    }
}

/// Maximum container nesting depth [`parse`] accepts. The parser is
/// recursive-descent, so unbounded nesting in untrusted input (a corrupt
/// baseline file, a hand-edited trace) would overflow the stack; beyond
/// this depth it returns an error instead. Every document this workspace
/// emits nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, including invalid escapes, lone UTF-16 surrogates, nesting
/// beyond [`MAX_DEPTH`], and trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("utf8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the four hex digits of a `\u` escape (cursor just past
    /// the `u`), plus the low half of a surrogate pair when the first
    /// unit is a high surrogate. Lone or out-of-order surrogates are
    /// errors — silently substituting U+FFFD would let a corrupt
    /// document diff clean against an intact baseline.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        match first {
            0xD800..=0xDBFF => {
                let at = self.pos;
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(format!("lone high surrogate \\u{first:04x} at byte {at}"));
                }
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(format!(
                        "high surrogate \\u{first:04x} followed by \\u{second:04x} at byte {at}"
                    ));
                }
                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                char::from_u32(code).ok_or_else(|| format!("bad surrogate pair at byte {at}"))
            }
            0xDC00..=0xDFFF => Err(format!(
                "lone low surrogate \\u{first:04x} at byte {}",
                self.pos
            )),
            code => Ok(char::from_u32(code).expect("non-surrogate BMP scalar")),
        }
    }

    /// Reads exactly four hex digits at the cursor.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex"))
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f µs\r\u{1f}";
        let text = object(|w| {
            w.str(original, original);
        });
        assert_eq!(
            text,
            r#"{"a\"b\\c\nd\te\u0001f µs\r\u001f":"a\"b\\c\nd\te\u0001f µs\r\u001f"}"#
        );
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get(original).and_then(Json::as_str), Some(original));
    }

    /// `Writer::us` formats in integers; the engine report used to print
    /// `{:.3}` of `ns as f64 / 1e3`. The two agree for every
    /// `ns < 2^52`, probed here at each bit width.
    #[test]
    fn us_matches_the_float_format_below_2_pow_52() {
        let us = |ns: u64| {
            object(|w| {
                w.us("t", ns);
            })
        };
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for bits in 0..=52 {
            let mask = (1u64 << bits) - 1;
            let edges = [mask, mask / 2, mask / 1000 * 1000];
            let samples = (0..2_000).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & mask
            });
            for ns in edges.into_iter().chain(samples) {
                assert_eq!(us(ns), format!("{{\"t\":{:.3}}}", ns as f64 / 1e3));
            }
        }
        assert_eq!(us(u64::MAX), "{\"t\":18446744073709551.615}");
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#" { "a": [1, 2, {"b": null}], "c": {"d": true} } "#).unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.members().unwrap().len(), 2);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bad_escape_sequences_error() {
        for bad in [
            r#""\x""#,     // unknown escape
            r#""\u12""#,   // short hex
            r#""\u12g4""#, // non-hex digit
            r#""\u""#,     // no hex at all
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("escape"), "{bad:?} -> {err}");
        }
        // A backslash escaping the closing quote leaves the string open.
        assert!(parse(r#""\""#).unwrap_err().contains("unterminated"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_error() {
        // A valid pair decodes to the supplementary-plane scalar.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        // Lone and malformed surrogates are errors, not U+FFFD.
        for (bad, needle) in [
            (r#""\ud800""#, "lone high surrogate"),
            (r#""\ud800x""#, "lone high surrogate"),
            (r#""\ud800\n""#, "lone high surrogate"),
            (r#""\ud800\u0041""#, "followed by"),
            (r#""\ud800\ud801""#, "followed by"),
            (r#""\udc00""#, "lone low surrogate"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Just inside the limit parses...
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // ...one deeper errors, and absurd depth must not blow the stack.
        for depth in [MAX_DEPTH + 1, 100_000] {
            let bad = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
            let err = parse(&bad).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
        // Mixed object/array nesting hits the same guard.
        let mixed = format!(
            "{}1{}",
            "{\"k\":[".repeat(MAX_DEPTH),
            "]}".repeat(MAX_DEPTH)
        );
        assert!(parse(&mixed).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn trailing_garbage_errors() {
        for bad in ["{} {}", "[1] x", "null,", "42 7", "\"a\"\"b\"", "{}\u{0}"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("trailing data"), "{bad:?} -> {err}");
        }
        // Trailing whitespace alone stays legal.
        assert!(parse(" [1, 2] \n\t").is_ok());
    }
}

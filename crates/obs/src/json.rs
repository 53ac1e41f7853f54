//! The workspace's one JSON module: a value model, a strict parser and a
//! compact writer (std only).
//!
//! The workspace deliberately carries no serde, and every JSON reader and
//! writer goes through here: the server's line-delimited wire protocol,
//! `ridl status --json`, the journal JSONL dump and the Chrome trace
//! export. Objects are `BTreeMap`s, so [`Json`]'s `Display` output is
//! compact and key-sorted — deterministic byte for byte. Numbers without fraction/exponent parse as `i64` (row
//! values are exact); anything else as a finite `f64`.
//!
//! The parser is strict where leniency would hide damage or take a
//! process down: nesting deeper than [`MAX_DEPTH`] is an error rather
//! than unbounded recursion, an unpaired surrogate escape is an error,
//! and so is a number that overflows to infinity.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace reads nests a handful of levels; the cap keeps one hostile
/// line from overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps encoding deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Object field access; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The numeric payload of either number kind (writers render a
    /// whole-valued float like `2.0` as `2`, which reads back as an
    /// integer).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds an object from key/value pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Int(n)
    }
}

/// Saturates at `i64::MAX`: a pinned nanosecond counter or timestamp
/// must stay a large positive number, never wrap to a negative one.
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::from(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no NaN/Inf; null is the least-wrong encoding.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // A high surrogate must be followed by a
                            // low-surrogate escape; a lone low surrogate
                            // is no scalar value and fails `from_u32`.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    return Err(format!(
                                        "unpaired surrogate escape at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "unpaired surrogate escape at byte {}",
                                        self.pos
                                    ));
                                }
                                char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(
                                c.ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // self.pos is at 'u'; the four digits follow.
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if float {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                Ok(_) => Err(format!("number '{text}' overflows to infinity")),
                Err(_) => Err(format!("bad number '{text}'")),
            }
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for s in [
            "null",
            "true",
            "-42",
            "3.5",
            "\"hi \\\"there\\\"\\n\"",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":[null,false],\"c\":{\"d\":\"x\"}}",
        ] {
            let v = parse(s).unwrap();
            let re = parse(&v.to_string()).unwrap();
            assert_eq!(v, re, "roundtrip of {s}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse("\"caf\\u00e9 \\u2713\"").unwrap();
        assert_eq!(v.as_str(), Some("café ✓"));
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Control chars escape on output.
        assert_eq!(Json::str("a\nb").to_string(), "\"a\\nb\"");
        assert_eq!(
            Json::str("\u{1}\t\"\\").to_string(),
            "\"\\u0001\\t\\\"\\\\\""
        );
    }

    #[test]
    fn unpaired_surrogates_are_rejected() {
        // High surrogate followed by a non-surrogate escape, by nothing,
        // and by plain text; a lone low surrogate.
        for s in [
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ude00\"",
        ] {
            assert!(parse(s).is_err(), "{s} accepted");
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert!(parse("[1.5e308, 2e308]").is_err());
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn nesting_is_capped_for_arrays_and_objects() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        assert!(parse(&objects(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        // Far past the cap, unterminated: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn large_u64_saturates_instead_of_wrapping() {
        let text = obj([("n", Json::from(u64::MAX))]).to_string();
        let n = parse(&text)
            .unwrap()
            .get("n")
            .and_then(Json::as_i64)
            .unwrap();
        assert_eq!(n, i64::MAX);
        assert!(n >= 0);
        assert_eq!(Json::from(7u64), Json::Int(7));
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    #[test]
    fn output_is_compact_and_key_sorted() {
        let v = obj([("b", Json::Int(1)), ("a", Json::Arr(vec![Json::Null]))]);
        assert_eq!(v.to_string(), "{\"a\":[null],\"b\":1}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":7,\"s\":\"x\",\"b\":true,\"a\":[1],\"f\":2.5,\"m\":-1}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("m").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }
}

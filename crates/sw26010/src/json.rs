//! Hand-rolled JSON utilities shared by every exporter in the workspace.
//!
//! The machine-model stack is dependency-free, so the Chrome-trace export,
//! the telemetry snapshot/Perfetto exporters and the bench journal all emit
//! JSON by hand. The pieces they share live here exactly once:
//!
//! * [`escape_json`] — string-literal escaping (quotes, backslashes,
//!   control characters; everything else, including non-ASCII, passes
//!   through as UTF-8);
//! * [`fmt_f64`] — floats as plain decimal JSON numbers, `null` when
//!   non-finite (JSON has no NaN/Infinity);
//! * [`Json`] / [`parse`] — a minimal value model and recursive-descent
//!   parser for readers (journal, tooling) that must not trust their input.
//!
//! Numbers are kept as their literal text ([`Json::Num`] stores the raw
//! slice) so integer fields survive the round trip exactly — `u64::MAX`
//! cycles would be corrupted by an intermediate `f64`.

use std::fmt::{self, Write as _};

/// Escape a string for embedding inside a JSON string literal. Handles
/// quotes, backslashes and control characters; everything else passes
/// through.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render a float as a JSON value: plain decimal, or `null` when
/// non-finite. Rust's `Display` for finite floats is exponent-free only for
/// moderate magnitudes; extreme ones are re-rendered with a fixed number of
/// fraction digits so the output is always a valid JSON number.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('e') || s.contains('E') {
        format!("{v:.6}")
    } else {
        s
    }
}

/// A parsed JSON value. Numbers keep their literal text; convert with
/// [`Json::as_u64`] / [`Json::as_f64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The literal number text, e.g. `"-1.5e3"`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; the writers never duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`] but with a contextual error.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key \"{key}\""))
    }

    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => {
                n.parse().map_err(|_| format!("{what}: {n:?} is not an unsigned integer"))
            }
            _ => Err(format!("{what}: expected a number")),
        }
    }

    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("{what}: {n:?} is not a number")),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    /// A float that may be written as `null` (absent / non-finite).
    pub fn as_opt_f64(&self, what: &str) -> Result<Option<f64>, String> {
        match self {
            Json::Null => Ok(None),
            _ => self.as_f64(what).map(Some),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected an array")),
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Journal, profile and
/// trace documents nest under ten levels; the cap stops a hostile file of
/// nested brackets from overflowing the recursive descent's stack.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// More than [`MAX_DEPTH`] nested arrays/objects; `offset` is the byte
    /// of the bracket that crossed the cap.
    TooDeep { offset: usize },
    /// Malformed, truncated or trailing text.
    Syntax(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            ParseError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        ParseError::Syntax(msg)
    }
}

impl From<ParseError> for String {
    fn from(e: ParseError) -> Self {
        e.to_string()
    }
}

/// Parse a complete JSON document. Rejects trailing data, raw control bytes
/// in strings, malformed escapes, truncated input and nesting deeper than
/// [`MAX_DEPTH`] — a hand-edited or corrupted file is reported, not trusted.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos).into());
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn lit(&mut self, lit: &[u8], v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        let c = self.peek()?;
        if matches!(c, b'[' | b'{') && depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { offset: self.pos });
        }
        match c {
            b'n' => Ok(self.lit(b"null", Json::Null)?),
            b't' => Ok(self.lit(b"true", Json::Bool(true))?),
            b'f' => Ok(self.lit(b"false", Json::Bool(false))?),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if self.peek()? != b':' {
                        return Err(format!("expected ':' at byte {}", self.pos).into());
                    }
                    self.pos += 1;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => {
                            return Err(format!("expected ',' or '}}' at byte {}", self.pos).into())
                        }
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => Ok(self.number()?),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos).into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos - s
        };
        if digits(self) == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek()? != b'"' {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(0x00..=0x1f) => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc =
                        self.bytes.get(self.pos).ok_or_else(|| "truncated escape".to_string())?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        c => return Err(format!("unknown escape '\\{}'", *c as char)),
                    }
                }
                Some(_) => unreachable!("scan stops only at quote, backslash or control"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("lone high surrogate".to_string());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".to_string());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid code point {code:#x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape_json("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape_json("\u{1}\u{1f}"), "\\u0001\\u001f");
        // 0x20 (space) and above pass through.
        assert_eq!(escape_json(" !"), " !");
    }

    #[test]
    fn escape_passes_non_ascii_through() {
        assert_eq!(escape_json("héllo \u{1F600} 中文"), "héllo \u{1F600} 中文");
    }

    #[test]
    fn escaped_strings_parse_back_to_the_original() {
        for s in ["quote \" back \\ slash", "tab\there\nnewline", "\u{1} café \u{1F600}"] {
            let doc = format!("\"{}\"", escape_json(s));
            assert_eq!(parse(&doc).unwrap(), Json::Str(s.to_string()), "{doc}");
        }
    }

    #[test]
    fn fmt_f64_is_always_valid_json() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        // Extreme magnitudes would Display with an exponent; re-rendered.
        assert!(!fmt_f64(1e-9).contains('e'));
    }

    #[test]
    fn parse_accepts_the_full_value_model() {
        let v = parse("{\"a\":[1,-2.5,3e4,\"x\",true,false,null],\"b\":{}}").unwrap();
        let a = v.field("a").unwrap().as_arr("a").unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a[0].as_u64("n").unwrap(), 1);
        assert!((a[1].as_f64("f").unwrap() + 2.5).abs() < 1e-12);
        assert!((a[2].as_f64("e").unwrap() - 3e4).abs() < 1e-9);
        assert_eq!(a[3].as_str("s").unwrap(), "x");
        assert_eq!(a[4], Json::Bool(true));
        assert_eq!(a[6], Json::Null);
        assert_eq!(v.field("b").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn numbers_keep_u64_exactness() {
        let v = parse(&format!("{{\"c\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.field("c").unwrap().as_u64("c").unwrap(), u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"raw\x01control\"").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_with_the_offending_offset() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)), Err(ParseError::TooDeep { offset: MAX_DEPTH }));
        // Unterminated chains far past the cap fail fast instead of
        // overflowing the stack.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, ParseError::TooDeep { offset: MAX_DEPTH });
        assert_eq!(err.to_string(), format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
    }

    #[test]
    fn object_nesting_is_capped_too() {
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // Each level is 5 bytes (`{"a":`), so the first rejected brace is
        // at byte 5 · MAX_DEPTH.
        let offset = 5 * MAX_DEPTH;
        assert_eq!(parse(&objects(MAX_DEPTH + 1)), Err(ParseError::TooDeep { offset }));
        assert_eq!(parse(&"{\"a\":".repeat(200_000)), Err(ParseError::TooDeep { offset }));
    }

    #[test]
    fn opt_f64_treats_null_as_absent() {
        let v = parse("{\"x\":null,\"y\":2.5}").unwrap();
        assert_eq!(v.field("x").unwrap().as_opt_f64("x").unwrap(), None);
        assert_eq!(v.field("y").unwrap().as_opt_f64("y").unwrap(), Some(2.5));
    }
}

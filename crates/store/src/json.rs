//! A minimal JSON value, parser, and writer.
//!
//! The build environment vendors no serialization crates, so the daemons
//! carry their own codec: this one module speaks both the serving
//! protocol (`optimist-serve`, which re-exports it as `serve::json`) and
//! the store protocol ([`crate::net`]). It supports exactly what those
//! protocols need: objects, arrays, strings (with full escape handling),
//! numbers, booleans and null, parsed from a single line and written back
//! compactly on a single line. Object keys keep insertion order so
//! responses are stable and diffable.
//!
//! Input is untrusted network text, so the parser bounds its recursion:
//! documents nested deeper than [`MAX_DEPTH`] arrays/objects are refused
//! with a [`JsonError`] instead of overflowing the thread's stack.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2⁵³ are exact.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer value, if this is a number with an exact integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => Some(*v as i64),
            _ => None,
        }
    }

    /// Unsigned value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from key–value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Append a member to an object (panics on non-objects — builder use only).
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Overwrite an object member, appending it if absent (panics on
    /// non-objects — builder use only).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => {
                if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
                    pair.1 = value;
                } else {
                    pairs.push((key.to_string(), value));
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl Json {
    /// Append the compact encoding of `self` to `out`. Writing straight
    /// into a `String` keeps the per-run cost of escape-dense strings off
    /// the formatter's dynamic dispatch.
    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                use fmt::Write as _;
                let _ = if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
                    write!(out, "{}", *v as i64)
                } else if v.is_finite() {
                    write!(out, "{v}")
                } else {
                    // JSON has no Inf/NaN; degrade to null rather than emit
                    // an unparsable token.
                    write!(out, "null")
                };
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.encode_into(&mut out);
        f.write_str(&out)
    }
}

fn encode_string(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    // Copy unescaped runs as whole slices. Every byte that needs escaping
    // is ASCII, and no byte of a multi-byte UTF-8 sequence is, so a byte
    // scan finds them all and every `i` below is a char boundary.
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None, // \u escape below
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts (serde_json's default
/// limit). The daemons' own documents nest a handful of levels; anything
/// deeper is hostile input, refused before the recursive descent can
/// exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document from `text` (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a byte offset and description on malformed input, including
/// documents nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A JSON parse error: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.bytes[self.pos] == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        // Contents are copied in runs sliced straight from the (already
        // valid UTF-8) input: validating per character would be O(n²) on
        // the large IR payloads the serve protocol carries, and pushing
        // per character is slow on the escape-dense cache entries the
        // store protocol carries. `run` is where the pending run starts.
        let mut run = self.pos;
        loop {
            // Both stop bytes are ASCII, so every run ends on a char
            // boundary.
            self.pos += self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {}
            }
            // A backslash: decode one escape.
            self.pos += 1;
            run = self.pos + 1;
            match self.peek() {
                // These stand for the escaped byte itself, which simply
                // starts the next run.
                Some(b'"' | b'\\' | b'/') => run = self.pos,
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    run = self.pos;
                    continue; // hex4 advanced pos already
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    /// The character of a `\\uXXXX` escape (the `\\u` already consumed),
    /// including a following low surrogate when it opens a pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"));
        }
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(self.err("lone high surrogate"));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.err("bad low surrogate"));
        }
        let v = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(v).ok_or_else(|| self.err("bad surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"[1,2,3]"#,
            r#"{"a":1,"b":[{"c":"d"},null,false]}"#,
            r#""line\nbreak \"quoted\" back\\slash""#,
            r#"-12.5"#,
        ];
        for c in cases {
            let v = parse(c).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(v.to_string(), *c, "not a fixed point");
            assert_eq!(parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn ir_text_survives_a_json_trip() {
        let ir = "func f(v0:int) -> int {\n    reg v0:int \"x\"\nb0:\n    ret v0\n}";
        let v = Json::obj([("ir", Json::from(ir))]);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.get("ir").unwrap().as_str().unwrap(), ir);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": nope}").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("[1,2").is_err());
        assert!(parse("[1] junk").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        let e = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "refused at the first level too deep");
        let objects = |n: usize| "{\"a\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        assert!(parse(&nested("{\"a\":[", "]}", MAX_DEPTH)).is_err());
        // Depth is nesting, not container count: siblings do not add up.
        let wide = format!("[{}1]", "[],".repeat(10 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn a_hostile_depth_is_an_error_on_a_default_size_thread() {
        // 100k unclosed levels would overflow a 2 MiB stack if every level
        // recursed; the cap must refuse them long before that.
        for doc in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let result = std::thread::spawn(move || parse(&doc).map(|_| ()))
                .join()
                .expect("parser thread must not overflow its stack");
            assert!(result.is_err());
        }
    }

    #[test]
    fn escape_free_and_escaped_strings_decode_alike() {
        let plain = "π≈3.14159 \u{1F600} no escapes here";
        assert_eq!(parse(&format!("\"{plain}\"")).unwrap(), Json::from(plain));
        let mixed = "tab\there \"q\" π \u{1}\u{1F600}\\";
        let text = Json::from(mixed).to_string();
        assert_eq!(parse(&text).unwrap(), Json::from(mixed));
        // The exact escape spelling both protocols put on the wire.
        assert_eq!(
            Json::from("a\"\\/\n\r\t\u{1}\u{1f}é").to_string(),
            r#""a\"\\/\n\r\t\u0001\u001fé""#
        );
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"escape at the end\\").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }
}

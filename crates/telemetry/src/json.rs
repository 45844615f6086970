//! The workspace's one JSON codec (the build is offline, so no
//! serde_json): [`JsonObj`] and [`escape`] write every machine-readable
//! artifact, and [`parse`] reads serve requests and, in tests, the
//! artifacts themselves.
//!
//! The parser accepts exactly RFC 8259. Non-negative integer literals that
//! fit in `u64` stay exact ([`JsonValue::UInt`]) instead of rounding
//! through `f64`, and nesting is capped at [`MAX_DEPTH`] so hostile input
//! cannot overflow the reading thread's stack.

use std::fmt::Write as _;

/// Maximum number of nested arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// Escape a string for a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
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

/// Incremental JSON object writer.
///
/// ```
/// use vmprobe_telemetry::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "moldyn").u64("heap_mb", 32).bool("ok", true);
/// assert_eq!(o.finish(), r#"{"name":"moldyn","heap_mb":32,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.buf.is_empty() {
            self.buf.push('{');
        } else {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
        &mut self.buf
    }

    /// Stamp the suite-wide artifact schema version
    /// ([`crate::SCHEMA_VERSION`]) as the next field. Every
    /// machine-readable artifact — the `RunReport` JSON, the Chrome trace
    /// and the Prometheus metrics — carries this same constant, and they
    /// bump in lockstep (`tests/telemetry_determinism.rs` enforces it).
    pub fn schema_version(&mut self) -> &mut Self {
        self.u64("schema_version", u64::from(crate::SCHEMA_VERSION))
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let e = escape(v);
        let _ = write!(self.key(k), "\"{e}\"");
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field (non-finite values render as `null`).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.key(k), "{v}");
        } else {
            self.key(k).push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON value (nested object or array) verbatim.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).push_str(v);
        self
    }

    /// Add an array field from pre-rendered JSON values.
    pub fn array(&mut self, k: &str, items: impl IntoIterator<Item = String>) -> &mut Self {
        let body: Vec<String> = items.into_iter().collect();
        let rendered = format!("[{}]", body.join(","));
        self.raw(k, &rendered)
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no fraction, no exponent) that fits
    /// in `u64`, kept exact.
    UInt(u64),
    /// Any other number, as the nearest `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (last occurrence wins, like serde_json).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it was written as one that
    /// fits in `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset where one applies.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Cursor over the input. `pos` only ever advances over ASCII bytes or
/// whole chars, so it always sits on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One value, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(JsonValue::Arr(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// `open (item (',' item)*)? close`: the shared shape of objects and
    /// arrays.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.text[self.pos..]
                .chars()
                .next()
                .ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // every string this workspace reads is an ASCII
                            // identifier or label in practice, and a typed
                            // error beats silent mojibake.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if (c as u32) < 0x20 => return Err("raw control character in string".into()),
                c => out.push(c),
            }
        }
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        let mut integer = true;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits() > 0;
            integer = false;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits() > 0;
            integer = false;
        }
        let text = &self.text[start..self.pos];
        if !ok {
            return Err(format!("bad number '{text}' at byte {start}"));
        }
        if integer && !negative {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(format!("bad number '{text}' at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_object_renders() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn nested_objects_and_arrays() {
        let mut inner = JsonObj::new();
        inner.u64("n", 3);
        let mut o = JsonObj::new();
        o.raw("inner", &inner.finish())
            .array("xs", ["1".to_owned(), "2".to_owned()])
            .f64("nan", f64::NAN);
        assert_eq!(o.finish(), r#"{"inner":{"n":3},"xs":[1,2],"nan":null}"#);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":[1,-2.5,true,null],"b":{"c":"x\ny"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::UInt(1),
                JsonValue::Num(-2.5),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn round_trips_the_emitter() {
        let mut o = JsonObj::new();
        o.str("name", "mol\"dyn\\")
            .u64("heap_mb", 32)
            .u64("max", u64::MAX)
            .bool("ok", true)
            .f64("x", -1.5);
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("mol\"dyn\\"));
        assert_eq!(v.get("heap_mb").unwrap().as_u64(), Some(32));
        assert_eq!(v.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("x"), Some(&JsonValue::Num(-1.5)));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn integers_are_exact_across_the_whole_u64_range() {
        for (text, want) in [
            ("0", Some(0)),
            ("9007199254740993", Some((1u64 << 53) + 1)),
            ("18446744073709551615", Some(u64::MAX)),
            // Out of range, negative or non-integer literals are numbers
            // but not unsigned integers.
            ("18446744073709551616", None),
            ("-1", None),
            ("32.0", None),
            ("1e3", None),
        ] {
            let v = parse(text).unwrap_or_else(|e| panic!("rejected {text}: {e}"));
            assert_eq!(v.as_u64(), want, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
    }

    /// One accept/reject corpus for the workspace's only JSON parser.
    #[test]
    fn accepts_and_rejects_the_rfc_8259_corpus() {
        for ok in [
            "{}",
            "[]",
            "null",
            "0",
            "-0",
            "-1.5e-3",
            "1E+2",
            "0.5",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            r#""\/\b\f\r\t\"\\""#,
            "  [ 1 , 2 ]  ",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "tru",
            "nan",
            "1 2",
            "01",
            "01a",
            "[01x]",
            "1.",
            "1.e5",
            "1e",
            "-",
            "+1",
            ".5",
            "1e999",
            "\"unterminated",
            "\"\\x\"",
            "\"\\u00zz\"",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_before_recursing_further() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        parse(&nested(MAX_DEPTH)).expect("32 levels are allowed");
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("33 levels are not");
        // Rejected at the 33rd opening bracket, not somewhere deeper.
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
        let object_bomb = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&object_bomb).is_err());
        // A nesting bomb is cut off, not a stack overflow.
        assert!(parse(&nested(100_000)).is_err());
    }
}

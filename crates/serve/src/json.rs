//! A minimal JSON value type, parser, and serializer.
//!
//! The service speaks JSON over hand-rolled HTTP; the build environment has
//! no serde, so this module implements the small subset of JSON handling the
//! protocol needs: UTF-8 text, `\uXXXX` escapes (including surrogate
//! pairs), and objects that preserve insertion order. A key repeated
//! within one object is an error, so no lookup has to pick which of two
//! values counts.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value of a key out of an object, leaving `null` in its
    /// place; the key found is the one [`Json::get`] would find.
    pub(crate) fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a nonnegative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Indexes into an array.
    pub fn get_index(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(idx),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a trailing `.0`.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    // JSON has no Inf/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Whether a string byte can be copied verbatim: not a quote, a backslash
/// or a control character. Every byte of a multi-byte UTF-8 sequence is
/// plain, so a run of plain bytes always ends on a char boundary.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut rest = s;
    loop {
        let run = rest
            .bytes()
            .position(|b| !is_plain(b))
            .unwrap_or(rest.len());
        f.write_str(&rest[..run])?;
        let Some(&b) = rest.as_bytes().get(run) else {
            break;
        };
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b => write!(f, "\\u{b:04x}")?,
        }
        rest = &rest[run + 1..];
    }
    f.write_str("\"")
}

/// A JSON parse error with a byte offset.
#[derive(Debug)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest. Request bodies nest three or
/// four levels; the bound keeps a body of bare `[`s from overflowing the
/// decoding thread's stack, which would abort the whole server.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing garbage, duplicate
/// object keys and nesting deeper than 128 levels). Time is linear in the
/// input's length, up to a log factor in the keys of one object.
///
/// # Errors
///
/// Returns a [`ParseError`] with the failing byte offset.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    Parser::new(input).document()
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
    /// Decode strings with the char-at-a-time reference decoder instead
    /// (the differential test's oracle).
    #[cfg(test)]
    reference_strings: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            reference_strings: false,
        }
    }

    fn document(mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, refusing to nest past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        // Where each key starts, to point a duplicate-key error at it.
        let mut key_offsets = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            key_offsets.push(self.pos);
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
                    return match first_repeat(&pairs) {
                        Some(i) => Err(ParseError {
                            offset: key_offsets[i],
                            message: format!("duplicate key `{}`", pairs[i].0),
                        }),
                        None => Ok(Json::Obj(pairs)),
                    };
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        #[cfg(test)]
        if self.reference_strings {
            return self.reference_string();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run of plain bytes as one slice; it starts and
            // ends on char boundaries (see `is_plain`).
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| !is_plain(b))
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes one escape sequence, with `pos` on its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("bad low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                };
                out.push(c);
                return Ok(()); // hex4 advanced past the digits
            }
            _ => return Err(self.err("bad escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// The index of the first pair, in document order, whose key an earlier
/// pair already used. One sort per object, not a scan per key, so an
/// object with many keys stays cheap.
fn first_repeat(pairs: &[(String, Json)]) -> Option<usize> {
    if pairs.len() < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    // Stable: equal keys keep their document order, so the second of two
    // neighbours is the repeat.
    order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
    order
        .windows(2)
        .filter(|w| pairs[w[0]].0 == pairs[w[1]].0)
        .map(|w| w[1])
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::RequestFuzzGen;

    #[test]
    fn round_trips_a_nested_document() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"hi\nthere"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let v = parse(r#""Aé🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé🦀"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_wherever_they_sit() {
        #[rustfmt::skip]
        let cases: &[(&str, usize, &str)] = &[
            (r#"{"a":1,"a":2}"#,                  7, "duplicate key `a`"),
            (r#"{"b":{"k":"1/2","k":"1/4"}}"#,   16, "duplicate key `k`"),
            (r#"[{"x":1},{"y":1,"x":2,"y":3}]"#, 22, "duplicate key `y`"),
            // An escape does not make a key distinct: both decode to `ab`.
            (r#"{"ab":1,"a\u0062":2}"#,          8, "duplicate key `ab`"),
            // The first repeat in document order is the one reported.
            (r#"{"z":1,"a":1,"z":2,"a":2}"#,     13, "duplicate key `z`"),
        ];
        for &(doc, offset, message) in cases {
            let err = parse(doc).expect_err(doc);
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{doc}"
            );
        }
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn numbers_render_cleanly() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    impl Parser<'_> {
        /// The string decoder as it was before bulk copying: one char at a
        /// time, re-validating the rest of the input as UTF-8 for each one
        /// (quadratic). Kept verbatim as the differential test's oracle.
        pub(super) fn reference_string(&mut self) -> Result<String, ParseError> {
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
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let hi = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair.
                                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?
                                } else {
                                    char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                                };
                                out.push(c);
                                continue; // hex4 advanced past the digits
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so this is
                        // always at a char boundary).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                        let c = s.chars().next().expect("nonempty");
                        if (c as u32) < 0x20 {
                            return Err(self.err("raw control character in string"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Both decoders' verdict on one document, errors as `(offset, message)`.
    fn both(doc: &str) -> [Result<Json, (usize, String)>; 2] {
        let reference = Parser {
            reference_strings: true,
            ..Parser::new(doc)
        };
        [Parser::new(doc).document(), reference.document()]
            .map(|r| r.map_err(|e| (e.offset, e.message)))
    }

    #[test]
    fn bulk_string_decoding_matches_the_char_at_a_time_reference() {
        let (mut decoded, mut rejected) = (0, 0);
        // Short runs keep the quadratic oracle fast over thousands of
        // documents; the last few seeds carry multi-kilobyte runs.
        for seed in 0..3_016u64 {
            let max_run = if seed < 3_000 {
                16 << (seed % 5)
            } else {
                8 * 1024
            };
            let doc = RequestFuzzGen::new(seed).json_document(max_run);
            let [fast, reference] = both(&doc);
            assert_eq!(fast, reference, "seed {seed}: {doc:?}");
            match fast {
                Ok(_) => decoded += 1,
                Err(_) => rejected += 1,
            }
        }
        // The corpus must exercise both the success and the error paths.
        assert!(
            decoded > 300 && rejected > 300,
            "{decoded} decoded, {rejected} rejected"
        );
    }

    #[test]
    fn string_errors_keep_their_offsets_and_messages() {
        #[rustfmt::skip]
        let cases: &[(&str, usize, &str)] = &[
            ("\"abc",                 4, "unterminated string"),
            ("\"ab\u{1}c\"",          3, "raw control character in string"),
            ("\"é\u{1f}\"",           3, "raw control character in string"),
            (r#""a\x""#,              3, "bad escape"),
            (r#""\ud83e""#,           7, "lone high surrogate"),
            (r#""\ud83e\u0041""#,    13, "bad low surrogate"),
            (r#""\udc00""#,           7, "bad codepoint"),
            (r#""\u12""#,             3, "truncated \\u escape"),
            (r#""\u12zz""#,           3, "bad \\u escape"),
        ];
        for &(doc, offset, message) in cases {
            for verdict in both(doc) {
                let err = verdict.expect_err(doc);
                assert_eq!((err.0, err.1.as_str()), (offset, message), "{doc:?}");
            }
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // Far past any stack: rejected at the first bracket over the bound.
        let err = parse(&r#"{"a":"#.repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        assert_eq!(err.message, "nesting deeper than 128 levels");
    }

    #[test]
    fn decodes_long_runs_around_escapes_and_multibyte_text() {
        let run = "xé中🦀".repeat(10_000);
        let doc = format!(r#"["{run}\n{run}🦀{run}"]"#);
        let want = format!("{run}\n{run}🦀{run}");
        assert_eq!(
            parse(&doc).unwrap(),
            Json::Arr(vec![Json::Str(want.clone())])
        );
        // The encoder writes the same runs back out byte for byte.
        assert_eq!(
            Json::Str(want).to_string(),
            format!(r#""{run}\n{run}🦀{run}""#)
        );
    }
}

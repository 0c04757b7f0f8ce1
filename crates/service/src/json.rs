//! A minimal JSON value for the service protocol.
//!
//! The container has no `serde_json`, and the protocol only needs objects,
//! arrays, strings, numbers, booleans, and null — so the service carries
//! its own hand-rolled parser and renderer. Objects keep insertion order
//! (a `Vec` of pairs, not a map), which makes every rendered response
//! byte-deterministic: the chaos harness compares transcripts verbatim.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the protocol only uses non-negative integers and
    /// millisecond durations, all exactly representable in an `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs (first write wins on `get`).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The numeric value, when this is a number (integral or not).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Builds an object from pairs — the ergonomic constructor for
    /// responses.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Renders compact single-line JSON (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering to `out` — what [`Json::render`]
    /// does, into a buffer the caller reuses.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Formatting into a `String` cannot fail.
                let _ = if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                };
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a bound a request line of
/// a few thousand `[` overflows a connection thread's stack and aborts
/// the process. Requests and the host's replies nest at most a few
/// levels (an `ask-question` reply is object → array → object), so this
/// leaves ample room.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON value; trailing non-whitespace, and nesting deeper
/// than [`MAX_DEPTH`], are errors.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters", pos));
    }
    Ok(v)
}

fn err(msg: &str, at: usize) -> ParseError {
    ParseError { msg: msg.to_string(), at }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(_) => Err(err("unexpected character", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| err("invalid number", start))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err("invalid \\u escape", *pos))?;
                        // Surrogate pairs are not needed by the protocol;
                        // lone surrogates render as the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a char boundary of
                // the caller's `&str` and validates in time linear in
                // its own length.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|_| err("bad utf-8", start))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err("expected string key", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err("expected ':'", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let src = r#"{"cmd":"answer","session":3,"value":"distinct-yes","flag":true,"x":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("answer"));
        assert_eq!(v.get("session").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::obj(vec![("s", Json::str("a\"b\\c\nd\te\u{1}"))]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    /// xorshift64*: deterministic test input without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn random_strings_roundtrip() {
        // Every character the renderer escapes, every other control
        // character, and scalars of each UTF-8 width.
        let alphabet: Vec<char> = "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f} aZ09{}[]:,éß€→𝄞😀\u{fffd}"
            .chars()
            .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..500 {
            let len = (next(&mut state) % 64) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(next(&mut state) % alphabet.len() as u64) as usize])
                .collect();
            let rendered = Json::str(s.as_str()).render();
            assert_eq!(parse(&rendered), Ok(Json::Str(s.clone())), "round {round}: {rendered}");
            // As an object key too: keys go through the same string parser.
            let obj = Json::Obj(vec![(s.clone(), Json::Null)]);
            assert_eq!(parse(&obj.render()), Ok(obj));
        }
    }

    #[test]
    fn every_escape_parses() {
        let v = parse(r#""\"\\\/\n\r\t\b\fAé€\ud800""#).unwrap();
        assert_eq!(v, Json::str("\"\\/\n\r\t\u{8}\u{c}Aé€\u{fffd}"));
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u00é""#).is_err());
    }

    #[test]
    fn string_parse_time_is_linear() {
        // 16× the input may cost 16× the time, plus a few milliseconds of
        // allocator and cache noise; the quadratic parser this pins
        // against cost 256×, i.e. minutes. Tests run beside each other, so
        // one quiet round out of ten is asked for, not ten.
        let time = |src: &str| {
            let t0 = std::time::Instant::now();
            let v = parse(src).unwrap();
            let dt = t0.elapsed();
            assert_eq!(v.as_str().map(str::len), Some(src.len() - 2));
            dt
        };
        let text = |len: usize| format!("\"{}\"", "añb€".repeat(len / 7));
        let (small, large) = (text(256 << 10), text(4 << 20));
        let rounds: Vec<_> = (0..10).map(|_| (time(&small), time(&large))).collect();
        assert!(
            rounds
                .iter()
                .any(|&(s, l)| l < s * 16 + std::time::Duration::from_millis(5)),
            "(256 KiB, 4 MiB) took {rounds:?}"
        );
    }

    #[test]
    fn arrays_and_nesting() {
        let src = r#"[1, [2, {"k": [3]}], "s"]"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let at_bound = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(parse(&at_bound.render()).unwrap(), at_bound);
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        let over = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((over.msg.as_str(), over.at), ("nesting too deep", MAX_DEPTH));
        let objects = format!("{{\"k\":{objects}}}");
        assert_eq!(parse(&objects).unwrap_err().msg, "nesting too deep");
        // Far past the bound the parser stops at it, without recursing
        // through the rest of the line.
        assert_eq!(parse(&"[".repeat(100_000)).unwrap_err().at, MAX_DEPTH);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("nan").is_err());
    }

    #[test]
    fn numbers_render_as_integers_when_integral() {
        assert_eq!(Json::num(1500).render(), "1500");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn object_get_is_first_write_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }
}

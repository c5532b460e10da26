//! A small self-contained JSON value, writer, and parser.
//!
//! The workspace builds offline with no external crates, so everything that
//! serializes (the device-profile cache, the telemetry event stream, the
//! Chrome-tracing exporters) goes through this module instead of
//! `serde_json`. The surface is deliberately tiny: a tree [`Json`] value,
//! [`Json::dump`] to text, and [`Json::parse`] back; writers that have no
//! use for the tree (the telemetry event stream) append straight to a
//! `String` with the same leaf writers `dump` uses, [`write_str`] and
//! [`write_num`]. Numbers are `f64` (every quantity we serialize —
//! nanoseconds, byte counts, bandwidths — fits in the 2^53 integer range).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array of `f64` numbers.
    pub fn num_arr(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// Serialize to compact JSON text.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Returns `None` on any syntax error or trailing
    /// garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Escape a string for embedding in JSON text (without the surrounding
/// quotes). Handles quotes, backslashes, and all control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Append `s` to `out`, escaped as [`escape`] does. Runs that need no
/// escaping are copied whole, so the common case is one `push_str`.
pub fn escape_into(s: &str, out: &mut String) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        // Every byte that needs escaping is ASCII, so `clean..i` falls on
        // character boundaries.
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Append `s` to `out` as a JSON string: quoted and escaped.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Append `n` to `out` as a JSON number: integral values below 9.0e15 in
/// magnitude print without a fraction, everything else as Rust's shortest
/// round-trip `f64` text; NaN and the infinities, which JSON lacks, as
/// `null`.
pub fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match *bytes.get(*pos)? {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(members));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Option<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    let mut pending_high: Option<u16> = None;
    loop {
        let b = *bytes.get(*pos)?;
        match b {
            b'"' => {
                *pos += 1;
                if pending_high.is_some() {
                    out.push('\u{FFFD}');
                }
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *bytes.get(*pos)?;
                *pos += 1;
                let simple = match esc {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'b' => Some('\u{0008}'),
                    b'f' => Some('\u{000C}'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'u' => None,
                    _ => return None,
                };
                if let Some(c) = simple {
                    if pending_high.take().is_some() {
                        out.push('\u{FFFD}');
                    }
                    out.push(c);
                    continue;
                }
                let hex = bytes.get(*pos..*pos + 4)?;
                *pos += 4;
                let unit = u16::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                match pending_high.take() {
                    Some(high) if (0xDC00..=0xDFFF).contains(&unit) => {
                        let c = 0x10000
                            + ((u32::from(high) - 0xD800) << 10)
                            + (u32::from(unit) - 0xDC00);
                        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                    }
                    Some(_) => {
                        out.push('\u{FFFD}');
                        if (0xD800..=0xDBFF).contains(&unit) {
                            pending_high = Some(unit);
                        } else {
                            out.push(char::from_u32(u32::from(unit)).unwrap_or('\u{FFFD}'));
                        }
                    }
                    None if (0xD800..=0xDBFF).contains(&unit) => pending_high = Some(unit),
                    None => out.push(char::from_u32(u32::from(unit)).unwrap_or('\u{FFFD}')),
                }
            }
            _ => {
                if pending_high.take().is_some() {
                    out.push('\u{FFFD}');
                }
                // Consume one full UTF-8 character.
                let len = utf8_len(b)?;
                let s = std::str::from_utf8(bytes.get(*pos..*pos + len)?).ok()?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// Convenience: map an object's members into a `BTreeMap` of strings to
/// values (useful for order-insensitive comparisons in tests).
pub fn to_map(value: &Json) -> Option<BTreeMap<String, Json>> {
    match value {
        Json::Obj(members) => Some(members.iter().cloned().collect()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.dump()), Some(v), "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj([
            ("name", Json::from("kernel \"x\"\n")),
            ("sizes", Json::num_arr([1.0, 1024.0, 2.5])),
            ("inner", Json::obj([("flag", Json::Bool(true)), ("none", Json::Null)])),
        ]);
        let text = v.dump();
        assert_eq!(Json::parse(&text), Some(v.clone()));
        assert_eq!(v.get("name").unwrap().as_str(), Some("kernel \"x\"\n"));
        assert_eq!(v.get("sizes").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Json::Str("a\u{1}b\tc".into());
        let text = v.dump();
        assert!(text.contains("\\u0001"), "{text}");
        assert!(text.contains("\\t"));
        assert_eq!(Json::parse(&text), Some(v));
    }

    #[test]
    fn leaf_writers_roundtrip_random_strings_and_edge_numbers() {
        // The alphabet is everything `escape_into` treats specially plus
        // what it must pass through untouched.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', ' ', 'a', 'Z', '\u{7f}', 'é', '→', '😀']);
        let mut rng = crate::xrand::XorShift::new(15);
        for _ in 0..2_000 {
            let len = rng.index(24);
            let s: String = (0..len).map(|_| alphabet[rng.index(alphabet.len())]).collect();
            let mut text = String::new();
            write_str(&s, &mut text);
            assert_eq!(Json::parse(&text), Some(Json::Str(s.clone())), "{text}");
            assert_eq!(text, format!("\"{}\"", escape(&s)));
            assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
        }

        let num = |n: f64| {
            let mut text = String::new();
            write_num(n, &mut text);
            text
        };
        // Integral values print without a fraction below 9.0e15 and as
        // Rust's shortest round-trip text from there on; both parse back to
        // the same `f64`, so a `u64` above 2^53 survives as the `f64` it
        // was rounded to on the way in.
        assert_eq!(num(0.0), "0");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(-17.0), "-17");
        assert_eq!(num(8_999_999_999_999_999.0), "8999999999999999");
        assert_eq!(num(9.0e15), "9000000000000000");
        assert_eq!(num(u64::MAX as f64), "18446744073709552000");
        assert_eq!(num(0.07), "0.07");
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(n), "null");
        }
        let mut edges = vec![0.0, 1.0, 9.0e15, 9.0e15 + 2.0, 1.0e300, 5e-324, 0.1 + 0.2];
        edges.extend([(1u64 << 53) + 1, u64::MAX - 1, u64::MAX].map(|n| n as f64));
        for _ in 0..2_000 {
            edges.push(rng.next_u64() as f64);
            edges.push(rng.range_f64(-1.0e6, 1.0e6));
            edges.push(f64::from_bits(rng.next_u64()));
        }
        for n in edges.into_iter().filter(|n| n.is_finite()) {
            assert_eq!(Json::parse(&num(n)), Some(Json::Num(n)), "{n:e}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é""#), Some(Json::Str("é".into())));
        assert_eq!(Json::parse(r#""😀""#), Some(Json::Str("😀".into())));
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert_eq!(Json::parse(text), None, "{text:?}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(1e9).dump(), "1000000000");
        assert_eq!(Json::parse("1000000000").unwrap().as_u64(), Some(1_000_000_000));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}

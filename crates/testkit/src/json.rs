//! A minimal JSON reader and writer — just enough for report producers
//! (the stress driver, the repo benchmark) to build the documents they emit
//! as one [`Value`] tree, render it, and query or validate it again
//! (well-formedness, field and dotted-path lookups) without an external
//! crate. `parse(&v.render()) == v` for every tree of finite numbers.
//!
//! Supports the full JSON grammar except `\u` surrogate pairs are decoded
//! permissively (lone surrogates become U+FFFD). Numbers are `f64` on both
//! sides: integers are exact up to 2⁵³, which is why 64-bit hashes travel
//! as hex strings.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value at a dotted path of member names and `[index]` steps, e.g.
    /// `per_shard[0].replicas[1].queue_hwm`. `None` when a member is
    /// missing, an index is out of range, a step is applied to the wrong
    /// kind of value, or the path is malformed.
    pub fn at(&self, path: &str) -> Option<&Value> {
        parse_path(path)?
            .into_iter()
            .try_fold(self, |v, step| match (step, v) {
                (Step::Key(k), Value::Object(_)) => v.get(k),
                (Step::Index(i), Value::Array(items)) => items.get(i),
                _ => None,
            })
    }

    /// [`Value::at`], mutably.
    pub fn at_mut(&mut self, path: &str) -> Option<&mut Value> {
        parse_path(path)?
            .into_iter()
            .try_fold(self, |v, step| match (step, v) {
                (Step::Key(k), Value::Object(members)) => members
                    .iter_mut()
                    .find(|(name, _)| name == k)
                    .map(|(_, v)| v),
                (Step::Index(i), Value::Array(items)) => items.get_mut(i),
                _ => None,
            })
    }

    /// The value as JSON text that [`parse`] reads back. The members of the
    /// outermost object or array go one per line and everything nested
    /// stays on its member's line, so a report is one line per field. An
    /// integral number up to 2⁵³ is written without a fraction; a
    /// non-finite number, which JSON cannot express, becomes `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, outermost: bool) {
        let (first, next, last) = if outermost {
            ("\n  ", ",\n  ", "\n")
        } else {
            ("", ", ", "")
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if !n.is_finite() => out.push_str("null"),
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { first } else { next });
                    v.write(out, false);
                }
                if !items.is_empty() {
                    out.push_str(last);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { first } else { next });
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.write(out, false);
                }
                if !members.is_empty() {
                    out.push_str(last);
                }
                out.push('}');
            }
        }
    }
}

macro_rules! value_from_number {
    ($($t:ty),+) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n as f64)
            }
        }
    )+};
}
value_from_number!(f64, u64, u32, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

/// One step of a [`Value::at`] path.
enum Step<'a> {
    Key(&'a str),
    Index(usize),
}

/// Splits `a.b[0][1].c` into its steps; `None` when malformed (an empty
/// member name, an unclosed or non-numeric index, text after a `]`).
fn parse_path(path: &str) -> Option<Vec<Step<'_>>> {
    let mut steps = Vec::new();
    for segment in path.split('.') {
        let (key, mut rest) = match segment.find('[') {
            Some(open) => segment.split_at(open),
            None => (segment, ""),
        };
        if key.is_empty() {
            return None;
        }
        steps.push(Step::Key(key));
        while !rest.is_empty() {
            let (index, tail) = rest.strip_prefix('[')?.split_once(']')?;
            steps.push(Step::Index(index.parse().ok()?));
            rest = tail;
        }
    }
    Some(steps)
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                            .map_err(|_| "non-ascii \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise by finding the char boundary).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let doc = r#"{"name":"smoke","ops":120,"errors":0,
                      "latency_ns":{"p50":1200,"p99":9000.5},
                      "tags":["a","b"],"ok":true,"note":null,
                      "text":"he said \"hi\"\n"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("ops").and_then(Value::as_f64), Some(120.0));
        assert_eq!(v.get("errors").and_then(Value::as_f64), Some(0.0));
        let lat = v.get("latency_ns").unwrap();
        assert_eq!(lat.get("p99").and_then(Value::as_f64), Some(9000.5));
        assert_eq!(
            v.get("text").and_then(Value::as_str),
            Some("he said \"hi\"\n")
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} x",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_negative_and_exponent_numbers() {
        let v = parse("[-1.5e3, 0, 42]").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![
                Value::Number(-1500.0),
                Value::Number(0.0),
                Value::Number(42.0)
            ])
        );
    }
}

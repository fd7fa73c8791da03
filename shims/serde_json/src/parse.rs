//! Recursive-descent JSON parser into the [`Value`] tree.
//!
//! The recursion is bounded: an array or object nested deeper than
//! [`MAX_DEPTH`] is a typed error, so a small hostile document cannot
//! exhaust the parsing thread's stack.

use crate::value::{Value, ValueDe};
use crate::Error;
use serde::de::Error as DeError;

/// Parse a JSON document and deserialize `T` from it. `T` must be owned
/// (`for<'de> Deserialize<'de>`, i.e. serde's `DeserializeOwned`): the tree
/// lives only for the duration of this call.
pub fn from_str<T: for<'de> serde::Deserialize<'de>>(input: &str) -> Result<T, Error> {
    let value = parse_document(input)?;
    // The tree outlives the deserializer only within this call; decoding
    // clones out whatever it keeps, so the borrow never escapes.
    T::deserialize(ValueDe(&value))
}

/// How deep arrays and objects may nest in a parsed document (the limit
/// upstream `serde_json` applies too).
pub const MAX_DEPTH: usize = 128;

fn parse_document(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), Error> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::custom(format!("expected `{}` at byte {}", ch as char, pos)))
    }
}

/// Parse one value; `depth` is how many more levels of nesting may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    let opens = matches!(bytes.get(*pos), Some(b'[' | b'{'));
    if opens && depth == 0 {
        return Err(Error::custom(format!("nesting deeper than {MAX_DEPTH} at byte {pos}")));
    }
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, b"null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::custom(format!("bad array at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::custom(format!("bad object at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error::custom(format!("bad literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Bulk fast path: copy the maximal escape-free run in one
        // `push_str` instead of per-char pushes (`"` and `\` are ASCII, so
        // byte scanning can't split a UTF-8 sequence). This is the hot
        // loop of snapshot recovery — string content dominates the bytes
        // of a serialized sketch corpus.
        let run_start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            *pos += 1;
        }
        if *pos > run_start {
            let run = &bytes[run_start..*pos];
            // Input arrived as &str, and the run ends before an ASCII
            // delimiter, so it sits on UTF-8 boundaries.
            out.push_str(unsafe { std::str::from_utf8_unchecked(run) });
        }
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                        // Surrogate pairs: decode the low half if present.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            let rest = bytes.get(*pos + 5..*pos + 11);
                            let (lo, consumed) = match rest {
                                Some([b'\\', b'u', h @ ..]) if h.len() == 4 => {
                                    let h = std::str::from_utf8(h)
                                        .map_err(|_| Error::custom("bad surrogate"))?;
                                    let lo = u32::from_str_radix(h, 16)
                                        .map_err(|_| Error::custom("bad surrogate"))?;
                                    (lo, 6)
                                }
                                _ => return Err(Error::custom("lone high surrogate")),
                            };
                            *pos += consumed;
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| Error::custom("bad surrogate"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| Error::custom("bad codepoint"))?
                        };
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(Error::custom("bad escape")),
                }
                *pos += 1;
            }
            // Unreachable: the bulk scan above stops only at `"`, `\`, or
            // end of input.
            Some(_) => unreachable!("bulk scan consumes unescaped bytes"),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::custom("bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::custom(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Value::Int(v));
        }
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::UInt(v));
        }
    }
    text.parse::<f64>().map(Value::Float).map_err(|_| Error::custom(format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(parse_document(&nested(MAX_DEPTH)).is_ok());
        let err = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_document(&objects).is_err());
        // Far past the limit the parser still returns, on a spawned
        // thread's default stack.
        let deep = nested(100_000);
        assert!(std::thread::spawn(move || parse_document(&deep).is_err()).join().unwrap());
    }
}

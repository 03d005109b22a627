//! Minimal offline stand-in for `serde_json` over the vendored serde shim.
//!
//! Supports the functions used in this workspace: [`to_string`],
//! [`to_string_pretty`], [`to_vec`], [`to_vec_pretty`], [`write_pretty_at`],
//! [`from_str`] and [`from_slice`]. The `to_*` functions are thin wrappers
//! over [`serde::JsonWriter`], which every `Serialize` impl writes JSON text
//! into directly; parsing builds a [`Value`] tree that `Deserialize` impls
//! read. Output is valid JSON; integers round-trip exactly (including
//! `u64`), floats use Rust's shortest round-trippable formatting, and
//! non-finite floats serialize as `null` (deserializing back to `NaN`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::{Error, JsonWriter, Value};

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec(value).and_then(into_string)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec_pretty(value).and_then(into_string)
}

/// Serializes `value` as pretty-printed JSON bytes.
pub fn to_vec_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    write_pretty_at(&mut out, value, 0);
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    value.serialize(&mut JsonWriter::compact(&mut out));
    Ok(out)
}

/// Appends `value` to `out` as pretty-printed JSON indented as if nested
/// `depth` containers deep, so it can be spliced into an enclosing pretty
/// document as one of its elements (the first line is not indented).
pub fn write_pretty_at<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T, depth: usize) {
    value.serialize(&mut JsonWriter::pretty(out, depth));
}

fn into_string(bytes: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(bytes).map_err(|e| Error::custom(format!("serialized invalid UTF-8: {e}")))
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Parses a value of type `T` from JSON bytes.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::custom(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::custom("unexpected end of JSON input")),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::custom("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::custom(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.eat_literal("\\u") {
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(Error::custom(format!(
                                            "invalid low surrogate `\\u{lo:04x}` before byte {}",
                                            self.pos
                                        )));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    0xFFFD
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| Error::custom("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, "one".to_string()), (2, "two".to_string())];
        let json = to_string_pretty(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_round_trips() {
        fn round_trip<T: serde::Serialize + serde::Deserialize>(v: &T) -> T {
            from_str(&to_string(v).unwrap()).unwrap()
        }
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert_eq!(round_trip(&"hi".to_string()), "hi");
        assert_eq!(round_trip(&vec![1u32, 2, 3]), vec![1, 2, 3]);
        assert_eq!(round_trip(&None::<u32>), None);
        assert_eq!(round_trip(&'é'), 'é');
    }

    #[test]
    fn map_round_trip_with_non_string_keys() {
        let m =
            std::collections::BTreeMap::from([(3u32, "three".to_string()), (7, "seven".into())]);
        let json = to_string(&m).unwrap();
        assert_eq!(json, r#"[[3,"three"],[7,"seven"]]"#);
        assert_eq!(
            from_str::<std::collections::BTreeMap<u32, String>>(&json).unwrap(),
            m
        );
    }

    #[test]
    fn write_pretty_at_matches_a_reindented_rendering() {
        let v = vec![(1u32, vec!["a".to_string()]), (2, vec![])];
        let mut out = b"prefix ".to_vec();
        write_pretty_at(&mut out, &v, 2);
        let expected = to_string_pretty(&v).unwrap().replace('\n', "\n    ");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("prefix {expected}")
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_bad_low_halves_are_rejected() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(from_str::<String>(r#""\ud800x""#).unwrap(), "\u{FFFD}x");
        assert!(from_str::<String>(r#""\ud800\u0041""#).is_err());
        assert!(from_str::<String>(r#""\ud800\ud800""#).is_err());
        assert!(from_str::<String>(r#""\udbff\ue000""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}

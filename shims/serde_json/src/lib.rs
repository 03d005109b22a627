//! Minimal offline stand-in for `serde_json` over the vendored serde shim.
//!
//! Supports the functions used in this workspace: [`to_string`],
//! [`to_string_pretty`], [`to_vec`], [`to_vec_pretty`], [`from_str`] and
//! [`from_slice`]. The `to_*` functions are thin wrappers
//! over [`serde::JsonWriter`], which every `Serialize` impl writes JSON text
//! into directly; `from_str` and `from_slice` hand a [`serde::JsonReader`]
//! over the input to `T`'s `Deserialize` impl, which pulls its fields out
//! of it directly, so no [`Value`] tree is built on any decode of a typed
//! value. Output is valid JSON; integers round-trip exactly (including
//! `u64`), floats use Rust's shortest round-trippable formatting, and
//! non-finite floats serialize as `null` (deserializing back to `NaN`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::{Error, JsonReader, JsonWriter, Value};

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
    value.serialize(&mut JsonWriter::pretty(&mut out));
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    value.serialize(&mut JsonWriter::compact(&mut out));
    Ok(out)
}

fn into_string(bytes: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(bytes).map_err(|e| Error::custom(format!("serialized invalid UTF-8: {e}")))
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

/// Parses a value of type `T` from JSON bytes. UTF-8 is checked inside
/// strings only: anywhere else a non-ASCII byte is a syntax error anyway.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut reader = JsonReader::new(bytes);
    let value = T::deserialize(&mut reader)?;
    reader.finish()?;
    Ok(value)
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
    fn surrogate_pairs_decode_and_bad_low_halves_are_rejected() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(from_str::<String>(r#""\ud800x""#).unwrap(), "\u{FFFD}x");
        assert!(from_str::<String>(r#""\ud800\u0041""#).is_err());
        assert!(from_str::<String>(r#""\ud800\ud800""#).is_err());
        assert!(from_str::<String>(r#""\udbff\ue000""#).is_err());
    }

    #[test]
    fn fractional_or_out_of_range_numbers_are_not_integers() {
        assert!(from_str::<u32>("-1.0").is_err());
        assert!(from_str::<u32>("1e30").is_err());
        assert!(from_str::<u64>("1234567890123456789012345678901234567890123").is_err());
        assert!(from_str::<u32>("0.5").is_err());
        assert_eq!(from_str::<u32>("1e3").unwrap(), 1000);
        for bad in ["01", "1.", "-"] {
            assert!(from_str::<u32>(bad).is_err(), "{bad:?} must be rejected");
            assert!(from_str::<f64>(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_control_characters_are_escaped() {
        assert!(from_str::<String>(r#""\u+041""#).is_err());
        assert_eq!(from_str::<String>(r#""\u0041""#).unwrap(), "A");
        assert!(from_str::<String>("\"a\u{1}b\"").is_err());
        assert!(from_str::<String>("\"a\u{1f}\"").is_err());
        assert_eq!(from_str::<String>(r#""a\u001fb""#).unwrap(), "a\u{1f}b");
    }

    #[test]
    fn from_slice_checks_utf8_inside_strings() {
        assert_eq!(from_slice::<String>("\"é\"".as_bytes()).unwrap(), "é");
        assert!(from_slice::<String>(b"\"\xc3\"").is_err());
        assert!(from_slice::<Vec<u32>>(b"[1,\xff]").is_err());
        assert_eq!(from_slice::<Vec<u32>>(b" [1, 2]\n").unwrap(), vec![1, 2]);
    }

    #[test]
    fn input_cut_inside_a_value_is_an_unexpected_end() {
        let cut = |text: &str| from_str::<Value>(text).unwrap_err().to_string();
        for text in [
            "[1, 2",
            "[12",
            "[1.",
            "[1e",
            "[-",
            "[tr",
            "{\"a\": nul",
            "\"ab",
            "\"a\\",
            "\"\\u00",
        ] {
            let end = format!("unexpected end of JSON input at byte {}", text.len());
            assert!(cut(text).ends_with(&end), "{text:?}: {}", cut(text));
        }
        assert_eq!(from_str::<u32>("12").unwrap(), 12);
        assert!(cut("[1.x]").contains("invalid number"));
        assert!(cut("[nux]").contains("invalid literal"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}

//! Minimal, dependency-free stand-in for `serde` (plus its derive macros).
//!
//! The build environment of this workspace has no access to crates.io, so
//! this shim provides the slice of serde that the pipeline uses: the
//! [`Serialize`] / [`Deserialize`] traits, `#[derive(Serialize, Deserialize)]`
//! (re-exported from the companion `serde_derive` proc-macro crate, with
//! support for the `#[serde(skip)]` and `#[serde(default)]` attributes), and
//! impls for the std types that appear in the data model.
//!
//! Unlike upstream serde there is no `Serializer`/`Deserializer` abstraction
//! and the only format is JSON. Serialization writes JSON text directly:
//! every [`Serialize`] impl appends itself to a [`JsonWriter`], a byte buffer
//! plus the compact or pretty indent state, so no intermediate tree is
//! built. Deserialization goes through a JSON-like [`Value`] tree that the
//! companion `serde_json` shim parses. Round-trips through `serde_json` are
//! lossless for every type in this workspace (integers are parsed as
//! `i128`, so `u64` seeds survive exactly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

/// A JSON-like value tree: what the `serde_json` shim parses JSON into and
/// [`Deserialize`] impls read.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (wide enough to hold `u64` and `i64` exactly).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Error produced by deserialization (and re-used by the `serde_json` shim).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A JSON text writer: the target of every [`Serialize`] impl.
///
/// Appends to a byte buffer, either compact or pretty-printed with
/// `serde_json`'s layout (two-space indent, `"key": value`, empty
/// containers as `[]`/`{}`). A pretty writer may start at any nesting depth,
/// so a value can be rendered directly as an element of an enclosing
/// document. Containers are written with `begin_*` / [`element`] or
/// [`field`] / `end_*`.
///
/// [`element`]: JsonWriter::element
/// [`field`]: JsonWriter::field
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container already holds a value.
    has_value: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending compact JSON (no whitespace) to `out`.
    pub fn compact(out: &'a mut Vec<u8>) -> Self {
        JsonWriter {
            out,
            pretty: false,
            depth: 0,
            has_value: false,
        }
    }

    /// A writer appending pretty JSON to `out`, indented as if the value
    /// were nested `depth` containers deep (its first line is not indented).
    pub fn pretty(out: &'a mut Vec<u8>, depth: usize) -> Self {
        JsonWriter {
            out,
            pretty: true,
            depth,
            has_value: false,
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[start..]);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Writes an integer of [`Value::Int`]'s width.
    fn i128(&mut self, v: i128) {
        match i64::try_from(v) {
            Ok(v) => self.i64(v),
            Err(_) => self.display(v),
        }
    }

    /// Writes a float in Rust's shortest round-trippable form, always with a
    /// fractional part so it re-parses as a float; non-finite floats become
    /// `null`.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        let start = self.out.len();
        self.display(v);
        if !self.out[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.extend_from_slice(b".0");
        }
    }

    fn display(&mut self, v: impl std::fmt::Display) {
        use std::io::Write;
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
    }

    /// Writes a string literal, escaping quotes, backslashes and control
    /// characters.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let mut unicode = *b"\\u0000";
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x00..=0x1f => {
                    unicode[4] = HEX[usize::from(b >> 4)];
                    unicode[5] = HEX[usize::from(b & 0xf)];
                    &unicode
                }
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            self.out.extend_from_slice(escape);
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self);
        self.has_value = true;
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Writes every item of `items` as one array.
    pub fn seq<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        self.begin_array();
        for item in items {
            self.element(&item);
        }
        self.end_array();
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Writes one object field.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.field_with(key, |w| value.serialize(w));
    }

    /// Writes one object field whose value `write` emits.
    pub fn field_with(&mut self, key: &str, write: impl FnOnce(&mut Self)) {
        self.separate();
        self.str(key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
        write(self);
        self.has_value = true;
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.has_value = false;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if self.has_value {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// The comma and line break before the next element or field.
    fn separate(&mut self) {
        match (self.pretty, self.has_value) {
            (true, has_value) => self.line_break(usize::from(!has_value)),
            (false, true) => self.out.push(b','),
            (false, false) => {}
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.line_break(1);
        }
    }

    /// Writes `BREAK[start..]` cut to the current indent: `start` 0 keeps
    /// the leading comma, 1 drops it.
    fn line_break(&mut self, start: usize) {
        let end = 2 + 2 * self.depth;
        if end <= BREAK.len() {
            self.out.extend_from_slice(&BREAK[start..end]);
        } else {
            self.out.extend_from_slice(&BREAK[start..2]);
            let indented = self.out.len() + 2 * self.depth;
            self.out.resize(indented, b' ');
        }
    }
}

/// A comma, a line break and the indent of the deepest nesting one copy
/// covers (31 levels).
const BREAK: &[u8; 64] = b",\n                                                              ";

/// Types that can be written as JSON.
pub trait Serialize {
    /// Appends `self` to `out`.
    fn serialize(&self, out: &mut JsonWriter<'_>);
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        (**self).serialize(out);
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.i128(*i),
            Value::Float(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => out.seq(items),
            Value::Object(fields) => {
                out.begin_object();
                for (key, value) in fields {
                    out.field(key, value);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

macro_rules! impl_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter<'_>) {
                out.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    _ => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_int!(u64 as u64: u8, u16, u32, u64, usize);
impl_int!(i64 as i64: i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter<'_>) {
                out.f64((*self).into());
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    // Non-finite floats serialize as JSON null.
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(Error::custom("expected number")),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        match self {
            None => out.null(),
            Some(x) => x.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        <[T; N]>::try_from(items).map_err(|_| Error::custom("wrong array length"))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize + Eq + Hash, S: BuildHasher> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

// Maps serialize as arrays of `[key, value]` pairs: keys in this workspace
// are not always strings, and the representation only needs to round-trip
// through the companion `serde_json` shim.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        map_pairs(v)?.collect()
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        map_pairs(v)?.collect()
    }
}

/// Iterates the `[key, value]` pairs of a serialized map.
fn map_pairs<'a, K: Deserialize, V: Deserialize>(
    v: &'a Value,
) -> Result<impl Iterator<Item = Result<(K, V), Error>> + 'a, Error> {
    let items = v
        .as_array()
        .ok_or_else(|| Error::custom("expected array of pairs"))?;
    Ok(items.iter().map(|pair| {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| Error::custom("expected [key, value] pair"))?;
        Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
    }))
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut JsonWriter<'_>) {
                out.begin_array();
                $(out.element(&self.$idx);)+
                out.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom("wrong tuple length"));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for () {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.null();
    }
}

impl Deserialize for () {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_writer_starts_at_the_given_depth() {
        let mut out = Vec::new();
        vec![vec![1u32], vec![]].serialize(&mut JsonWriter::pretty(&mut out, 1));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "[\n    [\n      1\n    ],\n    []\n  ]"
        );
    }

    #[test]
    fn primitives_deserialize_from_value_trees() {
        let int = |i: i128| Value::Int(i);
        assert_eq!(u64::from_value(&int(u64::MAX.into())).unwrap(), u64::MAX);
        assert!(u32::from_value(&int(-1)).is_err());
        assert_eq!(i64::from_value(&int(-7)).unwrap(), -7);
        assert_eq!(String::from_value(&Value::Str("hi".into())).unwrap(), "hi");
        assert_eq!(
            Vec::<u32>::from_value(&Value::Array(vec![int(1), int(2)])).unwrap(),
            vec![1, 2]
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn maps_deserialize_from_key_value_pairs() {
        let pair = |k: i128, v: &str| Value::Array(vec![Value::Int(k), Value::Str(v.into())]);
        let tree = Value::Array(vec![pair(3, "three"), pair(7, "seven")]);
        let back = BTreeMap::<u32, String>::from_value(&tree).unwrap();
        assert_eq!(
            back,
            BTreeMap::from([(3, "three".into()), (7, "seven".into())])
        );
        assert!(BTreeMap::<u32, String>::from_value(&Value::Array(vec![Value::Int(1)])).is_err());
    }
}

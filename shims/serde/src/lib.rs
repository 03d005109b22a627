//! Minimal, dependency-free stand-in for `serde` (plus its derive macros).
//!
//! The build environment of this workspace has no access to crates.io, so
//! this shim provides the slice of serde that the pipeline uses: the
//! [`Serialize`] / [`Deserialize`] traits, `#[derive(Serialize, Deserialize)]`
//! (re-exported from the companion `serde_derive` proc-macro crate, with
//! support for the `#[serde(skip)]`, `#[serde(default)]` and
//! `#[serde(deserialize_with = "path")]` attributes), and impls for the std
//! types that appear in the data model.
//!
//! Unlike upstream serde there is no `Serializer`/`Deserializer` abstraction
//! and the only format is JSON, in both directions without an intermediate
//! tree. Every [`Serialize`] impl appends itself to a [`JsonWriter`], a byte
//! buffer plus the compact or pretty indent state. Every [`Deserialize`] impl
//! pulls itself out of a [`JsonReader`], a cursor over the input bytes, so
//! no [`Value`] tree is built on any decode of a typed value; `Value` is only
//! the dynamic tree for callers that want one. Integers decode straight into
//! their type with checked overflow, so `u64` seeds round-trip exactly, and
//! a fractional or out-of-range number read into an integer is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Display;
use std::hash::{BuildHasher, Hash};

/// A dynamic JSON value tree, for callers that want one (ad-hoc response
/// bodies, tests). Typed values never pass through it.
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
/// containers as `[]`/`{}`). Containers are written with `begin_*` /
/// [`element`] or [`field`] / `end_*`.
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

    /// A writer appending pretty JSON to `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        JsonWriter {
            out,
            pretty: true,
            depth: 0,
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

/// A JSON pull parser over bytes: the source of every [`Deserialize`] impl.
///
/// Mirrors [`JsonWriter`]: containers are read with [`begin_object`] and
/// [`next_key`] until it yields `None`, or with [`begin_array`] and
/// [`next_element`] until it yields `false`; scalars with [`u64`],
/// [`i64`], [`f64`], [`bool`], [`string`] and [`null`]; a value nobody
/// wants with [`skip_value`]. The input follows RFC 8259 exactly: a syntax
/// error anywhere, also inside a skipped value, is an error, and every error
/// names the byte offset where it was found. UTF-8 is only checked inside
/// strings; anywhere else a non-ASCII byte is a syntax error anyway.
///
/// [`begin_object`]: JsonReader::begin_object
/// [`next_key`]: JsonReader::next_key
/// [`begin_array`]: JsonReader::begin_array
/// [`next_element`]: JsonReader::next_element
/// [`u64`]: JsonReader::u64
/// [`i64`]: JsonReader::i64
/// [`f64`]: JsonReader::f64
/// [`bool`]: JsonReader::bool
/// [`string`]: JsonReader::string
/// [`null`]: JsonReader::null
/// [`skip_value`]: JsonReader::skip_value
#[derive(Debug)]
pub struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether the innermost container was just opened, so its first
    /// element or field comes without a comma.
    first: bool,
    /// The number of containers opened and not yet closed.
    depth: usize,
}

/// The syntax of one JSON number: `-? int (. frac)? ([eE] [+-]? exp)?`.
struct Number<'a> {
    start: usize,
    negative: bool,
    int: &'a [u8],
    frac: &'a [u8],
    /// The exponent, saturated to `i64`; 0 when absent.
    exp: i64,
    /// Whether a fraction or an exponent was written.
    decimal: bool,
}

impl Number<'_> {
    /// The magnitude when the number is an integer that fits `u64`,
    /// computed exactly from the digits (`1e3` and `2.50e1` are integers,
    /// `1.5` is not).
    fn magnitude(&self) -> Option<u64> {
        let digits = || {
            self.int
                .iter()
                .chain(self.frac)
                .map(|d| u64::from(d - b'0'))
        };
        let zeros = digits().rev().take_while(|&d| d == 0).count();
        let kept = self.int.len() + self.frac.len() - zeros;
        if kept == 0 {
            return Some(0);
        }
        let frac_len = i64::try_from(self.frac.len()).unwrap_or(i64::MAX);
        let zeros = i64::try_from(zeros).unwrap_or(i64::MAX);
        let scale = self.exp.saturating_sub(frac_len).saturating_add(zeros);
        if scale < 0 {
            return None;
        }
        let mut value = digits()
            .take(kept)
            .try_fold(0u64, |v, d| v.checked_mul(10)?.checked_add(d))?;
        for _ in 0..scale {
            value = value.checked_mul(10)?;
        }
        Some(value)
    }
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        JsonReader {
            bytes,
            pos: 0,
            first: false,
            depth: 0,
        }
    }

    /// Checks that nothing but whitespace follows the values read so far.
    pub fn finish(mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after JSON value")),
        }
    }

    /// An error at the current byte offset.
    pub fn error(&self, msg: impl Display) -> Error {
        self.error_at(self.pos, msg)
    }

    fn error_at(&self, offset: usize, msg: impl Display) -> Error {
        Error::custom(format!("{msg} at byte {offset}"))
    }

    /// "expected `what`", or "unexpected end" at the end of the input.
    fn expected(&self, what: &str) -> Error {
        if self.pos == self.bytes.len() {
            self.unexpected_end()
        } else {
            self.error(format_args!("expected {what}"))
        }
    }

    /// The error of input that ends inside a value: a truncated file fails
    /// with this one message wherever the cut falls.
    fn unexpected_end(&self) -> Error {
        self.error_at(self.bytes.len(), "unexpected end of JSON input")
    }

    /// Skips whitespace and returns the next byte, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consumes `b` if it is the next byte (no whitespace skipped).
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "an object")
    }

    /// The next key of the innermost object, with its `:` consumed, or
    /// `None` (with the `}` consumed) once the object ends. A key without
    /// escapes is borrowed from the input; the caller reads its value next.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.expected("a string key"));
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(self.expected("`:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "an array")
    }

    /// Whether the innermost array holds another element, which the caller
    /// reads next; `false` (with the `]` consumed) once the array ends.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']')
    }

    /// Reads the next element of a fixed-length array (a tuple, or the tuple
    /// type `what`).
    pub fn element<T: Deserialize>(&mut self, what: &str) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(self.error(format_args!("too few elements for `{what}`")));
        }
        T::deserialize(self)
    }

    /// Closes a fixed-length array read with [`element`](Self::element),
    /// which must hold no further element.
    pub fn end_array(&mut self, what: &str) -> Result<(), Error> {
        if self.next_element()? {
            return Err(self.error(format_args!("too many elements for `{what}`")));
        }
        Ok(())
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.expected(what));
        }
        self.pos += 1;
        self.first = true;
        self.depth += 1;
        Ok(())
    }

    /// Consumes the separator before the next item of the innermost
    /// container and returns `true`, or consumes its `close` bracket and
    /// returns `false`.
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.expected(&format!("`,` or `{}`", char::from(close)))),
        }
    }

    /// Consumes a `null` if one comes next; returns whether it did.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal(b"null")?;
        Ok(true)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal(b"true").map(|()| true),
            Some(b'f') => self.literal(b"false").map(|()| false),
            _ => Err(self.expected("a boolean")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), Error> {
        let rest = &self.bytes[self.pos..];
        if lit.starts_with(rest) && rest.len() < lit.len() {
            return Err(self.unexpected_end());
        }
        if !rest.starts_with(lit) {
            return Err(self.error("invalid literal"));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// Reads an integer into `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.unsigned("u64")
    }

    /// Reads an integer into `i64`.
    pub fn i64(&mut self) -> Result<i64, Error> {
        self.signed("i64")
    }

    /// Reads a number as `f64`.
    pub fn f64(&mut self) -> Result<f64, Error> {
        let number = self.number("a number")?;
        self.text(number.start)
            .parse()
            .map_err(|_| self.error_at(number.start, "invalid number"))
    }

    /// Reads an integer into the unsigned type `ty`.
    fn unsigned<T: TryFrom<u64>>(&mut self, ty: &str) -> Result<T, Error> {
        let number = self.number("an integer")?;
        number
            .magnitude()
            .filter(|&m| !number.negative || m == 0)
            .and_then(|m| T::try_from(m).ok())
            .ok_or_else(|| self.not_an_integer(&number, ty))
    }

    /// Reads an integer into the signed type `ty`.
    fn signed<T: TryFrom<i64>>(&mut self, ty: &str) -> Result<T, Error> {
        let number = self.number("an integer")?;
        number
            .magnitude()
            .and_then(|m| match number.negative {
                true => 0i64.checked_sub_unsigned(m),
                false => i64::try_from(m).ok(),
            })
            .and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| self.not_an_integer(&number, ty))
    }

    fn not_an_integer(&self, number: &Number<'_>, ty: &str) -> Error {
        let text = self.text(number.start);
        self.error_at(
            number.start,
            format_args!("`{text}` is not an integer in the range of `{ty}`"),
        )
    }

    /// The ASCII text from `start` to the current offset.
    fn text(&self, start: usize) -> &'a str {
        let bytes: &'a [u8] = self.bytes;
        std::str::from_utf8(&bytes[start..self.pos]).unwrap_or_default()
    }

    /// Scans one number per RFC 8259 (so `01`, `1.`, `.5` and a lone `-`
    /// are rejected); `what` names the expected value in the error when no
    /// number comes next.
    fn number(&mut self, what: &str) -> Result<Number<'a>, Error> {
        let bytes: &'a [u8] = self.bytes;
        let start = match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.pos,
            _ => return Err(self.expected(what)),
        };
        let negative = self.eat(b'-');
        let int_start = self.pos;
        match bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            None => return Err(self.unexpected_end()),
            _ => return Err(self.error_at(start, "invalid number")),
        }
        let int = &bytes[int_start..self.pos];
        let mut frac: &[u8] = &[];
        let mut decimal = false;
        if self.eat(b'.') {
            frac = self.required_digits(start)?;
            decimal = true;
        }
        let mut exp = 0i64;
        if self.eat(b'e') || self.eat(b'E') {
            let negative_exp = self.eat(b'-');
            if !negative_exp {
                self.eat(b'+');
            }
            exp = self.required_digits(start)?.iter().fold(0i64, |e, &d| {
                e.saturating_mul(10).saturating_add(i64::from(d - b'0'))
            });
            if negative_exp {
                exp = -exp;
            }
            decimal = true;
        }
        // Inside a container a number is always followed by more input, so
        // one that runs to the end may itself be cut short.
        if self.depth > 0 && self.pos == bytes.len() {
            return Err(self.unexpected_end());
        }
        Ok(Number {
            start,
            negative,
            int,
            frac,
            exp,
            decimal,
        })
    }

    fn digits(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
    }

    /// One or more digits, or an invalid-number error at `start` (unexpected
    /// end when the input ends first).
    fn required_digits(&mut self, start: usize) -> Result<&'a [u8], Error> {
        let bytes: &'a [u8] = self.bytes;
        let from = self.pos;
        self.digits();
        if self.pos == from {
            return Err(match from == bytes.len() {
                true => self.unexpected_end(),
                false => self.error_at(start, "invalid number"),
            });
        }
        Ok(&bytes[from..self.pos])
    }

    /// Reads a string, unescaped. A string without escapes is borrowed from
    /// the input.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("a string"));
        }
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let run = self.plain_run()?;
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.unexpected_end()),
            }
        }
    }

    /// The run of string bytes up to the next quote, backslash or control
    /// character, checked to be UTF-8.
    fn plain_run(&mut self) -> Result<&'a str, Error> {
        let bytes: &'a [u8] = self.bytes;
        let start = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|e| self.error_at(start + e.valid_up_to(), "invalid UTF-8 in string"))
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let Some(&esc) = self.bytes.get(at) else {
            return Err(self.unexpected_end());
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate pairs with a following `\uDC00`..`\uDFFF`;
                    // alone it becomes U+FFFD.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.error_at(
                                self.pos - 6,
                                format_args!("invalid low surrogate `\\u{lo:04x}`"),
                            ));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        0xFFFD
                    }
                } else {
                    hi
                };
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => {
                return Err(self.error_at(
                    at - 1,
                    format_args!("invalid escape `\\{}`", char::from(other)),
                ))
            }
        })
    }

    /// Exactly four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.unexpected_end())?;
        let code = digits.iter().try_fold(0, |code, &d| {
            char::from(d)
                .to_digit(16)
                .map(|v| code * 16 + v)
                .ok_or_else(|| self.error("invalid `\\u` escape"))
        })?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads and discards one value of any kind, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b't' | b'f') => {
                self.bool()?;
            }
            Some(b'n') => self.literal(b"null")?,
            _ => {
                self.number("a value")?;
            }
        }
        Ok(())
    }

    /// Reads one value of any kind into a [`Value`] tree.
    fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Value::Object(fields)
            }
            Some(b'[') => Value::Array(seq(self)?),
            Some(b'"') => Value::Str(self.string()?.into_owned()),
            Some(b't' | b'f') => Value::Bool(self.bool()?),
            Some(b'n') => {
                self.literal(b"null")?;
                Value::Null
            }
            _ => {
                let number = self.number("a value")?;
                let text = self.text(number.start);
                let int = (!number.decimal).then(|| text.parse().ok()).flatten();
                match int {
                    Some(i) => Value::Int(i),
                    None => Value::Float(
                        text.parse()
                            .map_err(|_| self.error_at(number.start, "invalid number"))?,
                    ),
                }
            }
        })
    }
}

/// Types that can be written as JSON.
pub trait Serialize {
    /// Appends `self` to `out`.
    fn serialize(&self, out: &mut JsonWriter<'_>);
}

/// Types that can be read from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` from `r`.
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error>;
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.value()
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

macro_rules! impl_int {
    ($write:ident as $wide:ty, $read:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter<'_>) {
                out.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                r.$read(stringify!($t))
            }
        }
    )*};
}

impl_int!(u64 as u64, unsigned: u8, u16, u32, u64, usize);
impl_int!(i64 as i64, signed: i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut JsonWriter<'_>) {
                out.f64((*self).into());
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                // Non-finite floats serialize as JSON null.
                if r.null()? {
                    return Ok(<$t>::NAN);
                }
                r.f64().map(|f| f as $t)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.string().map(Cow::into_owned)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(r.error("expected a single-character string")),
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        if r.null()? {
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

/// Reads an array into any collection of its elements.
fn seq<T: Deserialize, C: Default + Extend<T>>(r: &mut JsonReader<'_>) -> Result<C, Error> {
    let mut out = C::default();
    r.begin_array()?;
    while r.next_element()? {
        out.extend(Some(T::deserialize(r)?));
    }
    Ok(out)
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq(r)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(r)?;
        <[T; N]>::try_from(items).map_err(|_| r.error("wrong array length"))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq(r)
    }
}

impl<T: Serialize + Eq + Hash, S: BuildHasher> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq(r)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, out: &mut JsonWriter<'_>) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq(r)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq::<(K, V), _>(r)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        seq::<(K, V), _>(r)
    }
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
            fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                r.begin_array()?;
                let tuple = ($(r.element::<$name>("tuple")?,)+);
                r.end_array("tuple")?;
                Ok(tuple)
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
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.skip_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode<T: Deserialize>(json: &str) -> Result<T, Error> {
        let mut r = JsonReader::new(json.as_bytes());
        let value = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn pretty_writer_indents_nested_containers_by_two_spaces() {
        let mut out = Vec::new();
        vec![vec![1u32], vec![]].serialize(&mut JsonWriter::pretty(&mut out));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "[\n  [\n    1\n  ],\n  []\n]"
        );
    }

    #[test]
    fn primitives_decode_straight_from_the_reader() {
        assert_eq!(decode::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(decode::<u32>("-1").is_err());
        assert_eq!(decode::<i64>("-7").unwrap(), -7);
        assert_eq!(decode::<String>(r#""hi""#).unwrap(), "hi");
        assert_eq!(decode::<Vec<u32>>("[1, 2]").unwrap(), vec![1, 2]);
        assert_eq!(decode::<Option<u32>>("null").unwrap(), None);
        assert!(decode::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn maps_deserialize_from_key_value_pairs() {
        let back = decode::<BTreeMap<u32, String>>(r#"[[3,"three"],[7,"seven"]]"#).unwrap();
        assert_eq!(
            back,
            BTreeMap::from([(3, "three".into()), (7, "seven".into())])
        );
        assert!(decode::<BTreeMap<u32, String>>("[[1]]").is_err());
    }

    #[test]
    fn reader_walks_containers_and_skips_unwanted_values() {
        let json = br#" { "a" : [1, {"x": [true, null, "s\n", -2.5e-3]}], "b\u0041": 9 } "#;
        let mut r = JsonReader::new(json);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.skip_value().unwrap();
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(_)), "an escaped key is unescaped");
        assert_eq!(key, "bA");
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn integers_must_be_integral_and_in_range() {
        assert!(decode::<u64>("18446744073709551616").is_err());
        assert!(decode::<u8>("256").is_err());
        assert!(decode::<i8>("-129").is_err());
        assert!(decode::<u32>("1.5").is_err());
        assert!(decode::<u32>("15e-1").is_err());
        assert_eq!(decode::<u32>("2.50e1").unwrap(), 25);
        assert_eq!(decode::<u32>("1000e-3").unwrap(), 1);
        assert_eq!(decode::<u32>("0e-7").unwrap(), 0);
        assert_eq!(decode::<u32>("-0").unwrap(), 0);
        assert_eq!(decode::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert!(decode::<i64>("9223372036854775808").is_err());
        assert_eq!(decode::<i8>("-1.28E+2").unwrap(), -128);
        let err = decode::<u32>("[0]").map(drop).unwrap_err();
        assert!(err.to_string().contains("at byte 0"), "{err}");
        let err = decode::<Vec<u32>>("[1, 2.5]").unwrap_err();
        assert!(
            err.to_string()
                .contains("`2.5` is not an integer in the range of `u32` at byte 4"),
            "{err}"
        );
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "1.", "-", ".5", "+1", "1e", "1e+", "-a", "0x1", "1.e3",
        ] {
            assert!(decode::<f64>(bad).is_err(), "{bad:?} must be rejected");
            assert!(decode::<Value>(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(decode::<f64>("-0.5E-2").unwrap(), -0.005);
        assert_eq!(decode::<f64>("7").unwrap(), 7.0);
        assert_eq!(
            decode::<Value>("[12, -1.5, 1e2, 340282366920938463463374607431768211456]").unwrap(),
            Value::Array(vec![
                Value::Int(12),
                Value::Float(-1.5),
                Value::Float(100.0),
                Value::Float(340282366920938463463374607431768211456.0),
            ])
        );
    }

    #[test]
    fn strings_reject_bad_escapes_and_raw_control_characters() {
        assert!(decode::<String>(r#""\u-041""#).is_err());
        assert!(decode::<String>(r#""\u04G1""#).is_err());
        assert!(decode::<String>(r#""\u041""#).is_err());
        assert!(decode::<String>(r#""\x""#).is_err());
        assert!(decode::<String>("\"a\u{0}b\"").is_err());
        assert!(decode::<String>("\"tab\there\"").is_err());
        assert!(decode::<String>("\"line\nbreak\"").is_err());
        assert_eq!(decode::<String>(r#""Aé""#).unwrap(), "Aé");
        assert_eq!(decode::<String>("\"\u{7f}\"").unwrap(), "\u{7f}");
    }

    #[test]
    fn invalid_utf8_inside_a_string_names_its_offset() {
        let err = String::deserialize(&mut JsonReader::new(b"\"ab\xffc\"")).unwrap_err();
        assert!(
            err.to_string()
                .contains("invalid UTF-8 in string at byte 3"),
            "{err}"
        );
        let err = decode::<u32>("\u{e9}").unwrap_err();
        assert!(err.to_string().contains("at byte 0"), "{err}");
    }

    #[test]
    fn container_syntax_is_checked_even_when_skipped() {
        for bad in [
            "[1,]",
            "[,1]",
            "[1 2]",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "{\"a\" 1}",
            "{1:2}",
            "{\"a\":}",
            "[1]]",
            "[",
            "{",
            "[1,",
            "nul",
            "tru",
            "[nullx]",
        ] {
            assert!(decode::<Value>(bad).is_err(), "{bad:?} must be rejected");
            let mut r = JsonReader::new(bad.as_bytes());
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert!(skipped.is_err(), "{bad:?} must be rejected when skipped");
        }
        assert_eq!(decode::<Value>(" [ ] ").unwrap(), Value::Array(vec![]));
        assert_eq!(decode::<Value>("{ }").unwrap(), Value::Object(vec![]));
    }
}

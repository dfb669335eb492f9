//! Offline stand-in for [`serde`](https://docs.rs/serde/1.0).
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! small JSON-only serialization framework with the same *spelling* as
//! serde — `use serde::{Serialize, Deserialize}` and
//! `#[derive(Serialize, Deserialize)]` work unchanged — but a much simpler
//! contract: there is one format, so [`Serialize`] writes JSON text straight
//! into a [`Writer`] and [`Deserialize`] reads a typed value straight off a
//! [`Reader`], with no intermediate tree and no visitor layer.
//! `serde_json::{to_string, from_str}` wrap the two.
//!
//! Differences from upstream that matter to callers:
//! - maps serialize as arrays of `[key, value]` pairs (works for any key
//!   type; this workspace never hand-inspects that JSON);
//! - non-finite floats serialize as `null`, which `f64` reads back as NaN;
//! - enums are externally tagged exactly like upstream;
//! - [`Value`] is a document type only: it deserializes from any JSON, for
//!   callers that inspect documents of unknown shape.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Document model
// ---------------------------------------------------------------------------

/// A parsed JSON document of any shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Num(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// A JSON number, keeping the integer/float distinction of its text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
}

impl Value {
    /// Borrow as object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Borrow as array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Short tag naming the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

// ---------------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------------

/// A decode failure: what went wrong, prefixed with the field path it
/// unwound through, and the input byte offset where decoding stopped.
/// Boxed, so that every `Result` on the decode path fits in registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(Box<(String, usize)>);

impl Error {
    /// Byte offset of the input where decoding stopped.
    pub fn offset(&self) -> usize {
        self.0 .1
    }

    /// Prefix the message with the struct field the error unwound through.
    pub fn within(mut self, ty: &str, field: &str) -> Self {
        self.0 .0.insert_str(0, &format!("{ty}.{field}: "));
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.0 .0, self.0 .1)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Append this value's JSON text to `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Read one value of this type off `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The JSON text buffer [`Serialize`] writes into.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Append JSON punctuation or pre-rendered keys verbatim.
    #[inline]
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Write a JSON string: `"`, `\`, `\n`, `\r` and `\t` escaped by name,
    /// other control characters as `\u00xx`, everything else verbatim.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        let escaped = |&(_, b): &(usize, u8)| matches!(b, b'"' | b'\\' | 0..=0x1f);
        for (i, b) in s.bytes().enumerate().filter(escaped) {
            self.out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail"),
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Write `items` as a JSON array.
    pub fn seq<T: Serialize>(&mut self, items: impl IntoIterator<Item = T>) {
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item.serialize(self);
        }
        self.out.push(']');
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// JSON's two-character escapes: the byte after the `\` and its character.
#[rustfmt::skip]
const ESCAPES: [(u8, char); 8] = [
    (b'"', '"'), (b'\\', '\\'), (b'/', '/'), (b'n', '\n'),
    (b'r', '\r'), (b't', '\t'), (b'b', '\u{8}'), (b'f', '\u{c}'),
];

/// Deepest array/object nesting a [`Reader`] accepts (upstream serde_json's
/// recursion limit): deeper input is a decode error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text that [`Deserialize`] reads typed values from.
#[derive(Debug)]
pub struct Reader<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
}

impl<'de> Reader<'de> {
    /// A reader at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Self { text, pos: 0, depth: 0 }
    }

    /// Fail unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        self.peek().map_or(Ok(()), |_| Err(self.error("trailing characters")))
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error(Box::new((msg.into(), self.pos)))
    }

    /// "expected `what`, found ..." naming the kind of the next value.
    pub fn expected(&mut self, what: &str) -> Error {
        let found = match self.peek() {
            None => "end of input",
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "an unexpected character",
        };
        self.error(format!("expected {what}, found {found}"))
    }

    /// The value of a required struct field, or a missing-field error.
    pub fn required<T>(&self, slot: Option<T>, ty: &str, field: &str) -> Result<T, Error> {
        slot.ok_or_else(|| self.error(format!("{ty}: missing field {field:?}")))
    }

    /// Skip whitespace and return the next byte, if any.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `lit` (`null`, say) if it is the next token.
    pub fn literal(&mut self, lit: &str) -> bool {
        self.peek();
        let hit = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        self.pos += if hit { lit.len() } else { 0 };
        hit
    }

    /// Skip one value of any shape (an unknown field).
    pub fn skip(&mut self) -> Result<(), Error> {
        Value::deserialize(self).map(drop)
    }

    /// Read a number: an integer when it has no fraction or exponent and
    /// fits 64 bits (a non-negative one accumulated digit by digit),
    /// otherwise a float.
    fn number(&mut self, what: &str) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected(what));
        }
        let (start, bytes) = (self.pos, self.text.as_bytes());
        let neg = bytes[start] == b'-';
        self.pos += usize::from(neg);
        let (digits, mut mag) = (self.pos, 0u64);
        while let Some(&b) = bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            mag = mag.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let is_float = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
        let integral = self.pos > digits && !bytes.get(self.pos).is_some_and(is_float);
        if integral && !neg && self.pos - digits < 20 {
            // Up to 19 digits cannot wrap a u64.
            return Ok(i64::try_from(mag).map_or(Number::U64(mag), Number::I64));
        }
        while bytes.get(self.pos).is_some_and(is_float) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match (integral, text.parse(), text.parse()) {
            (true, Ok(i), _) => Ok(Number::I64(i)),
            (true, _, Ok(u)) => Ok(Number::U64(u)),
            _ => text.parse().map(Number::F64).map_err(|_| self.error("invalid number")),
        }
    }

    /// Read a string, borrowed from the input unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'de, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let (bytes, mut out) = (self.text.as_bytes(), String::new());
        loop {
            let start = self.pos;
            while bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            let (run, end) = (&self.text[start..self.pos], bytes.get(self.pos).copied());
            if end.is_none() {
                return Err(self.error("unterminated string"));
            }
            self.pos += 1;
            if end == Some(b'"') && out.is_empty() {
                return Ok(Cow::Borrowed(run)); // no escapes: borrow from the input
            }
            out.push_str(run);
            if end == Some(b'"') {
                return Ok(Cow::Owned(out));
            }
            out.push(self.escape()?);
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(&b) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        if let Some(&(_, c)) = ESCAPES.iter().find(|&&(e, _)| e == b) {
            return Ok(c);
        }
        if b != b'u' {
            return Err(self.error(format!("invalid escape \\{}", b as char)));
        }
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            // A surrogate pair: the low half must follow as \uXXXX.
            let pair = self.text.as_bytes()[self.pos..].starts_with(b"\\u");
            self.pos += if pair { 2 } else { 0 };
            let lo = if pair { self.hex4()? } else { 0 };
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.text.as_bytes().get(self.pos..self.pos + 4);
        let Some(hex) = hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit)) else {
            return Err(self.error("invalid \\u escape"));
        };
        self.pos += 4;
        Ok(hex.iter().fold(0, |n, &h| n * 16 + char::from(h).to_digit(16).unwrap_or(0)))
    }

    /// Step into a `[` or `{`, within the nesting cap.
    fn open(&mut self, open: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(open) {
            return Err(self.expected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// After an element: step past the `,` before another one (`true`) or
    /// out of the closing `close` (`false`).
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        if self.eat(b',') {
            return Ok(true);
        }
        if !self.eat(close) {
            return Err(self.error(format!("expected ',' or '{}'", close as char)));
        }
        self.depth -= 1;
        Ok(false)
    }

    /// Read a `[...]` or `{...}`, calling `item` once per element.
    fn nested(
        &mut self,
        [open, close]: [u8; 2],
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.open(open, what)?;
        if self.eat(close) {
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.next(close)? {
                return Ok(());
            }
        }
    }

    /// Read an array, calling `item` once per element.
    pub fn seq(&mut self, item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
        self.nested(*b"[]", "array", item)
    }

    /// Read an object, calling `field` with each key, positioned at its
    /// value (which `field` must read or [`Reader::skip`]).
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.nested(*b"{}", "object", |r| {
            let key = r.str()?;
            if !r.eat(b':') {
                return Err(r.error("expected ':'"));
            }
            field(r, &key)
        })
    }

    /// Read a fixed-length array: `f` reads every element, with
    /// [`Reader::comma`] between them.
    pub fn tuple<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        self.open(b'[', "array")?;
        let out = f(self)?;
        match self.next(b']')? {
            false => Ok(out),
            true => Err(self.error("too many elements")),
        }
    }

    /// Consume the `,` between two elements of a [`Reader::tuple`].
    pub fn comma(&mut self) -> Result<(), Error> {
        self.eat(b',').then_some(()).ok_or_else(|| self.error("expected ','"))
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.literal("true") {
            Ok(true)
        } else if r.literal("false") {
            Ok(false)
        } else {
            Err(r.expected("bool"))
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                write!(w.out, "{self}").expect("writing to a String cannot fail");
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let int = match r.number(stringify!($t))? {
                    Number::I64(i) => <$t>::try_from(i).ok(),
                    Number::U64(u) => <$t>::try_from(u).ok(),
                    Number::F64(_) => None,
                };
                int.ok_or_else(|| r.error(concat!("expected ", stringify!($t), ", found number")))
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Rust's shortest round-trip text, with `.0` added to integral values so
/// the float type shows on the wire (and `-0.0` survives a round trip);
/// non-finite floats as `null`.
impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        if !self.is_finite() {
            return w.raw("null"); // JSON has no NaN/Inf
        }
        let start = w.out.len();
        write!(w.out, "{self}").expect("writing to a String cannot fail");
        if !w.out[start..].contains(['.', 'e', 'E']) {
            w.raw(".0");
        }
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.literal("null") {
            return Ok(f64::NAN);
        }
        Ok(match r.number("number")? {
            Number::I64(i) => i as f64,
            Number::U64(u) => u as f64,
            Number::F64(f) => f,
        })
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(x) => x.serialize(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.literal("null") {
            true => Ok(None),
            false => T::deserialize(r).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        collect(r)
    }
}

/// Read an array into a collection. A B-tree is built from all its items
/// at once, as `FromIterator` does, so its nodes come out full and
/// contiguous; inserting items one by one left half-full nodes scattered
/// between the items' own allocations, and walking them got slower.
fn collect<T: Deserialize, C: FromIterator<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    let mut items = Vec::new();
    r.seq(|r| {
        items.push(T::deserialize(r)?);
        Ok(())
    })?;
    Ok(items.into_iter().collect())
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer) {
        w.raw("[");
        self.0.serialize(w);
        w.raw(",");
        self.1.serialize(w);
        w.raw("]");
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.tuple(|r| {
            let a = A::deserialize(r)?;
            r.comma()?;
            Ok((a, B::deserialize(r)?))
        })
    }
}

// Maps serialize as arrays of [key, value] pairs: key types here include
// newtype ids, so a JSON object (string keys only) cannot represent them.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        collect(r)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        collect(r)
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'[') => Value::Array(Vec::deserialize(r)?),
            Some(b'{') => {
                let mut pairs = Vec::new();
                r.object(|r, key| {
                    pairs.push((key.to_string(), Value::deserialize(r)?));
                    Ok(())
                })?;
                Value::Object(pairs)
            }
            Some(b'"') => Value::String(String::deserialize(r)?),
            Some(b'-' | b'0'..=b'9') => Value::Num(r.number("number")?),
            _ if r.literal("null") => Value::Null,
            _ => Value::Bool(bool::deserialize(r)?),
        })
    }
}

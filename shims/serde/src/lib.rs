//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build container has no registry access, so instead of the real
//! serde this crate provides a small JSON data model. Both directions
//! stream: [`Serialize`] appends text to a [`Writer`], [`Deserialize`]
//! takes its value off a [`Reader`] (a cursor over the text, the one
//! tokenizer of the workspace) in a single pass. A [`Value`] tree is
//! built only for a caller that asks for a [`Value`]. The derive macros
//! are re-exported from the sibling `serde_derive` shim.
//!
//! The derive emits the externally-tagged enum representation the real
//! serde would, so description files stay human-readable and stable.
//! It writes each field key already quoted ([`Writer::ident_field`]):
//! an identifier needs no escape, so no key is scanned for one.
//!
//! An array goes through two hidden provided methods,
//! [`Serialize::write_json_slice`] and [`Deserialize::read_json_vec`],
//! whose defaults are the element loop. The integers override both: a
//! pretty integer array is written at its exact size in one loop, and
//! read by one plain scan that takes only brackets, commas, whitespace
//! and plain non-negative integers that fit. At anything else the scan
//! leaves the cursor where it was and the element loop reads the array
//! from its first byte, so values and errors are the element loop's by
//! construction, and the element loop stays the oracle.

use std::borrow::Cow;
use std::io::Write as _;

pub use serde_derive::{Deserialize, Serialize};

// The derives name this crate `::serde`, here too.
#[cfg(test)]
extern crate self as serde;
#[cfg(test)]
mod tests;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable lookup of a key of an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(m) => m.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError { msg: msg.into() }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Serialization as JSON text.
pub trait Serialize {
    /// Appends `self` to the writer.
    fn write_json(&self, w: &mut Writer);

    /// Appends `items` as an array: what `Vec<Self>` writes. The
    /// integers override it with a loop of their own; the text is the
    /// same.
    #[doc(hidden)]
    fn write_json_slice(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        w.items(items);
    }
}

/// Deserialization from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` at the reader's cursor.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError>;

    /// Reads an array of `Self`: what `Vec<Self>` reads. The integers
    /// override it with a scan of their own that hands anything it does
    /// not take to this loop, so values and errors are the same.
    #[doc(hidden)]
    fn read_json_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, DeError> {
        r.items()
    }
}

/// Reads `s` — one JSON value, whitespace around it — as a `T`.
pub fn from_json<T: Deserialize>(s: &str) -> Result<T, DeError> {
    let mut r = Reader::new(s);
    r.ws();
    let t = T::read_json(&mut r)?;
    r.ws();
    if r.i != s.len() {
        return Err(r.syntax("trailing characters"));
    }
    Ok(t)
}

/// Containers nested deeper than this are refused (the deepest
/// committed description nests 6), so hostile input cannot exhaust the
/// stack.
const MAX_DEPTH: usize = 128;

/// The first index at or after `i` that is not JSON whitespace: space,
/// tab, line feed, carriage return (RFC 8259 §2; a form feed is not
/// one). A run of spaces, a pretty text's indentation, is skipped eight
/// bytes at a time.
#[inline]
fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    loop {
        match bytes.get(i) {
            Some(b' ') => match bytes
                .get(i..i + 8)
                .and_then(|w| <[u8; 8]>::try_from(w).ok())
            {
                // The spaces that open the word: a space is the only
                // byte that XORs to zero, any other has fewer than eight
                // trailing zeros. The first byte is one, so `i` moves.
                Some(word) => {
                    let word = u64::from_le_bytes(word) ^ 0x2020_2020_2020_2020;
                    i += (word.trailing_zeros() / 8) as usize;
                }
                None => i += 1,
            },
            Some(b'\t' | b'\n' | b'\r') => i += 1,
            _ => return i,
        }
    }
}

/// A number as written: a non-negative integer, a negative one, or
/// anything else finite.
enum Number {
    U(u64),
    I(i64),
    F(f64),
}

/// A cursor over JSON text. Every public method expects the cursor on
/// the first byte of a value and leaves it just past that value.
pub struct Reader<'a> {
    s: &'a str,
    i: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader { s, i: 0, depth: 0 }
    }

    /// An array of `T`s, each read by its `read_json`.
    fn items<T: Deserialize>(&mut self) -> Result<Vec<T>, DeError> {
        let mut items = Vec::new();
        self.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// An array of plain non-negative integers (at most 19 digits, no
    /// leading zero, no fraction or exponent), each of which `fit`
    /// takes, read in one scan. At any other byte, or a value `fit`
    /// refuses, it is `None` with the cursor unmoved: the caller then
    /// reads the array through [`Reader::items`], which takes it or
    /// says what is wrong with it, as if this scan had not run.
    fn plain_ints<T>(&mut self, fit: impl Fn(u64) -> Option<T>) -> Option<Vec<T>> {
        // At the cap the container loop refuses the array.
        if self.depth >= MAX_DEPTH {
            return None;
        }
        let bytes = self.s.as_bytes();
        let ws = |i| skip_ws(bytes, i);
        if bytes.get(self.i) != Some(&b'[') {
            return None;
        }
        let mut i = ws(self.i + 1);
        let mut items = Vec::new();
        if bytes.get(i) == Some(&b']') {
            self.i = i + 1;
            return Some(items);
        }
        loop {
            // The grammar of `Reader::number`'s plain integer. The value
            // wraps only past 19 digits, which are refused.
            let start = i;
            let mut value = 0u64;
            while let Some(&d @ b'0'..=b'9') = bytes.get(i) {
                value = value.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                i += 1;
            }
            let len = i - start;
            if len == 0 || len > 19 || (len > 1 && bytes[start] == b'0') {
                return None;
            }
            items.push(fit(value)?);
            // A `.`, `e` or `E` after the digits ends the scan here too.
            let mut next = bytes.get(i);
            if let Some(b' ' | b'\t' | b'\n' | b'\r') = next {
                i = ws(i);
                next = bytes.get(i);
            }
            match next {
                Some(b',') => i = ws(i + 1),
                Some(b']') => {
                    self.i = i + 1;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    /// Reads an array; `item` reads each element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        match self.peek() {
            Some(b'[') => self.container(b'[', b']', item),
            _ => Err(self.mismatch("array")),
        }
    }

    /// Reads an object; `entry` is given each key with the cursor on
    /// its value, which it must consume ([`Reader::field`],
    /// [`Reader::skip`] or a `read_json`).
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        match self.peek() {
            Some(b'{') => self.container(b'{', b'}', |r| {
                let key = r.key(true)?;
                entry(r, &key)
            }),
            _ => Err(self.mismatch("object")),
        }
    }

    /// Reads the value of object entry `name` into `slot`. The first
    /// entry of a name wins: a later one is checked and dropped.
    pub fn field<T: Deserialize>(
        &mut self,
        name: &str,
        slot: &mut Option<T>,
    ) -> Result<(), DeError> {
        if slot.is_some() {
            return self.skip().map(drop);
        }
        let value = T::read_json(self).map_err(|e| DeError::new(format!("field `{name}`: {e}")))?;
        *slot = Some(value);
        Ok(())
    }

    /// Reads an externally tagged variant of enum `ty`: a string
    /// `"Tag"`, or an object `{"Tag": payload}` of exactly one entry.
    /// `f` is given the tag and whether a payload follows (the cursor
    /// is on it); `None` from it means `ty` has no such variant.
    pub fn variant<T>(
        &mut self,
        ty: &str,
        f: impl FnOnce(&mut Self, &str, bool) -> Result<Option<T>, DeError>,
    ) -> Result<T, DeError> {
        let not_one = || DeError::new(format!("expected a {ty} variant"));
        let (mut f, mut out) = (Some(f), None);
        let mut read = |r: &mut Self, tag: &str, tagged| {
            // Taken already: this is a second entry.
            let f = f.take().ok_or_else(not_one)?;
            let unknown = || DeError::new(format!("unknown variant {tag} of {ty}"));
            out = Some(f(r, tag, tagged)?.ok_or_else(unknown)?);
            Ok(())
        };
        match self.peek() {
            Some(b'"') => {
                let tag = self.string(true)?;
                read(self, &tag, false)?;
            }
            Some(b'{') => self.container(b'{', b'}', |r| {
                let tag = r.key(true)?;
                read(r, &tag, true)
            })?,
            _ => drop(self.skip()?),
        }
        out.ok_or_else(not_one)
    }

    /// Checks one value of any kind, building nothing, and returns its
    /// text.
    pub fn skip(&mut self) -> Result<&'a str, DeError> {
        let start = self.i;
        match self.peek() {
            Some(b'[') => self.container(b'[', b']', |r| r.skip().map(drop)),
            Some(b'{') => self.container(b'{', b'}', |r| {
                r.key(false)?;
                r.skip().map(drop)
            }),
            Some(b'"') => self.string(false).map(drop),
            Some(b'n') => self.word("null"),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            _ => Err(self.syntax("expected a value")),
        }?;
        Ok(&self.s[start..self.i])
    }

    /// The one container loop: arrays, objects, [`Reader::skip`] and
    /// the [`Value`] builder all come through here, so nesting is
    /// bounded in one place. The cursor is on `open`; `item` reads one
    /// element (for an object: key, colon and value).
    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        debug_assert_eq!(self.peek(), Some(open));
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.i += 1;
        self.ws();
        let result = if self.peek() == Some(close) {
            self.i += 1;
            Ok(())
        } else {
            loop {
                if let Err(e) = item(self) {
                    break Err(e);
                }
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.i += 1;
                        self.ws();
                    }
                    Some(b) if b == close => {
                        self.i += 1;
                        break Ok(());
                    }
                    _ => break Err(self.syntax(&format!("expected `,` or `{}`", close as char))),
                }
            }
        };
        self.depth -= 1;
        result
    }

    /// An object key and its colon; the cursor ends on the value.
    fn key(&mut self, keep: bool) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("expected a string key"));
        }
        let key = self.string(keep)?;
        self.ws();
        if self.peek() != Some(b':') {
            return Err(self.syntax("expected `:`"));
        }
        self.i += 1;
        self.ws();
        Ok(key)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Skips the whitespace at the cursor.
    fn ws(&mut self) {
        self.i = skip_ws(self.s.as_bytes(), self.i);
    }

    fn word(&mut self, w: &str) -> Result<(), DeError> {
        if !self.s.as_bytes()[self.i..].starts_with(w.as_bytes()) {
            return Err(self.syntax(&format!("expected `{w}`")));
        }
        self.i += w.len();
        Ok(())
    }

    /// The string at the cursor (on its opening quote): borrowed from
    /// the text unless it holds an escape. With `keep` false the string
    /// is only checked and the result is empty.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, DeError> {
        self.i += 1;
        let mut owned: Option<String> = None;
        // Start of the ordinary bytes not yet copied to `owned`.
        let mut run = self.i;
        loop {
            // Quote and backslash are ASCII, so every cut is on a
            // character boundary of the (already valid) UTF-8 text.
            let rest = &self.s.as_bytes()[self.i..];
            let Some(n) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.i = self.s.len();
                return Err(self.syntax("unterminated string"));
            };
            let plain = &self.s[run..self.i + n];
            self.i += n + 1;
            if rest[n] == b'"' {
                return Ok(match owned {
                    Some(out) => Cow::Owned(out + plain),
                    None if keep => Cow::Borrowed(plain),
                    None => Cow::Borrowed(""),
                });
            }
            let c = self.escape()?;
            if keep {
                let out = owned.get_or_insert_with(String::new);
                out.push_str(plain);
                out.push(c);
            }
            run = self.i;
        }
    }

    /// The character of the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, DeError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // Exactly four hex digits (`from_str_radix` would take
                // a sign) after the `u` at `at`.
                let hex4 = |at: usize| {
                    self.s.as_bytes().get(at + 1..at + 5).and_then(|hex| {
                        hex.iter()
                            .try_fold(0u32, |code, &h| Some(code * 16 + (h as char).to_digit(16)?))
                    })
                };
                // A high surrogate is a character only together with the
                // `\u` low surrogate right after it (RFC 8259 §7); alone,
                // reversed or cut short it is no character at all.
                let (code, len) = match hex4(self.i) {
                    Some(high @ 0xd800..=0xdbff) => {
                        let low = match self.s.as_bytes().get(self.i + 5..self.i + 7) {
                            Some(b"\\u") => hex4(self.i + 6),
                            _ => None,
                        };
                        match low {
                            Some(low @ 0xdc00..=0xdfff) => {
                                (Some(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)), 10)
                            }
                            _ => (None, 4),
                        }
                    }
                    code => (code, 4),
                };
                let c = code
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.syntax("bad \\u escape"))?;
                self.i += len;
                c
            }
            _ => return Err(self.syntax("bad escape")),
        };
        self.i += 1;
        Ok(c)
    }

    /// The number at the cursor, in RFC 8259's grammar:
    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`. An integer
    /// too large for 64 bits reads as a float; a number that is not
    /// finite is an error.
    fn number(&mut self) -> Result<Number, DeError> {
        let start = self.i;
        // A plain non-negative integer of at most 19 digits (always
        // below `u64::MAX`) is accumulated as it is scanned.
        let bytes = &self.s.as_bytes()[start..];
        let mut value = 0u64;
        let mut len = 0;
        while len < 19 {
            match bytes.get(len) {
                Some(&d @ b'0'..=b'9') => value = value * 10 + u64::from(d - b'0'),
                _ => break,
            }
            len += 1;
        }
        let plain = len == 1 || (len > 1 && bytes[0] != b'0');
        if plain && !matches!(bytes.get(len), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.i += len;
            return Ok(Number::U(value));
        }
        // Anything else: scan, then parse the text.
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int = self.digits()?;
        if int.len() > 1 && int.starts_with('0') {
            self.i -= int.len() - 1;
            return Err(self.syntax("leading zero in a number"));
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            integer = false;
            self.i += 1;
            self.digits()?;
        }
        if let Some(b'e' | b'E') = self.peek() {
            integer = false;
            self.i += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.i += 1;
            }
            self.digits()?;
        }
        let text = &self.s[start..self.i];
        if integer {
            if let Ok(n) = text.parse() {
                return Ok(Number::U(n));
            }
            if let Ok(n) = text.parse() {
                return Ok(Number::I(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Number::F(x)),
            _ => {
                self.i = start;
                Err(self.syntax("number out of range"))
            }
        }
    }

    /// A run of one or more digits.
    fn digits(&mut self) -> Result<&'a str, DeError> {
        let start = self.i;
        while let Some(b'0'..=b'9') = self.peek() {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.syntax("expected a digit"));
        }
        Ok(&self.s[start..self.i])
    }

    /// A syntax error at the cursor. Line and column (in characters)
    /// are counted here, on the error path only.
    fn syntax(&self, what: &str) -> DeError {
        let before = &self.s[..self.i];
        let line_start = before.rfind('\n').map_or(0, |n| n + 1);
        DeError::new(format!(
            "{what} at line {} column {}",
            1 + before.bytes().filter(|&b| b == b'\n').count(),
            1 + before[line_start..].chars().count()
        ))
    }

    /// The number at the cursor, for a reader of type `what`.
    fn typed_number(&mut self, what: &str) -> Result<Number, DeError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.mismatch(what)),
        }
    }

    /// The error for a value that is not a `what`: its own syntax
    /// error if it is not a value at all.
    fn mismatch(&mut self, what: &str) -> DeError {
        match self.skip() {
            Ok(_) => DeError::new(format!("expected {what}")),
            Err(e) => e,
        }
    }
}

/// Serializes `t`, pretty-printed (two-space indent) or compact, into a
/// string allocated with `capacity` bytes.
pub fn to_json<T: Serialize + ?Sized>(t: &T, pretty: bool, capacity: usize) -> String {
    let mut w = Writer {
        out: Vec::with_capacity(capacity),
        pretty,
        depth: 0,
        empty: true,
    };
    t.write_json(&mut w);
    String::from_utf8(w.out).expect("the writer appends whole strings and ASCII")
}

/// A newline and the pretty indentation of depths 0 to 8 (a
/// description nests six).
const INDENT: &[u8] = b"\n                ";

/// `00` to `99`, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The number of decimal digits of `n`.
#[inline]
fn decimal_len(n: u64) -> usize {
    let mut len = 1;
    let mut bound = 10u64;
    while len < 20 && n >= bound {
        len += 1;
        bound = bound.wrapping_mul(10);
    }
    len
}

/// Writes the decimal digits of `n` right-aligned into `out`, which
/// holds exactly [`decimal_len`]`(n)` bytes.
#[inline]
fn put_decimal(out: &mut [u8], mut n: u64) {
    let mut i = out.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        out[i - 2..i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[i - 1] = b'0' + n as u8;
    }
}

/// The bytes of integer `v`: a sign, then the digits of its magnitude.
#[inline]
fn int_len(v: i128) -> usize {
    usize::from(v < 0) + decimal_len(v.unsigned_abs() as u64)
}

/// Writes integer `v` into `out`, which holds exactly [`int_len`]`(v)`
/// bytes.
#[inline]
fn put_int(out: &mut [u8], v: i128) {
    if v < 0 {
        out[0] = b'-';
    }
    put_decimal(&mut out[usize::from(v < 0)..], v.unsigned_abs() as u64);
}

/// The JSON text under construction.
pub struct Writer {
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// Nothing written yet inside the innermost open container.
    empty: bool,
}

impl Writer {
    /// Writes an object; `f` writes its entries: [`Writer::field`], or
    /// [`Writer::key`] followed by one value.
    pub fn object(&mut self, f: impl FnOnce(&mut Self)) {
        self.nest("{", "}", f);
    }

    /// Writes the object entry `name: value`.
    #[inline]
    pub fn field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.write_json(self);
    }

    /// Starts an object entry: separator, indentation, key and colon.
    #[inline]
    pub fn key(&mut self, name: &str) {
        self.item();
        self.string(name);
        self.raw(if self.pretty { ": " } else { ":" });
    }

    /// [`Writer::field`] for a key given already quoted, and needing no
    /// escape (a Rust identifier): what the derive writes.
    #[doc(hidden)]
    #[inline]
    pub fn ident_field<T: Serialize + ?Sized>(&mut self, quoted: &str, value: &T) {
        self.ident_key(quoted);
        value.write_json(self);
    }

    /// [`Writer::key`] for a key given already quoted, and needing no
    /// escape.
    #[doc(hidden)]
    #[inline]
    pub fn ident_key(&mut self, quoted: &str) {
        self.item();
        self.raw(quoted);
        self.raw(if self.pretty { ": " } else { ":" });
    }

    /// An array of `items`, each written by its `write_json`.
    fn items<T: Serialize>(&mut self, items: &[T]) {
        self.nest("[", "]", |w| {
            for item in items {
                w.item();
                item.write_json(w);
            }
        });
    }

    /// A pretty, non-empty array of integers, in the bytes of
    /// [`Writer::items`]: its size is counted first, then the buffer
    /// grows once, filled with the indentation's spaces, and only the
    /// brackets, commas, line breaks and digits are put in place.
    fn int_items<T: Copy>(&mut self, items: &[T], wide: impl Fn(T) -> i128) {
        debug_assert!(self.pretty && !items.is_empty());
        // An element's `,`, line break and indentation.
        let width = 2 + 2 * (self.depth + 1);
        let digits: usize = items.iter().map(|&v| int_len(wide(v))).sum();
        // A separator before each element (the first one's comma is the
        // `[`), the digits, and the closing line break, indentation and
        // `]`.
        let len = items.len() * width + digits + (width - 2);
        let start = self.out.len();
        self.out.resize(start + len, b' ');
        let out = &mut self.out[start..];
        let mut at = width;
        for &v in items {
            out[at - width] = b',';
            out[at - width + 1] = b'\n';
            let v = wide(v);
            let end = at + int_len(v);
            put_int(&mut out[at..end], v);
            at = end + width;
        }
        out[0] = b'[';
        // The closing line break, after the last element.
        out[at - width] = b'\n';
        out[len - 1] = b']';
        self.empty = false;
    }

    #[inline]
    fn raw(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
    }

    fn nest(&mut self, open: &str, close: &str, f: impl FnOnce(&mut Self)) {
        self.raw(open);
        self.depth += 1;
        self.empty = true;
        f(self);
        self.depth -= 1;
        if !self.empty {
            self.separate(false);
        }
        self.empty = false;
        self.raw(close);
    }

    /// Separator and indentation before an array element or a key.
    #[inline]
    fn item(&mut self) {
        self.separate(!self.empty);
        self.empty = false;
    }

    /// An optional comma, then (pretty) a newline and the indentation,
    /// taken from one slice up to [`INDENT`]'s depth.
    #[inline]
    fn separate(&mut self, comma: bool) {
        if comma {
            self.raw(",");
        }
        if self.pretty {
            match INDENT.get(..1 + 2 * self.depth) {
                Some(line) => self.out.extend_from_slice(line),
                None => {
                    self.raw("\n");
                    self.out.resize(self.out.len() + 2 * self.depth, b' ');
                }
            }
        }
    }

    /// A quoted string; runs of ordinary bytes are copied whole.
    #[inline]
    fn string(&mut self, s: &str) {
        self.raw("\"");
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.raw(&s[run..i]);
            self.raw(esc);
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            }
            run = i + 1;
        }
        self.raw(&s[run..]);
        self.raw("\"");
    }

    #[inline]
    fn int(&mut self, v: i128) {
        let mut buf = [0u8; 21];
        let len = int_len(v);
        put_int(&mut buf[..len], v);
        self.out.extend_from_slice(&buf[..len]);
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.int(*self as i128);
            }

            fn write_json_slice(items: &[Self], w: &mut Writer) {
                if w.pretty && !items.is_empty() {
                    w.int_items(items, |v| v as i128);
                } else {
                    w.items(items);
                }
            }
        }
        impl Deserialize for $t {
            /// Accepts an integer in range, or a float whose value is
            /// integral and fits exactly.
            fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let fits = match r.typed_number(stringify!($t))? {
                    Number::U(n) => <$t>::try_from(n).ok(),
                    Number::I(n) => <$t>::try_from(n).ok(),
                    Number::F(x) if (x as i128) as f64 == x => <$t>::try_from(x as i128).ok(),
                    Number::F(_) => return Err(DeError::new(concat!("expected ", stringify!($t)))),
                };
                fits.ok_or_else(|| DeError::new(concat!("integer out of range for ", stringify!($t))))
            }

            fn read_json_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, DeError> {
                match r.plain_ints(|n| <$t>::try_from(n).ok()) {
                    Some(items) => Ok(items),
                    None => r.items(),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            /// Integral values print with one decimal so they read back
            /// as floats; non-finite values, which JSON cannot express,
            /// print as `null`.
            fn write_json(&self, w: &mut Writer) {
                let x = f64::from(*self);
                let _ = if !x.is_finite() {
                    write!(w.out, "null")
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    // `{x:.1}`'s text, but for -0.0 without `core::fmt`.
                    if x == 0.0 && x.is_sign_negative() {
                        write!(w.out, "{x:.1}")
                    } else {
                        w.int(x as i128);
                        w.out.extend_from_slice(b".0");
                        Ok(())
                    }
                } else {
                    write!(w.out, "{x}")
                };
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
                Ok(match r.typed_number(stringify!($t))? {
                    Number::F(x) => x as $t,
                    Number::U(n) => n as $t,
                    Number::I(n) => n as $t,
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        match r.peek() {
            Some(b't') => r.word("true").map(|()| true),
            Some(b'f') => r.word("false").map(|()| false),
            _ => Err(r.mismatch("bool")),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Deserialize for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        match r.peek() {
            Some(b'"') => r.string(true).map(Cow::into_owned),
            _ => Err(r.mismatch("string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        T::write_json_slice(self, w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::read_json_vec(r)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(t) => t.write_json(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        match r.peek() {
            Some(b'n') => r.word("null").map(|()| None),
            _ => T::read_json(r).map(Some),
        }
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.raw("null"),
            Value::Bool(b) => b.write_json(w),
            Value::U64(n) => n.write_json(w),
            Value::I64(n) => n.write_json(w),
            Value::F64(x) => x.write_json(w),
            Value::Str(s) => s.write_json(w),
            Value::Array(items) => items.write_json(w),
            Value::Object(entries) => w.object(|w| {
                for (k, v) in entries {
                    w.field(k, v);
                }
            }),
        }
    }
}

impl Deserialize for Value {
    /// The tree builder: only a caller that asks for a `Value` pays
    /// for one.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match r.peek() {
            Some(b'n') => r.word("null").map(|()| Value::Null)?,
            Some(b't' | b'f') => Value::Bool(bool::read_json(r)?),
            Some(b'"') => Value::Str(String::read_json(r)?),
            Some(b'[') => Value::Array(Vec::read_json(r)?),
            Some(b'{') => {
                let mut entries = Vec::new();
                r.object(|r, key| {
                    entries.push((key.to_string(), Value::read_json(r)?));
                    Ok(())
                })?;
                Value::Object(entries)
            }
            _ => match r.typed_number("a value")? {
                Number::U(n) => Value::U64(n),
                Number::I(n) => Value::I64(n),
                Number::F(x) => Value::F64(x),
            },
        })
    }
}

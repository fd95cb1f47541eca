//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string_pretty`], [`to_string`], [`from_str`], an indexable
//! [`Value`], and the [`json!`] macro (single-expression form). The
//! text writer lives in the `serde` shim, next to the `Serialize` trait
//! that drives it; the parser here builds the `Value` tree that
//! `Deserialize` reads.

use std::fmt;
use std::ops::{Index, IndexMut};

pub use serde::Value as InnerValue;
use serde::{DeError, Deserialize, Serialize, Writer};

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// A JSON value with `v["key"]` / `v[idx]` indexing like serde_json's.
#[derive(Debug, Clone, PartialEq)]
#[repr(transparent)]
pub struct Value(pub InnerValue);

impl Value {
    /// The `null` value.
    pub const NULL: Value = Value(InnerValue::Null);
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        match self.0.get(key) {
            Some(inner) => Value::wrap_ref(inner),
            None => panic!("no key {key:?} in JSON object"),
        }
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match &self.0 {
            InnerValue::Array(items) => Value::wrap_ref(&items[idx]),
            _ => panic!("not a JSON array"),
        }
    }
}

impl IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self.0.get_mut(key) {
            Some(inner) => Value::wrap_mut(inner),
            None => panic!("no key {key:?} in JSON object"),
        }
    }
}

impl IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match &mut self.0 {
            InnerValue::Array(items) => Value::wrap_mut(&mut items[idx]),
            _ => panic!("not a JSON array"),
        }
    }
}

impl Value {
    fn wrap_ref(inner: &InnerValue) -> &Value {
        // SAFETY: Value is #[repr(transparent)] over InnerValue.
        unsafe { &*(inner as *const InnerValue as *const Value) }
    }

    fn wrap_mut(inner: &mut InnerValue) -> &mut Value {
        // SAFETY: Value is #[repr(transparent)] over InnerValue.
        unsafe { &mut *(inner as *mut InnerValue as *mut Value) }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&serde::to_json(self, false, 0))
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut Writer) {
        self.0.write_json(w);
    }
}

impl Deserialize for Value {
    fn from_value(v: &InnerValue) -> Result<Self, DeError> {
        Ok(Value(v.clone()))
    }
}

/// Builds the JSON [`Value`] tree of a value, by parsing its text.
pub fn to_value<T: Serialize>(t: &T) -> Value {
    from_str(&serde::to_json(t, false, 0)).expect("serialized JSON parses")
}

/// Builds a [`Value`] from any serializable expression.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::NULL
    };
    ($e:expr) => {
        $crate::to_value(&$e)
    };
}

/// Serializes `t` as pretty-printed JSON.
pub fn to_string_pretty<T: Serialize>(t: &T) -> Result<String, Error> {
    Ok(serde::to_json(t, true, 0))
}

/// Serializes `t` as compact JSON.
pub fn to_string<T: Serialize>(t: &T) -> Result<String, Error> {
    Ok(serde::to_json(t, false, 0))
}

/// Parses JSON text and deserializes it into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    Ok(T::from_value(&v)?)
}

/// Containers nested deeper than this are refused (the deepest
/// committed description nests 6), so hostile input cannot exhaust the
/// stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.i
            )))
        }
    }

    fn eat_word(&mut self, w: &str) -> Result<(), Error> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(())
        } else {
            Err(Error::new(format!("expected {w:?} at byte {}", self.i)))
        }
    }

    fn value(&mut self) -> Result<InnerValue, Error> {
        match self.peek() {
            Some(b'n') => {
                self.eat_word("null")?;
                Ok(InnerValue::Null)
            }
            Some(b't') => {
                self.eat_word("true")?;
                Ok(InnerValue::Bool(true))
            }
            Some(b'f') => {
                self.eat_word("false")?;
                Ok(InnerValue::Bool(false))
            }
            Some(b'"') => Ok(InnerValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected byte {}", self.i))),
        }
    }

    /// Parses the container at the cursor with `body`, one level
    /// deeper; bounds the nesting.
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<InnerValue, Error>,
    ) -> Result<InnerValue, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<InnerValue, Error> {
        self.i += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(InnerValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(InnerValue::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.i))),
            }
        }
    }

    fn object(&mut self) -> Result<InnerValue, Error> {
        self.i += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(InnerValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(InnerValue::Object(entries));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.i))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            // Exactly four hex digits (`from_str_radix`
                            // would take a sign).
                            let code = hex
                                .iter()
                                .try_fold(0u32, |code, &h| {
                                    Some(code * 16 + (h as char).to_digit(16)?)
                                })
                                .ok_or_else(|| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume a maximal run of ordinary bytes in one
                    // go. Validating UTF-8 per chunk (not per code
                    // point over the whole remaining input) keeps
                    // parsing linear — multi-megabyte description
                    // files hit this path for every string character.
                    let start = self.i;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.i += 1;
                    }
                    let chunk = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|_| Error::new("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<InnerValue, Error> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(InnerValue::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(InnerValue::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(InnerValue::F64(x)),
            _ => Err(Error::new(format!("invalid number {text:?}"))),
        }
    }
}

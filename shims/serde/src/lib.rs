//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build container has no registry access, so instead of the real
//! serde this crate provides a small JSON data model. Writing streams:
//! [`Serialize`] appends text to a [`Writer`] and no tree is built.
//! Reading still goes through the [`Value`] tree: `shims/serde_json`
//! parses text into a [`Value`] and [`Deserialize`] rebuilds a type from
//! it. The derive macros are re-exported from the sibling
//! `serde_derive` shim.
//!
//! The derive emits the externally-tagged enum representation the real
//! serde would, so description files stay human-readable and stable.

use std::io::Write as _;

pub use serde_derive::{Deserialize, Serialize};

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
}

/// Deserialization from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Derive-internal helper: extracts and deserializes an object field.
pub fn __field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v {
        Value::Object(_) => match v.get(name) {
            Some(f) => T::from_value(f).map_err(|e| DeError::new(format!("field `{name}`: {e}"))),
            None => Err(DeError::new(format!("missing field `{name}`"))),
        },
        _ => Err(DeError::new(format!(
            "expected an object with field `{name}`"
        ))),
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
        self.container("{", "}", f);
    }

    /// Writes the object entry `name: value`.
    pub fn field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.write_json(self);
    }

    /// Starts an object entry: separator, indentation, key and colon.
    pub fn key(&mut self, name: &str) {
        self.item();
        self.string(name);
        self.raw(if self.pretty { ": " } else { ":" });
    }

    fn raw(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
    }

    fn container(&mut self, open: &str, close: &str, f: impl FnOnce(&mut Self)) {
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
    fn item(&mut self) {
        self.separate(!self.empty);
        self.empty = false;
    }

    /// An optional comma, then (pretty) a newline and the indentation.
    fn separate(&mut self, comma: bool) {
        if comma {
            self.raw(",");
        }
        if self.pretty {
            self.raw("\n");
            self.out.resize(self.out.len() + 2 * self.depth, b' ');
        }
    }

    /// A quoted string; runs of ordinary bytes are copied whole.
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

    fn int(&mut self, v: i128) {
        let mut buf = [0u8; 21];
        let mut i = buf.len();
        let mut n = v.unsigned_abs() as u64;
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            i -= 1;
            buf[i] = b'-';
        }
        self.out.extend_from_slice(&buf[i..]);
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.int(*self as i128);
            }
        }
        impl Deserialize for $t {
            /// Accepts an integer in range, or a float whose value is
            /// integral and fits exactly.
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let fits = match *v {
                    Value::U64(n) => <$t>::try_from(n).ok(),
                    Value::I64(n) => <$t>::try_from(n).ok(),
                    Value::F64(x) if (x as i128) as f64 == x => <$t>::try_from(x as i128).ok(),
                    _ => return Err(DeError::new(concat!("expected ", stringify!($t)))),
                };
                fits.ok_or_else(|| DeError::new(concat!("integer out of range for ", stringify!($t))))
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
                    write!(w.out, "{x:.1}")
                } else {
                    write!(w.out, "{x}")
                };
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::F64(f) => Ok(*f as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    _ => Err(DeError::new(concat!("expected ", stringify!($t)))),
                }
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::new("expected string")),
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
        w.container("[", "]", |w| {
            for item in self {
                w.item();
                item.write_json(w);
            }
        });
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::new("expected array")),
        }
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

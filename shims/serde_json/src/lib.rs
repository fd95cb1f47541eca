//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string_pretty`], [`to_string`], [`from_str`], an indexable
//! [`Value`], and the [`json!`] macro (single-expression form). A
//! facade: the text writer and the text reader both live in the `serde`
//! shim, next to the `Serialize` and `Deserialize` traits that drive
//! them, and a [`Value`] is one more type they read and write.

use std::fmt;
use std::ops::{Index, IndexMut};

pub use serde::Value as InnerValue;
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

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
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        InnerValue::read_json(r).map(Value)
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

/// Reads JSON text as a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(serde::from_json(s)?)
}

//! A small dynamic value tree shared by the TOML and JSON front-ends.
//!
//! The build environment is offline, so the workspace cannot depend on
//! `serde`/`toml`/`serde_json`; scenario specs instead decode through
//! this hand-rolled [`Value`] type. Both parsers produce it, both
//! serializers consume it, and `spec.rs` maps it to and from the typed
//! scenario structs.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and tables the TOML and JSON parsers
/// accept. Both parsers recurse once per level, so deeper input is
/// refused with a typed error instead of exhausting the stack. (TOML
/// table headers count their dotted path against the same limit.)
pub const MAX_NESTING: usize = 128;

/// A dynamically typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A string-keyed table (sorted for deterministic serialization).
    Table(BTreeMap<String, Value>),
}

/// Error produced while decoding a [`Value`] into a typed spec.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Dotted path of the offending field (e.g. `events[2].round`).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    /// A decode error at `path`.
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        DecodeError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at `{}`: {}", self.path, self.message)
    }
}

impl std::error::Error for DecodeError {}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(BTreeMap::new())
    }

    /// The type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Table lookup (`None` for missing keys or non-tables).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(map) => map.get(key),
            _ => None,
        }
    }

    /// Inserts into a table value.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not a table.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        match self {
            Value::Table(map) => {
                map.insert(key.into(), value);
            }
            other => panic!("insert into non-table value ({})", other.type_name()),
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload; integers coerce to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The table payload, if any.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(map) => Some(map),
            _ => None,
        }
    }
}

/// Typed field accessors with path-carrying errors.
pub mod decode {
    use super::{DecodeError, Value};

    fn missing(path: &str) -> DecodeError {
        DecodeError::new(path, "missing required field")
    }

    fn wrong(path: &str, want: &str, got: &Value) -> DecodeError {
        DecodeError::new(path, format!("expected {want}, found {}", got.type_name()))
    }

    /// Required string field.
    pub fn req_str(table: &Value, key: &str, path: &str) -> Result<String, DecodeError> {
        let p = format!("{path}.{key}");
        let v = table.get(key).ok_or_else(|| missing(&p))?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| wrong(&p, "string", v))
    }

    /// Optional string field.
    pub fn opt_str(table: &Value, key: &str, path: &str) -> Result<Option<String>, DecodeError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| wrong(&format!("{path}.{key}"), "string", v)),
        }
    }

    /// Required float (integers coerce).
    pub fn req_f64(table: &Value, key: &str, path: &str) -> Result<f64, DecodeError> {
        let p = format!("{path}.{key}");
        let v = table.get(key).ok_or_else(|| missing(&p))?;
        v.as_f64().ok_or_else(|| wrong(&p, "number", v))
    }

    /// Optional float (integers coerce).
    pub fn opt_f64(table: &Value, key: &str, path: &str) -> Result<Option<f64>, DecodeError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| wrong(&format!("{path}.{key}"), "number", v)),
        }
    }

    /// Optional boolean field.
    pub fn opt_bool(table: &Value, key: &str, path: &str) -> Result<Option<bool>, DecodeError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| wrong(&format!("{path}.{key}"), "bool", v)),
        }
    }

    /// Required non-negative integer.
    pub fn req_usize(table: &Value, key: &str, path: &str) -> Result<usize, DecodeError> {
        let p = format!("{path}.{key}");
        let v = table.get(key).ok_or_else(|| missing(&p))?;
        to_usize(v, &p)
    }

    /// Optional non-negative integer.
    pub fn opt_usize(table: &Value, key: &str, path: &str) -> Result<Option<usize>, DecodeError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => to_usize(v, &format!("{path}.{key}")).map(Some),
        }
    }

    /// Converts a [`Value`] to `usize`.
    pub fn to_usize(v: &Value, path: &str) -> Result<usize, DecodeError> {
        match v.as_i64() {
            Some(i) if i >= 0 => Ok(i as usize),
            Some(i) => Err(DecodeError::new(
                path,
                format!("expected non-negative integer, found {i}"),
            )),
            None => Err(wrong(path, "integer", v)),
        }
    }

    /// An `(x, y)` coordinate pair encoded as a two-element array.
    pub fn req_pair(table: &Value, key: &str, path: &str) -> Result<(f64, f64), DecodeError> {
        let p = format!("{path}.{key}");
        let v = table.get(key).ok_or_else(|| missing(&p))?;
        to_pair(v, &p)
    }

    /// Converts a two-element numeric array to an `(x, y)` pair.
    pub fn to_pair(v: &Value, path: &str) -> Result<(f64, f64), DecodeError> {
        let items = v.as_array().ok_or_else(|| wrong(path, "[x, y] array", v))?;
        if items.len() != 2 {
            return Err(DecodeError::new(
                path,
                format!("expected 2 coordinates, found {}", items.len()),
            ));
        }
        let x = items[0]
            .as_f64()
            .ok_or_else(|| wrong(&format!("{path}[0]"), "number", &items[0]))?;
        let y = items[1]
            .as_f64()
            .ok_or_else(|| wrong(&format!("{path}[1]"), "number", &items[1]))?;
        Ok((x, y))
    }

    /// A list of `(x, y)` pairs.
    pub fn to_pairs(v: &Value, path: &str) -> Result<Vec<(f64, f64)>, DecodeError> {
        let items = v
            .as_array()
            .ok_or_else(|| wrong(path, "array of [x, y]", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| to_pair(item, &format!("{path}[{i}]")))
            .collect()
    }
}

/// Encoding helpers used by `spec.rs`.
pub mod encode {
    use super::Value;

    /// A `(x, y)` pair as a two-element array.
    pub fn pair(p: (f64, f64)) -> Value {
        Value::Array(vec![Value::Float(p.0), Value::Float(p.1)])
    }

    /// A list of `(x, y)` pairs.
    pub fn pairs(ps: &[(f64, f64)]) -> Value {
        Value::Array(ps.iter().map(|&p| pair(p)).collect())
    }

    /// A `usize` as an integer value.
    pub fn int(n: usize) -> Value {
        Value::Int(n as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_coercion() {
        let mut t = Value::table();
        t.insert("a", Value::Int(3));
        t.insert("b", Value::Float(0.5));
        assert_eq!(t.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(t.get("b").unwrap().as_f64(), Some(0.5));
        assert_eq!(t.get("b").unwrap().as_i64(), None);
        assert_eq!(decode::req_usize(&t, "a", "root").unwrap(), 3);
        assert!(decode::req_usize(&t, "zzz", "root").is_err());
    }

    #[test]
    fn pair_decoding() {
        let v = Value::Array(vec![Value::Float(1.5), Value::Int(2)]);
        assert_eq!(decode::to_pair(&v, "p").unwrap(), (1.5, 2.0));
        let bad = Value::Array(vec![Value::Float(1.5)]);
        assert!(decode::to_pair(&bad, "p").is_err());
    }
}

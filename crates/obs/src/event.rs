//! Event payloads: borrowed, allocation-free field values.

use crate::level::Level;
use hdoutlier_json::Json;
use std::fmt;

/// One structured field value. Borrowed (`Str`) or `Copy`, so building a
/// field slice on the stack allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values render as `null` in NDJSON).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string.
    Str(&'a str),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

impl From<Value<'_>> for Json {
    /// Integers beyond ±2^53 round to the nearest `f64`; non-finite floats
    /// render as `null`.
    fn from(v: Value<'_>) -> Self {
        match v {
            Value::U64(v) => v.into(),
            Value::I64(v) => v.into(),
            Value::F64(v) => v.into(),
            Value::Bool(v) => v.into(),
            Value::Str(v) => v.into(),
        }
    }
}

/// A named field: `("elapsed_us", Value::U64(42))`.
pub type Field<'a> = (&'a str, Value<'a>);

/// One event as handed to a [`crate::Sink`]. Everything is borrowed; sinks
/// that need to keep events must copy what they want.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord<'a> {
    /// Microseconds since the dispatcher's monotonic epoch (first install
    /// or first emit, whichever came first).
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Dotted origin, `hdoutlier.<crate>`.
    pub target: &'a str,
    /// Event name within the target.
    pub name: &'a str,
    /// Structured payload.
    pub fields: &'a [Field<'a>],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_cover_common_types() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(1.5f64), Value::F64(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x"));
    }

    #[test]
    fn display_is_plain() {
        assert_eq!(Value::U64(7).to_string(), "7");
        assert_eq!(Value::I64(-7).to_string(), "-7");
        assert_eq!(Value::F64(0.5).to_string(), "0.5");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Str("hi").to_string(), "hi");
    }
}

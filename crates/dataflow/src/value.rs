//! The dynamically typed cell value stored in rows.

use std::fmt;
use std::sync::Arc;

/// A single cell in a [`Row`](crate::Row).
///
/// Helix's pre-processing data structures keep features "in human-readable
/// format for ease of development" (paper §2.1); `Value` is that format.
/// Conversion to ML-ready vectors happens in `helix-ml`'s feature space.
///
/// Equality is structural: a [`Value::Feats`] cell never equals the nested
/// list that prints the same.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / not applicable.
    Null,
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Nested list (e.g. token lists, candidate spans, feature name lists).
    List(Vec<Value>),
    /// A feature cell: named `(name, value)` pairs. It reads and prints as
    /// the list of `[name, value]` lists it stands for (its
    /// [`data_type`](Value::data_type) is `List`), but costs one allocation
    /// per cell, not two per pair: names are `Arc`s that the cells of a
    /// collection share.
    Feats(Vec<(Arc<str>, f64)>),
}

impl Value {
    /// The [`DataType`](crate::DataType) tag of this value.
    pub fn data_type(&self) -> crate::DataType {
        match self {
            Value::Null => crate::DataType::Any,
            Value::Bool(_) => crate::DataType::Bool,
            Value::Int(_) => crate::DataType::Int,
            Value::Float(_) => crate::DataType::Float,
            Value::Str(_) => crate::DataType::Str,
            Value::List(_) | Value::Feats(_) => crate::DataType::List,
        }
    }

    /// Whether this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as `bool`, if that is the variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as `i64`, if that is the variant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` become `f64`, `Bool` becomes 0/1.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Borrow as `&str`, if that is the variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a list, if that is the variant.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the
    /// materialization optimizer's storage accounting.
    pub fn estimated_bytes(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 24 + s.len(),
            Value::List(items) => 24 + items.iter().map(Value::estimated_bytes).sum::<usize>(),
            // The names are shared, so a pair costs its slot alone.
            Value::Feats(pairs) => 24 + 24 * pairs.len(),
        }
    }

    /// Parses a raw CSV field into the requested type, mapping empty
    /// strings and parse failures to `Null` (real-world census data has
    /// missing fields; Helix treats them as nulls rather than erroring).
    pub fn parse_typed(raw: &str, dtype: crate::DataType) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed == "?" {
            return Value::Null;
        }
        match dtype {
            crate::DataType::Bool => match trimmed {
                "true" | "TRUE" | "True" | "1" => Value::Bool(true),
                "false" | "FALSE" | "False" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
            crate::DataType::Int => trimmed
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            crate::DataType::Float => trimmed
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null),
            crate::DataType::Str => Value::Str(trimmed.to_string()),
            crate::DataType::List | crate::DataType::Any => Value::Str(trimmed.to_string()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Feats(pairs) => {
                write!(f, "[")?;
                for (i, (name, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{name}, {value}]")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::List(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn parse_typed_handles_missing_markers() {
        assert_eq!(Value::parse_typed("", DataType::Int), Value::Null);
        assert_eq!(Value::parse_typed(" ? ", DataType::Str), Value::Null);
        assert_eq!(Value::parse_typed("42", DataType::Int), Value::Int(42));
        assert_eq!(
            Value::parse_typed("4.5", DataType::Float),
            Value::Float(4.5)
        );
        assert_eq!(
            Value::parse_typed("true", DataType::Bool),
            Value::Bool(true)
        );
        assert_eq!(Value::parse_typed("abc", DataType::Int), Value::Null);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
    }

    #[test]
    fn estimated_bytes_grows_with_content() {
        let small = Value::Str("a".into()).estimated_bytes();
        let big = Value::Str("a".repeat(100)).estimated_bytes();
        assert!(big > small);
        let nested = Value::List(vec![Value::Int(1); 10]).estimated_bytes();
        assert!(nested >= 80);
    }

    #[test]
    fn feats_cell_is_a_compact_list() {
        let name: Arc<str> = Arc::from("edu=BS");
        let cell = Value::Feats(vec![(Arc::clone(&name), 1.0), (name, 2.5)]);
        assert_eq!(cell.data_type(), DataType::List);
        assert_eq!(cell.estimated_bytes(), 24 + 2 * 24);
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn from_impls_produce_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}

//! Column schemas for data collections.

use crate::fx::FxHashMap;
use crate::{DataflowError, Result};
use std::fmt;
use std::sync::Arc;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean flag.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Nested list.
    List,
    /// Any type accepted (UDF outputs, columns with mixed content).
    Any,
}

impl DataType {
    /// Whether a value of type `other` may be stored in a column of `self`.
    pub fn accepts(self, other: DataType) -> bool {
        self == DataType::Any || other == DataType::Any || self == other
    }

    /// Stable single-byte tag used by the binary codec.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
            DataType::List => 4,
            DataType::Any => 5,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Result<DataType> {
        Ok(match tag {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            4 => DataType::List,
            5 => DataType::Any,
            other => return Err(DataflowError::Codec(format!("bad dtype tag {other}"))),
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::List => "list",
            DataType::Any => "any",
        };
        write!(f, "{name}")
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered set of uniquely named fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    index: FxHashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from fields.
    ///
    /// # Errors
    /// Returns [`DataflowError::SchemaMismatch`] on duplicate field names.
    pub fn new(fields: Vec<Field>) -> Result<Arc<Schema>> {
        let mut index = FxHashMap::default();
        for (i, field) in fields.iter().enumerate() {
            if index.insert(field.name.clone(), i).is_some() {
                return Err(DataflowError::SchemaMismatch(format!(
                    "duplicate field name `{}`",
                    field.name
                )));
            }
        }
        Ok(Arc::new(Schema { fields, index }))
    }

    /// Shorthand: builds a schema from `(name, dtype)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> Arc<Schema> {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
            .expect("static schema literals must not contain duplicates")
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| DataflowError::UnknownColumn(name.to_string()))
    }

    /// Whether a column exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// The field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// A new schema restricted to the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<(Arc<Schema>, Vec<usize>)> {
        let mut fields = Vec::with_capacity(names.len());
        let mut indices = Vec::with_capacity(names.len());
        for name in names {
            let idx = self.index_of(name)?;
            fields.push(self.fields[idx].clone());
            indices.push(idx);
        }
        Ok((Schema::new(fields)?, indices))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_builds_and_indexes() {
        let schema = Schema::of(&[("age", DataType::Int), ("name", DataType::Str)]);
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.index_of("name").unwrap(), 1);
        assert!(schema.contains("age"));
        assert!(!schema.contains("salary"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn unknown_column_is_an_error() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        assert!(matches!(
            schema.index_of("b"),
            Err(DataflowError::UnknownColumn(_))
        ));
    }

    #[test]
    fn project_reorders_and_reports_indices() {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("c", DataType::Float),
        ]);
        let (projected, indices) = schema.project(&["c", "a"]).unwrap();
        assert_eq!(indices, vec![2, 0]);
        assert_eq!(projected.field(0).name, "c");
        assert_eq!(projected.field(1).name, "a");
    }

    #[test]
    fn dtype_tags_round_trip() {
        for dtype in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::List,
            DataType::Any,
        ] {
            assert_eq!(DataType::from_tag(dtype.tag()).unwrap(), dtype);
        }
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn any_accepts_everything() {
        assert!(DataType::Any.accepts(DataType::Int));
        assert!(DataType::Int.accepts(DataType::Any));
        assert!(DataType::Int.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Str));
    }

    #[test]
    fn display_formats() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(schema.to_string(), "a: int, b: str");
    }
}

//! Rows and data collections — the unit of data flowing between operators.

use crate::{DataflowError, Result, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// One record: values aligned with a [`Schema`]'s fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Creates a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    /// Value at column `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Approximate in-memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        24 + self.0.iter().map(Value::estimated_bytes).sum::<usize>()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values)
    }
}

/// A run of rows shared between collections: rows `[start, end)` of one
/// reference-counted vector. Slicing, concatenating and caching a
/// collection copies segments, never rows.
#[derive(Clone)]
struct Segment {
    rows: Arc<Vec<Row>>,
    start: usize,
    end: usize,
}

impl Segment {
    fn rows(&self) -> &[Row] {
        &self.rows[self.start..self.end]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// An immutable, schema-tagged batch of rows — Helix's `DataCollection`
/// (paper §1: "a DAG of data collections").
///
/// Collections are the intermediate results that Helix's optimizers decide
/// to materialize, load, compute, or prune. They expose exactly the
/// statistics those optimizers need: row counts and estimated byte sizes.
///
/// The rows live in `Arc`-shared segments with an `(offset, len)` view
/// each, so [`slice`](Self::slice), [`concat`](Self::concat) and
/// [`concat_all`](Self::concat_all) are pointer work, and a clone shares
/// every row. Two collections are equal when their schemas and rows are,
/// however the rows are segmented.
#[derive(Clone)]
pub struct DataCollection {
    schema: Arc<Schema>,
    /// Non-empty segments, in row order.
    segments: Vec<Segment>,
    len: usize,
}

/// The rows of a collection, or of a row range of one, in order: a view
/// over its segments, to iterate.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    segments: &'a [Segment],
    /// Rows of the first segment before the view starts.
    skip: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// An iterator over the rows.
    pub fn iter(&self) -> RowIter<'a> {
        let mut rest = self.segments.iter();
        let current = match rest.next() {
            Some(first) => first.rows()[self.skip..].iter(),
            None => [].iter(),
        };
        RowIter {
            current,
            rest,
            remaining: self.len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a Row;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Rows`].
#[derive(Clone)]
pub struct RowIter<'a> {
    current: std::slice::Iter<'a, Row>,
    rest: std::slice::Iter<'a, Segment>,
    remaining: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(row) = self.current.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.current = self.rest.next()?.rows().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl DataCollection {
    /// Creates an empty collection with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        DataCollection {
            schema,
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Creates a collection, validating every row against the schema.
    ///
    /// # Errors
    /// [`DataflowError::SchemaMismatch`] if any row has the wrong arity or
    /// an incompatible value type.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self> {
        for (rownum, row) in rows.iter().enumerate() {
            validate_row(&schema, row, rownum)?;
        }
        Ok(Self::from_rows_unchecked(schema, rows))
    }

    /// Creates a collection without validating rows.
    ///
    /// For operator internals that construct rows schema-first; prefer
    /// [`DataCollection::new`] at trust boundaries.
    pub fn from_rows_unchecked(schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        let len = rows.len();
        let segments = if len == 0 {
            Vec::new()
        } else {
            vec![Segment {
                rows: Arc::new(rows),
                start: 0,
                end: len,
            }]
        };
        DataCollection {
            schema,
            segments,
            len,
        }
    }

    /// The collection's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            segments: &self.segments,
            skip: 0,
            len: self.len,
        }
    }

    /// Rows `[start, end)`, as a view; the segments are found once, not
    /// per row.
    ///
    /// # Panics
    /// If the range is reversed or runs past the collection.
    pub fn rows_range(&self, start: usize, end: usize) -> Rows<'_> {
        assert!(
            start <= end && end <= self.len,
            "row range {start}..{end} of {} rows",
            self.len
        );
        let mut first = 0;
        let mut skip = start;
        while first < self.segments.len() && skip >= self.segments[first].len() {
            skip -= self.segments[first].len();
            first += 1;
        }
        Rows {
            segments: &self.segments[first..],
            skip,
            len: end - start,
        }
    }

    /// Row `i`, found by walking the segments: for a loop, iterate
    /// [`rows_range`](Self::rows_range) instead.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> &Row {
        let mut rows = self.rows_range(i, i + 1).iter();
        rows.next().expect("range checked")
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row after validating it. Rows shared with another
    /// collection are left alone: the row goes into a segment of its own.
    pub fn push(&mut self, row: Row) -> Result<()> {
        validate_row(&self.schema, &row, self.len)?;
        match self.segments.last_mut() {
            Some(tail) if tail.end == tail.rows.len() && Arc::strong_count(&tail.rows) == 1 => {
                Arc::get_mut(&mut tail.rows)
                    .expect("checked unique")
                    .push(row);
                tail.end += 1;
            }
            _ => self.segments.push(Segment {
                rows: Arc::new(vec![row]),
                start: 0,
                end: 1,
            }),
        }
        self.len += 1;
        Ok(())
    }

    /// Approximate total in-memory footprint in bytes. Drives the
    /// materialization optimizer's storage-budget accounting.
    pub fn estimated_bytes(&self) -> usize {
        48 + self.rows().iter().map(Row::estimated_bytes).sum::<usize>()
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Iterator over one column's values.
    pub fn column<'a>(&'a self, name: &str) -> Result<impl Iterator<Item = &'a Value> + 'a> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows().iter().map(move |row| row.get(idx)))
    }

    /// New collection containing only the named columns, in order.
    pub fn project(&self, names: &[&str]) -> Result<DataCollection> {
        let (schema, indices) = self.schema.project(names)?;
        let rows = self
            .rows()
            .iter()
            .map(|row| Row(indices.iter().map(|&i| row.get(i).clone()).collect()))
            .collect();
        Ok(Self::from_rows_unchecked(schema, rows))
    }

    /// New collection with rows passing the predicate.
    pub fn filter(&self, mut pred: impl FnMut(&Row) -> bool) -> DataCollection {
        let rows = self.rows().iter().filter(|r| pred(r)).cloned().collect();
        Self::from_rows_unchecked(Arc::clone(&self.schema), rows)
    }

    /// New collection produced by mapping each row to a new row under a new
    /// schema. The mapped rows are validated.
    pub fn map(
        &self,
        schema: Arc<Schema>,
        mut f: impl FnMut(&Row) -> Result<Row>,
    ) -> Result<DataCollection> {
        let mut rows = Vec::with_capacity(self.len);
        for (i, row) in self.rows().iter().enumerate() {
            let out = f(row)?;
            validate_row(&schema, &out, i)?;
            rows.push(out);
        }
        Ok(Self::from_rows_unchecked(schema, rows))
    }

    /// First `n` rows (or fewer), sharing them.
    pub fn head(&self, n: usize) -> DataCollection {
        self.slice(0, n.min(self.len))
    }

    /// Rows `[start, end)` as a new collection that shares them.
    ///
    /// # Panics
    /// If the range is reversed or runs past the collection.
    pub fn slice(&self, start: usize, end: usize) -> DataCollection {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} of {} rows",
            self.len
        );
        let mut segments = Vec::new();
        let mut at = 0;
        for segment in &self.segments {
            let (from, to) = (at.max(start), (at + segment.len()).min(end));
            if from < to {
                segments.push(Segment {
                    rows: Arc::clone(&segment.rows),
                    start: segment.start + from - at,
                    end: segment.start + to - at,
                });
            }
            at += segment.len();
            if at >= end {
                break;
            }
        }
        DataCollection {
            schema: Arc::clone(&self.schema),
            segments,
            len: end - start,
        }
    }

    /// Concatenates another collection with an identical schema.
    pub fn concat(&self, other: &DataCollection) -> Result<DataCollection> {
        Self::concat_all([self.clone(), other.clone()])
    }

    /// Concatenates collections with identical schemas, in order, sharing
    /// their rows. The result has the first part's schema.
    ///
    /// # Errors
    /// [`DataflowError::SchemaMismatch`] for no parts or differing schemas.
    pub fn concat_all(parts: impl IntoIterator<Item = DataCollection>) -> Result<DataCollection> {
        let mut parts = parts.into_iter();
        let mut out = parts.next().ok_or_else(|| {
            DataflowError::SchemaMismatch("concat needs at least one collection".to_string())
        })?;
        for part in parts {
            if part.schema != out.schema {
                return Err(DataflowError::SchemaMismatch(
                    "concat requires identical schemas".to_string(),
                ));
            }
            out.len += part.len;
            out.segments.extend(part.segments);
        }
        Ok(out)
    }
}

impl PartialEq for DataCollection {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl fmt::Debug for DataCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataCollection")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

impl fmt::Display for DataCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] ({} rows)", self.schema, self.len)?;
        for row in self.rows().iter().take(5) {
            let cells: Vec<String> = row.values().iter().map(Value::to_string).collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.len > 5 {
            writeln!(f, "  … {} more", self.len - 5)?;
        }
        Ok(())
    }
}

fn validate_row(schema: &Schema, row: &Row, rownum: usize) -> Result<()> {
    if row.len() != schema.len() {
        return Err(DataflowError::SchemaMismatch(format!(
            "row {rownum} has {} values, schema has {} fields",
            row.len(),
            schema.len()
        )));
    }
    for (i, value) in row.values().iter().enumerate() {
        let expected = schema.field(i).dtype;
        if !value.is_null() && !expected.accepts(value.data_type()) {
            return Err(DataflowError::SchemaMismatch(format!(
                "row {rownum} column `{}` expected {expected}, got {}",
                schema.field(i).name,
                value.data_type()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn people() -> DataCollection {
        let schema = Schema::of(&[("name", DataType::Str), ("age", DataType::Int)]);
        DataCollection::new(
            schema,
            vec![
                Row(vec!["ann".into(), 34i64.into()]),
                Row(vec!["bob".into(), 51i64.into()]),
                Row(vec!["cyn".into(), 19i64.into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_arity() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let err =
            DataCollection::new(schema, vec![Row(vec![1i64.into(), 2i64.into()])]).unwrap_err();
        assert!(err.to_string().contains("values"));
    }

    #[test]
    fn new_validates_types() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let err = DataCollection::new(schema, vec![Row(vec!["oops".into()])]).unwrap_err();
        assert!(err.to_string().contains("expected int"));
    }

    #[test]
    fn nulls_allowed_in_typed_columns() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let dc = DataCollection::new(schema, vec![Row(vec![Value::Null])]).unwrap();
        assert_eq!(dc.len(), 1);
    }

    #[test]
    fn project_selects_and_reorders() {
        let dc = people();
        let proj = dc.project(&["age", "name"]).unwrap();
        assert_eq!(proj.schema().field(0).name, "age");
        assert_eq!(proj.row(0).get(0), &Value::Int(34));
        assert_eq!(proj.row(0).get(1), &Value::Str("ann".into()));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let dc = people();
        let adults = dc.filter(|row| row.get(1).as_int().unwrap_or(0) >= 21);
        assert_eq!(adults.len(), 2);
    }

    #[test]
    fn map_validates_output() {
        let dc = people();
        let target = Schema::of(&[("age2", DataType::Int)]);
        let doubled = dc
            .map(Arc::clone(&target), |row| {
                Ok(Row(vec![Value::Int(row.get(1).as_int().unwrap() * 2)]))
            })
            .unwrap();
        assert_eq!(doubled.row(0).get(0), &Value::Int(68));
        let bad = dc.map(target, |_| Ok(Row(vec!["no".into()])));
        assert!(bad.is_err());
    }

    #[test]
    fn split_and_concat_round_trip() {
        let dc = people();
        let (a, b) = (dc.slice(0, 1), dc.slice(1, dc.len()));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        let back = a.concat(&b).unwrap();
        assert_eq!(back, dc);
    }

    #[test]
    fn concat_rejects_different_schemas() {
        let dc = people();
        let other = DataCollection::empty(Schema::of(&[("x", DataType::Int)]));
        assert!(dc.concat(&other).is_err());
    }

    #[test]
    fn column_iterates_one_field() {
        let dc = people();
        let ages: Vec<i64> = dc
            .column("age")
            .unwrap()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(ages, vec![34, 51, 19]);
        assert!(dc.column("salary").is_err());
    }

    #[test]
    fn estimated_bytes_positive_and_monotone() {
        let dc = people();
        let small = dc.head(1).estimated_bytes();
        let full = dc.estimated_bytes();
        assert!(full > small);
        assert!(small > 0);
    }

    #[test]
    fn push_validates() {
        let mut dc = people();
        assert!(dc.push(Row(vec!["dee".into(), Value::Int(40)])).is_ok());
        assert!(dc.push(Row(vec![Value::Int(1), Value::Int(2)])).is_err());
        assert_eq!(dc.len(), 4);
    }

    #[test]
    fn push_leaves_shared_rows_alone() {
        let dc = people();
        let mut grown = dc.clone();
        grown.push(Row(vec!["dee".into(), Value::Int(40)])).unwrap();
        grown.push(Row(vec!["eve".into(), Value::Int(28)])).unwrap();
        assert_eq!(dc.len(), 3);
        assert_eq!(grown.len(), 5);
        assert_eq!(grown.slice(0, 3), dc);
        assert_eq!(grown.row(4).get(0), &Value::Str("eve".into()));
    }

    #[test]
    fn display_truncates_long_collections() {
        let schema = Schema::of(&[("i", DataType::Int)]);
        let rows = (0..10).map(|i| Row(vec![Value::Int(i)])).collect();
        let dc = DataCollection::new(schema, rows).unwrap();
        let shown = dc.to_string();
        assert!(shown.contains("… 5 more"));
    }
}

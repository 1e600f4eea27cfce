//! Minimal RFC-4180-style CSV reading and writing.
//!
//! Supports quoted fields (with embedded commas, quotes, and newlines),
//! typed scanning against a [`Schema`], and header handling. This backs the
//! paper's `CSVScanner` operator (Fig. 1a line 3).

use crate::{DataCollection, DataflowError, Result, Row, Schema, Value};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Parses CSV text into raw string records.
///
/// # Errors
/// [`DataflowError::Csv`] on an unterminated quoted field.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(ch) = chars.next() {
        saw_any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
            continue;
        }
        match ch {
            '"' => in_quotes = true,
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {
                // Swallow the \n of a \r\n pair if present.
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(DataflowError::Csv("unterminated quoted field".into()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    // A trailing newline yields a spurious empty record only when input ends
    // with a bare separator line; an entirely empty input yields nothing.
    if !saw_any {
        records.clear();
    }
    Ok(records)
}

/// Parses CSV text into a typed collection using `schema`, optionally
/// skipping a header row. Fields that fail to parse become [`Value::Null`].
///
/// # Errors
/// [`DataflowError::Csv`] if any record's arity differs from the schema.
pub fn scan(
    input: &str,
    schema: &std::sync::Arc<Schema>,
    has_header: bool,
) -> Result<DataCollection> {
    let records = parse_records(input)?;
    let skip = usize::from(has_header && !records.is_empty());
    let mut rows = Vec::with_capacity(records.len().saturating_sub(skip));
    for (i, record) in records.iter().enumerate().skip(skip) {
        if record.len() != schema.len() {
            return Err(DataflowError::Csv(format!(
                "record {i} has {} fields, schema expects {}",
                record.len(),
                schema.len()
            )));
        }
        let values = record
            .iter()
            .enumerate()
            .map(|(col, raw)| Value::parse_typed(raw, schema.field(col).dtype))
            .collect();
        rows.push(Row(values));
    }
    DataCollection::new(std::sync::Arc::clone(schema), rows)
}

/// Serializes a collection to CSV with a header row.
pub fn to_csv_string(dc: &DataCollection) -> String {
    let mut out = String::new();
    let names: Vec<&str> = dc
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    push_record(&mut out, names.iter().copied());
    for row in dc.rows() {
        let cells: Vec<String> = row.values().iter().map(Value::to_string).collect();
        push_record(&mut out, cells.iter().map(String::as_str));
    }
    out
}

/// Writes a collection to a CSV file with a header row.
pub fn write_file(dc: &DataCollection, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(to_csv_string(dc).as_bytes())?;
    writer.flush()?;
    Ok(())
}

fn push_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;
    use std::sync::Arc;

    #[test]
    fn parses_plain_records() {
        let recs = parse_records("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parses_quotes_commas_and_newlines() {
        let recs = parse_records("\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n").unwrap();
        assert_eq!(recs, vec![vec!["a,b", "say \"hi\"", "two\nlines"]]);
    }

    #[test]
    fn handles_crlf_and_missing_final_newline() {
        let recs = parse_records("a,b\r\nc,d").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse_records("").unwrap().is_empty());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse_records("\"oops").is_err());
    }

    #[test]
    fn scan_types_fields_and_nulls_failures() {
        let schema = Schema::of(&[("age", DataType::Int), ("name", DataType::Str)]);
        let dc = scan("age,name\n34,ann\n?,bob\n", &schema, true).unwrap();
        assert_eq!(dc.len(), 2);
        assert_eq!(dc.row(0).get(0), &Value::Int(34));
        assert_eq!(dc.row(1).get(0), &Value::Null);
    }

    #[test]
    fn scan_rejects_ragged_records() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        assert!(scan("1,2\n3\n", &schema, false).is_err());
    }

    #[test]
    fn round_trip_through_csv() {
        let schema = Schema::of(&[("x", DataType::Str), ("n", DataType::Int)]);
        let dc = DataCollection::new(
            Arc::clone(&schema),
            vec![
                Row(vec!["plain".into(), Value::Int(1)]),
                Row(vec!["with,comma".into(), Value::Int(2)]),
                Row(vec!["with \"quote\"".into(), Value::Int(3)]),
            ],
        )
        .unwrap();
        let text = to_csv_string(&dc);
        let back = scan(&text, &schema, true).unwrap();
        assert_eq!(back, dc);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("helix-csv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let schema = Schema::of(&[("n", DataType::Int)]);
        let dc = DataCollection::new(Arc::clone(&schema), vec![Row(vec![Value::Int(7)])]).unwrap();
        write_file(&dc, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(scan(&text, &schema, true).unwrap(), dc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

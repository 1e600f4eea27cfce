//! Document corpus sources for unstructured-text workflows (the IE task).
//!
//! A corpus is a [`DataCollection`] with schema `(doc_id: int, text: str)`.
//! On disk a corpus is a plain text file with one document per line —
//! mirroring how DeepDive-style IE pipelines ingest article dumps.

use crate::{DataCollection, DataType, Result, Row, Schema, Value};
use std::path::Path;
use std::sync::Arc;

/// Schema shared by all document collections.
pub fn corpus_schema() -> Arc<Schema> {
    Schema::of(&[("doc_id", DataType::Int), ("text", DataType::Str)])
}

/// Builds a corpus collection from in-memory documents.
pub fn corpus_from_docs<S: AsRef<str>>(docs: &[S]) -> DataCollection {
    let rows = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            Row(vec![
                Value::Int(i as i64),
                Value::Str(doc.as_ref().to_string()),
            ])
        })
        .collect();
    DataCollection::from_rows_unchecked(corpus_schema(), rows)
}

/// Reads a one-document-per-line corpus file.
///
/// Empty lines are skipped; document ids are line numbers among the
/// non-empty lines, so ids are stable across re-reads of the same file.
pub fn read_corpus(path: &Path) -> Result<DataCollection> {
    let text = std::fs::read_to_string(path)?;
    let docs: Vec<&str> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    Ok(corpus_from_docs(&docs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_from_docs_assigns_ids() {
        let dc = corpus_from_docs(&["first doc", "second doc"]);
        assert_eq!(dc.len(), 2);
        assert_eq!(dc.row(1).get(0), &Value::Int(1));
        assert_eq!(dc.row(1).get(1).as_str(), Some("second doc"));
    }

    #[test]
    fn file_round_trip_skips_blank_lines() {
        let dir = std::env::temp_dir().join(format!("helix-text-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        std::fs::write(&path, "Alpha story.\n\nBeta story.\n").unwrap();
        let dc = read_corpus(&path).unwrap();
        assert_eq!(dc.len(), 2);
        assert_eq!(dc.row(1).get(1).as_str(), Some("Beta story."));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

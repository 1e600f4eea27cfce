//! Dictionary-interning feature space.
//!
//! Helix keeps pre-processing output "in human-readable format for ease of
//! development and automatically converts it into a compatible format for
//! ML" (paper §2.1). The conversion point is this type: named features
//! (`"edu=Masters"`, `"ageBucket=3"`, `"eduXocc=Masters×Tech"`) are interned
//! to dense column indices shared between training and test collections.

use crate::dataset::LabeledExample;
use crate::vector::SparseVector;
use crate::{MlError, Result};
use helix_dataflow::fx::FxHashMap;

/// Bidirectional mapping between feature names and column indices.
#[derive(Debug, Clone, Default)]
pub struct FeatureSpace {
    by_name: FxHashMap<String, u32>,
    names: Vec<String>,
    frozen: bool,
}

impl FeatureSpace {
    /// An empty, unfrozen space.
    pub fn new() -> Self {
        FeatureSpace::default()
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no features are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its stable index.
    ///
    /// # Errors
    /// [`MlError::FrozenFeatureSpace`] if the space is frozen and the name
    /// is new (test-time features unseen at training time should be dropped
    /// by the caller via [`FeatureSpace::lookup`], not interned).
    pub fn intern(&mut self, name: &str) -> Result<u32> {
        if let Some(&idx) = self.by_name.get(name) {
            return Ok(idx);
        }
        if self.frozen {
            return Err(MlError::FrozenFeatureSpace(name.to_string()));
        }
        let idx = self.names.len() as u32;
        self.by_name.insert(name.to_string(), idx);
        self.names.push(name.to_string());
        Ok(idx)
    }

    /// Index of an already-interned feature.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Name of the feature at `index`.
    pub fn name(&self, index: u32) -> Option<&str> {
        self.names.get(index as usize).map(String::as_str)
    }

    /// All names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Prevents further interning (call after the training pass).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the space is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Builds a sparse vector from `(name, value)` pairs, interning names.
    pub fn vectorize<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Result<SparseVector> {
        let pairs = pairs.into_iter();
        let mut indexed = Vec::with_capacity(pairs.size_hint().0);
        for (name, value) in pairs {
            indexed.push((self.intern(name)?, value));
        }
        Ok(SparseVector::from_pairs(indexed))
    }

    /// Builds a sparse vector from `(name, value)` pairs, silently dropping
    /// names missing from a frozen space (standard test-time behaviour).
    pub fn vectorize_frozen<'a>(
        &self,
        pairs: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> SparseVector {
        let indexed = pairs
            .into_iter()
            .filter_map(|(name, value)| self.lookup(name).map(|idx| (idx, value)))
            .collect();
        SparseVector::from_pairs(indexed)
    }

    /// Builds a labeled example, interning names.
    pub fn example<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a str, f64)>,
        label: f64,
    ) -> Result<LabeledExample> {
        Ok(LabeledExample {
            features: self.vectorize(pairs)?,
            label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dedupes() {
        let mut fs = FeatureSpace::new();
        let a = fs.intern("edu=Masters").unwrap();
        let b = fs.intern("age=42").unwrap();
        assert_eq!(fs.intern("edu=Masters").unwrap(), a);
        assert_ne!(a, b);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.name(a), Some("edu=Masters"));
    }

    #[test]
    fn freeze_blocks_new_names_only() {
        let mut fs = FeatureSpace::new();
        fs.intern("known").unwrap();
        fs.freeze();
        assert!(fs.intern("known").is_ok());
        assert!(matches!(
            fs.intern("novel"),
            Err(MlError::FrozenFeatureSpace(_))
        ));
    }

    #[test]
    fn vectorize_frozen_drops_unknowns() {
        let mut fs = FeatureSpace::new();
        fs.intern("a").unwrap();
        fs.freeze();
        let v = fs.vectorize_frozen([("a", 1.0), ("b", 9.0)]);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(0), 1.0);
    }

    #[test]
    fn vectorize_merges_duplicate_names() {
        let mut fs = FeatureSpace::new();
        let v = fs.vectorize([("tok=the", 1.0), ("tok=the", 1.0)]).unwrap();
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(0), 2.0);
    }

    #[test]
    fn example_carries_label() {
        let mut fs = FeatureSpace::new();
        let ex = fs.example([("x", 1.0)], 1.0).unwrap();
        assert_eq!(ex.label, 1.0);
        assert_eq!(ex.features.nnz(), 1);
    }
}

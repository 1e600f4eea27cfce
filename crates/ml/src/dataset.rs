//! Labeled datasets for training and evaluation.

use crate::vector::SparseVector;
use crate::{MlError, Result};

/// One training or evaluation example.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledExample {
    /// Sparse feature vector.
    pub features: SparseVector,
    /// Label: 0/1 for binary classification, a real value for regression,
    /// a class index (as `f64`) for multi-class.
    pub label: f64,
}

/// A set of labeled examples with a fixed feature dimensionality.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    examples: Vec<LabeledExample>,
    dim: u32,
}

impl Dataset {
    /// Builds a dataset; `dim` is the max of the declared dimensionality
    /// and what the examples actually use.
    pub fn new(examples: Vec<LabeledExample>, dim: u32) -> Self {
        let used = examples
            .iter()
            .map(|ex| ex.features.width())
            .max()
            .unwrap_or(0);
        Dataset {
            examples,
            dim: dim.max(used),
        }
    }

    /// The examples.
    pub fn examples(&self) -> &[LabeledExample] {
        &self.examples
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Fails when the dataset cannot be trained on.
    pub fn check_trainable(&self) -> Result<()> {
        if self.examples.is_empty() {
            return Err(MlError::InvalidInput("empty dataset".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(idx: u32, label: f64) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(vec![(idx, 1.0)]),
            label,
        }
    }

    #[test]
    fn dim_expands_to_cover_examples() {
        let ds = Dataset::new(vec![ex(9, 1.0)], 3);
        assert_eq!(ds.dim(), 10);
        let ds = Dataset::new(vec![ex(1, 0.0)], 30);
        assert_eq!(ds.dim(), 30);
    }

    #[test]
    fn empty_dataset_not_trainable() {
        assert!(Dataset::default().check_trainable().is_err());
        assert!(Dataset::new(vec![ex(0, 1.0)], 1).check_trainable().is_ok());
    }
}

//! Sparse feature vectors.

use crate::{MlError, Result};

/// A sparse vector stored as sorted `(index, value)` pairs.
///
/// Feature vectors produced by one-hot and bag-of-words extraction are
/// overwhelmingly sparse, so all learners operate on this representation;
/// dense weight vectors live on the model side.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// An all-zero vector.
    pub fn empty() -> Self {
        SparseVector::default()
    }

    /// Builds from parallel index/value slices.
    ///
    /// # Errors
    /// [`MlError::InvalidInput`] if lengths differ, indices are unsorted, or
    /// an index repeats.
    pub fn new(indices: Vec<u32>, values: Vec<f64>) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(MlError::InvalidInput(format!(
                "{} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        for window in indices.windows(2) {
            if window[0] >= window[1] {
                return Err(MlError::InvalidInput(
                    "indices must be strictly increasing".into(),
                ));
            }
        }
        Ok(SparseVector { indices, values })
    }

    /// Builds from unsorted pairs, summing duplicate indices.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVector { indices, values }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector is all zeros.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterator over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Largest index plus one, or 0 for an empty vector.
    pub fn width(&self) -> u32 {
        self.indices.last().map(|&i| i + 1).unwrap_or(0)
    }

    /// Dot product against a dense weight slice. Indices beyond the slice
    /// contribute zero (features unseen at training time).
    pub fn dot(&self, dense: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (i, v) in self.iter() {
            if let Some(w) = dense.get(i as usize) {
                sum += w * v;
            }
        }
        sum
    }

    /// Value at `index` (zero if absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_order_and_duplicates() {
        assert!(SparseVector::new(vec![0, 2, 5], vec![1.0, 2.0, 3.0]).is_ok());
        assert!(SparseVector::new(vec![2, 0], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(vec![0], vec![]).is_err());
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (1, 2.0), (5, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(1), 2.0);
        assert_eq!(v.get(0), 0.0);
    }

    #[test]
    fn dot_ignores_out_of_range() {
        let v = SparseVector::from_pairs(vec![(0, 2.0), (10, 5.0)]);
        let weights = vec![3.0, 0.0, 0.0];
        assert_eq!(v.dot(&weights), 6.0);
    }

    #[test]
    fn width_is_largest_index_plus_one() {
        let v = SparseVector::from_pairs(vec![(0, 3.0), (4, 4.0)]);
        assert_eq!(v.width(), 5);
        assert_eq!(SparseVector::empty().width(), 0);
    }
}

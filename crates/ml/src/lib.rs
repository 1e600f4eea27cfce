//! Machine-learning substrate for Helix.
//!
//! The paper's `Learner` and `Reducer` operators (Fig. 1a lines 16–21) are
//! backed by this crate: sparse feature vectors, a dictionary-interning
//! [`FeatureSpace`] that converts Helix's
//! human-readable pre-processing output into ML-ready vectors (§2.1), a
//! small family of learners (logistic regression, linear regression,
//! Bernoulli naive Bayes, averaged perceptron) and evaluation metrics.
//!
//! Models implement a compact binary encoding ([`model::Model::encode`]) so
//! that *trained models are first-class intermediate results*: Helix's
//! materialization optimizer can persist and reload them like any other
//! node output.

#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod features;
pub mod linreg;
pub mod logreg;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod perceptron;
pub mod vector;

pub use dataset::{Dataset, LabeledExample};
pub use error::MlError;
pub use features::FeatureSpace;
pub use model::Model;
pub use vector::SparseVector;

/// Convenience alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, MlError>;

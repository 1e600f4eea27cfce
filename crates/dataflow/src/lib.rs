//! In-memory dataflow substrate for Helix.
//!
//! The Helix paper executes workflows on Spark supplemented with JVM
//! libraries (§2.3). This crate is the single-node stand-in: typed rows
//! ([`Value`], [`Schema`], [`Row`]) grouped into [`DataCollection`]s, with
//!
//! * a compact self-describing [binary codec](codec) used to materialize
//!   intermediate results to disk,
//! * a small [CSV](csv) reader/writer for structured sources,
//! * a [`text`] source for document corpora,
//! * an [FxHash-style hasher](fx) shared by the workspace for hot,
//!   non-adversarial hashing (see the Rust Performance Book's hashing
//!   chapter).
//!
//! Everything the Helix optimizers need from the substrate — per-operator
//! output sizes and real compute/IO durations — falls out of these types.

#![warn(missing_docs)]

pub mod codec;
pub mod collection;
pub mod csv;
pub mod error;
pub mod fx;
pub mod schema;
pub mod text;
pub mod value;

pub use collection::{DataCollection, Row, RowIter, Rows};
pub use error::DataflowError;
pub use schema::{DataType, Field, Schema};
pub use value::Value;

/// Convenience alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, DataflowError>;

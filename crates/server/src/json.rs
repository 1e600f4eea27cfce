//! JSON wire codec — re-export of the shared [`helix_json`] crate.
//!
//! The codec started life here as the server's private wire format; the
//! durable tier promoted it to its own crate (`crates/json`) so the core
//! persistence layer (meta and session logs and snapshots)
//! and `bench_guard` can share one parser. This module stays as a thin
//! re-export so existing `helix_server::json::Json` imports keep
//! working.

pub use helix_json::{Json, JsonError};

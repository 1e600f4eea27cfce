//! One home for every `HELIX_*` environment knob.
//!
//! This module is the only place core consults the environment, and only
//! for the knobs something in the repository actually sets: the CI
//! equivalence matrix forces `HELIX_PARALLELISM` and `HELIX_DURABILITY`,
//! and `tests/incremental.rs` shrinks `HELIX_DATA_CHUNK_ROWS`. Every
//! other tunable is a plain [`crate::EngineConfig`] field with a
//! `DEFAULT_*` constant and a `with_*` builder. The knob table lives in
//! docs/API.md § "Environment variables".
//!
//! | Variable                | Meaning                                  |
//! |-------------------------|------------------------------------------|
//! | `HELIX_PARALLELISM`     | Worker threads (≥ 1); default = cores    |
//! | `HELIX_DURABILITY`      | `volatile` \| `wal` \| `wal-nosync`      |
//! | `HELIX_DATA_CHUNK_ROWS` | Rows per data chunk (≥ 1); default = 512 |

use crate::store::Durability;

/// Parses an environment variable as a positive integer; `None` when
/// unset, unparseable, or zero.
fn positive(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// `HELIX_PARALLELISM`, defaulting to the machine's available
/// parallelism. (The CI equivalence matrix forces `1` and `2` this way.)
pub fn parallelism() -> usize {
    positive("HELIX_PARALLELISM").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `HELIX_DURABILITY` (`volatile` | `wal` | `wal-nosync`), defaulting to
/// [`Durability::Volatile`]. An unrecognized value warns and falls back
/// to volatile rather than refusing to start.
pub fn durability() -> Durability {
    match std::env::var("HELIX_DURABILITY") {
        Ok(value) => Durability::from_env_value(&value).unwrap_or_else(|| {
            eprintln!(
                "helix: unrecognized HELIX_DURABILITY value `{value}` \
                 (expected volatile | wal | wal-nosync); using volatile"
            );
            Durability::Volatile
        }),
        Err(_) => Durability::Volatile,
    }
}

/// `HELIX_DATA_CHUNK_ROWS`: non-blank lines per data chunk for
/// incremental signing (see [`crate::data`]), defaulting to
/// [`crate::data::DEFAULT_DATA_CHUNK_ROWS`].
pub fn data_chunk_rows() -> usize {
    positive("HELIX_DATA_CHUNK_ROWS").unwrap_or(crate::data::DEFAULT_DATA_CHUNK_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_values_parse() {
        assert_eq!(
            Durability::from_env_value("volatile"),
            Some(Durability::Volatile)
        );
        assert_eq!(Durability::from_env_value("WAL"), Some(Durability::wal()));
        assert_eq!(
            Durability::from_env_value("wal-nosync"),
            Some(Durability::wal_nosync())
        );
        assert_eq!(Durability::from_env_value("bogus"), None);
    }
}

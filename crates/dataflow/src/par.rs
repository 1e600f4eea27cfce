//! Parallel row transforms over `crossbeam` scoped threads.
//!
//! Helix's Spark backend parallelizes per-partition work; this module is the
//! single-node analogue. Work is split into contiguous chunks, one per
//! worker, and results are reassembled in order so parallel execution is
//! deterministic — a requirement for Helix's reuse correctness (a
//! materialized result must equal its recomputation).

use crate::{DataCollection, DataflowError, Result, Row, Rows, Schema};
use std::sync::Arc;

/// Number of workers to use: the machine's available parallelism, capped so
/// tiny inputs don't pay thread spawn costs.
pub fn default_workers(rows: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Below ~4k rows per worker the spawn overhead dominates.
    hw.min(rows / 4096 + 1)
}

/// Maps rows in parallel with a fallible per-row function, preserving order.
///
/// The output schema is *not* validated per-row here (the typed operator
/// layer in `helix-core` validates at boundaries); this keeps the hot loop
/// allocation-free apart from the output rows themselves.
pub fn par_map_rows<F>(input: &DataCollection, schema: Arc<Schema>, f: F) -> Result<DataCollection>
where
    F: Fn(&Row) -> Result<Row> + Sync,
{
    let rows = input.rows();
    let workers = default_workers(rows.len());
    if workers <= 1 {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            out.push(f(row)?);
        }
        return Ok(DataCollection::from_rows_unchecked(schema, out));
    }

    let chunked = run_chunked(input, workers, |chunk| {
        let mut out = Vec::with_capacity(chunk.len());
        for row in chunk {
            out.push(f(row)?);
        }
        Ok(out)
    })?;
    let mut rows_out = Vec::with_capacity(rows.len());
    for chunk in chunked {
        rows_out.extend(chunk);
    }
    Ok(DataCollection::from_rows_unchecked(schema, rows_out))
}

/// Maps rows in parallel where each input row may produce several output
/// rows (flat map), preserving input order.
pub fn par_flat_map_rows<F>(
    input: &DataCollection,
    schema: Arc<Schema>,
    f: F,
) -> Result<DataCollection>
where
    F: Fn(&Row) -> Result<Vec<Row>> + Sync,
{
    let rows = input.rows();
    let workers = default_workers(rows.len());
    if workers <= 1 {
        let mut out = Vec::new();
        for row in rows {
            out.extend(f(row)?);
        }
        return Ok(DataCollection::from_rows_unchecked(schema, out));
    }

    let chunked = run_chunked(input, workers, |chunk| {
        let mut out = Vec::new();
        for row in chunk {
            out.extend(f(row)?);
        }
        Ok(out)
    })?;
    let mut rows_out = Vec::new();
    for chunk in chunked {
        rows_out.extend(chunk);
    }
    Ok(DataCollection::from_rows_unchecked(schema, rows_out))
}

/// Splits `rows` into one contiguous chunk per worker and runs `work` on
/// each chunk in a scoped thread, returning chunk results in input order.
///
/// A panicking worker does **not** abort the process: the panic payload is
/// converted into [`DataflowError::WorkerPanic`] and propagated like any
/// other row error (the chunk-order-first failure wins, so the error a
/// caller sees does not depend on thread scheduling).
fn run_chunked<W>(input: &DataCollection, workers: usize, work: W) -> Result<Vec<Vec<Row>>>
where
    W: Fn(Rows<'_>) -> Result<Vec<Row>> + Sync,
{
    let chunk_size = input.len().div_ceil(workers);
    let chunks: Vec<Rows<'_>> = (0..input.len())
        .step_by(chunk_size)
        .map(|start| input.rows_range(start, (start + chunk_size).min(input.len())))
        .collect();
    let mut results: Vec<Result<Vec<Row>>> = Vec::with_capacity(chunks.len());

    crossbeam::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let work = &work;
                scope.spawn(move |_| work(*chunk))
            })
            .collect();
        for handle in handles {
            results.push(handle.join().unwrap_or_else(|payload| {
                Err(DataflowError::WorkerPanic(panic_message(&payload)))
            }));
        }
    })
    .map_err(|payload| DataflowError::WorkerPanic(panic_message(&payload)))?;

    results.into_iter().collect()
}

/// Renders a worker panic payload as a message (shared by every scoped
/// thread pool in the workspace — see `helix-core`'s scheduler).
pub fn panic_message(payload: &crossbeam::PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    fn numbers(n: i64) -> DataCollection {
        let schema = Schema::of(&[("n", DataType::Int)]);
        let rows = (0..n).map(|i| Row(vec![Value::Int(i)])).collect();
        DataCollection::from_rows_unchecked(schema, rows)
    }

    #[test]
    fn par_map_preserves_order() {
        let input = numbers(10_000);
        let schema = Schema::of(&[("sq", DataType::Int)]);
        let out = par_map_rows(&input, schema, |row| {
            let n = row.get(0).as_int().unwrap();
            Ok(Row(vec![Value::Int(n * n)]))
        })
        .unwrap();
        assert_eq!(out.len(), 10_000);
        for (i, row) in out.rows().iter().enumerate() {
            assert_eq!(row.get(0).as_int().unwrap(), (i * i) as i64);
        }
    }

    #[test]
    fn par_map_propagates_errors() {
        let input = numbers(10_000);
        let schema = Schema::of(&[("n", DataType::Int)]);
        let result = par_map_rows(&input, schema, |row| {
            if row.get(0).as_int().unwrap() == 8_888 {
                Err(crate::DataflowError::Udf("boom".into()))
            } else {
                Ok(row.clone())
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_flat_map_expands_rows_in_order() {
        let input = numbers(5_000);
        let schema = Schema::of(&[("n", DataType::Int)]);
        let out = par_flat_map_rows(&input, schema, |row| {
            let n = row.get(0).as_int().unwrap();
            Ok(vec![Row(vec![Value::Int(n)]), Row(vec![Value::Int(-n)])])
        })
        .unwrap();
        assert_eq!(out.len(), 10_000);
        assert_eq!(out.row(0).get(0).as_int(), Some(0));
        assert_eq!(out.row(3).get(0).as_int(), Some(-1));
    }

    #[test]
    fn empty_input_is_fine() {
        let input = numbers(0);
        let schema = Schema::of(&[("n", DataType::Int)]);
        let out = par_map_rows(&input, schema, |row| Ok(row.clone())).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_closure_returns_error_not_abort() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // single-core: the sequential path panics normally
        }
        let input = numbers(50_000); // large enough to take the parallel path
        let schema = Schema::of(&[("n", DataType::Int)]);
        let result = par_map_rows(&input, Arc::clone(&schema), |row| {
            if row.get(0).as_int().unwrap() == 42_000 {
                panic!("row 42000 exploded");
            }
            Ok(row.clone())
        });
        let err = result.expect_err("panic must surface as an error");
        assert!(
            matches!(&err, crate::DataflowError::WorkerPanic(msg) if msg.contains("exploded")),
            "got: {err}"
        );
        // The flat-map variant shares the machinery; spot-check it too.
        let result = par_flat_map_rows(&input, schema, |row| {
            if row.get(0).as_int().unwrap() == 1_000 {
                panic!("flat-map exploded");
            }
            Ok(vec![row.clone()])
        });
        assert!(result.is_err());
    }

    #[test]
    fn panic_and_error_mix_prefers_chunk_order() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        // An early-chunk Err and a late-chunk panic: the Err wins because
        // results are collected in chunk order.
        let input = numbers(50_000);
        let schema = Schema::of(&[("n", DataType::Int)]);
        let err = par_map_rows(&input, schema, |row| {
            let n = row.get(0).as_int().unwrap();
            if n == 10 {
                return Err(crate::DataflowError::Udf("early error".into()));
            }
            if n == 49_999 {
                panic!("late panic");
            }
            Ok(row.clone())
        })
        .unwrap_err();
        assert!(err.to_string().contains("early error"), "got: {err}");
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // Force both paths by size: small input takes the sequential path,
        // large the parallel one; results must be identical functions.
        let f = |row: &Row| -> Result<Row> {
            Ok(Row(vec![Value::Int(row.get(0).as_int().unwrap() + 1)]))
        };
        let small = numbers(10);
        let big = numbers(50_000);
        let schema = Schema::of(&[("n", DataType::Int)]);
        let small_out = par_map_rows(&small, Arc::clone(&schema), f).unwrap();
        assert_eq!(small_out.row(9).get(0).as_int(), Some(10));
        let big_out = par_map_rows(&big, schema, f).unwrap();
        assert_eq!(big_out.row(49_999).get(0).as_int(), Some(50_000));
    }
}

//! Durability overhead on the store's put path, recovery (reopen) cost,
//! and the store's read path with and without its decoded-read cache.
//!
//! Three groups:
//!
//! * `durability_put` — one materialization (encode + write + rename +
//!   ledger commit) of a fixed ~8 KB collection under each durability
//!   setting: `volatile` (no WAL), `wal_nosync` (logged, OS-buffered),
//!   and `wal_fsync` (logged, fsync'd per record). The CI gate holds the
//!   `volatile` row within 1.05x of the committed baseline — the durable
//!   tier must cost nothing when switched off — and asserts
//!   volatile ≤ wal_fsync within the run (the fsync tax is real, so if
//!   the ordering inverts the measurement is broken).
//! * `durability_recovery` — wall time of `StoreOptions::open` over a
//!   WAL directory holding several hundred committed entries: the
//!   restart latency a served deployment pays before it can answer.
//! * `store_get` — one whole-output read of a census-sized output (the
//!   serving loop's 10 k-row `predictions`): `decode/<n>` reads a fresh
//!   signature per sample (file read, checksums, decode, free), and
//!   `cached/<n>` a signature already read twice, which the store answers
//!   from memory. The CI gate holds `cached` under half of `decode`, so a
//!   cache that silently stops hitting fails the build. The same pair for
//!   one row group — a data chunk a delta run reuses — is
//!   `group_decode` (header and group read, checksum, decode) and
//!   `group_cached`, gated the same way.
//!
//! Run with `cargo bench -p helix-bench --bench durability`. Set
//! `HELIX_BENCH_FAST=1` for the reduced CI configuration and
//! `HELIX_BENCH_JSON=path.json` to capture machine-readable results.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use helix_core::signature::Signature;
use helix_core::store::{Durability, StoreOptions};
use helix_core::NodeOutput;
use helix_dataflow::codec::GroupSpec;
use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
use std::path::PathBuf;

fn fast_mode() -> bool {
    std::env::var_os("HELIX_BENCH_FAST").is_some_and(|v| v != "0")
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-bench-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A ~8 KB collection: big enough that encode/write dominate fixed
/// syscall overhead, small enough that thousands of puts fit any runner.
fn payload() -> NodeOutput {
    let schema = Schema::of(&[("x", DataType::Int), ("y", DataType::Float)]);
    let rows = (0..500)
        .map(|i| Row(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]))
        .collect();
    NodeOutput::Data(DataCollection::new(schema, rows).unwrap())
}

/// `rows` rows shaped like the Census workflow's `predictions` output:
/// the split column and the label, score and predicted class.
fn predictions(rows: usize) -> NodeOutput {
    let rows = (0..rows)
        .map(|i| {
            let split = if i % 5 == 0 { "test" } else { "train" };
            let score = (i % 97) as f64 / 97.0;
            Row(vec![
                Value::Str(split.into()),
                Value::Float((i % 2) as f64),
                Value::Float(score),
                Value::Float(f64::from(score > 0.5)),
            ])
        })
        .collect();
    NodeOutput::Data(DataCollection::new(helix_core::exec::predictions_schema(), rows).unwrap())
}

fn bench_durability(c: &mut Criterion) {
    let samples = if fast_mode() { 10 } else { 20 };

    let mut group = c.benchmark_group("durability_put");
    group.sample_size(samples);
    for (label, durability) in [
        ("volatile", Durability::Volatile),
        ("wal_nosync", Durability::wal_nosync()),
        ("wal_fsync", Durability::wal()),
    ] {
        let store = StoreOptions::new(bench_dir(&format!("put-{label}")))
            .budget_bytes(1 << 30)
            .durability(durability)
            .open()
            .unwrap();
        let output = payload();
        // Fresh signatures per put: every sample is a first-time
        // materialization, never an overwrite.
        let mut next_sig = 1u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                next_sig += 1;
                store.put(Signature(next_sig), &output).unwrap()
            })
        });
    }
    group.finish();

    // Reopen cost over a populated WAL directory. The first open compacts
    // the log into the snapshot, so steady state (what the samples
    // measure) is a snapshot load plus an empty-tail replay.
    let mut group = c.benchmark_group("durability_recovery");
    group.sample_size(samples);
    let entries = if fast_mode() { 128u64 } else { 512 };
    let dir = bench_dir("recovery");
    {
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 30)
            .durability(Durability::wal_nosync())
            .open()
            .unwrap();
        let output = payload();
        for sig in 1..=entries {
            store.put(Signature(sig), &output).unwrap();
        }
    }
    group.bench_with_input(
        BenchmarkId::new("open", entries),
        &entries,
        |b, &entries| {
            b.iter(|| {
                let store = StoreOptions::new(&dir)
                    .budget_bytes(1 << 30)
                    .durability(Durability::wal_nosync())
                    .open()
                    .unwrap();
                assert_eq!(store.len(), entries as usize);
                store
            })
        },
    );
    group.finish();

    let mut group = c.benchmark_group("store_get");
    group.sample_size(samples);
    let rows = 10_000usize;
    let store = StoreOptions::new(bench_dir("get"))
        .budget_bytes(1 << 30)
        .open()
        .unwrap();
    let output = predictions(rows);
    let mut next_sig = 1u64;
    group.bench_with_input(BenchmarkId::new("decode", rows), &rows, |b, _| {
        b.iter_batched(
            || {
                next_sig += 1;
                store.put(Signature(next_sig), &output).unwrap();
                Signature(next_sig)
            },
            |sig| store.get(sig).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // The second read admits the output; every sample after is a hit.
    let cached = Signature(u64::MAX);
    store.put(cached, &output).unwrap();
    for _ in 0..2 {
        store.get(cached).unwrap();
    }
    group.bench_with_input(BenchmarkId::new("cached", rows), &rows, |b, _| {
        b.iter(|| store.get(cached).unwrap())
    });

    // One 512-row chunk (the default data chunk) out of a four-chunk node
    // file, keyed as the engine keys chunks.
    let chunk = 512;
    let chunked = predictions(4 * chunk);
    let groups = |base: u64| -> Vec<GroupSpec> {
        (0..4)
            .map(|k| GroupSpec {
                start: k * chunk,
                end: (k + 1) * chunk,
                key: base + k as u64,
            })
            .collect()
    };
    let mut next_base = 1u64 << 32;
    group.bench_function("group_decode", |b| {
        b.iter_batched(
            || {
                next_base += 4;
                store
                    .put_grouped(Signature(next_base), &chunked, &groups(next_base + 1), &[])
                    .unwrap();
                Signature(next_base + 2)
            },
            |psig| store.get(psig).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let base = u64::MAX - 8;
    store
        .put_grouped(Signature(base), &chunked, &groups(base + 1), &[])
        .unwrap();
    let psig = Signature(base + 2);
    for _ in 0..2 {
        store.get(psig).unwrap();
    }
    group.bench_function("group_cached", |b| b.iter(|| store.get(psig).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);

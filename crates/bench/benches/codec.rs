//! Binary-codec throughput: encode/decode speed bounds materialization
//! cost, which the online optimizer's `l_i` estimates track.
//!
//! `encode` and `decode` come in two forms with the same feature pairs:
//! `typed` holds them as `Value::Feats` cells (what the operators write),
//! `legacy` as nested `[name, value]` lists (what store files written
//! before feature cells hold). CI gates `decode/typed ≤ decode/legacy`.
//!
//! `encode_grouped` and `decode_group` are the store's chunk-aligned
//! shape: a 38 000-row node of typed cells written as 75 row groups (one
//! per data chunk, as `census_script` writes them), and one of those
//! groups read back on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use helix_dataflow::codec::{self, GroupSpec};
use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
use std::sync::Arc;

fn collection(rows: usize, typed: bool) -> DataCollection {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("score", DataType::Float),
        ("feats", DataType::List),
    ]);
    let names: Vec<Arc<str>> = (0..50).map(|k| Arc::from(format!("f{k}"))).collect();
    let bias: Arc<str> = Arc::from("bias");
    let rows = (0..rows)
        .map(|i| {
            let pairs = [(&names[i % 50], 1.0), (&bias, 1.0)];
            let feats = if typed {
                Value::Feats(pairs.map(|(n, v)| (Arc::clone(n), v)).to_vec())
            } else {
                Value::List(
                    pairs
                        .map(|(n, v)| Value::List(vec![Value::Str(n.to_string()), Value::Float(v)]))
                        .to_vec(),
                )
            };
            Row(vec![
                Value::Int(i as i64),
                Value::Str(format!("entity-{i}")),
                Value::Float(i as f64 * 0.25),
                feats,
            ])
        })
        .collect();
    DataCollection::from_rows_unchecked(schema, rows)
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for &rows in &[1_000usize, 20_000] {
        for (form, typed) in [("typed", true), ("legacy", false)] {
            let dc = collection(rows, typed);
            let encoded = codec::encode(&dc);
            group.throughput(Throughput::Bytes(encoded.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("encode/{form}"), rows),
                &dc,
                |b, dc| b.iter(|| codec::encode(dc).len()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("decode/{form}"), rows),
                &encoded,
                |b, bytes| b.iter(|| codec::decode(bytes).unwrap().len()),
            );
        }
    }

    let (rows, groups) = (38_000usize, 75usize);
    let specs: Vec<GroupSpec> = (0..groups)
        .map(|k| GroupSpec {
            start: k * rows / groups,
            end: (k + 1) * rows / groups,
            key: k as u64 + 1,
        })
        .collect();
    let dc = collection(rows, true);
    let encoded = codec::encode_grouped(&dc, &specs);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("encode_grouped", format!("{rows}x{groups}")),
        &dc,
        |b, dc| b.iter(|| codec::encode_grouped(dc, &specs).len()),
    );
    let header = codec::read_header(&encoded).unwrap();
    let range = header.group_range(0, encoded.len() as u64).unwrap();
    let one = &encoded[range.start as usize..range.end as usize];
    group.throughput(Throughput::Bytes((header.len + one.len()) as u64));
    group.bench_with_input(
        BenchmarkId::new("decode_group", format!("{}rows", specs[0].end)),
        &encoded,
        |b, bytes| {
            b.iter(|| {
                let header = codec::read_header(bytes).unwrap();
                codec::decode_group(&header, 0, one).unwrap().len()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);

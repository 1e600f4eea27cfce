//! Operator execution: runs one [`OperatorKind`] over its parents' outputs.
//!
//! Feature fragments flow between extractor operators as the
//! human-readable `(name, value)` pairs the paper's pre-processing data
//! structure keeps (§2.1), one [`Value::Feats`] cell per row; the `Train`
//! and `Apply` operators are the only points where they become ML-ready
//! sparse vectors.

use crate::ops::{
    EvalSpec, ExtractorKind, LearnerSpec, MetricKind, ModelType, NodeOutput, OperatorKind,
    TrainedModel,
};
use crate::{HelixError, Result, SPLIT_COL, SPLIT_TEST, SPLIT_TRAIN};
use helix_dataflow::fx::{FxHashSet, FxHasher};
use helix_dataflow::{csv, DataCollection, DataType, Row, Schema, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;

/// Schema of extractor outputs: one `feats` list per input row.
pub fn feats_schema() -> Arc<Schema> {
    Schema::of(&[("feats", DataType::List)])
}

/// Schema of assembled learner inputs.
pub fn assembled_schema() -> Arc<Schema> {
    Schema::of(&[
        (SPLIT_COL, DataType::Str),
        ("label", DataType::Float),
        ("feats", DataType::List),
    ])
}

/// Schema of prediction outputs.
pub fn predictions_schema() -> Arc<Schema> {
    Schema::of(&[
        (SPLIT_COL, DataType::Str),
        ("label", DataType::Float),
        ("score", DataType::Float),
        ("pred", DataType::Float),
    ])
}

/// Schema of evaluation outputs.
pub fn metrics_schema() -> Arc<Schema> {
    Schema::of(&[("metric", DataType::Str), ("value", DataType::Float)])
}

/// One `(name, value)` pair of a [`Value::Feats`] cell.
pub type Feature = (Arc<str>, f64);

/// Builds a `feats` cell from `(name, value)` pairs.
pub fn features<N: Into<Arc<str>>>(pairs: impl IntoIterator<Item = (N, f64)>) -> Value {
    Value::Feats(
        pairs
            .into_iter()
            .map(|(name, value)| (name.into(), value))
            .collect(),
    )
}

/// The `(name, value)` pairs of a `feats` cell: borrowed from a
/// [`Value::Feats`] cell, or read from the older form, a list of
/// `[name, value]` lists — store files written before feature cells
/// existed, and UDFs that still build lists, hold that form.
pub fn feature_pairs(cell: &Value) -> Result<Cow<'_, [Feature]>> {
    let items = match cell {
        Value::Feats(pairs) => return Ok(Cow::Borrowed(pairs)),
        Value::List(items) => items,
        _ => return Err(HelixError::Exec("feats cell is not a list".into())),
    };
    let mut pairs = Vec::with_capacity(items.len());
    for item in items {
        let pair = item
            .as_list()
            .ok_or_else(|| HelixError::Exec("feature pair is not a list".into()))?;
        if pair.len() != 2 {
            return Err(HelixError::Exec(format!(
                "feature pair has {} items",
                pair.len()
            )));
        }
        let name = pair[0]
            .as_str()
            .ok_or_else(|| HelixError::Exec("feature name is not a string".into()))?;
        let value = pair[1]
            .as_f64()
            .ok_or_else(|| HelixError::Exec("feature value is not numeric".into()))?;
        pairs.push((Arc::from(name), value));
    }
    Ok(Cow::Owned(pairs))
}

/// Feature names an operator builds row by row, interned so that each
/// distinct name is allocated once per piece and its cells share it.
#[derive(Default)]
struct Names {
    seen: FxHashSet<Arc<str>>,
    buf: String,
}

impl Names {
    fn get(&mut self, name: fmt::Arguments<'_>) -> Arc<str> {
        self.buf.clear();
        self.buf
            .write_fmt(name)
            .expect("formatting into a String cannot fail");
        if let Some(known) = self.seen.get(self.buf.as_str()) {
            return Arc::clone(known);
        }
        let fresh: Arc<str> = Arc::from(self.buf.as_str());
        self.seen.insert(Arc::clone(&fresh));
        fresh
    }
}

/// Executes `kind` over parent outputs (in wiring order).
///
/// For partitionable operators this is exactly
/// [`execute_slice`]`(kind, name, inputs, None, 0, n)` — one code path, so a
/// partitioned run concatenating slice outputs is byte-identical to a
/// whole-node run by construction.
pub fn execute(kind: &OperatorKind, name: &str, inputs: &[&NodeOutput]) -> Result<NodeOutput> {
    let end = partitionable_rows(kind, inputs).unwrap_or(0);
    execute_slice(kind, name, inputs, None, 0, end)
}

/// Rows over which `kind` may be split into row-range partitions, or
/// `None` if the operator must run whole.
///
/// Partitionable operators are row-wise over their sliceable input:
/// Scan, FieldExtractor, Interaction, AssembleFeatures (all row-aligned
/// across inputs), Bucketizer (row-wise once its [`BinEdges`] are known),
/// Apply (row-wise over the data input), and [`OperatorKind::RowUdf`].
/// Global operators — sources, Train/Evaluate (aggregates), classic UDFs
/// — return `None`. Also `None` when the sliceable input is missing or
/// not data; [`execute_slice`] then reports the shape error itself.
pub fn partitionable_rows(kind: &OperatorKind, inputs: &[&NodeOutput]) -> Option<usize> {
    let rows_of = |i: usize| Some(inputs.get(i)?.as_data().ok()?.len());
    match kind {
        OperatorKind::CsvScan { .. }
        | OperatorKind::FieldExtractor { .. }
        | OperatorKind::Bucketizer { .. }
        | OperatorKind::Interaction
        | OperatorKind::AssembleFeatures
        | OperatorKind::RowUdf(_) => rows_of(0),
        OperatorKind::Apply => rows_of(1),
        _ => None,
    }
}

/// A Bucketizer's bin edges: the smallest and largest feature value over
/// its *whole* input (`min` is `+∞` when the input holds no value). Every
/// row range of the operator buckets against the same edges, which is
/// what makes its slices concatenate to the whole-node output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinEdges {
    /// Smallest feature value.
    pub min: f64,
    /// Largest feature value.
    pub max: f64,
}

impl BinEdges {
    /// A non-zero salt identifying the edges bit for bit. Partition keys
    /// below a Bucketizer fold it in, so an edge that moves changes every
    /// key and an edge that stays keeps them.
    pub fn salt(&self) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(b"bin-edges");
        hasher.write_u64(self.min.to_bits());
        hasher.write_u64(self.max.to_bits());
        hasher.finish().max(1)
    }
}

/// The whole-input state `kind` reads before it can run any row range: a
/// Bucketizer's [`BinEdges`], `None` for every other operator (their row
/// ranges read only their own rows).
///
/// # Errors
/// The error a whole-node run of the Bucketizer would report first.
pub fn bin_edges(
    kind: &OperatorKind,
    name: &str,
    inputs: &[&NodeOutput],
) -> Result<Option<BinEdges>> {
    match kind {
        OperatorKind::Bucketizer { bins } => Ok(Some(edges_of(*bins, data(inputs, 0, name)?)?)),
        _ => Ok(None),
    }
}

/// How many output rows the input rows `[start, end)` of `kind` turn
/// into: the range's length for a 1:1 operator, and for
/// AssembleFeatures the rows that carry a label (it drops the rest).
///
/// # Errors
/// A label cell that is not a feature list.
pub fn output_rows(
    kind: &OperatorKind,
    inputs: &[&NodeOutput],
    start: usize,
    end: usize,
) -> Result<usize> {
    if !matches!(kind, OperatorKind::AssembleFeatures) {
        return Ok(end - start);
    }
    let label = data(inputs, inputs.len().saturating_sub(1), "AssembleFeatures")?;
    let mut labelled = 0;
    for row in label.rows_range(start, end) {
        labelled += usize::from(!feature_pairs(row.get(0))?.is_empty());
    }
    Ok(labelled)
}

/// Executes `kind` over the row range `[start, end)` of its sliceable
/// input (see [`partitionable_rows`]); other inputs are passed whole.
/// `edges` is the operator's whole-input state when the caller already
/// computed it with [`bin_edges`], so the pieces of one node share one
/// pass over the input; `None` computes it here.
///
/// Non-partitionable operators ignore the range and run whole. Input
/// validation (arity, alignment, schemas) always checks the *full*
/// inputs, so every partition of a malformed node fails with the same
/// error a whole-node run would produce.
pub fn execute_slice(
    kind: &OperatorKind,
    name: &str,
    inputs: &[&NodeOutput],
    edges: Option<BinEdges>,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    match kind {
        OperatorKind::CsvSource {
            train_path,
            test_path,
        } => exec_csv_source(train_path, test_path.as_deref()),
        OperatorKind::TextSource {
            path,
            test_fraction,
        } => exec_text_source(path, *test_fraction),
        OperatorKind::CsvScan { fields } => {
            exec_csv_scan(fields, data(inputs, 0, name)?, start, end)
        }
        OperatorKind::FieldExtractor { field, kind } => {
            exec_field_extractor(field, *kind, data(inputs, 0, name)?, start, end)
        }
        OperatorKind::Bucketizer { bins } => {
            exec_bucketizer_range(*bins, data(inputs, 0, name)?, edges, start, end)
        }
        OperatorKind::Interaction => {
            let mut collections = Vec::with_capacity(inputs.len());
            for i in 0..inputs.len() {
                collections.push(data(inputs, i, name)?);
            }
            exec_interaction(&collections, start, end)
        }
        OperatorKind::AssembleFeatures => {
            if inputs.len() < 3 {
                return Err(HelixError::Exec(format!(
                    "`{name}` needs base + extractors + label, got {} inputs",
                    inputs.len()
                )));
            }
            let base = data(inputs, 0, name)?;
            let label = data(inputs, inputs.len() - 1, name)?;
            let mut extractors = Vec::new();
            for i in 1..inputs.len() - 1 {
                extractors.push(data(inputs, i, name)?);
            }
            exec_assemble(base, &extractors, label, start, end)
        }
        OperatorKind::Train(spec) => exec_train(spec, data(inputs, 0, name)?),
        OperatorKind::Apply => {
            let model = inputs
                .first()
                .ok_or_else(|| HelixError::Exec(format!("`{name}` missing model input")))?
                .as_model()?;
            exec_apply(model, data(inputs, 1, name)?, start, end)
        }
        OperatorKind::Evaluate(spec) => exec_evaluate(spec, data(inputs, 0, name)?),
        OperatorKind::UserDefined(udf) => {
            let mut collections = Vec::with_capacity(inputs.len());
            for i in 0..inputs.len() {
                collections.push(data(inputs, i, name)?);
            }
            Ok(NodeOutput::Data((udf.func)(&collections)?))
        }
        OperatorKind::RowUdf(udf) => {
            let first = data(inputs, 0, name)?;
            // Whole-range calls see the original collection; true slices
            // get a sub-collection sharing the same rows, so the row-wise
            // contract makes the outputs concatenate identically.
            let sliced;
            let mut collections: Vec<&DataCollection> = Vec::with_capacity(inputs.len());
            if start == 0 && end == first.len() {
                collections.push(first);
            } else {
                sliced = first.slice(start, end);
                collections.push(&sliced);
            }
            for i in 1..inputs.len() {
                collections.push(data(inputs, i, name)?);
            }
            Ok(NodeOutput::Data((udf.func)(&collections)?))
        }
    }
}

/// Concatenates partition outputs (in partition-index order) back into
/// one node output, sharing their rows. All partitionable operators
/// produce data collections.
pub fn concat_slices(parts: Vec<NodeOutput>) -> Result<NodeOutput> {
    let parts = parts
        .into_iter()
        .map(|out| match out {
            NodeOutput::Data(dc) => Ok(dc),
            NodeOutput::Model(_) => {
                Err(HelixError::Exec("partitioned node produced a model".into()))
            }
        })
        .collect::<Result<Vec<_>>>()?;
    if parts.is_empty() {
        return Err(HelixError::Exec("no partition outputs to merge".into()));
    }
    Ok(NodeOutput::Data(DataCollection::concat_all(parts)?))
}

fn data<'a>(inputs: &[&'a NodeOutput], i: usize, name: &str) -> Result<&'a DataCollection> {
    inputs
        .get(i)
        .ok_or_else(|| HelixError::Exec(format!("`{name}` missing input {i}")))?
        .as_data()
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

fn exec_csv_source(train_path: &Path, test_path: Option<&Path>) -> Result<NodeOutput> {
    let schema = Schema::of(&[(SPLIT_COL, DataType::Str), ("line", DataType::Str)]);
    let mut rows = Vec::new();
    let mut read_split = |path: &Path, split: &str| -> Result<()> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| HelixError::Exec(format!("cannot read source {}: {e}", path.display())))?;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            rows.push(Row(vec![
                Value::Str(split.to_string()),
                Value::Str(line.to_string()),
            ]));
        }
        Ok(())
    };
    read_split(train_path, SPLIT_TRAIN)?;
    if let Some(test) = test_path {
        read_split(test, SPLIT_TEST)?;
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        schema, rows,
    )))
}

fn exec_text_source(path: &Path, test_fraction: f64) -> Result<NodeOutput> {
    let corpus = helix_dataflow::text::read_corpus(path)?;
    let schema = Schema::of(&[
        ("doc_id", DataType::Int),
        ("text", DataType::Str),
        (SPLIT_COL, DataType::Str),
    ]);
    let threshold = (test_fraction.clamp(0.0, 1.0) * 1000.0) as i64;
    let rows = corpus
        .rows()
        .iter()
        .map(|row| {
            let doc_id = row.get(0).as_int().unwrap_or(0);
            // Deterministic split: documents interleave by id so train and
            // test see the same generator distribution.
            let split = if (doc_id * 997 + 331) % 1000 < threshold {
                SPLIT_TEST
            } else {
                SPLIT_TRAIN
            };
            Row(vec![
                row.get(0).clone(),
                row.get(1).clone(),
                Value::Str(split.to_string()),
            ])
        })
        .collect();
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        schema, rows,
    )))
}

fn exec_csv_scan(
    fields: &[(String, DataType)],
    input: &DataCollection,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    let mut schema_fields = vec![(SPLIT_COL, DataType::Str)];
    for (name, dtype) in fields {
        schema_fields.push((name.as_str(), *dtype));
    }
    let schema = Schema::of(&schema_fields);
    let split_idx = input.column_index(SPLIT_COL)?;
    let line_idx = input.column_index("line")?;
    let mut rows = Vec::with_capacity(end - start);
    for row in input.rows_range(start, end) {
        let line = row.get(line_idx).as_str().unwrap_or("");
        let records = csv::parse_records(line)
            .map_err(|e| helix_dataflow::DataflowError::Csv(format!("{e}")))?;
        let record = records.into_iter().next().unwrap_or_default();
        if record.len() != fields.len() {
            return Err(helix_dataflow::DataflowError::Csv(format!(
                "line has {} fields, scanner expects {}",
                record.len(),
                fields.len()
            ))
            .into());
        }
        let mut values = Vec::with_capacity(fields.len() + 1);
        values.push(row.get(split_idx).clone());
        for (raw, (_, dtype)) in record.iter().zip(fields) {
            values.push(Value::parse_typed(raw, *dtype));
        }
        rows.push(Row(values));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        schema, rows,
    )))
}

// ---------------------------------------------------------------------------
// Feature engineering
// ---------------------------------------------------------------------------

fn exec_field_extractor(
    field: &str,
    kind: ExtractorKind,
    input: &DataCollection,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    let idx = input.column_index(field)?;
    let numeric: Arc<str> = Arc::from(field);
    let mut names = Names::default();
    let mut rows = Vec::with_capacity(end - start);
    for row in input.rows_range(start, end) {
        let cell = row.get(idx);
        let pairs = match (kind, cell) {
            (_, Value::Null) => Vec::new(),
            (ExtractorKind::Categorical, value) => {
                vec![(names.get(format_args!("{field}={value}")), 1.0)]
            }
            (ExtractorKind::Numeric, value) => match value.as_f64() {
                Some(v) => vec![(Arc::clone(&numeric), v)],
                None => Vec::new(),
            },
        };
        rows.push(Row(vec![Value::Feats(pairs)]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        feats_schema(),
        rows,
    )))
}

/// The [`BinEdges`] of a Bucketizer over `input`: one pass over every
/// feature value, which also checks every cell.
fn edges_of(bins: usize, input: &DataCollection) -> Result<BinEdges> {
    if bins == 0 {
        return Err(HelixError::Exec("bucketizer needs ≥ 1 bin, got 0".into()));
    }
    let feats_idx = input.column_index("feats")?;
    let mut edges = BinEdges {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
    for row in input.rows() {
        for &(_, v) in feature_pairs(row.get(feats_idx))?.iter() {
            edges.min = edges.min.min(v);
            edges.max = edges.max.max(v);
        }
    }
    Ok(edges)
}

/// Buckets rows `[start, end)` of `input` into `bins` equal-width bins
/// between the edges of the whole input (`edges`, or computed here).
fn exec_bucketizer_range(
    bins: usize,
    input: &DataCollection,
    edges: Option<BinEdges>,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    let BinEdges { min, max } = match edges {
        Some(edges) => edges,
        None => edges_of(bins, input)?,
    };
    let feats_idx = input.column_index("feats")?;
    // Without any value (`min` is +∞) every row is an empty fragment.
    let width = if max > min {
        (max - min) / bins as f64
    } else {
        1.0
    };
    let mut names = Names::default();
    let mut rows = Vec::with_capacity(end - start);
    for row in input.rows_range(start, end) {
        let pairs = feature_pairs(row.get(feats_idx))?;
        let mut out_pairs = Vec::with_capacity(pairs.len());
        for (name, v) in pairs.iter() {
            let bucket = (((v - min) / width) as usize).min(bins - 1);
            out_pairs.push((names.get(format_args!("{name}[b={bucket}]")), 1.0));
        }
        rows.push(Row(vec![Value::Feats(out_pairs)]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        feats_schema(),
        rows,
    )))
}

fn exec_interaction(inputs: &[&DataCollection], start: usize, end: usize) -> Result<NodeOutput> {
    let n = inputs
        .first()
        .ok_or_else(|| HelixError::Exec("interaction needs inputs".into()))?
        .len();
    for dc in inputs {
        if dc.len() != n {
            return Err(HelixError::Exec(format!(
                "interaction inputs misaligned: {} vs {n} rows",
                dc.len()
            )));
        }
    }
    let unnamed: Arc<str> = Arc::from("");
    let mut names = Names::default();
    let (mut acc, mut next) = (Vec::new(), Vec::new());
    let mut parents: Vec<_> = inputs
        .iter()
        .map(|dc| dc.rows_range(start, end).iter())
        .collect();
    let mut rows = Vec::with_capacity(end - start);
    for _ in start..end {
        // Cross product across parents, left-to-right.
        acc.clear();
        acc.push((Arc::clone(&unnamed), 1.0));
        for parent in &mut parents {
            let row = parent.next().expect("inputs are aligned");
            let pairs = feature_pairs(row.get(0))?;
            next.clear();
            for (base_name, base_v) in &acc {
                for (name, v) in pairs.iter() {
                    let joined = if base_name.is_empty() {
                        Arc::clone(name)
                    } else {
                        names.get(format_args!("{base_name}×{name}"))
                    };
                    next.push((joined, base_v * v));
                }
            }
            std::mem::swap(&mut acc, &mut next);
        }
        let out_pairs = acc.drain(..).filter(|(name, _)| !name.is_empty()).collect();
        rows.push(Row(vec![Value::Feats(out_pairs)]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        feats_schema(),
        rows,
    )))
}

fn exec_assemble(
    base: &DataCollection,
    extractors: &[&DataCollection],
    label: &DataCollection,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    let n = base.len();
    for dc in extractors.iter().chain(std::iter::once(&label)) {
        if dc.len() != n {
            return Err(HelixError::Exec(format!(
                "assemble inputs misaligned: {} vs {n} rows",
                dc.len()
            )));
        }
    }
    let split_idx = base.column_index(SPLIT_COL)?;
    // Label-less rows drop independently per row, so a slice's output is
    // exactly its rows' contribution to the whole-node output.
    let mut features: Vec<_> = extractors
        .iter()
        .map(|dc| dc.rows_range(start, end).iter())
        .collect();
    let mut rows = Vec::with_capacity(end - start);
    let bases = base.rows_range(start, end).iter();
    for (base_row, label_row) in bases.zip(label.rows_range(start, end)) {
        let label_pairs = feature_pairs(label_row.get(0))?;
        // Rows without a label (missing target field) are dropped, as real
        // census data contains incomplete records.
        let Some(&(_, label_value)) = label_pairs.first() else {
            features.iter_mut().for_each(|feature| {
                feature.next();
            });
            continue;
        };
        let mut all_pairs = Vec::new();
        for feature in &mut features {
            let row = feature.next().expect("inputs are aligned");
            all_pairs.extend_from_slice(&feature_pairs(row.get(0))?);
        }
        rows.push(Row(vec![
            base_row.get(split_idx).clone(),
            Value::Float(label_value),
            Value::Feats(all_pairs),
        ]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        assembled_schema(),
        rows,
    )))
}

// ---------------------------------------------------------------------------
// Learning and evaluation
// ---------------------------------------------------------------------------

/// Feature pairs with borrowed names, as [`helix_ml::FeatureSpace`] reads them.
fn borrowed(pairs: &[Feature]) -> impl Iterator<Item = (&str, f64)> {
    pairs.iter().map(|(name, value)| (&**name, *value))
}

fn exec_train(spec: &LearnerSpec, assembled: &DataCollection) -> Result<NodeOutput> {
    let split_idx = assembled.column_index(SPLIT_COL)?;
    let label_idx = assembled.column_index("label")?;
    let feats_idx = assembled.column_index("feats")?;
    let mut space = helix_ml::FeatureSpace::new();
    let mut examples = Vec::new();
    for row in assembled.rows() {
        if row.get(split_idx).as_str() != Some(SPLIT_TRAIN) {
            continue;
        }
        let label = row
            .get(label_idx)
            .as_f64()
            .ok_or_else(|| HelixError::Exec("non-numeric label".into()))?;
        let pairs = feature_pairs(row.get(feats_idx))?;
        examples.push(space.example(borrowed(&pairs), label)?);
    }
    let dataset = helix_ml::Dataset::new(examples, space.len() as u32);
    let model = match spec.model_type {
        ModelType::LogisticRegression => {
            let config = helix_ml::logreg::LogRegConfig {
                epochs: spec.epochs,
                learning_rate: spec.learning_rate,
                reg_param: spec.reg_param,
                seed: spec.seed,
            };
            helix_ml::Model::LogReg(helix_ml::logreg::train(&dataset, &config)?)
        }
        ModelType::LinearRegression => {
            let config = helix_ml::linreg::LinRegConfig {
                epochs: spec.epochs,
                learning_rate: spec.learning_rate,
                reg_param: spec.reg_param,
                seed: spec.seed,
            };
            helix_ml::Model::LinReg(helix_ml::linreg::train(&dataset, &config)?)
        }
        ModelType::NaiveBayes => {
            let config = helix_ml::naive_bayes::NaiveBayesConfig {
                alpha: spec.reg_param.max(1e-3),
            };
            helix_ml::Model::NaiveBayes(helix_ml::naive_bayes::train(&dataset, &config)?)
        }
        ModelType::Perceptron => {
            let config = helix_ml::perceptron::PerceptronConfig {
                num_classes: 2,
                epochs: spec.epochs,
                seed: spec.seed,
            };
            helix_ml::Model::Perceptron(helix_ml::perceptron::train(&dataset, &config)?)
        }
    };
    space.freeze();
    Ok(NodeOutput::Model(TrainedModel {
        model,
        feature_names: space.names().to_vec(),
    }))
}

fn exec_apply(
    bundle: &TrainedModel,
    assembled: &DataCollection,
    start: usize,
    end: usize,
) -> Result<NodeOutput> {
    let split_idx = assembled.column_index(SPLIT_COL)?;
    let label_idx = assembled.column_index("label")?;
    let feats_idx = assembled.column_index("feats")?;
    let space = bundle.feature_space();
    let mut rows = Vec::with_capacity(end - start);
    for row in assembled.rows_range(start, end) {
        let pairs = feature_pairs(row.get(feats_idx))?;
        let vector = space.vectorize_frozen(borrowed(&pairs));
        let score = bundle.model.predict(&vector);
        let pred = bundle.model.decide(&vector);
        rows.push(Row(vec![
            row.get(split_idx).clone(),
            row.get(label_idx).clone(),
            Value::Float(score),
            Value::Float(pred),
        ]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        predictions_schema(),
        rows,
    )))
}

fn exec_evaluate(spec: &EvalSpec, predictions: &DataCollection) -> Result<NodeOutput> {
    let split_idx = predictions.column_index(SPLIT_COL)?;
    let label_idx = predictions.column_index("label")?;
    let score_idx = predictions.column_index("score")?;
    let pred_idx = predictions.column_index("pred")?;
    let mut labels = Vec::new();
    let mut scores = Vec::new();
    let mut preds = Vec::new();
    for row in predictions.rows() {
        if row.get(split_idx).as_str() != Some(spec.split.as_str()) {
            continue;
        }
        labels.push(row.get(label_idx).as_f64().unwrap_or(0.0));
        scores.push(row.get(score_idx).as_f64().unwrap_or(0.0));
        preds.push(row.get(pred_idx).as_f64().unwrap_or(0.0));
    }
    let confusion = helix_ml::metrics::Confusion::from_predictions(&preds, &labels)?;
    let mut rows = Vec::with_capacity(spec.metrics.len());
    for metric in &spec.metrics {
        let value = match metric {
            MetricKind::Accuracy => confusion.accuracy(),
            MetricKind::Precision => confusion.precision(),
            MetricKind::Recall => confusion.recall(),
            MetricKind::F1 => confusion.f1(),
            MetricKind::LogLoss => helix_ml::metrics::log_loss(&scores, &labels)?,
            MetricKind::Rmse => helix_ml::metrics::rmse(&scores, &labels)?,
        };
        rows.push(Row(vec![
            Value::Str(metric.name().to_string()),
            Value::Float(value),
        ]));
    }
    Ok(NodeOutput::Data(DataCollection::from_rows_unchecked(
        metrics_schema(),
        rows,
    )))
}

/// Extracts `(metric, value)` pairs from an Evaluate node's output.
pub fn metric_values(output: &NodeOutput) -> Result<Vec<(String, f64)>> {
    let dc = output.as_data()?;
    let metric_idx = dc.column_index("metric")?;
    let value_idx = dc.column_index("value")?;
    Ok(dc
        .rows()
        .iter()
        .filter_map(|row| {
            Some((
                row.get(metric_idx).as_str()?.to_string(),
                row.get(value_idx).as_f64()?,
            ))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Whole-range wrappers: the sliced executors over their full input.
    fn csv_scan(fields: &[(String, DataType)], input: &DataCollection) -> Result<NodeOutput> {
        exec_csv_scan(fields, input, 0, input.len())
    }

    fn field_extractor(
        field: &str,
        kind: ExtractorKind,
        input: &DataCollection,
    ) -> Result<NodeOutput> {
        exec_field_extractor(field, kind, input, 0, input.len())
    }

    fn exec_bucketizer(bins: usize, input: &DataCollection) -> Result<NodeOutput> {
        exec_bucketizer_range(bins, input, None, 0, input.len())
    }

    fn interaction(inputs: &[&DataCollection]) -> Result<NodeOutput> {
        exec_interaction(inputs, 0, inputs[0].len())
    }

    fn assemble(
        base: &DataCollection,
        extractors: &[&DataCollection],
        label: &DataCollection,
    ) -> Result<NodeOutput> {
        exec_assemble(base, extractors, label, 0, base.len())
    }

    fn apply(bundle: &TrainedModel, assembled: &DataCollection) -> Result<NodeOutput> {
        exec_apply(bundle, assembled, 0, assembled.len())
    }

    fn owned_pairs(cell: &Value) -> Result<Vec<(String, f64)>> {
        Ok(feature_pairs(cell)?
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .collect())
    }

    fn write_csv(dir: &Path, name: &str, content: &str) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-exec-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn source_and_scan(dir: &Path) -> DataCollection {
        let train = write_csv(dir, "train.csv", "30,BS,1\n40,MS,0\n50,PhD,1\n");
        let test = write_csv(dir, "test.csv", "35,BS,1\n45,MS,0\n");
        let src = exec_csv_source(&train, Some(&test)).unwrap();
        let scanned = csv_scan(
            &[
                ("age".to_string(), DataType::Int),
                ("edu".to_string(), DataType::Str),
                ("target".to_string(), DataType::Int),
            ],
            src.as_data().unwrap(),
        )
        .unwrap();
        scanned.as_data().unwrap().clone()
    }

    #[test]
    fn source_tags_splits_and_scan_types_columns() {
        let dir = tmpdir("scan");
        let rows = source_and_scan(&dir);
        assert_eq!(rows.len(), 5);
        let splits: Vec<&str> = rows
            .column(SPLIT_COL)
            .unwrap()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(splits, vec!["train", "train", "train", "test", "test"]);
        assert_eq!(rows.row(0).get(1), &Value::Int(30));
        assert_eq!(rows.row(0).get(2).as_str(), Some("BS"));
    }

    #[test]
    fn categorical_extractor_one_hots() {
        let dir = tmpdir("cat");
        let rows = source_and_scan(&dir);
        let out = field_extractor("edu", ExtractorKind::Categorical, &rows).unwrap();
        let dc = out.as_data().unwrap();
        let pairs = owned_pairs(dc.row(0).get(0)).unwrap();
        assert_eq!(pairs, vec![("edu=BS".to_string(), 1.0)]);
    }

    #[test]
    fn numeric_extractor_passes_value() {
        let dir = tmpdir("num");
        let rows = source_and_scan(&dir);
        let out = field_extractor("age", ExtractorKind::Numeric, &rows).unwrap();
        let pairs = owned_pairs(out.as_data().unwrap().row(2).get(0)).unwrap();
        assert_eq!(pairs, vec![("age".to_string(), 50.0)]);
    }

    #[test]
    fn nulls_produce_empty_fragments() {
        let dir = tmpdir("null");
        let train = write_csv(&dir, "train.csv", "?,BS,1\n");
        let src = exec_csv_source(&train, None).unwrap();
        let scanned = csv_scan(
            &[
                ("age".to_string(), DataType::Int),
                ("edu".to_string(), DataType::Str),
                ("t".to_string(), DataType::Int),
            ],
            src.as_data().unwrap(),
        )
        .unwrap();
        let out =
            field_extractor("age", ExtractorKind::Numeric, scanned.as_data().unwrap()).unwrap();
        let pairs = owned_pairs(out.as_data().unwrap().row(0).get(0)).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn bucketizer_buckets_equal_width() {
        let dir = tmpdir("bucket");
        let rows = source_and_scan(&dir);
        let ages = field_extractor("age", ExtractorKind::Numeric, &rows).unwrap();
        let out = exec_bucketizer(2, ages.as_data().unwrap()).unwrap();
        let dc = out.as_data().unwrap();
        // ages: 30..50, width 10; 30 → b0, 50 → b1 (clamped).
        let first = owned_pairs(dc.row(0).get(0)).unwrap();
        let last = owned_pairs(dc.row(2).get(0)).unwrap();
        assert_eq!(first[0].0, "age[b=0]");
        assert_eq!(last[0].0, "age[b=1]");
    }

    #[test]
    fn zero_bins_fail_typed_instead_of_underflowing() {
        let dir = tmpdir("bucket-zero");
        let rows = source_and_scan(&dir);
        let ages = field_extractor("age", ExtractorKind::Numeric, &rows).unwrap();
        let kind = OperatorKind::Bucketizer { bins: 0 };
        let err = execute(&kind, "ageBucket", &[&ages]).unwrap_err();
        assert!(matches!(err, HelixError::Exec(_)), "got {err}");
        assert!(bin_edges(&kind, "ageBucket", &[&ages]).is_err());
    }

    #[test]
    fn bucketizer_slices_share_the_whole_input_edges() {
        let dir = tmpdir("bucket-slices");
        let rows = source_and_scan(&dir);
        let ages = field_extractor("age", ExtractorKind::Numeric, &rows).unwrap();
        let kind = OperatorKind::Bucketizer { bins: 2 };
        let whole = execute(&kind, "ageBucket", &[&ages]).unwrap();
        let edges = bin_edges(&kind, "ageBucket", &[&ages]).unwrap();
        let parts = (0..5)
            .map(|k| execute_slice(&kind, "ageBucket", &[&ages], edges, k, k + 1).unwrap())
            .collect();
        assert_eq!(concat_slices(parts).unwrap(), whole);
    }

    #[test]
    fn interaction_crosses_names_and_values() {
        let dir = tmpdir("inter");
        let rows = source_and_scan(&dir);
        let edu = field_extractor("edu", ExtractorKind::Categorical, &rows).unwrap();
        let age = field_extractor("age", ExtractorKind::Numeric, &rows).unwrap();
        let out = interaction(&[edu.as_data().unwrap(), age.as_data().unwrap()]).unwrap();
        let pairs = owned_pairs(out.as_data().unwrap().row(0).get(0)).unwrap();
        assert_eq!(pairs, vec![("edu=BS×age".to_string(), 30.0)]);
    }

    #[test]
    fn assemble_concatenates_and_labels() {
        let dir = tmpdir("asm");
        let rows = source_and_scan(&dir);
        let edu = field_extractor("edu", ExtractorKind::Categorical, &rows).unwrap();
        let target = field_extractor("target", ExtractorKind::Numeric, &rows).unwrap();
        let out = assemble(&rows, &[edu.as_data().unwrap()], target.as_data().unwrap()).unwrap();
        let dc = out.as_data().unwrap();
        assert_eq!(dc.len(), 5);
        assert_eq!(dc.row(0).get(1), &Value::Float(1.0));
        let pairs = owned_pairs(dc.row(0).get(2)).unwrap();
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn end_to_end_train_apply_evaluate() {
        let dir = tmpdir("e2e");
        // Perfectly separable: edu=BS ⇒ 1, edu=MS ⇒ 0.
        let train = write_csv(&dir, "train2.csv", &"BS,1\nMS,0\n".repeat(30));
        let test = write_csv(&dir, "test2.csv", "BS,1\nMS,0\nBS,1\n");
        let src = exec_csv_source(&train, Some(&test)).unwrap();
        let rows = csv_scan(
            &[
                ("edu".to_string(), DataType::Str),
                ("target".to_string(), DataType::Int),
            ],
            src.as_data().unwrap(),
        )
        .unwrap();
        let rows = rows.as_data().unwrap();
        let edu = field_extractor("edu", ExtractorKind::Categorical, rows).unwrap();
        let target = field_extractor("target", ExtractorKind::Numeric, rows).unwrap();
        let assembled =
            assemble(rows, &[edu.as_data().unwrap()], target.as_data().unwrap()).unwrap();
        let model = exec_train(&LearnerSpec::default(), assembled.as_data().unwrap()).unwrap();
        let preds = apply(model.as_model().unwrap(), assembled.as_data().unwrap()).unwrap();
        let eval = exec_evaluate(
            &EvalSpec {
                metrics: vec![MetricKind::Accuracy, MetricKind::F1],
                split: SPLIT_TEST.into(),
            },
            preds.as_data().unwrap(),
        )
        .unwrap();
        let metrics = metric_values(&eval).unwrap();
        let acc = metrics.iter().find(|(m, _)| m == "accuracy").unwrap().1;
        assert_eq!(acc, 1.0, "separable data must be perfectly classified");
    }

    #[test]
    fn apply_drops_unseen_features() {
        // Train on BS/MS; test row has PhD: unseen feature dropped, bias
        // decides, no panic.
        let dir = tmpdir("unseen");
        let train = write_csv(&dir, "train3.csv", &"BS,1\nMS,0\n".repeat(20));
        let test = write_csv(&dir, "test3.csv", "PhD,1\n");
        let src = exec_csv_source(&train, Some(&test)).unwrap();
        let rows = csv_scan(
            &[
                ("edu".to_string(), DataType::Str),
                ("target".to_string(), DataType::Int),
            ],
            src.as_data().unwrap(),
        )
        .unwrap();
        let rows = rows.as_data().unwrap();
        let edu = field_extractor("edu", ExtractorKind::Categorical, rows).unwrap();
        let target = field_extractor("target", ExtractorKind::Numeric, rows).unwrap();
        let assembled =
            assemble(rows, &[edu.as_data().unwrap()], target.as_data().unwrap()).unwrap();
        let model = exec_train(&LearnerSpec::default(), assembled.as_data().unwrap()).unwrap();
        let preds = apply(model.as_model().unwrap(), assembled.as_data().unwrap()).unwrap();
        assert_eq!(preds.as_data().unwrap().len(), 41);
    }

    #[test]
    fn misaligned_inputs_rejected() {
        let dir = tmpdir("misalign");
        let rows = source_and_scan(&dir);
        let edu = field_extractor("edu", ExtractorKind::Categorical, &rows).unwrap();
        let truncated = edu.as_data().unwrap().head(2);
        assert!(interaction(&[edu.as_data().unwrap(), &truncated]).is_err());
        let target = field_extractor("target", ExtractorKind::Numeric, &rows).unwrap();
        assert!(assemble(&rows, &[&truncated], target.as_data().unwrap()).is_err());
    }

    #[test]
    fn scan_rejects_ragged_lines() {
        let dir = tmpdir("ragged");
        let train = write_csv(&dir, "bad.csv", "1,2\n1\n");
        let src = exec_csv_source(&train, None).unwrap();
        let result = csv_scan(
            &[
                ("a".to_string(), DataType::Int),
                ("b".to_string(), DataType::Int),
            ],
            src.as_data().unwrap(),
        );
        assert!(result.is_err());
    }

    /// A feature cell in the nested-list form.
    fn legacy(cell: &Value) -> Value {
        Value::List(
            feature_pairs(cell)
                .unwrap()
                .iter()
                .map(|(name, v)| Value::List(vec![Value::Str(name.to_string()), Value::Float(*v)]))
                .collect(),
        )
    }

    /// `out` with column `col` of every odd row in the nested-list form.
    fn half_legacy(out: &NodeOutput, col: usize) -> NodeOutput {
        let dc = out.as_data().unwrap();
        let rows = dc
            .rows()
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut row = row.clone();
                if r % 2 == 1 {
                    row.0[col] = legacy(row.get(col));
                }
                row
            })
            .collect();
        NodeOutput::Data(DataCollection::from_rows_unchecked(
            Arc::clone(dc.schema()),
            rows,
        ))
    }

    fn all_pairs(out: &NodeOutput, col: usize) -> Vec<Vec<(String, f64)>> {
        let dc = out.as_data().unwrap();
        dc.rows()
            .iter()
            .map(|row| owned_pairs(row.get(col)).unwrap())
            .collect()
    }

    #[test]
    fn legacy_list_cells_read_like_feature_cells() {
        let dir = tmpdir("legacy");
        let train = write_csv(&dir, "train.csv", &"BS,30,1\nMS,42,0\n".repeat(20));
        let test = write_csv(&dir, "test.csv", "BS,35,1\nMS,45,0\nPhD,60,1\n");
        let src = exec_csv_source(&train, Some(&test)).unwrap();
        let fields = [
            ("edu".to_string(), DataType::Str),
            ("age".to_string(), DataType::Int),
            ("target".to_string(), DataType::Int),
        ];
        let scanned = csv_scan(&fields, src.as_data().unwrap()).unwrap();
        let rows = scanned.as_data().unwrap();
        let edu = field_extractor("edu", ExtractorKind::Categorical, rows).unwrap();
        let age = field_extractor("age", ExtractorKind::Numeric, rows).unwrap();
        let target = field_extractor("target", ExtractorKind::Numeric, rows).unwrap();
        let spec = EvalSpec {
            metrics: vec![MetricKind::Accuracy, MetricKind::LogLoss],
            split: SPLIT_TEST.into(),
        };
        // The census tail (bucketize, cross, assemble, train, apply,
        // evaluate); `mix` rewrites every feats input it is handed.
        let run = |mix: &dyn Fn(&NodeOutput, usize) -> NodeOutput| {
            let (edu, age, target) = (mix(&edu, 0), mix(&age, 0), mix(&target, 0));
            let bucket = mix(&exec_bucketizer(3, age.as_data().unwrap()).unwrap(), 0);
            let cross = mix(
                &interaction(&[edu.as_data().unwrap(), bucket.as_data().unwrap()]).unwrap(),
                0,
            );
            let extractors = [
                edu.as_data().unwrap(),
                bucket.as_data().unwrap(),
                cross.as_data().unwrap(),
            ];
            let assembled = mix(
                &assemble(rows, &extractors, target.as_data().unwrap()).unwrap(),
                2,
            );
            let model = exec_train(&LearnerSpec::default(), assembled.as_data().unwrap()).unwrap();
            let preds = apply(model.as_model().unwrap(), assembled.as_data().unwrap()).unwrap();
            let metrics = metric_values(&exec_evaluate(&spec, preds.as_data().unwrap()).unwrap());
            (
                [
                    all_pairs(&bucket, 0),
                    all_pairs(&cross, 0),
                    all_pairs(&assembled, 2),
                ],
                model.as_model().unwrap().clone(),
                preds,
                metrics.unwrap(),
            )
        };
        let typed = run(&|out: &NodeOutput, _: usize| out.clone());
        let mixed = run(&half_legacy);
        assert!(typed.0[1][0][0].0.contains('×'), "{:?}", typed.0[1][0]);
        assert_eq!(mixed.0, typed.0);
        assert_eq!(mixed.1, typed.1);
        assert_eq!(mixed.2, typed.2);
        assert_eq!(mixed.3, typed.3);
    }

    #[test]
    fn malformed_legacy_cells_keep_their_errors() {
        let s = |x: &str| Value::Str(x.into());
        let cases = [
            (Value::Int(1), "feats cell is not a list"),
            (Value::List(vec![s("a")]), "feature pair is not a list"),
            (
                Value::List(vec![Value::List(vec![s("a")])]),
                "feature pair has 1 items",
            ),
            (
                Value::List(vec![Value::List(vec![Value::Int(1), Value::Float(1.0)])]),
                "feature name is not a string",
            ),
            (
                Value::List(vec![Value::List(vec![s("a"), s("b")])]),
                "feature value is not numeric",
            ),
        ];
        for (cell, expected) in cases {
            let err = feature_pairs(&cell).unwrap_err().to_string();
            assert!(err.contains(expected), "{cell:?}: {err}");
        }
    }

    #[test]
    fn a_feature_cell_prints_like_its_list_twin() {
        for cell in [
            features([("edu=BS", 1.0), ("age", 30.5)]),
            features::<&str>([]),
        ] {
            assert_eq!(cell.to_string(), legacy(&cell).to_string());
        }
        assert_eq!(
            features([("edu=BS", 1.0), ("age", 30.5)]).to_string(),
            "[[edu=BS, 1], [age, 30.5]]"
        );
    }
}

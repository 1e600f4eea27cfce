//! Operator taxonomy and node outputs.
//!
//! The DSL supports "a handful of operator types" (paper §2.1) covering
//! fine- and coarse-grained feature engineering plus supervised learning;
//! arbitrary imperative code enters through [`Udf`] operators, mirroring
//! the paper's inline Scala UDFs.

use crate::Result;
use helix_dataflow::DataCollection;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// A user-defined transform over data collections.
///
/// Operator equivalence for arbitrary functions is undecidable (Rice's
/// theorem, paper §2.2), so UDFs carry an explicit `version` string that
/// stands in for source-control-based change detection: bump the version
/// and Helix invalidates every result downstream of the UDF.
#[derive(Clone)]
pub struct Udf {
    /// Version tag participating in the operator signature.
    pub version: String,
    /// The transform itself: inputs are parent outputs, in wiring order.
    pub func: Arc<UdfFn>,
}

/// Signature of a user-defined transform over parent outputs.
pub type UdfFn = dyn Fn(&[&DataCollection]) -> Result<DataCollection> + Send + Sync;

impl Udf {
    /// Wraps a closure with a version tag.
    pub fn new(
        version: impl Into<String>,
        func: impl Fn(&[&DataCollection]) -> Result<DataCollection> + Send + Sync + 'static,
    ) -> Self {
        Udf {
            version: version.into(),
            func: Arc::new(func),
        }
    }
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Udf")
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

/// How a [`OperatorKind::FieldExtractor`] turns a column into features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractorKind {
    /// One-hot: emits `field=value → 1.0`.
    Categorical,
    /// Numeric passthrough: emits `field → value` (nulls skipped).
    Numeric,
}

/// Which model a [`OperatorKind::Train`] node fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelType {
    /// Binary logistic regression (SGD + L2).
    LogisticRegression,
    /// Ridge linear regression.
    LinearRegression,
    /// Bernoulli naive Bayes.
    NaiveBayes,
    /// Averaged multi-class perceptron.
    Perceptron,
}

impl ModelType {
    /// Inverse of [`fmt::Display`]: parses the canonical short name back
    /// into the enum (replaying persisted session edits, wire edits). The
    /// long names are accepted as aliases.
    pub fn from_name(name: &str) -> Option<ModelType> {
        match name {
            "logreg" | "logistic_regression" => Some(ModelType::LogisticRegression),
            "linreg" | "linear_regression" => Some(ModelType::LinearRegression),
            "naive_bayes" => Some(ModelType::NaiveBayes),
            "perceptron" => Some(ModelType::Perceptron),
            _ => None,
        }
    }
}

impl fmt::Display for ModelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelType::LogisticRegression => "logreg",
            ModelType::LinearRegression => "linreg",
            ModelType::NaiveBayes => "naive_bayes",
            ModelType::Perceptron => "perceptron",
        };
        write!(f, "{name}")
    }
}

/// Hyperparameters for a learner node — the paper's
/// `new Learner(modelType, regParam=0.1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerSpec {
    /// Which model family to train.
    pub model_type: ModelType,
    /// L2 regularization strength.
    pub reg_param: f64,
    /// SGD epochs (ignored by naive Bayes).
    pub epochs: usize,
    /// SGD learning rate (ignored by naive Bayes).
    pub learning_rate: f64,
    /// Training seed; fixed for reuse correctness.
    pub seed: u64,
}

impl Default for LearnerSpec {
    fn default() -> Self {
        LearnerSpec {
            model_type: ModelType::LogisticRegression,
            reg_param: 0.1,
            epochs: 8,
            learning_rate: 0.5,
            seed: 42,
        }
    }
}

impl LearnerSpec {
    /// Canonical parameter string folded into the operator signature.
    pub fn signature_string(&self) -> String {
        format!(
            "model={};reg={};epochs={};lr={};seed={}",
            self.model_type, self.reg_param, self.epochs, self.learning_rate, self.seed
        )
    }
}

/// A metric computed by an [`OperatorKind::Evaluate`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Fraction correct (threshold 0.5).
    Accuracy,
    /// Positive-class precision.
    Precision,
    /// Positive-class recall.
    Recall,
    /// F1 score.
    F1,
    /// Mean negative log likelihood.
    LogLoss,
    /// Root mean squared error.
    Rmse,
}

impl MetricKind {
    /// Stable name used in metric result rows and the version store.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Accuracy => "accuracy",
            MetricKind::Precision => "precision",
            MetricKind::Recall => "recall",
            MetricKind::F1 => "f1",
            MetricKind::LogLoss => "log_loss",
            MetricKind::Rmse => "rmse",
        }
    }
}

/// Configuration for an evaluation (`Reducer`) node.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// Metrics to compute.
    pub metrics: Vec<MetricKind>,
    /// Which `__split__` value to evaluate on.
    pub split: String,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec {
            metrics: vec![MetricKind::Accuracy],
            split: crate::SPLIT_TEST.to_string(),
        }
    }
}

impl EvalSpec {
    /// Canonical parameter string folded into the operator signature.
    pub fn signature_string(&self) -> String {
        let names: Vec<&str> = self.metrics.iter().map(MetricKind::name).collect();
        format!("metrics={};split={}", names.join("+"), self.split)
    }
}

/// The operator executed at a DAG node.
#[derive(Debug, Clone)]
pub enum OperatorKind {
    /// Reads train (and optionally test) CSV files as raw lines tagged
    /// with a `__split__` column — the paper's `FileSource`.
    CsvSource {
        /// Training-split file.
        train_path: PathBuf,
        /// Optional held-out-split file.
        test_path: Option<PathBuf>,
    },
    /// Reads a one-document-per-line corpus, assigning train/test splits
    /// deterministically by document index.
    TextSource {
        /// Corpus file.
        path: PathBuf,
        /// Fraction of documents routed to the test split.
        test_fraction: f64,
    },
    /// Parses raw CSV lines into typed columns — the paper's `CSVScanner`.
    CsvScan {
        /// Column names and types, in file order.
        fields: Vec<(String, helix_dataflow::DataType)>,
    },
    /// Emits per-row feature fragments from one column.
    FieldExtractor {
        /// Source column.
        field: String,
        /// One-hot or numeric.
        kind: ExtractorKind,
    },
    /// Equal-width-buckets a numeric extractor's output.
    Bucketizer {
        /// Number of buckets.
        bins: usize,
    },
    /// Crosses two or more extractors' features (`InteractionFeature`).
    Interaction,
    /// Zips a base collection with extractor fragments and a label
    /// extractor into learner-ready rows — `has_extractors` +
    /// `results_from … with_labels`.
    AssembleFeatures,
    /// Trains a model — the paper's `Learner`.
    Train(LearnerSpec),
    /// Applies a trained model, appending `score` and `pred` columns.
    Apply,
    /// Computes metrics — the paper's `Reducer`.
    Evaluate(EvalSpec),
    /// Arbitrary user transform.
    UserDefined(Udf),
    /// A user transform whose output rows depend only on the
    /// corresponding rows of its *first* input — a per-row map/flat-map.
    ///
    /// The contract buys data parallelism: the scheduler may split the
    /// first input into row ranges and run the closure on each slice
    /// concurrently (other inputs are passed whole to every slice), then
    /// concatenate the slice outputs in order. The result must be
    /// byte-identical to one whole-input call, so the closure must not
    /// aggregate across rows of input 0 or depend on the collection's
    /// total length. Use [`OperatorKind::UserDefined`] for anything
    /// global (joins keyed on input 0, sorts, aggregations).
    RowUdf(Udf),
}

impl OperatorKind {
    /// Short kind tag for visualization and signatures.
    pub fn tag(&self) -> &'static str {
        match self {
            OperatorKind::CsvSource { .. } => "csv_source",
            OperatorKind::TextSource { .. } => "text_source",
            OperatorKind::CsvScan { .. } => "csv_scan",
            OperatorKind::FieldExtractor { .. } => "field_extractor",
            OperatorKind::Bucketizer { .. } => "bucketizer",
            OperatorKind::Interaction => "interaction",
            OperatorKind::AssembleFeatures => "assemble",
            OperatorKind::Train(_) => "train",
            OperatorKind::Apply => "apply",
            OperatorKind::Evaluate(_) => "evaluate",
            OperatorKind::UserDefined(_) => "udf",
            OperatorKind::RowUdf(_) => "row_udf",
        }
    }

    /// Canonical parameter string; two operators with equal tags and equal
    /// parameter strings are considered unchanged by the change tracker.
    pub fn params_string(&self) -> String {
        match self {
            OperatorKind::CsvSource {
                train_path,
                test_path,
            } => format!(
                "train={};test={}",
                train_path.display(),
                test_path
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            ),
            OperatorKind::TextSource {
                path,
                test_fraction,
            } => {
                format!("path={};test_fraction={test_fraction}", path.display())
            }
            OperatorKind::CsvScan { fields } => {
                let cols: Vec<String> = fields.iter().map(|(n, t)| format!("{n}:{t}")).collect();
                cols.join(",")
            }
            OperatorKind::FieldExtractor { field, kind } => {
                format!("field={field};kind={kind:?}")
            }
            OperatorKind::Bucketizer { bins } => format!("bins={bins}"),
            OperatorKind::Interaction => String::new(),
            OperatorKind::AssembleFeatures => String::new(),
            OperatorKind::Train(spec) => spec.signature_string(),
            OperatorKind::Apply => String::new(),
            OperatorKind::Evaluate(spec) => spec.signature_string(),
            OperatorKind::UserDefined(udf) | OperatorKind::RowUdf(udf) => {
                format!("version={}", udf.version)
            }
        }
    }

    /// Workflow stage for Fig.-2-style coloring: data pre-processing
    /// (purple), machine learning (orange), or evaluation (green).
    pub fn stage(&self) -> Stage {
        match self {
            OperatorKind::Train(_) | OperatorKind::Apply => Stage::MachineLearning,
            OperatorKind::Evaluate(_) => Stage::Evaluation,
            _ => Stage::DataPreProcessing,
        }
    }
}

/// Coarse workflow stage (paper Fig. 2's purple / orange / green).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Sources, scanners, extractors, UDF transforms.
    DataPreProcessing,
    /// Training and model application.
    MachineLearning,
    /// Metric computation / post-processing.
    Evaluation,
}

impl Stage {
    /// Inverse of [`fmt::Display`]: parses the canonical stage name back
    /// into the enum (used when loading persisted DAG snapshots).
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "data-pre-processing" => Some(Stage::DataPreProcessing),
            "machine-learning" => Some(Stage::MachineLearning),
            "evaluation" => Some(Stage::Evaluation),
            _ => None,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::DataPreProcessing => "data-pre-processing",
            Stage::MachineLearning => "machine-learning",
            Stage::Evaluation => "evaluation",
        };
        write!(f, "{name}")
    }
}

/// A trained model bundled with the feature dictionary it was fit under.
///
/// Apply nodes need the training-time feature space to vectorize test rows
/// consistently, so the pair is materialized as one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// The fitted model.
    pub model: helix_ml::Model,
    /// Feature names in index order (rebuilds the frozen feature space).
    pub feature_names: Vec<String>,
}

/// First bytes of an encoded [`TrainedModel`]: "HLXM" and the format
/// version, 1. Bundles written before the checksum existed start with
/// their feature count instead, which as a little-endian `u64` would
/// exceed the decoder's plausibility bound, so the two never collide.
const MODEL_MAGIC: [u8; 8] = *b"HLXM\x01\0\0\0";

impl TrainedModel {
    /// Serializes the bundle: a magic and version, the payload, and the
    /// [Fx hash](helix_dataflow::fx) of everything before it, which
    /// [`TrainedModel::decode`] verifies.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = MODEL_MAGIC.to_vec();
        buf.extend_from_slice(&(self.feature_names.len() as u64).to_le_bytes());
        for name in &self.feature_names {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        let model_bytes = self.model.encode();
        buf.extend_from_slice(&(model_bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&model_bytes);
        let checksum = helix_dataflow::fx::hash_bytes(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Deserializes a bundle written by [`TrainedModel::encode`], checking
    /// its checksum, or one written before bundles carried a checksum.
    ///
    /// # Errors
    /// [`crate::HelixError::Store`] on a checksum mismatch or malformed
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<TrainedModel> {
        let err = |msg: &str| crate::HelixError::Store(format!("model decode: {msg}"));
        let bytes = match bytes.strip_prefix(&MODEL_MAGIC) {
            Some(_) if bytes.len() < MODEL_MAGIC.len() + 8 => return Err(err("truncated")),
            Some(_) => {
                let (sealed, checksum) = bytes.split_at(bytes.len() - 8);
                let checksum = u64::from_le_bytes(checksum.try_into().expect("8 bytes"));
                if helix_dataflow::fx::hash_bytes(sealed) != checksum {
                    return Err(err("checksum mismatch"));
                }
                &sealed[MODEL_MAGIC.len()..]
            }
            None => bytes,
        };
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(err("truncated"));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let n = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        if n > 1 << 26 {
            return Err(err("implausible feature count"));
        }
        let mut feature_names = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
            let name = std::str::from_utf8(take(&mut pos, len)?)
                .map_err(|_| err("feature name not UTF-8"))?
                .to_string();
            feature_names.push(name);
        }
        let mlen = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        let model_bytes = take(&mut pos, mlen)?;
        if pos != bytes.len() {
            return Err(err("trailing bytes"));
        }
        let model = helix_ml::Model::decode(model_bytes)?;
        Ok(TrainedModel {
            model,
            feature_names,
        })
    }

    /// Rebuilds the frozen feature space.
    pub fn feature_space(&self) -> helix_ml::FeatureSpace {
        let mut fs = helix_ml::FeatureSpace::new();
        for name in &self.feature_names {
            fs.intern(name).expect("unfrozen space accepts all names");
        }
        fs.freeze();
        fs
    }
}

/// The result produced by executing one node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutput {
    /// A data collection.
    Data(DataCollection),
    /// A trained model bundle.
    Model(TrainedModel),
}

/// Compares a shared output, as the store and the scheduler hand them
/// out, with an owned one.
impl PartialEq<NodeOutput> for std::sync::Arc<NodeOutput> {
    fn eq(&self, other: &NodeOutput) -> bool {
        **self == *other
    }
}

pub(crate) const OUT_TAG_DATA: u8 = 1;
pub(crate) const OUT_TAG_MODEL: u8 = 2;

impl NodeOutput {
    /// Borrows the data collection, if this is one.
    pub fn as_data(&self) -> Result<&DataCollection> {
        match self {
            NodeOutput::Data(dc) => Ok(dc),
            NodeOutput::Model(_) => {
                Err(crate::HelixError::Exec("expected data, found model".into()))
            }
        }
    }

    /// Borrows the model bundle, if this is one.
    pub fn as_model(&self) -> Result<&TrainedModel> {
        match self {
            NodeOutput::Model(m) => Ok(m),
            NodeOutput::Data(_) => {
                Err(crate::HelixError::Exec("expected model, found data".into()))
            }
        }
    }

    /// Approximate in-memory/on-disk footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        match self {
            NodeOutput::Data(dc) => dc.estimated_bytes(),
            NodeOutput::Model(m) => {
                m.feature_names.iter().map(|n| n.len() + 8).sum::<usize>() + 4096
            }
        }
    }

    /// Serializes for the intermediate store.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            NodeOutput::Data(dc) => {
                let mut buf = vec![OUT_TAG_DATA];
                helix_dataflow::codec::encode_into(dc, &mut buf);
                buf
            }
            NodeOutput::Model(m) => {
                let mut buf = vec![OUT_TAG_MODEL];
                buf.extend_from_slice(&m.encode());
                buf
            }
        }
    }

    /// Deserializes bytes written by [`NodeOutput::encode`].
    pub fn decode(bytes: &[u8]) -> Result<NodeOutput> {
        let Some((&tag, rest)) = bytes.split_first() else {
            return Err(crate::HelixError::Store("empty node output".into()));
        };
        match tag {
            OUT_TAG_DATA => Ok(NodeOutput::Data(helix_dataflow::codec::decode(rest)?)),
            OUT_TAG_MODEL => Ok(NodeOutput::Model(TrainedModel::decode(rest)?)),
            other => Err(crate::HelixError::Store(format!(
                "bad node output tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_dataflow::{DataType, Row, Schema, Value};

    #[test]
    fn params_strings_distinguish_configs() {
        let a = OperatorKind::Train(LearnerSpec::default());
        let b = OperatorKind::Train(LearnerSpec {
            reg_param: 0.5,
            ..Default::default()
        });
        assert_ne!(a.params_string(), b.params_string());
        let c = OperatorKind::FieldExtractor {
            field: "age".into(),
            kind: ExtractorKind::Numeric,
        };
        let d = OperatorKind::FieldExtractor {
            field: "age".into(),
            kind: ExtractorKind::Categorical,
        };
        assert_ne!(c.params_string(), d.params_string());
    }

    #[test]
    fn stages_follow_paper_coloring() {
        assert_eq!(
            OperatorKind::CsvScan { fields: vec![] }.stage(),
            Stage::DataPreProcessing
        );
        assert_eq!(
            OperatorKind::Train(LearnerSpec::default()).stage(),
            Stage::MachineLearning
        );
        assert_eq!(
            OperatorKind::Evaluate(EvalSpec::default()).stage(),
            Stage::Evaluation
        );
    }

    #[test]
    fn node_output_data_round_trips() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let dc = DataCollection::new(schema, vec![Row(vec![Value::Int(5)])]).unwrap();
        let out = NodeOutput::Data(dc);
        let back = NodeOutput::decode(&out.encode()).unwrap();
        assert_eq!(back, out);
        assert!(back.as_data().is_ok());
        assert!(back.as_model().is_err());
    }

    #[test]
    fn node_output_model_round_trips() {
        let ds = helix_ml::Dataset::new(
            vec![helix_ml::LabeledExample {
                features: helix_ml::SparseVector::from_pairs(vec![(0, 1.0)]),
                label: 1.0,
            }],
            1,
        );
        let model =
            helix_ml::logreg::train(&ds, &helix_ml::logreg::LogRegConfig::default()).unwrap();
        let bundle = TrainedModel {
            model: helix_ml::Model::LogReg(model),
            feature_names: vec!["edu=BS".into()],
        };
        let out = NodeOutput::Model(bundle);
        let back = NodeOutput::decode(&out.encode()).unwrap();
        assert_eq!(back, out);
        let fs = back.as_model().unwrap().feature_space();
        assert_eq!(fs.lookup("edu=BS"), Some(0));
        assert!(fs.is_frozen());
    }

    fn bundle() -> TrainedModel {
        let ds = helix_ml::Dataset::new(
            vec![helix_ml::LabeledExample {
                features: helix_ml::SparseVector::from_pairs(vec![(0, 1.0)]),
                label: 1.0,
            }],
            1,
        );
        let model =
            helix_ml::logreg::train(&ds, &helix_ml::logreg::LogRegConfig::default()).unwrap();
        TrainedModel {
            model: helix_ml::Model::LogReg(model),
            feature_names: vec!["edu=BS".into()],
        }
    }

    #[test]
    fn a_flipped_model_byte_fails_its_checksum() {
        let bytes = bundle().encode();
        for at in [0, MODEL_MAGIC.len() + 3, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x04;
            assert!(TrainedModel::decode(&flipped).is_err(), "byte {at}");
        }
        assert!(TrainedModel::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn model_bundles_without_a_checksum_still_decode() {
        let bundle = bundle();
        let sealed = bundle.encode();
        let legacy = &sealed[MODEL_MAGIC.len()..sealed.len() - 8];
        assert_eq!(TrainedModel::decode(legacy).unwrap(), bundle);
    }

    #[test]
    fn node_output_rejects_garbage() {
        assert!(NodeOutput::decode(&[]).is_err());
        assert!(NodeOutput::decode(&[9, 1, 2]).is_err());
    }

    #[test]
    fn udf_debug_hides_closure() {
        let udf = Udf::new("v1", |inputs| Ok(inputs[0].clone()));
        let shown = format!("{udf:?}");
        assert!(shown.contains("v1"));
    }
}

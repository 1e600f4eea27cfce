//! The information-extraction application (paper §3, Application 2):
//! person-mention extraction from news articles.
//!
//! Unlike Census, the input is unstructured text and the workflow is
//! dominated by pre-processing UDFs — sentence splitting, tokenization,
//! candidate extraction, and several feature extractors — "mirroring the
//! typical industry setting where extensive data ETL is necessary".

use crate::iterations::{IterationSpec, IterationStage};
use crate::news::{FIRST_NAMES, LAST_NAMES};
use helix_core::ops::{EvalSpec, LearnerSpec, MetricKind, Udf};
use helix_core::workflow::Workflow;
use helix_core::{HelixError, Result, SPLIT_COL};
use helix_dataflow::fx::FxHashSet;
use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
use helix_nlp::features::{candidate_features, FeatureConfig};
use helix_nlp::{extract_candidates, split_sentences, tokenize, Candidate, Gazetteer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Parameters of the IE workflow that iterations mutate.
#[derive(Debug, Clone)]
pub struct IeParams {
    /// Corpus file (one document per line).
    pub corpus_path: PathBuf,
    /// Gold mention spans CSV.
    pub gold_path: PathBuf,
    /// Fraction of documents held out for evaluation.
    pub test_fraction: f64,
    /// Maximum candidate length in tokens.
    pub max_cand_len: usize,
    /// Context-word features wired in.
    pub feat_context: bool,
    /// Word-shape features wired in.
    pub feat_shape: bool,
    /// Gazetteer features wired in.
    pub feat_gazetteer: bool,
    /// Honorific-title cue wired in.
    pub feat_title: bool,
    /// Learner regularization.
    pub reg_param: f64,
    /// Learner epochs.
    pub epochs: usize,
    /// Metrics computed by the Reducer.
    pub metrics: Vec<MetricKind>,
}

impl IeParams {
    /// Initial-version parameters for data rooted at `dir`.
    pub fn initial(dir: &Path) -> Self {
        IeParams {
            corpus_path: dir.join("corpus.txt"),
            gold_path: dir.join("gold.csv"),
            test_fraction: 0.25,
            max_cand_len: 3,
            feat_context: false,
            feat_shape: false,
            feat_gazetteer: false,
            feat_title: false,
            reg_param: 0.1,
            epochs: 6,
            metrics: vec![MetricKind::F1],
        }
    }

    /// Benchmark parameters: every feature group wired in (maximum
    /// partitionable width) with few learner epochs, so the row-parallel
    /// UDF chain — sentences, candidates, feature groups — dominates the
    /// measured run.
    pub fn bench(dir: &Path) -> Self {
        IeParams {
            feat_context: true,
            feat_shape: true,
            feat_gazetteer: true,
            feat_title: true,
            epochs: 2,
            ..IeParams::initial(dir)
        }
    }
}

fn sentences_schema() -> Arc<Schema> {
    Schema::of(&[
        ("doc_id", DataType::Int),
        ("offset", DataType::Int),
        ("text", DataType::Str),
        (SPLIT_COL, DataType::Str),
    ])
}

fn candidates_schema() -> Arc<Schema> {
    Schema::of(&[
        (SPLIT_COL, DataType::Str),
        ("doc_id", DataType::Int),
        ("start", DataType::Int),
        ("end", DataType::Int),
        ("text", DataType::Str),
        ("sentence", DataType::Str),
        ("tok_start", DataType::Int),
        ("tok_end", DataType::Int),
    ])
}

/// The training-time gazetteers: a 2/3 subset of the generator's name
/// lists, so membership is informative but not an oracle.
fn gazetteers() -> (Gazetteer, Gazetteer) {
    let first = Gazetteer::from_names(
        FIRST_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, n)| *n),
    );
    let last = Gazetteer::from_names(
        LAST_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, n)| *n),
    );
    (first, last)
}

fn udf_sentences() -> Udf {
    Udf::new("sentences:v1", |inputs| {
        let corpus = inputs[0];
        let doc_idx = corpus.column_index("doc_id")?;
        let text_idx = corpus.column_index("text")?;
        let split_idx = corpus.column_index(SPLIT_COL)?;
        let mut rows = Vec::new();
        for row in corpus.rows() {
            let text = row.get(text_idx).as_str().unwrap_or("");
            for (start, _end, sentence) in split_sentences(text) {
                rows.push(Row(vec![
                    row.get(doc_idx).clone(),
                    Value::Int(start as i64),
                    Value::Str(sentence),
                    row.get(split_idx).clone(),
                ]));
            }
        }
        Ok(DataCollection::from_rows_unchecked(
            sentences_schema(),
            rows,
        ))
    })
}

fn udf_candidates(max_len: usize) -> Udf {
    Udf::new(format!("candidates:maxlen={max_len}"), move |inputs| {
        let sentences = inputs[0];
        let doc_idx = sentences.column_index("doc_id")?;
        let off_idx = sentences.column_index("offset")?;
        let text_idx = sentences.column_index("text")?;
        let split_idx = sentences.column_index(SPLIT_COL)?;
        let mut rows = Vec::new();
        for row in sentences.rows() {
            let sentence = row.get(text_idx).as_str().unwrap_or("");
            let offset = row.get(off_idx).as_int().unwrap_or(0);
            let tokens = tokenize(sentence);
            for cand in extract_candidates(&tokens, max_len) {
                rows.push(Row(vec![
                    row.get(split_idx).clone(),
                    row.get(doc_idx).clone(),
                    Value::Int(offset + cand.start as i64),
                    Value::Int(offset + cand.end as i64),
                    Value::Str(cand.text.clone()),
                    Value::Str(sentence.to_string()),
                    Value::Int(cand.token_start as i64),
                    Value::Int(cand.token_end as i64),
                ]));
            }
        }
        Ok(DataCollection::from_rows_unchecked(
            candidates_schema(),
            rows,
        ))
    })
}

fn udf_labels() -> Udf {
    Udf::new("labels:v1", |inputs| {
        let candidates = inputs[0];
        let gold = inputs[1];
        let gdoc = gold.column_index("doc_id")?;
        let gstart = gold.column_index("start")?;
        let gend = gold.column_index("end")?;
        let mut gold_set: FxHashSet<(i64, i64, i64)> = FxHashSet::default();
        for row in gold.rows() {
            gold_set.insert((
                row.get(gdoc).as_int().unwrap_or(-1),
                row.get(gstart).as_int().unwrap_or(-1),
                row.get(gend).as_int().unwrap_or(-1),
            ));
        }
        let cdoc = candidates.column_index("doc_id")?;
        let cstart = candidates.column_index("start")?;
        let cend = candidates.column_index("end")?;
        let rows = candidates
            .rows()
            .iter()
            .map(|row| {
                let key = (
                    row.get(cdoc).as_int().unwrap_or(-2),
                    row.get(cstart).as_int().unwrap_or(-2),
                    row.get(cend).as_int().unwrap_or(-2),
                );
                let label = if gold_set.contains(&key) { 1.0 } else { 0.0 };
                Row(vec![helix_core::exec::features([("label", label)])])
            })
            .collect();
        Ok(DataCollection::from_rows_unchecked(
            helix_core::exec::feats_schema(),
            rows,
        ))
    })
}

/// Rebuilds the candidate and tokens context for a candidates row.
fn row_candidate(
    row: &Row,
    candidates: &DataCollection,
) -> Result<(Vec<helix_nlp::Token>, Candidate)> {
    let sentence = row
        .get(candidates.column_index("sentence")?)
        .as_str()
        .ok_or_else(|| HelixError::Exec("candidate sentence missing".into()))?;
    let tok_start = row
        .get(candidates.column_index("tok_start")?)
        .as_int()
        .unwrap_or(0) as usize;
    let tok_end = row
        .get(candidates.column_index("tok_end")?)
        .as_int()
        .unwrap_or(0) as usize;
    let text = row
        .get(candidates.column_index("text")?)
        .as_str()
        .unwrap_or("")
        .to_string();
    let tokens = tokenize(sentence);
    let (start, end) = if tok_start < tokens.len() && tok_end <= tokens.len() && tok_end > tok_start
    {
        (tokens[tok_start].start, tokens[tok_end - 1].end)
    } else {
        (0, 0)
    };
    Ok((
        tokens,
        Candidate {
            token_start: tok_start,
            token_end: tok_end,
            start,
            end,
            text,
        },
    ))
}

/// A feature-group UDF: emits fragments for exactly one [`FeatureConfig`]
/// group (plus the always-on bias), aligned with the candidates collection.
fn udf_feature_group(tag: &str, config: FeatureConfig) -> Udf {
    let (first, last) = gazetteers();
    Udf::new(format!("feat:{tag}:v1"), move |inputs| {
        let candidates = inputs[0];
        let mut rows = Vec::with_capacity(candidates.len());
        for row in candidates.rows() {
            let (tokens, cand) = row_candidate(row, candidates)
                .map_err(|e| helix_dataflow::DataflowError::Udf(e.to_string()))?;
            let feats = candidate_features(&cand, &tokens, &first, &last, &config);
            rows.push(Row(vec![helix_core::exec::features(feats)]));
        }
        Ok(DataCollection::from_rows_unchecked(
            helix_core::exec::feats_schema(),
            rows,
        ))
    })
}

fn group_config(
    lexical: bool,
    context: bool,
    shape: bool,
    gazetteer: bool,
    title: bool,
    length: bool,
) -> FeatureConfig {
    FeatureConfig {
        lexical,
        context,
        shape,
        gazetteer,
        title_cue: title,
        length,
    }
}

/// Builds the IE workflow for the given parameters.
pub fn ie_workflow(params: &IeParams) -> Result<Workflow> {
    let mut w = Workflow::new("PersonIE");
    let corpus = w.text_source("corpus", &params.corpus_path, params.test_fraction)?;
    let gold_src = w.csv_source("gold_src", &params.gold_path, None::<&Path>)?;
    let gold = w.csv_scanner(
        "gold",
        &gold_src,
        &[
            ("doc_id", DataType::Int),
            ("start", DataType::Int),
            ("end", DataType::Int),
        ],
    )?;
    // Pre-processing and feature UDFs are declared row-wise (each emits
    // rows derived only from the corresponding rows of its first input),
    // so the scheduler may split them into data-parallel partitions.
    let sentences = w.row_udf("sentences", &[&corpus], udf_sentences())?;
    let candidates = w.row_udf(
        "candidates",
        &[&sentences],
        udf_candidates(params.max_cand_len),
    )?;
    // `labels` joins against the whole gold set — not partitionable.
    let labels = w.udf("labels", &[&candidates, &gold], udf_labels())?;

    let lexical = w.row_udf(
        "feat_lexical",
        &[&candidates],
        udf_feature_group(
            "lexical",
            group_config(true, false, false, false, false, true),
        ),
    )?;
    let context = w.row_udf(
        "feat_context",
        &[&candidates],
        udf_feature_group(
            "context",
            group_config(false, true, false, false, false, false),
        ),
    )?;
    let shape = w.row_udf(
        "feat_shape",
        &[&candidates],
        udf_feature_group(
            "shape",
            group_config(false, false, true, false, false, false),
        ),
    )?;
    let gazetteer = w.row_udf(
        "feat_gazetteer",
        &[&candidates],
        udf_feature_group(
            "gazetteer",
            group_config(false, false, false, true, false, false),
        ),
    )?;
    let title = w.row_udf(
        "feat_title",
        &[&candidates],
        udf_feature_group(
            "title",
            group_config(false, false, false, false, true, false),
        ),
    )?;

    let mut extractors = vec![&lexical];
    if params.feat_context {
        extractors.push(&context);
    }
    if params.feat_shape {
        extractors.push(&shape);
    }
    if params.feat_gazetteer {
        extractors.push(&gazetteer);
    }
    if params.feat_title {
        extractors.push(&title);
    }

    let mentions = w.assemble("mentions", &candidates, &extractors, &labels)?;
    let predictions = w.learner(
        "predictions",
        &mentions,
        LearnerSpec {
            reg_param: params.reg_param,
            epochs: params.epochs,
            ..Default::default()
        },
    )?;
    let checked = w.evaluate(
        "checked",
        &predictions,
        EvalSpec {
            metrics: params.metrics.clone(),
            split: helix_core::SPLIT_TEST.into(),
        },
    )?;
    w.output(&predictions);
    w.output(&checked);
    Ok(w)
}

/// The Fig. 2(a) iteration script for the IE task.
pub fn ie_iterations() -> Vec<IterationSpec<IeParams>> {
    vec![
        IterationSpec::new(
            "add context features",
            IterationStage::DataPreProcessing,
            |p: &mut IeParams| {
                p.feat_context = true;
            },
        ),
        IterationSpec::new(
            "decrease regularization",
            IterationStage::MachineLearning,
            |p: &mut IeParams| {
                p.reg_param = 0.01;
            },
        ),
        IterationSpec::new(
            "add precision/recall metrics",
            IterationStage::Evaluation,
            |p: &mut IeParams| {
                p.metrics = vec![MetricKind::F1, MetricKind::Precision, MetricKind::Recall];
            },
        ),
        IterationSpec::new(
            "add gazetteer features",
            IterationStage::DataPreProcessing,
            |p: &mut IeParams| {
                p.feat_gazetteer = true;
            },
        ),
        IterationSpec::new(
            "double training epochs",
            IterationStage::MachineLearning,
            |p: &mut IeParams| {
                p.epochs *= 2;
            },
        ),
        IterationSpec::new(
            "add shape features",
            IterationStage::DataPreProcessing,
            |p: &mut IeParams| {
                p.feat_shape = true;
            },
        ),
        IterationSpec::new(
            "add accuracy metric",
            IterationStage::Evaluation,
            |p: &mut IeParams| {
                p.metrics.push(MetricKind::Accuracy);
            },
        ),
        IterationSpec::new(
            "add honorific-title features",
            IterationStage::DataPreProcessing,
            |p: &mut IeParams| {
                p.feat_title = true;
            },
        ),
        IterationSpec::new(
            "longer candidates (4 tokens)",
            IterationStage::DataPreProcessing,
            |p: &mut IeParams| {
                p.max_cand_len = 4;
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::news::{generate_news, NewsDataSpec};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-ie-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn setup(tag: &str, docs: usize) -> (PathBuf, IeParams) {
        let dir = tmpdir(tag);
        generate_news(
            &dir,
            &NewsDataSpec {
                docs,
                ..Default::default()
            },
        )
        .unwrap();
        let params = IeParams::initial(&dir);
        (dir, params)
    }

    #[test]
    fn workflow_builds_with_expected_shape() {
        let (_dir, params) = setup("shape", 20);
        let w = ie_workflow(&params).unwrap();
        assert!(w.by_name("sentences").is_some());
        assert!(w.by_name("feat_gazetteer").is_some());
        let slice = helix_core::slicing::slice(&w).unwrap();
        // Optional feature groups start unwired and sliced out.
        assert!(!slice.active[w.by_name("feat_context").unwrap().index()]);
        assert!(slice.active[w.by_name("feat_lexical").unwrap().index()]);
    }

    #[test]
    fn end_to_end_learns_to_find_people() {
        let (dir, mut params) = setup("e2e", 250);
        // Full feature set for the accuracy check.
        params.feat_context = true;
        params.feat_shape = true;
        params.feat_gazetteer = true;
        params.feat_title = true;
        let w = ie_workflow(&params).unwrap();
        let engine = std::sync::Arc::new(
            helix_core::Engine::new(helix_core::EngineConfig::helix(dir.join("store"))).unwrap(),
        );
        let mut session = helix_core::Session::new(engine, "ie-test", w);
        let report = session.iterate().unwrap();
        let f1 = report.metric("f1").unwrap();
        assert!(f1 > 0.7, "IE should find most people, f1 = {f1}");
    }

    #[test]
    fn feature_iterations_improve_or_hold_f1() {
        let (dir, mut params) = setup("iters", 150);
        let engine = std::sync::Arc::new(
            helix_core::Engine::new(helix_core::EngineConfig::helix(dir.join("store"))).unwrap(),
        );
        let mut session =
            helix_core::Session::new(engine, "ie-iters", ie_workflow(&params).unwrap());
        let base = session.iterate().unwrap();
        let base_f1 = base.metric("f1").unwrap();
        params.feat_gazetteer = true;
        params.feat_context = true;
        session.replace_workflow(ie_workflow(&params).unwrap());
        let better = session.iterate().unwrap();
        let better_f1 = better.metric("f1").unwrap();
        assert!(
            better_f1 >= base_f1 - 0.02,
            "features should not tank F1: {base_f1} -> {better_f1}"
        );
    }

    #[test]
    fn iteration_script_covers_all_stages() {
        let iters = ie_iterations();
        assert_eq!(iters.len(), 9);
        for stage in [
            IterationStage::DataPreProcessing,
            IterationStage::MachineLearning,
            IterationStage::Evaluation,
        ] {
            assert!(iters.iter().any(|i| i.stage == stage));
        }
    }

    #[test]
    fn eval_iteration_reuses_heavily() {
        let (dir, mut params) = setup("reuse", 120);
        let engine = std::sync::Arc::new(
            helix_core::Engine::new(helix_core::EngineConfig::helix(dir.join("store"))).unwrap(),
        );
        let mut session =
            helix_core::Session::new(engine, "ie-reuse", ie_workflow(&params).unwrap());
        session.iterate().unwrap();
        // Evaluation-only change: everything upstream should be reusable.
        params.metrics = vec![MetricKind::F1, MetricKind::Precision];
        session.replace_workflow(ie_workflow(&params).unwrap());
        let report = session.iterate().unwrap();
        let prep: Vec<_> = report
            .nodes
            .iter()
            .filter(|n| n.name == "candidates" || n.name == "sentences")
            .collect();
        assert!(
            prep.iter()
                .all(|n| n.state != helix_core::NodeState::Compute),
            "pre-processing must not recompute on an eval-only change"
        );
    }
}

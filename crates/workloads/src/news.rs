//! Synthetic news corpus generator for the information-extraction task,
//! plus a document-classification workflow over the same corpus.
//!
//! The paper's IE application "identifies person mentions from news
//! articles" (§3). We synthesize articles from sentence templates over a
//! person-name gazetteer, with organizations and places as capitalized
//! distractors, and emit gold person-mention spans alongside — replacing
//! the proprietary news corpus with an equivalent that exercises the same
//! pipeline (see DESIGN.md substitutions).
//!
//! [`news_workflow`] is the third demo workload: a document-level
//! classifier ("is this article person-dense?") whose feature extractors
//! fan out from one corpus scan — a wide, shallow DAG that complements
//! Census (structured, narrow) and IE (deep UDF chain) in the scheduler's
//! cross-workload test matrix.

use helix_core::ops::{EvalSpec, LearnerSpec, MetricKind, Udf};
use helix_core::workflow::Workflow;
use helix_core::Result;
use helix_dataflow::fx::FxHashMap;
use helix_dataflow::{DataCollection, DataType, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First names used by the generator (and partially by the gazetteer).
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Carlos",
    "Nancy",
    "Daniel",
    "Lisa",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Paul",
    "Emily",
    "Andrew",
    "Donna",
    "Joshua",
    "Michelle",
    "Kenneth",
    "Dorothy",
];

/// Last names used by the generator.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
];

const ORGS: &[&str] = &[
    "Acme Corporation",
    "Global Dynamics",
    "Initech",
    "Umbrella Holdings",
    "Stark Industries",
    "Wayne Enterprises",
    "Cyberdyne Systems",
    "Tyrell Corporation",
    "Hooli",
    "Vehement Capital",
];

const PLACES: &[&str] = &[
    "Springfield",
    "Rivertown",
    "Lakeside",
    "Centerville",
    "Fairview",
    "Georgetown",
    "Salem",
    "Madison",
    "Clinton",
    "Arlington",
];

const VERBS: &[&str] = &[
    "announced",
    "criticized",
    "praised",
    "met with",
    "interviewed",
    "defended",
    "endorsed",
];
const TOPICS: &[&str] = &[
    "the new budget proposal",
    "a controversial merger",
    "the quarterly results",
    "an ambitious infrastructure plan",
    "the ongoing negotiations",
    "a landmark settlement",
];

/// Generator settings.
#[derive(Debug, Clone)]
pub struct NewsDataSpec {
    /// Number of documents.
    pub docs: usize,
    /// Sentences per document (inclusive range).
    pub sentences_per_doc: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl Default for NewsDataSpec {
    fn default() -> Self {
        NewsDataSpec {
            docs: 900,
            sentences_per_doc: (3, 7),
            seed: 13,
        }
    }
}

impl NewsDataSpec {
    /// Bench-scale settings: `factor` multiplies a 30-document base, so
    /// factors 10–1000 span 300–30 000 documents (serving both the news
    /// classifier and the IE pipeline, which read the same corpus). The
    /// seed is fixed, so the same factor always generates byte-identical
    /// data.
    pub fn scaled(factor: usize) -> Self {
        NewsDataSpec {
            docs: 30 * factor.max(1),
            ..Default::default()
        }
    }
}

/// Output of [`generate_news`].
#[derive(Debug, Clone)]
pub struct NewsData {
    /// One-document-per-line corpus file.
    pub corpus_path: PathBuf,
    /// Gold mentions CSV (`doc_id,start,end`).
    pub gold_path: PathBuf,
    /// Number of gold mentions emitted.
    pub mentions: usize,
}

/// Generates the corpus and gold files under `dir`.
pub fn generate_news(dir: &Path, spec: &NewsDataSpec) -> Result<NewsData> {
    std::fs::create_dir_all(dir)?;
    let corpus_path = dir.join("corpus.txt");
    let gold_path = dir.join("gold.csv");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let corpus_file = std::fs::File::create(&corpus_path)?;
    let gold_file = std::fs::File::create(&gold_path)?;
    let mut corpus = std::io::BufWriter::new(corpus_file);
    let mut gold = std::io::BufWriter::new(gold_file);
    let mut mentions = 0usize;

    for doc_id in 0..spec.docs {
        let mut doc = String::new();
        let n_sents = rng.gen_range(spec.sentences_per_doc.0..=spec.sentences_per_doc.1);
        for _ in 0..n_sents {
            if !doc.is_empty() {
                doc.push(' ');
            }
            let spans = write_sentence(&mut doc, &mut rng);
            for (start, end) in spans {
                writeln!(gold, "{doc_id},{start},{end}")?;
                mentions += 1;
            }
        }
        writeln!(corpus, "{doc}")?;
    }
    corpus.flush()?;
    gold.flush()?;
    Ok(NewsData {
        corpus_path,
        gold_path,
        mentions,
    })
}

/// Appends one sentence to `doc`, returning byte spans of person mentions.
fn write_sentence(doc: &mut String, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let push_person = |doc: &mut String, rng: &mut StdRng, spans: &mut Vec<(usize, usize)>| {
        let first = FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())];
        let start = doc.len();
        if rng.gen_bool(0.2) {
            // Single-name mention ("Cher" style).
            doc.push_str(first);
        } else {
            let last = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())];
            doc.push_str(first);
            doc.push(' ');
            doc.push_str(last);
        }
        spans.push((start, doc.len()));
    };

    match rng.gen_range(0..5) {
        0 => {
            // "<Title> <Person> <verb> <topic> in <Place>."
            doc.push_str(if rng.gen_bool(0.5) { "Dr. " } else { "Gov. " });
            push_person(doc, rng, &mut spans);
            doc.push(' ');
            doc.push_str(VERBS[rng.gen_range(0..VERBS.len())]);
            doc.push(' ');
            doc.push_str(TOPICS[rng.gen_range(0..TOPICS.len())]);
            doc.push_str(" in ");
            doc.push_str(PLACES[rng.gen_range(0..PLACES.len())]);
            doc.push('.');
        }
        1 => {
            // "<Org> <verb> <topic>."  (no person; distractor capitals)
            doc.push_str(ORGS[rng.gen_range(0..ORGS.len())]);
            doc.push(' ');
            doc.push_str(VERBS[rng.gen_range(0..VERBS.len())]);
            doc.push(' ');
            doc.push_str(TOPICS[rng.gen_range(0..TOPICS.len())]);
            doc.push('.');
        }
        2 => {
            // "<Person> of <Org> <verb> <topic>."
            push_person(doc, rng, &mut spans);
            doc.push_str(" of ");
            doc.push_str(ORGS[rng.gen_range(0..ORGS.len())]);
            doc.push(' ');
            doc.push_str(VERBS[rng.gen_range(0..VERBS.len())]);
            doc.push(' ');
            doc.push_str(TOPICS[rng.gen_range(0..TOPICS.len())]);
            doc.push('.');
        }
        3 => {
            // "Residents of <Place> heard <Person> speak."
            doc.push_str("Residents of ");
            doc.push_str(PLACES[rng.gen_range(0..PLACES.len())]);
            doc.push_str(" heard ");
            push_person(doc, rng, &mut spans);
            doc.push_str(" speak.");
        }
        _ => {
            // "<Person> met <Person> at <Org>."
            push_person(doc, rng, &mut spans);
            doc.push_str(" met ");
            push_person(doc, rng, &mut spans);
            doc.push_str(" at ");
            doc.push_str(ORGS[rng.gen_range(0..ORGS.len())]);
            doc.push('.');
        }
    }
    spans
}

// --- The news-classification workload -----------------------------------

/// Parameters of the news document-classification workflow.
#[derive(Debug, Clone)]
pub struct NewsParams {
    /// Corpus file (one document per line).
    pub corpus_path: PathBuf,
    /// Gold mention spans CSV (labels derive from per-document counts).
    pub gold_path: PathBuf,
    /// Fraction of documents held out for evaluation.
    pub test_fraction: f64,
    /// A document is "person-dense" (label 1) at this many gold mentions.
    pub mention_threshold: usize,
    /// Name-gazetteer hit-count features wired in.
    pub feat_gazetteer: bool,
    /// Honorific-title cue features wired in.
    pub feat_titles: bool,
    /// Organization-keyword features wired in.
    pub feat_orgs: bool,
    /// Learner regularization.
    pub reg_param: f64,
    /// Learner epochs.
    pub epochs: usize,
    /// Metrics computed by the Reducer.
    pub metrics: Vec<MetricKind>,
}

impl NewsParams {
    /// Initial-version parameters for data rooted at `dir`.
    pub fn initial(dir: &Path) -> Self {
        NewsParams {
            corpus_path: dir.join("corpus.txt"),
            gold_path: dir.join("gold.csv"),
            test_fraction: 0.25,
            mention_threshold: 4,
            feat_gazetteer: true,
            feat_titles: false,
            feat_orgs: false,
            reg_param: 0.1,
            epochs: 8,
            metrics: vec![MetricKind::Accuracy, MetricKind::F1],
        }
    }

    /// Benchmark parameters: all five feature extractors wired in
    /// (maximum partitionable width) with few learner epochs, so the
    /// row-parallel extractors dominate the measured run.
    pub fn bench(dir: &Path) -> Self {
        NewsParams {
            feat_titles: true,
            feat_orgs: true,
            epochs: 2,
            ..NewsParams::initial(dir)
        }
    }
}

/// Crude whitespace tokenizer with punctuation trimmed — document-level
/// counting features do not need the NLP crate's offset bookkeeping.
fn rough_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split_whitespace()
        .map(|t| t.trim_matches(|c: char| !c.is_alphanumeric()))
        .filter(|t| !t.is_empty())
}

fn doc_feature_udf(
    tag: &str,
    feats: impl Fn(&str) -> Vec<(String, f64)> + Send + Sync + 'static,
) -> Udf {
    let tag = tag.to_string();
    Udf::new(format!("newsfeat:{tag}:v1"), move |inputs| {
        let corpus = inputs[0];
        let text_idx = corpus.column_index("text")?;
        let rows = corpus
            .rows()
            .iter()
            .map(|row| {
                let text = row.get(text_idx).as_str().unwrap_or("");
                Row(vec![helix_core::exec::features(feats(text))])
            })
            .collect();
        Ok(DataCollection::from_rows_unchecked(
            helix_core::exec::feats_schema(),
            rows,
        ))
    })
}

/// Label UDF: a document is positive when the gold file records at least
/// `threshold` person mentions for it.
fn udf_doc_labels(threshold: usize) -> Udf {
    Udf::new(format!("newslabel:thr={threshold}"), move |inputs| {
        let corpus = inputs[0];
        let gold = inputs[1];
        let gdoc = gold.column_index("doc_id")?;
        let mut counts: FxHashMap<i64, usize> = FxHashMap::default();
        for row in gold.rows() {
            *counts
                .entry(row.get(gdoc).as_int().unwrap_or(-1))
                .or_insert(0) += 1;
        }
        let doc_idx = corpus.column_index("doc_id")?;
        let rows = corpus
            .rows()
            .iter()
            .map(|row| {
                let doc = row.get(doc_idx).as_int().unwrap_or(-2);
                let dense = counts.get(&doc).copied().unwrap_or(0) >= threshold;
                Row(vec![helix_core::exec::features([(
                    "label",
                    if dense { 1.0 } else { 0.0 },
                )])])
            })
            .collect();
        Ok(DataCollection::from_rows_unchecked(
            helix_core::exec::feats_schema(),
            rows,
        ))
    })
}

fn gazetteer_set() -> Arc<Vec<&'static str>> {
    // 2/3 subset, as in the IE task: informative but not an oracle.
    Arc::new(
        FIRST_NAMES
            .iter()
            .chain(LAST_NAMES.iter())
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, n)| *n)
            .collect(),
    )
}

/// Builds the news document-classification workflow: one corpus scan
/// fanning out into independent per-document feature extractors — the
/// widest of the three demo DAGs, and the one that gains most from
/// parallel scheduling.
pub fn news_workflow(params: &NewsParams) -> Result<Workflow> {
    let mut w = Workflow::new("NewsDensity");
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
    let labels = w.udf(
        "labels",
        &[&corpus, &gold],
        udf_doc_labels(params.mention_threshold),
    )?;

    // Feature extractors are row-wise over the corpus (one feature row
    // per document), so the scheduler may data-parallelize each of them;
    // `labels` aggregates the gold file and stays a classic UDF.
    let length = w.row_udf(
        "feat_length",
        &[&corpus],
        doc_feature_udf("length", |text| {
            vec![
                ("tokens".into(), rough_tokens(text).count() as f64 / 10.0),
                ("sentences".into(), text.matches('.').count() as f64),
            ]
        }),
    )?;
    let caps = w.row_udf(
        "feat_caps",
        &[&corpus],
        doc_feature_udf("caps", |text| {
            let caps = rough_tokens(text)
                .filter(|t| t.chars().next().is_some_and(|c| c.is_uppercase()))
                .count();
            vec![("cap_tokens".into(), caps as f64 / 5.0)]
        }),
    )?;
    let gazetteer = {
        let names = gazetteer_set();
        w.row_udf(
            "feat_gazetteer",
            &[&corpus],
            doc_feature_udf("gazetteer", move |text| {
                let hits = rough_tokens(text).filter(|t| names.contains(t)).count();
                vec![("name_hits".into(), hits as f64)]
            }),
        )?
    };
    let titles = w.row_udf(
        "feat_titles",
        &[&corpus],
        doc_feature_udf("titles", |text| {
            let cues = text.matches("Dr.").count() + text.matches("Gov.").count();
            vec![("title_cues".into(), cues as f64)]
        }),
    )?;
    let orgs = w.row_udf(
        "feat_orgs",
        &[&corpus],
        doc_feature_udf("orgs", |text| {
            let hits = ORGS.iter().filter(|org| text.contains(*org)).count();
            vec![("org_hits".into(), hits as f64)]
        }),
    )?;

    let mut extractors = vec![&length, &caps];
    if params.feat_gazetteer {
        extractors.push(&gazetteer);
    }
    if params.feat_titles {
        extractors.push(&titles);
    }
    if params.feat_orgs {
        extractors.push(&orgs);
    }

    let articles = w.assemble("articles", &corpus, &extractors, &labels)?;
    let predictions = w.learner(
        "predictions",
        &articles,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-news-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn generator_is_deterministic() {
        let dir = tmpdir("det");
        let spec = NewsDataSpec {
            docs: 30,
            ..Default::default()
        };
        let d1 = generate_news(&dir, &spec).unwrap();
        let c1 = std::fs::read_to_string(&d1.corpus_path).unwrap();
        let d2 = generate_news(&dir, &spec).unwrap();
        let c2 = std::fs::read_to_string(&d2.corpus_path).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(d1.mentions, d2.mentions);
    }

    #[test]
    fn gold_spans_point_at_person_names() {
        let dir = tmpdir("spans");
        let data = generate_news(
            &dir,
            &NewsDataSpec {
                docs: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let corpus: Vec<String> = std::fs::read_to_string(&data.corpus_path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let gold = std::fs::read_to_string(&data.gold_path).unwrap();
        let mut checked = 0;
        for line in gold.lines() {
            let parts: Vec<&str> = line.split(',').collect();
            let (doc, start, end): (usize, usize, usize) = (
                parts[0].parse().unwrap(),
                parts[1].parse().unwrap(),
                parts[2].parse().unwrap(),
            );
            let mention = &corpus[doc][start..end];
            let first_word = mention.split(' ').next().unwrap();
            assert!(
                FIRST_NAMES.contains(&first_word),
                "span `{mention}` does not start with a first name"
            );
            checked += 1;
        }
        assert!(checked > 20, "expected plenty of mentions, got {checked}");
    }

    #[test]
    fn news_workflow_builds_with_fanout_shape() {
        let dir = tmpdir("wf-shape");
        let params = NewsParams::initial(&dir);
        let w = news_workflow(&params).unwrap();
        // The corpus fans out into the wired extractors plus labels.
        let corpus = w.by_name("corpus").unwrap();
        let children = w.children()[corpus.index()].len();
        assert!(children >= 4, "expected wide fan-out, got {children}");
        // Optional feature groups exist but are sliced out until wired.
        let slice = helix_core::slicing::slice(&w).unwrap();
        assert!(!slice.active[w.by_name("feat_titles").unwrap().index()]);
        assert!(slice.active[w.by_name("feat_gazetteer").unwrap().index()]);
    }

    #[test]
    fn news_workflow_learns_person_density() {
        let dir = tmpdir("wf-learn");
        generate_news(
            &dir,
            &NewsDataSpec {
                docs: 300,
                ..Default::default()
            },
        )
        .unwrap();
        let params = NewsParams::initial(&dir);
        let w = news_workflow(&params).unwrap();
        let engine = std::sync::Arc::new(
            helix_core::Engine::new(helix_core::EngineConfig::helix(dir.join("store"))).unwrap(),
        );
        let mut session = helix_core::Session::new(engine, "news-test", w);
        let report = session.iterate().unwrap();
        let acc = report.metric("accuracy").unwrap();
        assert!(
            acc > 0.75,
            "gazetteer hit counts should separate dense docs, accuracy = {acc}"
        );
    }

    #[test]
    fn news_second_iteration_reuses() {
        let dir = tmpdir("wf-reuse");
        generate_news(
            &dir,
            &NewsDataSpec {
                docs: 200,
                ..Default::default()
            },
        )
        .unwrap();
        let params = NewsParams::initial(&dir);
        let engine = std::sync::Arc::new(
            helix_core::Engine::new(helix_core::EngineConfig::helix(dir.join("store"))).unwrap(),
        );
        let mut session =
            helix_core::Session::new(engine, "news-reuse", news_workflow(&params).unwrap());
        session.iterate().unwrap();
        // ML-only change via the typed session handle: the feature
        // extractors must all be reused.
        session
            .set_learner_param("predictions", helix_core::LearnerParam::RegParam(0.01))
            .unwrap();
        let report = session.iterate().unwrap();
        for feat in ["feat_length", "feat_caps", "feat_gazetteer"] {
            let node = report.nodes.iter().find(|n| n.name == feat).unwrap();
            assert_ne!(
                node.state,
                helix_core::NodeState::Compute,
                "{feat} must not recompute on an ML-only change"
            );
        }
    }

    #[test]
    fn corpus_contains_distractors() {
        let dir = tmpdir("distract");
        let data = generate_news(
            &dir,
            &NewsDataSpec {
                docs: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let corpus = std::fs::read_to_string(&data.corpus_path).unwrap();
        assert!(ORGS.iter().any(|org| corpus.contains(org)), "orgs appear");
        assert!(
            PLACES.iter().any(|place| corpus.contains(place)),
            "places appear"
        );
    }
}

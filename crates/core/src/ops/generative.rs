//! The generative operator (§2.2) and categorical feature extraction.
//!
//! Generative tasks collect unconstrained input (free text, normalized
//! before combination) or constrained input (Radio responses, used by
//! join feature filtering). Multi-field tasks ask every field of a
//! tuple in one HIT; merging batches multiple tuples per HIT. Each
//! field is a question stream of the one batched vote path
//! ([`crate::ops::common`]), and a Radio cell is decided by the same
//! majority as §3.2's feature extraction.
// lint:hot-path

use std::collections::HashMap;

use qurk_combine::em::{QualityAdjust, QualityAdjustConfig};
use qurk_combine::majority_vote;
use qurk_crowd::question::{HitKind, Question, UNKNOWN};
use qurk_crowd::{Answer, ItemId};

use crate::backend::CrowdBackend;
use crate::error::Result;
use crate::ops::common::{batch_streams, CellVotes, WorkerRanks, DEFAULT_ROUND_LIMIT_SECS};
use crate::task::{CombinerKind, TaskDef, TaskType};
use crate::value::Value;

/// Combined output for one tuple: field name → value. Categorical
/// fields yield the option label (or NULL for UNKNOWN); text fields
/// the normalized majority string.
pub type GenRow = HashMap<String, Value>;

/// A Radio answer as a vote over `k` options: its category, UNKNOWN
/// as `k`. A category past the options (only a stored answer can hold
/// one) or an answer of another kind is no vote.
pub(crate) fn radio_label(answer: &Answer, k: usize) -> Option<usize> {
    match answer.as_category()? {
        UNKNOWN => Some(k),
        c => (c < k).then_some(c),
    }
}

/// The majority of one Radio cell's votes ([`radio_label`]s over `k`
/// options): the winning option, `None` if UNKNOWN wins or nobody
/// voted.
pub(crate) fn radio_majority(labels: impl Iterator<Item = usize>, k: usize) -> Option<usize> {
    let labels: Vec<usize> = labels.collect();
    majority_vote(&labels).winner.filter(|&c| c < k)
}

/// Configuration for one generative execution.
#[derive(Debug, Clone)]
pub struct GenerativeOp {
    /// Tuples per HIT.
    pub batch_size: usize,
    /// Ask all fields in one HIT (`FeatureCombined` framing) or one
    /// field at a time (`FeatureSingle`). §3.3.4 compares the two.
    pub combined_interface: bool,
    pub assignments: Option<u32>,
    pub limit_secs: f64,
}

impl Default for GenerativeOp {
    fn default() -> Self {
        GenerativeOp {
            batch_size: 5,
            combined_interface: true,
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
        }
    }
}

/// Result of a generative run.
#[derive(Debug)]
pub struct GenOutcome {
    pub rows: Vec<GenRow>,
    pub hits_posted: usize,
}

/// One vote of a generative cell: a text field's normalized answer, or
/// a Radio field's [`radio_label`].
enum Vote {
    Text(String),
    Label(usize),
}

impl GenerativeOp {
    /// Run `task` (type Generative) over `items`.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        task: &TaskDef,
        items: &[ItemId],
    ) -> Result<GenOutcome> {
        assert_eq!(task.ty, TaskType::Generative, "not a generative task");
        if items.is_empty() {
            return Ok(GenOutcome {
                rows: Vec::new(),
                hits_posted: 0,
            });
        }
        let nf = task.fields.len();
        let kind = if self.combined_interface && nf > 1 {
            HitKind::FeatureCombined
        } else {
            HitKind::FeatureSingle
        };

        // One question stream per field: a Radio field (its options
        // listed here, UNKNOWN excluded) asks for a category, a text field
        // for free text. Single-field tasks key the oracle by task name;
        // multi-field by field name.
        let radios: Vec<Option<Vec<&str>>> = task
            .fields
            .iter()
            .map(|f| f.radio_options().map(|(opts, _)| opts))
            .collect();
        let streams: Vec<Vec<Question>> = task
            .fields
            .iter()
            .zip(&radios)
            .map(|(f, radio)| {
                let name = if nf == 1 { &task.name } else { &f.name };
                items
                    .iter()
                    .map(|&item| match radio {
                        Some(opts) => Question::Feature {
                            item,
                            feature: name.to_owned(),
                            num_options: opts.len(),
                        },
                        None => Question::Generative {
                            item,
                            field: f.name.to_owned(),
                        },
                    })
                    .collect()
            })
            .collect();
        // Separate interfaces post one group of HITs per field,
        // concatenated (posted together, §2.5 runs them in parallel).
        let (specs, layout) =
            batch_streams(streams, self.batch_size, self.combined_interface, kind);
        let hits_posted = specs.len();

        // A text field's vote is its normalized answer; a Radio field's
        // is its label over the field's options.
        let votes = CellVotes::ask(
            backend,
            specs,
            &layout,
            self.assignments,
            self.limit_secs,
            |cell, answer| match &radios[cell % nf] {
                Some(opts) => radio_label(answer, opts.len()).map(Vote::Label),
                None => {
                    let text = answer.as_text()?;
                    Some(Vote::Text(task.fields[cell % nf].normalizer.apply(text)))
                }
            },
        )?;

        // Combine. A cell with no vote leaves its field unset.
        let mut rows: Vec<GenRow> = vec![GenRow::new(); items.len()];
        for (fi, f) in task.fields.iter().enumerate() {
            let cell = |ii: usize| votes.cell(ii * nf + fi);
            let decided: Vec<Option<Value>> = match &radios[fi] {
                None => (0..items.len())
                    .map(|ii| {
                        let texts: Vec<&str> = cell(ii)
                            .iter()
                            .filter_map(|(_, v)| match v {
                                Vote::Text(t) => Some(t.as_str()),
                                Vote::Label(_) => None,
                            })
                            .collect();
                        let winner = majority_vote(&texts).winner;
                        (!texts.is_empty()).then(|| winner.map_or(Value::Null, Value::text))
                    })
                    .collect(),
                Some(opts) => {
                    let labels = |ii: usize| {
                        cell(ii).iter().filter_map(|(w, v)| match v {
                            Vote::Label(c) => Some((*w, *c)),
                            Vote::Text(_) => None,
                        })
                    };
                    let option = |c: Option<usize>| c.map_or(Value::Null, |c| Value::text(opts[c]));
                    let k = opts.len();
                    match f.combiner {
                        CombinerKind::MajorityVote => (0..items.len())
                            .map(|ii| {
                                let winner = radio_majority(labels(ii).map(|(_, c)| c), k);
                                (labels(ii).next().is_some()).then(|| option(winner))
                            })
                            .collect(),
                        CombinerKind::QualityAdjust => {
                            // EM over this field's votes across items;
                            // UNKNOWN answers are excluded from EM (they
                            // carry no label) and win only if they are
                            // the outright majority. EM items are item
                            // indices up to the last one with a labelled
                            // vote; items in that range without one still
                            // count in the priors.
                            let labelled = |ii: usize| labels(ii).filter(|&(_, c)| c < k);
                            let ranks = WorkerRanks::new(
                                (0..items.len()).flat_map(|ii| labelled(ii).map(|(w, _)| w)),
                            );
                            let num_em_items = (0..items.len())
                                .rev()
                                .find(|&ii| labelled(ii).next().is_some())
                                .map_or(0, |ii| ii + 1);
                            let mut offsets = vec![0];
                            let mut em_votes = Vec::new();
                            for ii in 0..num_em_items {
                                em_votes.extend(labelled(ii).map(|(w, c)| (ranks.rank(w), c)));
                                offsets.push(em_votes.len());
                            }
                            let qa = QualityAdjust::new(QualityAdjustConfig::categorical(k));
                            let em = qa.run_grouped(&offsets, &em_votes);
                            (0..items.len())
                                .map(|ii| {
                                    let total = labels(ii).count();
                                    let unknowns = total - labelled(ii).count();
                                    let decision = em.decisions.get(ii).copied();
                                    (total > 0)
                                        .then(|| option(decision.filter(|_| unknowns * 2 <= total)))
                                })
                                .collect()
                        }
                    }
                }
            };
            for (row, v) in rows.iter_mut().zip(decided) {
                if let Some(v) = v {
                    // lint:allow(hot-clone): each row owns its field names.
                    row.insert(f.name.clone(), v);
                }
            }
        }

        Ok(GenOutcome { rows, hits_posted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CachingBackend, ReplayBackend};
    use crate::lang::parser::parse_tasks;
    use qurk_crowd::truth::TextTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    fn task(src: &str) -> TaskDef {
        TaskDef::from_ast(&parse_tasks(src).unwrap()[0]).unwrap()
    }

    #[test]
    fn text_fields_normalize_and_combine() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(3);
        for (i, &item) in items.iter().enumerate() {
            gt.set_text(
                item,
                "common",
                TextTruth {
                    variants: vec![
                        (format!("Animal {i}"), 0.5),
                        (format!("animal   {i}"), 0.3),
                        (format!(" ANIMAL {i} "), 0.2),
                    ],
                },
            );
        }
        let mut m = Marketplace::new(&CrowdConfig::default().honest(), gt);
        let t = task(
            r#"TASK animalInfo(field) TYPE Generative:
                Prompt: "%s?", tuple[field]
                Fields: {
                    common: { Response: Text("Common name"),
                              Combiner: MajorityVote,
                              Normalizer: LowercaseSingleSpace }
                }
            "#,
        );
        let out = GenerativeOp::default().run(&mut m, &t, &items).unwrap();
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row["common"], Value::text(format!("animal {i}")), "row {i}");
        }
    }

    #[test]
    fn radio_features_extracted() {
        let mut gt = GroundTruth::new();
        gt.define_feature("gender", &["Male", "Female"]);
        let items = gt.new_items(10);
        for (i, &item) in items.iter().enumerate() {
            gt.set_feature_simple(item, "gender", i % 2, 0.03);
        }
        let mut m = Marketplace::new(&CrowdConfig::default(), gt);
        let t = task(
            r#"TASK gender(field) TYPE Generative:
                Prompt: "%s gender?", tuple[field]
                Response: Radio("Gender", ["Male", "Female", UNKNOWN])
                Combiner: MajorityVote
            "#,
        );
        let out = GenerativeOp::default().run(&mut m, &t, &items).unwrap();
        let correct = out
            .rows
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.get("value").and_then(|v| v.as_text())
                    == Some(if i % 2 == 0 { "Male" } else { "Female" })
            })
            .count();
        assert!(correct >= 9, "correct={correct}/10");
        assert!(out.rows.iter().all(|r| r.contains_key("value")));
    }

    #[test]
    fn quality_adjust_combiner_on_features() {
        let mut gt = GroundTruth::new();
        gt.define_feature("hair", &["black", "brown", "blond", "white"]);
        let items = gt.new_items(12);
        for (i, &item) in items.iter().enumerate() {
            gt.set_feature_simple(item, "hair", i % 4, 0.1);
        }
        let mut m = Marketplace::new(&CrowdConfig::default(), gt);
        let t = task(
            r#"TASK hair(field) TYPE Generative:
                Prompt: "%s hair?", tuple[field]
                Response: Radio("Hair", ["black", "brown", "blond", "white", UNKNOWN])
                Combiner: QualityAdjust
            "#,
        );
        let out = GenerativeOp::default().run(&mut m, &t, &items).unwrap();
        let correct = out
            .rows
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.get("value").and_then(|v| v.as_text())
                    == Some(["black", "brown", "blond", "white"][i % 4])
            })
            .count();
        assert!(correct >= 10, "correct={correct}/12");
    }

    /// A CRC-valid store can hold a category past a radio field's
    /// options. Replayed, that answer is no vote: QualityAdjust still
    /// runs, and decides as if the answer had never been given.
    #[test]
    fn an_out_of_range_stored_category_is_no_vote() {
        let mut gt = GroundTruth::new();
        gt.define_feature("hair", &["black", "brown", "blond", "white"]);
        let items = gt.new_items(4);
        for (i, &item) in items.iter().enumerate() {
            gt.set_feature_simple(item, "hair", i, 0.1);
        }
        let mut m = CachingBackend::new(Marketplace::new(&CrowdConfig::default(), gt));
        let t = task(
            r#"TASK hair(field) TYPE Generative:
                Prompt: "%s hair?", tuple[field]
                Response: Radio("Hair", ["black", "brown", "blond", "white", UNKNOWN])
                Combiner: QualityAdjust
            "#,
        );
        let op = GenerativeOp::default();
        let before = op.run(&mut m, &t, &items).unwrap();
        let mut hostile = m.trace().clone();
        let [key] = hostile.keys()[..] else {
            panic!("four items fit one HIT");
        };
        // The last answer of the first assignment (item 3's), so that
        // dropping it shifts no other answer.
        let mut removed = hostile.clone();
        let entry = hostile.entries.get_mut(&key).unwrap();
        entry.assignments[0].answers[3] = qurk_crowd::Answer::Category(4 + 1);
        removed.entries.get_mut(&key).unwrap().assignments[0]
            .answers
            .pop();

        let after = op
            .run(&mut ReplayBackend::from_trace(hostile), &t, &items)
            .unwrap();
        let want = op
            .run(&mut ReplayBackend::from_trace(removed), &t, &items)
            .unwrap();
        assert_eq!(after.rows, want.rows);
        assert_eq!(after.rows.len(), before.rows.len());
    }

    #[test]
    fn batching_reduces_hits() {
        let mut gt = GroundTruth::new();
        gt.define_feature("gender", &["Male", "Female"]);
        let items = gt.new_items(20);
        for &item in &items {
            gt.set_feature_simple(item, "gender", 0, 0.03);
        }
        let mut m = Marketplace::new(&CrowdConfig::default(), gt);
        let t = task(
            r#"TASK gender(field) TYPE Generative:
                Prompt: "%s?", tuple[field]
                Response: Radio("Gender", ["Male", "Female", UNKNOWN])
            "#,
        );
        let op = GenerativeOp {
            batch_size: 4,
            ..Default::default()
        };
        let out = op.run(&mut m, &t, &items).unwrap();
        assert_eq!(out.hits_posted, 5); // 20 / 4
    }

    #[test]
    fn empty_items_is_noop() {
        let gt = GroundTruth::new();
        let mut m = Marketplace::new(&CrowdConfig::default(), gt);
        let t = task(
            r#"TASK gender(field) TYPE Generative:
                Prompt: "%s?", tuple[field]
                Response: Radio("G", ["a", "b"])
            "#,
        );
        let out = GenerativeOp::default().run(&mut m, &t, &[]).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(m.hits_posted(), 0);
    }
}

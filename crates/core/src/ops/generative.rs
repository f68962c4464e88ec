//! The generative operator (§2.2) and categorical feature extraction.
//!
//! Generative tasks collect unconstrained input (free text, normalized
//! before combination) or constrained input (Radio responses, used by
//! join feature filtering). Multi-field tasks ask every field of a
//! tuple in one HIT; merging batches multiple tuples per HIT.

use std::collections::HashMap;

use qurk_combine::em::{QualityAdjust, QualityAdjustConfig};
use qurk_combine::majority_vote;
use qurk_crowd::question::{HitKind, Question, UNKNOWN};
use qurk_crowd::{ItemId, WorkerId};

use crate::backend::CrowdBackend;
use crate::error::{QurkError, Result};
use crate::hit::batch::combine_questions;
use crate::lang::ast::{ResponseOption, ResponseSpec};
use crate::ops::common::{question_starts, Round, WorkerRanks, DEFAULT_ROUND_LIMIT_SECS};
use crate::task::{CombinerKind, TaskDef, TaskType};
use crate::value::Value;

/// Combined output for one tuple: field name → value. Categorical
/// fields yield the option label (or NULL for UNKNOWN); text fields
/// the normalized majority string.
pub type GenRow = HashMap<String, Value>;

/// Raw categorical votes per item, for κ computations:
/// `votes[item_idx][field_idx]` = per-worker option indices (UNKNOWN
/// mapped to the extra index `num_options`).
pub type CategoricalVotes = Vec<Vec<Vec<usize>>>;

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
    /// Categorical votes for agreement analysis (empty vecs for text
    /// fields).
    pub votes: CategoricalVotes,
    pub hits_posted: usize,
}

impl GenerativeOp {
    /// Run `task` (type Generative) over `items`.
    #[allow(clippy::needless_range_loop)] // ii indexes parallel rows/votes/items arrays
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
                votes: Vec::new(),
                hits_posted: 0,
            });
        }
        let kind = if self.combined_interface && task.fields.len() > 1 {
            HitKind::FeatureCombined
        } else {
            HitKind::FeatureSingle
        };

        // Build one question stream per field.
        let streams: Vec<Vec<Question>> = task
            .fields
            .iter()
            .map(|f| {
                items
                    .iter()
                    .map(|&item| match &f.response {
                        ResponseSpec::Radio { options, .. } => Question::Feature {
                            item,
                            // Single-field tasks key the oracle by
                            // task name; multi-field by field name.
                            feature: if task.fields.len() == 1 {
                                task.name.clone()
                            } else {
                                f.name.clone()
                            },
                            num_options: options
                                .iter()
                                .filter(|o| matches!(o, ResponseOption::Value(_)))
                                .count(),
                        },
                        ResponseSpec::Text { .. } => Question::Generative {
                            item,
                            field: f.name.clone(),
                        },
                    })
                    .collect()
            })
            .collect();

        let specs = if self.combined_interface || streams.len() == 1 {
            combine_questions(streams, self.batch_size, kind)
        } else {
            // Separate interfaces: one group of HITs per field,
            // concatenated (posted together, §2.5 runs them in parallel).
            let mut all = Vec::new();
            for s in streams {
                all.extend(combine_questions(vec![s], self.batch_size, kind));
            }
            all
        };
        let num_specs = specs.len();
        let starts = question_starts(&specs);
        let round = Round::post(backend, specs, self.assignments);
        let answers = round.complete(backend, self.limit_secs)?;

        // Flattened question order -> (item_idx, field_idx).
        let nf = task.fields.len();
        let flat: Vec<(usize, usize)> = if self.combined_interface || nf == 1 {
            (0..items.len())
                .flat_map(|ii| (0..nf).map(move |fi| (ii, fi)))
                .collect()
        } else {
            (0..nf)
                .flat_map(|fi| (0..items.len()).map(move |ii| (ii, fi)))
                .collect()
        };

        // Gather per-cell votes. A category past its field's options
        // (only a stored answer can hold one) is no vote.
        let options: Vec<usize> = task
            .fields
            .iter()
            .map(|f| f.radio_options().map_or(0, |(opts, _)| opts.len()))
            .collect();
        let mut text_votes: HashMap<(usize, usize), Vec<String>> = HashMap::new();
        let mut cat_votes: HashMap<(usize, usize), Vec<(WorkerId, usize)>> = HashMap::new();
        for (assignments, &first_q) in answers.iter().zip(&starts) {
            for a in assignments {
                for (qi, ans) in a.answers.iter().enumerate() {
                    let cell = flat[first_q + qi];
                    match ans {
                        qurk_crowd::Answer::Text(t) => {
                            text_votes.entry(cell).or_default().push(t.clone())
                        }
                        &qurk_crowd::Answer::Category(c) if c == UNKNOWN || c < options[cell.1] => {
                            cat_votes.entry(cell).or_default().push((a.worker, c))
                        }
                        _ => {}
                    }
                }
            }
        }

        // Combine.
        let mut rows: Vec<GenRow> = vec![GenRow::new(); items.len()];
        let mut votes: CategoricalVotes = vec![vec![Vec::new(); nf]; items.len()];
        for (fi, f) in task.fields.iter().enumerate() {
            match &f.response {
                ResponseSpec::Text { .. } => {
                    for ii in 0..items.len() {
                        if let Some(vs) = text_votes.get(&(ii, fi)) {
                            let normalized: Vec<String> =
                                vs.iter().map(|s| f.normalizer.apply(s)).collect();
                            let outcome = majority_vote(&normalized);
                            rows[ii].insert(
                                f.name.clone(),
                                outcome.winner.map(Value::text).unwrap_or(Value::Null),
                            );
                        }
                    }
                }
                ResponseSpec::Radio { .. } => {
                    let (opts, _) = f.radio_options().ok_or_else(|| {
                        QurkError::Schema(format!("field {} has no radio options", f.name))
                    })?;
                    let k = opts.len();
                    // Record raw votes (UNKNOWN -> index k).
                    for ii in 0..items.len() {
                        if let Some(vs) = cat_votes.get(&(ii, fi)) {
                            votes[ii][fi] = vs
                                .iter()
                                .map(|&(_, c)| if c == UNKNOWN { k } else { c })
                                .collect();
                        }
                    }
                    match f.combiner {
                        CombinerKind::MajorityVote => {
                            for ii in 0..items.len() {
                                if let Some(vs) = cat_votes.get(&(ii, fi)) {
                                    let labels: Vec<usize> = vs
                                        .iter()
                                        .map(|&(_, c)| if c == UNKNOWN { k } else { c })
                                        .collect();
                                    let outcome = majority_vote(&labels);
                                    let v = match outcome.winner {
                                        Some(c) if c < k => Value::text(opts[c]),
                                        _ => Value::Null, // UNKNOWN won
                                    };
                                    rows[ii].insert(f.name.clone(), v);
                                }
                            }
                        }
                        CombinerKind::QualityAdjust => {
                            // EM over this field's votes across items;
                            // UNKNOWN answers are excluded from EM (they
                            // carry no label) and win only if they are
                            // the outright majority.
                            // EM items are item indices up to the last
                            // one with a labelled vote; items in that
                            // range without one still count in the
                            // priors.
                            let labelled = |ii: usize| {
                                cat_votes
                                    .get(&(ii, fi))
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&(_, c)| c != UNKNOWN)
                            };
                            let ranks = WorkerRanks::new(
                                (0..items.len()).flat_map(|ii| labelled(ii).map(|&(w, _)| w)),
                            );
                            let num_em_items = (0..items.len())
                                .rev()
                                .find(|&ii| labelled(ii).next().is_some())
                                .map_or(0, |ii| ii + 1);
                            let mut offsets = vec![0];
                            let mut em_votes = Vec::new();
                            for ii in 0..num_em_items {
                                em_votes.extend(labelled(ii).map(|&(w, c)| (ranks.rank(w), c)));
                                offsets.push(em_votes.len());
                            }
                            let qa = QualityAdjust::new(QualityAdjustConfig::categorical(k));
                            let em = qa.run_grouped(&offsets, &em_votes);
                            for ii in 0..items.len() {
                                if let Some(vs) = cat_votes.get(&(ii, fi)) {
                                    let unknowns =
                                        vs.iter().filter(|&&(_, c)| c == UNKNOWN).count();
                                    let v = if unknowns * 2 > vs.len() {
                                        Value::Null
                                    } else if ii < em.decisions.len() {
                                        Value::text(opts[em.decisions[ii]])
                                    } else {
                                        Value::Null
                                    };
                                    rows[ii].insert(f.name.clone(), v);
                                }
                            }
                        }
                    }
                }
            }
        }

        Ok(GenOutcome {
            rows,
            votes,
            hits_posted: num_specs,
        })
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
        // Votes recorded for kappa analysis.
        assert_eq!(out.votes.len(), 10);
        assert!(out.votes[0][0].len() >= 5);
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
    /// runs, and the cell it answered has every other vote.
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
        let entry = hostile.entries.get_mut(&key).unwrap();
        entry.assignments[0].answers[0] = qurk_crowd::Answer::Category(4 + 1);

        let after = op
            .run(&mut ReplayBackend::from_trace(hostile), &t, &items)
            .unwrap();
        assert_eq!(after.votes[0][0], before.votes[0][0][1..]);
        assert_eq!(after.votes[1..], before.votes[1..]);
        assert_eq!(after.rows.len(), 4);
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

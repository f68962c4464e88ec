//! The crowd filter operator (§2.1).
//!
//! Asks the crowd a Yes/No question per tuple; batches multiple tuples
//! per HIT (*merging*) and, via [`FilterOp::run_combined`], multiple
//! predicates per tuple (*combining*). Answers are fused by
//! MajorityVote or QualityAdjust.
//!
//! Re-ask avoidance is no longer this operator's job: wrap the backend
//! in a [`crate::backend::CachingBackend`] and identical filter HITs
//! are answered from the cache across queries.

use qurk_combine::em::{QualityAdjust, QualityAdjustConfig};
use qurk_combine::majority_vote_bool;
use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::{ItemId, WorkerId};

use crate::backend::CrowdBackend;
use crate::error::Result;
use crate::hit::batch::{combine_questions, merge_into_hits};
use crate::ops::common::{question_starts, Round, WorkerRanks, DEFAULT_ROUND_LIMIT_SECS};
use crate::task::CombinerKind;

/// Configuration for one filter execution.
#[derive(Debug, Clone)]
pub struct FilterOp {
    /// Tuples per HIT (merging batch size).
    pub batch_size: usize,
    pub combiner: CombinerKind,
    /// Assignments per HIT; `None` uses the backend default.
    pub assignments: Option<u32>,
    /// Virtual-time budget.
    pub limit_secs: f64,
}

impl Default for FilterOp {
    fn default() -> Self {
        FilterOp {
            batch_size: 5,
            combiner: CombinerKind::MajorityVote,
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
        }
    }
}

impl FilterOp {
    /// Evaluate `predicate` on each item; returns pass/fail per input.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        predicate: &str,
        items: &[ItemId],
    ) -> Result<Vec<bool>> {
        let results = self.run_combined(backend, &[predicate], items)?;
        // lint:allow(unwrap): run_combined returns one verdict per predicate and we passed exactly one
        Ok(results.into_iter().map(|mut v| v.pop().unwrap()).collect())
    }

    /// Evaluate several predicates on each item with *combining*: all
    /// predicates for a tuple share a HIT. Returns
    /// `out[item_idx][predicate_idx]`.
    pub fn run_combined<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        predicates: &[&str],
        items: &[ItemId],
    ) -> Result<Vec<Vec<bool>>> {
        assert!(!predicates.is_empty(), "need at least one predicate");
        let mut out = vec![vec![false; predicates.len()]; items.len()];
        if items.is_empty() {
            return Ok(out);
        }

        let streams: Vec<Vec<Question>> = predicates
            .iter()
            .map(|&p| {
                items
                    .iter()
                    .map(|&item| Question::Filter {
                        item,
                        predicate: p.to_owned(),
                    })
                    .collect()
            })
            .collect();
        let specs = if predicates.len() == 1 {
            merge_into_hits(
                // lint:allow(unwrap): one stream per predicate, and this branch has exactly one
                streams.into_iter().next().unwrap(),
                self.batch_size,
                HitKind::Filter,
            )
        } else {
            combine_questions(streams, self.batch_size, HitKind::Filter)
        };
        let starts = question_starts(&specs);
        let round = Round::post(backend, specs, self.assignments);
        let answers = round.complete(backend, self.limit_secs)?;

        // Gather votes per cell, one slot per (item_idx, predicate_idx)
        // at `item_idx * predicates + predicate_idx`: the question
        // stream's flattened order, which the specs carry in order.
        let np = predicates.len();
        let mut votes: Vec<Vec<(WorkerId, bool)>> = vec![Vec::new(); items.len() * np];
        for (assignments, &first_q) in answers.iter().zip(&starts) {
            for a in assignments {
                for (qi, ans) in a.answers.iter().enumerate() {
                    if let Some(b) = ans.as_bool() {
                        votes[first_q + qi].push((a.worker, b));
                    }
                }
            }
        }

        // A cell nobody voted on stays `false`.
        let voted = || votes.iter().enumerate().filter(|(_, vs)| !vs.is_empty());
        match self.combiner {
            CombinerKind::MajorityVote => {
                for (cell, vs) in voted() {
                    let bools: Vec<bool> = vs.iter().map(|&(_, b)| b).collect();
                    out[cell / np][cell % np] = majority_vote_bool(&bools);
                }
            }
            CombinerKind::QualityAdjust => {
                // One EM run over all voted cells: cells are "items",
                // numbered in slot order, each with its votes in order.
                let ranks = WorkerRanks::new(votes.iter().flatten().map(|&(w, _)| w));
                let mut offsets = vec![0];
                let mut em_votes = Vec::new();
                for (_, vs) in voted() {
                    em_votes.extend(vs.iter().map(|&(w, b)| (ranks.rank(w), usize::from(b))));
                    offsets.push(em_votes.len());
                }
                let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
                let result = qa.run_grouped(&offsets, &em_votes);
                for (id, (cell, _)) in voted().enumerate() {
                    out[cell / np][cell % np] = result.decision_bool(id);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::backend::CachingBackend;
    use qurk_crowd::market::{Assignment, HitGroupId, HitId, RunOutcome};
    use qurk_crowd::question::Answer;
    use qurk_crowd::sim::SimTime;
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, HitSpec, Marketplace};

    type PredSpec<'a> = &'a [(&'a str, fn(usize) -> bool)];

    fn market_with(n: usize, preds: PredSpec<'_>) -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(n);
        for (i, &item) in items.iter().enumerate() {
            for &(name, f) in preds {
                gt.set_predicate(
                    item,
                    name,
                    PredicateTruth {
                        value: f(i),
                        error_rate: 0.04,
                    },
                );
            }
        }
        (Marketplace::new(&CrowdConfig::default(), gt), items)
    }

    #[test]
    fn filters_match_truth() {
        let (mut m, items) = market_with(20, &[("even", |i| i % 2 == 0)]);
        let op = FilterOp::default();
        let out = op.run(&mut m, "even", &items).unwrap();
        let correct = out
            .iter()
            .enumerate()
            .filter(|(i, &b)| b == (i % 2 == 0))
            .count();
        assert!(correct >= 18, "correct={correct}/20");
    }

    #[test]
    fn merging_reduces_hits() {
        let (mut m, items) = market_with(20, &[("p", |_| true)]);
        let op = FilterOp {
            batch_size: 5,
            ..Default::default()
        };
        op.run(&mut m, "p", &items).unwrap();
        assert_eq!(m.hits_posted(), 4); // 20/5
    }

    #[test]
    fn combining_shares_hits_across_predicates() {
        let (mut m, items) = market_with(10, &[("a", |_| true), ("b", |i| i < 5)]);
        let op = FilterOp {
            batch_size: 5,
            ..Default::default()
        };
        let out = op.run_combined(&mut m, &["a", "b"], &items).unwrap();
        // 10 tuples x 2 predicates, 5 tuples per HIT -> 2 HITs.
        assert_eq!(m.hits_posted(), 2);
        let a_pass = out.iter().filter(|r| r[0]).count();
        let b_pass = out.iter().filter(|r| r[1]).count();
        assert!(a_pass >= 9, "a_pass={a_pass}");
        assert!((4..=6).contains(&b_pass), "b_pass={b_pass}");
    }

    #[test]
    fn caching_backend_avoids_reposting() {
        let (m, items) = market_with(10, &[("p", |i| i % 3 == 0)]);
        let mut backend = CachingBackend::new(m);
        let op = FilterOp::default();
        let first = op.run(&mut backend, "p", &items).unwrap();
        let hits_after_first = backend.hits_posted();
        let second = op.run(&mut backend, "p", &items).unwrap();
        assert_eq!(
            backend.hits_posted(),
            hits_after_first,
            "second run should be free"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn quality_adjust_combiner_works() {
        let (mut m, items) = market_with(20, &[("p", |i| i % 2 == 0)]);
        let op = FilterOp {
            combiner: CombinerKind::QualityAdjust,
            ..Default::default()
        };
        let out = op.run(&mut m, "p", &items).unwrap();
        let correct = out
            .iter()
            .enumerate()
            .filter(|(i, &b)| b == (i % 2 == 0))
            .count();
        assert!(correct >= 18, "correct={correct}/20");
    }

    #[test]
    fn empty_input_is_noop() {
        let (mut m, _) = market_with(1, &[("p", |_| true)]);
        let op = FilterOp::default();
        let out = op.run(&mut m, "p", &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.hits_posted(), 0);
    }

    /// A marketplace whose answers are scripted: assignment `k` of
    /// every HIT comes from worker `k` and answers the flattened
    /// question `q` with `script(k, q)`.
    struct ScriptedBackend {
        inner: Marketplace,
        script: fn(usize, usize) -> bool,
    }

    impl CrowdBackend for ScriptedBackend {
        fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
            self.inner.post_group(specs)
        }
        fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, n: u32) -> HitGroupId {
            self.inner.post_group_with_assignments(specs, n)
        }
        fn run(&mut self, limit_secs: f64) -> RunOutcome {
            self.inner.run(limit_secs)
        }
        fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
            let mut first_q = HashMap::new();
            let mut q = 0;
            for hit in self.inner.group_hits(group) {
                first_q.insert(hit, q);
                q += CrowdBackend::hit_question_count(&self.inner, hit);
            }
            let mut seen: HashMap<HitId, usize> = HashMap::new();
            let mut out = CrowdBackend::assignments(&mut self.inner, group);
            for a in &mut out {
                let k = seen.entry(a.hit).or_default();
                a.worker = WorkerId(*k);
                for (qi, ans) in a.answers.iter_mut().enumerate() {
                    *ans = Answer::Bool((self.script)(*k, first_q[&a.hit] + qi));
                }
                *k += 1;
            }
            out
        }
        fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
            self.inner.group_hits(group)
        }
        fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
            self.inner.group_latencies(group)
        }
        fn group_outstanding(&self, group: HitGroupId) -> u32 {
            self.inner.group_outstanding(group)
        }
        fn hit_question_count(&self, hit: HitId) -> usize {
            CrowdBackend::hit_question_count(&self.inner, hit)
        }
        fn ban_workers(&mut self, workers: Vec<WorkerId>) {
            self.inner.ban_workers(workers)
        }
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn hits_posted(&self) -> usize {
            self.inner.hits_posted()
        }
        fn spend_dollars(&self) -> f64 {
            CrowdBackend::spend_dollars(&self.inner)
        }
        fn assignments_completed(&self) -> u64 {
            CrowdBackend::assignments_completed(&self.inner)
        }
    }

    /// Regression: QualityAdjust numbered its EM cells in `HashMap`
    /// iteration order, so the M-step summed in a different order on
    /// every run. Two mirrored workers — each says yes where the other
    /// says no on half the cells, and they agree on the rest — are
    /// equally reliable up to rounding, so their disagreements sit on
    /// a knife edge that the summation order decided.
    #[test]
    fn quality_adjust_decisions_repeat_across_runs() {
        let run = || {
            let (m, items) = market_with(40, &[("a", |_| true), ("b", |_| true)]);
            let mut backend = ScriptedBackend {
                inner: m,
                script: |worker, q| match q % 4 {
                    0 => worker == 0,
                    1 => worker == 1,
                    2 => true,
                    _ => false,
                },
            };
            let op = FilterOp {
                combiner: CombinerKind::QualityAdjust,
                assignments: Some(2),
                ..Default::default()
            };
            op.run_combined(&mut backend, &["a", "b"], &items).unwrap()
        };
        let first = run();
        for _ in 0..30 {
            assert_eq!(run(), first);
        }
    }
}

//! The crowd filter operator (§2.1).
//!
//! Asks the crowd a Yes/No question per tuple; batches multiple tuples
//! per HIT (*merging*) and, via [`FilterOp::run_combined`], multiple
//! predicates per tuple (*combining*). The votes arrive through the
//! one batched vote path ([`crate::ops::common`]) and are fused by
//! MajorityVote or QualityAdjust.
//!
//! Re-ask avoidance is no longer this operator's job: wrap the backend
//! in a [`crate::backend::CachingBackend`] and identical filter HITs
//! are answered from the cache across queries.
// lint:hot-path

use qurk_combine::em::QualityAdjustConfig;
use qurk_combine::majority_vote_bool;
use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::ItemId;

use crate::backend::CrowdBackend;
use crate::error::Result;
use crate::ops::common::{batch_streams, CellVotes, DEFAULT_ROUND_LIMIT_SECS};
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
        self.verdicts(backend, &[predicate], items)
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
        let verdicts = self.verdicts(backend, predicates, items)?;
        Ok(verdicts
            .chunks(predicates.len())
            .map(<[bool]>::to_vec)
            .collect())
    }

    /// One verdict per cell, tuple-major: cell `item_idx * predicates +
    /// predicate_idx`. A cell nobody voted on is `false`.
    fn verdicts<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        predicates: &[&str],
        items: &[ItemId],
    ) -> Result<Vec<bool>> {
        assert!(!predicates.is_empty(), "need at least one predicate");
        if items.is_empty() {
            return Ok(Vec::new());
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
        let (specs, layout) = batch_streams(streams, self.batch_size, true, HitKind::Filter);
        let votes = CellVotes::ask(
            backend,
            specs,
            &layout,
            self.assignments,
            self.limit_secs,
            |_, answer| answer.as_bool(),
        )?;

        match self.combiner {
            CombinerKind::MajorityVote => {
                let mut bools = Vec::new();
                Ok(votes
                    .iter()
                    .map(|vs| {
                        bools.clear();
                        bools.extend(vs.iter().map(|&(_, b)| b));
                        majority_vote_bool(&bools)
                    })
                    .collect())
            }
            CombinerKind::QualityAdjust => {
                // One EM run over the voted cells, in cell order.
                let (voted, votes) = votes.voted();
                let config = QualityAdjustConfig::categorical(2);
                let (em, _) = votes.quality_adjust(config, |&b| usize::from(b));
                let mut out = vec![false; items.len() * predicates.len()];
                for (id, cell) in voted.into_iter().enumerate() {
                    out[cell] = em.decision_bool(id);
                }
                Ok(out)
            }
        }
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
    use qurk_crowd::{CrowdConfig, GroundTruth, HitSpec, Marketplace, WorkerId};

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

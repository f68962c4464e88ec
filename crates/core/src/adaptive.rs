//! Adaptive mechanisms sketched in the paper's §6 (future work),
//! implemented here as extensions:
//!
//! * [`AdaptiveVotes`] — "algorithms for adaptively deciding whether
//!   another answer is needed" (§2.1): instead of a fixed 5
//!   assignments, collect votes in rounds and stop early once one
//!   answer has a decisive margin.
//! * [`BatchSizeSearch`] — "such an algorithm performs a binary search
//!   on the batch size, reducing the size when workers refuse to do
//!   work or accuracy drops, and increasing the size when no noticeable
//!   change to latency and accuracy is observed" (§6).

use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::{HitSpec, ItemId};

use crate::backend::CrowdBackend;
use crate::error::{QurkError, Result};
use crate::ops::common::{Round, DEFAULT_ROUND_LIMIT_SECS};

/// Early-stopping vote collection for binary questions.
#[derive(Debug, Clone)]
pub struct AdaptiveVotes {
    /// Minimum votes before any decision.
    pub min_votes: u32,
    /// Hard ceiling on votes per item.
    pub max_votes: u32,
    /// Required lead (|yes − no|) to stop early.
    pub margin: u32,
}

impl Default for AdaptiveVotes {
    fn default() -> Self {
        AdaptiveVotes {
            min_votes: 3,
            max_votes: 9,
            margin: 2,
        }
    }
}

/// Result of an adaptive filter run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    pub decisions: Vec<bool>,
    /// Votes actually spent per item.
    pub votes_used: Vec<u32>,
    pub hits_posted: usize,
}

impl AdaptiveVotes {
    /// Evaluate `predicate` over `items`, requesting votes in rounds
    /// and dropping items once decided. Compared to a fixed 5-vote
    /// scheme this spends fewer assignments on easy items and more on
    /// contested ones.
    ///
    /// **Drive this against a non-caching backend.** Rounds after the
    /// first post byte-identical specs for still-contested items, so a
    /// [`crate::backend::CachingBackend`] would replay the previous
    /// round's answers instead of collecting fresh votes — the margin
    /// never grows and the same workers' votes are counted repeatedly.
    pub fn run_filter<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        predicate: &str,
        items: &[ItemId],
    ) -> Result<AdaptiveOutcome> {
        assert!(self.min_votes >= 1 && self.max_votes >= self.min_votes);
        let n = items.len();
        let mut yes = vec![0u32; n];
        let mut no = vec![0u32; n];
        let mut open: Vec<usize> = (0..n).collect();
        let mut hits_posted = 0usize;

        let mut round_votes = self.min_votes;
        while !open.is_empty() {
            let specs: Vec<HitSpec> = open
                .iter()
                .map(|&i| {
                    HitSpec::new(
                        vec![Question::Filter {
                            item: items[i],
                            predicate: predicate.to_owned(),
                        }],
                        HitKind::Filter,
                    )
                })
                .collect();
            hits_posted += specs.len();
            let round = Round::post(backend, specs, Some(round_votes));
            let answers = round.complete(backend, DEFAULT_ROUND_LIMIT_SECS)?;
            for (&i, assignments) in open.iter().zip(&answers) {
                let votes = yes[i] + no[i];
                for a in assignments {
                    match a.answers.first().and_then(|x| x.as_bool()) {
                        Some(true) => yes[i] += 1,
                        Some(false) => no[i] += 1,
                        None => {}
                    }
                }
                if yes[i] + no[i] == votes {
                    // A replayed spec answers the same way next round
                    // too: without a vote the item would never close.
                    return Err(QurkError::NoValidAnswer {
                        task: predicate.to_owned(),
                    });
                }
            }
            open.retain(|&i| {
                let total = yes[i] + no[i];
                let lead = yes[i].abs_diff(no[i]);
                total < self.max_votes && lead < self.margin
            });
            round_votes = 2; // subsequent rounds add votes two at a time
        }

        Ok(AdaptiveOutcome {
            decisions: (0..n).map(|i| yes[i] > no[i]).collect(),
            votes_used: (0..n).map(|i| yes[i] + no[i]).collect(),
            hits_posted,
        })
    }
}

/// One probe of a candidate batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// Did the probe batch complete within the latency target?
    pub completed: bool,
    /// Observed accuracy on gold-standard questions, if measured.
    pub accuracy: Option<f64>,
}

/// Binary search over batch sizes (§6).
#[derive(Debug, Clone)]
pub struct BatchSizeSearch {
    pub min_size: usize,
    pub max_size: usize,
    /// Accuracy floor below which a batch size is rejected.
    pub accuracy_floor: f64,
}

impl Default for BatchSizeSearch {
    fn default() -> Self {
        BatchSizeSearch {
            min_size: 1,
            max_size: 32,
            accuracy_floor: 0.75,
        }
    }
}

impl BatchSizeSearch {
    /// Find the largest acceptable batch size, probing with the given
    /// closure (which posts a probe group and reports completion /
    /// accuracy). Classic binary search: grow on success, shrink on
    /// refusal or accuracy drop.
    pub fn search(&self, mut probe: impl FnMut(usize) -> ProbeResult) -> usize {
        let mut lo = self.min_size;
        let mut hi = self.max_size;
        let mut best = self.min_size;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let result = probe(mid);
            let ok = result.completed && result.accuracy.is_none_or(|a| a >= self.accuracy_floor);
            if ok {
                best = mid;
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
        best
    }

    /// Probe a real marketplace with comparison groups of the given
    /// batch size and a virtual-time target (used by the ablation
    /// bench; §4.2.2's stalled group-size-20 experiment is exactly a
    /// failed probe).
    pub fn probe_compare_batch<B: CrowdBackend + ?Sized>(
        backend: &mut B,
        items: &[ItemId],
        dimension: &str,
        group_size: usize,
        target_secs: f64,
    ) -> ProbeResult {
        let group: Vec<ItemId> = items.iter().take(group_size).copied().collect();
        if group.len() < 2 {
            return ProbeResult {
                completed: true,
                accuracy: None,
            };
        }
        let spec = HitSpec::new(
            vec![Question::CompareGroup {
                items: group,
                dimension: dimension.to_owned(),
            }],
            HitKind::SortCompare,
        );
        let round = Round::post(backend, vec![spec], None);
        // Run out the probe window; judge THIS round only — earlier
        // stalled probes (or unrelated groups) may legitimately remain
        // outstanding on the same marketplace.
        let completed = round.try_complete(backend, target_secs).is_some();
        ProbeResult {
            completed,
            accuracy: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CachingBackend, ReplayBackend, TraceAssignment};
    use qurk_crowd::truth::{DimensionParams, PredicateTruth};
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    fn market(n: usize, err: f64) -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        gt.define_dimension("d", DimensionParams::crisp(0.02));
        let items = gt.new_items(n);
        for (i, &it) in items.iter().enumerate() {
            gt.set_predicate(
                it,
                "p",
                PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: err,
                },
            );
            gt.set_score(it, "d", i as f64);
        }
        (
            Marketplace::new(&CrowdConfig::default().honest(), gt),
            items,
        )
    }

    #[test]
    fn adaptive_votes_decide_correctly() {
        let (mut m, items) = market(20, 0.03);
        let out = AdaptiveVotes::default()
            .run_filter(&mut m, "p", &items)
            .unwrap();
        let correct = out
            .decisions
            .iter()
            .enumerate()
            .filter(|(i, &d)| d == (i % 2 == 0))
            .count();
        assert!(correct >= 19, "correct={correct}/20");
    }

    #[test]
    fn adaptive_votes_spend_less_on_easy_items() {
        let (mut m, items) = market(20, 0.02);
        let adaptive = AdaptiveVotes::default();
        let out = adaptive.run_filter(&mut m, "p", &items).unwrap();
        let avg: f64 = out.votes_used.iter().sum::<u32>() as f64 / out.votes_used.len() as f64;
        // Crisp items should mostly stop at the 3-vote minimum,
        // beating the fixed 5-vote default.
        assert!(avg < 5.0, "avg votes={avg}");
        assert!(out.votes_used.iter().all(|&v| v <= adaptive.max_votes));
    }

    #[test]
    fn contested_items_get_more_votes() {
        let (mut m, items) = market(12, 0.45); // extremely noisy
        let adaptive = AdaptiveVotes {
            min_votes: 3,
            max_votes: 11,
            margin: 4,
        };
        let out = adaptive.run_filter(&mut m, "p", &items).unwrap();
        let avg: f64 = out.votes_used.iter().sum::<u32>() as f64 / out.votes_used.len() as f64;
        assert!(avg > 5.0, "avg votes={avg}");
    }

    /// Record one unanimous three-vote filter HIT through the Task
    /// Cache, then rewrite its stored assignments with `hostile` and
    /// replay the trace.
    fn replay_filter_with(
        hostile: impl Fn(usize, &mut TraceAssignment),
    ) -> Result<AdaptiveOutcome> {
        let (m, items) = market(1, 0.0);
        let mut caching = CachingBackend::new(m);
        let out = AdaptiveVotes::default()
            .run_filter(&mut caching, "p", &items)
            .unwrap();
        assert_eq!((out.decisions, out.votes_used), (vec![true], vec![3]));
        let mut trace = caching.trace().clone();
        let [key] = trace.keys()[..] else {
            panic!("one item is one HIT");
        };
        let entry = trace.entries.get_mut(&key).unwrap();
        for (i, a) in entry.assignments.iter_mut().enumerate() {
            hostile(i, a);
        }
        AdaptiveVotes::default().run_filter(&mut ReplayBackend::from_trace(trace), "p", &items)
    }

    #[test]
    fn a_stored_assignment_without_answers_is_no_vote() {
        let out = replay_filter_with(|i, a| {
            if i == 0 {
                a.answers.clear();
            }
        })
        .unwrap();
        // The two remaining votes agree: lead 2 meets the margin.
        assert_eq!((out.decisions, out.votes_used), (vec![true], vec![2]));
    }

    #[test]
    fn a_hit_without_a_valid_vote_fails_the_query() {
        let out = replay_filter_with(|_, a| a.answers.clear());
        assert!(
            matches!(out, Err(QurkError::NoValidAnswer { ref task }) if task == "p"),
            "{out:?}"
        );
    }

    #[test]
    fn batch_search_finds_threshold() {
        // Synthetic probe: accepts up to 12.
        let search = BatchSizeSearch {
            min_size: 1,
            max_size: 32,
            accuracy_floor: 0.75,
        };
        let best = search.search(|b| ProbeResult {
            completed: b <= 12,
            accuracy: None,
        });
        assert_eq!(best, 12);
    }

    #[test]
    fn batch_search_respects_accuracy_floor() {
        let search = BatchSizeSearch::default();
        // Completion always fine, accuracy degrades with size.
        let best = search.search(|b| ProbeResult {
            completed: true,
            accuracy: Some(1.0 - 0.03 * b as f64),
        });
        // 1 - 0.03b >= 0.75 -> b <= 8.
        assert_eq!(best, 8);
    }

    #[test]
    fn probe_real_market_refuses_huge_groups() {
        let (mut m, items) = market(25, 0.03);
        let small = BatchSizeSearch::probe_compare_batch(&mut m, &items, "d", 5, 4.0 * 3600.0);
        assert!(small.completed);
        let (mut m2, items2) = market(25, 0.03);
        let large = BatchSizeSearch::probe_compare_batch(&mut m2, &items2, "d", 20, 4.0 * 3600.0);
        assert!(!large.completed, "20-item compare groups should stall");
    }
}

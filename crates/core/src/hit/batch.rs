//! Batching transformations (§2.6).
//!
//! "Our system automatically applies two types of batching to tasks:
//! **merging**, where we generate a single HIT that applies a given
//! task (operator) to multiple tuples, and **combining**, where we
//! generate a single HIT that applies several tasks (generally only
//! filters and generative tasks) to the same tuple."
//!
//! Operators reach these through `ops::common::batch_streams`, which
//! also numbers each question's cell. Filters merge one predicate and
//! combine several; ratings merge; feature extraction and generative
//! tasks combine their fields or merge each field on its own, as their
//! `combined_interface` says. The one per-cell vote tally is
//! [`CellVotes`](crate::ops::common::CellVotes).

use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::HitSpec;

/// *Merging*: chunk per-tuple questions into HITs of `batch_size`
/// questions each.
///
/// # Panics
/// Panics if `batch_size == 0`.
pub fn merge_into_hits(questions: Vec<Question>, batch_size: usize, kind: HitKind) -> Vec<HitSpec> {
    assert!(batch_size > 0, "batch size must be positive");
    questions
        .chunks(batch_size)
        .map(|chunk| HitSpec::new(chunk.to_vec(), kind))
        .collect()
}

/// *Combining*: interleave several per-tuple question streams (one per
/// task) so each tuple's questions land in the same HIT, then merge by
/// tuple count. `per_task[t][i]` is task `t`'s question for tuple `i`.
///
/// # Panics
/// Panics if the streams have different lengths or `tuples_per_hit == 0`.
pub fn combine_questions(
    per_task: Vec<Vec<Question>>,
    tuples_per_hit: usize,
    kind: HitKind,
) -> Vec<HitSpec> {
    assert!(tuples_per_hit > 0, "tuples_per_hit must be positive");
    let Some(first) = per_task.first() else {
        return Vec::new();
    };
    let n = first.len();
    assert!(
        per_task.iter().all(|v| v.len() == n),
        "all task streams must cover the same tuples"
    );
    let mut hits = Vec::with_capacity(n.div_ceil(tuples_per_hit));
    let mut current: Vec<Question> = Vec::new();
    for i in 0..n {
        for stream in &per_task {
            current.push(stream[i].clone());
        }
        if (i + 1) % tuples_per_hit == 0 {
            hits.push(HitSpec::new(std::mem::take(&mut current), kind));
        }
    }
    if !current.is_empty() {
        hits.push(HitSpec::new(current, kind));
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurk_crowd::ItemId;

    fn filt(i: u64) -> Question {
        Question::Filter {
            item: ItemId(i),
            predicate: "p".into(),
        }
    }

    fn feat(i: u64, f: &str) -> Question {
        Question::Feature {
            item: ItemId(i),
            feature: f.into(),
            num_options: 2,
        }
    }

    #[test]
    fn merging_chunks_evenly() {
        let hits = merge_into_hits((0..10).map(filt).collect(), 5, HitKind::Filter);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.questions.len() == 5));
    }

    #[test]
    fn merging_keeps_remainder() {
        let hits = merge_into_hits((0..7).map(filt).collect(), 3, HitKind::Filter);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[2].questions.len(), 1);
    }

    #[test]
    fn merging_empty_is_empty() {
        assert!(merge_into_hits(vec![], 4, HitKind::Filter).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn merging_rejects_zero_batch() {
        merge_into_hits(vec![filt(0)], 0, HitKind::Filter);
    }

    #[test]
    fn combining_groups_per_tuple() {
        // 3 features of the same 4 tuples, 2 tuples per HIT -> 2 HITs
        // of 6 questions each, tuple-contiguous.
        let streams = vec![
            (0..4).map(|i| feat(i, "gender")).collect(),
            (0..4).map(|i| feat(i, "hair")).collect(),
            (0..4).map(|i| feat(i, "skin")).collect(),
        ];
        let hits = combine_questions(streams, 2, HitKind::FeatureCombined);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].questions.len(), 6);
        // First three questions of the first HIT are tuple 0's.
        for q in &hits[0].questions[..3] {
            assert_eq!(q.items(), vec![ItemId(0)]);
        }
    }

    #[test]
    fn combining_with_remainder() {
        let streams = vec![(0..3).map(|i| feat(i, "g")).collect::<Vec<_>>()];
        let hits = combine_questions(streams, 2, HitKind::FeatureCombined);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[1].questions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "same tuples")]
    fn combining_rejects_ragged_streams() {
        let streams = vec![vec![feat(0, "a")], vec![feat(0, "b"), feat(1, "b")]];
        combine_questions(streams, 1, HitKind::FeatureCombined);
    }

    #[test]
    fn combining_empty() {
        assert!(combine_questions(vec![], 2, HitKind::Filter).is_empty());
    }
}

//! The `CrowdBackend` contract, checked against every production
//! implementation: the raw `Marketplace`, `CachingBackend`,
//! `MeteringBackend` — and the `ReplayBackend` test double, which must
//! satisfy the same contract when its trace covers the posted specs.
//!
//! Contract (see `qurk::backend` docs):
//! 1. `group_hits` returns a group's HITs in spec order, and
//!    `hit_question_count` resolves each of them.
//! 2. After `run` returns `Completed`, every HIT has exactly its
//!    requested number of assignments, each from a distinct worker.
//! 3. `now` is monotone non-decreasing; latencies are non-negative.
//! 4. `hits_posted` / `spend_dollars` / `assignments_completed` are
//!    monotone counters (a `MeteringBackend`'s, over the current
//!    query).

use std::collections::{HashMap, HashSet};

use qurk::backend::{CachingBackend, MeteringBackend, ReplayBackend};
use qurk::ops::filter::FilterOp;
use qurk::prelude::*;
use qurk::ReplayTrace;
use qurk_crowd::market::RunOutcome;
use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::truth::PredicateTruth;
use qurk_crowd::{CrowdConfig, GroundTruth, HitSpec, ItemId, Marketplace};

fn marketplace(n: usize, seed: u64) -> (Marketplace, Vec<ItemId>) {
    let mut gt = GroundTruth::new();
    let items = gt.new_items(n);
    for (i, &it) in items.iter().enumerate() {
        gt.set_predicate(
            it,
            "p",
            PredicateTruth {
                value: i % 2 == 0,
                error_rate: 0.03,
            },
        );
    }
    (
        Marketplace::new(&CrowdConfig::default().with_seed(seed), gt),
        items,
    )
}

fn filter_specs(items: &[ItemId], per_hit: usize) -> Vec<HitSpec> {
    items
        .chunks(per_hit)
        .map(|chunk| {
            HitSpec::new(
                chunk
                    .iter()
                    .map(|&item| Question::Filter {
                        item,
                        predicate: "p".into(),
                    })
                    .collect(),
                HitKind::Filter,
            )
        })
        .collect()
}

/// Drive one backend through the full contract.
fn check_contract<B: CrowdBackend>(backend: &mut B, items: &[ItemId]) {
    let t0 = backend.now().secs();
    let hits_before = backend.hits_posted();
    let spend_before = backend.spend_dollars();

    // Two HITs of unequal size so question counts are distinguishable.
    let specs = filter_specs(&items[..6], 4); // 4 + 2 questions
    let question_counts: Vec<usize> = specs.iter().map(|s| s.questions.len()).collect();
    let group = backend.post_group_with_assignments(specs, 3);

    // (1) spec order and question counts.
    let hits = backend.group_hits(group);
    assert_eq!(hits.len(), 2);
    for (h, want) in hits.iter().zip(&question_counts) {
        assert_eq!(backend.hit_question_count(*h), *want);
    }

    assert_eq!(backend.run_to_completion(), RunOutcome::Completed);
    assert_eq!(backend.group_outstanding(group), 0);

    // (2) exact assignment counts, distinct workers per HIT, answer
    // arity matching the questions.
    let assignments = backend.assignments(group);
    assert_eq!(assignments.len(), 2 * 3);
    let mut per_hit: HashMap<_, Vec<_>> = HashMap::new();
    for a in &assignments {
        assert_eq!(a.group, group);
        assert!(hits.contains(&a.hit), "assignment for foreign hit");
        let nq = backend.hit_question_count(a.hit);
        assert_eq!(a.answers.len(), nq);
        assert!(a.submitted_at.secs() >= a.accepted_at.secs());
        per_hit.entry(a.hit).or_default().push(a.worker);
    }
    for workers in per_hit.values() {
        let distinct: HashSet<_> = workers.iter().collect();
        assert_eq!(distinct.len(), workers.len(), "repeat worker on a HIT");
    }

    // (3) time and latencies.
    assert!(backend.now().secs() >= t0);
    let lats = backend.group_latencies(group);
    assert_eq!(lats.len(), assignments.len());
    assert!(lats.iter().all(|&l| l >= 0.0));

    // (4) counters moved the right way.
    assert_eq!(backend.hits_posted() - hits_before, 2);
    assert!(backend.spend_dollars() >= spend_before);
    assert!(backend.assignments_completed() >= 6);

    // Banning must not disturb completed work.
    backend.ban_workers(assignments.iter().map(|a| a.worker).take(1).collect());
    assert_eq!(backend.assignments(group).len(), 6);
}

#[test]
fn marketplace_satisfies_contract() {
    let (mut m, items) = marketplace(10, 71);
    check_contract(&mut m, &items);
}

#[test]
fn caching_backend_satisfies_contract() {
    let (m, items) = marketplace(10, 72);
    let mut b = CachingBackend::new(m);
    check_contract(&mut b, &items);
}

/// A `MeteringBackend` counts the current query's groups only: over
/// a cache that already paid for other work, its counters start at 0.
#[test]
fn metering_backend_satisfies_contract() {
    let (m, items) = marketplace(10, 73);
    let mut cache = CachingBackend::new(m);
    let earlier = cache.post_group(filter_specs(&items[6..], 2));
    cache.run_to_completion();
    let _ = cache.assignments(earlier);
    let mut b = MeteringBackend::new(cache);
    assert_eq!(b.hits_posted(), 0);
    assert_eq!(b.spend_dollars(), 0.0);
    check_contract(&mut b, &items);
    assert_eq!(b.assignments_completed(), 2 * 3);
    assert_eq!(b.inner().assignments_completed(), 2 * 5 + 2 * 3);
}

#[test]
fn full_session_stack_satisfies_contract() {
    let (m, items) = marketplace(10, 74);
    let mut b = MeteringBackend::new(CachingBackend::new(m));
    check_contract(&mut b, &items);
}

#[test]
fn replay_backend_satisfies_contract_on_recorded_specs() {
    // Record the exact workload the contract checker posts...
    let (m, items) = marketplace(10, 75);
    let mut rec = CachingBackend::new(m);
    let g = rec.post_group_with_assignments(filter_specs(&items[..6], 4), 3);
    rec.run_to_completion();
    let _ = rec.assignments(g);
    // ...then replay it with no marketplace at all. Replay charges the
    // paper price per assignment, so the spend counter still moves.
    let mut replay = ReplayBackend::from_trace(rec.trace().clone());
    check_contract(&mut replay, &items);
}

/// The same operator produces the same decisions through every
/// backend wrapper (identical marketplace seed ⇒ identical crowd).
#[test]
fn operators_agree_across_backends() {
    let direct = {
        let (mut m, items) = marketplace(12, 76);
        FilterOp::default().run(&mut m, "p", &items).unwrap()
    };
    let cached = {
        let (m, items) = marketplace(12, 76);
        let mut b = CachingBackend::new(m);
        FilterOp::default().run(&mut b, "p", &items).unwrap()
    };
    let metered = {
        let (m, items) = marketplace(12, 76);
        let mut b = MeteringBackend::new(CachingBackend::new(m));
        FilterOp::default().run(&mut b, "p", &items).unwrap()
    };
    assert_eq!(direct, cached);
    assert_eq!(direct, metered);
}

/// Record a full operator run against the marketplace, then re-run
/// the operator against the replayed trace: identical output, zero
/// marketplace involvement.
#[test]
fn replayed_operator_run_matches_original() {
    let (m, items) = marketplace(15, 77);
    let mut rec = CachingBackend::new(m);
    let op = FilterOp::default();
    let original = op.run(&mut rec, "p", &items).unwrap();
    let trace = rec.trace().clone();
    assert!(!trace.is_empty());

    let mut replay = ReplayBackend::from_trace(trace);
    let replayed = op.run(&mut replay, "p", &items).unwrap();
    assert_eq!(original, replayed);
    assert_eq!(replay.hits_posted(), 3); // 15 items / batch 5

    // A *different* workload is not answerable from this trace.
    let mut replay2 = ReplayBackend::from_trace(ReplayTrace::default());
    let err = op.run(&mut replay2, "p", &items);
    assert!(
        matches!(err, Err(QurkError::CrowdIncomplete { .. })),
        "{err:?}"
    );
}

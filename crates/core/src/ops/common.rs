//! Shared operator plumbing.

use qurk_crowd::market::{Assignment, HitGroupId};
use qurk_crowd::{HitSpec, WorkerId};

use crate::backend::{by_position, CrowdBackend};
use crate::error::{QurkError, Result};

/// Default virtual-time budget for one operator round: the paper's
/// jobs complete within hours; a week of virtual time means "the crowd
/// abandoned this work" (oversized batches).
pub const DEFAULT_ROUND_LIMIT_SECS: f64 = 7.0 * 24.0 * 3600.0;

/// One crowd round of an operator: a posted HIT group waiting for its
/// assignments. This is every operator's **yield point** — between
/// [`Round::post`] and [`Round::complete`] no operator state refers to
/// the backend, so a cooperative executor (the multi-tenant
/// [`crate::service`] scheduler) is free to interleave other queries'
/// rounds on the same marketplace clock before resuming this one.
///
/// Single-tenant execution drives the round to completion inline; the
/// service's per-tenant backend instead suspends the calling query
/// inside [`CrowdBackend::run`] and wakes it when the shared
/// marketplace has serviced the round.
#[derive(Debug, Clone, Copy)]
#[must_use = "a posted round must be completed (or explicitly abandoned)"]
pub struct Round {
    group: HitGroupId,
}

impl Round {
    /// Post one round of HIT specs (`assignments = None` uses the
    /// backend default).
    pub fn post<B: CrowdBackend + ?Sized>(
        backend: &mut B,
        specs: Vec<HitSpec>,
        assignments: Option<u32>,
    ) -> Round {
        Round {
            group: backend.post(specs, assignments),
        }
    }

    /// The posted group's id.
    pub fn group(&self) -> HitGroupId {
        self.group
    }

    /// Drive the backend until this round completes (or `limit_secs`
    /// of virtual time elapse) and gather its assignments by HIT:
    /// `out[p]` holds the assignments of the HIT posted from spec `p`,
    /// in completion order. A round still outstanding at the deadline
    /// is an error: the crowd abandoned the batch.
    pub fn complete<B: CrowdBackend + ?Sized>(
        self,
        backend: &mut B,
        limit_secs: f64,
    ) -> Result<Vec<Vec<Assignment>>> {
        self.try_complete(backend, limit_secs)
            .ok_or_else(|| QurkError::CrowdIncomplete {
                outstanding: backend.group_outstanding(self.group),
            })
    }

    /// Lenient [`Self::complete`]: run the clock and return this
    /// round's assignments by HIT position if it finished, `None` if it
    /// did not. Used by probes that treat a timeout as a measurement,
    /// not a failure.
    pub fn try_complete<B: CrowdBackend + ?Sized>(
        self,
        backend: &mut B,
        limit_secs: f64,
    ) -> Option<Vec<Vec<Assignment>>> {
        // The global outcome may say TimedOut on behalf of *other*
        // queries' groups (service mode shares the clock), so this
        // round's own outstanding count is what decides.
        let _ = backend.run(limit_secs);
        if backend.group_outstanding(self.group) > 0 {
            return None;
        }
        let assignments = backend.assignments(self.group);
        Some(by_position(&backend.group_hits(self.group), assignments))
    }
}

/// Where each spec's questions start in a round's flattened question
/// stream: spec `p` asks questions `starts[p]..starts[p + 1]`.
pub(crate) fn question_starts(specs: &[HitSpec]) -> Vec<usize> {
    let mut starts = Vec::with_capacity(specs.len() + 1);
    starts.push(0);
    for spec in specs {
        starts.push(starts[starts.len() - 1] + spec.questions.len());
    }
    starts
}

/// Dense EM numbers for a round's voters, ascending with `WorkerId`:
/// rank `r` is the `r`-th smallest distinct voter. Ranks are looked up
/// in a table indexed by `WorkerId.0` (a crowd's ids are small and
/// dense); ids too large for a table sized by the vote count fall back
/// to a binary search over the sorted voters.
#[derive(Debug, Default)]
pub(crate) struct WorkerRanks {
    /// The distinct voters, ascending: `ids[rank]`.
    ids: Vec<WorkerId>,
    /// `table[w.0]` is `w`'s rank, `usize::MAX` for a non-voter. Empty
    /// in the sparse fallback.
    table: Vec<usize>,
}

impl WorkerRanks {
    /// Rank every worker in `voters` (repeats allowed).
    pub(crate) fn new<I>(voters: I) -> Self
    where
        I: IntoIterator<Item = WorkerId>,
        I::IntoIter: Clone,
    {
        let voters = voters.into_iter();
        let (count, max) = voters
            .clone()
            .fold((0usize, None), |(n, m): (usize, Option<usize>), w| {
                (n + 1, Some(m.map_or(w.0, |m| m.max(w.0))))
            });
        let Some(max) = max else {
            return WorkerRanks::default();
        };
        if max >= count.saturating_mul(4).saturating_add(1024) {
            let mut ids: Vec<WorkerId> = voters.collect();
            ids.sort_unstable();
            ids.dedup();
            return WorkerRanks {
                ids,
                table: Vec::new(),
            };
        }
        let mut table = vec![usize::MAX; max + 1];
        for w in voters {
            table[w.0] = 0;
        }
        let mut ids = Vec::new();
        for (id, slot) in table.iter_mut().enumerate() {
            if *slot == 0 {
                *slot = ids.len();
                ids.push(WorkerId(id));
            }
        }
        WorkerRanks { ids, table }
    }

    /// `w`'s rank. Panics if `w` was not among the voters.
    pub(crate) fn rank(&self, w: WorkerId) -> usize {
        let rank = if self.table.is_empty() {
            self.ids.binary_search(&w).ok()
        } else {
            self.table.get(w.0).copied().filter(|&r| r != usize::MAX)
        };
        rank.unwrap_or_else(|| panic!("worker {w:?} was not ranked"))
    }

    /// The worker with rank `rank`.
    pub(crate) fn worker(&self, rank: usize) -> WorkerId {
        self.ids[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Mutex};

    use qurk_crowd::question::{Answer, HitKind, Question};
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, ItemId, Marketplace};

    use crate::backend::{CachingBackend, ReplayBackend};
    use crate::service::scheduler::SchedulerEvent;
    use crate::service::tenant::{lock, Groups};
    use crate::service::TenantBackend;

    const LIMIT: f64 = DEFAULT_ROUND_LIMIT_SECS;

    /// A marketplace over 12 items with a noisy filter predicate `p`.
    fn market() -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(12);
        for (i, &item) in items.iter().enumerate() {
            let truth = PredicateTruth {
                value: i % 3 == 0,
                error_rate: 0.2,
            };
            gt.set_predicate(item, "p", truth);
        }
        (Marketplace::new(&CrowdConfig::default(), gt), items)
    }

    /// Spec `s`: a filter HIT over items `2s` and `2s + 1`.
    fn spec(items: &[ItemId], s: usize) -> HitSpec {
        let q = |i: usize| Question::Filter {
            item: items[i],
            predicate: "p".into(),
        };
        HitSpec::new(vec![q(2 * s), q(2 * s + 1)], HitKind::Filter)
    }

    type Seen = Vec<(WorkerId, Vec<Answer>)>;

    /// Complete `round` and check `out[p]` against the group's own
    /// view: exactly the assignments `assignments` reports for
    /// `group_hits[p]`, in that (completion) order. Returns what each
    /// position saw.
    fn complete_positional<B: CrowdBackend + ?Sized>(backend: &mut B, round: Round) -> Vec<Seen> {
        let out = round.complete(backend, LIMIT).unwrap();
        let hits = backend.group_hits(round.group());
        let all = backend.assignments(round.group());
        assert_eq!(out.len(), hits.len());
        hits.iter()
            .zip(&out)
            .map(|(&hit, got)| {
                let want: Seen = all
                    .iter()
                    .filter(|a| a.hit == hit)
                    .map(|a| (a.worker, a.answers.clone()))
                    .collect();
                assert!(!want.is_empty(), "HIT {hit:?} has no assignments");
                assert!(got.iter().all(|a| a.hit == hit));
                let got: Seen = got.iter().map(|a| (a.worker, a.answers.clone())).collect();
                assert_eq!(got, want, "HIT {hit:?}");
                got
            })
            .collect()
    }

    #[test]
    fn complete_returns_assignments_by_spec_position() {
        // Marketplace.
        let (mut m, items) = market();
        let specs: Vec<HitSpec> = [3, 0, 4, 1].iter().map(|&s| spec(&items, s)).collect();
        let round = Round::post(&mut m, specs, None);
        let seen = complete_positional(&mut m, round);
        assert!(seen.iter().all(|s| s.len() == 5));

        // CachingBackend: one group mixing a cached spec, a spec shared
        // with another group still in flight, and live specs.
        let (m, items) = market();
        let mut cache = CachingBackend::new(m);
        let warm = Round::post(&mut cache, vec![spec(&items, 0)], None);
        let warm_seen = complete_positional(&mut cache, warm);
        let in_flight = Round::post(&mut cache, vec![spec(&items, 1), spec(&items, 2)], None);
        let mixed = Round::post(
            &mut cache,
            vec![
                spec(&items, 3),
                spec(&items, 0),
                spec(&items, 2),
                spec(&items, 4),
            ],
            None,
        );
        assert_eq!(cache.stats(), (2, 5), "one cached, one shared, five live");
        let seen = complete_positional(&mut cache, mixed);
        assert_eq!(seen[1], warm_seen[0], "the cached spec replays its answers");
        let owner = complete_positional(&mut cache, in_flight);
        assert_eq!(
            seen[2], owner[1],
            "the shared spec sees its owner's answers"
        );

        // ReplayBackend over that cache's trace.
        let mut replay = ReplayBackend::from_trace(cache.trace().clone());
        let specs: Vec<HitSpec> = [4, 0, 2].iter().map(|&s| spec(&items, s)).collect();
        let round = Round::post(&mut replay, specs, None);
        let replayed = complete_positional(&mut replay, round);
        assert_eq!(
            replayed,
            vec![seen[3].clone(), seen[1].clone(), seen[2].clone()]
        );

        // TenantBackend: the round runs on a query thread while this
        // thread plays the scheduler, committing its posts to a market
        // that already caches spec 1.
        let (m, items) = market();
        let shared = Arc::new(Mutex::new(CachingBackend::new(m)));
        {
            let mut market = lock(&shared);
            let warm = market.post(vec![spec(&items, 1)], None);
            market.run(LIMIT);
            market.fold_completed(&[warm]);
        }
        let (event_tx, event_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel();
        let groups = Groups::default();
        let mut tenant = TenantBackend::new(
            Arc::clone(&shared),
            Arc::clone(&groups),
            0,
            event_tx,
            resume_rx,
        );
        let specs: Vec<HitSpec> = [5, 1, 0].iter().map(|&s| spec(&items, s)).collect();
        let thread = std::thread::spawn(move || {
            let round = Round::post(&mut tenant, specs, None);
            complete_positional(&mut tenant, round)
        });
        let Ok(SchedulerEvent::NeedCrowd { posts, .. }) = event_rx.recv() else {
            panic!("the query yields for its round");
        };
        for post in posts {
            let group = lock(&shared).post(post.specs, post.assignments);
            lock(&groups).push(group);
        }
        let outcome = lock(&shared).run(LIMIT);
        resume_tx.send(outcome).unwrap();
        let seen = thread.join().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(lock(&shared).stats(), (1, 3), "spec 1 came from the cache");
    }

    #[test]
    fn ranks_are_dense_and_ascend_with_worker_id() {
        let voters = [WorkerId(9), WorkerId(4), WorkerId(9), WorkerId(0)];
        let ranks = WorkerRanks::new(voters);
        assert_eq!(ranks.rank(WorkerId(0)), 0);
        assert_eq!(ranks.rank(WorkerId(4)), 1);
        assert_eq!(ranks.rank(WorkerId(9)), 2);
        assert_eq!(ranks.worker(1), WorkerId(4));
        assert!(!ranks.table.is_empty(), "small ids use the table");

        // Ids far beyond the vote count take the sorted fallback and
        // rank the same way.
        let sparse = WorkerRanks::new([WorkerId(usize::MAX), WorkerId(7), WorkerId(1 << 40)]);
        assert!(sparse.table.is_empty());
        assert_eq!(sparse.rank(WorkerId(7)), 0);
        assert_eq!(sparse.rank(WorkerId(1 << 40)), 1);
        assert_eq!(sparse.rank(WorkerId(usize::MAX)), 2);
        assert_eq!(sparse.worker(2), WorkerId(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "was not ranked")]
    fn ranking_a_non_voter_panics() {
        WorkerRanks::new([WorkerId(3)]).rank(WorkerId(2));
    }
}

//! Shared operator plumbing: the crowd [`Round`], and the one vote
//! path of every batched operator.
//!
//! Filters, ratings, joins, feature extraction and generative tasks all
//! ask *questions that fill cells* — a (tuple, task) pair, or a join
//! pair — and combine each cell's votes. `batch_streams` lays out
//! §2.6's merged or combined HITs for `k` question streams over `n`
//! tuples, and `CellVotes::ask` posts any such layout as one round
//! and tallies every cell's votes into one CSR buffer. An operator
//! keeps only its combiner.
// lint:hot-path

use qurk_combine::em::{QualityAdjust, QualityAdjustConfig, QualityAdjustOutput};
use qurk_crowd::market::{Assignment, HitGroupId};
use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::{Answer, HitSpec, WorkerId};

use crate::backend::{by_position, CrowdBackend};
use crate::error::{QurkError, Result};
use crate::hit::batch::{combine_questions, merge_into_hits};

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
fn question_starts(specs: &[HitSpec]) -> Vec<usize> {
    let mut starts = Vec::with_capacity(specs.len() + 1);
    starts.push(0);
    for spec in specs {
        starts.push(starts[starts.len() - 1] + spec.questions.len());
    }
    starts
}

/// §2.6's two batchings of `k` question streams over `n` tuples, as one
/// round's specs: `streams[s][t]` asks task `s` about tuple `t`.
/// *Combined* puts a tuple's `k` questions in one HIT, `per_hit` tuples
/// to a HIT ([`combine_questions`]); otherwise each stream is *merged*
/// on its own into HITs of `per_hit` questions ([`merge_into_hits`]),
/// one stream after another. The layout gives each question, in posting
/// order, its cell `t * k + s`: cells are tuple-major whichever way the
/// questions were batched. With one stream the two batchings coincide.
///
/// # Panics
/// Panics if `per_hit == 0`, or, combined, if the streams differ in
/// length.
pub(crate) fn batch_streams(
    streams: Vec<Vec<Question>>,
    per_hit: usize,
    combined: bool,
    kind: HitKind,
) -> (Vec<HitSpec>, Vec<usize>) {
    let k = streams.len();
    let n = streams.first().map_or(0, Vec::len);
    if combined {
        let layout = (0..n * k).collect();
        return (combine_questions(streams, per_hit, kind), layout);
    }
    let layout = (0..k)
        .flat_map(|s| (0..n).map(move |t| t * k + s))
        .collect();
    let specs = streams
        .into_iter()
        .flat_map(|stream| merge_into_hits(stream, per_hit, kind))
        .collect();
    (specs, layout)
}

/// The votes a round cast, per cell, in one CSR buffer: cell `c`'s
/// `(worker, vote)` pairs are `votes[offsets[c]..offsets[c + 1]]`, in
/// arrival order — HITs in spec order, each HIT's assignments in
/// completion order, then questions in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellVotes<T> {
    /// `cells + 1` ascending offsets into `votes`, from 0 (empty when
    /// there are no cells).
    offsets: Vec<usize>,
    votes: Vec<(WorkerId, T)>,
}

impl<T> CellVotes<T> {
    /// Post `specs` as one round and tally its votes once it completes.
    /// Question `q`, in posting order, fills cell `layout[q]`, and the
    /// cells are `0..layout.len()`: every batched layout asks each cell
    /// once. `extract(cell, answer)` reads an answer as a vote (see
    /// [`Self::tally`]). A round still outstanding after `limit_secs` is
    /// an error ([`Round::complete`]).
    pub(crate) fn ask<B: CrowdBackend + ?Sized>(
        backend: &mut B,
        specs: Vec<HitSpec>,
        layout: &[usize],
        assignments: Option<u32>,
        limit_secs: f64,
        extract: impl FnMut(usize, &Answer) -> Option<T>,
    ) -> Result<Self> {
        let starts = question_starts(&specs);
        let round = Round::post(backend, specs, assignments).complete(backend, limit_secs)?;
        Ok(Self::tally(layout.len(), layout, &starts, &round, extract))
    }

    /// Tally a completed round over `cells` cells: spec `p` asks
    /// questions `starts[p]..starts[p + 1]`, question `q` fills cell
    /// `layout[q]`, and `round[p]` holds spec `p`'s assignments
    /// ([`Round::complete`]). `extract(cell, answer)` is called once per
    /// answer; `None` — an answer of the wrong kind, or out of range for
    /// its cell — is no vote. A HIT with no assignments, or an
    /// assignment with fewer answers than questions, casts only the
    /// votes it holds.
    pub(crate) fn tally(
        cells: usize,
        layout: &[usize],
        starts: &[usize],
        round: &[Vec<Assignment>],
        mut extract: impl FnMut(usize, &Answer) -> Option<T>,
    ) -> Self {
        // One pass stages the votes in arrival order and counts each
        // cell's; the counts become offsets.
        let mut offsets = vec![0; cells + 1];
        let mut staged: Vec<(usize, WorkerId, T)> = Vec::new();
        for (assignments, span) in round.iter().zip(starts.windows(2)) {
            let hit_cells = &layout[span[0]..span[1]];
            for a in assignments {
                for (&cell, answer) in hit_cells.iter().zip(&a.answers) {
                    if let Some(vote) = extract(cell, answer) {
                        offsets[cell + 1] += 1;
                        staged.push((cell, a.worker, vote));
                    }
                }
            }
        }
        for c in 0..cells {
            offsets[c + 1] += offsets[c];
        }
        // `dest[i]` is staged vote `i`'s slot: its cell's next free one,
        // so each cell keeps arrival order. Following the permutation's
        // cycles puts every vote in place with one swap each.
        let mut next = offsets[..cells].to_vec();
        let mut dest: Vec<usize> = staged
            .iter()
            .map(|&(cell, ..)| {
                next[cell] += 1;
                next[cell] - 1
            })
            .collect();
        for i in 0..staged.len() {
            while dest[i] != i {
                let j = dest[i];
                staged.swap(i, j);
                dest.swap(i, j);
            }
        }
        let votes = staged.into_iter().map(|(_, w, v)| (w, v)).collect();
        CellVotes { offsets, votes }
    }

    /// Cell `c`'s votes, in arrival order.
    pub fn cell(&self, c: usize) -> &[(WorkerId, T)] {
        &self.votes[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Every cell's votes, in cell order (`iter().len()` cells).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[(WorkerId, T)]> {
        self.offsets.windows(2).map(|w| &self.votes[w[0]..w[1]])
    }

    /// Drop the cells nobody voted on. Returns the numbers of the voted
    /// cells: cell `n` of the result is cell `voted[n]` of `self`.
    pub(crate) fn voted(self) -> (Vec<usize>, Self) {
        let mut voted = Vec::new();
        let mut offsets = vec![0];
        for (c, w) in self.offsets.windows(2).enumerate() {
            if w[1] > w[0] {
                voted.push(c);
                offsets.push(w[1]);
            }
        }
        let votes = self.votes;
        (voted, CellVotes { offsets, votes })
    }

    /// QualityAdjust over the cells, one EM item per cell (a cell with
    /// no votes gets the prior's decision), reading each vote as label
    /// `label(vote)`. EM worker `r` is the returned ranks' `worker(r)`,
    /// ascending by `WorkerId`.
    pub(crate) fn quality_adjust(
        &self,
        config: QualityAdjustConfig,
        label: impl Fn(&T) -> usize,
    ) -> (QualityAdjustOutput, WorkerRanks) {
        let ranks = WorkerRanks::new(self.votes.iter().map(|&(w, _)| w));
        let votes: Vec<(usize, usize)> = self
            .votes
            .iter()
            .map(|(w, v)| (ranks.rank(*w), label(v)))
            .collect();
        let out = QualityAdjust::new(config).run_grouped(&self.offsets, &votes);
        (out, ranks)
    }
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
            .clone() // lint:allow(hot-clone): a borrowing iterator, walked twice
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    use qurk_crowd::market::{AssignmentId, HitId};
    use qurk_crowd::question::Answer;
    use qurk_crowd::sim::SimTime;
    use qurk_crowd::ItemId;

    /// The oracle: the nested per-cell gather every batched operator
    /// used to write for itself.
    fn nested_gather<T>(
        cells: usize,
        layout: &[usize],
        starts: &[usize],
        round: &[Vec<Assignment>],
        mut extract: impl FnMut(usize, &Answer) -> Option<T>,
    ) -> Vec<Vec<(WorkerId, T)>> {
        let mut out: Vec<Vec<(WorkerId, T)>> = (0..cells).map(|_| Vec::new()).collect();
        for (assignments, &first_q) in round.iter().zip(starts) {
            for a in assignments {
                for (qi, answer) in a.answers.iter().enumerate() {
                    let cell = layout[first_q + qi];
                    if let Some(vote) = extract(cell, answer) {
                        out[cell].push((a.worker, vote));
                    }
                }
            }
        }
        out
    }

    /// An answer of every kind an operator might find in a stored
    /// round.
    fn answer() -> impl Strategy<Value = Answer> {
        (0u8..4, 0usize..4).prop_map(|(kind, v)| match kind {
            0 => Answer::Bool(v % 2 == 1),
            1 => Answer::Category(v),
            2 => Answer::Rating(v as u8 + 1),
            _ => Answer::Text("a".repeat(v)),
        })
    }

    /// One spec of a round: its cells (question `q` fills `cells[q]`,
    /// repeats allowed) and its assignments, each a worker and up to
    /// one answer per question — none, short or complete.
    type Spec = (Vec<usize>, Vec<(usize, Vec<Answer>)>);

    fn round(cells: usize) -> impl Strategy<Value = Vec<Spec>> {
        let spec = prop::collection::vec(0..cells, 1..5).prop_flat_map(|hit_cells| {
            let n = hit_cells.len();
            let assignment = (0usize..6, prop::collection::vec(answer(), 0..=n));
            (Just(hit_cells), prop::collection::vec(assignment, 0..4))
        });
        prop::collection::vec(spec, 0..6)
    }

    fn assignments(round: &[Spec]) -> Vec<Vec<Assignment>> {
        round
            .iter()
            .enumerate()
            .map(|(p, (_, assignments))| {
                assignments
                    .iter()
                    .enumerate()
                    .map(|(k, (worker, answers))| Assignment {
                        id: AssignmentId(k),
                        hit: HitId(p),
                        group: HitGroupId(0),
                        worker: WorkerId(*worker),
                        answers: answers.clone(),
                        accepted_at: SimTime::ZERO,
                        submitted_at: SimTime::ZERO,
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The CSR tally gives each cell exactly the votes, in the same
        /// order, that the nested gather gives — over random layouts,
        /// HITs with no assignment, short assignments, and answers of
        /// every kind read by a cell-aware extractor.
        #[test]
        fn tally_matches_the_nested_gather((cells, round) in (1usize..10).prop_flat_map(|c| (Just(c), round(c)))) {
            let layout: Vec<usize> = round.iter().flat_map(|(cells, _)| cells.iter().copied()).collect();
            let mut starts = vec![0];
            for (hit_cells, _) in &round {
                starts.push(starts[starts.len() - 1] + hit_cells.len());
            }
            let answers = assignments(&round);
            let extract = |cell: usize, a: &Answer| match a {
                Answer::Bool(b) => Some((cell, usize::from(*b))),
                Answer::Category(c) if cell.is_multiple_of(2) => Some((cell, *c)),
                _ => None,
            };
            let tally = CellVotes::tally(cells, &layout, &starts, &answers, extract);
            let oracle = nested_gather(cells, &layout, &starts, &answers, extract);
            prop_assert_eq!(tally.iter().len(), cells);
            prop_assert!(tally.iter().eq(oracle.iter().map(Vec::as_slice)));
            for (c, want) in oracle.iter().enumerate() {
                prop_assert_eq!(tally.cell(c), want.as_slice());
            }

            // Dropping the unvoted cells keeps every voted one's votes.
            let (voted, compact) = tally.clone().voted();
            prop_assert_eq!(voted.len(), compact.iter().len());
            prop_assert!(voted.iter().all(|&c| !oracle[c].is_empty()));
            prop_assert_eq!(voted.len(), oracle.iter().filter(|v| !v.is_empty()).count());
            for (n, &c) in voted.iter().enumerate() {
                prop_assert_eq!(compact.cell(n), tally.cell(c));
            }
        }

        /// `batch_streams` puts tuple `t`'s question of stream `s` in
        /// cell `t * k + s`, merged or combined, and posts exactly
        /// `merge_into_hits` per stream or `combine_questions`.
        #[test]
        fn batch_streams_lays_out_cells_tuple_major(n in 0usize..12, k in 1usize..4, per_hit in 1usize..5, combined in any::<bool>()) {
            let question = |t: usize, s: usize| Question::Filter {
                item: ItemId(t as u64),
                predicate: format!("p{s}"),
            };
            let streams = || -> Vec<Vec<Question>> {
                (0..k).map(|s| (0..n).map(|t| question(t, s)).collect()).collect()
            };
            let (specs, layout) = batch_streams(streams(), per_hit, combined, HitKind::Filter);
            let want = if combined {
                combine_questions(streams(), per_hit, HitKind::Filter)
            } else {
                streams()
                    .into_iter()
                    .flat_map(|s| merge_into_hits(s, per_hit, HitKind::Filter))
                    .collect()
            };
            prop_assert_eq!(format!("{specs:?}"), format!("{want:?}"));
            let asked: Vec<&Question> = specs.iter().flat_map(|s| &s.questions).collect();
            prop_assert_eq!(asked.len(), layout.len());
            for (q, &cell) in asked.iter().zip(&layout) {
                prop_assert_eq!(*q, &question(cell / k, cell % k));
            }
        }
    }
}

/// Stored answers of the wrong kind. A CRC-valid store, or a trace
/// edited by hand, can hold an answer whose kind does not fit its
/// question: a `Rating` where a filter or join expects a `Bool`, a
/// `Bool` where a rating or a Radio category is expected, a `Text` in
/// a Radio cell, a `Category` in a text cell. Replayed, such an answer
/// is no vote: every batched operator gives exactly what it gives on
/// the same trace with those answers removed, and none panics.
///
/// Each case records a real round through a [`CachingBackend`], then
/// turns the last answer of every other assignment into a wrong kind.
/// The last answer is the one removed in the reference trace, so that
/// removing it shifts no other answer (a short assignment casts the
/// votes it holds).
#[cfg(test)]
mod hostile_answers {
    use qurk_crowd::question::Answer;
    use qurk_crowd::truth::{DimensionParams, PredicateTruth, TextTruth};
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, ItemId, Marketplace};

    use crate::backend::{CachingBackend, ReplayBackend, ReplayTrace};
    use crate::lang::parser::parse_tasks;
    use crate::ops::join::feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureSpec};
    use crate::ops::{FilterOp, GenerativeOp, JoinOp, JoinStrategy, RateSort};
    use crate::task::{CombinerKind, TaskDef};

    /// 8 items with two noisy predicates, a rating dimension, an entity
    /// (item `i` depicts entity `i % 4`), a Radio feature and a text field.
    fn market() -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        gt.define_dimension(
            "size",
            DimensionParams {
                ambiguity: 0.3,
                rating_noise_mult: 5.0,
                pure_noise: false,
            },
        );
        gt.define_feature("color", &["red", "green", "blue"]);
        gt.set_default_similarity(0.2);
        let items = gt.new_items(8);
        for (i, &item) in items.iter().enumerate() {
            for (p, name) in ["a", "b"].into_iter().enumerate() {
                let truth = PredicateTruth {
                    value: (i + p) % 3 == 0,
                    error_rate: 0.3,
                };
                gt.set_predicate(item, name, truth);
            }
            gt.set_score(item, "size", i as f64);
            gt.set_entity(item, EntityId(i as u64 % 4));
            gt.set_feature_simple(item, "color", i % 3, 0.3);
            let variants = vec![
                (format!("Name {}", i % 3), 0.6),
                (format!("other {i}"), 0.4),
            ];
            gt.set_text(item, "name", TextTruth { variants });
        }
        (
            Marketplace::new(&CrowdConfig::default().with_seed(29), gt),
            items,
        )
    }

    /// A wrong kind for `answer`'s question; `k` varies the choice.
    fn wrong_kind(answer: &Answer, k: usize) -> Answer {
        match answer {
            Answer::Bool(_) => Answer::Rating(4),
            Answer::Rating(_) => Answer::Bool(true),
            Answer::Category(_) if k.is_multiple_of(4) => Answer::Text("red".into()),
            Answer::Category(_) => Answer::Bool(false),
            Answer::Text(_) => Answer::Category(0),
            Answer::Ordering(_) | Answer::Pick(_) => panic!("not a batched operator's answer"),
        }
    }

    /// Run `op` live through a cache, then on replays of its trace with
    /// the last answer of every other assignment turned into a wrong kind
    /// (`hostile`) and removed (`removed`). Returns both replayed outputs.
    fn replay_hostile<T>(mut op: impl FnMut(&mut dyn crate::CrowdBackend) -> T) -> (T, T) {
        let (m, _) = market();
        let mut caching = CachingBackend::new(m);
        op(&mut caching);
        let trace = caching.trace().clone();
        let mut hostile = trace.clone();
        let mut removed = trace;
        let mut changed = 0;
        for key in hostile.keys() {
            let bad = hostile.entries.get_mut(&key).unwrap();
            let cut = removed.entries.get_mut(&key).unwrap();
            for (k, (a, b)) in bad
                .assignments
                .iter_mut()
                .zip(&mut cut.assignments)
                .enumerate()
            {
                if k % 2 == 0 {
                    if let Some(last) = a.answers.last_mut() {
                        *last = wrong_kind(last, k + changed);
                        b.answers.pop();
                        changed += 1;
                    }
                }
            }
        }
        assert!(
            changed > 0,
            "no answer was made hostile: the check is vacuous"
        );
        let run = |op: &mut dyn FnMut(&mut dyn crate::CrowdBackend) -> T, t: ReplayTrace| {
            op(&mut ReplayBackend::from_trace(t))
        };
        (run(&mut op, hostile), run(&mut op, removed))
    }

    #[test]
    fn filters_skip_a_rating_where_a_bool_is_expected() {
        let (_, items) = market();
        for combiner in [CombinerKind::MajorityVote, CombinerKind::QualityAdjust] {
            let op = FilterOp {
                batch_size: 3,
                combiner,
                ..FilterOp::default()
            };
            let (hostile, removed) =
                replay_hostile(|b| op.run_combined(b, &["a", "b"], &items).unwrap());
            assert_eq!(hostile, removed, "{combiner:?}");
            let (hostile, removed) = replay_hostile(|b| op.run(b, "a", &items).unwrap());
            assert_eq!(hostile, removed, "{combiner:?}");
        }
    }

    #[test]
    fn joins_skip_a_rating_where_a_bool_is_expected() {
        let (_, items) = market();
        let (left, right) = (&items[..5], &items[3..]);
        for strategy in [
            JoinStrategy::Simple,
            JoinStrategy::NaiveBatch(3),
            JoinStrategy::SmartBatch { rows: 2, cols: 2 },
        ] {
            let op = JoinOp {
                strategy,
                combiner: CombinerKind::QualityAdjust,
                ..JoinOp::default()
            };
            let (hostile, removed) = replay_hostile(|b| op.run(b, left, right, None).unwrap());
            assert_eq!(hostile.matches, removed.matches, "{strategy:?}");
            assert_eq!(hostile.pair_votes, removed.pair_votes, "{strategy:?}");
        }
    }

    #[test]
    fn ratings_skip_a_bool_where_a_rating_is_expected() {
        let (_, items) = market();
        let op = RateSort {
            batch_size: 3,
            context_size: 3,
            ..RateSort::default()
        };
        let (hostile, removed) = replay_hostile(|b| op.run(b, &items, "size").unwrap());
        assert_eq!(hostile.order, removed.order);
        assert_eq!(hostile.scores, removed.scores);
        assert_eq!(hostile.stds, removed.stds);
    }

    #[test]
    fn features_skip_a_bool_or_text_where_a_category_is_expected() {
        let (_, items) = market();
        let color = [FeatureSpec {
            name: "color".into(),
            num_options: 3,
        }];
        for combined_interface in [true, false] {
            let ff = FeatureFilter::new(FeatureFilterConfig {
                batch_size: 3,
                combined_interface,
                ..FeatureFilterConfig::default()
            });
            let (hostile, removed) = replay_hostile(|b| ff.extract(b, &color, &items).unwrap());
            assert_eq!(hostile.0.values, removed.0.values);
            assert_eq!(hostile.0.votes, removed.0.votes);
            let kappa = |e: &(crate::ops::join::feature_filter::Extraction, usize)| {
                FeatureFilter::kappa_for(0, 3, &e.0, &e.0)
            };
            assert_eq!(kappa(&hostile), kappa(&removed));
        }
    }

    #[test]
    fn generative_fields_skip_answers_of_the_other_kind() {
        let (_, items) = market();
        let multi = TaskDef::from_ast(
            &parse_tasks(
                r#"TASK describe(field) TYPE Generative:
                    Prompt: "%s?", tuple[field]
                    Fields: {
                        color: { Response: Radio("Color", ["red", "green", "blue", UNKNOWN]),
                                 Combiner: QualityAdjust },
                        name: { Response: Text("Name"),
                                Combiner: MajorityVote,
                                Normalizer: LowercaseSingleSpace }
                    }
                "#,
            )
            .unwrap()[0],
        )
        .unwrap();
        let single = TaskDef::from_ast(
            &parse_tasks(
                r#"TASK color(field) TYPE Generative:
                    Prompt: "%s color?", tuple[field]
                    Response: Radio("Color", ["red", "green", "blue", UNKNOWN])
                    Combiner: MajorityVote
                "#,
            )
            .unwrap()[0],
        )
        .unwrap();
        // Separate interfaces end every text HIT with a text cell and every
        // Radio HIT with a Radio cell, so both kinds of cell get a hostile
        // answer; combined HITs end with the text field.
        for (task, combined_interface) in [(&multi, false), (&multi, true), (&single, true)] {
            let op = GenerativeOp {
                batch_size: 3,
                combined_interface,
                ..GenerativeOp::default()
            };
            let (hostile, removed) = replay_hostile(|b| op.run(b, task, &items).unwrap());
            assert_eq!(
                hostile.rows, removed.rows,
                "{} {combined_interface}",
                task.name
            );
        }
    }
}

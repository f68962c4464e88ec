//! The service's market and the per-query backends that feed it.
//!
//! The market is the Task Cache: one [`CachingBackend`] over the real
//! backend, behind a mutex (`Market`) shared by the service, its
//! scheduler and every tenant's query. Each running query talks to it
//! through its own [`TenantBackend`], which
//!
//! * **stages** posts locally during the parallel machine phase —
//!   between yields, query threads run concurrently, so posts buffer
//!   under local group ids and travel with the query's `NeedCrowd`
//!   yield; the scheduler commits them to the market in submission
//!   order at the barrier. Each commit is a Task Cache group, which
//!   records how many of its specs were served live vs. from the
//!   cache (including piggybacking on another tenant's identical
//!   in-flight spec), and
//! * turns [`CrowdBackend::run`] into the cooperative **yield point**:
//!   instead of driving the clock itself, the query flushes its staged
//!   posts, parks on a channel, and the scheduler advances the one
//!   shared marketplace for everybody. A round whose limit is not a
//!   finite, non-negative number of seconds is refused right here,
//!   without yielding, and fails the query with
//!   [`QurkError::InvalidDeadline`](crate::error::QurkError::InvalidDeadline).
//!
//! A query is the list of groups committed for it (`Groups`): one
//! list, shared by its scheduler task and its tenant backend. The
//! barrier pushes each commit into it while the query is parked, and
//! the query's split, spend, savings, outstanding work, report and
//! rounds are read from those groups by the cache's own accounting —
//! the accounting a `Session` query gets from its `MeteringBackend`.
//! A query thread locks its list before the market, never the other
//! way round.
//! Per-query dollar attribution is exact: every completed live
//! assignment belongs to exactly one query's group, and both the
//! simulator and the replay backend price assignments uniformly, so
//! the tenants' spends sum to the shared backend's total spend, a
//! query's groups that finish late included (tested in
//! `tests/service_multi_tenant.rs`).

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qurk_crowd::market::{Assignment, HitGroupId, HitId, RunOutcome};
use qurk_crowd::sim::SimTime;
use qurk_crowd::{HitSpec, WorkerId};

use crate::backend::{BackendUsage, CachingBackend, CrowdBackend, QueryBackend, RoundObservation};
use crate::service::scheduler::SchedulerEvent;

/// One marketplace, one Task Cache, many tenants: the cache every
/// query of a service posts through. Queries hold the lock only for
/// individual backend calls, never across a yield.
pub(crate) type Market<B> = Arc<Mutex<CachingBackend<B>>>;

/// The cache groups committed for one query, in commit order: its
/// record in the market.
pub(crate) type Groups = Arc<Mutex<Vec<HitGroupId>>>;

/// Lock the market or a query's group list. Every cache group's
/// record and every group list is consistent on its own, so a
/// panicked holder (a dying query thread) leaves nothing torn worth
/// poisoning the whole service for.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One post buffered during the parallel machine phase, carried to
/// the scheduler by [`SchedulerEvent::NeedCrowd`] and committed to the
/// market at the barrier.
#[derive(Debug)]
pub(crate) struct StagedPost {
    pub specs: Vec<HitSpec>,
    pub assignments: Option<u32>,
}

/// A query's private handle on the market: a full [`CrowdBackend`]
/// whose posts stage locally until `run`, whose `run` yields to the
/// scheduler instead of driving the clock, and whose usage counters
/// report the *query's attributed share* of the market, read from its
/// committed groups (so its budget and report measure the query, as a
/// `Session`'s do).
///
/// The backend hands out its own dense local group ids at post time
/// (operators need an id then). Every staged post is committed at the
/// next yield, in staging order, so local id `i` is the `i`-th entry
/// of the query's `Groups` once committed.
pub struct TenantBackend<B> {
    market: Market<B>,
    /// The query's committed groups, shared with its scheduler task.
    groups: Groups,
    /// Scheduler-side index within the current batch.
    task: usize,
    /// Channels to and from the scheduler. The receiver is
    /// mutex-wrapped only to keep the backend `Sync`: the backend is
    /// owned by exactly one query thread, so it is never contended.
    yield_tx: Sender<SchedulerEvent>,
    resume_rx: Mutex<Receiver<RunOutcome>>,
    /// Live assignments each local group requests — reported as its
    /// outstanding count until the post is committed.
    requested: Vec<u32>,
    /// Posts buffered since the last yield: the local ids from the
    /// committed groups' count on.
    staged: Vec<StagedPost>,
    /// The first invalid round limit this query asked for; once set,
    /// every round is refused without yielding.
    refused: Option<f64>,
}

impl<B: CrowdBackend> TenantBackend<B> {
    /// Wire a new tenant backend to the market, its group list and
    /// its scheduler channels (the scheduler keeps the other ends).
    pub(crate) fn new(
        market: Market<B>,
        groups: Groups,
        task: usize,
        yield_tx: Sender<SchedulerEvent>,
        resume_rx: Receiver<RunOutcome>,
    ) -> Self {
        TenantBackend {
            market,
            groups,
            task,
            yield_tx,
            resume_rx: Mutex::new(resume_rx),
            requested: Vec::new(),
            staged: Vec::new(),
            refused: None,
        }
    }

    /// The first round limit this backend refused as not a finite,
    /// non-negative number of seconds, if any.
    pub(crate) fn refused_deadline(&self) -> Option<f64> {
        self.refused
    }

    fn market(&self) -> MutexGuard<'_, CachingBackend<B>> {
        lock(&self.market)
    }

    /// Buffer a post under a fresh local group id. Nothing touches the
    /// market (beyond reading its default assignment count): during
    /// the parallel machine phase many query threads post
    /// concurrently, and commit order must be the scheduler's choice,
    /// not the thread scheduler's.
    fn stage_post(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let per_spec = assignments
            .unwrap_or_else(|| self.market().default_assignments())
            .max(1);
        let local = HitGroupId(self.requested.len());
        self.requested
            .push((specs.len() as u32).saturating_mul(per_spec));
        self.staged.push(StagedPost { specs, assignments });
        local
    }

    /// The committed market id behind a local group id, if the post
    /// has been flushed.
    fn translate(&self, group: HitGroupId) -> Option<HitGroupId> {
        lock(&self.groups).get(group.0).copied()
    }
}

impl<B: CrowdBackend> CrowdBackend for TenantBackend<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        self.stage_post(specs, None)
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        self.stage_post(specs, Some(assignments))
    }

    /// The cooperative yield: flush staged posts to the scheduler and
    /// park this query until the shared marketplace has run far enough
    /// to resolve its round. The barrier pushes the committed group
    /// ids into the query's list while it is parked, so they are there
    /// before the operator reads any results. A closed channel
    /// (scheduler gone) reads as a timeout, which the operator
    /// surfaces as
    /// [`QurkError::CrowdIncomplete`](crate::error::QurkError::CrowdIncomplete).
    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        let posts = std::mem::take(&mut self.staged);
        if self.refused.is_some() || !(limit_secs.is_finite() && limit_secs >= 0.0) {
            // Refuse the round without yielding: an infinite deadline
            // would run the shared simulation forever, a NaN would make
            // resume order nondeterministic. The posts are never
            // committed, later rounds are refused too, and the query
            // thread reports the typed cause.
            self.refused.get_or_insert(limit_secs);
            return RunOutcome::TimedOut;
        }
        let event = SchedulerEvent::NeedCrowd {
            query: self.task,
            limit_secs,
            posts,
        };
        if self.yield_tx.send(event).is_err() {
            return RunOutcome::TimedOut;
        }
        lock(&self.resume_rx).recv().unwrap_or(RunOutcome::TimedOut)
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        match self.translate(group) {
            Some(g) => self.market().assignments(g),
            None => Vec::new(),
        }
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        match self.translate(group) {
            Some(g) => self.market().group_hits(g),
            None => Vec::new(),
        }
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        match self.translate(group) {
            Some(g) => self.market().group_latencies(g),
            None => Vec::new(),
        }
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        match self.translate(group) {
            Some(g) => self.market().group_outstanding(g),
            // Staged, uncommitted work is by definition all
            // outstanding — everything the post would request.
            None => self.requested.get(group.0).copied().unwrap_or(0),
        }
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.market().hit_question_count(hit)
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.market().ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        self.market().now()
    }

    // The usage counters report this query's attributed share, so the
    // query's budget guard measures the query, not the whole market.
    // The group list is locked first.

    fn hits_posted(&self) -> usize {
        let groups = lock(&self.groups);
        self.market().query_live_hits(&groups) as usize
    }

    fn spend_dollars(&self) -> f64 {
        let groups = lock(&self.groups);
        self.market().query_spend(&groups)
    }

    fn assignments_completed(&self) -> u64 {
        let groups = lock(&self.groups);
        self.market().query_assignments(&groups)
    }

    fn default_assignments(&self) -> u32 {
        self.market().default_assignments()
    }
}

impl<B: CrowdBackend> QueryBackend for TenantBackend<B> {
    fn query_usage(&self) -> (BackendUsage, Vec<RoundObservation>) {
        let groups = lock(&self.groups);
        self.market().query_usage(&groups)
    }
}

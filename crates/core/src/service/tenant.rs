//! The shared marketplace and the per-query backends that feed it.
//!
//! One [`SharedMarket`] wraps the real backend (behind the Task
//! Cache layer, a [`CachingBackend`]) in a mutex and is shared by
//! every tenant's query. Each running query talks to it through its
//! own [`TenantBackend`], which
//!
//! * **stages** posts locally during the parallel machine phase —
//!   between yields, query threads run concurrently, so posts buffer
//!   under local group ids and travel with the query's `NeedCrowd`
//!   yield; the scheduler commits them to the shared market in
//!   submission order at the barrier. Each commit is a Task Cache
//!   group, which records how many of its specs were served live vs.
//!   from the shared cache (including piggybacking on another
//!   tenant's identical in-flight spec), and
//! * turns [`CrowdBackend::run`] into the cooperative **yield point**:
//!   instead of driving the clock itself, the query flushes its staged
//!   posts, parks on a channel, and the scheduler advances the one
//!   shared marketplace for everybody. A round whose limit is not a
//!   finite, non-negative number of seconds is refused right here,
//!   without yielding, and fails the query with
//!   [`QurkError::InvalidDeadline`](crate::error::QurkError::InvalidDeadline).
//!
//! A query is the list of groups committed for it. Per-query dollar
//! attribution is exact: every completed live assignment belongs to
//! exactly one query's group, and both the simulator and the replay
//! backend price assignments uniformly, so
//! `Σ query_spend(q) == shared backend total spend` (tested in
//! `tests/service_multi_tenant.rs`).

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qurk_crowd::market::{Assignment, HitGroupId, HitId, RunOutcome};
use qurk_crowd::sim::SimTime;
use qurk_crowd::{HitSpec, WorkerId};

use crate::backend::{CachingBackend, CrowdBackend, ReplayTrace};
use crate::service::scheduler::{Resume, SchedulerEvent};

/// One marketplace, one task cache, many tenants. All access is
/// serialized through a mutex; queries hold it only for individual
/// backend calls, never across a yield.
///
/// The market keeps nothing per query. A query is the list of cache
/// groups committed for it, held by its scheduler task and its
/// [`TenantBackend`]; its split, spend, savings, outstanding work and
/// completion time are read from those groups' counts
/// ([`CachingBackend`] stores them at post time) and their state.
pub struct SharedMarket<B> {
    inner: Mutex<CachingBackend<B>>,
}

impl<B: CrowdBackend> SharedMarket<B> {
    pub fn new(backend: B) -> Self {
        Self::with_caching(CachingBackend::new(backend))
    }

    /// A market over a pre-built cache layer — how
    /// [`QueryService::with_store`](crate::service::QueryService::with_store)
    /// injects a journaled, recovery-preloaded
    /// [`CachingBackend::with_journal`].
    pub fn with_caching(backend: CachingBackend<B>) -> Self {
        SharedMarket {
            inner: Mutex::new(backend),
        }
    }

    /// Every group's record is consistent on its own, so a panicked
    /// holder (a dying query thread) leaves nothing torn worth
    /// poisoning the whole service for.
    fn lock(&self) -> MutexGuard<'_, CachingBackend<B>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Post a group to the shared cache and marketplace.
    pub fn post(&self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        self.lock().post(specs, assignments)
    }

    /// Advance the shared clock (the scheduler's marketplace step).
    pub fn run(&self, limit_secs: f64) -> RunOutcome {
        self.lock().run(limit_secs)
    }

    pub fn now(&self) -> SimTime {
        self.lock().now()
    }

    /// Dollars per completed assignment (uniform in both the simulator
    /// and the replay backend); 0 until anything completes.
    fn unit_price(m: &CachingBackend<B>) -> f64 {
        let done = m.assignments_completed();
        if done == 0 {
            0.0
        } else {
            m.spend_dollars() / done as f64
        }
    }

    fn completed_live(m: &CachingBackend<B>, groups: &[HitGroupId]) -> u64 {
        groups
            .iter()
            .map(|&g| {
                let c = m.group_counts(g);
                (c.live_hits * c.per_hit).saturating_sub(u64::from(m.live_outstanding(g)))
            })
            .sum()
    }

    /// Live assignments completed so far in `groups` (a query's).
    pub(crate) fn query_assignments(&self, groups: &[HitGroupId]) -> u64 {
        Self::completed_live(&self.lock(), groups)
    }

    /// Dollars attributable to `groups`: their completed live
    /// assignments at the uniform rate.
    pub(crate) fn query_spend(&self, groups: &[HitGroupId]) -> f64 {
        let m = self.lock();
        Self::completed_live(&m, groups) as f64 * Self::unit_price(&m)
    }

    /// Dollars the shared cache saved `groups`: their cache-served
    /// HITs times the assignments each requested.
    pub(crate) fn query_saved(&self, groups: &[HitGroupId]) -> f64 {
        let m = self.lock();
        let saved: u64 = groups
            .iter()
            .map(|&g| {
                let c = m.group_counts(g);
                c.cached_hits * c.per_hit
            })
            .sum();
        saved as f64 * Self::unit_price(&m)
    }

    /// HIT specs `groups` posted live.
    pub(crate) fn query_live_hits(&self, groups: &[HitGroupId]) -> u64 {
        let m = self.lock();
        groups.iter().map(|&g| m.group_counts(g).live_hits).sum()
    }

    /// HIT specs served to `groups` without posting.
    pub(crate) fn query_cached_hits(&self, groups: &[HitGroupId]) -> u64 {
        let m = self.lock();
        groups.iter().map(|&g| m.group_counts(g).cached_hits).sum()
    }

    /// Assignments still outstanding across `groups` (counting
    /// in-flight work they share with other queries' groups).
    pub(crate) fn query_outstanding(&self, groups: &[HitGroupId]) -> u32 {
        let m = self.lock();
        groups.iter().map(|&g| m.group_outstanding(g)).sum()
    }

    /// Virtual time at which the crowd work of `groups` was done: the
    /// max over the completed ones of post time + last assignment
    /// latency, after folding each. The gap between this and the
    /// moment the scheduler resumes the query is its queue wait.
    pub(crate) fn completion_time(&self, groups: &[HitGroupId]) -> f64 {
        let mut m = self.lock();
        let mut t = 0.0f64;
        for &g in groups {
            if m.group_outstanding(g) > 0 {
                continue;
            }
            // Folds freshly completed (and shared) work into the
            // cache so the latencies below are visible.
            m.fold(g);
            let last = m.group_latencies(g).into_iter().fold(0.0f64, f64::max);
            t = t.max(m.group_posted_at(g).secs() + last);
        }
        t
    }

    /// Total dollars spent by the shared backend (all tenants).
    pub fn total_spend(&self) -> f64 {
        self.lock().spend_dollars()
    }

    /// Total HITs posted live to the shared backend (all tenants).
    pub fn total_hits_posted(&self) -> usize {
        self.lock().hits_posted()
    }

    /// A copy of the shared task cache's recorded answers (see
    /// [`CachingBackend::trace`]), taken under the lock.
    pub fn trace(&self) -> ReplayTrace {
        self.lock().trace().clone()
    }

    /// (cache hits, cache misses) across all tenants' specs.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.lock().stats()
    }

    /// Cache hits that were in-flight shares (see
    /// [`CachingBackend::shared_hits`]).
    pub fn shared_hits(&self) -> u64 {
        self.lock().shared_hits()
    }

    /// Spec keys posted live but not yet folded into the cache (the
    /// in-flight dedup slots).
    pub fn pending_specs(&self) -> usize {
        self.lock().pending_len()
    }

    /// Fold every completed group of `groups` into the shared cache
    /// (and its journal). The scheduler calls this at deterministic
    /// points — barrier resolutions, in submission order — **before**
    /// resuming threads, so journal append order never depends on how
    /// the parallel machine phase's threads interleave.
    pub(crate) fn fold_completed(&self, groups: &[HitGroupId]) {
        let mut m = self.lock();
        for &g in groups {
            if m.group_outstanding(g) == 0 {
                m.fold(g);
            }
        }
    }

    /// Batch boundary: the shared cache applies its eviction bound
    /// (see [`CachingBackend::begin_batch`]).
    pub fn begin_batch(&self) {
        self.lock().begin_batch();
    }

    /// Bound the shared task cache to `max` recorded specs, LRU-evicted
    /// at batch boundaries (see [`CachingBackend::set_max_entries`]).
    pub fn set_cache_max_entries(&self, max: Option<usize>) {
        self.lock().set_max_entries(max);
    }

    /// Entries evicted by the shared cache's bound so far.
    pub fn cache_evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Release the in-flight dedup slots of every group a **failed**
    /// query posted (see [`CachingBackend::release_in_flight`]):
    /// nobody will drive those rounds to completion, so later
    /// identical specs must re-post instead of piggybacking forever.
    pub(crate) fn release_query(&self, groups: &[HitGroupId]) {
        let mut m = self.lock();
        for &g in groups {
            m.release_in_flight(g);
        }
    }

    /// Tear down the service wrapper, returning the inner backend.
    ///
    /// # Panics
    /// Panics if tenant backends still hold the market.
    pub fn into_backend(self) -> B {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner()
    }
}

/// One post buffered during the parallel machine phase, carried to
/// the scheduler by [`SchedulerEvent::NeedCrowd`] and committed to the
/// shared market at the barrier.
#[derive(Debug)]
pub(crate) struct StagedPost {
    pub specs: Vec<HitSpec>,
    pub assignments: Option<u32>,
}

/// Local-group bookkeeping for one [`TenantBackend`]: the backend
/// hands out its own dense group ids immediately (operators need an
/// id at post time), and learns the committed shared-market ids from
/// the scheduler's [`Resume`] after the next yield. Every staged post
/// is committed at that yield, so the committed groups are the first
/// local ids.
#[derive(Debug, Default)]
struct Ledger {
    /// The shared-market groups committed for this query, by local id:
    /// the query's record in the market.
    groups: Vec<HitGroupId>,
    /// Live assignments each local group requests — reported as its
    /// outstanding count until the post is committed.
    requested: Vec<u32>,
    /// Posts buffered since the last yield: the local ids from
    /// `groups.len()` on.
    staged: Vec<StagedPost>,
}

/// A query's private handle on the [`SharedMarket`]: a full
/// [`CrowdBackend`] whose posts stage locally until `run`, whose `run`
/// yields to the scheduler instead of driving the clock, and whose
/// usage counters report the *query's attributed share* of the market,
/// read from its committed groups (so per-query metering, budgets and
/// reports work unchanged).
pub struct TenantBackend<B> {
    shared: Arc<SharedMarket<B>>,
    /// Scheduler-side index within the current batch.
    task: usize,
    /// Channels to and from the scheduler. Mutex-wrapped only to keep
    /// the backend `Sync` (each backend is owned by exactly one query
    /// thread; the locks are never contended).
    yield_tx: Mutex<Sender<SchedulerEvent>>,
    resume_rx: Mutex<Receiver<Resume>>,
    ledger: Mutex<Ledger>,
    /// The first invalid round limit this query asked for; once set,
    /// every round is refused without yielding.
    refused: Option<f64>,
}

impl<B: CrowdBackend> TenantBackend<B> {
    /// Wire a new tenant backend to the market and its scheduler
    /// channels (the scheduler keeps the other ends).
    pub(crate) fn new(
        shared: Arc<SharedMarket<B>>,
        task: usize,
        yield_tx: Sender<SchedulerEvent>,
        resume_rx: Receiver<Resume>,
    ) -> Self {
        TenantBackend {
            shared,
            task,
            yield_tx: Mutex::new(yield_tx),
            resume_rx: Mutex::new(resume_rx),
            ledger: Mutex::new(Ledger::default()),
            refused: None,
        }
    }

    /// The first round limit this backend refused as not a finite,
    /// non-negative number of seconds, if any.
    pub(crate) fn refused_deadline(&self) -> Option<f64> {
        self.refused
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Buffer a post under a fresh local group id. Nothing touches the
    /// shared market (beyond reading its default assignment count):
    /// during the parallel machine phase many query threads post
    /// concurrently, and commit order must be the scheduler's choice,
    /// not the thread scheduler's.
    fn stage_post(&self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let per_spec = assignments
            .unwrap_or_else(|| self.shared.lock().default_assignments())
            .max(1);
        let requested = (specs.len() as u32).saturating_mul(per_spec);
        let mut l = self.ledger();
        let local = HitGroupId(l.requested.len());
        l.requested.push(requested);
        l.staged.push(StagedPost { specs, assignments });
        local
    }

    /// The committed shared-market id behind a local group id, if the
    /// post has been flushed.
    fn translate(&self, group: HitGroupId) -> Option<HitGroupId> {
        self.ledger().groups.get(group.0).copied()
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
    /// to resolve its round. The barrier answers with the committed
    /// group ids (a `Resume`), which fill the local ledger before the
    /// operator reads any results. A closed channel (scheduler gone)
    /// reads as a timeout, which the operator surfaces as
    /// [`QurkError::CrowdIncomplete`](crate::error::QurkError::CrowdIncomplete).
    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        let posts: Vec<StagedPost> = self.ledger().staged.drain(..).collect();
        if self.refused.is_some() || !(limit_secs.is_finite() && limit_secs >= 0.0) {
            // Refuse the round without yielding: an infinite deadline
            // would run the shared simulation forever, a NaN would make
            // resume order nondeterministic. The posts are never
            // committed, later rounds are refused too, and the query
            // thread reports the typed cause.
            self.refused.get_or_insert(limit_secs);
            return RunOutcome::TimedOut;
        }
        let sent = {
            let tx = self.yield_tx.lock().unwrap_or_else(PoisonError::into_inner);
            tx.send(SchedulerEvent::NeedCrowd {
                query: self.task,
                limit_secs,
                posts,
            })
        };
        if sent.is_err() {
            return RunOutcome::TimedOut;
        }
        let received = {
            let rx = self
                .resume_rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        match received {
            Ok(Resume { outcome, groups }) => {
                self.ledger().groups.extend(groups);
                outcome
            }
            Err(_) => RunOutcome::TimedOut,
        }
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        match self.translate(group) {
            Some(g) => self.shared.lock().assignments(g),
            None => Vec::new(),
        }
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        match self.translate(group) {
            Some(g) => self.shared.lock().group_hits(g),
            None => Vec::new(),
        }
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        match self.translate(group) {
            Some(g) => self.shared.lock().group_latencies(g),
            None => Vec::new(),
        }
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        match self.translate(group) {
            Some(g) => self.shared.lock().group_outstanding(g),
            // Staged, uncommitted work is by definition all
            // outstanding — everything the post would request.
            None => self.ledger().requested.get(group.0).copied().unwrap_or(0),
        }
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.shared.lock().hit_question_count(hit)
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.shared.lock().ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        self.shared.now()
    }

    // The usage counters report this query's attributed share, so the
    // query's metering epoch and budget guard measure the tenant,
    // not the whole market.

    fn hits_posted(&self) -> usize {
        self.shared.query_live_hits(&self.ledger().groups) as usize
    }

    fn spend_dollars(&self) -> f64 {
        self.shared.query_spend(&self.ledger().groups)
    }

    fn assignments_completed(&self) -> u64 {
        self.shared.query_assignments(&self.ledger().groups)
    }

    fn default_assignments(&self) -> u32 {
        self.shared.lock().default_assignments()
    }
}

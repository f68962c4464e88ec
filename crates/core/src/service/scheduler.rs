//! The deterministic scheduler with a parallel machine phase.
//!
//! No async runtime is available (dependencies are vendored), so
//! concurrency is plain threads. Queries run on **workers that outlive
//! the batch**: worker `i` runs each batch's `i`-th query, and a worker
//! is spawned only when a batch is larger than every batch before it.
//! Only the **marketplace** is serialized on the one shared clock.
//! Between yield points all runnable queries execute **concurrently**
//! — planning, EM combining, machine filters and sorts from N tenants
//! genuinely overlap on a multi-core host — and determinism is
//! preserved by a barrier. [`QueryService::run_pending`] loops over
//! three steps:
//!
//! 1. **Parallel machine phase** — resume *every* runnable query at
//!    once. Each resumed query runs machine-side until its next yield
//!    and sends exactly one event: `NeedCrowd` (its next crowd round,
//!    with the posts it staged locally — see [`TenantBackend`]) or
//!    `Done`.
//! 2. **Barrier** — the scheduler collects exactly one event per
//!    resumed query, then resolves them in **submission order**:
//!    staged posts are committed to the shared market and completed
//!    work is folded into the shared cache — all on the scheduler
//!    thread, so the marketplace, the cache's group records and the
//!    durable journal never observe thread-timing nondeterminism. A
//!    query whose round is already complete (fully cached) becomes
//!    runnable again immediately.
//! 3. **Marketplace step** — when nothing is runnable, every running
//!    query is parked on a posted round. Run the one shared backend in
//!    stages toward the waiting queries' deadlines (nearest first) and
//!    stop as soon as any query's round resolves: complete (its
//!    outstanding work hit zero) or timed out (the shared clock passed
//!    its deadline). Queries resolved while ≥ 2 were parked count the
//!    round as *shared* — one marketplace step served several tenants.
//!
//! Because the clock only advances in the marketplace step and all
//! shared-state writes happen on the scheduler thread in submission
//! order, a batch of N concurrent queries is still byte-identical to
//! running them sequentially on a replayed crowd (tested in
//! `tests/service_multi_tenant.rs` and `tests/service_parallel.rs`).
//!
//! Each query runs on the same execution path as a
//! [`Session`](crate::session::Session): its plan executes through its
//! [`TenantBackend`], so a post crosses the shared market's one Task
//! Cache, and the query's report and rounds are read from the groups
//! committed for it, as a `Session` query's are from its own.
//!
//! Each query is **planned once, at admission**: `submit` (or
//! `recover`) prepares it against the service's [`StatisticsStore`]
//! and gates it at the tenant's effective budget, and the worker runs
//! that plan with those diagnostics. Nothing the plan or the verdict
//! depends on can move in between: the statistics and the tenants'
//! spend change only when a batch finishes, and `run_pending` runs
//! every admitted query. A query records what it learns into an empty
//! store, and the batch's deltas are merged in submission order after
//! the batch — concurrent queries never see each other's half-finished
//! evidence, and what a batch learns steers the plans admitted after
//! it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, SendError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use qurk_crowd::market::{HitGroupId, RunOutcome};

use crate::analyze::{prepare, Diagnostic, Prepared};
use crate::backend::{CachingBackend, CrowdBackend};
use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::exec::execute_plan;
use crate::lang::parser::parse_query;
use crate::opt::stats::StatisticsStore;
use crate::service::report::ServiceStats;
use crate::service::tenant::{lock, Groups, Market, StagedPost, TenantBackend};
use crate::session::{ExecConfig, QueryReport};
use crate::store::{DurableStore, QueryCheckpoint, RecoveredState, StoreHealth, TenantRecord};

/// What a query thread sends the scheduler. Exactly one event is sent
/// per resume — that's what makes the barrier sound.
#[derive(Debug)]
pub(crate) enum SchedulerEvent {
    /// The query staged `posts` and yields until the shared
    /// marketplace has run for up to `limit_secs` of virtual time
    /// (finite and non-negative: [`TenantBackend`] refuses any other
    /// round without yielding).
    NeedCrowd {
        query: usize,
        limit_secs: f64,
        posts: Vec<StagedPost>,
    },
    /// The query finished (successfully or not).
    Done { query: usize, msg: Box<DoneMsg> },
}

impl SchedulerEvent {
    fn query(&self) -> usize {
        match self {
            SchedulerEvent::NeedCrowd { query, .. } | SchedulerEvent::Done { query, .. } => *query,
        }
    }
}

/// A finished query's payload.
#[derive(Debug)]
pub(crate) struct DoneMsg {
    pub result: Result<QueryReport>,
    /// What the query learned, recorded into an empty store.
    pub stats_delta: StatisticsStore,
}

/// One admitted, not-yet-executed query.
struct Submission {
    tenant: usize,
    /// The plan the admission gate analyzed — the query's worker
    /// executes exactly this, never a re-parse or a recompile.
    prepared: Prepared,
    /// The admission gate's verdict, reported with the result.
    diagnostics: Vec<Diagnostic>,
    budget: Option<f64>,
    /// Durable checkpoint id when the service has a store attached.
    persist_id: Option<u64>,
    /// Resubmitted by [`QueryService::recover`] after a restart.
    resumed: bool,
}

/// Deadline slack: a round whose deadline the clock has reached within
/// this tolerance counts as expired (guards float accumulation across
/// staged runs).
const DEADLINE_EPS: f64 = 1e-9;

/// A multi-tenant query service over one shared marketplace.
///
/// ```text
/// let mut svc = QueryService::new(Arc::new(catalog), backend);
/// svc.register_tenant("alice", Some(5.0));
/// svc.register_tenant("bob", None);
/// svc.submit("alice", "SELECT ...")?;
/// svc.submit("bob", "SELECT ...")?;
/// let reports = svc.run_pending();   // concurrent, deterministic
/// ```
///
/// Queries admitted by [`Self::submit`] execute concurrently on the
/// next [`Self::run_pending`], sharing the marketplace clock, the
/// task cache (identical specs across tenants are paid for once) and
/// the statistics store. Machine-side work overlaps on query workers
/// the service keeps across batches; only marketplace steps are
/// serialized (module docs).
pub struct QueryService<B: CrowdBackend + 'static> {
    catalog: Arc<Catalog>,
    market: Market<B>,
    /// Learned statistics: read by admission, merged only in `finish`.
    stats: StatisticsStore,
    config: ExecConfig,
    /// Registered tenants: `budget` caps a tenant's cumulative spend
    /// across all its queries, `spent` is what was attributed so far.
    tenants: Vec<TenantRecord>,
    /// Live groups still outstanding when their query's batch
    /// finished. The market pays for them as they complete in later
    /// marketplace steps, and each later batch charges their tenants.
    trailing: Vec<Trailing>,
    pending: Vec<Submission>,
    /// Durable state (task cache, statistics, checkpoints, tenants) —
    /// attached via [`Self::with_store`], absent otherwise.
    store: Option<Arc<DurableStore>>,
    workers: Workers,
}

impl<B: CrowdBackend + 'static> QueryService<B> {
    /// A service with default execution configuration.
    pub fn new(catalog: Arc<Catalog>, backend: B) -> Self {
        Self::with_config(catalog, backend, ExecConfig::default())
    }

    /// A service whose queries run under `config` (lint policy,
    /// operator defaults, optimizer mode).
    pub fn with_config(catalog: Arc<Catalog>, backend: B, config: ExecConfig) -> Self {
        QueryService {
            catalog,
            market: Arc::new(Mutex::new(CachingBackend::new(backend))),
            stats: StatisticsStore::new(),
            config,
            tenants: Vec::new(),
            trailing: Vec::new(),
            pending: Vec::new(),
            store: None,
            workers: Workers::default(),
        }
    }

    /// A durable service: open-on-start recovery of the task cache,
    /// learned statistics and tenant registrations from `store`, with
    /// every paid round, admission and completion journaled back.
    /// In-flight queries from a previous process are *not* re-queued
    /// automatically — call [`Self::recover`] to resume them.
    pub fn with_store(
        catalog: Arc<Catalog>,
        backend: B,
        config: ExecConfig,
        store: Arc<DurableStore>,
    ) -> Self {
        let RecoveredState {
            cache,
            stats,
            tenants,
            ..
        } = store.recovered();
        let caching = CachingBackend::with_journal(backend, Arc::clone(&store), cache);
        QueryService {
            catalog,
            market: Arc::new(Mutex::new(caching)),
            stats,
            config,
            tenants,
            trailing: Vec::new(),
            pending: Vec::new(),
            store: Some(store),
            workers: Workers::default(),
        }
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// Re-queue every live checkpoint (a query admitted but not
    /// finished when the previous process died) for the next
    /// [`Self::run_pending`], keeping its original checkpoint id and
    /// budget. A checkpoint this process admitted and still has
    /// queued is skipped, so recovering twice, or after a `submit`,
    /// runs each query once. A dead store re-queues nothing: its log
    /// no longer records this process's completions, so it cannot
    /// tell a finished query from an unfinished one. Each checkpoint
    /// is **re-admitted through the same gate as [`Self::submit`]**
    /// against the recovered statistics: under
    /// [`LintPolicy::Deny`](crate::analyze::LintPolicy::Deny) a
    /// checkpoint that would be rejected today is retired (its
    /// checkpoint is marked done) instead of executed —
    /// a crash must not smuggle a query past the admission analyzer.
    /// The resumed queries replay their already-paid rounds from the
    /// recovered cache instead of re-posting them, and their reports
    /// are flagged [`ServiceStats::resumed`]. Returns the re-queued
    /// checkpoints, in queue order. No-op without a store.
    pub fn recover(&mut self) -> Vec<QueryCheckpoint> {
        let Some(store) = self.store.clone().filter(|s| !s.is_dead()) else {
            return Vec::new();
        };
        let mut resumed = Vec::new();
        for cp in store.live_checkpoints() {
            if self.pending.iter().any(|s| s.persist_id == Some(cp.id)) {
                continue;
            }
            let Ok(tenant) = self.tenant_index(&cp.tenant) else {
                // The checkpoint's tenant is gone from the log
                // (registrations are journaled, so this means a
                // truncated tail). Retire it rather than resurrect
                // an unattributable query on every restart.
                store.append_query_done(cp.id);
                continue;
            };
            match self.admit(tenant, &cp.sql, cp.budget) {
                Ok(job) => {
                    self.pending.push(Submission {
                        persist_id: Some(cp.id),
                        resumed: true,
                        ..job
                    });
                    resumed.push(cp);
                }
                Err(_) => {
                    // Admission says no under today's statistics and
                    // policy. Retire the checkpoint so the rejected
                    // query is not resurrected on every restart.
                    store.append_query_done(cp.id);
                }
            }
        }
        resumed
    }

    /// Register (or re-budget) a tenant. `budget` caps the tenant's
    /// cumulative attributed spend across all its queries; `None`
    /// means uncapped.
    pub fn register_tenant(&mut self, name: &str, budget: Option<f64>) {
        let position = self.tenants.iter().position(|t| t.name == name);
        let i = position.unwrap_or_else(|| {
            self.tenants.push(TenantRecord {
                name: name.to_owned(),
                budget,
                spent: 0.0,
            });
            self.tenants.len() - 1
        });
        self.tenants[i].budget = budget;
        if let Some(store) = &self.store {
            store.append_tenant(&self.tenants[i]);
        }
    }

    fn tenant_index(&self, name: &str) -> Result<usize> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| QurkError::Other(format!("unknown tenant {name:?}")))
    }

    /// Dollars attributed to a tenant so far.
    pub fn tenant_spent(&self, name: &str) -> Result<f64> {
        Ok(self.tenants[self.tenant_index(name)?].spent)
    }

    /// The admission gate shared by [`Self::submit`] and
    /// [`Self::recover`]: parse and prepare against the service's
    /// statistics, then run the lint-policy gate priced at the budget
    /// the query would run under now. Returns the submission, carrying
    /// the exact plan that will execute and the gate's diagnostics.
    fn admit(&self, tenant: usize, sql: &str, budget: Option<f64>) -> Result<Submission> {
        let prepared = prepare(parse_query(sql)?, &self.catalog, &self.config, &self.stats)?;
        let effective = self.effective_budget(tenant, budget);
        let diagnostics = prepared.gate(sql, &self.config, &self.stats, effective)?;
        Ok(Submission {
            tenant,
            prepared,
            diagnostics,
            budget,
            persist_id: None,
            resumed: false,
        })
    }

    /// Admit a query for a tenant. Admission runs the pre-flight
    /// analyzer ([`crate::analyze`]) against the current shared
    /// statistics and the tenant's remaining budget: under
    /// [`LintPolicy::Deny`](crate::analyze::LintPolicy::Deny) a query
    /// with error-level diagnostics is rejected here, before anything
    /// is queued.
    /// Returns the submission's position in the next
    /// [`Self::run_pending`] batch.
    pub fn submit(&mut self, tenant: &str, sql: &str) -> Result<usize> {
        self.submit_with_budget(tenant, sql, None)
    }

    /// [`Self::submit`] with a per-query dollar budget (combined with
    /// the tenant budget: the query runs under the tighter of the two).
    pub fn submit_with_budget(
        &mut self,
        tenant: &str,
        sql: &str,
        budget: Option<f64>,
    ) -> Result<usize> {
        let tenant = self.tenant_index(tenant)?;
        let mut job = self.admit(tenant, sql, budget)?;
        // Checkpoint write-ahead of the queue push: once admission is
        // acknowledged, a crash before the query finishes leaves a
        // live checkpoint for `recover()` to resume.
        job.persist_id = self
            .store
            .as_ref()
            .map(|s| s.append_checkpoint(&self.tenants[tenant].name, sql, budget));
        self.pending.push(job);
        Ok(self.pending.len() - 1)
    }

    /// Number of admitted, not-yet-executed queries.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The service's market: the one Task Cache every query posts
    /// through, for its totals, cache statistics, trace and eviction
    /// bound ([`CachingBackend::set_max_entries`]). Between batches the
    /// service holds the only handle on it, so this borrows it without
    /// a lock. Reads in one statement need no care:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use qurk::{Catalog, QueryService, ReplayBackend, ReplayTrace};
    /// let mut svc = QueryService::new(
    ///     Arc::new(Catalog::new()),
    ///     ReplayBackend::from_trace(ReplayTrace::default()),
    /// );
    /// let totals = (svc.market().stats(), svc.market().evictions());
    /// assert_eq!(totals, ((0, 0), 0));
    /// ```
    ///
    /// and two borrows held at once are a compile error, not a
    /// deadlock:
    ///
    /// ```compile_fail,E0499
    /// # use std::sync::Arc;
    /// # use qurk::{Catalog, QueryService, ReplayBackend, ReplayTrace};
    /// let mut svc = QueryService::new(
    ///     Arc::new(Catalog::new()),
    ///     ReplayBackend::from_trace(ReplayTrace::default()),
    /// );
    /// let (a, b) = (svc.market(), svc.market());
    /// assert_eq!(a.stats(), b.stats());
    /// ```
    ///
    /// # Panics
    /// Panics if a query still holds the market, which cannot happen
    /// between [`Self::run_pending`] calls (it returns only once every
    /// tenant backend is dropped).
    pub fn market(&mut self) -> &mut CachingBackend<B> {
        Arc::get_mut(&mut self.market)
            .expect("tenant backends still hold the market")
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The learned statistics admission plans against. They move only
    /// when a batch finishes, by each query's delta in submission order.
    pub fn statistics(&self) -> &StatisticsStore {
        &self.stats
    }

    /// Tear down the service, returning the inner backend (e.g. to
    /// read a [`ReplayBackend::posted_keys`](crate::backend::ReplayBackend::posted_keys)
    /// after a serving run; the answers it cached are the market's
    /// [`CachingBackend::trace`]).
    ///
    /// # Panics
    /// Panics if called while queries are still running (they hold the
    /// market). Between [`Self::run_pending`] calls every tenant
    /// backend has been dropped, so this always succeeds.
    pub fn into_backend(self) -> B {
        Arc::try_unwrap(self.market)
            .ok()
            .expect("tenant backends still hold the market")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner()
    }

    /// The dollar budget a query may spend right now: the tighter of
    /// its own budget and what its tenant has left.
    fn effective_budget(&self, tenant: usize, budget: Option<f64>) -> Option<f64> {
        let t = &self.tenants[tenant];
        let tenant_left = t.budget.map(|b| (b - t.spent).max(0.0));
        match (budget, tenant_left) {
            (Some(q), Some(r)) => Some(q.min(r)),
            (Some(q), None) => Some(q),
            (None, r) => r,
        }
    }

    /// Execute every pending query **concurrently** against the shared
    /// marketplace and return their reports in submission order.
    ///
    /// Machine-side work runs in parallel on the service's query
    /// workers; shared state is only written at barriers and
    /// marketplace steps, in submission order, so results are
    /// deterministic (module docs). Each query runs the plan and
    /// diagnostics admission gave it. Its budget guard holds the
    /// effective budget at batch start, so two same-tenant queries in
    /// one batch can jointly overshoot a tenant budget by at most one
    /// round each; the queries admitted after the batch are priced at
    /// what the tenant has left.
    ///
    /// Returns only once every query has dropped its [`TenantBackend`]
    /// and its event senders, so no tenant backend outlives its batch.
    pub fn run_pending(&mut self) -> Vec<Result<QueryReport>> {
        let jobs = std::mem::take(&mut self.pending);
        if jobs.is_empty() {
            return Vec::new();
        }
        // Batch boundary for the cache's eviction bound.
        lock(&self.market).begin_batch();
        let (event_tx, event_rx) = channel::<SchedulerEvent>();
        // Should the scheduler panic, unwinding drops the resume
        // senders and unparks every query, so no worker is left stuck.
        let mut resume_txs: Vec<Sender<RunOutcome>> = Vec::with_capacity(jobs.len());
        let mut tasks = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.into_iter().enumerate() {
            let (resume_tx, resume_rx) = channel();
            let task = Task {
                tenant: job.tenant,
                resumed: job.resumed,
                ..Task::new(job.persist_id)
            };
            let backend = TenantBackend::new(
                Arc::clone(&self.market),
                Arc::clone(&task.groups),
                i,
                event_tx.clone(),
                resume_rx,
            );
            tasks.push(task);
            let budget = self.effective_budget(job.tenant, job.budget);
            let catalog = Arc::clone(&self.catalog);
            let done_tx = event_tx.clone();
            self.workers.dispatch(
                i,
                Box::new(move || {
                    let msg = run_query(job, backend, &catalog, budget);
                    let _ = done_tx.send(SchedulerEvent::Done {
                        query: i,
                        msg: Box::new(msg),
                    });
                }),
            );
            resume_txs.push(resume_tx);
        }
        // Only the jobs hold senders now, so `recv` fails once every
        // job has ended — even without its event.
        drop(event_tx);
        // Every job starts at dispatch: its first event is owed.
        let mut running = tasks.len();
        let mut finished = 0;
        while finished < tasks.len() {
            for (task, tx) in tasks.iter_mut().zip(&resume_txs) {
                if let Some(outcome) = task.take_resume() {
                    // A failed send means the job is gone; the short
                    // barrier below notices.
                    let _ = tx.send(outcome);
                    running += 1;
                }
            }
            if running > 0 {
                let events: Vec<SchedulerEvent> = event_rx.iter().take(running).collect();
                let short = events.len() < running;
                running = 0;
                finished += self.resolve_barrier(&mut tasks, events);
                if short {
                    break; // every job ended, some without an event
                }
            } else if !self.market_step(&mut tasks) {
                break; // defensive: nothing runnable, nothing waiting
            }
        }
        // Closing the resume channels unparks any query the loop gave
        // up on; the channel disconnects once every job has dropped its
        // tenant backend and senders. Late events are discarded.
        drop(resume_txs);
        event_rx.iter().for_each(drop);
        self.finish(tasks)
    }

    /// The barrier: commit the staged posts of every `NeedCrowd` event
    /// to the market, into the query's group list, and count its
    /// round, then classify each task — runnable again (its round is
    /// already complete), waiting on the marketplace, or finished.
    /// Everything happens in submission order, so every shared-state
    /// write is deterministic no matter how the query threads
    /// interleaved. Returns how many queries finished.
    fn resolve_barrier(&self, tasks: &mut [Task], mut events: Vec<SchedulerEvent>) -> usize {
        events.sort_by_key(SchedulerEvent::query);
        // Pass 1: all posts land before any completion check, so
        // same-barrier spec sharing is order-stable.
        for event in &mut events {
            let SchedulerEvent::NeedCrowd { query, posts, .. } = event else {
                continue;
            };
            // The query is parked: its list is the scheduler's to fill.
            let task = &mut tasks[*query];
            let mut groups = lock(&task.groups);
            for post in posts.drain(..) {
                groups.push(lock(&self.market).post(post.specs, post.assignments));
            }
            task.rounds += 1;
        }
        // Pass 2: classify, in the same order.
        let mut finished = 0;
        for event in events {
            match event {
                SchedulerEvent::NeedCrowd {
                    query, limit_secs, ..
                } => {
                    let task = &mut tasks[query];
                    let groups = lock(&task.groups);
                    let mut market = lock(&self.market);
                    task.state = if market.query_outstanding(&groups) == 0 {
                        // Fully cached/complete round: runnable again
                        // without a marketplace step. Fold on the
                        // scheduler thread so the journal never sees
                        // thread-timing order.
                        market.fold_completed(&groups);
                        TaskState::Runnable(RunOutcome::Completed)
                    } else {
                        TaskState::Waiting {
                            deadline: market.now().secs() + limit_secs,
                        }
                    };
                }
                SchedulerEvent::Done { query, msg } => {
                    tasks[query].done = Some(msg);
                    tasks[query].state = TaskState::Finished;
                    finished += 1;
                }
            }
        }
        finished
    }

    /// The marketplace step: every live query is parked on a posted
    /// round. Run the shared clock toward the waiting deadlines,
    /// nearest first, and stop at the first stage that resolves any
    /// round. Returns `false` when no query is waiting.
    fn market_step(&self, tasks: &mut [Task]) -> bool {
        let mut waiting: Vec<(f64, usize)> = tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.state {
                TaskState::Waiting { deadline } => Some((deadline, i)),
                _ => None,
            })
            .collect();
        if waiting.is_empty() {
            return false;
        }
        // total_cmp: deadlines are finite (the tenant backend refuses
        // any other round), but a total order keeps resume order
        // well-defined no matter what.
        waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let shared_round = waiting.len() >= 2;
        let mut stages: Vec<f64> = waiting.iter().map(|&(d, _)| d).collect();
        stages.dedup();
        for stage in stages {
            let now = {
                let mut market = lock(&self.market);
                let dt = stage - market.now().secs();
                if dt > 0.0 {
                    let _ = market.run(dt);
                }
                market.now().secs()
            };
            let mut resolved_any = false;
            for &(deadline, i) in &waiting {
                let task = &mut tasks[i];
                if !matches!(task.state, TaskState::Waiting { .. }) {
                    continue;
                }
                let groups = lock(&task.groups);
                let mut market = lock(&self.market);
                let outcome = if market.query_outstanding(&groups) == 0 {
                    RunOutcome::Completed
                } else if now + DEADLINE_EPS >= deadline {
                    RunOutcome::TimedOut
                } else {
                    continue;
                };
                // Fold whatever completed into the shared cache *here*,
                // in resolution order — on a timeout the query may
                // still read its finished groups, and those folds
                // (journal appends included) must not race other
                // threads in the next machine phase.
                if outcome == RunOutcome::Completed {
                    let completion = market.completion_time(&groups);
                    task.queue_wait_secs += (now - completion).max(0.0);
                } else {
                    market.fold_completed(&groups);
                }
                if shared_round {
                    task.rounds_shared += 1;
                }
                task.state = TaskState::Runnable(outcome);
                resolved_any = true;
            }
            if resolved_any {
                break;
            }
        }
        true
    }

    /// Close a batch: charge the trailing groups' late work, then, in
    /// submission order, attribute each query's spend to its tenant,
    /// merge its statistics delta, attach its [`ServiceStats`], and
    /// retire its checkpoint.
    fn finish(&mut self, tasks: Vec<Task>) -> Vec<Result<QueryReport>> {
        self.charge_trailing();
        let mut out = Vec::with_capacity(tasks.len());
        for task in tasks {
            // Every tenant backend is gone: the list is the task's alone.
            let groups = lock(&task.groups);
            let (spent, cached_hits, saved) = {
                let market = lock(&self.market);
                for &group in groups.iter() {
                    if market.live_outstanding(group) > 0 {
                        self.trailing.push(Trailing {
                            tenant: task.tenant,
                            group,
                            charged: market.query_assignments(&[group]),
                        });
                    }
                }
                (
                    market.query_spend(&groups),
                    market.query_cached_hits(&groups),
                    market.query_saved(&groups),
                )
            };
            self.tenants[task.tenant].spent += spent;
            let result = match task.done {
                Some(msg) => {
                    self.stats.merge(&msg.stats_delta);
                    if let Some(store) = &self.store {
                        store.append_stats_delta(&msg.stats_delta);
                    }
                    msg.result.map(|mut report| {
                        report.service = Some(ServiceStats {
                            tenant: self.tenants[task.tenant].name.clone(),
                            queue_wait_secs: task.queue_wait_secs,
                            rounds: task.rounds,
                            rounds_shared: task.rounds_shared,
                            shared_cache_hits: cached_hits,
                            saved_dollars: saved,
                            resumed: task.resumed,
                        });
                        report
                    })
                }
                None => Err(QurkError::Other(
                    "query thread terminated without a result".to_owned(),
                )),
            };
            // The same durability contract as a `Session`: once the
            // store cannot write or read, acknowledged rounds are no
            // longer safe, so the query fails loudly.
            let result = match self.store.as_ref().map(|s| s.health()) {
                Some(StoreHealth::Failed(msg)) => Err(QurkError::Store(msg)),
                _ => result,
            };
            if result.is_err() {
                // A failed query abandons its in-flight rounds: drop
                // its dedup slots so later identical specs re-post
                // instead of piggybacking on work nobody is driving.
                lock(&self.market).release_query(&groups);
            }
            if let (Some(store), Some(id)) = (&self.store, task.persist_id) {
                // The query resolved (either way) and its result was
                // delivered: retire the checkpoint so a restart does
                // not re-run it, and persist the tenant's new spend.
                store.append_query_done(id);
                store.append_tenant(&self.tenants[task.tenant]);
            }
            out.push(result);
        }
        out
    }

    /// Charge each trailing group's tenant for the assignments it
    /// completed since its last charge (the market paid for them in
    /// this batch's steps), journaling the tenant record, and drop the
    /// groups with nothing left outstanding. Failed queries' groups
    /// that completed are folded into the cache here, a deterministic
    /// point, so journal order does not depend on thread timing.
    fn charge_trailing(&mut self) {
        let mut market = lock(&self.market);
        market.fold_released();
        self.trailing.retain_mut(|t| {
            let done = market.query_assignments(&[t.group]);
            if done > t.charged {
                let tenant = &mut self.tenants[t.tenant];
                tenant.spent += market.assignment_dollars(done - t.charged);
                t.charged = done;
                if let Some(store) = &self.store {
                    store.append_tenant(tenant);
                }
            }
            market.live_outstanding(t.group) > 0
        });
    }
}

/// A finished query's live group with assignments still outstanding.
struct Trailing {
    /// The query's tenant (index into the service's tenants).
    tenant: usize,
    group: HitGroupId,
    /// The group's completed assignments its tenant was charged for.
    charged: u64,
}

/// Where one query stands in the barrier loop.
enum TaskState {
    /// Executing machine-side; its barrier event is still owed.
    Running,
    /// Parked; resumed with this outcome at the next machine phase.
    Runnable(RunOutcome),
    /// Parked on a posted round with a marketplace deadline.
    Waiting {
        deadline: f64,
    },
    Finished,
}

/// The scheduler's bookkeeping for one query of the batch.
struct Task {
    /// The submitting tenant (index into the service's tenants).
    tenant: usize,
    /// Durable checkpoint id when the service has a store attached.
    persist_id: Option<u64>,
    /// Resubmitted by [`QueryService::recover`] after a restart.
    resumed: bool,
    state: TaskState,
    rounds: u64,
    rounds_shared: u64,
    queue_wait_secs: f64,
    /// The market groups committed for the query, shared with its
    /// [`TenantBackend`]: its record in the market, from which its
    /// split, spend and savings are read.
    groups: Groups,
    done: Option<Box<DoneMsg>>,
}

impl Task {
    fn new(persist_id: Option<u64>) -> Self {
        Task {
            tenant: 0,
            persist_id,
            resumed: false,
            state: TaskState::Running,
            rounds: 0,
            rounds_shared: 0,
            queue_wait_secs: 0.0,
            groups: Groups::default(),
            done: None,
        }
    }

    /// Take a runnable task's outcome, marking it running; `None` (and
    /// no change) for any other state.
    fn take_resume(&mut self) -> Option<RunOutcome> {
        match std::mem::replace(&mut self.state, TaskState::Running) {
            TaskState::Runnable(outcome) => Some(outcome),
            other => {
                self.state = other;
                None
            }
        }
    }
}

/// One query of a batch, handed to a worker: it runs the query and
/// sends its `Done`, dropping its [`TenantBackend`] and event senders
/// on the way out.
type Job = Box<dyn FnOnce() + Send>;

/// The service's query workers, kept across batches. Worker `i` runs
/// each batch's `i`-th query, so the pool grows only when a batch is
/// larger than every batch before it, and never beyond the largest
/// batch served. Dropping the pool closes every job channel and joins
/// the workers.
#[derive(Default)]
struct Workers {
    jobs: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Workers spawned over the pool's life, replacements included.
    #[cfg(test)]
    pub(crate) spawned: usize,
}

impl Workers {
    /// Hand `job` to worker `i`. Jobs are dispatched in batch order,
    /// so `i` is at most the pool size: a new slot spawns a worker, and
    /// a worker that is gone (its job channel closed) is replaced.
    fn dispatch(&mut self, i: usize, job: Job) {
        let job = match self.jobs.get(i) {
            Some(tx) => match tx.send(job) {
                Ok(()) => return,
                Err(SendError(job)) => job,
            },
            None => job,
        };
        let (tx, handle) = spawn_worker(i, job);
        if i == self.jobs.len() {
            self.jobs.push(tx);
            self.handles.push(handle);
        } else {
            self.jobs[i] = tx;
            // The old worker has exited (its receiver is gone); a
            // panic it died of was already reported as its query's.
            let _ = std::mem::replace(&mut self.handles[i], handle).join();
        }
        #[cfg(test)]
        {
            self.spawned += 1;
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closed channels end each worker's receive loop.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Start worker `i` with `job` queued; it runs jobs until its channel
/// closes. The only place the service starts a thread.
fn spawn_worker(i: usize, job: Job) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx) = channel::<Job>();
    tx.send(job).expect("the receiver is alive");
    let handle = std::thread::Builder::new()
        .name(format!("qurk-query-{i}"))
        .spawn(move || rx.into_iter().for_each(|job| job()))
        .expect("failed to spawn a query worker");
    (tx, handle)
}

/// One query: execute the plan admission analyzed through `backend`
/// under the batch-start `budget`, and return the result, carrying
/// admission's diagnostics, with what the query learned. A panic
/// becomes an `Err` report; a round the backend refused for its
/// deadline fails the query with [`QurkError::InvalidDeadline`].
fn run_query<B: CrowdBackend>(
    job: Submission,
    mut backend: TenantBackend<B>,
    catalog: &Catalog,
    budget: Option<f64>,
) -> DoneMsg {
    catch_unwind(AssertUnwindSafe(|| {
        let mut learned = StatisticsStore::new();
        let (outcome, usage) =
            execute_plan(catalog, &mut backend, &mut learned, &job.prepared, budget);
        let mut result = outcome
            .map(|relation| QueryReport::new(relation, usage, &job.prepared, job.diagnostics));
        if let Some(limit_secs) = backend.refused_deadline() {
            result = Err(QurkError::InvalidDeadline { limit_secs });
        }
        DoneMsg {
            result,
            stats_delta: learned,
        }
    }))
    .unwrap_or_else(|_| DoneMsg {
        result: Err(QurkError::Other("query thread panicked".to_owned())),
        stats_delta: StatisticsStore::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::CountingBackend;
    use crate::opt::physical::{PhysNode, PhysicalPlan};
    use crate::opt::CostEstimate;
    use crate::{Relation, Schema, Value, ValueType};
    use qurk_crowd::question::HitKind;
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, HitSpec, Marketplace, Question};

    /// The barrier commits in submission order whatever order the
    /// events arrived in: the same `NeedCrowd` events delivered
    /// reversed and in order commit identical shared-market group ids,
    /// round counts and live/cached splits, the splits read from each
    /// task's group list. Query 2 re-posts query 0's spec, so which of
    /// them pays depends on commit order.
    #[test]
    fn resolve_barrier_commits_in_submission_order() {
        let commit = |reverse: bool| {
            let mut gt = GroundTruth::new();
            let items = gt.new_items(3);
            for &item in &items {
                let truth = PredicateTruth {
                    value: true,
                    error_rate: 0.0,
                };
                gt.set_predicate(item, "p", truth);
            }
            let market = Marketplace::new(&CrowdConfig::default().with_seed(1), gt);
            let svc = QueryService::new(Arc::new(Catalog::new()), market);
            let spec = |i: usize| {
                let question = Question::Filter {
                    item: items[i],
                    predicate: "p".into(),
                };
                HitSpec::new(vec![question], HitKind::Filter)
            };
            let mut tasks: Vec<Task> = (0..3).map(|_| Task::new(None)).collect();
            let mut events: Vec<SchedulerEvent> = [0, 1, 0]
                .into_iter()
                .enumerate()
                .map(|(query, item)| SchedulerEvent::NeedCrowd {
                    query,
                    limit_secs: 60.0,
                    posts: vec![StagedPost {
                        specs: vec![spec(item), spec(2)],
                        assignments: None,
                    }],
                })
                .collect();
            if reverse {
                events.reverse();
            }
            assert_eq!(svc.resolve_barrier(&mut tasks, events), 0);
            tasks
                .iter()
                .map(|t| {
                    let groups = lock(&t.groups).clone();
                    let market = lock(&svc.market);
                    let split = (
                        market.query_live_hits(&groups),
                        market.query_cached_hits(&groups),
                    );
                    (groups, t.rounds, split)
                })
                .collect::<Vec<_>>()
        };
        let in_order = commit(false);
        assert_eq!(commit(true), in_order);
        let groups: Vec<HitGroupId> = in_order.iter().map(|t| t.0[0]).collect();
        assert_eq!(groups, [HitGroupId(0), HitGroupId(1), HitGroupId(2)]);
        assert!(in_order.iter().all(|t| t.1 == 1), "one round each");
        let splits: Vec<(u64, u64)> = in_order.iter().map(|t| t.2).collect();
        assert_eq!(splits, [(2, 0), (1, 1), (0, 2)], "first to commit pays");
    }

    /// Query meters are batch-scoped: a query's meter is the one list
    /// of groups committed for it, shared by its task and its tenant
    /// backend, and the market keeps nothing per query. After each of
    /// 50 batches of one to three queries, the service holds the only
    /// handle on the market: every tenant backend, and its group list,
    /// is gone.
    #[test]
    fn query_meters_do_not_outlive_their_batch() {
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[("id", ValueType::Int)]));
        rel.push(vec![Value::Int(0)]).unwrap();
        catalog.register_table("nums", rel);
        let market = Marketplace::new(&CrowdConfig::default().with_seed(1), GroundTruth::new());
        let mut svc = QueryService::new(Arc::new(catalog), market);
        svc.register_tenant("t", None);
        let mut served = 0;
        for batch in 0..50 {
            let size = batch % 3 + 1;
            for _ in 0..size {
                svc.submit("t", "SELECT n.id FROM nums AS n").unwrap();
            }
            let reports = svc.run_pending();
            assert!(reports.iter().all(Result::is_ok));
            assert_eq!(reports.len(), size);
            served += reports.len();
            assert_eq!(Arc::strong_count(&svc.market), 1, "batch {batch}");
        }
        assert_eq!(served, 99);
    }

    /// Under the service, each completed live group is fetched from the
    /// inner backend exactly once, however many barriers follow its
    /// completion: a batch of two queries over serial crowd filters
    /// (two rounds, then one that shares the first round's specs in
    /// flight). Counts only, no timing.
    #[test]
    fn each_live_group_is_fetched_once_per_batch() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(6);
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &item) in items.iter().enumerate() {
            for p in ["isTall", "isOld"] {
                let truth = PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: 0.0,
                };
                gt.set_predicate(item, p, truth);
            }
            rel.push(vec![Value::Int(i as i64), Value::Item(item)])
                .unwrap();
        }
        catalog.register_table("people", rel);
        catalog
            .define_tasks(
                r#"TASK isTall(field) TYPE Filter:
                    Prompt: "<img src='%s'> Tall?", tuple[field]
                   TASK isOld(field) TYPE Filter:
                    Prompt: "<img src='%s'> Old?", tuple[field]
                "#,
            )
            .unwrap();
        let market =
            CountingBackend::new(Marketplace::new(&CrowdConfig::default().with_seed(1), gt));
        let mut svc = QueryService::new(Arc::new(catalog), market);
        svc.register_tenant("t", None);
        for sql in [
            "SELECT p.id FROM people AS p WHERE isTall(p.img) AND isOld(p.img)",
            "SELECT p.id FROM people AS p WHERE isTall(p.img)",
        ] {
            svc.submit("t", sql).unwrap();
        }
        let reports = svc.run_pending();
        let rounds: Vec<u64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().service.as_ref().unwrap().rounds)
            .collect();
        assert_eq!(rounds, [2, 1]);
        assert!(svc.market().shared_hits() > 0, "query 2 shares round 1");
        let counting = svc.into_backend();
        assert_eq!(counting.posted.len(), 2, "one live group per round");
        let mut fetched = counting.fetched;
        fetched.sort_unstable();
        assert_eq!(fetched, counting.posted, "each fetched exactly once");
    }

    /// Workers outlive their batch: 50 batches of one to three queries
    /// spawn exactly three workers, one per slot of the largest batch.
    /// A thread per query would have started 99.
    #[test]
    fn workers_outlive_batches() {
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[("id", ValueType::Int)]));
        rel.push(vec![Value::Int(0)]).unwrap();
        catalog.register_table("nums", rel);
        let market = Marketplace::new(&CrowdConfig::default().with_seed(1), GroundTruth::new());
        let mut svc = QueryService::new(Arc::new(catalog), market);
        svc.register_tenant("t", None);
        let mut served = 0;
        for batch in 0..50 {
            for _ in 0..batch % 3 + 1 {
                svc.submit("t", "SELECT n.id FROM nums AS n").unwrap();
            }
            let reports = svc.run_pending();
            assert!(reports.iter().all(Result::is_ok));
            served += reports.len();
        }
        assert_eq!(served, 99);
        assert_eq!(svc.workers.spawned, 3);
    }

    /// A failed query leaves its worker serving: after a batch whose
    /// query fails with `InvalidDeadline`, the next batch runs on the
    /// same worker, and no tenant backend outlives either batch.
    #[test]
    fn a_failed_query_keeps_its_worker() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(3);
        let truth = PredicateTruth {
            value: true,
            error_rate: 0.0,
        };
        for &item in &items {
            gt.set_predicate(item, "isTall", truth);
        }
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &item) in items.iter().enumerate() {
            rel.push(vec![Value::Int(i as i64), Value::Item(item)])
                .unwrap();
        }
        catalog.register_table("people", rel);
        catalog
            .define_tasks(
                r#"TASK isTall(field) TYPE Filter:
                    Prompt: "<img src='%s'> Tall?", tuple[field]
                "#,
            )
            .unwrap();
        let mut config = ExecConfig::default();
        config.filter.limit_secs = f64::INFINITY;
        let market = Marketplace::new(&CrowdConfig::default().with_seed(1), gt);
        let mut svc = QueryService::with_config(Arc::new(catalog), market, config);
        svc.register_tenant("t", None);

        svc.submit("t", "SELECT p.id FROM people AS p WHERE isTall(p.img)")
            .unwrap();
        let failed = svc.run_pending().pop().unwrap();
        assert!(
            matches!(failed, Err(QurkError::InvalidDeadline { .. })),
            "{failed:?}"
        );
        svc.submit("t", "SELECT p.id FROM people AS p").unwrap();
        let ok = svc.run_pending().pop().unwrap();
        assert_eq!(ok.expect("the good batch runs").relation.len(), 3);
        assert_eq!(svc.workers.spawned, 1, "the good batch reused the worker");
        let market = svc.into_backend();
        assert_eq!(market.hits_posted(), 0);
    }

    /// A worker that died (its job channel closed) is replaced by the
    /// next dispatch to its slot, and the job still runs.
    #[test]
    fn a_dead_worker_is_replaced() {
        let mut workers = Workers::default();
        workers.dispatch(0, Box::new(|| panic!("worker dies")));
        while !workers.handles[0].is_finished() {
            std::thread::yield_now();
        }
        let (tx, rx) = channel();
        workers.dispatch(0, Box::new(move || tx.send(7).unwrap()));
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(workers.spawned, 2);
        assert_eq!(workers.jobs.len(), 1);
    }

    /// The query's worker executes the plan admission prepared, never
    /// a recompile of it: a submission whose compiled plan is altered
    /// after admission runs the altered plan.
    #[test]
    fn execution_runs_the_admitted_plan() {
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[("id", ValueType::Int)]));
        for i in 0..4 {
            rel.push(vec![Value::Int(i)]).unwrap();
        }
        catalog.register_table("nums", rel);
        let market = Marketplace::new(&CrowdConfig::default().with_seed(1), GroundTruth::new());
        let mut svc = QueryService::new(Arc::new(catalog), market);
        svc.register_tenant("t", None);
        svc.submit("t", "SELECT n.id FROM nums AS n").unwrap();
        let compiled = &mut svc.pending[0].prepared.compiled;
        compiled.root = PhysicalPlan {
            node: PhysNode::Limit {
                input: Box::new(compiled.root.clone()),
                n: 2,
            },
            rows_out: 2.0,
            cost: CostEstimate::ZERO,
        };
        let report = svc
            .run_pending()
            .pop()
            .unwrap()
            .expect("the admitted plan executes");
        assert_eq!(report.relation.len(), 2);
        assert!(
            report.plan.physical.starts_with("Limit 2"),
            "{}",
            report.plan.physical
        );
        assert_eq!(report.hits_posted, 0);
    }
}

//! The deterministic scheduler with a parallel machine phase.
//!
//! No async runtime is available (dependencies are vendored), so
//! concurrency is plain threads. Every query runs on its own OS
//! thread; only the **marketplace** is serialized on the one shared
//! clock. Between yield points all runnable query threads execute
//! **concurrently** — planning, EM combining, machine filters and
//! sorts from N tenants genuinely overlap on a multi-core host — and
//! determinism is preserved by a barrier:
//!
//! 1. **Parallel machine phase** — resume *every* runnable query at
//!    once. Each resumed thread runs machine-side until its next yield
//!    and sends exactly one event: [`SchedulerEvent::NeedCrowd`] (its
//!    next crowd round, with the posts it staged locally — see
//!    [`TenantBackend`]) or [`SchedulerEvent::Done`]. The scheduler
//!    collects exactly one event per resumed thread (the barrier),
//!    then processes them in **policy order** (tenant priority, then
//!    submission order): staged posts are committed to the shared
//!    market, rounds journaled, and completed work folded into the
//!    shared cache — all on the scheduler thread, so the marketplace,
//!    the meters and the durable journal never observe thread-timing
//!    nondeterminism. A query whose round is already complete (fully
//!    cached) becomes runnable again immediately.
//! 2. **Marketplace phase** — every running query is parked on a
//!    posted round. Run the one shared backend in stages toward the
//!    waiting queries' deadlines (nearest first) and stop as soon as
//!    any query's round resolves: complete (its outstanding work hit
//!    zero) or timed out (the shared clock passed its deadline).
//!    Queries resolved while ≥ 2 were parked count the round as
//!    *shared* — one marketplace step served several tenants.
//!
//! Because the clock only advances in the marketplace phase and all
//! shared-state writes happen on the scheduler thread in policy order,
//! a batch of N concurrent queries is still byte-identical to running
//! them sequentially on a replayed crowd (tested in
//! `tests/service_multi_tenant.rs` and `tests/service_parallel.rs`).
//!
//! **Fairness** is a [`SchedulePolicy`]: per-tenant priorities order
//! both thread admission and barrier commits; [`PollOrder::RoundRobin`]
//! interleaves tenants when admitting queued queries; `max_active` /
//! `max_per_tenant` cap how many query threads run at once (queries
//! over the cap stay queued and are admitted as slots free up —
//! [`ServiceStats::admitted_round`] records the wait).
//!
//! Statistics follow **snapshot isolation** (see
//! [`SharedStatistics`]): each query learns into a private copy seeded
//! from the batch-start snapshot, and deltas are committed in
//! submission order after the batch — concurrent queries never see
//! each other's half-finished evidence, and what a batch learns only
//! steers the *next* batch's plans.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use qurk_crowd::market::{HitGroupId, RunOutcome};

use crate::analyze::{prepare, Prepared};
use crate::backend::{CachingBackend, CrowdBackend};
use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::lang::parser::parse_query;
use crate::opt::stats::{SharedStatistics, StatisticsStore};
use crate::service::report::ServiceStats;
use crate::service::tenant::{SharedMarket, StagedPost, TenantBackend};
use crate::session::{ExecConfig, QueryReport, Session};
use crate::store::DurableStore;

/// Wake-up message from scheduler to a parked query thread.
#[derive(Debug)]
pub enum Resume {
    /// Begin executing (sent exactly once, before the session runs).
    Start,
    /// The marketplace step for the query's posted round finished with
    /// this outcome. `groups` are the shared-market ids the barrier
    /// assigned to the posts the query staged before yielding, in
    /// staging order (empty when the round was refused — see
    /// [`QurkError::InvalidDeadline`]).
    Round {
        outcome: RunOutcome,
        groups: Vec<HitGroupId>,
    },
}

/// What a query thread sends the scheduler. Exactly one event is sent
/// per resume — that's what makes the barrier sound.
#[derive(Debug)]
pub enum SchedulerEvent {
    /// The query staged `posts` and yields until the shared
    /// marketplace has run for up to `limit_secs` of virtual time.
    NeedCrowd {
        query: usize,
        limit_secs: f64,
        posts: Vec<StagedPost>,
    },
    /// The query finished (successfully or not).
    Done { query: usize, msg: Box<DoneMsg> },
}

/// A finished query's payload.
#[derive(Debug)]
pub struct DoneMsg {
    pub result: Result<QueryReport>,
    /// What the query learned beyond the batch-start snapshot.
    pub stats_delta: StatisticsStore,
}

/// How the scheduler orders queued queries when admitting them to the
/// machine phase (within one priority level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollOrder {
    /// First submitted, first admitted (the historical behavior).
    #[default]
    Submission,
    /// Interleave tenants: the tenant with the fewest queries admitted
    /// this batch goes first, so one tenant flooding `submit()` cannot
    /// starve another tenant's single query behind its queue.
    RoundRobin,
}

/// Fairness knobs for [`QueryService::run_pending`]. The default is
/// fully permissive: submission order, no caps — every admitted query
/// starts immediately and the parallel machine phase runs them all.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulePolicy {
    /// Admission order among queued queries of equal priority.
    pub order: PollOrder,
    /// Cap on concurrently executing queries across all tenants
    /// (`None` = unlimited; `Some(0)` is treated as 1).
    pub max_active: Option<usize>,
    /// Cap on concurrently executing queries per tenant
    /// (`None` = unlimited; `Some(0)` is treated as 1).
    pub max_per_tenant: Option<usize>,
}

/// One registered tenant.
#[derive(Debug, Clone)]
struct TenantState {
    name: String,
    /// Cumulative dollar cap across all the tenant's queries.
    budget: Option<f64>,
    /// Dollars attributed so far.
    spent: f64,
    /// Scheduling priority (higher first; default 0). A process-local
    /// knob — not journaled to the durable store.
    priority: i32,
}

/// One admitted, not-yet-executed query.
struct Submission {
    tenant: usize,
    sql: String,
    /// The plan the admission gate analyzed — the query thread executes
    /// exactly this, never a re-parse of `sql`, and recompiles it (from
    /// its AST) only if the statistics moved since admission.
    prepared: Prepared,
    /// The [`SharedStatistics`] epoch `prepared` was compiled at.
    stats_epoch: u64,
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
/// let mut svc = QueryService::new(&catalog, backend);
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
/// the statistics store. Machine-side work overlaps on real OS
/// threads; only marketplace steps are serialized (module docs).
pub struct QueryService<'c, B: CrowdBackend> {
    catalog: &'c Catalog,
    shared: Arc<SharedMarket<B>>,
    stats: SharedStatistics,
    config: ExecConfig,
    policy: SchedulePolicy,
    tenants: Vec<TenantState>,
    pending: Vec<Submission>,
    /// Durable state (task cache, statistics, checkpoints, tenants) —
    /// attached via [`Self::with_store`], absent otherwise.
    store: Option<Arc<DurableStore>>,
}

impl<'c, B: CrowdBackend> QueryService<'c, B> {
    /// A service with default execution configuration.
    pub fn new(catalog: &'c Catalog, backend: B) -> Self {
        Self::with_config(catalog, backend, ExecConfig::default())
    }

    /// A service whose sessions run under `config` (lint policy,
    /// operator defaults, optimizer mode).
    pub fn with_config(catalog: &'c Catalog, backend: B, config: ExecConfig) -> Self {
        QueryService {
            catalog,
            shared: Arc::new(SharedMarket::new(backend)),
            stats: SharedStatistics::default(),
            config,
            policy: SchedulePolicy::default(),
            tenants: Vec::new(),
            pending: Vec::new(),
            store: None,
        }
    }

    /// A durable service: open-on-start recovery of the task cache,
    /// learned statistics and tenant registrations from `store`, with
    /// every paid round, admission and completion journaled back.
    /// In-flight queries from a previous process are *not* re-queued
    /// automatically — call [`Self::recover`] to resume them.
    pub fn with_store(
        catalog: &'c Catalog,
        backend: B,
        config: ExecConfig,
        store: Arc<DurableStore>,
    ) -> Self {
        let caching = CachingBackend::with_journal(backend, Arc::clone(&store));
        let tenants = store
            .tenants_snapshot()
            .into_iter()
            .map(|t| TenantState {
                name: t.name,
                budget: t.budget,
                spent: t.spent,
                priority: 0,
            })
            .collect();
        QueryService {
            catalog,
            shared: Arc::new(SharedMarket::with_caching(caching)),
            stats: SharedStatistics::new(store.stats_snapshot()),
            config,
            policy: SchedulePolicy::default(),
            tenants,
            pending: Vec::new(),
            store: Some(store),
        }
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// The fairness policy for subsequent [`Self::run_pending`] calls.
    pub fn set_policy(&mut self, policy: SchedulePolicy) {
        self.policy = policy;
    }

    /// The current fairness policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Set a tenant's scheduling priority (higher runs first; default
    /// 0). Priorities order both admission of queued queries and
    /// barrier commits within a batch.
    pub fn set_tenant_priority(&mut self, name: &str, priority: i32) -> Result<()> {
        let t = self.tenant_index(name)?;
        self.tenants[t].priority = priority;
        Ok(())
    }

    /// Bound the shared task cache to `max` recorded specs, evicting
    /// least-recently-used entries at batch boundaries. Journal-aware:
    /// eviction is memory-only, so durable recovery still replays
    /// every paid round; an evicted spec that is posted again is paid
    /// for again. `None` removes the bound.
    pub fn set_cache_max_entries(&mut self, max: Option<usize>) {
        self.shared.set_cache_max_entries(max);
    }

    /// Re-queue every live checkpoint (a query admitted but not
    /// finished when the previous process died) for the next
    /// [`Self::run_pending`], keeping its original checkpoint id and
    /// budget. Each checkpoint is **re-admitted through the same gate
    /// as [`Self::submit`]** against the recovered statistics: under
    /// [`LintPolicy::Deny`](crate::analyze::LintPolicy::Deny) a
    /// checkpoint that would be rejected today is retired (its
    /// checkpoint is marked done) instead of executed —
    /// a crash must not smuggle a query past the admission analyzer.
    /// The resumed queries replay their already-paid rounds from the
    /// recovered cache instead of re-posting them, and their reports
    /// are flagged [`ServiceStats::resumed`]. Returns how many queries
    /// were re-queued. No-op without a store.
    pub fn recover(&mut self) -> usize {
        let Some(store) = self.store.clone() else {
            return 0;
        };
        let mut resumed = 0;
        for cp in store.live_checkpoints() {
            let Ok(tenant) = self.tenant_index(&cp.tenant) else {
                // The checkpoint's tenant is gone from the log
                // (registrations are journaled, so this means a
                // truncated tail). Retire it rather than resurrect
                // an unattributable query on every restart.
                store.append_query_done(cp.id);
                continue;
            };
            match self.admit(tenant, cp.sql, cp.budget) {
                Ok(job) => {
                    self.pending.push(Submission {
                        persist_id: Some(cp.id),
                        resumed: true,
                        ..job
                    });
                    resumed += 1;
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
        if let Some(t) = self.tenants.iter_mut().find(|t| t.name == name) {
            t.budget = budget;
        } else {
            self.tenants.push(TenantState {
                name: name.to_owned(),
                budget,
                spent: 0.0,
                priority: 0,
            });
        }
        if let Some(store) = &self.store {
            let t = self
                .tenants
                .iter()
                .find(|t| t.name == name)
                .expect("tenant was just inserted above");
            store.append_tenant(&t.name, t.budget, t.spent);
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
    /// [`Self::recover`]: parse and prepare against the current shared
    /// statistics, then run the lint-policy gate priced at the budget
    /// the query would run under now. Returns the submission, carrying
    /// the exact plan that will execute.
    fn admit(&self, tenant: usize, sql: String, budget: Option<f64>) -> Result<Submission> {
        let (snapshot, stats_epoch) = self.stats.snapshot_with_epoch();
        let prepared = prepare(parse_query(&sql)?, self.catalog, &self.config, &snapshot)?;
        let effective = self.effective_budget(tenant, budget);
        prepared.gate(&sql, &self.config, &snapshot, effective)?;
        Ok(Submission {
            tenant,
            sql,
            prepared,
            stats_epoch,
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
        let mut job = self.admit(tenant, sql.to_owned(), budget)?;
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

    /// The shared market (totals, cache stats) — for reporting.
    pub fn market(&self) -> &SharedMarket<B> {
        &self.shared
    }

    /// The shared statistics store.
    pub fn statistics(&self) -> &SharedStatistics {
        &self.stats
    }

    /// Tear down the service, returning the inner backend (e.g. to
    /// export a [`RecordingBackend`](crate::backend::RecordingBackend)
    /// trace after a serving run).
    ///
    /// # Panics
    /// Panics if called while queries are still running (they hold the
    /// shared market). Between [`Self::run_pending`] calls every
    /// tenant backend has been dropped, so this always succeeds.
    pub fn into_backend(self) -> B {
        Arc::try_unwrap(self.shared)
            .ok()
            .expect("tenant backends still hold the shared market")
            .into_backend()
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
    /// Machine-side work runs in parallel on real OS threads; shared
    /// state is only written at barriers and marketplace steps, in
    /// policy order, so results are deterministic (module docs).
    /// Budgets are fixed at batch start, so two same-tenant queries in
    /// one batch can jointly overshoot a tenant budget by at most one
    /// round each — the budget is re-checked before every subsequent
    /// batch.
    pub fn run_pending(&mut self) -> Vec<Result<QueryReport>> {
        let jobs = std::mem::take(&mut self.pending);
        if jobs.is_empty() {
            return Vec::new();
        }
        // Batch boundary for the shared cache's eviction bound.
        self.shared.begin_batch();
        let (snapshot, epoch) = self.stats.snapshot_with_epoch();
        let budgets: Vec<Option<f64>> = jobs
            .iter()
            .map(|j| self.effective_budget(j.tenant, j.budget))
            .collect();
        let policy = self.policy;

        enum TaskState {
            /// Admitted; thread not yet started (fairness caps).
            Queued,
            /// Thread parked, waiting for this resume.
            Runnable(Resume),
            /// Resumed; its barrier event has not been collected yet.
            Running,
            /// Parked on a posted round with a marketplace deadline.
            Waiting {
                deadline: f64,
            },
            Finished,
        }
        struct TaskCtl {
            resume_tx: Option<Sender<Resume>>,
            state: TaskState,
            /// Market-side meter id; assigned when the thread starts.
            market_query: Option<usize>,
            rounds: u64,
            rounds_shared: u64,
            queue_wait_secs: f64,
            /// Shared-market ids committed for the query's staged
            /// posts, delivered with its next resume.
            pending_groups: Vec<HitGroupId>,
            /// Barrier index at which the thread was admitted.
            admitted_round: u64,
            /// Set when a round carried an invalid deadline: the round
            /// was refused and this error replaces the query's result.
            poisoned: Option<QurkError>,
            done: Option<Box<DoneMsg>>,
        }

        let (event_tx, event_rx) = channel::<SchedulerEvent>();

        // `tasks` (and its resume senders) must live *inside* the
        // scope: if the scheduler panics, dropping the senders is what
        // unparks the query threads so the scope's implicit join can
        // finish instead of deadlocking.
        let mut tasks = std::thread::scope(|scope| {
            let mut tasks: Vec<TaskCtl> = jobs
                .iter()
                .map(|_| TaskCtl {
                    resume_tx: None,
                    state: TaskState::Queued,
                    market_query: None,
                    rounds: 0,
                    rounds_shared: 0,
                    queue_wait_secs: 0.0,
                    pending_groups: Vec::new(),
                    admitted_round: 0,
                    poisoned: None,
                    done: None,
                })
                .collect();
            let mut active_per_tenant = vec![0usize; self.tenants.len()];
            let mut admitted_per_tenant = vec![0usize; self.tenants.len()];
            let mut total_active = 0usize;
            let mut barrier_no: u64 = 0;
            let mut finished = 0usize;

            while finished < tasks.len() {
                // ---- admission: start queued threads as the fairness
                // caps allow, highest priority first; within a
                // priority, round-robin interleaves tenants by how
                // many queries each has had admitted this batch.
                loop {
                    if let Some(cap) = policy.max_active {
                        if total_active >= cap.max(1) {
                            break;
                        }
                    }
                    let per_tenant_cap = policy.max_per_tenant.map(|c| c.max(1));
                    let next = jobs
                        .iter()
                        .enumerate()
                        .filter(|&(i, job)| {
                            matches!(tasks[i].state, TaskState::Queued)
                                && per_tenant_cap
                                    .is_none_or(|cap| active_per_tenant[job.tenant] < cap)
                        })
                        .min_by_key(|&(i, job)| {
                            let rr = match policy.order {
                                PollOrder::Submission => 0,
                                PollOrder::RoundRobin => admitted_per_tenant[job.tenant],
                            };
                            (Reverse(self.tenants[job.tenant].priority), rr, i)
                        })
                        .map(|(i, _)| i);
                    let Some(i) = next else { break };
                    let job = &jobs[i];
                    let market_query = self.shared.register_query();
                    let (resume_tx, resume_rx) = channel::<Resume>();
                    let shared = Arc::clone(&self.shared);
                    let catalog = self.catalog;
                    let config = self.config.clone();
                    let seed_stats = snapshot.clone();
                    let budget = budgets[i];
                    let (sql, admitted) = (&job.sql, &job.prepared);
                    let stale = job.stats_epoch != epoch;
                    let tx = event_tx.clone();
                    scope.spawn(move || {
                        // Rendezvous: do nothing until the scheduler
                        // says so.
                        if resume_rx.recv().is_err() {
                            return; // scheduler vanished before start
                        }
                        let backend =
                            TenantBackend::new(shared, market_query, i, tx.clone(), resume_rx);
                        let msg = catch_unwind(AssertUnwindSafe(|| {
                            // Execute the plan admission analyzed; only
                            // if the statistics moved since then is it
                            // recompiled, from the admitted AST.
                            let refreshed = stale
                                .then(|| {
                                    prepare(admitted.ast.clone(), catalog, &config, &seed_stats)
                                })
                                .transpose();
                            let mut session = Session::builder()
                                .catalog(catalog)
                                .backend(backend)
                                .config(config.clone())
                                .statistics(seed_stats.clone())
                                .build();
                            let result = refreshed.and_then(|refreshed| {
                                let prepared = refreshed.as_ref().unwrap_or(admitted);
                                session.execute_prepared(sql, prepared, &config, budget)
                            });
                            let stats_delta = session.statistics().diff(&seed_stats);
                            DoneMsg {
                                result,
                                stats_delta,
                            }
                        }))
                        .unwrap_or_else(|_| DoneMsg {
                            result: Err(QurkError::Other("query thread panicked".to_owned())),
                            stats_delta: StatisticsStore::new(),
                        });
                        let _ = tx.send(SchedulerEvent::Done {
                            query: i,
                            msg: Box::new(msg),
                        });
                    });
                    tasks[i].resume_tx = Some(resume_tx);
                    tasks[i].market_query = Some(market_query);
                    tasks[i].admitted_round = barrier_no;
                    tasks[i].state = TaskState::Runnable(Resume::Start);
                    active_per_tenant[job.tenant] += 1;
                    admitted_per_tenant[job.tenant] += 1;
                    total_active += 1;
                }

                // ---- parallel machine phase: resume every runnable
                // thread at once and collect one event from each.
                let mut resumed = 0usize;
                for task in tasks.iter_mut() {
                    if !matches!(task.state, TaskState::Runnable(_)) {
                        continue;
                    }
                    let resume = match std::mem::replace(&mut task.state, TaskState::Running) {
                        TaskState::Runnable(r) => r,
                        _ => unreachable!("guarded by the matches! above"),
                    };
                    // A failed send means the thread already finished;
                    // its Done event is queued and collected below.
                    let _ = task
                        .resume_tx
                        .as_ref()
                        .expect("runnable tasks have started threads")
                        .send(resume);
                    resumed += 1;
                }
                if resumed > 0 {
                    let mut events = Vec::with_capacity(resumed);
                    let mut dead = false;
                    for _ in 0..resumed {
                        match event_rx.recv() {
                            Ok(ev) => events.push(ev),
                            Err(_) => {
                                // All threads gone without their
                                // events: every remaining task is dead.
                                dead = true;
                                break;
                            }
                        }
                    }
                    barrier_no += 1;
                    // The barrier: process events in policy order —
                    // priority first, then submission order — so every
                    // shared-state write below is deterministic no
                    // matter how the threads interleaved.
                    events.sort_by_key(|ev| {
                        let q = match ev {
                            SchedulerEvent::NeedCrowd { query, .. } => *query,
                            SchedulerEvent::Done { query, .. } => *query,
                        };
                        (Reverse(self.tenants[jobs[q].tenant].priority), q)
                    });
                    // Pass 1: commit staged posts to the shared market
                    // and journal round heartbeats. All posts land
                    // before any completion check, so same-barrier
                    // spec sharing is order-stable.
                    for ev in &mut events {
                        let SchedulerEvent::NeedCrowd {
                            query,
                            limit_secs,
                            posts,
                        } = ev
                        else {
                            continue;
                        };
                        let q = *query;
                        if tasks[q].poisoned.is_some() {
                            continue;
                        }
                        if !(limit_secs.is_finite() && *limit_secs >= 0.0) {
                            // Refuse the round: an infinite deadline
                            // would run the simulation forever, a NaN
                            // made resume order nondeterministic. The
                            // posts are never committed and the query
                            // fails with a typed error.
                            tasks[q].poisoned = Some(QurkError::InvalidDeadline {
                                limit_secs: *limit_secs,
                            });
                            continue;
                        }
                        let mq = tasks[q]
                            .market_query
                            .expect("running tasks have market ids");
                        for post in posts.drain(..) {
                            let g = self.shared.post(mq, post.specs, post.assignments);
                            tasks[q].pending_groups.push(g);
                        }
                        tasks[q].rounds += 1;
                        // Journal consumed rounds as they happen so a
                        // crash mid-query leaves an accurate
                        // checkpoint (its paid work is already in the
                        // cache records).
                        if let (Some(store), Some(id)) = (&self.store, jobs[q].persist_id) {
                            store.append_rounds(id, tasks[q].rounds);
                        }
                    }
                    // Pass 2: classify, in the same order.
                    for ev in events {
                        match ev {
                            SchedulerEvent::NeedCrowd {
                                query, limit_secs, ..
                            } => {
                                if tasks[query].poisoned.is_some() {
                                    tasks[query].state = TaskState::Runnable(Resume::Round {
                                        outcome: RunOutcome::TimedOut,
                                        groups: Vec::new(),
                                    });
                                    continue;
                                }
                                let mq = tasks[query]
                                    .market_query
                                    .expect("running tasks have market ids");
                                if self.shared.query_outstanding(mq) == 0 {
                                    // Fully cached/complete round:
                                    // runnable again without a
                                    // marketplace step. Fold on the
                                    // scheduler thread so the journal
                                    // never sees thread-timing order.
                                    self.shared.fold_completed(mq);
                                    tasks[query].state = TaskState::Runnable(Resume::Round {
                                        outcome: RunOutcome::Completed,
                                        groups: std::mem::take(&mut tasks[query].pending_groups),
                                    });
                                } else {
                                    tasks[query].state = TaskState::Waiting {
                                        deadline: self.shared.now().secs() + limit_secs,
                                    };
                                }
                            }
                            SchedulerEvent::Done { query, msg } => {
                                tasks[query].done = Some(msg);
                                tasks[query].state = TaskState::Finished;
                                finished += 1;
                                total_active -= 1;
                                active_per_tenant[jobs[query].tenant] -= 1;
                            }
                        }
                    }
                    if dead {
                        break;
                    }
                    continue;
                }

                // ---- marketplace phase: everyone is parked on a
                // round. Run the shared clock toward the nearest
                // deadlines, stopping at the first resolution.
                let mut waiting: Vec<(f64, usize)> = tasks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t.state {
                        TaskState::Waiting { deadline } => Some((deadline, i)),
                        _ => None,
                    })
                    .collect();
                if waiting.is_empty() {
                    break; // defensive: nothing runnable, nothing waiting
                }
                // total_cmp: deadlines are validated finite at the
                // barrier, but a total order keeps resume order
                // well-defined no matter what.
                waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let shared_round = waiting.len() >= 2;
                let mut stages: Vec<f64> = waiting.iter().map(|&(d, _)| d).collect();
                stages.dedup();
                for stage in stages {
                    let dt = stage - self.shared.now().secs();
                    if dt > 0.0 {
                        let _ = self.shared.run(dt);
                    }
                    let now = self.shared.now().secs();
                    let mut resolved_any = false;
                    for &(deadline, i) in &waiting {
                        if !matches!(tasks[i].state, TaskState::Waiting { .. }) {
                            continue;
                        }
                        let mq = tasks[i]
                            .market_query
                            .expect("waiting tasks have market ids");
                        let outstanding = self.shared.query_outstanding(mq);
                        let outcome = if outstanding == 0 {
                            Some(RunOutcome::Completed)
                        } else if now + DEADLINE_EPS >= deadline {
                            Some(RunOutcome::TimedOut)
                        } else {
                            None
                        };
                        let Some(outcome) = outcome else { continue };
                        // Fold whatever completed into the shared
                        // cache *here*, in resolution order — on a
                        // timeout the query may still read its
                        // finished groups, and those folds (journal
                        // appends included) must not race other
                        // threads in the next machine phase.
                        if outcome == RunOutcome::Completed {
                            let completion = self.shared.completion_time(mq);
                            tasks[i].queue_wait_secs += (now - completion).max(0.0);
                        } else {
                            self.shared.fold_completed(mq);
                        }
                        if shared_round {
                            tasks[i].rounds_shared += 1;
                        }
                        tasks[i].state = TaskState::Runnable(Resume::Round {
                            outcome,
                            groups: std::mem::take(&mut tasks[i].pending_groups),
                        });
                        resolved_any = true;
                    }
                    if resolved_any {
                        break;
                    }
                }
            }
            // Wake any still-parked thread (only on abnormal exits) so
            // the scope's implicit join cannot deadlock.
            for task in &mut tasks {
                task.resume_tx = None;
            }
            tasks
        });

        // ---- collect, in submission order: commit learning, attribute
        // spend, attach service stats.
        let mut out = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let task = &mut tasks[i];
            let msg = task.done.take();
            let spend = task
                .market_query
                .map_or(0.0, |mq| self.shared.query_spend(mq));
            self.tenants[job.tenant].spent += spend;
            let result = match msg {
                Some(msg) => {
                    self.stats.commit(&msg.stats_delta);
                    if let Some(store) = &self.store {
                        store.append_stats_delta(&msg.stats_delta);
                    }
                    // A refused round (invalid deadline) overrides the
                    // thread's own error with the typed cause.
                    let base = match task.poisoned.take() {
                        Some(e) => Err(e),
                        None => msg.result,
                    };
                    base.map(|mut report| {
                        report.service = Some(ServiceStats {
                            tenant: self.tenants[job.tenant].name.clone(),
                            queue_wait_secs: task.queue_wait_secs,
                            rounds: task.rounds,
                            rounds_shared: task.rounds_shared,
                            shared_cache_hits: task
                                .market_query
                                .map_or(0, |mq| self.shared.query_cached_hits(mq)),
                            saved_dollars: task
                                .market_query
                                .map_or(0.0, |mq| self.shared.query_saved(mq)),
                            admitted_round: task.admitted_round,
                            resumed: job.resumed,
                        });
                        report
                    })
                }
                None => Err(QurkError::Other(
                    "query thread terminated without a result".to_owned(),
                )),
            };
            if result.is_err() {
                // A failed query abandons its in-flight rounds: drop
                // its dedup slots so later identical specs re-post
                // instead of piggybacking on work nobody is driving.
                if let Some(mq) = task.market_query {
                    self.shared.release_query(mq);
                }
            }
            if let (Some(store), Some(id)) = (&self.store, job.persist_id) {
                // The query resolved (either way) and its result was
                // delivered: retire the checkpoint so a restart does
                // not re-run it, and persist the tenant's new spend.
                store.append_query_done(id);
                let t = &self.tenants[job.tenant];
                store.append_tenant(&t.name, t.budget, t.spent);
            }
            out.push(result);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::physical::{PhysNode, PhysicalPlan};
    use crate::opt::CostEstimate;
    use crate::{Relation, Schema, Value, ValueType};
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    /// The query thread must execute the plan admission prepared, never
    /// a recompile of it: a submission whose compiled plan is altered
    /// after admission runs the altered plan — until the statistics
    /// epoch moves, which recompiles from the admitted AST.
    #[test]
    fn execution_runs_the_admitted_plan_until_statistics_move() {
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[("id", ValueType::Int)]));
        for i in 0..4 {
            rel.push(vec![Value::Int(i)]).unwrap();
        }
        catalog.register_table("nums", rel);
        let market = Marketplace::new(&CrowdConfig::default().with_seed(1), GroundTruth::new());
        let mut svc = QueryService::new(&catalog, market);
        svc.register_tenant("t", None);
        let limit_admitted_plan = |svc: &mut QueryService<'_, Marketplace>| {
            let compiled = &mut svc.pending[0].prepared.compiled;
            compiled.root = PhysicalPlan {
                node: PhysNode::Limit {
                    input: Box::new(compiled.root.clone()),
                    n: 2,
                },
                rows_out: 2.0,
                cost: CostEstimate::ZERO,
            };
        };

        svc.submit("t", "SELECT n.id FROM nums AS n").unwrap();
        limit_admitted_plan(&mut svc);
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

        svc.submit("t", "SELECT n.id FROM nums AS n").unwrap();
        limit_admitted_plan(&mut svc);
        // The recompile starts from the admitted AST, never the text:
        // re-parsing this would fail to plan with UnknownTable.
        svc.pending[0].sql = "SELECT x.id FROM nosuch AS x".to_owned();
        svc.statistics().record_epoch(0, 0.0);
        let report = svc
            .run_pending()
            .pop()
            .unwrap()
            .expect("the recompiled plan executes");
        assert_eq!(report.relation.len(), 4, "moved statistics recompile");
    }
}

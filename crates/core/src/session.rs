//! The `Session` / `QueryBuilder` execution API.
//!
//! A [`Session`] binds a [`Catalog`] to any [`CrowdBackend`] and runs
//! queries against it. Internally every session stacks two backend
//! decorators over the one you supply, plus a cross-query
//! [`StatisticsStore`] feeding the cost-based optimizer:
//!
//! ```text
//!   Session ── StatisticsStore (selectivities, κ/σ, latency)
//!     └─ MeteringBackend      per-query HIT/assignment/$ epochs
//!          └─ CachingBackend  Figure 1's Task Cache, at the HIT level
//!               └─ B          your backend (Marketplace, Replay, …)
//! ```
//!
//! Each query is prepared once (`analyze::prepare`): planned
//! logically ([`crate::plan`]), lowered to a physical plan by the
//! optimizer ([`crate::opt::physical`]) — cost based by default,
//! degrading to the as-written plan while no statistics exist — and
//! priced for the pre-flight analyzer. Then it is executed. Queries
//! are configured fluently and per query; overrides never touch the
//! session's defaults, and explicitly-set operators are *pinned* (the
//! optimizer will not override them):
//!
//! ```no_run
//! # use qurk::prelude::*;
//! # use qurk::session::SortMode;
//! # use qurk::ops::sort::{HybridSort, RateSort};
//! # fn demo(catalog: &Catalog, market: qurk_crowd::Marketplace) -> Result<(), QurkError> {
//! let mut session = Session::builder().catalog(catalog).backend(market).build();
//! let report = session
//!     .query("SELECT p.name FROM people p WHERE isCool(p.img) ORDER BY byHeight(p.img)")
//!     .sort(SortMode::Hybrid(HybridSort::default(), 12))
//!     .combine_filters(true)
//!     .budget_dollars(5.0)
//!     .report()?;
//! println!("{} rows for ${:.2}", report.relation.len(), report.cost_dollars);
//! println!("{}", report.explain_full()); // plan + estimated vs actual
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use qurk_crowd::ItemId;

use crate::analyze::{prepare, render_diagnostics, Diagnostic, LintConfig, LintPolicy, Prepared};
use crate::backend::{BackendUsage, CachingBackend, CrowdBackend, MeteringBackend};
use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::lang::ast::{
    CmpOp, Expr, Literal, OrderExpr, PossiblyClause, Predicate, SelectItem, UdfCall,
};
use crate::lang::parser::parse_query;
use crate::ops::filter::FilterOp;
use crate::ops::generative::GenerativeOp;
use crate::ops::join::feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureSpec};
use crate::ops::join::JoinOp;
use crate::ops::sort::{CompareSort, HybridSort, PairTally, RateSort, SortOutcome};
use crate::opt::explain::PlanReport;
use crate::opt::physical::{OptimizeMode, PhysNode, PhysicalPlan, PinSet};
use crate::opt::stats::StatisticsStore;
use crate::relation::{Relation, Row};
use crate::schema::ValueType;
use crate::service::report::ServiceStats;
use crate::store::{DurableStore, StoreHealth};
use crate::task::TaskType;
use crate::value::Value;

/// Which sort implementation ORDER BY uses (§4.1).
#[derive(Debug, Clone)]
pub enum SortMode {
    Compare(CompareSort),
    Rate(RateSort),
    /// Hybrid with a fixed comparison budget (§4.1.3: "the user can
    /// control the resulting accuracy and cost by specifying the
    /// number of iterations").
    Hybrid(HybridSort, usize),
}

impl Default for SortMode {
    fn default() -> Self {
        SortMode::Compare(CompareSort::default())
    }
}

/// Default operator configuration, shared by every query of a session
/// unless overridden per query via [`QueryBuilder`].
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    pub filter: FilterOp,
    pub join: JoinOp,
    pub feature_filter: FeatureFilterConfig,
    pub sort: SortMode,
    /// §2.6 *combining*: evaluate conjunctive WHERE filters in one HIT
    /// per tuple instead of serially. Footnote 2: this does more
    /// "work" (tuples the first filter would discard still reach the
    /// second) but cuts the total HIT count whenever the first filter
    /// passes anything.
    pub combine_conjunct_filters: bool,
    /// How the optimizer lowers logical plans. The cost-based default
    /// reproduces the as-written plan exactly until the session has
    /// learned statistics.
    pub optimize: OptimizeMode,
    /// Which operator choices were set explicitly (fluent setters set
    /// these); the optimizer never overrides a pinned choice.
    pub pins: PinSet,
    /// Pre-flight analyzer policy and thresholds.
    pub lint: LintConfig,
}

/// Per-query execution report, with resource numbers produced by the
/// session's [`MeteringBackend`] and the optimizer's plan report.
#[derive(Debug, Clone)]
pub struct QueryReport {
    pub relation: Relation,
    /// HITs posted to the real crowd while executing this query (cache
    /// hits cost none).
    pub hits_posted: usize,
    /// Dollars spent on this query.
    pub cost_dollars: f64,
    /// Assignments paid for by this query.
    pub assignments: u64,
    /// Virtual time this query took (seconds).
    pub elapsed_secs: f64,
    /// EXPLAIN text of the logical plan.
    pub explain: String,
    /// The optimizer's chosen physical plan, decision log, and cost
    /// estimate.
    pub plan: PlanReport,
    /// Pre-flight analyzer findings (empty under
    /// [`LintPolicy::Allow`] or for clean queries).
    pub diagnostics: Vec<Diagnostic>,
    /// Multi-tenant service accounting (queue wait, shared rounds,
    /// dedup savings). `None` for queries run outside
    /// [`crate::service`].
    pub service: Option<ServiceStats>,
}

impl QueryReport {
    /// This query's measured resource usage in [`BackendUsage`] form.
    pub fn actual_usage(&self) -> BackendUsage {
        BackendUsage {
            hits_posted: self.hits_posted,
            assignments: self.assignments,
            dollars: self.cost_dollars,
            elapsed_secs: self.elapsed_secs,
        }
    }

    /// Full EXPLAIN block: logical plan, chosen physical plan,
    /// optimizer decisions, and estimated vs actual HITs/$/latency.
    pub fn explain_full(&self) -> String {
        let mut out = self
            .plan
            .render_with_logical(&self.explain, Some(&self.actual_usage()));
        out.push_str(&render_diagnostics(&self.diagnostics));
        if let Some(svc) = &self.service {
            out.push_str(&svc.render());
        }
        out
    }
}

/// A catalog bound to a backend: the entry point for running queries.
///
/// Construct with [`Session::builder`] (or [`Session::new`] for the
/// defaults). The backend is owned; pass `&mut market` if you need the
/// marketplace back afterwards — `&mut B` implements [`CrowdBackend`].
pub struct Session<'c, B: CrowdBackend> {
    catalog: &'c Catalog,
    backend: MeteringBackend<CachingBackend<B>>,
    config: ExecConfig,
    stats: StatisticsStore,
    store: Option<Arc<DurableStore>>,
}

/// Builder for [`Session`]: `Session::builder().catalog(..).backend(..).build()`.
pub struct SessionBuilder<'c, B: CrowdBackend> {
    catalog: Option<&'c Catalog>,
    backend: Option<B>,
    config: ExecConfig,
    stats: StatisticsStore,
    store: Option<Arc<DurableStore>>,
}

impl<'c, B: CrowdBackend> Default for SessionBuilder<'c, B> {
    fn default() -> Self {
        SessionBuilder {
            catalog: None,
            backend: None,
            config: ExecConfig::default(),
            stats: StatisticsStore::new(),
            store: None,
        }
    }
}

impl<'c, B: CrowdBackend> SessionBuilder<'c, B> {
    pub fn catalog(mut self, catalog: &'c Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    pub fn backend(mut self, backend: B) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Session-wide default operator configuration.
    pub fn config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Session-wide default sort mode (pinned: the optimizer keeps it).
    pub fn sort(mut self, mode: SortMode) -> Self {
        self.config.sort = mode;
        self.config.pins.sort = true;
        self
    }

    /// Session-wide default for §2.6 filter combining (pinned).
    pub fn combine_filters(mut self, on: bool) -> Self {
        self.config.combine_conjunct_filters = on;
        self.config.pins.combine = true;
        self
    }

    /// How queries are optimized ([`OptimizeMode::CostBased`] by
    /// default).
    pub fn optimize(mut self, mode: OptimizeMode) -> Self {
        self.config.optimize = mode;
        self
    }

    /// Session-wide pre-flight analysis policy
    /// ([`LintPolicy::Warn`] by default).
    pub fn lint(mut self, policy: LintPolicy) -> Self {
        self.config.lint.policy = policy;
        self
    }

    /// Seed the session with statistics learned elsewhere (e.g. an
    /// earlier session's [`Session::statistics`] export).
    pub fn statistics(mut self, stats: StatisticsStore) -> Self {
        self.stats = stats;
        self
    }

    /// Attach an already-open durable store (see [`crate::store`]).
    /// The session's task cache is preloaded from it and every paid
    /// round, plus the per-query statistics deltas, are journaled
    /// write-ahead; on the next open an identical query replays free.
    pub fn store(mut self, store: Arc<DurableStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Open (or create) a durable store at `path` and attach it —
    /// shorthand for [`DurableStore::open`] + [`Self::store`].
    ///
    /// # Errors
    /// Fails if the file cannot be opened or is corrupt beyond the
    /// torn-tail cases the store repairs itself.
    pub fn persist_to(self, path: impl AsRef<Path>) -> Result<Self> {
        let store = DurableStore::open(path).map_err(QurkError::from)?;
        Ok(self.store(Arc::new(store)))
    }

    /// # Panics
    /// Panics if `catalog` or `backend` was not provided.
    pub fn build(self) -> Session<'c, B> {
        let catalog = self.catalog.expect("SessionBuilder: missing .catalog(..)");
        let backend = self.backend.expect("SessionBuilder: missing .backend(..)");
        let (caching, stats) = match self.store {
            Some(store) => {
                // Recovered statistics are evidence from *earlier*
                // processes; merge the builder's (possibly seeded)
                // store over them so fresher κ/σ features win.
                let mut stats = store.stats_snapshot();
                stats.merge(&self.stats);
                (CachingBackend::with_journal(backend, store), stats)
            }
            None => (CachingBackend::new(backend), self.stats),
        };
        let store = caching.journal().cloned();
        Session {
            catalog,
            backend: MeteringBackend::new(caching),
            config: self.config,
            stats,
            store,
        }
    }
}

impl<'c, B: CrowdBackend> Session<'c, B> {
    pub fn builder() -> SessionBuilder<'c, B> {
        SessionBuilder::default()
    }

    /// A session with default configuration.
    pub fn new(catalog: &'c Catalog, backend: B) -> Self {
        Session::builder().catalog(catalog).backend(backend).build()
    }

    /// Session-wide default configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Mutate the session-wide defaults (prefer per-query overrides on
    /// [`QueryBuilder`]; note that direct mutation does not pin the
    /// touched operators against the optimizer — set
    /// [`ExecConfig::pins`] yourself if you need that).
    pub fn config_mut(&mut self) -> &mut ExecConfig {
        &mut self.config
    }

    /// The statistics learned from this session's completed queries.
    pub fn statistics(&self) -> &StatisticsStore {
        &self.stats
    }

    /// Mutable access to the statistics store (e.g. to
    /// [`StatisticsStore::merge`] another session's evidence or
    /// [`StatisticsStore::clear`] it).
    pub fn statistics_mut(&mut self) -> &mut StatisticsStore {
        &mut self.stats
    }

    /// The session's backend stack (metering over caching over yours).
    pub fn backend(&self) -> &MeteringBackend<CachingBackend<B>> {
        &self.backend
    }

    pub fn backend_mut(&mut self) -> &mut MeteringBackend<CachingBackend<B>> {
        &mut self.backend
    }

    /// Per-query resource usage, oldest first (one entry per completed
    /// `run()`/`report()` call, including failed queries).
    pub fn usage_history(&self) -> &[BackendUsage] {
        self.backend.history()
    }

    /// (cache hits, cache misses) across all queries of this session.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.backend.inner().stats()
    }

    /// The attached durable store, if the session was built with
    /// [`SessionBuilder::store`] / [`SessionBuilder::persist_to`].
    pub fn store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// Start building a query. Nothing executes until
    /// [`QueryBuilder::run`] / [`QueryBuilder::report`].
    pub fn query<'s>(&'s mut self, sql: &str) -> QueryBuilder<'s, 'c, B> {
        QueryBuilder {
            config: self.config.clone(),
            session: self,
            sql: sql.to_owned(),
            budget_dollars: None,
        }
    }

    /// Parse, plan and execute with the session's default config.
    pub fn run(&mut self, sql: &str) -> Result<Relation> {
        self.query(sql).run()
    }

    /// Parse, prepare and execute with an explicit config
    /// ([`QueryBuilder::report`] funnels through here).
    pub(crate) fn execute(
        &mut self,
        sql: &str,
        config: &ExecConfig,
        budget_dollars: Option<f64>,
    ) -> Result<QueryReport> {
        let prepared = prepare(parse_query(sql)?, self.catalog, config, &self.stats)?;
        self.execute_prepared(sql, &prepared, config, budget_dollars)
    }

    /// Execute a prepared query: the lint-policy gate, then its
    /// compiled plan. The service scheduler prepares at admission and
    /// hands the result to the query thread, so what executes is
    /// exactly what the admission gate analyzed — `sql` is only used
    /// for diagnostics rendering.
    pub(crate) fn execute_prepared(
        &mut self,
        sql: &str,
        prepared: &Prepared,
        config: &ExecConfig,
        budget_dollars: Option<f64>,
    ) -> Result<QueryReport> {
        let diagnostics = prepared.gate(sql, config, &self.stats, budget_dollars)?;
        let stats_before = self.store.is_some().then(|| self.stats.clone());
        // Batch boundary for the cache's eviction bound: entries the
        // previous query touched become evictable, entries this query
        // touches are pinned until it finishes.
        self.backend.inner_mut().begin_batch();
        self.backend.begin_epoch();
        let budget = budget_dollars.map(|limit| BudgetGuard {
            limit,
            start_spend: self.backend.spend_dollars(),
        });
        let outcome = PlanRunner {
            catalog: self.catalog,
            backend: &mut self.backend,
            stats: &mut self.stats,
            budget,
        }
        .run_plan(&prepared.compiled.root);
        let usage = self.backend.end_epoch();
        self.stats
            .record_epoch(usage.hits_posted as u64, usage.elapsed_secs);
        for round in self.backend.last_epoch_groups() {
            self.stats.record_round(round.work_units, round.secs);
        }
        if outcome.is_err() {
            // A failed query's live postings are abandoned; release
            // their in-flight dedup slots so a retry re-posts instead
            // of piggybacking on work nobody is driving.
            self.backend.inner_mut().release_all_in_flight();
        }
        if let Some(store) = &self.store {
            let before = stats_before.expect("snapshot taken when store attached");
            store.append_stats_delta(&self.stats.diff(&before));
            // The store is this session's durability contract: once it
            // cannot write, "acknowledged" rounds are no longer safe,
            // so fail the query loudly (injected test faults excepted).
            if let StoreHealth::Failed(msg) = store.health() {
                return Err(QurkError::Store(msg));
            }
        }
        Ok(QueryReport {
            relation: outcome?,
            hits_posted: usage.hits_posted,
            cost_dollars: usage.dollars,
            assignments: usage.assignments,
            elapsed_secs: usage.elapsed_secs,
            explain: prepared.logical.to_string(),
            plan: PlanReport::from(&prepared.compiled),
            diagnostics,
            service: None,
        })
    }
}

/// A fluent, per-query configuration handle. Overrides apply to this
/// query only; the session's defaults are untouched. Explicit operator
/// overrides are pinned — the cost-based optimizer will not replace
/// them.
pub struct QueryBuilder<'s, 'c, B: CrowdBackend> {
    session: &'s mut Session<'c, B>,
    sql: String,
    config: ExecConfig,
    budget_dollars: Option<f64>,
}

impl<B: CrowdBackend> QueryBuilder<'_, '_, B> {
    /// Replace the whole per-query configuration.
    pub fn config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Sort implementation for ORDER BY (§4.1). Pinned.
    pub fn sort(mut self, mode: SortMode) -> Self {
        self.config.sort = mode;
        self.config.pins.sort = true;
        self
    }

    /// Crowd filter operator settings. Pinned.
    pub fn filter(mut self, op: FilterOp) -> Self {
        self.config.filter = op;
        self.config.pins.filter = true;
        self
    }

    /// Crowd join operator settings (strategy, combiner, …). Pinned.
    pub fn join(mut self, op: JoinOp) -> Self {
        self.config.join = op;
        self.config.pins.join = true;
        self
    }

    /// POSSIBLY-clause feature filtering settings (§3.2). Pinned.
    pub fn feature_filter(mut self, config: FeatureFilterConfig) -> Self {
        self.config.feature_filter = config;
        self.config.pins.feature_filter = true;
        self
    }

    /// §2.6 combining for conjunctive WHERE filters. Pinned.
    pub fn combine_filters(mut self, on: bool) -> Self {
        self.config.combine_conjunct_filters = on;
        self.config.pins.combine = true;
        self
    }

    /// How this query is optimized: [`OptimizeMode::CostBased`]
    /// (default) or [`OptimizeMode::AsWritten`].
    pub fn optimize(mut self, mode: OptimizeMode) -> Self {
        self.config.optimize = mode;
        self
    }

    /// Assignments requested per HIT, applied to every operator of
    /// this query (`None` fields use the backend default).
    pub fn assignments(mut self, n: u32) -> Self {
        self.config.filter.assignments = Some(n);
        self.config.join.assignments = Some(n);
        self.config.feature_filter.assignments = Some(n);
        match &mut self.config.sort {
            SortMode::Compare(op) => op.assignments = Some(n),
            SortMode::Rate(op) => op.assignments = Some(n),
            SortMode::Hybrid(op, _) => {
                op.assignments = Some(n);
                op.rate.assignments = Some(n);
            }
        }
        self
    }

    /// Pre-flight analysis policy for this query only.
    pub fn lint(mut self, policy: LintPolicy) -> Self {
        self.config.lint.policy = policy;
        self
    }

    /// Hard dollar budget for this query: once the query's spend
    /// reaches the budget, the next crowd operator refuses to start
    /// and the query fails with [`QurkError::BudgetExceeded`]. Work
    /// already in flight is not interrupted, so the final spend can
    /// overshoot by at most one operator round.
    pub fn budget_dollars(mut self, dollars: f64) -> Self {
        self.budget_dollars = Some(dollars);
        self
    }

    /// Execute and return the result relation.
    pub fn run(self) -> Result<Relation> {
        Ok(self.report()?.relation)
    }

    /// Execute and return the result plus cost accounting.
    pub fn report(self) -> Result<QueryReport> {
        let QueryBuilder {
            session,
            sql,
            config,
            budget_dollars,
        } = self;
        session.execute(&sql, &config, budget_dollars)
    }

    /// Run the pre-flight analyzer without executing: parse, plan,
    /// optimize, and return the diagnostics. Posts no crowd work and
    /// never rejects — callers inspect the findings themselves.
    pub fn check(self) -> Result<Vec<Diagnostic>> {
        Ok(self.analyze()?.1)
    }

    /// Parse, plan and optimize without posting any crowd work;
    /// returns the EXPLAIN text (logical plan, chosen physical plan,
    /// the cost model's estimate, and any analyzer diagnostics).
    pub fn explain(self) -> Result<String> {
        let (prepared, diagnostics) = self.analyze()?;
        let plan = PlanReport::from(&prepared.compiled);
        Ok(format!(
            "{}{}",
            plan.render_with_logical(&prepared.logical.to_string(), None),
            render_diagnostics(&diagnostics)
        ))
    }

    /// Prepare the query and diagnose it, posting nothing.
    fn analyze(&self) -> Result<(Prepared, Vec<Diagnostic>)> {
        let (sql, config, stats) = (&self.sql, &self.config, &self.session.stats);
        let prepared = prepare(parse_query(sql)?, self.session.catalog, config, stats)?;
        let diagnostics = prepared.diagnose(sql, config, stats, self.budget_dollars);
        Ok((prepared, diagnostics))
    }
}

// ---------------------------------------------------------------- engine

struct BudgetGuard {
    limit: f64,
    start_spend: f64,
}

/// One side of a compiled machine-filter comparison: a resolved column
/// index (read from the relation's column slices) or a pre-evaluated
/// literal.
enum FilterOperand {
    Col(usize),
    Const(Value),
}

/// Executes one physical plan against a backend, feeding the session's
/// statistics store with every operator outcome.
struct PlanRunner<'r, B: CrowdBackend> {
    catalog: &'r Catalog,
    backend: &'r mut B,
    stats: &'r mut StatisticsStore,
    budget: Option<BudgetGuard>,
}

impl<B: CrowdBackend> PlanRunner<'_, B> {
    /// Refuse to start new crowd work once the budget is spent.
    fn charge_gate(&mut self) -> Result<()> {
        if let Some(b) = &self.budget {
            let spent = self.backend.spend_dollars() - b.start_spend;
            if spent >= b.limit {
                return Err(QurkError::BudgetExceeded {
                    budget_dollars: b.limit,
                    spent_dollars: spent,
                });
            }
        }
        Ok(())
    }

    fn run_plan(&mut self, plan: &PhysicalPlan) -> Result<Relation> {
        match &plan.node {
            PhysNode::Scan { table, alias } => {
                Ok(self.catalog.table(table)?.clone().qualified(alias))
            }
            PhysNode::MachineFilter { input, predicates } => {
                let rel = self.run_plan(input)?;
                self.machine_filter(rel, predicates)
            }
            PhysNode::CrowdFilter {
                input,
                conjuncts,
                combined,
                op,
            } => {
                let mut rel = self.run_plan(input)?;
                if *combined && conjuncts.len() > 1 {
                    rel = self.crowd_filter_combined(rel, conjuncts, op)?;
                } else {
                    // §2.5: conjuncts issue serially by default.
                    for call in conjuncts {
                        rel = self.crowd_filter(rel, call, op)?;
                    }
                }
                Ok(rel)
            }
            PhysNode::CrowdFilterOr { input, groups, op } => {
                let rel = self.run_plan(input)?;
                self.crowd_filter_or(rel, groups, op)
            }
            PhysNode::Join {
                left,
                right,
                clause,
                op,
                feature_filter,
                ..
            } => {
                let l = self.run_plan(left)?;
                let r = self.run_plan(right)?;
                self.crowd_join(l, r, clause, op, feature_filter)
            }
            PhysNode::OrderBy { input, keys, mode } => {
                let rel = self.run_plan(input)?;
                self.order_by(rel, keys, mode)
            }
            PhysNode::ExtractExtreme { input, call, desc } => {
                // §2.3: "For MAX/MIN, we use an interface that extracts
                // the best element from a batch at a time".
                let rel = self.run_plan(input)?;
                self.extract_extreme(rel, call, *desc)
            }
            PhysNode::Limit { input, n } => {
                let rel = self.run_plan(input)?;
                let keep: Vec<usize> = (0..rel.len().min(*n)).collect();
                Ok(rel.gather(&keep))
            }
            PhysNode::Project { input, items } => {
                let rel = self.run_plan(input)?;
                self.project(rel, items)
            }
        }
    }

    // ---------------- helpers ----------------

    fn eval_expr(row: Row<'_>, e: &Expr) -> Result<Value> {
        match e {
            Expr::Column(name) => row
                .field(name)
                .copied()
                .ok_or_else(|| QurkError::UnknownColumn(name.clone())),
            Expr::Literal(Literal::Number(n)) => {
                if n.fract() == 0.0 {
                    Ok(Value::Int(*n as i64))
                } else {
                    Ok(Value::Float(*n))
                }
            }
            Expr::Literal(Literal::Str(s)) => Ok(Value::text(s.clone())),
            Expr::Udf(_) => Err(QurkError::Other(
                "UDF calls cannot be evaluated by machine".into(),
            )),
        }
    }

    fn machine_filter(&self, rel: Relation, predicates: &[Predicate]) -> Result<Relation> {
        // Columnar fast path: when every predicate is a comparison over
        // resolvable columns/literals, compile it once and sweep the
        // relation's column slices window by window instead of walking
        // row objects. Falls back to the row loop otherwise so error
        // behaviour (unknown columns, crowd predicates, UDF operands)
        // is byte-for-byte what it was.
        if let Some(compiled) = Self::compile_machine_predicates(&rel, predicates) {
            let mut keep: Vec<usize> = Vec::new();
            let mut mask: Vec<bool> = Vec::new();
            for w in rel.windows() {
                mask.clear();
                mask.resize(w.len(), true);
                for (lop, op, rop) in &compiled {
                    match (lop, rop) {
                        (FilterOperand::Col(li), FilterOperand::Col(ri)) => {
                            let (lc, rc) = (w.column(*li), w.column(*ri));
                            for (k, m) in mask.iter_mut().enumerate() {
                                *m = *m && lc[k].sql_cmp(&rc[k]).is_some_and(|ord| op.eval(ord));
                            }
                        }
                        (FilterOperand::Col(li), FilterOperand::Const(v)) => {
                            let lc = w.column(*li);
                            for (k, m) in mask.iter_mut().enumerate() {
                                *m = *m && lc[k].sql_cmp(v).is_some_and(|ord| op.eval(ord));
                            }
                        }
                        (FilterOperand::Const(v), FilterOperand::Col(ri)) => {
                            let rc = w.column(*ri);
                            for (k, m) in mask.iter_mut().enumerate() {
                                *m = *m && v.sql_cmp(&rc[k]).is_some_and(|ord| op.eval(ord));
                            }
                        }
                        (FilterOperand::Const(l), FilterOperand::Const(r)) => {
                            if !l.sql_cmp(r).is_some_and(|ord| op.eval(ord)) {
                                mask.fill(false);
                            }
                        }
                    }
                }
                keep.extend(
                    mask.iter()
                        .enumerate()
                        .filter_map(|(k, &m)| m.then_some(w.start() + k)),
                );
            }
            return Ok(rel.gather(&keep));
        }

        let mut keep = Vec::new();
        'rows: for row in rel.rows() {
            for p in predicates {
                let Predicate::Compare { left, op, right } = p else {
                    return Err(QurkError::Other(
                        "machine filter received a crowd predicate".into(),
                    ));
                };
                let l = Self::eval_expr(row, left)?;
                let r = Self::eval_expr(row, right)?;
                match l.sql_cmp(&r) {
                    Some(ord) if op.eval(ord) => {}
                    _ => continue 'rows, // false or NULL
                }
            }
            keep.push(row.index());
        }
        Ok(rel.gather(&keep))
    }

    /// Compile machine predicates to column indices and constants for
    /// the columnar sweep. `None` means "use the row loop" — some
    /// predicate is not a plain comparison or references something the
    /// schema cannot resolve.
    fn compile_machine_predicates(
        rel: &Relation,
        predicates: &[Predicate],
    ) -> Option<Vec<(FilterOperand, CmpOp, FilterOperand)>> {
        let operand = |e: &Expr| -> Option<FilterOperand> {
            match e {
                Expr::Column(name) => rel.schema().resolve(name).map(FilterOperand::Col),
                Expr::Literal(Literal::Number(n)) => {
                    Some(FilterOperand::Const(if n.fract() == 0.0 {
                        Value::Int(*n as i64)
                    } else {
                        Value::Float(*n)
                    }))
                }
                Expr::Literal(Literal::Str(s)) => Some(FilterOperand::Const(Value::text(s))),
                Expr::Udf(_) => None,
            }
        };
        predicates
            .iter()
            .map(|p| match p {
                Predicate::Compare { left, op, right } => {
                    Some((operand(left)?, *op, operand(right)?))
                }
                _ => None,
            })
            .collect()
    }

    /// Resolve a UDF argument to an Item-typed column index.
    fn resolve_item_col(&self, rel: &Relation, e: &Expr) -> Result<usize> {
        let Expr::Column(name) = e else {
            return Err(QurkError::Other(format!(
                "crowd UDF argument must be a column, got {e:?}"
            )));
        };
        if let Some(i) = rel.schema().resolve(name) {
            if rel.schema().fields()[i].ty == ValueType::Item {
                return Ok(i);
            }
        }
        // Whole-tuple reference (`isFemale(c)`): the single Item column
        // under that alias.
        let prefix = format!("{name}.");
        let candidates: Vec<usize> = rel
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ty == ValueType::Item && f.name.starts_with(&prefix))
            .map(|(i, _)| i)
            .collect();
        if candidates.len() == 1 {
            Ok(candidates[0])
        } else {
            Err(QurkError::UnknownColumn(name.clone()))
        }
    }

    fn crowd_filter(&mut self, rel: Relation, call: &UdfCall, op: &FilterOp) -> Result<Relation> {
        self.charge_gate()?;
        let task = self.catalog.task(&call.name)?;
        if task.ty != TaskType::Filter {
            return Err(QurkError::TaskTypeMismatch {
                task: call.name.clone(),
                expected: "Filter",
                found: task.ty.name(),
            });
        }
        let arg = call
            .args
            .first()
            .ok_or_else(|| QurkError::Other(format!("filter {} needs an argument", call.name)))?;
        let col = self.resolve_item_col(&rel, arg)?;
        // Rows with NULL items cannot be asked about and fail the
        // filter.
        let (items, item_rows) = non_null_items(&rel, col);
        let op = FilterOp {
            combiner: task.combiner,
            ..op.clone()
        };
        let mask = op.run(self.backend, task.oracle_key(), &items)?;
        let passed = mask.iter().filter(|&&b| b).count();
        self.stats
            .record_filter(task.oracle_key(), items.len(), passed);
        let keep: Vec<usize> = item_rows
            .iter()
            .zip(&mask)
            .filter_map(|(&ri, &pass)| pass.then_some(ri))
            .collect();
        Ok(rel.gather(&keep))
    }

    /// §2.6 combining: all conjunct filters of a tuple in one HIT.
    fn crowd_filter_combined(
        &mut self,
        rel: Relation,
        conjuncts: &[UdfCall],
        op: &FilterOp,
    ) -> Result<Relation> {
        self.charge_gate()?;
        // Resolve every task and argument column up front; all
        // conjuncts must address the same Item column set per row.
        let mut predicates: Vec<&str> = Vec::with_capacity(conjuncts.len());
        let mut cols: Vec<usize> = Vec::with_capacity(conjuncts.len());
        for call in conjuncts {
            let task = self.catalog.task(&call.name)?;
            if task.ty != TaskType::Filter {
                return Err(QurkError::TaskTypeMismatch {
                    task: call.name.clone(),
                    expected: "Filter",
                    found: task.ty.name(),
                });
            }
            let arg = call.args.first().ok_or_else(|| {
                QurkError::Other(format!("filter {} needs an argument", call.name))
            })?;
            cols.push(self.resolve_item_col(&rel, arg)?);
            predicates.push(task.oracle_key());
        }
        // Combining requires one shared item per tuple (the paper
        // combines tasks over "the same tuple"); fall back to the
        // first column's item.
        let (items, item_rows) = non_null_items(&rel, cols[0]);
        // Unlike the serial path, combining keeps the configured
        // combiner for every conjunct (per-task combiners cannot be
        // honored inside one shared HIT).
        let masks = op.run_combined(self.backend, &predicates, &items)?;
        for (pi, &pred) in predicates.iter().enumerate() {
            let passed = masks.iter().filter(|m| m[pi]).count();
            self.stats.record_filter(pred, items.len(), passed);
        }
        let keep: Vec<usize> = item_rows
            .iter()
            .zip(&masks)
            .filter_map(|(&ri, m)| m.iter().all(|&b| b).then_some(ri))
            .collect();
        Ok(rel.gather(&keep))
    }

    fn crowd_filter_or(
        &mut self,
        rel: Relation,
        groups: &[Vec<Predicate>],
        op: &FilterOp,
    ) -> Result<Relation> {
        // §2.5: disjuncts are issued in parallel; each group's verdict
        // is the AND of its predicates, a row passes if any group does.
        //
        // Machine-evaluable members of a group run first regardless of
        // written order — they cost nothing and shrink the set of rows
        // the group's crowd predicates must ask about (the same
        // push-below-crowd rule §2.5 applies to conjunctions).
        let mut keep = vec![false; rel.len()];
        for group in groups {
            let mut group_mask = vec![true; rel.len()];
            let (machine, crowd): (Vec<&Predicate>, Vec<&Predicate>) = group
                .iter()
                .partition(|p| matches!(p, Predicate::Compare { .. }));
            for p in machine.into_iter().chain(crowd) {
                match p {
                    Predicate::Compare { left, op, right } => {
                        for row in rel.rows() {
                            let ri = row.index();
                            if group_mask[ri] {
                                let l = Self::eval_expr(row, left)?;
                                let r = Self::eval_expr(row, right)?;
                                group_mask[ri] = matches!(
                                    l.sql_cmp(&r),
                                    Some(ord) if op.eval(ord)
                                );
                            }
                        }
                    }
                    Predicate::Udf(call) => {
                        self.charge_gate()?;
                        let task = self.catalog.task(&call.name)?;
                        let arg = call.args.first().ok_or_else(|| {
                            QurkError::Other(format!("filter {} needs an argument", call.name))
                        })?;
                        let col = self.resolve_item_col(&rel, arg)?;
                        let mut items = Vec::new();
                        let mut rows = Vec::new();
                        for (ri, v) in rel.column(col).iter().enumerate() {
                            if group_mask[ri] {
                                match v.as_item() {
                                    Some(it) => {
                                        items.push(it);
                                        rows.push(ri);
                                    }
                                    None => group_mask[ri] = false,
                                }
                            }
                        }
                        let op = FilterOp {
                            combiner: task.combiner,
                            ..op.clone()
                        };
                        let mask = op.run(self.backend, task.oracle_key(), &items)?;
                        let passed = mask.iter().filter(|&&b| b).count();
                        self.stats
                            .record_filter(task.oracle_key(), items.len(), passed);
                        for (k, &ri) in rows.iter().enumerate() {
                            group_mask[ri] = mask[k];
                        }
                    }
                }
            }
            for (ri, &g) in group_mask.iter().enumerate() {
                keep[ri] = keep[ri] || g;
            }
        }
        let keep: Vec<usize> = (0..rel.len()).filter(|&ri| keep[ri]).collect();
        Ok(rel.gather(&keep))
    }

    fn crowd_join(
        &mut self,
        left: Relation,
        right: Relation,
        clause: &crate::lang::ast::JoinClause,
        op: &JoinOp,
        feature_filter: &FeatureFilterConfig,
    ) -> Result<Relation> {
        self.charge_gate()?;
        let join_task = self.catalog.task(&clause.on.name)?;
        if join_task.ty != TaskType::EquiJoin {
            return Err(QurkError::TaskTypeMismatch {
                task: clause.on.name.clone(),
                expected: "EquiJoin",
                found: join_task.ty.name(),
            });
        }
        if clause.on.args.len() != 2 {
            return Err(QurkError::Other(format!(
                "join predicate {} needs two arguments",
                clause.on.name
            )));
        }
        // Which argument refers to which side?
        let (lcol, rcol) = match (
            self.resolve_item_col(&left, &clause.on.args[0]),
            self.resolve_item_col(&right, &clause.on.args[1]),
        ) {
            (Ok(l), Ok(r)) => (l, r),
            _ => {
                // Swapped argument order.
                let l = self.resolve_item_col(&left, &clause.on.args[1])?;
                let r = self.resolve_item_col(&right, &clause.on.args[0])?;
                (l, r)
            }
        };

        // Literal POSSIBLY clauses prefilter one side (the §5 movie
        // query's numInScene); equality clauses drive pairwise feature
        // filtering.
        let mut left_rel = left;
        let mut right_rel = right;
        let mut eq_specs: Vec<FeatureSpec> = Vec::new();
        for p in &clause.possibly {
            match p {
                PossiblyClause::FeatureLit { call, op, value } => {
                    let (is_left, moved) = {
                        let arg = call.args.first().ok_or_else(|| {
                            QurkError::Other("feature call needs an argument".into())
                        })?;
                        if let Ok(col) = self.resolve_item_col(&left_rel, arg) {
                            (
                                true,
                                self.prefilter_literal(
                                    &left_rel,
                                    col,
                                    call,
                                    *op,
                                    value,
                                    feature_filter,
                                )?,
                            )
                        } else {
                            let col = self.resolve_item_col(&right_rel, arg)?;
                            (
                                false,
                                self.prefilter_literal(
                                    &right_rel,
                                    col,
                                    call,
                                    *op,
                                    value,
                                    feature_filter,
                                )?,
                            )
                        }
                    };
                    if is_left {
                        left_rel = moved;
                    } else {
                        right_rel = moved;
                    }
                }
                PossiblyClause::FeatureEq {
                    left: lc,
                    right: rc,
                } => {
                    let task = self.catalog.task(&lc.name)?;
                    if rc.name != lc.name {
                        return Err(QurkError::Other(format!(
                            "POSSIBLY compares different features: {} vs {}",
                            lc.name, rc.name
                        )));
                    }
                    let (opts, _) = task.feature_options().ok_or_else(|| {
                        QurkError::Other(format!(
                            "feature task {} must have a Radio response",
                            lc.name
                        ))
                    })?;
                    eq_specs.push(FeatureSpec {
                        name: task.oracle_key().to_owned(),
                        num_options: opts.len(),
                    });
                }
            }
        }

        let collect_items = |rel: &Relation, col: usize| -> Vec<ItemId> {
            rel.column(col)
                .iter()
                .map(|v| v.as_item().unwrap_or(ItemId(u64::MAX)))
                .collect()
        };
        let left_items = collect_items(&left_rel, lcol);
        let right_items = collect_items(&right_rel, rcol);

        let candidates = if eq_specs.is_empty() {
            None
        } else {
            let ff = FeatureFilter::new(feature_filter.clone());
            let outcome = ff.run(self.backend, &eq_specs, &left_items, &right_items)?;
            // Remember each sampled feature's κ/σ so the next query's
            // planner can prune known-bad features without re-sampling.
            for (fi, spec) in eq_specs.iter().enumerate() {
                self.stats.record_feature(
                    &spec.name,
                    outcome.kappas[fi],
                    outcome.selectivities[fi],
                );
            }
            Some(outcome.candidates)
        };

        let op = JoinOp {
            combiner: join_task.combiner,
            ..op.clone()
        };
        let pairs_asked = candidates
            .as_ref()
            .map(|c| c.len())
            .unwrap_or(left_items.len() * right_items.len());
        let outcome = op.run(self.backend, &left_items, &right_items, candidates.as_ref())?;
        self.stats
            .record_join(&clause.on.name, pairs_asked, outcome.matches.len());

        let (li, ri): (Vec<usize>, Vec<usize>) = outcome.matches.iter().copied().unzip();
        Ok(left_rel.gather(&li).zip(right_rel.gather(&ri)))
    }

    #[allow(clippy::too_many_arguments)]
    fn prefilter_literal(
        &mut self,
        rel: &Relation,
        col: usize,
        call: &UdfCall,
        op: CmpOp,
        value: &Literal,
        feature_filter: &FeatureFilterConfig,
    ) -> Result<Relation> {
        self.charge_gate()?;
        let task = self.catalog.task(&call.name)?;
        let (opts, _) = task.feature_options().ok_or_else(|| {
            QurkError::Other(format!("feature task {} must be categorical", call.name))
        })?;
        let (items, item_rows) = non_null_items(rel, col);
        let gen = GenerativeOp {
            batch_size: feature_filter.batch_size,
            combined_interface: false,
            assignments: feature_filter.assignments,
            limit_secs: feature_filter.limit_secs,
        };
        let outcome = gen.run(self.backend, task, &items)?;
        let want = match value {
            Literal::Str(s) => s.clone(),
            Literal::Number(n) => {
                if n.fract() == 0.0 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
        };
        let mut keep = Vec::new();
        for (&ri, extracted) in item_rows.iter().zip(&outcome.rows) {
            let extracted = extracted.get("value").copied().unwrap_or(Value::Null);
            let pass = match (&extracted, op) {
                (Value::Null, _) => true, // UNKNOWN matches anything
                (Value::Text(t), CmpOp::Eq) => *t == want,
                (Value::Text(t), CmpOp::Ne) => *t != want,
                (Value::Text(t), _) => {
                    // Ordered comparison over the option order.
                    let ti = opts.iter().position(|o| *t == *o);
                    let wi = opts.iter().position(|o| *o == want);
                    match (ti, wi) {
                        (Some(a), Some(b)) => op.eval(a.cmp(&b)),
                        _ => false,
                    }
                }
                _ => false,
            };
            if pass {
                keep.push(ri);
            }
        }
        Ok(rel.gather(&keep))
    }

    /// MAX/MIN aggregate: tournament extraction of the single best
    /// (DESC) or worst (ASC) row by a Rank task (§2.3).
    fn extract_extreme(&mut self, rel: Relation, call: &UdfCall, desc: bool) -> Result<Relation> {
        let task = self.catalog.task(&call.name)?;
        if task.ty != TaskType::Rank {
            return Err(QurkError::TaskTypeMismatch {
                task: call.name.clone(),
                expected: "Rank",
                found: task.ty.name(),
            });
        }
        if rel.is_empty() {
            return Ok(rel);
        }
        self.charge_gate()?;
        let arg = call.args.first().ok_or_else(|| {
            QurkError::Other(format!("rank task {} needs an argument", call.name))
        })?;
        let col = self.resolve_item_col(&rel, arg)?;
        let (items, _) = non_null_items(&rel, col);
        if items.is_empty() {
            return Ok(rel.gather(&[]));
        }
        // DESC LIMIT 1 = MAX ("most"); ASC LIMIT 1 = MIN ("least").
        // Batches of 5, the paper's comparison group size.
        let (best, _hits) =
            crate::ops::sort::extract_best(self.backend, &items, task.oracle_key(), 5, desc, None)?;
        let best_row = rel
            .column(col)
            .iter()
            .position(|v| v.as_item() == Some(best));
        Ok(rel.gather(best_row.as_slice()))
    }

    fn order_by(&mut self, rel: Relation, keys: &[OrderExpr], mode: &SortMode) -> Result<Relation> {
        // Split keys: machine columns first, then at most one Rank UDF.
        let mut machine: Vec<(usize, bool)> = Vec::new();
        let mut crowd: Option<(&UdfCall, bool)> = None;
        for (ki, k) in keys.iter().enumerate() {
            match &k.expr {
                Expr::Column(name) => {
                    if crowd.is_some() {
                        return Err(QurkError::Other(
                            "machine sort keys must precede the crowd key".into(),
                        ));
                    }
                    let idx = rel
                        .schema()
                        .resolve(name)
                        .ok_or_else(|| QurkError::UnknownColumn(name.clone()))?;
                    machine.push((idx, k.desc));
                }
                Expr::Udf(call) => {
                    if crowd.is_some() || ki != keys.len() - 1 {
                        return Err(QurkError::Other(
                            "only one crowd sort key is supported, and it must be last".into(),
                        ));
                    }
                    crowd = Some((call, k.desc));
                }
                Expr::Literal(_) => {
                    return Err(QurkError::Other("cannot order by a literal".into()))
                }
            }
        }

        // Machine sort (stable). The comparator reads the key columns'
        // contiguous slices, so each key comparison touches only the
        // cache lines of the columns actually being sorted on. Keys
        // compare under `Value::sort_cmp`, a total order (NULLs last
        // under ASC, first under DESC), as `sort_by` requires.
        let key_cols: Vec<(&[Value], bool)> = machine
            .iter()
            .map(|&(col, desc)| (rel.column(col), desc))
            .collect();
        let mut order: Vec<usize> = (0..rel.len()).collect();
        order.sort_by(|&a, &b| {
            for &(col, desc) in &key_cols {
                let ord = col[a].sort_cmp(&col[b]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });

        if let Some((call, desc)) = crowd {
            let task = self.catalog.task(&call.name)?;
            if task.ty != TaskType::Rank {
                return Err(QurkError::TaskTypeMismatch {
                    task: call.name.clone(),
                    expected: "Rank",
                    found: task.ty.name(),
                });
            }
            let arg = call.args.first().ok_or_else(|| {
                QurkError::Other(format!("rank task {} needs an argument", call.name))
            })?;
            let col = self.resolve_item_col(&rel, arg)?;
            let dimension = task.oracle_key().to_owned();

            // Group rows sharing the machine-key prefix, sort each
            // group with the crowd (§5's per-actor scene ordering).
            // Grouping uses the sort's own equality, so NULL keys form
            // one group.
            let mut grouped: Vec<Vec<usize>> = Vec::new();
            for &ri in &order {
                let same_group = grouped.last().is_some_and(|g: &Vec<usize>| {
                    key_cols
                        .iter()
                        .all(|&(col, _)| col[g[0]].sort_cmp(&col[ri]).is_eq())
                });
                if same_group {
                    grouped.last_mut().unwrap().push(ri);
                } else {
                    grouped.push(vec![ri]);
                }
            }
            let item_col = rel.column(col);
            let mut final_order = Vec::with_capacity(rel.len());
            for group in grouped {
                let items: Vec<ItemId> = group
                    .iter()
                    .filter_map(|&ri| item_col[ri].as_item())
                    .collect();
                if items.len() <= 1 {
                    final_order.extend(group);
                    continue;
                }
                self.charge_gate()?;
                let sorted_items = match mode {
                    SortMode::Compare(op) => {
                        let out = op.run(self.backend, &items, &dimension)?;
                        self.observe_sort_outcome(&dimension, &out, None);
                        out.order
                    }
                    SortMode::Rate(op) => {
                        let out = op.run(self.backend, &items, &dimension)?;
                        self.observe_sort_outcome(&dimension, &out, Some(op.scale));
                        out.order
                    }
                    SortMode::Hybrid(op, iterations) => {
                        let out = op.run(self.backend, &items, &dimension, *iterations)?;
                        self.observe_sort_outcome(&dimension, &out.initial, Some(op.rate.scale));
                        out.trajectory.last().cloned().unwrap_or(out.initial.order)
                    }
                };
                // Sort outcome is best-first ("Most" first); SQL ASC
                // means least-first.
                let item_rank: HashMap<ItemId, usize> = sorted_items
                    .iter()
                    .enumerate()
                    .map(|(i, &it)| (it, i))
                    .collect();
                let mut group_sorted = group.clone();
                group_sorted.sort_by_key(|&ri| {
                    item_col[ri]
                        .as_item()
                        .and_then(|it| item_rank.get(&it).copied())
                        .unwrap_or(usize::MAX)
                });
                if !desc {
                    group_sorted.reverse();
                }
                final_order.extend(group_sorted);
            }
            order = final_order;
        }

        Ok(rel.gather(&order))
    }

    /// Learn the dimension's ambiguity from a completed sort: pairwise
    /// vote disagreement for comparisons (Figure 6's κ signal), or the
    /// normalized rating spread for ratings. `scale` is `Some` for
    /// rating-based outcomes.
    fn observe_sort_outcome(&mut self, dimension: &str, out: &SortOutcome, scale: Option<u8>) {
        let ambiguity = match scale {
            None => mean_pair_disagreement(&out.tally, out.scores.len()),
            Some(s) => {
                let stds: Vec<f64> = out.stds.iter().copied().filter(|v| v.is_finite()).collect();
                if stds.is_empty() || s < 2 {
                    None
                } else {
                    let mean_std = stds.iter().sum::<f64>() / stds.len() as f64;
                    // A std of half the scale range ≈ coin-flip rating.
                    Some((mean_std / ((s - 1) as f64 / 2.0)).clamp(0.0, 1.0))
                }
            }
        };
        if let Some(a) = ambiguity {
            self.stats.record_sort(dimension, a);
        }
    }

    fn project(&mut self, rel: Relation, items: &[SelectItem]) -> Result<Relation> {
        // Fast path: SELECT *.
        if items.len() == 1 && matches!(items[0], SelectItem::Star) {
            return Ok(rel);
        }
        let mut schema = crate::schema::Schema::default();
        // Each output column: either a copy of an input column or a
        // generative field.
        enum Col {
            Copy(usize),
            Gen { values: Vec<Value> },
        }
        let mut cols: Vec<Col> = Vec::new();
        // Cache generative runs per (task, arg) to avoid re-asking for
        // each selected field (the Fields mechanism answers them all at
        // once, §2.2).
        let mut gen_cache: HashMap<String, Vec<crate::ops::generative::GenRow>> = HashMap::new();

        for item in items {
            match item {
                SelectItem::Star => {
                    for (i, f) in rel.schema().fields().iter().enumerate() {
                        schema.push_field(&f.name, f.ty);
                        cols.push(Col::Copy(i));
                    }
                }
                SelectItem::Column(name) => {
                    let idx = rel
                        .schema()
                        .resolve(name)
                        .ok_or_else(|| QurkError::UnknownColumn(name.clone()))?;
                    let f = &rel.schema().fields()[idx];
                    let out_name = if schema.index_of(name).is_none() {
                        name.clone()
                    } else {
                        format!("{name}#{}", cols.len())
                    };
                    schema.push_field(&out_name, f.ty);
                    cols.push(Col::Copy(idx));
                }
                SelectItem::Udf { call, field } => {
                    let task = self.catalog.task(&call.name)?;
                    if task.ty != TaskType::Generative {
                        return Err(QurkError::TaskTypeMismatch {
                            task: call.name.clone(),
                            expected: "Generative",
                            found: task.ty.name(),
                        });
                    }
                    let key = format!("{call:?}");
                    if !gen_cache.contains_key(&key) {
                        self.charge_gate()?;
                        let arg = call.args.first().ok_or_else(|| {
                            QurkError::Other(format!("task {} needs an argument", call.name))
                        })?;
                        let col = self.resolve_item_col(&rel, arg)?;
                        let items_vec: Vec<ItemId> = rel
                            .column(col)
                            .iter()
                            .map(|v| v.as_item().unwrap_or(ItemId(u64::MAX)))
                            .collect();
                        let gen = GenerativeOp::default();
                        let out = gen.run(self.backend, task, &items_vec)?;
                        gen_cache.insert(key.clone(), out.rows);
                    }
                    let rows = &gen_cache[&key];
                    let fname = field.clone().unwrap_or_else(|| "value".to_owned());
                    let out_name = match field {
                        Some(f) => format!("{}.{f}", call.name),
                        None => call.name.clone(),
                    };
                    let values: Vec<Value> = rows
                        .iter()
                        .map(|r| r.get(&fname).cloned().unwrap_or(Value::Null))
                        .collect();
                    schema.push_field(&out_name, ValueType::Text);
                    cols.push(Col::Gen { values });
                }
            }
        }

        let n = rel.len();
        let columns = cols
            .into_iter()
            .map(|c| match c {
                Col::Copy(i) => rel.column(i).to_vec(),
                Col::Gen { mut values } => {
                    values.resize(n, Value::Null);
                    values
                }
            })
            .collect();
        Relation::from_columns(schema, columns)
    }
}

/// The non-NULL items of Item column `col` and the rows they sit in:
/// rows with a NULL item cannot be asked about.
fn non_null_items(rel: &Relation, col: usize) -> (Vec<ItemId>, Vec<usize>) {
    rel.column(col)
        .iter()
        .enumerate()
        .filter_map(|(ri, v)| v.as_item().map(|it| (it, ri)))
        .unzip()
}

/// Mean pairwise disagreement over all voted pairs of a comparison
/// tally: 0 = every contest unanimous, 1 = every contest tied.
fn mean_pair_disagreement(tally: &PairTally, n: usize) -> Option<f64> {
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let (wi, wj) = tally.votes(i, j);
            let votes = wi + wj;
            if votes > 0 {
                total += 2.0 * wi.min(wj) as f64 / votes as f64;
                pairs += 1;
            }
        }
    }
    (pairs > 0).then(|| total / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use qurk_crowd::truth::{DimensionParams, PredicateTruth};
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

    fn setup() -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        gt.define_dimension("height", DimensionParams::crisp(0.02));
        let items = gt.new_items(10);
        for (i, &it) in items.iter().enumerate() {
            gt.set_predicate(
                it,
                "isTall",
                PredicateTruth {
                    value: i >= 5,
                    error_rate: 0.03,
                },
            );
            gt.set_score(it, "height", i as f64);
            gt.set_entity(it, EntityId(i as u64));
        }
        let market = Marketplace::new(&CrowdConfig::default(), gt);

        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &it) in items.iter().enumerate() {
            rel.push(vec![Value::Int(i as i64), Value::Item(it)])
                .unwrap();
        }
        catalog.register_table("people", rel);
        catalog
            .define_tasks(
                r#"TASK isTall(field) TYPE Filter:
                    Prompt: "<img src='%s'> Tall?", tuple[field]
                   TASK byHeight(field) TYPE Rank:
                    OrderDimensionName: "height"
                    Html: "<img src='%s'>", tuple[field]
                "#,
            )
            .unwrap();
        (catalog, market)
    }

    #[test]
    fn builder_runs_query_and_reports_costs() {
        let (catalog, market) = setup();
        let mut session = Session::builder().catalog(&catalog).backend(market).build();
        let report = session
            .query("SELECT id FROM people WHERE isTall(people.img)")
            .report()
            .unwrap();
        // 10 items / batch 5 = 2 HITs x 5 assignments x $0.015.
        assert_eq!(report.hits_posted, 2);
        assert_eq!(report.assignments, 10);
        assert!((report.cost_dollars - 10.0 * 0.015).abs() < 1e-9);
        assert!(report.elapsed_secs > 0.0);
        assert!(report.explain.contains("CrowdFilter"));
        assert_eq!(session.usage_history().len(), 1);
    }

    #[test]
    fn session_caches_repeat_queries() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        let first = session
            .query("SELECT id FROM people WHERE isTall(people.img)")
            .report()
            .unwrap();
        let second = session
            .query("SELECT id FROM people WHERE isTall(people.img)")
            .report()
            .unwrap();
        assert!(first.hits_posted > 0);
        assert_eq!(second.hits_posted, 0, "repeat query must be cached");
        assert_eq!(second.cost_dollars, 0.0);
        assert_eq!(first.relation, second.relation);
    }

    #[test]
    fn borrowed_marketplace_backend_works() {
        let (catalog, mut market) = setup();
        {
            let mut session = Session::new(&catalog, &mut market);
            session
                .run("SELECT id FROM people WHERE isTall(people.img)")
                .unwrap();
        }
        // The marketplace is accessible again after the session ends.
        assert!(market.hits_posted() > 0);
    }

    #[test]
    fn budget_stops_new_crowd_work() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        let err = session
            .query("SELECT id FROM people WHERE isTall(people.img)")
            .budget_dollars(0.0)
            .run();
        assert!(
            matches!(err, Err(QurkError::BudgetExceeded { .. })),
            "{err:?}"
        );
        // No crowd work was posted.
        assert_eq!(session.backend().hits_posted(), 0);
        // The session remains usable without a budget.
        let rel = session
            .run("SELECT id FROM people WHERE isTall(people.img)")
            .unwrap();
        assert!(rel.len() >= 4);
    }

    #[test]
    fn explain_costs_nothing() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        let plan = session
            .query("SELECT id FROM people ORDER BY byHeight(people.img)")
            .explain()
            .unwrap();
        assert!(plan.contains("OrderBy"), "{plan}");
        assert!(plan.contains("physical plan"), "{plan}");
        assert!(plan.contains("estimated:"), "{plan}");
        assert_eq!(session.backend().hits_posted(), 0);
    }

    #[test]
    fn session_learns_statistics_from_queries() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        assert!(session.statistics().is_empty());
        session
            .run("SELECT id FROM people WHERE isTall(people.img)")
            .unwrap();
        let sel = session.statistics().filter_selectivity("isTall").unwrap();
        assert!((0.3..=0.7).contains(&sel), "sel={sel}");
        assert!(session.statistics().secs_per_hit().unwrap() > 0.0);

        session
            .run("SELECT id FROM people ORDER BY byHeight(people.img)")
            .unwrap();
        let amb = session.statistics().sort_ambiguity("height").unwrap();
        assert!(amb < 0.3, "crisp dimension should read unambiguous: {amb}");
    }

    #[test]
    fn report_carries_estimates_and_renders_explain() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        let report = session
            .query("SELECT id FROM people WHERE isTall(people.img)")
            .report()
            .unwrap();
        // Cardinality known from the catalog: 10 rows / batch 5.
        assert_eq!(report.plan.estimate.hits, 2.0);
        assert_eq!(report.plan.mode, OptimizeMode::CostBased);
        assert!(report.plan.decisions.is_empty(), "no stats, no deviations");
        let full = report.explain_full();
        assert!(full.contains("logical plan:"), "{full}");
        assert!(full.contains("estimated vs actual"), "{full}");
    }

    #[test]
    fn seeded_statistics_flow_through_builder() {
        let (catalog, market) = setup();
        let mut seed = StatisticsStore::new();
        seed.record_filter("isTall", 100, 50);
        let session = Session::builder()
            .catalog(&catalog)
            .backend(market)
            .statistics(seed)
            .build();
        assert_eq!(session.statistics().filter_selectivity("isTall"), Some(0.5));
    }

    /// Regression: a machine-evaluable member of an OR group must run
    /// before the group's crowd predicates regardless of written
    /// order — it costs nothing and shrinks the crowd's workload.
    /// Previously the group ran strictly as written, asking the crowd
    /// about every row first.
    #[test]
    fn or_group_machine_members_run_below_crowd_work() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        // Group 1: crowd predicate written BEFORE the machine one.
        // Machine-first narrows 10 rows to the 2 with id >= 8, so the
        // crowd sees one batch-5 HIT instead of two.
        let report = session
            .query(
                "SELECT id FROM people \
                 WHERE isTall(people.img) AND people.id >= 8 OR people.id < 0",
            )
            .report()
            .unwrap();
        assert_eq!(
            report.hits_posted, 1,
            "machine disjunct member must prefilter the crowd's input"
        );
        for row in report.relation.rows() {
            assert!(row[0].as_int().unwrap() >= 8);
        }
    }

    #[test]
    fn machine_only_query_reports_zero_cost_epoch() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        // A crowd query first, so the virtual clock has advanced.
        session
            .run("SELECT id FROM people WHERE isTall(people.img)")
            .unwrap();
        let report = session
            .query("SELECT id FROM people WHERE people.id < 3")
            .report()
            .unwrap();
        assert_eq!(report.hits_posted, 0);
        assert_eq!(report.cost_dollars, 0.0);
        assert_eq!(
            report.elapsed_secs, 0.0,
            "machine-only plans take no crowd time"
        );
    }
}

//! The `Session` / `QueryBuilder` execution API.
//!
//! A [`Session`] binds a [`Catalog`] to any [`CrowdBackend`] and runs
//! queries against it. Internally every session stacks two backend
//! decorators over the one you supply, plus a cross-query
//! [`StatisticsStore`] feeding the cost-based optimizer:
//!
//! ```text
//!   Session ── StatisticsStore (selectivities, κ/σ, latency)
//!     └─ MeteringBackend      the current query's groups, and its totals
//!          └─ CachingBackend  Figure 1's Task Cache, at the HIT level;
//!               │             a query's cost is read from its groups
//!               └─ B          your backend (Marketplace, Replay, …)
//! ```
//!
//! Each query is prepared once (`analyze::prepare`): planned
//! logically ([`crate::plan`]), lowered to a physical plan by the
//! optimizer ([`crate::opt::physical`]) — cost based by default,
//! degrading to the as-written plan while no statistics exist — and
//! priced for the pre-flight analyzer. Then the plan runner the query
//! service shares (`exec::execute_plan`) executes it. Queries
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

use std::path::Path;
use std::sync::Arc;

use crate::analyze::{prepare, render_diagnostics, Diagnostic, LintConfig, LintPolicy, Prepared};
use crate::backend::{BackendUsage, CachingBackend, CrowdBackend, MeteringBackend};
use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::exec::execute_plan;
use crate::lang::parser::parse_query;
use crate::ops::filter::FilterOp;
use crate::ops::join::feature_filter::FeatureFilterConfig;
use crate::ops::join::JoinOp;
use crate::ops::sort::{CompareSort, HybridSort, RateSort};
use crate::opt::explain::PlanReport;
use crate::opt::physical::{OptimizeMode, PinSet};
use crate::opt::stats::StatisticsStore;
use crate::relation::Relation;
use crate::service::report::ServiceStats;
use crate::store::{DurableStore, RecoveredState, StoreHealth};

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

/// Per-query execution report, with resource numbers read from the
/// Task Cache groups the query posted and the optimizer's plan report.
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
    /// The report of a query that executed `prepared` and used `usage`
    /// (no service accounting yet).
    pub(crate) fn new(
        relation: Relation,
        usage: BackendUsage,
        prepared: &Prepared,
        diagnostics: Vec<Diagnostic>,
    ) -> Self {
        QueryReport {
            relation,
            hits_posted: usage.hits_posted,
            cost_dollars: usage.dollars,
            assignments: usage.assignments,
            elapsed_secs: usage.elapsed_secs,
            explain: prepared.logical.to_string(),
            plan: PlanReport::from(&prepared.compiled),
            diagnostics,
            service: None,
        }
    }

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
                let RecoveredState {
                    cache, mut stats, ..
                } = store.recovered();
                stats.merge(&self.stats);
                (CachingBackend::with_journal(backend, store, cache), stats)
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

    /// The session's backend stack (metering over caching over yours).
    /// Its usage counters are the last query's; the totals of every
    /// query of the session are on `backend().inner()`, the Task Cache.
    pub fn backend(&self) -> &MeteringBackend<CachingBackend<B>> {
        &self.backend
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

    /// Parse, prepare, gate and execute with an explicit config
    /// ([`QueryBuilder::report`] funnels through here).
    pub(crate) fn execute(
        &mut self,
        sql: &str,
        config: &ExecConfig,
        budget_dollars: Option<f64>,
    ) -> Result<QueryReport> {
        let prepared = prepare(parse_query(sql)?, self.catalog, config, &self.stats)?;
        let diagnostics = prepared.gate(sql, config, &self.stats, budget_dollars)?;
        self.backend.next_query();
        let mut learned = StatisticsStore::new();
        let (outcome, usage) = execute_plan(
            self.catalog,
            &mut self.backend,
            &mut learned,
            &prepared,
            budget_dollars,
        );
        self.stats.merge(&learned);
        if outcome.is_err() {
            // A failed query's live postings are abandoned; release
            // their in-flight dedup slots so a retry re-posts instead
            // of piggybacking on work nobody is driving.
            self.backend.release_query();
        }
        if let Some(store) = &self.store {
            store.append_stats_delta(&learned);
            // The store is this session's durability contract: once it
            // cannot write, "acknowledged" rounds are no longer safe,
            // so fail the query loudly (injected test faults excepted).
            if let StoreHealth::Failed(msg) = store.health() {
                return Err(QurkError::Store(msg));
            }
        }
        Ok(QueryReport::new(outcome?, usage, &prepared, diagnostics))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, ValueType};
    use crate::value::Value;
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

    /// A SELECT UDF must be a Generative task. Planning rejects a
    /// Filter task there, so `check()` reports it and `run()` fails
    /// before posting anything (the runner used to find out only
    /// after the WHERE filter had paid).
    #[test]
    fn wrong_type_select_udf_is_rejected_before_posting() {
        let (catalog, market) = setup();
        let mut session = Session::new(&catalog, market);
        let sql = "SELECT isTall(p.img) FROM people AS p WHERE isTall(p.img)";
        let mismatch = |e: Option<QurkError>| {
            matches!(
                e,
                Some(QurkError::TaskTypeMismatch {
                    expected: "Generative",
                    ..
                })
            )
        };
        assert!(mismatch(session.query(sql).check().err()));
        assert!(mismatch(session.run(sql).err()));
        assert_eq!(session.backend().hits_posted(), 0);
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

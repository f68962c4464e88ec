//! The plan runner: evaluates a physical plan bottom-up against a
//! crowd backend (§2.5: "a query is translated into a plan-tree that
//! processes input tables in a bottom-up fashion").
//!
//! [`execute_plan`] is the engine's one execution path. A
//! [`Session`](crate::session::Session) query and a service query
//! (`service::scheduler::run_query`) both reach it with a plan that
//! `analyze::prepare` built through `plan::plan_query` and
//! `opt::physical::compile` over an immutable catalog, and bound with
//! [`bind`], so the runner trusts what planning proved: every task has
//! the type its position needs, combined conjuncts ask about one item
//! argument, and every column the plan names exists. Binding is this
//! runner over zero-row tables: empty inputs post no crowd work, so a
//! query with an unknown column or a repeated column name fails there,
//! with the error the real run would give, before it posts any HIT.

use std::collections::HashMap;

use qurk_crowd::ItemId;

use crate::analyze::Prepared;
use crate::backend::{BackendUsage, CrowdBackend, QueryBackend, ReplayBackend, ReplayTrace};
use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::lang::ast::{
    CmpOp, Expr, JoinClause, Literal, OrderExpr, PossiblyClause, Predicate, SelectItem, UdfCall,
};
use crate::ops::filter::FilterOp;
use crate::ops::generative::GenerativeOp;
use crate::ops::join::feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureSpec};
use crate::ops::join::JoinOp;
use crate::ops::sort::{PairTally, SortOutcome};
use crate::opt::physical::{PhysNode, PhysicalPlan};
use crate::opt::stats::StatisticsStore;
use crate::relation::Relation;
use crate::schema::{Schema, ValueType};
use crate::session::SortMode;
use crate::value::Value;

/// One side of a compiled machine comparison: a resolved column index
/// (read from the relation's column slices) or a pre-evaluated
/// literal.
enum FilterOperand {
    Col(usize),
    Const(Value),
}

/// A machine comparison compiled against one relation's schema.
type Comparison = (FilterOperand, CmpOp, FilterOperand);

/// Run a prepared plan as one query on `backend`, under an optional
/// dollar budget, recording what the query learned into `learned`:
/// every operator outcome plus its latency and per-round observations,
/// read with its usage from the Task Cache groups it posted. The
/// caller gates the plan before and owns what happens to `learned`
/// after.
pub(crate) fn execute_plan(
    catalog: &Catalog,
    backend: &mut impl QueryBackend,
    learned: &mut StatisticsStore,
    prepared: &Prepared,
    budget: Option<f64>,
) -> (Result<Relation>, BackendUsage) {
    let outcome = PlanRunner {
        catalog,
        backend: &mut *backend,
        stats: &mut *learned,
        budget,
        binding: false,
    }
    .run_plan(&prepared.compiled.root);
    let (usage, rounds) = backend.query_usage();
    learned.record_epoch(usage.hits_posted as u64, usage.elapsed_secs);
    for round in rounds {
        learned.record_round(round.work_units, round.secs);
    }
    (outcome, usage)
}

/// Executes one physical plan against a backend, feeding a statistics
/// store with every operator outcome.
struct PlanRunner<'r> {
    catalog: &'r Catalog,
    backend: &'r mut dyn CrowdBackend,
    stats: &'r mut StatisticsStore,
    /// The query's dollar budget; the backend's spend is the query's.
    budget: Option<f64>,
    /// Scan no rows: the walk only binds the plan ([`bind`]).
    binding: bool,
}

impl PlanRunner<'_> {
    /// Refuse to start new crowd work once the budget is spent.
    fn charge_gate(&mut self) -> Result<()> {
        if let Some(limit) = self.budget {
            let spent = self.backend.spend_dollars();
            if spent >= limit {
                return Err(QurkError::BudgetExceeded {
                    budget_dollars: limit,
                    spent_dollars: spent,
                });
            }
        }
        Ok(())
    }

    fn run_plan(&mut self, plan: &PhysicalPlan) -> Result<Relation> {
        match &plan.node {
            PhysNode::Scan { table, alias } => {
                let table = self.catalog.table(table)?;
                if self.binding {
                    Ok(Relation::new(table.schema().qualified(alias)?))
                } else {
                    table.clone().qualified(alias)
                }
            }
            PhysNode::MachineFilter { input, predicates } => {
                let rel = self.run_plan(input)?;
                let comparisons = predicates
                    .iter()
                    .map(|p| compile_comparison(rel.schema(), p))
                    .collect::<Result<Vec<_>>>()?;
                let mut mask = vec![true; rel.len()];
                sweep(&rel, &comparisons, &mut mask);
                Ok(gather_mask(&rel, &mask))
            }
            PhysNode::CrowdFilter {
                input,
                conjuncts,
                combined,
                op,
            } => {
                let rel = self.run_plan(input)?;
                if *combined {
                    return self.crowd_filter_combined(rel, conjuncts, op);
                }
                // §2.5: conjuncts issue serially by default, each
                // asking only about the rows its predecessors passed.
                let mut mask = vec![true; rel.len()];
                for call in conjuncts {
                    self.filter_step(&rel, call, op, &mut mask)?;
                }
                Ok(gather_mask(&rel, &mask))
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

    /// One crowd filter over the rows `mask` still passes: ask `call`'s
    /// task about their items under the task's own combiner, record
    /// the selectivity, and clear the rows that fail. Rows with NULL
    /// items cannot be asked about and fail the filter.
    fn filter_step(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        op: &FilterOp,
        mask: &mut [bool],
    ) -> Result<()> {
        self.charge_gate()?;
        let task = self.catalog.task(&call.name)?;
        let col = item_col(rel.schema(), call)?;
        let mut items = Vec::new();
        let mut rows = Vec::new();
        for (ri, v) in rel.column(col).iter().enumerate() {
            if mask[ri] {
                match v.as_item() {
                    Some(it) => {
                        items.push(it);
                        rows.push(ri);
                    }
                    None => mask[ri] = false,
                }
            }
        }
        let op = FilterOp {
            combiner: task.combiner,
            ..op.clone()
        };
        let passed = op.run(self.backend, task.oracle_key(), &items)?;
        self.stats.record_filter(
            task.oracle_key(),
            items.len(),
            passed.iter().filter(|&&b| b).count(),
        );
        for (&ri, pass) in rows.iter().zip(passed) {
            mask[ri] = pass;
        }
        Ok(())
    }

    /// §2.6 combining: all conjunct filters of a tuple in one HIT. The
    /// planner combines only conjuncts that share one item argument
    /// (the paper combines tasks over "the same tuple").
    fn crowd_filter_combined(
        &mut self,
        rel: Relation,
        conjuncts: &[UdfCall],
        op: &FilterOp,
    ) -> Result<Relation> {
        self.charge_gate()?;
        let predicates = conjuncts
            .iter()
            .map(|call| Ok(self.catalog.task(&call.name)?.oracle_key()))
            .collect::<Result<Vec<&str>>>()?;
        let col = item_col(rel.schema(), &conjuncts[0])?;
        let (items, item_rows) = non_null_items(&rel, col);
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
        // push-below-crowd rule §2.5 applies to conjunctions). Every
        // group's comparisons compile before any group pays the crowd.
        let compiled = groups
            .iter()
            .map(|group| {
                let mut comparisons = Vec::new();
                let mut calls = Vec::new();
                for p in group {
                    match p {
                        Predicate::Udf(call) => calls.push(call),
                        Predicate::Compare { .. } => {
                            comparisons.push(compile_comparison(rel.schema(), p)?)
                        }
                    }
                }
                Ok((comparisons, calls))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut keep = vec![false; rel.len()];
        for (comparisons, calls) in &compiled {
            let mut mask = vec![true; rel.len()];
            sweep(&rel, comparisons, &mut mask);
            for call in calls {
                self.filter_step(&rel, call, op, &mut mask)?;
            }
            for (k, m) in keep.iter_mut().zip(&mask) {
                *k |= m;
            }
        }
        Ok(gather_mask(&rel, &keep))
    }

    fn crowd_join(
        &mut self,
        left: Relation,
        right: Relation,
        clause: &JoinClause,
        op: &JoinOp,
        feature_filter: &FeatureFilterConfig,
    ) -> Result<Relation> {
        self.charge_gate()?;
        let join_task = self.catalog.task(&clause.on.name)?;
        let (lcol, rcol) = join_cols(left.schema(), right.schema(), &clause.on)?;

        // Literal POSSIBLY clauses prefilter one side (the §5 movie
        // query's numInScene); equality clauses drive pairwise feature
        // filtering.
        let mut left_rel = left;
        let mut right_rel = right;
        let mut eq_specs: Vec<FeatureSpec> = Vec::new();
        for p in &clause.possibly {
            match p {
                PossiblyClause::FeatureLit { call, op, value } => {
                    // The left input when `call` resolves there.
                    let (side, col) = match item_col(left_rel.schema(), call) {
                        Ok(col) => (&mut left_rel, col),
                        Err(_) => {
                            let col = item_col(right_rel.schema(), call)?;
                            (&mut right_rel, col)
                        }
                    };
                    *side = self.prefilter_literal(side, col, call, *op, value, feature_filter)?;
                }
                PossiblyClause::FeatureEq { left: lc, .. } => {
                    // Planning checked that both sides name this one
                    // task and that it is categorical.
                    let task = self.catalog.task(&lc.name)?;
                    eq_specs.push(FeatureSpec {
                        name: task.oracle_key().to_owned(),
                        num_options: task.feature_options().map_or(0, |(opts, _)| opts.len()),
                    });
                }
            }
        }

        // Rows with a NULL item cannot be asked about (or match).
        let (left_items, left_rows) = non_null_items(&left_rel, lcol);
        let (right_items, right_rows) = non_null_items(&right_rel, rcol);

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
        let candidates = candidates.as_deref();
        let pairs_asked = candidates.map_or(left_items.len() * right_items.len(), <[_]>::len);
        let outcome = op.run(self.backend, &left_items, &right_items, candidates)?;
        self.stats
            .record_join(&clause.on.name, pairs_asked, outcome.matches.len());

        let (li, ri): (Vec<usize>, Vec<usize>) = outcome
            .matches
            .iter()
            .map(|&(i, j)| (left_rows[i], right_rows[j]))
            .unzip();
        left_rel.gather(&li).zip(right_rel.gather(&ri))
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
        // Planning checked that the task is categorical.
        let opts = task
            .feature_options()
            .map(|(opts, _)| opts)
            .unwrap_or_default();
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
        let col = item_col(rel.schema(), call)?;
        if rel.is_empty() {
            return Ok(rel);
        }
        self.charge_gate()?;
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
        // Split keys: machine columns first, then at most one Rank UDF
        // (planning checked the shape).
        let mut machine: Vec<(usize, bool)> = Vec::new();
        let mut crowd: Option<(&UdfCall, bool)> = None;
        for k in keys {
            match &k.expr {
                Expr::Column(name) => machine.push((column(rel.schema(), name)?, k.desc)),
                Expr::Udf(call) => crowd = Some((call, k.desc)),
                Expr::Literal(_) => {}
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
            let col = item_col(rel.schema(), call)?;
            let dimension = task.oracle_key().to_owned();

            // Group rows sharing the machine-key prefix, sort each
            // group with the crowd (§5's per-actor scene ordering).
            // Grouping uses the sort's own equality, so NULL keys form
            // one group.
            let item_vals = rel.column(col);
            let mut final_order = Vec::with_capacity(rel.len());
            for group in order.chunk_by(|&a, &b| {
                key_cols
                    .iter()
                    .all(|&(col, _)| col[a].sort_cmp(&col[b]).is_eq())
            }) {
                let items: Vec<ItemId> = group
                    .iter()
                    .filter_map(|&ri| item_vals[ri].as_item())
                    .collect();
                if items.len() <= 1 {
                    final_order.extend_from_slice(group);
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
                let mut group_sorted = group.to_vec();
                group_sorted.sort_by_key(|&ri| {
                    item_vals[ri]
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

    /// The projection of `items` out of `rel`. A name an earlier column
    /// took gets its position appended (`name#i`), so a repeated item —
    /// `c.name, c.name`, or `gender(c.img), gender(p.img)` — is a
    /// column of its own.
    fn project(&mut self, rel: Relation, items: &[SelectItem]) -> Result<Relation> {
        // Fast path: SELECT *.
        if items.len() == 1 && matches!(items[0], SelectItem::Star) {
            return Ok(rel);
        }
        let input = rel.schema();
        let mut schema = Schema::default();
        let mut columns = Vec::new();
        let mut push = |name: &str, ty, values| {
            if schema.index_of(name).is_none() {
                schema.push_field(name, ty);
            } else {
                schema.push_field(&format!("{name}#{}", columns.len()), ty);
            }
            columns.push(values);
        };
        // Cache generative runs per (task, arg) to avoid re-asking for
        // each selected field (the Fields mechanism answers them all at
        // once, §2.2): the answered rows, one per non-NULL item, and the
        // relation rows they belong to.
        type GenRun = (Vec<crate::ops::generative::GenRow>, Vec<usize>);
        let mut gen_cache: HashMap<String, GenRun> = HashMap::new();
        for item in items {
            match item {
                SelectItem::Star => {
                    for (i, f) in input.fields().iter().enumerate() {
                        push(&f.name, f.ty, rel.column(i).to_vec());
                    }
                }
                SelectItem::Column(name) => {
                    let i = column(input, name)?;
                    push(name, input.fields()[i].ty, rel.column(i).to_vec());
                }
                SelectItem::Udf { call, field } => {
                    let col = item_col(input, call)?;
                    let task = self.catalog.task(&call.name)?;
                    let key = format!("{call:?}");
                    if !gen_cache.contains_key(&key) {
                        self.charge_gate()?;
                        let (items_vec, item_rows) = non_null_items(&rel, col);
                        let out = GenerativeOp::default().run(self.backend, task, &items_vec)?;
                        gen_cache.insert(key.clone(), (out.rows, item_rows));
                    }
                    let (rows, item_rows) = &gen_cache[&key];
                    let fname = field.as_deref().unwrap_or("value");
                    // A NULL item's row stays NULL.
                    let mut values = vec![Value::Null; rel.len()];
                    for (&ri, r) in item_rows.iter().zip(rows) {
                        values[ri] = r.get(fname).cloned().unwrap_or(Value::Null);
                    }
                    let name = match field {
                        Some(f) => format!("{}.{f}", call.name),
                        None => call.name.clone(),
                    };
                    push(&name, ValueType::Text, values);
                }
            }
        }
        Relation::from_columns(schema, columns)
    }
}

/// Bind `plan` against the catalog before anything runs, and return
/// the schema of the relation it produces: the plan runner itself over
/// the catalog's schemas with no rows, a throwaway statistics store, no
/// budget and an empty-trace replay backend. Empty inputs post no crowd
/// work, so the walk resolves every name and builds every schema where
/// the real run would, and fails with the error it would give: an
/// unknown column ([`QurkError::UnknownColumn`]) or a repeated column
/// name ([`QurkError::Schema`]) fails here, before any HIT is posted.
pub(crate) fn bind(plan: &PhysicalPlan, catalog: &Catalog) -> Result<Schema> {
    let rel = PlanRunner {
        catalog,
        backend: &mut ReplayBackend::from_trace(ReplayTrace::default()),
        stats: &mut StatisticsStore::default(),
        budget: None,
        binding: true,
    }
    .run_plan(plan)?;
    Ok(rel.schema().clone())
}

/// The index of the column `name` resolves to in `schema`.
fn column(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .resolve(name)
        .ok_or_else(|| QurkError::UnknownColumn(name.to_owned()))
}

/// Compile a machine predicate against `schema` for [`sweep`]. Fails,
/// whatever the data, on a column the schema cannot resolve, a UDF
/// operand, or a crowd predicate.
fn compile_comparison(schema: &Schema, p: &Predicate) -> Result<Comparison> {
    let operand = |e: &Expr| -> Result<FilterOperand> {
        match e {
            Expr::Column(name) => column(schema, name).map(FilterOperand::Col),
            Expr::Literal(Literal::Number(n)) => Ok(FilterOperand::Const(if n.fract() == 0.0 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            })),
            Expr::Literal(Literal::Str(s)) => Ok(FilterOperand::Const(Value::text(s))),
            Expr::Udf(_) => Err(QurkError::Other(
                "UDF calls cannot be evaluated by machine".into(),
            )),
        }
    };
    match p {
        Predicate::Compare { left, op, right } => Ok((operand(left)?, *op, operand(right)?)),
        Predicate::Udf(_) => Err(QurkError::Other(
            "machine filter received a crowd predicate".into(),
        )),
    }
}

/// AND every comparison into `mask` (one flag per row of `rel`),
/// sweeping the relation's column slices window by window. A NULL
/// comparison fails the row.
fn sweep(rel: &Relation, comparisons: &[Comparison], mask: &mut [bool]) {
    for w in rel.windows() {
        let mask = &mut mask[w.start()..w.start() + w.len()];
        for (lop, op, rop) in comparisons {
            let pass = |l: &Value, r: &Value| l.sql_cmp(r).is_some_and(|ord| op.eval(ord));
            match (lop, rop) {
                (FilterOperand::Col(li), FilterOperand::Col(ri)) => {
                    let (lc, rc) = (w.column(*li), w.column(*ri));
                    for (k, m) in mask.iter_mut().enumerate() {
                        *m = *m && pass(&lc[k], &rc[k]);
                    }
                }
                (FilterOperand::Col(li), FilterOperand::Const(v)) => {
                    let lc = w.column(*li);
                    for (k, m) in mask.iter_mut().enumerate() {
                        *m = *m && pass(&lc[k], v);
                    }
                }
                (FilterOperand::Const(v), FilterOperand::Col(ri)) => {
                    let rc = w.column(*ri);
                    for (k, m) in mask.iter_mut().enumerate() {
                        *m = *m && pass(v, &rc[k]);
                    }
                }
                (FilterOperand::Const(l), FilterOperand::Const(r)) => {
                    if !pass(l, r) {
                        mask.fill(false);
                    }
                }
            }
        }
    }
}

/// The rows of `rel` whose `mask` flag is set, in order.
fn gather_mask(rel: &Relation, mask: &[bool]) -> Relation {
    let keep: Vec<usize> = (0..rel.len()).filter(|&ri| mask[ri]).collect();
    rel.gather(&keep)
}

/// The Item column a crowd UDF call asks about: its first argument.
fn item_col(schema: &Schema, call: &UdfCall) -> Result<usize> {
    let arg = call
        .args
        .first()
        .ok_or_else(|| QurkError::Other(format!("task {} needs an argument", call.name)))?;
    resolve_item_col(schema, arg)
}

/// Resolve a UDF argument to an Item-typed column index.
fn resolve_item_col(schema: &Schema, e: &Expr) -> Result<usize> {
    let Expr::Column(name) = e else {
        return Err(QurkError::Other(format!(
            "crowd UDF argument must be a column, got {e:?}"
        )));
    };
    if let Some(i) = schema.resolve(name) {
        if schema.fields()[i].ty == ValueType::Item {
            return Ok(i);
        }
    }
    // Whole-tuple reference (`isFemale(c)`): the single Item column
    // under that alias.
    let prefix = format!("{name}.");
    let candidates: Vec<usize> = schema
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

/// The Item columns a join's ON call compares: its first argument on
/// the left input and its second on the right, or, when that does not
/// resolve, the other way round.
fn join_cols(left: &Schema, right: &Schema, on: &UdfCall) -> Result<(usize, usize)> {
    // Planning checked the call's arity against the task's two
    // parameters.
    match (
        resolve_item_col(left, &on.args[0]),
        resolve_item_col(right, &on.args[1]),
    ) {
        (Ok(l), Ok(r)) => Ok((l, r)),
        _ => {
            // Swapped argument order.
            let l = resolve_item_col(left, &on.args[1])?;
            let r = resolve_item_col(right, &on.args[0])?;
            Ok((l, r))
        }
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

include!("engine_tests.rs");

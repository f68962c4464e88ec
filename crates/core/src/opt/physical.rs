//! Physical plan selection.
//!
//! [`crate::plan`] produces the paper's *logical* plan (§2.5's fixed
//! rules). This module lowers it to a [`PhysicalPlan`] in which every
//! crowd operator carries its concrete configuration — filter batch
//! and ordering, join batching strategy, feature-filter subset, sort
//! implementation — chosen by one of two modes:
//!
//! * [`OptimizeMode::AsWritten`] — the paper's behaviour: operators
//!   run with the configured defaults in query order ("Qurk currently
//!   lacks selectivity estimation, so it orders filters and joins as
//!   they appear in the query", §2.5).
//! * [`OptimizeMode::CostBased`] (the default) — consults the
//!   session's [`StatisticsStore`] and the [`CostModel`] to pick the
//!   cheapest alternative. **Every deviation from the as-written plan
//!   is gated on learned evidence**: with an empty store the compiled
//!   plan is identical to `AsWritten`, so the new default degrades
//!   gracefully and repeat queries stay cache-friendly.
//!
//! Decisions made (each recorded in [`CompiledPlan::decisions`]):
//!
//! 1. **Filter ordering** — conjuncts ranked by `(1 − σ)/cost`
//!    descending (most-selective-per-dollar first), the classic
//!    predicate-ordering rule §2.5 punts on. Unknown selectivities
//!    rank last in written order.
//! 2. **Filter combining** — §2.6 combining chosen when the learned
//!    selectivities make `⌈n/b⌉` strictly cheaper than the serial
//!    `Σ ⌈nᵢ/b⌉`.
//! 3. **Join batching** — Simple / NaiveBatch / SmartBatch enumerated
//!    under the §3.1 formulas at the estimated candidate-pair count.
//! 4. **Feature-filter subset** — features whose *remembered* κ or σ
//!    already fails the §3.2 thresholds (the §5.4 ambiguity rule) are
//!    pruned before paying their sampling HITs again.
//! 5. **Join input ordering** — left-deep chains reordered cheapest-
//!    first using estimated cardinalities (skipped for `SELECT *`,
//!    whose column order is the join order).
//! 6. **Sort strategy** — Compare / Rate / Hybrid (and the hybrid's
//!    comparison budget `S`) chosen from the learned dimension
//!    ambiguity, mirroring §4.3's "rating works when workers agree".
//! 7. **MAX/MIN lowering** — `ORDER BY rank LIMIT 1` lowers to the
//!    §2.3 tournament in both modes (this was previously a hardwired
//!    executor rule).

use crate::catalog::Catalog;
use crate::error::Result;
use crate::lang::ast::{Expr, JoinClause, OrderExpr, Predicate, SelectItem, UdfCall};
use crate::ops::filter::FilterOp;
use crate::ops::join::feature_filter::FeatureFilterConfig;
use crate::ops::join::{JoinOp, JoinStrategy};
use crate::ops::sort::{HybridSort, RateSort};
use crate::opt::cost::{CostEstimate, CostModel};
use crate::opt::stats::StatisticsStore;
use crate::plan::LogicalPlan;
use crate::session::{ExecConfig, SortMode};
use crate::task::TaskType;

/// How [`compile`] chooses physical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeMode {
    /// Cost-based selection from learned statistics; identical to
    /// `AsWritten` while the statistics store is empty.
    #[default]
    CostBased,
    /// The paper's fixed rules: operators exactly as configured, in
    /// query order.
    AsWritten,
}

/// Which parts of the configuration the user fixed explicitly (via
/// `QueryBuilder`/`SessionBuilder` setters). The optimizer never
/// overrides a pinned choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinSet {
    pub filter: bool,
    pub join: bool,
    pub feature_filter: bool,
    pub sort: bool,
    pub combine: bool,
}

/// Inputs smaller than this keep their as-written join strategy: at
/// tiny pair counts the batching alternatives are within noise of each
/// other and accuracy (§3.3's batching penalty) dominates.
pub const MIN_JOIN_PAIRS_FOR_REBATCH: f64 = 150.0;

/// Lists shorter than this keep their as-written sort: Compare's
/// quadratic cost is modest below ~16 items and its accuracy is the
/// §4.1.1 gold standard.
pub const MIN_SORT_N_FOR_SWITCH: usize = 16;

/// Learned dimension ambiguity below which a pure Rate sort suffices
/// (§4.2.2: rating tracks comparison closely on crisp metrics).
pub const RATE_AMBIGUITY_MAX: f64 = 0.20;

/// Ambiguity band in which the Hybrid sort spends a comparison budget
/// to repair the rating order (§4.1.3).
pub const HYBRID_AMBIGUITY_MAX: f64 = 0.45;

/// A logical plan lowered to concrete crowd operators, annotated with
/// the cost model's estimates.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub node: PhysNode,
    /// Estimated output cardinality.
    pub rows_out: f64,
    /// Estimated crowd cost of this node alone (children excluded).
    pub cost: CostEstimate,
}

/// One physical operator.
#[derive(Debug, Clone)]
pub enum PhysNode {
    Scan {
        table: String,
        alias: String,
    },
    MachineFilter {
        input: Box<PhysicalPlan>,
        predicates: Vec<Predicate>,
    },
    /// Conjunct crowd filters in execution order; `combined` selects
    /// §2.6 combining (all conjuncts share HITs) over serial rounds.
    CrowdFilter {
        input: Box<PhysicalPlan>,
        conjuncts: Vec<UdfCall>,
        combined: bool,
        op: FilterOp,
    },
    CrowdFilterOr {
        input: Box<PhysicalPlan>,
        groups: Vec<Vec<Predicate>>,
        op: FilterOp,
    },
    Join {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        /// Join clause after feature-subset pruning.
        clause: JoinClause,
        op: JoinOp,
        feature_filter: FeatureFilterConfig,
        /// POSSIBLY features dropped from stats before sampling.
        pruned_features: Vec<String>,
    },
    OrderBy {
        input: Box<PhysicalPlan>,
        keys: Vec<OrderExpr>,
        mode: SortMode,
    },
    /// `ORDER BY rank(...) [DESC] LIMIT 1` lowered to the §2.3
    /// MAX/MIN tournament.
    ExtractExtreme {
        input: Box<PhysicalPlan>,
        call: UdfCall,
        desc: bool,
    },
    Limit {
        input: Box<PhysicalPlan>,
        n: usize,
    },
    Project {
        input: Box<PhysicalPlan>,
        items: Vec<SelectItem>,
    },
}

impl PhysicalPlan {
    /// Direct children, for tree walks.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.node {
            PhysNode::Scan { .. } => Vec::new(),
            PhysNode::MachineFilter { input, .. }
            | PhysNode::CrowdFilter { input, .. }
            | PhysNode::CrowdFilterOr { input, .. }
            | PhysNode::OrderBy { input, .. }
            | PhysNode::ExtractExtreme { input, .. }
            | PhysNode::Limit { input, .. }
            | PhysNode::Project { input, .. } => vec![input],
            PhysNode::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Estimated cost of this subtree (node + all children).
    pub fn total_cost(&self) -> CostEstimate {
        self.children()
            .into_iter()
            .fold(self.cost, |acc, c| acc + c.total_cost())
    }
}

/// The output of [`compile`]: the chosen plan plus the optimizer's
/// paper trail.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    pub root: PhysicalPlan,
    pub mode: OptimizeMode,
    /// Human-readable record of every cost-based deviation (empty for
    /// as-written plans).
    pub decisions: Vec<String>,
    /// Total estimated cost of the chosen plan.
    pub estimate: CostEstimate,
}

/// Lower a logical plan to physical operators under `config.optimize`.
pub fn compile(
    logical: &LogicalPlan,
    catalog: &Catalog,
    config: &ExecConfig,
    stats: &StatisticsStore,
) -> Result<CompiledPlan> {
    let model = CostModel::new(stats);
    let mut cx = Cx {
        catalog,
        config,
        stats,
        model,
        mode: config.optimize,
        star: plan_selects_star(logical),
        decisions: Vec::new(),
    };
    let root = cx.node(logical)?;
    let estimate = root.total_cost();
    Ok(CompiledPlan {
        root,
        mode: config.optimize,
        decisions: cx.decisions,
        estimate,
    })
}

fn plan_selects_star(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Project { items, .. } => items.iter().any(|i| matches!(i, SelectItem::Star)),
        _ => false,
    }
}

struct Cx<'a> {
    catalog: &'a Catalog,
    config: &'a ExecConfig,
    stats: &'a StatisticsStore,
    model: CostModel<'a>,
    mode: OptimizeMode,
    star: bool,
    decisions: Vec<String>,
}

impl Cx<'_> {
    fn cost_based(&self) -> bool {
        self.mode == OptimizeMode::CostBased
    }

    fn node(&mut self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let rows = self.catalog.table(table)?.len() as f64;
                Ok(PhysicalPlan {
                    node: PhysNode::Scan {
                        table: table.clone(),
                        alias: alias.clone(),
                    },
                    rows_out: rows,
                    cost: CostEstimate::ZERO,
                })
            }
            LogicalPlan::MachineFilter { input, predicates } => {
                let input = self.node(input)?;
                let rows = input.rows_out;
                Ok(PhysicalPlan {
                    node: PhysNode::MachineFilter {
                        input: Box::new(input),
                        predicates: predicates.clone(),
                    },
                    // Machine selectivity is unobserved; assume no
                    // shrinkage (a conservative upper bound).
                    rows_out: rows,
                    cost: CostEstimate::ZERO,
                })
            }
            LogicalPlan::CrowdFilter { input, conjuncts } => {
                let input = self.node(input)?;
                self.crowd_filter(input, conjuncts)
            }
            LogicalPlan::CrowdFilterOr { input, groups } => {
                let input = self.node(input)?;
                let rows = input.rows_out;
                let op = self.config.filter.clone();
                let mut cost = CostEstimate::ZERO;
                for group in groups {
                    for p in group {
                        if matches!(p, Predicate::Udf(_)) {
                            cost += self.model.filter(rows, &op);
                        }
                    }
                }
                Ok(PhysicalPlan {
                    node: PhysNode::CrowdFilterOr {
                        input: Box::new(input),
                        groups: groups.clone(),
                        op,
                    },
                    rows_out: rows,
                    cost,
                })
            }
            LogicalPlan::Join { .. } => self.join_chain(plan),
            LogicalPlan::OrderBy { input, keys } => {
                let input = self.node(input)?;
                self.order_by(input, keys)
            }
            LogicalPlan::Limit { input, n } => {
                // §2.3 MAX/MIN lowering (both modes — this rule moved
                // here from the executor).
                if *n == 1 {
                    if let LogicalPlan::OrderBy {
                        input: sort_input,
                        keys,
                    } = input.as_ref()
                    {
                        if let [OrderExpr {
                            expr: Expr::Udf(call),
                            desc,
                        }] = keys.as_slice()
                        {
                            let inner = self.node(sort_input)?;
                            let rows_out = inner.rows_out.min(1.0);
                            let cost =
                                self.model
                                    .extract_best(inner.rows_out.ceil() as usize, 5, None);
                            return Ok(PhysicalPlan {
                                node: PhysNode::ExtractExtreme {
                                    input: Box::new(inner),
                                    call: call.clone(),
                                    desc: *desc,
                                },
                                rows_out,
                                cost,
                            });
                        }
                    }
                }
                let input = self.node(input)?;
                let rows = input.rows_out.min(*n as f64);
                Ok(PhysicalPlan {
                    node: PhysNode::Limit {
                        input: Box::new(input),
                        n: *n,
                    },
                    rows_out: rows,
                    cost: CostEstimate::ZERO,
                })
            }
            LogicalPlan::Project { input, items } => {
                let input = self.node(input)?;
                let rows = input.rows_out;
                // Generative SELECT items cost one extraction pass per
                // distinct call.
                let mut cost = CostEstimate::ZERO;
                let mut seen: Vec<String> = Vec::new();
                for item in items {
                    if let SelectItem::Udf { call, .. } = item {
                        let key = format!("{call:?}");
                        if !seen.contains(&key) {
                            seen.push(key);
                            cost += self.model.generative_select(rows);
                        }
                    }
                }
                Ok(PhysicalPlan {
                    node: PhysNode::Project {
                        input: Box::new(input),
                        items: items.clone(),
                    },
                    rows_out: rows,
                    cost,
                })
            }
        }
    }

    // ----------------------------------------------------- filters

    fn crowd_filter(&mut self, input: PhysicalPlan, conjuncts: &[UdfCall]) -> Result<PhysicalPlan> {
        let rows = input.rows_out;
        let op = self.config.filter.clone();
        let pins = self.config.pins;

        let sel_of = |c: &UdfCall| -> Option<f64> {
            self.catalog
                .task(&c.name)
                .ok()
                .and_then(|t| self.stats.filter_selectivity(t.oracle_key()))
        };

        let mut ordered: Vec<UdfCall> = conjuncts.to_vec();
        let any_known = conjuncts.iter().any(|c| sel_of(c).is_some());

        // Decision 1: rank conjuncts by (1 − σ)/cost. Per-tuple cost
        // is 1/batch for every conjunct here, so the rank reduces to
        // ascending selectivity; unknowns (σ = 1 ⇒ rank 0) keep their
        // written order at the tail.
        if self.cost_based() && conjuncts.len() > 1 && any_known {
            let rank = |c: &UdfCall| -> f64 {
                let sel = sel_of(c).unwrap_or(1.0);
                (1.0 - sel) * op.batch_size as f64
            };
            let before: Vec<&str> = ordered.iter().map(|c| c.name.as_str()).collect();
            let mut indexed: Vec<(usize, UdfCall)> = ordered.iter().cloned().enumerate().collect();
            indexed.sort_by(|(ia, a), (ib, b)| {
                rank(b)
                    .partial_cmp(&rank(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ia.cmp(ib))
            });
            let after: Vec<UdfCall> = indexed.into_iter().map(|(_, c)| c).collect();
            if after
                .iter()
                .map(|c| &c.name)
                .ne(ordered.iter().map(|c| &c.name))
            {
                self.decisions.push(format!(
                    "filter order: {} -> {} (rank (1-sel)/cost)",
                    before.join(" AND "),
                    after
                        .iter()
                        .map(|c| c.name.as_str())
                        .collect::<Vec<_>>()
                        .join(" AND ")
                ));
            }
            ordered = after;
        }

        let sels: Vec<f64> = ordered.iter().map(|c| sel_of(c).unwrap_or(1.0)).collect();
        let serial = self.model.serial_filters(rows, &sels, &op);
        let combined_est = self.model.combined_filter(rows, ordered.len(), &op);

        // Decision 2: §2.6 combining when evidence says it is strictly
        // cheaper. Without evidence the configured style stands. A
        // combined HIT asks every predicate about one item per tuple,
        // so conjuncts over different item arguments stay serial.
        let combinable = ordered.len() > 1
            && ordered
                .windows(2)
                .all(|w| w[0].args.first() == w[1].args.first());
        let mut combined = self.config.combine_conjunct_filters && combinable;
        if self.cost_based()
            && !pins.combine
            && combinable
            && any_known
            && !combined
            && combined_est.hits < serial.hits
        {
            combined = true;
            self.decisions.push(format!(
                "combine {} conjunct filters: {:.0} HITs vs {:.0} serial",
                ordered.len(),
                combined_est.hits,
                serial.hits
            ));
        }

        let cost = if combined { combined_est } else { serial };
        let out_rows = rows * sels.iter().product::<f64>();
        Ok(PhysicalPlan {
            node: PhysNode::CrowdFilter {
                input: Box::new(input),
                conjuncts: ordered,
                combined,
                op,
            },
            rows_out: out_rows,
            cost,
        })
    }

    // ------------------------------------------------------- joins

    /// Compile a left-deep join chain, optionally reordering the join
    /// sequence (decision 5).
    fn join_chain(&mut self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        // Flatten Join(Join(Join(base, r1), r2), r3).
        let mut clauses: Vec<(&JoinClause, &LogicalPlan)> = Vec::new();
        let mut cursor = plan;
        while let LogicalPlan::Join {
            left,
            right,
            clause,
        } = cursor
        {
            clauses.push((clause, right));
            cursor = left;
        }
        clauses.reverse();
        let base = self.node(cursor)?;
        let rights: Vec<PhysicalPlan> = clauses
            .iter()
            .map(|(_, r)| self.node(r))
            .collect::<Result<_>>()?;

        let mut order: Vec<usize> = (0..clauses.len()).collect();
        if self.cost_based()
            && clauses.len() > 1
            && !self.star
            && clauses
                .iter()
                .all(|(c, _)| self.stats.join_selectivity(&c.on.name).is_some())
            && chain_is_reorderable(cursor, &clauses)
        {
            // Greedy cheapest-first: joining the smallest inputs early
            // keeps the left side (and thus every later cross
            // product) small.
            let mut ranked = order.clone();
            ranked.sort_by(|&a, &b| {
                rights[a]
                    .rows_out
                    .partial_cmp(&rights[b].rows_out)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            if ranked != order {
                self.decisions.push(format!(
                    "join order: {} (ascending estimated cardinality)",
                    ranked
                        .iter()
                        .map(|&i| clauses[i].0.right.binding().to_owned())
                        .collect::<Vec<_>>()
                        .join(" then ")
                ));
                order = ranked;
            }
        }

        let mut rights: Vec<Option<PhysicalPlan>> = rights.into_iter().map(Some).collect();
        let mut acc = base;
        for &i in &order {
            let right = rights[i].take().expect("each join consumed once");
            acc = self.join_node(acc, right, clauses[i].0)?;
        }
        Ok(acc)
    }

    fn join_node(
        &mut self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        clause: &JoinClause,
    ) -> Result<PhysicalPlan> {
        use crate::lang::ast::PossiblyClause;
        let n = left.rows_out;
        let m = right.rows_out;
        let pins = self.config.pins;
        let ff = self.config.feature_filter.clone();

        // Decision 4: prune POSSIBLY features whose remembered κ/σ
        // already fails the §3.2 thresholds — don't pay to re-sample a
        // known-bad feature (§5.4).
        let mut kept_possibly = Vec::new();
        let mut pruned = Vec::new();
        let mut feature_sel = 1.0f64;
        let mut num_eq = 0usize;
        for p in &clause.possibly {
            match p {
                PossiblyClause::FeatureEq { left: lc, .. } => {
                    let stat = self
                        .catalog
                        .task(&lc.name)
                        .ok()
                        .and_then(|t| self.stats.feature(t.oracle_key()));
                    if self.cost_based() && !pins.feature_filter {
                        if let Some(s) = stat {
                            if s.kappa < ff.kappa_threshold || s.selectivity > ff.max_selectivity {
                                pruned.push(lc.name.clone());
                                self.decisions.push(format!(
                                    "drop feature {}: kappa {:.2} / sigma {:.2} already \
                                     fails thresholds",
                                    lc.name, s.kappa, s.selectivity
                                ));
                                continue;
                            }
                        }
                    }
                    if let Some(s) = stat {
                        feature_sel *= s.selectivity.clamp(0.0, 1.0);
                    }
                    num_eq += 1;
                    kept_possibly.push(p.clone());
                }
                PossiblyClause::FeatureLit { .. } => kept_possibly.push(p.clone()),
            }
        }

        let mut cost = CostEstimate::ZERO;
        // Literal prefilters: one extraction pass over the side they
        // filter (side unknown here; charge the larger one).
        for p in &kept_possibly {
            if matches!(p, PossiblyClause::FeatureLit { .. }) {
                cost += self.model.feature_extraction(n.max(m), 1, &ff);
            }
        }
        if num_eq > 0 {
            cost += self.model.feature_filter(n, m, num_eq, num_eq, &ff);
        }

        let pairs = (n * m * feature_sel).max(0.0);
        let join_sel = self.stats.join_selectivity(&clause.on.name);

        // Decision 3: enumerate batching strategies at the estimated
        // candidate-pair count.
        let as_written = self.config.join.strategy;
        let mut strategy = as_written;
        if self.cost_based()
            && !pins.join
            && join_sel.is_some()
            && n * m >= MIN_JOIN_PAIRS_FOR_REBATCH
        {
            let candidates = [
                as_written,
                JoinStrategy::NaiveBatch(10),
                JoinStrategy::SmartBatch { rows: 3, cols: 3 },
                JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            ];
            let assignments = self.config.join.assignments;
            let best = candidates
                .into_iter()
                .map(|s| (self.model.join(n, m, pairs, s, assignments).hits, s))
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(_, s)| s)
                .unwrap_or(as_written);
            let written_hits = self.model.join(n, m, pairs, as_written, assignments).hits;
            let best_hits = self.model.join(n, m, pairs, best, assignments).hits;
            if best != as_written && best_hits < written_hits {
                self.decisions.push(format!(
                    "join strategy: {as_written:?} -> {best:?} ({best_hits:.0} vs \
                     {written_hits:.0} HITs at ~{pairs:.0} candidate pairs)"
                ));
                strategy = best;
            }
        }

        let mut op = self.config.join.clone();
        op.strategy = strategy;
        if let Ok(task) = self.catalog.task(&clause.on.name) {
            if task.ty == TaskType::EquiJoin {
                op.combiner = task.combiner;
            }
        }
        cost += self.model.join(n, m, pairs, strategy, op.assignments);

        // Expected matches: learned match rate, else the equi-join
        // heuristic (about one partner per smaller-side row).
        let matches = match join_sel {
            Some(s) => pairs * s,
            None => n.min(m),
        }
        .min(pairs.max(n.min(m)));

        let mut clause = clause.clone();
        clause.possibly = kept_possibly;
        Ok(PhysicalPlan {
            node: PhysNode::Join {
                left: Box::new(left),
                right: Box::new(right),
                clause,
                op,
                feature_filter: ff,
                pruned_features: pruned,
            },
            rows_out: matches,
            cost,
        })
    }

    // ------------------------------------------------------- sorts

    fn order_by(&mut self, input: PhysicalPlan, keys: &[OrderExpr]) -> Result<PhysicalPlan> {
        let rows = input.rows_out;
        let n = rows.ceil() as usize;
        let pins = self.config.pins;
        let crowd_key = keys.iter().find_map(|k| match &k.expr {
            Expr::Udf(call) => Some(call),
            _ => None,
        });

        let mut mode = self.config.sort.clone();
        if let Some(call) = crowd_key {
            let dim = self
                .catalog
                .task(&call.name)
                .ok()
                .map(|t| t.oracle_key().to_owned());
            let ambiguity = dim.as_deref().and_then(|d| self.stats.sort_ambiguity(d));

            // Decision 6: pick the sort implementation from the learned
            // dimension ambiguity (§4.3), carrying the configured
            // assignment override into the replacement operator.
            if self.cost_based() && !pins.sort && n >= MIN_SORT_N_FOR_SWITCH {
                if let Some(amb) = ambiguity {
                    let assignments = match &mode {
                        SortMode::Compare(op) => op.assignments,
                        SortMode::Rate(op) => op.assignments,
                        SortMode::Hybrid(op, _) => op.assignments,
                    };
                    let candidate = if amb <= RATE_AMBIGUITY_MAX {
                        Some(SortMode::Rate(RateSort {
                            assignments,
                            ..RateSort::default()
                        }))
                    } else if amb <= HYBRID_AMBIGUITY_MAX {
                        let iters = n.div_ceil(3);
                        Some(SortMode::Hybrid(
                            HybridSort {
                                assignments,
                                rate: RateSort {
                                    assignments,
                                    ..RateSort::default()
                                },
                                ..HybridSort::default()
                            },
                            iters,
                        ))
                    } else {
                        None
                    };
                    if let Some(candidate) = candidate {
                        let written = self.model.sort(n, &mode);
                        let est = self.model.sort(n, &candidate);
                        if est.hits < written.hits {
                            self.decisions.push(format!(
                                "sort strategy: {} -> {} (ambiguity {:.2}, {:.0} vs \
                                 {:.0} HITs over {n} items)",
                                sort_label(&mode),
                                sort_label(&candidate),
                                amb,
                                est.hits,
                                written.hits
                            ));
                            mode = candidate;
                        }
                    }
                }
            }
        }

        let cost = if crowd_key.is_some() {
            self.model.sort(n, &mode)
        } else {
            CostEstimate::ZERO
        };
        Ok(PhysicalPlan {
            node: PhysNode::OrderBy {
                input: Box::new(input),
                keys: keys.to_vec(),
                mode,
            },
            rows_out: rows,
            cost,
        })
    }
}

/// The alias the base sub-plan's scan binds (filters sit above it).
fn base_scan_alias(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { alias, .. } => Some(alias),
        LogicalPlan::MachineFilter { input, .. }
        | LogicalPlan::CrowdFilter { input, .. }
        | LogicalPlan::CrowdFilterOr { input, .. } => base_scan_alias(input),
        _ => None,
    }
}

/// The table binding a qualified column/UDF argument references;
/// `None` when it cannot be determined (unqualified or non-column).
fn arg_binding(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column(c) if c.contains('.') => c.split('.').next(),
        _ => None,
    }
}

/// A join chain may only be reordered when every clause's arguments
/// (ON and POSSIBLY) provably reference just the base table and the
/// clause's own right table. A clause that touches another join's
/// right side (e.g. `JOIN v ON j2(u.img, v.img)`) fixes its position:
/// executed early, its columns would not exist yet.
fn chain_is_reorderable(base: &LogicalPlan, clauses: &[(&JoinClause, &LogicalPlan)]) -> bool {
    use crate::lang::ast::PossiblyClause;
    let Some(base_alias) = base_scan_alias(base) else {
        return false;
    };
    clauses.iter().all(|(c, _)| {
        let own = c.right.binding();
        let arg_ok = |e: &Expr| match arg_binding(e) {
            Some(b) => b == base_alias || b == own,
            None => false, // unresolvable: assume dependent
        };
        c.on.args.iter().all(arg_ok)
            && c.possibly.iter().all(|p| match p {
                PossiblyClause::FeatureEq { left, right } => {
                    left.args.iter().all(arg_ok) && right.args.iter().all(arg_ok)
                }
                PossiblyClause::FeatureLit { call, .. } => call.args.iter().all(arg_ok),
            })
    })
}

/// Short human label for a sort mode.
pub fn sort_label(mode: &SortMode) -> String {
    match mode {
        SortMode::Compare(op) => format!("Compare(S={})", op.group_size),
        SortMode::Rate(op) => format!("Rate(b={})", op.batch_size),
        SortMode::Hybrid(op, iters) => format!("Hybrid(S={}, iters={iters})", op.window),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse_query;
    use crate::plan::plan_query;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::value::Value;

    fn catalog(rows: usize) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(&[("id", ValueType::Int), ("img", ValueType::Item)]);
        let mut t = Relation::new(schema.clone());
        for i in 0..rows {
            t.push(vec![Value::Int(i as i64), Value::Null]).unwrap();
        }
        c.register_table("t", t.clone());
        c.register_table("u", t.clone());
        c.register_table("v", t);
        c.define_tasks(
            r#"TASK a(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK b(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK j(x, y) TYPE EquiJoin:
                Combiner: QualityAdjust
               TASK j2(x, y) TYPE EquiJoin:
                Combiner: MajorityVote
               TASK g(field) TYPE Generative:
                Prompt: "%s?", tuple[field]
                Response: Radio("G", ["x", "y", UNKNOWN])
               TASK byD(field) TYPE Rank:
                OrderDimensionName: "d"
            "#,
        )
        .unwrap();
        c
    }

    fn compile_sql(
        sql: &str,
        rows: usize,
        config: &ExecConfig,
        stats: &StatisticsStore,
    ) -> CompiledPlan {
        let cat = catalog(rows);
        let logical = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        compile(&logical, &cat, config, stats).unwrap()
    }

    #[test]
    fn empty_stats_compiles_as_written() {
        let config = ExecConfig::default();
        let stats = StatisticsStore::new();
        let plan = compile_sql(
            "SELECT id FROM t WHERE a(t.img) AND b(t.img) ORDER BY byD(t.img)",
            30,
            &config,
            &stats,
        );
        assert!(plan.decisions.is_empty(), "{:?}", plan.decisions);
        // Conjuncts stay in written order, serial, Compare sort.
        fn find_filter(p: &PhysicalPlan) -> Option<(&Vec<UdfCall>, bool)> {
            if let PhysNode::CrowdFilter {
                conjuncts,
                combined,
                ..
            } = &p.node
            {
                return Some((conjuncts, *combined));
            }
            p.children().into_iter().find_map(find_filter)
        }
        let (conjuncts, combined) = find_filter(&plan.root).unwrap();
        assert_eq!(conjuncts[0].name, "a");
        assert_eq!(conjuncts[1].name, "b");
        assert!(!combined);
    }

    #[test]
    fn learned_selectivity_reorders_and_combines_filters() {
        let config = ExecConfig::default();
        let mut stats = StatisticsStore::new();
        stats.record_filter("a", 100, 90); // unselective
        stats.record_filter("b", 100, 10); // selective
        let plan = compile_sql(
            "SELECT id FROM t WHERE a(t.img) AND b(t.img)",
            30,
            &config,
            &stats,
        );
        let PhysNode::Project { input, .. } = &plan.root.node else {
            panic!()
        };
        let PhysNode::CrowdFilter {
            conjuncts,
            combined,
            ..
        } = &input.node
        else {
            panic!("{:?}", input.node)
        };
        assert_eq!(conjuncts[0].name, "b", "selective filter first");
        assert!(*combined, "combining is cheaper with evidence");
        assert_eq!(plan.decisions.len(), 2, "{:?}", plan.decisions);
    }

    #[test]
    fn as_written_mode_never_deviates() {
        let config = ExecConfig {
            optimize: OptimizeMode::AsWritten,
            ..Default::default()
        };
        let mut stats = StatisticsStore::new();
        stats.record_filter("a", 100, 90);
        stats.record_filter("b", 100, 10);
        stats.record_join("j", 900, 30);
        let plan = compile_sql(
            "SELECT t.id FROM t JOIN u ON j(t.img, u.img) WHERE a(t.img) AND b(t.img)",
            30,
            &config,
            &stats,
        );
        assert!(plan.decisions.is_empty(), "{:?}", plan.decisions);
    }

    #[test]
    fn join_strategy_upgrades_with_stats_at_scale() {
        let config = ExecConfig::default();
        let mut stats = StatisticsStore::new();
        stats.record_join("j", 900, 30);
        let plan = compile_sql(
            "SELECT t.id FROM t JOIN u ON j(t.img, u.img)",
            30,
            &config,
            &stats,
        );
        fn find_join(p: &PhysicalPlan) -> Option<&JoinOp> {
            if let PhysNode::Join { op, .. } = &p.node {
                return Some(op);
            }
            p.children().into_iter().find_map(find_join)
        }
        let op = find_join(&plan.root).unwrap();
        assert_eq!(
            op.strategy,
            JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            "decisions: {:?}",
            plan.decisions
        );
        // Below the pair floor the as-written strategy stands.
        let small = compile_sql(
            "SELECT t.id FROM t JOIN u ON j(t.img, u.img)",
            10,
            &config,
            &stats,
        );
        let op = find_join(&small.root).unwrap();
        assert_eq!(op.strategy, JoinOp::default().strategy);
    }

    #[test]
    fn sort_switches_to_rate_on_crisp_dimension() {
        let config = ExecConfig::default();
        let mut stats = StatisticsStore::new();
        stats.record_sort("d", 0.05);
        let plan = compile_sql("SELECT id FROM t ORDER BY byD(t.img)", 30, &config, &stats);
        fn find_sort(p: &PhysicalPlan) -> Option<&SortMode> {
            if let PhysNode::OrderBy { mode, .. } = &p.node {
                return Some(mode);
            }
            p.children().into_iter().find_map(find_sort)
        }
        assert!(
            matches!(find_sort(&plan.root), Some(SortMode::Rate(_))),
            "{:?}",
            plan.decisions
        );
        // Small inputs keep Compare regardless of evidence.
        let small = compile_sql("SELECT id FROM t ORDER BY byD(t.img)", 10, &config, &stats);
        assert!(matches!(find_sort(&small.root), Some(SortMode::Compare(_))));
        // Moderate ambiguity picks the hybrid.
        let mut stats2 = StatisticsStore::new();
        stats2.record_sort("d", 0.35);
        let hybrid = compile_sql("SELECT id FROM t ORDER BY byD(t.img)", 60, &config, &stats2);
        assert!(
            matches!(find_sort(&hybrid.root), Some(SortMode::Hybrid(_, _))),
            "{:?}",
            hybrid.decisions
        );
    }

    #[test]
    fn pinned_sort_is_respected() {
        let mut config = ExecConfig::default();
        config.pins.sort = true;
        let mut stats = StatisticsStore::new();
        stats.record_sort("d", 0.05);
        let plan = compile_sql("SELECT id FROM t ORDER BY byD(t.img)", 30, &config, &stats);
        let PhysNode::Project { input, .. } = &plan.root.node else {
            panic!()
        };
        assert!(matches!(
            &input.node,
            PhysNode::OrderBy {
                mode: SortMode::Compare(_),
                ..
            }
        ));
        assert!(plan.decisions.is_empty());
    }

    #[test]
    fn limit_one_lowering_happens_in_both_modes() {
        for mode in [OptimizeMode::CostBased, OptimizeMode::AsWritten] {
            let config = ExecConfig {
                optimize: mode,
                ..Default::default()
            };
            let stats = StatisticsStore::new();
            let plan = compile_sql(
                "SELECT id FROM t ORDER BY byD(t.img) DESC LIMIT 1",
                20,
                &config,
                &stats,
            );
            let PhysNode::Project { input, .. } = &plan.root.node else {
                panic!()
            };
            assert!(
                matches!(&input.node, PhysNode::ExtractExtreme { desc: true, .. }),
                "{mode:?}"
            );
            // Tournament estimate: 4 + 1 HITs for 20 items.
            assert_eq!(input.cost.hits, 5.0);
        }
    }

    #[test]
    fn join_chain_reorders_by_cardinality() {
        let config = ExecConfig {
            optimize: OptimizeMode::CostBased,
            ..Default::default()
        };
        let mut stats = StatisticsStore::new();
        stats.record_join("j", 900, 30);
        stats.record_join("j2", 900, 30);
        // Make `v` smaller than `u` by filtering... simpler: register
        // different cardinalities via a custom catalog.
        let mut cat = catalog(20);
        let schema = Schema::new(&[("id", ValueType::Int), ("img", ValueType::Item)]);
        let mut small = Relation::new(schema);
        for i in 0..5 {
            small.push(vec![Value::Int(i), Value::Null]).unwrap();
        }
        cat.register_table("v", small);
        let logical = plan_query(
            &parse_query("SELECT t.id FROM t JOIN u ON j(t.img, u.img) JOIN v ON j2(t.img, v.img)")
                .unwrap(),
            &cat,
        )
        .unwrap();
        let plan = compile(&logical, &cat, &config, &stats).unwrap();
        assert!(
            plan.decisions.iter().any(|d| d.starts_with("join order")),
            "{:?}",
            plan.decisions
        );
        // The small table `v` joins first: it is the *inner* join's
        // right side, i.e. the right child of the join whose left
        // child is the base scan chain.
        fn joins<'p>(p: &'p PhysicalPlan, out: &mut Vec<&'p JoinClause>) {
            if let PhysNode::Join { clause, .. } = &p.node {
                out.push(clause);
            }
            for c in p.children() {
                joins(c, out);
            }
        }
        let mut found = Vec::new();
        joins(&plan.root, &mut found);
        // Outermost join listed first; innermost (executed first) last.
        assert_eq!(found.last().unwrap().right.binding(), "v");
    }

    /// Regression: a chained join whose ON clause references the
    /// *previous* join's right table must keep its written position —
    /// executed early, the referenced columns would not exist yet and
    /// the query would fail with UnknownColumn at runtime.
    #[test]
    fn dependent_join_chain_is_never_reordered() {
        let config = ExecConfig {
            optimize: OptimizeMode::CostBased,
            ..Default::default()
        };
        let mut stats = StatisticsStore::new();
        stats.record_join("j", 900, 30);
        stats.record_join("j2", 900, 30);
        let mut cat = catalog(20);
        let schema = Schema::new(&[("id", ValueType::Int), ("img", ValueType::Item)]);
        let mut small = Relation::new(schema);
        for i in 0..5 {
            small.push(vec![Value::Int(i), Value::Null]).unwrap();
        }
        cat.register_table("v", small);
        // j2 references u.img — the first join's right side.
        let logical = plan_query(
            &parse_query("SELECT t.id FROM t JOIN u ON j(t.img, u.img) JOIN v ON j2(u.img, v.img)")
                .unwrap(),
            &cat,
        )
        .unwrap();
        let plan = compile(&logical, &cat, &config, &stats).unwrap();
        assert!(
            !plan.decisions.iter().any(|d| d.starts_with("join order")),
            "dependent chain must stay as written: {:?}",
            plan.decisions
        );
        fn joins<'p>(p: &'p PhysicalPlan, out: &mut Vec<&'p JoinClause>) {
            if let PhysNode::Join { clause, .. } = &p.node {
                out.push(clause);
            }
            for c in p.children() {
                joins(c, out);
            }
        }
        let mut found = Vec::new();
        joins(&plan.root, &mut found);
        // Innermost (executed first) is still the u-join.
        assert_eq!(found.last().unwrap().right.binding(), "u");
    }

    #[test]
    fn known_bad_feature_is_pruned_before_sampling() {
        let config = ExecConfig::default();
        let mut stats = StatisticsStore::new();
        stats.record_feature("g", 0.05, 0.5); // ambiguous: κ below 0.20
        let plan = compile_sql(
            "SELECT t.id FROM t JOIN u ON j(t.img, u.img) AND POSSIBLY g(t.img) = g(u.img)",
            30,
            &config,
            &stats,
        );
        fn find_join(p: &PhysicalPlan) -> Option<(&JoinClause, &Vec<String>)> {
            if let PhysNode::Join {
                clause,
                pruned_features,
                ..
            } = &p.node
            {
                return Some((clause, pruned_features));
            }
            p.children().into_iter().find_map(find_join)
        }
        let (clause, pruned) = find_join(&plan.root).unwrap();
        assert!(clause.possibly.is_empty(), "feature must be pruned");
        assert_eq!(pruned, &vec!["g".to_owned()]);
        // A healthy feature stays.
        let mut stats2 = StatisticsStore::new();
        stats2.record_feature("g", 0.8, 0.5);
        let plan2 = compile_sql(
            "SELECT t.id FROM t JOIN u ON j(t.img, u.img) AND POSSIBLY g(t.img) = g(u.img)",
            30,
            &config,
            &stats2,
        );
        let (clause2, _) = find_join(&plan2.root).unwrap();
        assert_eq!(clause2.possibly.len(), 1);
    }

    /// Every cost-based deviation logs a decision, so an empty log means
    /// the as-written compile is the same plan at the same estimate —
    /// the invariant that lets the analyzer skip its second compile.
    #[test]
    fn empty_decisions_iff_as_written_plan_is_identical() {
        let mut stats = StatisticsStore::new();
        stats.record_filter("a", 100, 90);
        stats.record_filter("b", 100, 10);
        stats.record_join("j", 900, 30);
        stats.record_sort("d", 0.05);
        stats.record_feature("g", 0.05, 0.5);
        let cases = [
            ("SELECT id FROM t WHERE a(t.img) AND b(t.img)", 30, true),
            ("SELECT id FROM t WHERE b(t.img) AND a(t.img)", 30, true),
            ("SELECT id FROM t WHERE a(t.img)", 30, false),
            ("SELECT t.id FROM t JOIN u ON j(t.img, u.img)", 30, true),
            ("SELECT t.id FROM t JOIN u ON j(t.img, u.img)", 10, false),
            (
                "SELECT t.id FROM t JOIN u ON j(t.img, u.img) AND POSSIBLY g(t.img) = g(u.img)",
                30,
                true,
            ),
            ("SELECT id FROM t ORDER BY byD(t.img)", 30, true),
            ("SELECT id FROM t ORDER BY byD(t.img)", 10, false),
        ];
        let as_written = ExecConfig {
            optimize: OptimizeMode::AsWritten,
            ..Default::default()
        };
        for (sql, rows, deviates) in cases {
            let chosen = compile_sql(sql, rows, &ExecConfig::default(), &stats);
            let written = compile_sql(sql, rows, &as_written, &stats);
            let same = format!("{:?}", chosen.root) == format!("{:?}", written.root)
                && chosen.estimate == written.estimate;
            assert_eq!(
                chosen.decisions.is_empty(),
                same,
                "{sql}: {:?}",
                chosen.decisions
            );
            assert_eq!(
                !chosen.decisions.is_empty(),
                deviates,
                "{sql}: {:?}",
                chosen.decisions
            );
        }
    }

    #[test]
    fn total_cost_sums_the_tree() {
        let config = ExecConfig::default();
        let stats = StatisticsStore::new();
        let plan = compile_sql(
            "SELECT id FROM t WHERE a(t.img) AND b(t.img)",
            30,
            &config,
            &stats,
        );
        // Two serial filters over 30 rows at batch 5: 6 + 6 HITs.
        assert_eq!(plan.estimate.hits, 12.0);
        assert!(plan.estimate.dollars > 0.0);
    }
}

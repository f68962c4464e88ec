//! The QA001–QA007 rule implementations.
//!
//! Each rule is a pure function over the parsed query, the compiled
//! physical plan, and the session configuration. Costs are priced
//! through the same [`CostModel`] the optimizer uses, so a diagnostic's
//! numbers always agree with EXPLAIN.

use super::diag::{Code, Diagnostic, Severity};
use super::SpanIndex;
use crate::lang::ast::{CmpOp, Expr, Literal, Predicate, Query, SelectItem};
use crate::ops::join::JoinStrategy;
use crate::opt::cost::{CostModel, EXACT_COMPARE_PLAN_MAX_N};
use crate::opt::physical::{CompiledPlan, PhysNode, PhysicalPlan};
use crate::opt::stats::StatisticsStore;
use crate::session::{ExecConfig, SortMode};

/// Everything a rule may look at.
pub(crate) struct RuleCx<'a> {
    pub spans: &'a SpanIndex,
    pub query: &'a Query,
    pub chosen: &'a CompiledPlan,
    /// Cheapest total estimate over the admissible optimize modes.
    pub floor_dollars: f64,
    pub config: &'a ExecConfig,
    pub stats: &'a StatisticsStore,
    pub budget_dollars: Option<f64>,
}

pub(crate) fn run_all(cx: &RuleCx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    qa001_join_cardinality(cx, &mut out);
    qa002_predicate_contradictions(cx, &mut out);
    qa003_pure_crowd_disjunction(cx, &mut out);
    qa004_compare_sort_bound(cx, &mut out);
    qa005_budget_floor(cx, &mut out);
    qa006_pin_contradictions(cx, &mut out);
    qa007_dead_parts(cx, &mut out);
    out
}

fn walk<'p>(plan: &'p PhysicalPlan, f: &mut dyn FnMut(&'p PhysicalPlan)) {
    f(plan);
    for child in plan.children() {
        walk(child, f);
    }
}

// ------------------------------------------------------------- QA001

/// Unfiltered cross joins priced past the ceiling (Warn) or past the
/// query budget (Error). §3.1: join HITs grow as `n·m` without a
/// POSSIBLY prefilter.
fn qa001_join_cardinality(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    let ceiling = cx.config.lint.join_hit_ceiling;
    walk(&cx.chosen.root, &mut |p| {
        let PhysNode::Join {
            left,
            right,
            clause,
            ..
        } = &p.node
        else {
            return;
        };
        if !clause.possibly.is_empty() {
            return; // §3.2 feature filtering bounds the pair count
        }
        let pairs = left.rows_out * right.rows_out;
        let over_budget = cx
            .budget_dollars
            .is_some_and(|b| p.cost.dollars > b && b >= 0.0);
        let over_ceiling = p.cost.hits > ceiling;
        if !over_budget && !over_ceiling {
            return;
        }
        let (severity, tail) = if over_budget {
            (
                Severity::Error,
                format!(
                    "exceeds the query budget of ${:.2} on its own",
                    cx.budget_dollars.unwrap_or(0.0)
                ),
            )
        } else {
            (
                Severity::Warn,
                format!("exceeds the configured ceiling of {ceiling:.0} HITs"),
            )
        };
        out.push(
            Diagnostic::new(
                Code::QA001,
                severity,
                format!(
                    "unfiltered cross join '{}' scores ~{:.0} candidate pairs \
                     (~{:.0} HITs, ~${:.2}); {tail} — add a POSSIBLY feature \
                     filter (§3.2) or pre-filter the inputs",
                    clause.on.name, pairs, p.cost.hits, p.cost.dollars
                ),
            )
            .with_span(cx.spans.first(&clause.on.name)),
        );
    });
}

// ------------------------------------------------------------- QA002

/// Partial order over literals, mirroring the executor's `sql_cmp`.
fn literal_cmp(a: &Literal, b: &Literal) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Literal::Number(x), Literal::Number(y)) => x.partial_cmp(y),
        (Literal::Str(x), Literal::Str(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Numeric interval state for one column within one conjunction.
#[derive(Default)]
struct ColBounds {
    /// (bound, inclusive)
    lo: Option<(f64, bool)>,
    hi: Option<(f64, bool)>,
    eq: Option<f64>,
    ne: Vec<f64>,
    /// Count of upper-bound (`<`/`<=`) and lower-bound (`>`/`>=`)
    /// constraints, for QA007's shadowed-bound detection.
    uppers: usize,
    lowers: usize,
}

impl ColBounds {
    fn apply(&mut self, op: CmpOp, v: f64) {
        match op {
            CmpOp::Eq => {
                if self.eq.is_none() {
                    self.eq = Some(v);
                } else if self.eq != Some(v) {
                    // Two different equality constants: force the
                    // interval empty.
                    self.lo = Some((f64::INFINITY, true));
                    self.hi = Some((f64::NEG_INFINITY, true));
                }
            }
            CmpOp::Ne => self.ne.push(v),
            CmpOp::Lt | CmpOp::Le => {
                self.uppers += 1;
                let incl = op == CmpOp::Le;
                let tighter = match self.hi {
                    None => true,
                    Some((h, hincl)) => v < h || (v == h && hincl && !incl),
                };
                if tighter {
                    self.hi = Some((v, incl));
                }
            }
            CmpOp::Gt | CmpOp::Ge => {
                self.lowers += 1;
                let incl = op == CmpOp::Ge;
                let tighter = match self.lo {
                    None => true,
                    Some((l, lincl)) => v > l || (v == l && lincl && !incl),
                };
                if tighter {
                    self.lo = Some((v, incl));
                }
            }
        }
    }

    fn infeasible(&self) -> bool {
        if let (Some((l, lincl)), Some((h, hincl))) = (self.lo, self.hi) {
            if l > h || (l == h && !(lincl && hincl)) {
                return true;
            }
        }
        if let Some(e) = self.eq {
            if let Some((l, lincl)) = self.lo {
                if e < l || (e == l && !lincl) {
                    return true;
                }
            }
            if let Some((h, hincl)) = self.hi {
                if e > h || (e == h && !hincl) {
                    return true;
                }
            }
            if self.ne.contains(&e) {
                return true;
            }
        }
        false
    }
}

/// Flip `col OP lit` so the column is always on the left.
fn normalized_compare(p: &Predicate) -> Option<(&str, CmpOp, &Literal)> {
    let Predicate::Compare { left, op, right } = p else {
        return None;
    };
    match (left, right) {
        (Expr::Column(c), Expr::Literal(l)) => Some((c, *op, l)),
        (Expr::Literal(l), Expr::Column(c)) => {
            let flipped = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                other => *other,
            };
            Some((c, flipped, l))
        }
        _ => None,
    }
}

/// Machine-evaluable contradictions and tautologies. A tautological
/// predicate is dead weight; a contradictory conjunction short-circuits
/// the group (or, with a single group, the whole query) to empty.
fn qa002_predicate_contradictions(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    let groups = &cx.query.where_groups;
    let single = groups.len() == 1;
    for (gi, group) in groups.iter().enumerate() {
        let scope = if single {
            "the query".to_owned()
        } else {
            format!("OR group {}", gi + 1)
        };
        let mut group_dead = false;
        let mut cols: Vec<(String, ColBounds)> = Vec::new();
        for p in group {
            match p {
                Predicate::Compare { left, op, right } => match (left, right) {
                    (Expr::Literal(a), Expr::Literal(b)) => match literal_cmp(a, b) {
                        Some(ord) if op.eval(ord) => out.push(Diagnostic::new(
                            Code::QA002,
                            Severity::Warn,
                            format!(
                                "literal predicate {a:?} {op:?} {b:?} is always \
                                 true and can be dropped"
                            ),
                        )),
                        Some(_) => group_dead = true,
                        None => {}
                    },
                    (Expr::Column(a), Expr::Column(b)) if a == b => {
                        match op {
                            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => out.push(
                                Diagnostic::new(
                                    Code::QA002,
                                    Severity::Warn,
                                    format!(
                                        "predicate compares column {a} with itself \
                                         and is always true"
                                    ),
                                )
                                .with_span(cx.spans.column(a)),
                            ),
                            CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => group_dead = true,
                        };
                    }
                    _ => {
                        if let Some((col, op, Literal::Number(v))) = normalized_compare(p) {
                            let entry = match cols.iter_mut().find(|(c, _)| c == col) {
                                Some((_, b)) => b,
                                None => {
                                    cols.push((col.to_owned(), ColBounds::default()));
                                    &mut cols.last_mut().expect("just pushed").1
                                }
                            };
                            entry.apply(op, *v);
                        }
                    }
                },
                Predicate::Udf(_) => {}
            }
        }
        if group_dead {
            out.push(Diagnostic::new(
                Code::QA002,
                Severity::Warn,
                format!(
                    "a machine-evaluable predicate is always false: {scope} \
                     returns no rows{}",
                    if single {
                        ""
                    } else {
                        " and the whole group can be dropped"
                    }
                ),
            ));
            continue;
        }
        for (col, bounds) in &cols {
            if bounds.infeasible() {
                out.push(
                    Diagnostic::new(
                        Code::QA002,
                        Severity::Warn,
                        format!(
                            "constraints on column {col} are contradictory \
                             (empty interval): {scope} returns no rows"
                        ),
                    )
                    .with_span(cx.spans.column(col)),
                );
            }
        }
    }
}

// ------------------------------------------------------------- QA003

/// OR groups whose every member needs the crowd: §2.5 push-down cannot
/// prune their input, so every row reaching the disjunction is asked.
fn qa003_pure_crowd_disjunction(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    if cx.query.where_groups.len() < 2 {
        return;
    }
    // The physical OR node knows the input cardinality and filter op.
    let mut or_node: Option<(f64, crate::ops::filter::FilterOp)> = None;
    walk(&cx.chosen.root, &mut |p| {
        if let PhysNode::CrowdFilterOr { input, op, .. } = &p.node {
            or_node = Some((input.rows_out, op.clone()));
        }
    });
    let Some((rows, op)) = or_node else { return };
    let model = CostModel::new(cx.stats);
    for (gi, group) in cx.query.where_groups.iter().enumerate() {
        if group.iter().any(|p| matches!(p, Predicate::Compare { .. })) {
            continue;
        }
        let mut est = crate::opt::cost::CostEstimate::ZERO;
        for _ in group {
            est += model.filter(rows, &op);
        }
        let first_udf = group.iter().find_map(|p| match p {
            Predicate::Udf(c) => Some(c.name.as_str()),
            _ => None,
        });
        out.push(
            Diagnostic::new(
                Code::QA003,
                Severity::Warn,
                format!(
                    "OR group {} has no machine-evaluable member: all ~{rows:.0} \
                     input rows go to the crowd (~{:.0} extra HITs, ~${:.2}); \
                     adding a machine predicate would let §2.5 push-down \
                     shrink it",
                    gi + 1,
                    est.hits,
                    est.dollars
                ),
            )
            .with_span(first_udf.and_then(|n| cx.spans.first(n))),
        );
    }
}

// ------------------------------------------------------------- QA004

/// Compare sorts past the §4.1 covering-design bound: beyond
/// [`EXACT_COMPARE_PLAN_MAX_N`] items the group plan is no longer
/// exact and the HIT count grows quadratically.
fn qa004_compare_sort_bound(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    walk(&cx.chosen.root, &mut |p| {
        let PhysNode::OrderBy { input, keys, mode } = &p.node else {
            return;
        };
        let SortMode::Compare(_) = mode else { return };
        let crowd_key = keys.iter().find_map(|k| match &k.expr {
            Expr::Udf(call) => Some(call),
            _ => None,
        });
        let Some(call) = crowd_key else { return };
        let n = input.rows_out;
        if n <= EXACT_COMPARE_PLAN_MAX_N as f64 {
            return;
        }
        out.push(
            Diagnostic::new(
                Code::QA004,
                Severity::Warn,
                format!(
                    "Compare sort over ~{n:.0} items exceeds the §4.1 \
                     covering-design bound ({EXACT_COMPARE_PLAN_MAX_N}): \
                     ~{:.0} HITs (~${:.2}); use Rate or Hybrid for large \
                     inputs (§4.1.2)",
                    p.cost.hits, p.cost.dollars
                ),
            )
            .with_span(cx.spans.first(&call.name)),
        );
    });
}

// ------------------------------------------------------------- QA005

/// Budgets below the cost-model floor fail with `BudgetExceeded` only
/// *after* money is spent; reject them up front instead. The floor is
/// the cheapest admissible plan's estimate, so with learned statistics
/// a cost-based replan may still fit a budget the as-written plan
/// would not.
fn qa005_budget_floor(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(budget) = cx.budget_dollars else {
        return;
    };
    if cx.chosen.estimate.hits <= 0.0 {
        return; // machine-only plans spend nothing
    }
    if budget <= 0.0 {
        out.push(Diagnostic::new(
            Code::QA005,
            Severity::Error,
            format!(
                "budget ${budget:.2} cannot admit any crowd work: the budget \
                 gate refuses the first crowd operator (estimated plan cost \
                 ~${:.2})",
                cx.chosen.estimate.dollars
            ),
        ));
    } else if budget < cx.floor_dollars {
        out.push(Diagnostic::new(
            Code::QA005,
            Severity::Error,
            format!(
                "budget ${budget:.2} is below the cost-model floor ~${:.2} for \
                 every admissible physical plan; the query would fail with \
                 BudgetExceeded mid-flight after spending money",
                cx.floor_dollars
            ),
        ));
    }
}

// ------------------------------------------------------------- QA006

/// Pinned operators that contradict the data they will see. The
/// optimizer never overrides a pin, so these run as pinned.
fn qa006_pin_contradictions(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    let pins = cx.config.pins;
    if pins.join {
        if let JoinStrategy::SmartBatch { rows, cols } = cx.config.join.strategy {
            let grid = (rows * cols) as f64;
            walk(&cx.chosen.root, &mut |p| {
                let PhysNode::Join {
                    left,
                    right,
                    clause,
                    op,
                    ..
                } = &p.node
                else {
                    return;
                };
                if !matches!(op.strategy, JoinStrategy::SmartBatch { .. }) {
                    return;
                }
                let pairs = left.rows_out * right.rows_out;
                if pairs < grid {
                    out.push(
                        Diagnostic::new(
                            Code::QA006,
                            Severity::Warn,
                            format!(
                                "pinned SmartBatch {rows}x{cols} join on ~{pairs:.0} \
                                 candidate pairs: one {grid:.0}-pair grid cannot \
                                 even fill; batching buys nothing here (§3.1)"
                            ),
                        )
                        .with_span(cx.spans.first(&clause.on.name)),
                    );
                }
            });
        }
    }
    if pins.sort {
        if let SortMode::Hybrid(_, 0) = cx.config.sort {
            let mut has_crowd_sort = false;
            walk(&cx.chosen.root, &mut |p| {
                if let PhysNode::OrderBy { keys, .. } = &p.node {
                    if keys.iter().any(|k| matches!(k.expr, Expr::Udf(_))) {
                        has_crowd_sort = true;
                    }
                }
            });
            if has_crowd_sort {
                out.push(Diagnostic::new(
                    Code::QA006,
                    Severity::Warn,
                    "pinned Hybrid sort with a zero comparison budget degenerates \
                     to a plain Rate sort (§4.1.3); pin Rate instead or give it \
                     iterations"
                        .to_owned(),
                ));
            }
        }
    }
    if pins.combine && cx.config.combine_conjunct_filters {
        let mut any_combined = false;
        walk(&cx.chosen.root, &mut |p| {
            if let PhysNode::CrowdFilter { combined: true, .. } = p.node {
                any_combined = true;
            }
        });
        if !any_combined {
            out.push(Diagnostic::new(
                Code::QA006,
                Severity::Info,
                "filter combining (§2.6) is pinned on, but the query has no \
                 conjunctive crowd filter over one item to combine; the pin \
                 has no effect"
                    .to_owned(),
            ));
        }
    }
}

// ------------------------------------------------------------- QA007

/// Dead query parts: duplicate conjuncts, duplicate OR groups,
/// shadowed bounds, duplicate projections. Each costs HITs (or reader
/// attention) and changes nothing.
fn qa007_dead_parts(cx: &RuleCx<'_>, out: &mut Vec<Diagnostic>) {
    // Duplicate predicates within one conjunction group.
    for group in &cx.query.where_groups {
        let mut seen: Vec<&Predicate> = Vec::new();
        for p in group {
            if seen.contains(&p) {
                let (label, span) = match p {
                    Predicate::Udf(c) => (
                        format!("crowd filter {}(..)", c.name),
                        cx.spans.nth(&c.name, 1),
                    ),
                    Predicate::Compare { left, .. } => {
                        let col = match left {
                            Expr::Column(c) => cx.spans.column(c),
                            _ => None,
                        };
                        ("machine predicate".to_owned(), col)
                    }
                };
                out.push(
                    Diagnostic::new(
                        Code::QA007,
                        Severity::Warn,
                        format!(
                            "duplicate {label} in the same conjunction: the \
                             repeat filters nothing further and (for crowd \
                             filters) wastes a serial round"
                        ),
                    )
                    .with_span(span),
                );
            } else {
                seen.push(p);
            }
        }
        // Shadowed interval bounds: two uppers (or two lowers) on the
        // same column — one is implied by the other.
        let mut per_col: Vec<(&str, Vec<(CmpOp, f64)>)> = Vec::new();
        for p in group {
            if let Some((col, op, Literal::Number(v))) = normalized_compare(p) {
                if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                    match per_col.iter_mut().find(|(c, _)| *c == col) {
                        Some((_, v_list)) => v_list.push((op, *v)),
                        None => per_col.push((col, vec![(op, *v)])),
                    }
                }
            }
        }
        for (col, constraints) in &per_col {
            let uppers = constraints
                .iter()
                .filter(|(op, _)| matches!(op, CmpOp::Lt | CmpOp::Le))
                .count();
            let lowers = constraints.len() - uppers;
            for (dir, count) in [("upper", uppers), ("lower", lowers)] {
                // Distinct constraints only: exact duplicates were
                // already reported above.
                let distinct: std::collections::BTreeSet<String> = constraints
                    .iter()
                    .filter(|(op, _)| match dir {
                        "upper" => matches!(op, CmpOp::Lt | CmpOp::Le),
                        _ => matches!(op, CmpOp::Gt | CmpOp::Ge),
                    })
                    .map(|(op, v)| format!("{op:?}{v}"))
                    .collect();
                if count >= 2 && distinct.len() >= 2 {
                    out.push(
                        Diagnostic::new(
                            Code::QA007,
                            Severity::Warn,
                            format!(
                                "column {col} has {count} {dir} bounds in one \
                                 conjunction; the looser bound is shadowed and \
                                 can be dropped"
                            ),
                        )
                        .with_span(cx.spans.column(col)),
                    );
                }
            }
        }
    }
    // Duplicate OR groups.
    let groups = &cx.query.where_groups;
    if groups.len() >= 2 {
        for (i, g) in groups.iter().enumerate() {
            if groups[..i].contains(g) {
                out.push(Diagnostic::new(
                    Code::QA007,
                    Severity::Warn,
                    format!(
                        "OR group {} duplicates an earlier group; disjuncts run \
                         in parallel (§2.5) so the repeat posts its crowd work \
                         twice for the same verdict",
                        i + 1
                    ),
                ));
            }
        }
    }
    // Duplicate projected columns.
    let mut seen_cols: Vec<&str> = Vec::new();
    for item in &cx.query.select {
        if let SelectItem::Column(name) = item {
            if seen_cols.contains(&name.as_str()) {
                out.push(
                    Diagnostic::new(
                        Code::QA007,
                        Severity::Warn,
                        format!("column {name} is projected more than once"),
                    )
                    .with_span(cx.spans.column(name)),
                );
            } else {
                seen_cols.push(name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_bounds_interval_feasibility() {
        let mut b = ColBounds::default();
        b.apply(CmpOp::Gt, 5.0);
        b.apply(CmpOp::Lt, 3.0);
        assert!(b.infeasible(), "x > 5 AND x < 3");

        let mut b = ColBounds::default();
        b.apply(CmpOp::Ge, 3.0);
        b.apply(CmpOp::Le, 3.0);
        assert!(!b.infeasible(), "x >= 3 AND x <= 3 admits 3");

        let mut b = ColBounds::default();
        b.apply(CmpOp::Gt, 3.0);
        b.apply(CmpOp::Le, 3.0);
        assert!(b.infeasible(), "x > 3 AND x <= 3 is empty");

        let mut b = ColBounds::default();
        b.apply(CmpOp::Eq, 4.0);
        b.apply(CmpOp::Ne, 4.0);
        assert!(b.infeasible(), "x = 4 AND x != 4");

        let mut b = ColBounds::default();
        b.apply(CmpOp::Eq, 4.0);
        b.apply(CmpOp::Eq, 5.0);
        assert!(b.infeasible(), "x = 4 AND x = 5");

        let mut b = ColBounds::default();
        b.apply(CmpOp::Eq, 4.0);
        b.apply(CmpOp::Lt, 10.0);
        assert!(!b.infeasible(), "x = 4 AND x < 10 admits 4");
    }

    #[test]
    fn normalized_compare_flips_reversed_literals() {
        let p = Predicate::Compare {
            left: Expr::Literal(Literal::Number(5.0)),
            op: CmpOp::Lt,
            right: Expr::Column("id".into()),
        };
        // 5 < id  ≡  id > 5
        let (col, op, lit) = normalized_compare(&p).unwrap();
        assert_eq!(col, "id");
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(lit, &Literal::Number(5.0));
    }
}

//! Logical planning (§2.5).
//!
//! "Query planning in Qurk is done in a way similar to conventional
//! logical to physical query plan generation; a query is translated
//! into a plan-tree that processes input tables in a bottom-up fashion.
//! Relational operations that can be performed by a computer rather
//! than humans are pushed down the query plan as far as possible."
//!
//! Rules reproduced here:
//!
//! * machine-evaluable comparisons sit directly above scans, below any
//!   crowd filter;
//! * crowd filters referencing a single table are applied before joins
//!   over that table;
//! * conjunct (AND) filters run serially, disjunct (OR) groups in
//!   parallel;
//! * joins are left-deep in query order (Qurk "currently lacks
//!   selectivity estimation, so it orders filters and joins as they
//!   appear in the query");
//! * ORDER BY / LIMIT / projection top the plan.

use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::lang::ast::{
    Expr, JoinClause, OrderExpr, PossiblyClause, Predicate, Query, SelectItem, UdfCall,
};
use crate::task::TaskType;

/// EXPLAIN's label for a projection: its item count, with `*` shown as
/// the star rather than counted as one column (`SELECT *` is
/// `Project [*]`).
pub(crate) fn project_label(items: &[SelectItem]) -> String {
    let columns = items
        .iter()
        .filter(|i| !matches!(i, SelectItem::Star))
        .count();
    match (columns < items.len(), columns) {
        (false, n) => format!("Project [{n} columns]"),
        (true, 0) => "Project [*]".to_owned(),
        (true, n) => format!("Project [*, {n} columns]"),
    }
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    Scan {
        table: String,
        alias: String,
    },
    /// Machine-evaluable comparisons (no HITs).
    MachineFilter {
        input: Box<LogicalPlan>,
        predicates: Vec<Predicate>,
    },
    /// Serial crowd filters (AND).
    CrowdFilter {
        input: Box<LogicalPlan>,
        conjuncts: Vec<UdfCall>,
    },
    /// Parallel disjunct groups (OR of ANDs).
    CrowdFilterOr {
        input: Box<LogicalPlan>,
        groups: Vec<Vec<Predicate>>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        clause: JoinClause,
    },
    OrderBy {
        input: Box<LogicalPlan>,
        keys: Vec<OrderExpr>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
    Project {
        input: Box<LogicalPlan>,
        items: Vec<SelectItem>,
    },
}

impl std::fmt::Display for LogicalPlan {
    /// Indented plan-tree rendering (the §6 "iterative debugging"
    /// EXPLAIN-style view); also reused verbatim in
    /// [`QueryReport::explain_full`](crate::session::QueryReport::explain_full).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        f.write_str(&out)
    }
}

impl LogicalPlan {
    /// Pretty-print the plan tree (equivalent to `to_string()`).
    pub fn explain(&self) -> String {
        self.to_string()
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table, alias } => {
                out.push_str(&format!("{pad}Scan {table} AS {alias}\n"));
            }
            LogicalPlan::MachineFilter { input, predicates } => {
                out.push_str(&format!(
                    "{pad}MachineFilter [{} predicates]\n",
                    predicates.len()
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::CrowdFilter { input, conjuncts } => {
                let names: Vec<&str> = conjuncts.iter().map(|c| c.name.as_str()).collect();
                out.push_str(&format!("{pad}CrowdFilter {}\n", names.join(" AND ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::CrowdFilterOr { input, groups } => {
                out.push_str(&format!("{pad}CrowdFilterOr [{} groups]\n", groups.len()));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                clause,
            } => {
                out.push_str(&format!(
                    "{pad}CrowdJoin ON {} [{} POSSIBLY]\n",
                    clause.on.name,
                    clause.possibly.len()
                ));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::OrderBy { input, keys } => {
                out.push_str(&format!("{pad}OrderBy [{} keys]\n", keys.len()));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project { input, items } => {
                out.push_str(&format!("{pad}{}\n", project_label(items)));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Which table binding (alias) an expression references; `None` if
/// several or none.
fn expr_binding(e: &Expr) -> Option<String> {
    match e {
        Expr::Column(c) => c
            .split('.')
            .next()
            .map(|s| s.to_owned())
            .filter(|_| c.contains('.')),
        Expr::Literal(_) => None,
        Expr::Udf(call) => call_binding(call),
    }
}

fn call_binding(call: &UdfCall) -> Option<String> {
    let mut binding: Option<String> = None;
    for a in &call.args {
        match expr_binding(a) {
            None => continue,
            Some(b) => match &binding {
                None => binding = Some(b),
                Some(prev) if *prev == b => {}
                Some(_) => return None, // touches multiple tables
            },
        }
    }
    binding
}

fn predicate_binding(p: &Predicate) -> Option<String> {
    match p {
        Predicate::Udf(c) => call_binding(c),
        Predicate::Compare { left, right, .. } => match (expr_binding(left), expr_binding(right)) {
            (Some(a), Some(b)) if a == b => Some(a),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            _ => None,
        },
    }
}

/// Reject the query shapes the plan runner cannot execute, so they
/// fail before any input plan pays the crowd: a POSSIBLY equality
/// compares one feature task with a Radio response on both sides, a
/// literal POSSIBLY names a categorical task, and ORDER BY takes no
/// literal and at most one crowd key, last (so machine keys come
/// first). Task types and arities are already checked.
fn check_shapes(query: &Query, catalog: &Catalog) -> Result<()> {
    let categorical = |call: &UdfCall| {
        let task = catalog.task(&call.name);
        task.map(|t| t.feature_options().is_some())
    };
    for p in query.joins.iter().flat_map(|j| &j.possibly) {
        match p {
            PossiblyClause::FeatureEq { left, right } => {
                if right.name != left.name {
                    return Err(QurkError::Other(format!(
                        "POSSIBLY compares different features: {} vs {}",
                        left.name, right.name
                    )));
                }
                if !categorical(left)? {
                    return Err(QurkError::Other(format!(
                        "feature task {} must have a Radio response",
                        left.name
                    )));
                }
            }
            PossiblyClause::FeatureLit { call, .. } => {
                if !categorical(call)? {
                    return Err(QurkError::Other(format!(
                        "feature task {} must be categorical",
                        call.name
                    )));
                }
            }
        }
    }
    let last = query.order_by.len().saturating_sub(1);
    for (ki, o) in query.order_by.iter().enumerate() {
        match o.expr {
            Expr::Udf(_) if ki != last => {
                return Err(QurkError::Other(
                    "only one crowd sort key is supported, and it must be last".into(),
                ))
            }
            Expr::Literal(_) => return Err(QurkError::Other("cannot order by a literal".into())),
            Expr::Udf(_) | Expr::Column(_) => {}
        }
    }
    Ok(())
}

/// Compile a parsed query into a logical plan.
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    // Validate tables and collect bindings.
    catalog.table(&query.from.table)?;
    for j in &query.joins {
        catalog.table(&j.right.table)?;
    }

    // Validate UDF references, types and arities, so a malformed call
    // fails before any operator pays the crowd.
    let check_task = |call: &UdfCall, expected: &[TaskType]| -> Result<()> {
        let t = catalog.task(&call.name)?;
        if !expected.contains(&t.ty) {
            return Err(QurkError::TaskTypeMismatch {
                task: call.name.clone(),
                expected: expected[0].name(),
                found: t.ty.name(),
            });
        }
        if call.args.len() != t.params.len() {
            return Err(QurkError::TaskArity {
                task: call.name.clone(),
                expected: t.params.len(),
                found: call.args.len(),
            });
        }
        Ok(())
    };
    for group in &query.where_groups {
        for p in group {
            if let Predicate::Udf(c) = p {
                check_task(c, &[TaskType::Filter])?;
            }
        }
    }
    for j in &query.joins {
        check_task(&j.on, &[TaskType::EquiJoin])?;
        for p in &j.possibly {
            match p {
                PossiblyClause::FeatureEq { left, right } => {
                    check_task(left, &[TaskType::Generative])?;
                    check_task(right, &[TaskType::Generative])?;
                }
                PossiblyClause::FeatureLit { call, .. } => {
                    check_task(call, &[TaskType::Generative])?;
                }
            }
        }
    }
    for o in &query.order_by {
        if let Expr::Udf(c) = &o.expr {
            check_task(c, &[TaskType::Rank])?;
        }
    }
    for item in &query.select {
        if let SelectItem::Udf { call, .. } = item {
            check_task(call, &[TaskType::Generative])?;
        }
    }
    check_shapes(query, catalog)?;

    // Partition WHERE predicates. Single-group (pure conjunction)
    // predicates are split per binding and pushed; multi-group (OR)
    // predicates stay together above the joins.
    let single_group = query.where_groups.len() == 1;
    let mut per_binding: std::collections::HashMap<String, (Vec<Predicate>, Vec<UdfCall>)> =
        std::collections::HashMap::new();
    let mut residual: Vec<Predicate> = Vec::new();
    if single_group {
        for p in &query.where_groups[0] {
            match (predicate_binding(p), p) {
                (Some(b), Predicate::Compare { .. }) => {
                    per_binding.entry(b).or_default().0.push(p.clone())
                }
                (Some(b), Predicate::Udf(c)) => per_binding.entry(b).or_default().1.push(c.clone()),
                (None, _) => residual.push(p.clone()),
            }
        }
    }

    // Build each base table's sub-plan: scan -> machine -> crowd.
    let build_base = |table: &str, alias: &str| -> LogicalPlan {
        let mut plan = LogicalPlan::Scan {
            table: table.to_owned(),
            alias: alias.to_owned(),
        };
        if let Some((machine, crowd)) = per_binding.get(alias) {
            if !machine.is_empty() {
                plan = LogicalPlan::MachineFilter {
                    input: Box::new(plan),
                    predicates: machine.clone(),
                };
            }
            if !crowd.is_empty() {
                plan = LogicalPlan::CrowdFilter {
                    input: Box::new(plan),
                    conjuncts: crowd.clone(),
                };
            }
        }
        plan
    };

    let mut plan = build_base(&query.from.table, query.from.binding());
    // Left-deep joins in query order.
    for j in &query.joins {
        let right = build_base(&j.right.table, j.right.binding());
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            clause: j.clone(),
        };
    }

    // Residual predicates / OR groups above the joins.
    if single_group {
        if !residual.is_empty() {
            let (machine, crowd): (Vec<_>, Vec<_>) = residual
                .into_iter()
                .partition(|p| matches!(p, Predicate::Compare { .. }));
            if !machine.is_empty() {
                plan = LogicalPlan::MachineFilter {
                    input: Box::new(plan),
                    predicates: machine,
                };
            }
            if !crowd.is_empty() {
                plan = LogicalPlan::CrowdFilter {
                    input: Box::new(plan),
                    conjuncts: crowd
                        .into_iter()
                        .map(|p| match p {
                            Predicate::Udf(c) => c,
                            Predicate::Compare { .. } => unreachable!(),
                        })
                        .collect(),
                };
            }
        }
    } else if !query.where_groups.is_empty() {
        plan = LogicalPlan::CrowdFilterOr {
            input: Box::new(plan),
            groups: query.where_groups.clone(),
        };
    }

    if !query.order_by.is_empty() {
        plan = LogicalPlan::OrderBy {
            input: Box::new(plan),
            keys: query.order_by.clone(),
        };
    }
    if let Some(n) = query.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        items: query.select.clone(),
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse_query;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("img", ValueType::Item),
        ]);
        c.register_table("celeb", Relation::new(schema.clone()));
        c.register_table("photos", Relation::new(schema.clone()));
        c.register_table("scenes", Relation::new(schema));
        c.define_tasks(
            r#"TASK isFemale(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK samePerson(a, b) TYPE EquiJoin:
                Combiner: QualityAdjust
               TASK gender(field) TYPE Generative:
                Prompt: "%s?", tuple[field]
                Response: Radio("G", ["Male", "Female", UNKNOWN])
               TASK sorter(field) TYPE Rank:
                OrderDimensionName: "area"
            "#,
        )
        .unwrap();
        c
    }

    fn plan(src: &str) -> LogicalPlan {
        plan_query(&parse_query(src).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn machine_below_crowd() {
        let p = plan("SELECT c.name FROM celeb AS c WHERE isFemale(c.img) AND c.id < 5");
        // Project -> CrowdFilter -> MachineFilter -> Scan
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::CrowdFilter { input, .. } = *input else {
            panic!("crowd filter should top machine filter")
        };
        let LogicalPlan::MachineFilter { input, .. } = *input else {
            panic!("machine filter missing")
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn filters_pushed_below_join() {
        let p = plan(
            "SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) \
             WHERE isFemale(c.img)",
        );
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Join { left, right, .. } = *input else {
            panic!("expected join on top")
        };
        assert!(matches!(*left, LogicalPlan::CrowdFilter { .. }));
        assert!(matches!(*right, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn or_groups_stay_above() {
        let p = plan("SELECT c.name FROM celeb c WHERE isFemale(c.img) OR isFemale(c.img)");
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::CrowdFilterOr { groups, .. } if groups.len() == 2));
    }

    #[test]
    fn order_and_limit_stack() {
        let p = plan("SELECT name FROM celeb ORDER BY sorter(img) LIMIT 3");
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        let LogicalPlan::Limit { input, n } = *input else {
            panic!()
        };
        assert_eq!(n, 3);
        assert!(matches!(*input, LogicalPlan::OrderBy { .. }));
    }

    #[test]
    fn unknown_table_rejected() {
        let q = parse_query("SELECT x FROM nope").unwrap();
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(QurkError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_task_rejected() {
        let q = parse_query("SELECT name FROM celeb WHERE notATask(img)").unwrap();
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(QurkError::UnknownTask(_))
        ));
    }

    #[test]
    fn task_type_mismatch_rejected() {
        // A Rank task used as a filter.
        let q = parse_query("SELECT name FROM celeb WHERE sorter(img)").unwrap();
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(QurkError::TaskTypeMismatch { .. })
        ));
        // A Filter task in ORDER BY, and in SELECT.
        for sql in [
            "SELECT name FROM celeb ORDER BY isFemale(img)",
            "SELECT isFemale(img) FROM celeb",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(matches!(
                plan_query(&q, &catalog()),
                Err(QurkError::TaskTypeMismatch { .. })
            ));
        }
    }

    #[test]
    fn task_arity_mismatch_rejected() {
        for (sql, task, expected, found) in [
            ("SELECT name FROM celeb WHERE isFemale()", "isFemale", 1, 0),
            (
                "SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img)",
                "samePerson",
                2,
                1,
            ),
            (
                "SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) \
                 AND POSSIBLY gender(c.img, p.img) = gender(p.img)",
                "gender",
                1,
                2,
            ),
            (
                "SELECT name FROM celeb ORDER BY sorter(img, name)",
                "sorter",
                1,
                2,
            ),
            ("SELECT gender() FROM celeb", "gender", 1, 0),
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                plan_query(&q, &catalog()).err(),
                Some(QurkError::TaskArity {
                    task: task.into(),
                    expected,
                    found
                }),
                "{sql}"
            );
        }
    }

    #[test]
    fn possibly_tasks_validated() {
        let p = plan(
            "SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) \
             AND POSSIBLY gender(c.img) = gender(p.img)",
        );
        let LogicalPlan::Project { input, .. } = p else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Join { clause, .. } if clause.possibly.len() == 1));
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan(
            "SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) \
             WHERE isFemale(c.img) ORDER BY sorter(c.img) LIMIT 2",
        );
        let text = p.explain();
        assert!(text.contains("CrowdJoin ON samePerson"));
        assert!(text.contains("CrowdFilter isFemale"));
        assert!(text.contains("Limit 2"));
        // Indentation shows the tree: scans sit deeper than the join.
        let depth = |needle: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .map(|l| l.len() - l.trim_start().len())
                .unwrap()
        };
        assert!(depth("Scan") > depth("CrowdJoin"));
    }

    /// `SELECT *` shows its star, not a count of one column; a star
    /// beside other items shows both.
    #[test]
    fn display_shows_a_star_projection() {
        let star = plan("SELECT * FROM celeb c");
        assert_eq!(star.to_string().lines().next(), Some("Project [*]"));
        let mixed = plan("SELECT *, c.name FROM celeb c");
        assert_eq!(
            mixed.to_string().lines().next(),
            Some("Project [*, 1 columns]")
        );
    }

    /// Golden rendering of a 2-join + OR-filter query: `Display` is
    /// the EXPLAIN surface, so its exact shape is pinned.
    #[test]
    fn display_golden_two_joins_with_or_filter() {
        let p = plan(
            "SELECT c.name FROM celeb c \
             JOIN photos p ON samePerson(c.img, p.img) \
             JOIN scenes s ON samePerson(c.img, s.img) \
             WHERE isFemale(c.img) OR c.id < 3",
        );
        let expected = "\
Project [1 columns]
  CrowdFilterOr [2 groups]
    CrowdJoin ON samePerson [0 POSSIBLY]
      CrowdJoin ON samePerson [0 POSSIBLY]
        Scan celeb AS c
        Scan photos AS p
      Scan scenes AS s
";
        assert_eq!(p.to_string(), expected);
        assert_eq!(p.explain(), p.to_string());
    }
}

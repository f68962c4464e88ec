//! EXPLAIN rendering for physical plans.
//!
//! Two views, both surfaced on
//! [`QueryReport`](crate::session::QueryReport):
//!
//! * [`PhysicalPlan`]'s `Display` — the chosen operator tree with
//!   per-node estimated cardinality and HITs (the §6 "iterative
//!   debugging" view, extended with the optimizer's numbers);
//! * [`PlanReport::render`] — the optimizer's summary: mode, decision
//!   log, and estimated vs actual HITs / dollars / latency once the
//!   query has run.

use std::fmt;

use crate::backend::BackendUsage;
use crate::opt::cost::CostEstimate;
use crate::opt::physical::{sort_label, CompiledPlan, OptimizeMode, PhysNode, PhysicalPlan};

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_node(self, f, 0)
    }
}

fn fmt_node(plan: &PhysicalPlan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    let pad = "  ".repeat(depth);
    let label = match &plan.node {
        PhysNode::Scan { table, alias } => format!("Scan {table} AS {alias}"),
        PhysNode::MachineFilter { predicates, .. } => {
            format!("MachineFilter [{} predicates]", predicates.len())
        }
        PhysNode::CrowdFilter {
            conjuncts,
            combined,
            op,
            ..
        } => {
            let names: Vec<&str> = conjuncts.iter().map(|c| c.name.as_str()).collect();
            let style = if *combined { "combined" } else { "serial" };
            format!(
                "CrowdFilter {} [{style}, batch {}]",
                names.join(" AND "),
                op.batch_size
            )
        }
        PhysNode::CrowdFilterOr { groups, .. } => {
            format!("CrowdFilterOr [{} groups]", groups.len())
        }
        PhysNode::Join {
            clause,
            op,
            pruned_features,
            ..
        } => {
            let mut s = format!("CrowdJoin ON {} [{:?}", clause.on.name, op.strategy);
            if !clause.possibly.is_empty() {
                s.push_str(&format!(", {} POSSIBLY", clause.possibly.len()));
            }
            if !pruned_features.is_empty() {
                s.push_str(&format!(", pruned {}", pruned_features.join("+")));
            }
            s.push(']');
            s
        }
        PhysNode::OrderBy { keys, mode, .. } => {
            format!("OrderBy [{} keys, {}]", keys.len(), sort_label(mode))
        }
        PhysNode::ExtractExtreme { call, desc, .. } => {
            format!(
                "Extract{} {} [tournament]",
                if *desc { "Max" } else { "Min" },
                call.name
            )
        }
        PhysNode::Limit { n, .. } => format!("Limit {n}"),
        PhysNode::Project { items, .. } => crate::plan::project_label(items),
    };
    if plan.cost.hits > 0.0 {
        writeln!(
            f,
            "{pad}{label}  (~{:.0} rows, ~{:.0} HITs, ~${:.2})",
            plan.rows_out, plan.cost.hits, plan.cost.dollars
        )?;
    } else {
        writeln!(f, "{pad}{label}  (~{:.0} rows)", plan.rows_out)?;
    }
    for child in plan.children() {
        fmt_node(child, f, depth + 1)?;
    }
    Ok(())
}

/// The optimizer's per-query report: chosen plan, decision log, and
/// the cost model's estimate. Attached to every
/// [`QueryReport`](crate::session::QueryReport).
#[derive(Debug, Clone)]
pub struct PlanReport {
    pub mode: OptimizeMode,
    /// Rendered physical plan (the `Display` form above).
    pub physical: String,
    /// Cost-based deviations from the as-written plan, in the order
    /// they were decided. Empty when none were justified.
    pub decisions: Vec<String>,
    /// Total estimated cost of the chosen plan.
    pub estimate: CostEstimate,
}

impl From<&CompiledPlan> for PlanReport {
    fn from(compiled: &CompiledPlan) -> Self {
        PlanReport {
            mode: compiled.mode,
            physical: compiled.root.to_string(),
            decisions: compiled.decisions.clone(),
            estimate: compiled.estimate,
        }
    }
}

impl PlanReport {
    /// The full EXPLAIN surface: logical plan, then [`Self::render`].
    /// Both `QueryReport::explain_full` and `QueryBuilder::explain`
    /// frame their output through here.
    pub fn render_with_logical(&self, logical: &str, actual: Option<&BackendUsage>) -> String {
        format!("logical plan:\n{logical}{}", self.render(actual))
    }

    /// Render the EXPLAIN block: plan, decisions, and (when `actual`
    /// is given) estimated vs actual resource usage.
    pub fn render(&self, actual: Option<&BackendUsage>) -> String {
        let mut out = String::new();
        out.push_str(&format!("physical plan ({:?}):\n", self.mode));
        out.push_str(&self.physical);
        if !self.decisions.is_empty() {
            out.push_str("optimizer decisions:\n");
            for d in &self.decisions {
                out.push_str(&format!("  - {d}\n"));
            }
        }
        match actual {
            Some(u) => {
                out.push_str("estimated vs actual:\n");
                out.push_str(&format!(
                    "  HITs     {:>10.0} {:>10}\n",
                    self.estimate.hits, u.hits_posted
                ));
                out.push_str(&format!(
                    "  dollars  {:>10.2} {:>10.2}\n",
                    self.estimate.dollars, u.dollars
                ));
                out.push_str(&format!(
                    "  latency  {:>9.0}s {:>9.0}s\n",
                    self.estimate.latency_secs, u.elapsed_secs
                ));
            }
            None => {
                out.push_str(&format!(
                    "estimated: {:.0} HITs, ${:.2}, ~{:.0}s\n",
                    self.estimate.hits, self.estimate.dollars, self.estimate.latency_secs
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::lang::parser::parse_query;
    use crate::opt::physical::compile;
    use crate::opt::stats::StatisticsStore;
    use crate::plan::plan_query;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::ExecConfig;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for i in 0..20 {
            t.push(vec![Value::Int(i), Value::Null]).unwrap();
        }
        c.register_table("t", t);
        c.define_tasks(
            r#"TASK a(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK byD(field) TYPE Rank:
                OrderDimensionName: "d"
            "#,
        )
        .unwrap();
        c
    }

    #[test]
    fn physical_display_shows_choices_and_estimates() {
        let cat = catalog();
        let logical = plan_query(
            &parse_query("SELECT id FROM t WHERE a(t.img) ORDER BY byD(t.img)").unwrap(),
            &cat,
        )
        .unwrap();
        let plan = compile(
            &logical,
            &cat,
            &ExecConfig::default(),
            &StatisticsStore::new(),
        )
        .unwrap();
        let text = plan.root.to_string();
        assert!(text.contains("CrowdFilter a [serial, batch 5]"), "{text}");
        assert!(text.contains("OrderBy [1 keys, Compare(S=5)]"), "{text}");
        assert!(text.contains("HITs"), "{text}");
        // Indentation: the scan sits deepest.
        let depth = |needle: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .map(|l| l.len() - l.trim_start().len())
                .unwrap()
        };
        assert!(depth("Scan") > depth("OrderBy"));
    }

    #[test]
    fn report_renders_estimate_vs_actual() {
        let report = PlanReport {
            mode: OptimizeMode::CostBased,
            physical: "Project\n".into(),
            decisions: vec!["combine 2 conjunct filters".into()],
            estimate: CostEstimate {
                hits: 10.0,
                rounds: 2.0,
                assignments: 50.0,
                dollars: 0.75,
                latency_secs: 600.0,
            },
        };
        let actual = BackendUsage {
            hits_posted: 9,
            assignments: 45,
            dollars: 0.675,
            elapsed_secs: 540.0,
        };
        let text = report.render(Some(&actual));
        assert!(text.contains("combine 2 conjunct filters"), "{text}");
        assert!(text.contains("estimated vs actual"), "{text}");
        assert!(text.contains("0.75"), "{text}");
        assert!(text.contains("0.68"), "{text}");
        let no_actual = report.render(None);
        assert!(no_actual.contains("estimated: 10 HITs"), "{no_actual}");
    }
}

//! The HIT HTML compiler.
//!
//! Qurk compiled every task into an HTML form posted to MTurk (§2.6's
//! "Task Cache/Model/HIT Compiler"). The simulated marketplace answers
//! structured [`Question`](qurk_crowd::question::Question)s instead,
//! but the compiler is retained faithfully: batching semantics
//! (concatenated forms), the Figure 2 join interfaces, and the Figure 5
//! sort interfaces are all rendered, and the HTML is what a real MTurk
//! backend would post.

use crate::lang::ast::{Template, TupleVar};
use crate::relation::Row;
use crate::task::{TaskDef, TaskType};
use crate::value::Value;

/// Renders task templates + rows into HIT HTML. Each [`Row`] resolves
/// template fields through its own relation's schema.
#[derive(Debug, Default, Clone)]
pub struct HitCompiler;

impl HitCompiler {
    pub fn new() -> Self {
        HitCompiler
    }

    fn render_template(template: &Template, tuple: Row<'_>, tuple2: Option<Row<'_>>) -> String {
        template.render(|var, field| {
            let v: Option<&Value> = match (var, tuple2) {
                (TupleVar::Tuple | TupleVar::Tuple1, _) => tuple.field(field),
                (TupleVar::Tuple2, Some(t2)) => t2.field(field),
                (TupleVar::Tuple2, None) => None,
            };
            v.map(Value::render).unwrap_or_else(|| "?".to_owned())
        })
    }

    /// Filter form (§2.1): prompt + Yes/No buttons, one block per
    /// batched tuple.
    pub fn compile_filter(&self, task: &TaskDef, tuples: &[Row<'_>]) -> String {
        assert_eq!(task.ty, TaskType::Filter, "not a filter task");
        let prompt = task.prompt.as_ref().expect("validated filter has prompt");
        let mut html = String::from("<form class='qurk filter'>\n");
        for (i, &t) in tuples.iter().enumerate() {
            let body = Self::render_template(prompt, t, None);
            html.push_str(&format!(
                "<div class='q' id='q{i}'>{body}\
                 <br><input type='radio' name='a{i}' value='yes'>{}\
                 <input type='radio' name='a{i}' value='no'>{}</div>\n",
                task.yes_text, task.no_text
            ));
        }
        html.push_str("<input type='submit'></form>");
        html
    }

    /// Generative form (§2.2): prompt + one input per field.
    pub fn compile_generative(&self, task: &TaskDef, tuples: &[Row<'_>]) -> String {
        assert_eq!(task.ty, TaskType::Generative, "not a generative task");
        let prompt = task
            .prompt
            .as_ref()
            .expect("validated generative has prompt");
        let mut html = String::from("<form class='qurk generative'>\n");
        for (i, &t) in tuples.iter().enumerate() {
            let body = Self::render_template(prompt, t, None);
            html.push_str(&format!("<div class='q' id='q{i}'>{body}"));
            for f in &task.fields {
                match &f.response {
                    crate::lang::ast::ResponseSpec::Text { label } => {
                        html.push_str(&format!(
                            "<br>{label}: <input type='text' name='{}_{i}'>",
                            f.name
                        ));
                    }
                    crate::lang::ast::ResponseSpec::Radio { label, options } => {
                        html.push_str(&format!("<br>{label}: "));
                        for o in options {
                            let v = match o {
                                crate::lang::ast::ResponseOption::Value(v) => v.as_str(),
                                crate::lang::ast::ResponseOption::Unknown => "UNKNOWN",
                            };
                            html.push_str(&format!(
                                "<input type='radio' name='{}_{i}' value='{v}'>{v} ",
                                f.name
                            ));
                        }
                    }
                }
            }
            html.push_str("</div>\n");
        }
        html.push_str("<input type='submit'></form>");
        html
    }

    /// SimpleJoin / NaiveBatch interface (Figures 2a, 2b): stacked
    /// pairs with Yes/No radios.
    pub fn compile_join_pairs(&self, task: &TaskDef, pairs: &[(Row<'_>, Row<'_>)]) -> String {
        assert_eq!(task.ty, TaskType::EquiJoin, "not a join task");
        let noun = task.singular_name.as_deref().unwrap_or("item");
        let mut html = String::from("<form class='qurk join'>\n");
        for (i, &(l, r)) in pairs.iter().enumerate() {
            let lh = task
                .left_normal
                .as_ref()
                .map(|t| Self::render_template(t, l, None))
                .unwrap_or_else(|| "?".into());
            let rh = task
                .right_normal
                .as_ref()
                .map(|t| Self::render_template(t, r, Some(r)))
                .unwrap_or_else(|| "?".into());
            html.push_str(&format!(
                "<div class='pair' id='p{i}'><table><tr><td>{lh}</td><td>{rh}</td>\
                 <td>Is this the same {noun}?\
                 <input type='radio' name='a{i}' value='yes'>Yes\
                 <input type='radio' name='a{i}' value='no'>No</td></tr></table></div>\n"
            ));
        }
        html.push_str("<input type='submit'></form>");
        html
    }

    /// SmartBatch grid (Figure 2c): two columns of preview images,
    /// click matching pairs, or tick "no matches".
    pub fn compile_join_grid(&self, task: &TaskDef, left: &[Row<'_>], right: &[Row<'_>]) -> String {
        assert_eq!(task.ty, TaskType::EquiJoin, "not a join task");
        let noun = task.plural_name.as_deref().unwrap_or("items");
        let render_col = |tpl: Option<&Template>, tuples: &[Row<'_>], side: &str| {
            let mut s = format!("<div class='col {side}'>");
            for (i, &t) in tuples.iter().enumerate() {
                let body = tpl
                    .map(|tp| Self::render_template(tp, t, Some(t)))
                    .unwrap_or_else(|| "?".into());
                s.push_str(&format!("<div class='cell' data-idx='{i}'>{body}</div>"));
            }
            s.push_str("</div>");
            s
        };
        let mut html = String::from("<form class='qurk smartjoin'>\n");
        html.push_str(&render_col(task.left_preview.as_ref(), left, "left"));
        html.push_str(&render_col(task.right_preview.as_ref(), right, "right"));
        html.push_str(&format!(
            "<div class='controls'>Click pairs of matching {noun}. \
             <label><input type='checkbox' name='nomatch'>No {noun} match</label></div>\n"
        ));
        html.push_str("<input type='submit'></form>");
        html
    }

    /// Comparison sort interface (Figure 5a): order a group of items.
    pub fn compile_compare(&self, task: &TaskDef, group: &[Row<'_>]) -> String {
        assert_eq!(task.ty, TaskType::Rank, "not a rank task");
        let dim = task.order_dimension.as_deref().unwrap_or("order");
        let plural = task.plural_name.as_deref().unwrap_or("items");
        let least = task.least_name.as_deref().unwrap_or("least");
        let most = task.most_name.as_deref().unwrap_or("most");
        let mut html = format!(
            "<form class='qurk compare'>\n<p>Drag the {plural} in order of {dim}, \
             from {least} to {most}.</p>\n<ol class='sortable'>\n"
        );
        for (i, &t) in group.iter().enumerate() {
            let body = task
                .html
                .as_ref()
                .map(|tp| Self::render_template(tp, t, None))
                .unwrap_or_else(|| "?".into());
            html.push_str(&format!("<li data-idx='{i}'>{body}</li>\n"));
        }
        html.push_str("</ol><input type='submit'></form>");
        html
    }

    /// Rating interface (Figure 5b): one item, 7-point Likert scale,
    /// with a strip of random context items.
    pub fn compile_rate(
        &self,
        task: &TaskDef,
        item: Row<'_>,
        context: &[Row<'_>],
        scale: u8,
    ) -> String {
        assert_eq!(task.ty, TaskType::Rank, "not a rank task");
        let dim = task.order_dimension.as_deref().unwrap_or("order");
        let singular = task.singular_name.as_deref().unwrap_or("item");
        let least = task.least_name.as_deref().unwrap_or("least");
        let most = task.most_name.as_deref().unwrap_or("most");
        let mut html = String::from("<form class='qurk rate'>\n<div class='context'>");
        for &c in context {
            let body = task
                .html
                .as_ref()
                .map(|tp| Self::render_template(tp, c, None))
                .unwrap_or_else(|| "?".into());
            html.push_str(&format!("<span class='ctx'>{body}</span>"));
        }
        html.push_str("</div>\n");
        let body = task
            .html
            .as_ref()
            .map(|tp| Self::render_template(tp, item, None))
            .unwrap_or_else(|| "?".into());
        html.push_str(&format!(
            "<div class='target'>{body}</div>\n<p>Rate this {singular} by {dim} \
             (1 = {least}, {scale} = {most}):</p>\n"
        ));
        for v in 1..=scale {
            html.push_str(&format!(
                "<input type='radio' name='rating' value='{v}'>{v} "
            ));
        }
        html.push_str("\n<input type='submit'></form>");
        html
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse_tasks;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::task::TaskDef;

    fn filter_task() -> TaskDef {
        let asts = parse_tasks(
            r#"TASK isFemale(img) TYPE Filter:
                Prompt: "<img src='%s'> Is the person a woman?", tuple[img]
                YesText: "Yes!"
                NoText: "Nope"
            "#,
        )
        .unwrap();
        TaskDef::from_ast(&asts[0]).unwrap()
    }

    fn rank_task() -> TaskDef {
        let asts = parse_tasks(
            r#"TASK squareSorter(img) TYPE Rank:
                SingularName: "square"
                PluralName: "squares"
                OrderDimensionName: "area"
                LeastName: "smallest"
                MostName: "largest"
                Html: "<img src='%s' class=lgImg>", tuple[img]
            "#,
        )
        .unwrap();
        TaskDef::from_ast(&asts[0]).unwrap()
    }

    fn join_task() -> TaskDef {
        let asts = parse_tasks(
            r#"TASK samePerson(img, img2) TYPE EquiJoin:
                SingularName: "celebrity"
                PluralName: "celebrities"
                LeftPreview: "<img src='%s' class=smImg>", tuple1[img]
                LeftNormal: "<img src='%s' class=lgImg>", tuple1[img]
                RightPreview: "<img src='%s' class=smImg>", tuple2[img]
                RightNormal: "<img src='%s' class=lgImg>", tuple2[img]
            "#,
        )
        .unwrap();
        TaskDef::from_ast(&asts[0]).unwrap()
    }

    /// Row `i` is `(name "n{i}", img item://i)`.
    fn relation(n: u64) -> Relation {
        let mut rel = Relation::new(Schema::new(&[
            ("name", ValueType::Text),
            ("img", ValueType::Item),
        ]));
        for i in 0..n {
            rel.push(vec![
                Value::text(format!("n{i}")),
                Value::Item(qurk_crowd::ItemId(i)),
            ])
            .unwrap();
        }
        rel
    }

    #[test]
    fn filter_html_substitutes_and_batches() {
        let c = HitCompiler::new();
        let rel = relation(3);
        let html = c.compile_filter(&filter_task(), &[rel.row(1), rel.row(2)]);
        assert!(html.contains("item://1"));
        assert!(html.contains("item://2"));
        assert!(html.contains("Yes!"));
        assert!(html.contains("Nope"));
        assert_eq!(html.matches("class='q'").count(), 2);
    }

    #[test]
    fn join_pair_html_renders_both_sides() {
        let c = HitCompiler::new();
        let rel = relation(10);
        let html = c.compile_join_pairs(&join_task(), &[(rel.row(1), rel.row(9))]);
        assert!(html.contains("item://1"));
        assert!(html.contains("item://9"));
        assert!(html.contains("same celebrity"));
    }

    #[test]
    fn smart_grid_has_columns_and_no_match_box() {
        let c = HitCompiler::new();
        let rel = relation(4);
        let html = c.compile_join_grid(&join_task(), &[rel.row(1), rel.row(2)], &[rel.row(3)]);
        assert!(html.contains("class='col left'"));
        assert!(html.contains("class='col right'"));
        assert!(html.contains("nomatch"));
        assert_eq!(html.matches("class='cell'").count(), 3);
    }

    #[test]
    fn compare_html_lists_group() {
        let c = HitCompiler::new();
        let rel = relation(5);
        let group: Vec<Row<'_>> = rel.rows().collect();
        let html = c.compile_compare(&rank_task(), &group);
        assert!(html.contains("order of area"));
        assert!(html.contains("from smallest to largest"));
        assert_eq!(html.matches("<li").count(), 5);
    }

    #[test]
    fn rate_html_has_likert_and_context() {
        let c = HitCompiler::new();
        let rel = relation(11);
        let ctx: Vec<Row<'_>> = rel.rows().skip(1).collect();
        let html = c.compile_rate(&rank_task(), rel.row(0), &ctx, 7);
        assert_eq!(html.matches("type='radio'").count(), 7);
        assert_eq!(html.matches("class='ctx'").count(), 10);
        assert!(html.contains("1 = smallest, 7 = largest"));
    }

    #[test]
    #[should_panic(expected = "not a filter task")]
    fn type_mismatch_panics() {
        let c = HitCompiler::new();
        let rel = relation(1);
        c.compile_filter(&rank_task(), &[rel.row(0)]);
    }
}

//! The Compare sort's group-plan memo (`CompareSort::group_plan`).
//!
//! The memo is one process-wide slot, so this binary holds a single
//! test: a parallel test planning another size would evict the plan
//! the checks below compare against.

use std::sync::Arc;

use qurk::ops::sort::CompareSort;
use qurk::opt::cost::EXACT_COMPARE_PLAN_MAX_N;
use qurk::prelude::*;
use qurk_crowd::truth::DimensionParams;
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

const ITEMS: usize = 30;

/// `ITEMS` squares with a crisp `area` dimension, and a Rank task
/// over them.
fn squares() -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("area", DimensionParams::crisp(0.02));
    let mut rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, it) in gt.new_items(ITEMS).into_iter().enumerate() {
        gt.set_score(it, "area", i as f64);
        rel.push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table("squares", rel);
    catalog
        .define_tasks(
            r#"TASK byArea(field) TYPE Rank:
                SingularName: "square"
                PluralName: "squares"
                OrderDimensionName: "area"
                LeastName: "smallest"
                MostName: "largest"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .unwrap();
    let market = Marketplace::new(&CrowdConfig::default().with_seed(7), gt);
    (catalog, market)
}

#[test]
fn group_plan_is_built_once_per_size_and_seed() {
    // The memo hands out exactly the generator's plan, and a repeat
    // call the same one.
    for n in 0..=40 {
        for s in 2..=6 {
            let plan = CompareSort::group_plan(n, s, 11);
            assert_eq!(*plan, CompareSort::plan_groups(n, s, 11), "n={n} s={s}");
            assert!(Arc::ptr_eq(&plan, &CompareSort::group_plan(n, s, 11)));
        }
    }

    // A Compare-sort query plans its groups twice, in the cost model
    // and in the operator; with the plan already built it builds none.
    let op = CompareSort::default();
    let before = CompareSort::group_plan(ITEMS, op.group_size, op.seed);
    let (catalog, mut market) = squares();
    let mut session = Session::new(&catalog, &mut market);
    let report = session
        .query("SELECT s.id FROM squares s ORDER BY byArea(s.img) DESC")
        .sort(SortMode::Compare(op.clone()))
        .report()
        .unwrap();
    assert_eq!(report.relation.len(), ITEMS);
    assert_eq!(report.hits_posted, before.len());
    let after = CompareSort::group_plan(ITEMS, op.group_size, op.seed);
    assert!(Arc::ptr_eq(&before, &after), "the query built a plan");

    // Above the cost model's exact-plan bound nothing is retained: each
    // call plans afresh, and the slot keeps the last small plan.
    let n = EXACT_COMPARE_PLAN_MAX_N + 1;
    let big = CompareSort::group_plan(n, 5, 3);
    assert!(!Arc::ptr_eq(&big, &CompareSort::group_plan(n, 5, 3)));
    assert!(Arc::ptr_eq(
        &before,
        &CompareSort::group_plan(ITEMS, op.group_size, op.seed)
    ));
}

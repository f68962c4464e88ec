//! Failure-injection tests: the engine must surface crowd failures
//! (refused batches, starved groups, exhausted time budgets) as typed
//! errors, never hang or panic — §4.2.2's stalled group-size-20
//! experiment is a *normal* outcome on a real marketplace.

use qurk::ops::filter::FilterOp;
use qurk::ops::sort::CompareSort;
use qurk::prelude::*;
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

fn sortable_world(n: usize) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("d", DimensionParams::crisp(0.02));
    let items = gt.new_items(n);
    for (i, &it) in items.iter().enumerate() {
        gt.set_score(it, "d", i as f64);
        gt.set_predicate(
            it,
            "p",
            PredicateTruth {
                value: true,
                error_rate: 0.03,
            },
        );
    }
    let mut rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in items.iter().enumerate() {
        rel.push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table("t", rel);
    catalog
        .define_tasks(
            r#"TASK p(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK byD(field) TYPE Rank:
                OrderDimensionName: "d"
            "#,
        )
        .unwrap();
    (catalog, Marketplace::new(&CrowdConfig::default(), gt))
}

#[test]
fn oversized_compare_groups_error_cleanly_through_sql() {
    let (catalog, market) = sortable_world(25);
    let mut session = Session::new(&catalog, market);
    // Group size 25 => ~120 work units: nobody accepts. Budget 6 h.
    let err = session
        .query("SELECT id FROM t ORDER BY byD(t.img)")
        .sort(SortMode::Compare(CompareSort {
            group_size: 25,
            limit_secs: 6.0 * 3600.0,
            ..Default::default()
        }))
        .run();
    assert!(
        matches!(err, Err(QurkError::CrowdIncomplete { outstanding }) if outstanding > 0),
        "expected CrowdIncomplete, got {err:?}"
    );
}

#[test]
fn zero_time_budget_times_out_not_hangs() {
    let (catalog, market) = sortable_world(10);
    let mut session = Session::new(&catalog, market);
    let err = session
        .query("SELECT id FROM t WHERE p(t.img)")
        .filter(FilterOp {
            limit_secs: 1.0, // one virtual second
            ..Default::default()
        })
        .run();
    assert!(
        matches!(err, Err(QurkError::CrowdIncomplete { .. })),
        "{err:?}"
    );
    // The timed-out filter's HITs stay outstanding and complete while
    // the next query runs. The market pays for them then, but the
    // next query pays only for its own work.
    let report = session
        .query("SELECT id FROM t ORDER BY byD(t.img)")
        .report()
        .unwrap();
    assert!(report.hits_posted > 0);
    assert_eq!(report.assignments, report.hits_posted as u64 * 5);
    assert!(
        (report.cost_dollars - report.assignments as f64 * 0.015).abs() < 1e-9,
        "charged ${} for {} assignments",
        report.cost_dollars,
        report.assignments
    );
    assert!(
        session.backend().inner().assignments_completed() > report.assignments,
        "the filter's late work completed during the sort"
    );
    // The market paid for that late work, so it is in the cache: a
    // retry of the filter posts nothing live.
    let retry = session
        .query("SELECT id FROM t WHERE p(t.img)")
        .filter(FilterOp {
            limit_secs: 1.0,
            ..Default::default()
        })
        .report()
        .unwrap();
    assert_eq!(retry.hits_posted, 0, "the retry paid again");
}

#[test]
fn market_recovers_after_a_timed_out_group() {
    // A stalled group must not wedge the marketplace: later, acceptable
    // work still completes (the stalled HITs stay outstanding).
    let (catalog, mut market) = sortable_world(12);
    {
        let mut session = Session::new(&catalog, &mut market);
        let _ = session
            .query("SELECT id FROM t ORDER BY byD(t.img)")
            .sort(SortMode::Compare(CompareSort {
                group_size: 12,
                limit_secs: 2.0 * 3600.0,
                ..Default::default()
            }))
            .run();
    }
    let mut session = Session::new(&catalog, &mut market);
    let out = session.run("SELECT id FROM t WHERE p(t.img)").unwrap();
    assert!(out.len() >= 11, "filter after stall found {}", out.len());
}

#[test]
fn requesting_more_assignments_than_workers_is_rejected() {
    let mut gt = GroundTruth::new();
    let item = gt.new_item();
    gt.set_predicate(
        item,
        "p",
        PredicateTruth {
            value: true,
            error_rate: 0.0,
        },
    );
    let mut cfg = CrowdConfig::default();
    cfg.workers.num_workers = 3;
    let mut market = Marketplace::new(&cfg, gt);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        market.post_group_with_assignments(
            vec![qurk_crowd::HitSpec::new(
                vec![qurk_crowd::Question::Filter {
                    item,
                    predicate: "p".into(),
                }],
                qurk_crowd::question::HitKind::Filter,
            )],
            10,
        )
    }));
    assert!(
        result.is_err(),
        "over-requesting assignments must be rejected"
    );
}

#[test]
fn tiny_pool_still_completes_with_matching_assignments() {
    let mut gt = GroundTruth::new();
    let items = gt.new_items(6);
    for &it in &items {
        gt.set_predicate(
            it,
            "p",
            PredicateTruth {
                value: true,
                error_rate: 0.02,
            },
        );
    }
    let mut cfg = CrowdConfig::default().with_assignments(5);
    cfg.workers.num_workers = 6; // barely enough distinct workers
    let mut market = Marketplace::new(&cfg, gt);
    let op = FilterOp::default();
    let out = op.run(&mut market, "p", &items).unwrap();
    assert_eq!(out.len(), 6);
    assert!(out.iter().filter(|&&b| b).count() >= 5);
}

#[test]
fn unregistered_ground_truth_degrades_to_noise_not_panic() {
    // Items with no predicate registered: workers coin-flip; the
    // engine still completes and returns *some* decision.
    let mut gt = GroundTruth::new();
    let items = gt.new_items(8);
    let mut market = Marketplace::new(&CrowdConfig::default(), gt);
    let op = FilterOp::default();
    let out = op.run(&mut market, "never_registered", &items).unwrap();
    assert_eq!(out.len(), 8);
}

//! Per-query configuration isolation: `QueryBuilder` overrides must
//! apply to exactly one query and never leak into subsequent queries
//! on the same `Session` — the bug class a shared, mutable
//! `ExecConfig` invites (a sort mode set for one query sticks until
//! someone resets it).

use qurk::ops::filter::FilterOp;
use qurk::ops::join::{JoinOp, JoinStrategy};
use qurk::ops::sort::RateSort;
use qurk::prelude::*;
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

fn world(seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("d", DimensionParams::crisp(0.02));
    let n = 10;
    let items = gt.new_items(n);
    let photos = gt.new_items(n);
    for i in 0..n {
        for &it in &[items[i], photos[i]] {
            gt.set_entity(it, EntityId(i as u64));
        }
        gt.set_score(items[i], "d", i as f64);
        gt.set_predicate(
            items[i],
            "a",
            PredicateTruth {
                value: i % 2 == 0,
                error_rate: 0.03,
            },
        );
        gt.set_predicate(
            items[i],
            "b",
            PredicateTruth {
                value: i < 5,
                error_rate: 0.03,
            },
        );
    }
    let mut t = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    let mut p = Relation::new(Schema::new(&[
        ("pid", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for i in 0..n {
        t.push(vec![Value::Int(i as i64), Value::Item(items[i])])
            .unwrap();
        p.push(vec![Value::Int(i as i64), Value::Item(photos[i])])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table("t", t);
    catalog.register_table("p", p);
    catalog
        .define_tasks(
            r#"TASK a(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK b(field) TYPE Filter:
                Prompt: "%s?", tuple[field]
               TASK j(x, y) TYPE EquiJoin:
                Combiner: MajorityVote
               TASK byD(field) TYPE Rank:
                OrderDimensionName: "d"
            "#,
        )
        .unwrap();
    (
        catalog,
        Marketplace::new(&CrowdConfig::default().with_seed(seed), gt),
    )
}

/// Fresh worlds per query so HIT counts are comparable; the only
/// variable is whether an override from query 1 leaked into query 2.
#[test]
fn combine_filters_override_does_not_leak() {
    // Baseline: what a default (serial) conjunctive filter costs.
    let (catalog, market) = world(40);
    let serial_hits = Session::new(&catalog, market)
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .report()
        .unwrap()
        .hits_posted;

    // One session: combined query first, then a default query on a
    // *different* predicate pair ordering (same shape, fresh items are
    // not available, so compare HIT counts against the baseline).
    let (catalog, market) = world(40);
    let mut session = Session::new(&catalog, market);
    let combined = session
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .combine_filters(true)
        .report()
        .unwrap();
    assert!(
        combined.hits_posted < serial_hits,
        "combining must cut HITs: {} vs {serial_hits}",
        combined.hits_posted
    );
    // The session default is still serial combining=false.
    assert!(!session.config().combine_conjunct_filters);

    // A fresh world + session pair proves behavioural (not just
    // config-field) isolation: running the same SQL *after* an
    // override-laden query costs the serial amount again.
    let (catalog, market) = world(40);
    let mut session = Session::new(&catalog, market);
    let _ = session
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img) AND id >= 0")
        .combine_filters(true)
        .filter(FilterOp {
            batch_size: 2,
            ..Default::default()
        })
        .run()
        .unwrap();
    let (catalog2, market2) = world(41);
    let mut session2 = Session::new(&catalog2, market2);
    let after = session2
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .report()
        .unwrap();
    let (catalog3, market3) = world(41);
    let baseline = Session::new(&catalog3, market3)
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .report()
        .unwrap();
    assert_eq!(after.hits_posted, baseline.hits_posted);
}

#[test]
fn sort_mode_override_does_not_leak() {
    let (catalog, market) = world(42);
    let mut session = Session::new(&catalog, market);

    // Query 1 overrides the sort to Rate (O(N) HITs).
    let rate = session
        .query("SELECT id FROM t ORDER BY byD(t.img)")
        .sort(SortMode::Rate(RateSort::default()))
        .report()
        .unwrap();
    // Query 2 uses the session default (Compare, O(N²) HITs). If the
    // Rate override leaked, its HIT count would match query 1's
    // (everything else is cached — the Compare HITs are new work).
    let compare = session
        .query("SELECT id FROM t ORDER BY byD(t.img)")
        .report()
        .unwrap();
    assert!(
        compare.hits_posted > rate.hits_posted * 2,
        "default sort must be Compare again: compare={} rate={}",
        compare.hits_posted,
        rate.hits_posted
    );
    // And a third default query is pure cache (both modes seen).
    let third = session
        .query("SELECT id FROM t ORDER BY byD(t.img)")
        .report()
        .unwrap();
    assert_eq!(third.hits_posted, 0);
}

#[test]
fn join_and_assignment_overrides_do_not_leak() {
    let (catalog, market) = world(43);
    let mut session = Session::new(&catalog, market);

    // Query 1: Simple join (100 single-pair HITs) with 3 assignments.
    let simple = session
        .query("SELECT t.id FROM t JOIN p ON j(t.img, p.img)")
        .join(JoinOp {
            strategy: JoinStrategy::Simple,
            ..Default::default()
        })
        .assignments(3)
        .report()
        .unwrap();
    assert_eq!(simple.hits_posted, 100);
    assert_eq!(simple.assignments, 300);

    // Query 2, same SQL, session defaults: NaiveBatch(5) posts 20 new
    // HITs (different specs than the Simple run) at 5 assignments.
    let batched = session
        .query("SELECT t.id FROM t JOIN p ON j(t.img, p.img)")
        .report()
        .unwrap();
    assert_eq!(batched.hits_posted, 20);
    assert_eq!(batched.assignments, 100);
}

#[test]
fn budget_override_applies_to_one_query_only() {
    let (catalog, market) = world(44);
    let mut session = Session::new(&catalog, market);
    let err = session
        .query("SELECT id FROM t WHERE a(t.img)")
        .budget_dollars(0.0)
        .run();
    assert!(matches!(err, Err(QurkError::BudgetExceeded { .. })));
    // The failed query spent nothing.
    assert_eq!(session.backend().hits_posted(), 0);
    // The next query has no budget and runs normally.
    let ok = session
        .query("SELECT id FROM t WHERE a(t.img)")
        .report()
        .unwrap();
    assert!(ok.relation.len() >= 3);
    assert!(ok.hits_posted > 0);
}

#[test]
fn session_builder_defaults_apply_to_every_query() {
    // Builder-level defaults are the session-wide baseline...
    let (catalog, market) = world(45);
    let mut session = Session::builder()
        .catalog(&catalog)
        .backend(market)
        .combine_filters(true)
        .build();
    let combined = session
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .report()
        .unwrap();
    // ...and can still be overridden per query, back to serial.
    let (catalog2, market2) = world(45);
    let mut session2 = Session::builder()
        .catalog(&catalog2)
        .backend(market2)
        .combine_filters(true)
        .build();
    let serial = session2
        .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
        .combine_filters(false)
        .report()
        .unwrap();
    assert!(
        combined.hits_posted < serial.hits_posted,
        "combined={} serial={}",
        combined.hits_posted,
        serial.hits_posted
    );
}

//! Regression: a tenant query that fails mid-flight must release (not
//! leak) its in-flight dedup slots in the shared task cache.
//!
//! Before the fix, a failed query's live-posted spec keys stayed in
//! `CachingBackend::pending` forever, so every later identical spec —
//! from any tenant — piggybacked (`VirtualSource::Shared`) on rounds
//! nobody was driving to completion, and the retry starved instead of
//! re-posting.

use std::sync::Arc;

use qurk::backend::ReplayBackend;
use qurk::service::QueryService;
use qurk::{Catalog, Relation, ReplayTrace, Schema, Value, ValueType};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

const FILTER_SQL: &str = "SELECT p.id FROM people AS p WHERE isTall(p.img)";
const SORT_SQL: &str = "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)";

fn world() -> (Arc<Catalog>, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    let items = gt.new_items(8);
    for (i, &it) in items.iter().enumerate() {
        gt.set_predicate(
            it,
            "isTall",
            PredicateTruth {
                value: i >= 4,
                error_rate: 0.0,
            },
        );
        gt.set_score(it, "height", i as f64);
        gt.set_entity(it, EntityId(i as u64));
    }
    let market = Marketplace::new(&CrowdConfig::default().with_seed(11), gt);

    let mut catalog = Catalog::new();
    let mut people = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in items.iter().enumerate() {
        people
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .expect("people row matches schema");
    }
    catalog.register_table("people", people);
    catalog
        .define_tasks(
            r#"TASK isTall(field) TYPE Filter:
                Prompt: "<img src='%s'> Tall?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .expect("task definitions parse");
    (Arc::new(catalog), market)
}

/// A failed query's dedup slots are released, and the retry re-posts
/// live instead of piggybacking on the abandoned group.
#[test]
fn failed_query_releases_in_flight_slots() {
    let (catalog, _market) = world();
    // An empty replay trace answers nothing: every posted round times
    // out and the query fails with CrowdIncomplete.
    let backend = ReplayBackend::from_trace(ReplayTrace::default());
    let mut svc = QueryService::new(Arc::clone(&catalog), backend);
    svc.register_tenant("alice", None);

    svc.submit("alice", FILTER_SQL)
        .expect("query is admissible");
    let reports = svc.run_pending();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].is_err(), "unanswerable query must fail");
    assert_eq!(
        svc.market().pending_len(),
        0,
        "failed query leaked its in-flight dedup slots"
    );

    // The retry must post live again — before the fix it piggybacked
    // (shared_hits > 0) on the dead group and starved the same way
    // without ever re-posting.
    let (_, misses_before) = svc.market().stats();
    svc.submit("alice", FILTER_SQL)
        .expect("retry is admissible");
    let reports = svc.run_pending();
    assert!(reports[0].is_err(), "still unanswerable — but live");
    let (_, misses_after) = svc.market().stats();
    assert_eq!(svc.market().shared_hits(), 0, "retry must not piggyback");
    assert!(
        misses_after > misses_before,
        "retry must re-post live specs"
    );
    assert_eq!(svc.market().pending_len(), 0, "retry released too");
}

/// The release only touches the failed query's own slots: a successful
/// concurrent query's cache entries survive and keep serving.
#[test]
fn release_is_scoped_to_the_failed_query() {
    // Record answers for the filter workload only.
    let (catalog, market) = world();
    let trace = {
        let mut svc = QueryService::new(Arc::clone(&catalog), market);
        svc.register_tenant("alice", None);
        svc.submit("alice", FILTER_SQL).expect("admissible");
        let reports = svc.run_pending();
        assert!(reports[0].is_ok(), "live recording run succeeds");
        let trace = svc.market().trace().clone();
        trace
    };

    // bob's sort is NOT in the trace (fails); alice's filter is.
    let backend = ReplayBackend::from_trace(trace);
    let mut svc = QueryService::new(Arc::clone(&catalog), backend);
    svc.register_tenant("alice", None);
    svc.register_tenant("bob", None);
    svc.submit("alice", FILTER_SQL).expect("admissible");
    svc.submit("bob", SORT_SQL).expect("admissible");
    let reports = svc.run_pending();
    assert!(reports[0].is_ok(), "alice's replayed filter succeeds");
    assert!(reports[1].is_err(), "bob's untraced sort fails");
    assert_eq!(svc.market().pending_len(), 0);

    // Alice can re-run for free off the cache.
    svc.submit("alice", FILTER_SQL).expect("admissible");
    let reports = svc.run_pending();
    assert!(reports[0].is_ok(), "cache still serves alice");
}

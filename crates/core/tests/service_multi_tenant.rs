//! Acceptance tests for the multi-tenant query service
//! (`qurk::service`): cross-tenant cache sharing pays for identical
//! work exactly once, per-tenant metering sums to the shared backend's
//! total spend, and N ≥ 8 concurrent queries are **deterministic** —
//! byte-identical to running the same queries sequentially, proven on
//! a replayed crowd.

use std::sync::Arc;

use qurk::backend::{ReplayBackend, ReplayTrace};
use qurk::lang::parse_query;
use qurk::plan::plan_query;
use qurk::service::QueryService;
use qurk::{
    Catalog, Code, CrowdBackend, DurableStore, ExecConfig, LintPolicy, QurkError, Relation, Schema,
    Session, Value, ValueType,
};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, ItemId, Marketplace};

/// Ten people, five tall, heights 0..10 — same world the session
/// tests use, with a Filter task and a Rank task.
fn world(seed: u64) -> (Arc<Catalog>, Marketplace) {
    world_with(seed, |_, _| {})
}

/// [`world`], with `extend` adding ground truth for the ten people.
fn world_with(
    seed: u64,
    extend: impl FnOnce(&mut GroundTruth, &[ItemId]),
) -> (Arc<Catalog>, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    let items = gt.new_items(10);
    for (i, &it) in items.iter().enumerate() {
        gt.set_predicate(
            it,
            "isTall",
            PredicateTruth {
                value: i >= 5,
                error_rate: 0.03,
            },
        );
        gt.set_score(it, "height", i as f64);
        gt.set_entity(it, EntityId(i as u64));
    }
    extend(&mut gt, &items);
    let market = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);

    let mut catalog = Catalog::new();
    let mut rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in items.iter().enumerate() {
        rel.push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    catalog.register_table("people", rel);
    catalog
        .define_tasks(
            r#"TASK isTall(field) TYPE Filter:
                Prompt: "<img src='%s'> Tall?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .unwrap();
    (Arc::new(catalog), market)
}

const FILTER_SQL: &str = "SELECT p.id FROM people AS p WHERE isTall(p.img)";
const SORT_SQL: &str = "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)";

#[test]
fn identical_specs_across_tenants_are_paid_once() {
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    svc.register_tenant("alice", None);
    svc.register_tenant("bob", None);
    svc.submit("alice", FILTER_SQL).unwrap();
    svc.submit("bob", FILTER_SQL).unwrap();
    let reports = svc.run_pending();
    assert_eq!(reports.len(), 2);
    let a = reports[0].as_ref().unwrap();
    let b = reports[1].as_ref().unwrap();

    // Identical queries, identical answers.
    assert_eq!(a.relation, b.relation);

    // The shared market posted one query's worth of HITs; the second
    // tenant's specs all rode the first tenant's in-flight rounds.
    let (cache_hits, cache_misses) = svc.market().stats();
    assert!(cache_misses > 0);
    assert_eq!(cache_hits, cache_misses, "bob mirrors alice spec-for-spec");
    assert_eq!(svc.market().shared_hits(), cache_hits);
    assert_eq!(svc.market().hits_posted() as u64, cache_misses);

    // Attribution: alice paid for everything, bob for nothing, and the
    // per-tenant meters sum exactly to the shared backend's spend.
    let spent_a = svc.tenant_spent("alice").unwrap();
    let spent_b = svc.tenant_spent("bob").unwrap();
    let total = svc.market().spend_dollars();
    assert!(spent_a > 0.0);
    assert_eq!(spent_b, 0.0);
    assert!(
        (spent_a + spent_b - total).abs() < 1e-9,
        "tenant meters ({spent_a} + {spent_b}) must sum to the market total ({total})"
    );

    // The service stats on bob's report say so.
    let svc_b = b.service.as_ref().unwrap();
    assert_eq!(svc_b.tenant, "bob");
    assert_eq!(svc_b.shared_cache_hits, cache_hits);
    assert!(
        (svc_b.saved_dollars - total).abs() < 1e-9,
        "bob saved exactly what alice paid"
    );
    let svc_a = a.service.as_ref().unwrap();
    assert_eq!(svc_a.shared_cache_hits, 0);
    assert!(svc_a.rounds > 0);
    assert_eq!(svc_a.rounds, svc_b.rounds, "identical queries, same rounds");
    assert!(
        svc_b.rounds_shared > 0,
        "bob's rounds overlapped alice's marketplace steps"
    );

    // The shared cache holds exactly the deduplicated spec set (one
    // query's worth), not two.
    assert_eq!(svc.market().trace().len() as u64, cache_misses);
}

/// Record every spec the 8-query batch needs, then replay.
fn record_trace(catalog: &Arc<Catalog>, queries: &[(&str, &str)]) -> ReplayTrace {
    let (_, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(catalog), market);
    for &(tenant, _) in queries {
        svc.register_tenant(tenant, None);
    }
    for &(tenant, sql) in queries {
        svc.submit(tenant, sql).unwrap();
    }
    for r in svc.run_pending() {
        r.expect("recording run must succeed");
    }
    let trace = svc.market().trace().clone();
    trace
}

#[test]
fn eight_concurrent_queries_match_sequential_byte_for_byte() {
    let (catalog, _) = world(7);
    let queries: Vec<(&str, &str)> = vec![
        ("alice", FILTER_SQL),
        ("bob", FILTER_SQL),
        ("carol", SORT_SQL),
        ("alice", SORT_SQL),
        ("bob", "SELECT p.img FROM people AS p WHERE isTall(p.img)"),
        ("carol", FILTER_SQL),
        (
            "alice",
            "SELECT p.id, p.img FROM people AS p WHERE isTall(p.img)",
        ),
        ("bob", SORT_SQL),
    ];
    let trace = record_trace(&catalog, &queries);

    // Concurrent: all 8 in one batch on one shared replayed market.
    let mut conc = QueryService::new(
        Arc::clone(&catalog),
        ReplayBackend::from_trace(trace.clone()),
    );
    for &(tenant, _) in &queries {
        conc.register_tenant(tenant, None);
    }
    for &(tenant, sql) in &queries {
        conc.submit(tenant, sql).unwrap();
    }
    let concurrent: Vec<_> = conc
        .run_pending()
        .into_iter()
        .map(|r| r.expect("concurrent replay must succeed"))
        .collect();
    assert_eq!(concurrent.len(), 8);

    // Sequential baseline: each query alone on its own replayed
    // market, planned from the same (empty) statistics snapshot.
    for (i, &(tenant, sql)) in queries.iter().enumerate() {
        let mut seq = QueryService::new(
            Arc::clone(&catalog),
            ReplayBackend::from_trace(trace.clone()),
        );
        seq.register_tenant(tenant, None);
        seq.submit(tenant, sql).unwrap();
        let report = seq.run_pending().pop().unwrap().expect("sequential replay");
        assert_eq!(
            format!("{:?}", concurrent[i].relation),
            format!("{:?}", report.relation),
            "query {i} ({sql}) diverged under concurrency"
        );
        assert_eq!(concurrent[i].relation.len(), report.relation.len());
    }

    // Attribution still sums exactly, eight ways.
    let per_tenant: f64 = ["alice", "bob", "carol"]
        .iter()
        .map(|t| conc.tenant_spent(t).unwrap())
        .sum();
    let total = conc.market().spend_dollars();
    assert!(
        (per_tenant - total).abs() < 1e-9,
        "tenant meters ({per_tenant}) must sum to the market total ({total})"
    );
    assert!(total > 0.0);
}

#[test]
fn tenant_budgets_gate_queries_and_accumulate() {
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    // Enough for the filter but not the sort behind it: the budget
    // gate refuses the second crowd operator mid-query.
    svc.register_tenant("cheap", Some(0.1));
    svc.submit(
        "cheap",
        "SELECT p.id FROM people AS p WHERE isTall(p.img) ORDER BY byHeight(p.img)",
    )
    .unwrap();
    let reports = svc.run_pending();
    match &reports[0] {
        Err(QurkError::BudgetExceeded { budget_dollars, .. }) => {
            assert!(*budget_dollars <= 0.1);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // What the failed query did spend is still attributed to the
    // tenant, so the next query sees only the remainder.
    let spent = svc.tenant_spent("cheap").unwrap();
    assert!(spent > 0.0);
    svc.submit("cheap", FILTER_SQL).unwrap();
    match &svc.run_pending()[0] {
        Err(QurkError::BudgetExceeded { spent_dollars, .. }) => {
            // Refused before posting anything new.
            assert_eq!(*spent_dollars, 0.0);
        }
        other => panic!("expected BudgetExceeded on the drained tenant, got {other:?}"),
    }
    assert_eq!(svc.tenant_spent("cheap").unwrap(), spent);
}

#[test]
fn unknown_tenants_and_bad_queries_are_rejected_at_submit() {
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    svc.register_tenant("alice", None);
    assert!(svc.submit("mallory", FILTER_SQL).is_err());
    assert!(svc
        .submit("alice", "SELECT p.id FROM nosuch AS p WHERE isTall(p.img)")
        .is_err());
    assert_eq!(svc.pending_len(), 0);
}

#[test]
fn a_service_survives_multiple_batches_and_reuses_the_cache() {
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    svc.register_tenant("alice", None);
    svc.submit("alice", FILTER_SQL).unwrap();
    let first = svc.run_pending().pop().unwrap().unwrap();
    let posted_after_first = svc.market().hits_posted();
    assert!(posted_after_first > 0);

    // Same query next batch: answered entirely from the shared cache.
    svc.register_tenant("bob", None);
    svc.submit("bob", FILTER_SQL).unwrap();
    let second = svc.run_pending().pop().unwrap().unwrap();
    assert_eq!(svc.market().hits_posted(), posted_after_first);
    assert_eq!(first.relation, second.relation);
    assert_eq!(svc.tenant_spent("bob").unwrap(), 0.0);
    let stats = second.service.unwrap();
    assert!(stats.shared_cache_hits > 0);
    assert!(stats.saved_dollars > 0.0);
}

/// Regression: admission must price QA005 against the budget the query
/// would actually run under — the tighter of its own budget and the
/// tenant's remainder. A drained tenant's crowd query is rejected at
/// `submit`, before it is queued or checkpointed.
#[test]
fn admission_prices_the_tenants_remaining_budget() {
    let path =
        std::env::temp_dir().join(format!("qurk-admission-budget-{}.qwal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (catalog, market) = world(7);
    let config = ExecConfig {
        lint: qurk::LintConfig {
            policy: LintPolicy::Deny,
            ..Default::default()
        },
        ..Default::default()
    };
    let store = Arc::new(DurableStore::open(&path).unwrap());
    let mut svc =
        QueryService::with_store(Arc::clone(&catalog), market, config, Arc::clone(&store));
    svc.register_tenant("broke", Some(0.0));
    match svc.submit("broke", FILTER_SQL) {
        Err(QurkError::Rejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.code == Code::QA005),
                "{diagnostics:?}"
            );
        }
        other => panic!("expected a QA005 rejection at submit, got {other:?}"),
    }
    assert_eq!(svc.pending_len(), 0);
    assert!(
        store.live_checkpoints().is_empty(),
        "a rejected query must leave no checkpoint"
    );
    drop(svc);
    drop(store);
    let _ = std::fs::remove_file(&path);
}

/// What one batch learns reaches the next batch's admission. Batch 1
/// plans two conjuncts from empty statistics, as written; it learns
/// that `isBlond` passes far fewer people than `isTall`, so batch 2 is
/// admitted with the conjuncts reordered and runs exactly what a fresh
/// compile against `svc.statistics()` gives.
#[test]
fn statistics_learned_by_one_batch_steer_the_next_admission() {
    let (mut catalog, market) = world_with(7, |gt, items| {
        for (i, &it) in items.iter().enumerate() {
            let truth = PredicateTruth {
                value: i < 2,
                error_rate: 0.03,
            };
            gt.set_predicate(it, "isBlond", truth);
        }
    });
    Arc::make_mut(&mut catalog)
        .define_tasks(
            r#"TASK isBlond(field) TYPE Filter:
                Prompt: "<img src='%s'> Blond?", tuple[field]
            "#,
        )
        .unwrap();
    let sql = "SELECT p.id FROM people AS p WHERE isTall(p.img) AND isBlond(p.img)";
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    svc.register_tenant("alice", None);
    svc.submit("alice", sql).unwrap();
    let first = svc.run_pending().pop().unwrap().unwrap();
    assert!(
        first.plan.decisions.is_empty(),
        "{:?}",
        first.plan.decisions
    );

    svc.submit("alice", sql).unwrap();
    let logical = plan_query(&parse_query(sql).unwrap(), &catalog).unwrap();
    let fresh =
        qurk::opt::compile(&logical, &catalog, &ExecConfig::default(), svc.statistics()).unwrap();
    assert!(
        fresh
            .decisions
            .iter()
            .any(|d| d.starts_with("filter order")),
        "{:?}",
        fresh.decisions
    );
    let second = svc.run_pending().pop().unwrap().unwrap();
    assert_eq!(second.plan.decisions, fresh.decisions);
    assert_eq!(second.plan.physical, fresh.root.to_string());
    assert_ne!(second.plan.physical, first.plan.physical);
    assert_eq!(second.relation, first.relation);
}

/// Admission's verdict is what runs: a tenant re-budgeted to $0 after
/// `submit` gets no fresh QA005 verdict. Its query runs under the
/// batch-start budget, whose guard refuses the first crowd operator,
/// so it fails with `BudgetExceeded` before any HIT is posted.
#[test]
fn a_tenant_cut_to_zero_after_submit_fails_at_the_budget_guard() {
    let (catalog, market) = world(7);
    let config = ExecConfig {
        lint: qurk::LintConfig {
            policy: LintPolicy::Deny,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut svc = QueryService::with_config(Arc::clone(&catalog), market, config);
    svc.register_tenant("alice", Some(5.0));
    svc.submit("alice", FILTER_SQL).unwrap();
    svc.register_tenant("alice", Some(0.0));
    match svc.run_pending().pop().unwrap() {
        Err(QurkError::BudgetExceeded {
            budget_dollars,
            spent_dollars,
        }) => {
            assert_eq!(budget_dollars, 0.0);
            assert_eq!(spent_dollars, 0.0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(svc.market().hits_posted(), 0);
    assert_eq!(svc.tenant_spent("alice").unwrap(), 0.0);
}

/// A service post crosses one Task Cache, the shared one: a query that
/// re-asks its own specs is answered the second time by that cache, so
/// the service counts the hits and the savings a `Session` counts.
#[test]
fn a_self_repeating_query_hits_the_one_shared_cache() {
    let sql = "SELECT p.id FROM people AS p WHERE isTall(p.img) OR isTall(p.img)";
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    svc.register_tenant("alice", None);
    svc.submit("alice", sql).unwrap();
    let served = svc.run_pending().pop().unwrap().unwrap();

    let (_, market) = world(7);
    let mut session = Session::new(&catalog, market);
    let direct = session.query(sql).report().unwrap();

    assert_eq!(served.relation, direct.relation);
    assert_eq!(served.hits_posted, direct.hits_posted);
    assert_eq!(served.cost_dollars, direct.cost_dollars);
    assert_eq!(served.assignments, direct.assignments);
    assert_eq!(served.elapsed_secs, direct.elapsed_secs);
    assert_eq!(svc.statistics(), session.statistics());
    let stats = served.service.as_ref().unwrap();
    assert!(served.hits_posted > 0);
    assert_eq!(stats.shared_cache_hits, served.hits_posted as u64);
    assert_eq!(stats.saved_dollars, served.cost_dollars);
    assert_eq!(svc.market().stats(), session.cache_stats());
}

/// A query that times out leaves its live HITs outstanding. They
/// complete during a later batch's marketplace steps, and the market
/// pays for them then; that batch charges them to the query's tenant,
/// so the tenants' spend still sums to the market's.
#[test]
fn late_work_of_a_timed_out_query_is_charged_to_its_tenant() {
    let (catalog, market) = world(7);
    let mut config = ExecConfig::default();
    config.filter.limit_secs = 1.0;
    let mut svc = QueryService::with_config(Arc::clone(&catalog), market, config);
    svc.register_tenant("alice", None);
    svc.register_tenant("bob", None);
    svc.submit("alice", FILTER_SQL).unwrap();
    let timed_out = svc.run_pending().pop().unwrap();
    assert!(
        matches!(timed_out, Err(QurkError::CrowdIncomplete { .. })),
        "{timed_out:?}"
    );
    svc.submit("bob", SORT_SQL).unwrap();
    let sorted = svc.run_pending().pop().unwrap().unwrap();

    let alice = svc.tenant_spent("alice").unwrap();
    let bob = svc.tenant_spent("bob").unwrap();
    assert_eq!(bob, sorted.cost_dollars, "bob pays for his own work");
    assert!(alice > 0.0, "alice's late work is charged to her");
    let total = svc.market().spend_dollars();
    assert!(
        (alice + bob - total).abs() < 1e-9,
        "alice ${alice} + bob ${bob} != market ${total}"
    );
    // What the market paid for alice's late work is in the cache: her
    // retry replays it instead of paying again.
    svc.submit("alice", FILTER_SQL).unwrap();
    let retry = svc.run_pending().pop().unwrap().unwrap();
    assert_eq!(retry.hits_posted, 0, "alice's retry paid again");
}

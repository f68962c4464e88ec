//! Regression tests for the service's bounded shared cache,
//! round-deadline validation, and checkpoint re-admission on recovery.
//!
//! * **Eviction**: with `max_entries` set, evicted-then-re-posted
//!   specs are paid for again and the books still balance — Σ tenant
//!   spend == market total.
//! * **Invalid deadlines**: a round posted with a non-finite limit
//!   fails its query with [`QurkError::InvalidDeadline`] instead of
//!   poisoning the shared clock, and the service keeps serving.
//! * **Recovery re-admission**: [`QueryService::recover`] pushes every
//!   live checkpoint back through the same admission gate as
//!   `submit()`; checkpoints that no longer pass are retired, not
//!   executed, checkpoints this process still has queued are not
//!   queued twice, and a dead store re-queues nothing.
//! * **Failed reads**: a store that cannot read its own log back fails
//!   the queries that finish on it with [`QurkError::Store`].

use std::path::PathBuf;
use std::sync::Arc;

use qurk::service::QueryService;
use qurk::store::{CrashPoint, DurableStore, FaultPlan, TenantRecord};
use qurk::{Catalog, CrowdBackend, ExecConfig, QurkError, Relation, Schema, Value, ValueType};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

const FILTER_SQL: &str = "SELECT p.id FROM people AS p WHERE isTall(p.img)";

fn world(seed: u64) -> (Arc<Catalog>, Marketplace) {
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

/// Bound the shared cache, force evictions across batches, and prove
/// the re-paid work still balances: Σ tenant spend == market total.
#[test]
fn eviction_repays_specs_and_the_books_still_balance() {
    let (catalog, market) = world(7);
    let mut svc = QueryService::new(Arc::clone(&catalog), market);
    // The filter batches 5 tuples per HIT, so 10 people make two
    // shared-cache specs; a 1-entry bound forces an eviction.
    svc.market().set_max_entries(Some(1));
    svc.register_tenant("alice", None);
    svc.register_tenant("bob", None);

    // Batch 1: alice pays for both specs; the bound does not evict
    // mid-batch (entries recorded this batch are pinned).
    svc.submit("alice", FILTER_SQL).unwrap();
    let first = svc.run_pending().pop().unwrap().unwrap();
    let alice_spent = svc.tenant_spent("alice").unwrap();
    assert!(alice_spent > 0.0);

    // Batch 2: the boundary trims the cache to 1 entry, so bob's
    // identical query re-posts the evicted spec and pays for it.
    svc.submit("bob", FILTER_SQL).unwrap();
    let second = svc.run_pending().pop().unwrap().unwrap();
    assert!(
        svc.market().evictions() > 0,
        "a 1-entry bound over a two-spec query must evict"
    );
    let bob_spent = svc.tenant_spent("bob").unwrap();
    assert!(
        bob_spent > 0.0,
        "evicted specs are paid for again when re-posted"
    );
    let svc_stats = second.service.as_ref().unwrap();
    assert!(
        svc_stats.shared_cache_hits > 0,
        "the surviving entries still serve hits"
    );
    assert_eq!(first.relation.schema(), second.relation.schema());

    let total = svc.market().spend_dollars();
    assert!(
        (alice_spent + bob_spent - total).abs() < 1e-9,
        "tenant meters ({alice_spent} + {bob_spent}) must sum to the market total ({total})"
    );
}

/// A round posted with an infinite (or NaN) deadline fails that query
/// with a typed error instead of running the shared clock forever —
/// and the service keeps working afterwards.
#[test]
fn non_finite_round_deadlines_fail_the_query_not_the_service() {
    for bad in [f64::INFINITY, f64::NAN, -1.0] {
        let (catalog, market) = world(7);
        let mut config = ExecConfig::default();
        config.filter.limit_secs = bad;
        let mut svc = QueryService::with_config(Arc::clone(&catalog), market, config);
        svc.register_tenant("alice", None);
        svc.register_tenant("bob", None);
        svc.submit("alice", FILTER_SQL).unwrap();
        let reports = svc.run_pending();
        match &reports[0] {
            Err(QurkError::InvalidDeadline { limit_secs }) => {
                assert!(!(limit_secs.is_finite() && *limit_secs >= 0.0));
            }
            other => panic!("expected InvalidDeadline for limit {bad}, got {other:?}"),
        }
        // Nothing was committed for the refused round — no spend, no
        // clock poisoning — and the service keeps scheduling: a query
        // that posts no round (machine-only) under the same broken
        // config still completes.
        assert_eq!(svc.tenant_spent("alice").unwrap(), 0.0);
        assert_eq!(svc.market().spend_dollars(), 0.0);
        svc.submit("bob", "SELECT p.id FROM people AS p").unwrap();
        let ok = svc.run_pending().pop().unwrap();
        assert!(
            ok.is_ok(),
            "service must keep serving after a refused round: {ok:?}"
        );
    }
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qurk-service-fairness-{}-{tag}.qwal",
        std::process::id()
    ))
}

/// `recover()` re-admits checkpoints through the same gate as
/// `submit()`: live checkpoints that no longer parse, no longer pass
/// analysis, or belong to an unknown tenant are retired (marked done)
/// instead of executed — and stay retired on the next restart.
#[test]
fn recover_readmits_through_the_admission_gate() {
    let path = store_path("readmit");
    let _ = std::fs::remove_file(&path);

    // A "previous process" left four live checkpoints behind: one
    // valid, one that does not parse, one that fails analysis
    // (unknown table), one for a tenant missing from the log.
    {
        let store = DurableStore::open(&path).unwrap();
        store.append_tenant(&TenantRecord {
            name: "alice".to_owned(),
            budget: None,
            spent: 0.0,
        });
        store.append_checkpoint("alice", FILTER_SQL, None);
        store.append_checkpoint("alice", "SELECT FROM WHERE", None);
        store.append_checkpoint(
            "alice",
            "SELECT p.id FROM nosuch AS p WHERE isTall(p.img)",
            None,
        );
        store.append_checkpoint("ghost", FILTER_SQL, None);
    }

    let (catalog, market) = world(7);
    let store = Arc::new(DurableStore::open(&path).unwrap());
    assert_eq!(store.live_checkpoints().len(), 4);
    let mut svc = QueryService::with_store(
        Arc::clone(&catalog),
        market,
        ExecConfig::default(),
        Arc::clone(&store),
    );
    let resumed = svc.recover();
    assert_eq!(
        resumed.len(),
        1,
        "only the admissible checkpoint is re-queued"
    );
    assert_eq!(svc.pending_len(), 1);

    let report = svc.run_pending().pop().unwrap().unwrap();
    assert!(report.service.as_ref().unwrap().resumed);
    assert!(report.hits_posted > 0, "the resumed query really ran");

    // Every checkpoint is now retired: the executed one by completion,
    // the inadmissible ones by the gate. A restart resurrects nothing.
    assert!(store.live_checkpoints().is_empty());
    drop(svc);
    let reopened = DurableStore::open(&path).unwrap();
    assert!(reopened.live_checkpoints().is_empty());
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint this process admitted and still has queued is not
/// "in flight from a previous process": recovering after `submit`,
/// twice, must not queue the query again — it runs once.
#[test]
fn recover_skips_checkpoints_this_process_already_queued() {
    let path = store_path("requeue");
    let _ = std::fs::remove_file(&path);
    let (catalog, market) = world(8);
    let store = Arc::new(DurableStore::open(&path).unwrap());
    let mut svc = QueryService::with_store(catalog, market, ExecConfig::default(), store);
    svc.register_tenant("alice", None);
    svc.submit("alice", FILTER_SQL).unwrap();
    svc.recover();
    svc.recover();
    assert_eq!(svc.pending_len(), 1, "recover() re-queued a queued query");
    let reports = svc.run_pending();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].is_ok());
    let _ = std::fs::remove_file(&path);
}

/// A store that fails a read (here: the log was overwritten under the
/// open handle, found by the next compaction) fails the queries that
/// finish on it, as a failed write does, instead of reporting them as
/// durably done.
#[test]
fn a_store_that_fails_a_read_fails_the_query() {
    let path = store_path("bad-read");
    let _ = std::fs::remove_file(&path);
    let (catalog, market) = world(9);
    // Threshold 1: every append compacts, and compaction reads the log.
    let store = Arc::new(DurableStore::open(&path).unwrap().with_compact_threshold(1));
    let mut svc =
        QueryService::with_store(catalog, market, ExecConfig::default(), Arc::clone(&store));
    svc.register_tenant("alice", None);
    std::fs::write(&path, vec![0u8; store.len_bytes() as usize]).unwrap();
    svc.submit("alice", FILTER_SQL).unwrap();
    let report = svc.run_pending().pop().unwrap();
    assert!(
        matches!(report, Err(QurkError::Store(_))),
        "a failed read was reported as durable: {report:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A dead store's log no longer records this process's completions:
/// a query that finished after the store died still has a live
/// checkpoint on disk, so `recover()` in the same process must not
/// take it for unfinished work and run it again.
#[test]
fn recover_on_a_dead_store_requeues_nothing() {
    let path = store_path("dead-recover");
    let _ = std::fs::remove_file(&path);
    let (catalog, market) = world(10);
    // Appends: the tenant, the checkpoint, then the first paid round,
    // whose append never starts.
    let plan = FaultPlan::at(CrashPoint::AppendStart).on_occurrence(3);
    let store = Arc::new(DurableStore::open_with_faults(&path, plan).unwrap());
    let mut svc =
        QueryService::with_store(catalog, market, ExecConfig::default(), Arc::clone(&store));
    svc.register_tenant("alice", None);
    svc.submit("alice", FILTER_SQL).unwrap();
    assert!(svc.run_pending().pop().unwrap().is_ok());
    assert!(store.is_dead());
    assert_eq!(store.live_checkpoints().len(), 1, "the QueryDone was lost");
    assert!(svc.recover().is_empty());
    assert_eq!(svc.pending_len(), 0);
    let _ = std::fs::remove_file(&path);
}

//! `Session::persist_to`: a single-tenant session journaling to a
//! durable store replays its paid work for free after a restart.

use qurk::backend::ReplayBackend;
use qurk::{Catalog, DurableStore, Relation, ReplayTrace, Schema, Session, Value, ValueType};
use qurk_crowd::truth::PredicateTruth;
use qurk_crowd::{Answer, CrowdConfig, EntityId, GroundTruth, Marketplace};

const FILTER_SQL: &str = "SELECT p.id FROM people AS p WHERE isTall(p.img)";

fn world(seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
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
        gt.set_entity(it, EntityId(i as u64));
    }
    let market = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);

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
            "#,
        )
        .expect("task definitions parse");
    (catalog, market)
}

fn store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "qurk-session-persist-{}-{tag}.qwal",
        std::process::id()
    ))
}

#[test]
fn persisted_session_replays_paid_work_after_restart() {
    let path = store_path("roundtrip");
    let _ = std::fs::remove_file(&path);

    // First process: pay for the filter on a live marketplace.
    let (catalog, market) = world(21);
    let (first_relation, first_hits) = {
        let mut session = Session::builder()
            .catalog(&catalog)
            .backend(market)
            .persist_to(&path)
            .expect("store opens")
            .build();
        let report = session
            .query(FILTER_SQL)
            .report()
            .expect("live run succeeds");
        assert!(report.hits_posted > 0, "the first run pays the crowd");
        (report.relation, report.hits_posted)
    }; // session dropped — "process exit"

    // Second process: no crowd at all (an empty replay backend). The
    // recovered cache must answer everything.
    let mut session = Session::builder()
        .catalog(&catalog)
        .backend(ReplayBackend::from_trace(ReplayTrace::default()))
        .persist_to(&path)
        .expect("store reopens")
        .build();
    assert!(
        !session.statistics().is_empty(),
        "recovered statistics seed the new session"
    );
    let report = session
        .query(FILTER_SQL)
        .report()
        .expect("cache-served run");
    assert_eq!(report.hits_posted, 0, "paid work must not be re-posted");
    assert_eq!(report.relation, first_relation, "byte-identical result");
    assert!(first_hits > 0);
    let (cache_hits, cache_misses) = session.cache_stats();
    assert!(cache_hits > 0);
    assert_eq!(cache_misses, 0);

    // The store handle is reachable for inspection.
    let store = session.store().expect("store attached").clone();
    assert!(!store.cache_snapshot().is_empty());

    let _ = std::fs::remove_file(&path);
}

/// A failed query in a plain session releases its in-flight dedup
/// slots (the single-owner variant of the service-level fix).
#[test]
fn failed_session_query_releases_pending_slots() {
    let (catalog, _market) = world(22);
    let mut session = Session::new(&catalog, ReplayBackend::from_trace(ReplayTrace::default()));
    let err = session.run(FILTER_SQL);
    assert!(err.is_err(), "unanswerable query must fail");
    assert_eq!(
        session.backend().inner().pending_len(),
        0,
        "failed query leaked in-flight dedup slots"
    );
}

/// `persist_to` surfaces a corrupt store as an error instead of
/// silently starting fresh.
#[test]
fn persist_to_rejects_a_corrupt_header() {
    let path = store_path("corrupt");
    std::fs::write(&path, b"NOTAQWALFILE____").expect("write corrupt file");
    let (catalog, market) = world(23);
    let result = Session::builder()
        .catalog(&catalog)
        .backend(market)
        .persist_to(&path);
    assert!(result.is_err(), "corrupt magic must refuse to open");
    let _ = std::fs::remove_file(&path);
    // DurableStore::open agrees (same code path).
    assert!(DurableStore::open(std::env::temp_dir().join("qurk-fresh.qwal")).is_ok());
    let _ = std::fs::remove_file(std::env::temp_dir().join("qurk-fresh.qwal"));
}

/// A CRC-valid store entry whose answers do not fit its spec (here one
/// extra answer per assignment) must read as a cache miss and re-post
/// live, not reach an operator and panic. With the same crowd seed the
/// re-posted round answers exactly as the original did.
#[test]
fn malformed_store_entries_repost_instead_of_panicking() {
    let good = store_path("malformed-src");
    let bad = store_path("malformed-dst");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);

    let (catalog, market) = world(23);
    let original = Session::builder()
        .catalog(&catalog)
        .backend(market)
        .persist_to(&good)
        .expect("store opens")
        .build()
        .query(FILTER_SQL)
        .report()
        .expect("live run succeeds")
        .relation;

    {
        let src = DurableStore::open(&good).expect("store reopens");
        let dst = DurableStore::open(&bad).expect("fresh store opens");
        let cache = src.cache_snapshot();
        assert!(!cache.is_empty());
        for key in cache.keys() {
            let mut entry = cache.get(key).expect("listed key").clone();
            for a in &mut entry.assignments {
                a.answers.push(Answer::Bool(true));
            }
            dst.append_cache_entry(key, &entry);
        }
    }

    let (_, market) = world(23);
    let mut session = Session::builder()
        .catalog(&catalog)
        .backend(market)
        .persist_to(&bad)
        .expect("malformed store opens")
        .build();
    let report = session
        .query(FILTER_SQL)
        .report()
        .expect("malformed entries are re-posted live");
    assert!(report.hits_posted > 0, "no malformed entry was served");
    assert_eq!(report.relation, original);

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

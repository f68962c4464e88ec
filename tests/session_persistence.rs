//! `Session::persist_to`: a single-tenant session journaling to a
//! durable store replays its paid work for free after a restart.

use qurk::backend::ReplayBackend;
use qurk::ops::sort::HybridSort;
use qurk::session::SortMode;
use qurk::{Catalog, DurableStore, Relation, ReplayTrace, Schema, Session, Value, ValueType};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
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

/// The store holds no copy of its own: a second `Session` built on
/// the same live handle, while the handle stays open, recovers the
/// first one's paid rounds by folding the log and pays nothing.
#[test]
fn a_second_session_on_a_live_store_replays_the_first_ones_rounds() {
    let path = store_path("live-handle");
    let _ = std::fs::remove_file(&path);
    let store = std::sync::Arc::new(DurableStore::open(&path).expect("store opens"));
    let (catalog, market) = world(24);
    let first = Session::builder()
        .catalog(&catalog)
        .backend(market)
        .store(std::sync::Arc::clone(&store))
        .build()
        .query(FILTER_SQL)
        .report()
        .expect("live run succeeds");
    assert!(first.hits_posted > 0);

    let second = Session::builder()
        .catalog(&catalog)
        .backend(ReplayBackend::from_trace(ReplayTrace::default()))
        .store(std::sync::Arc::clone(&store))
        .build()
        .query(FILTER_SQL)
        .report()
        .expect("cache-served run");
    assert_eq!(
        second.hits_posted, 0,
        "the first session's rounds re-posted"
    );
    assert_eq!(second.relation, first.relation);
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
/// re-posted round answers exactly as the original did. The live
/// answers replace the malformed entries for good: a fresh process
/// pays nothing for the query, before and after a compaction.
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
    drop(session);

    for compacted in [false, true] {
        if compacted {
            DurableStore::open(&bad)
                .expect("store reopens")
                .compact_now();
        }
        let (_, market) = world(23);
        let report = Session::builder()
            .catalog(&catalog)
            .backend(market)
            .persist_to(&bad)
            .expect("repaired store opens")
            .build()
            .query(FILTER_SQL)
            .report()
            .expect("repaired entries are served");
        assert_eq!(report.hits_posted, 0, "compacted: {compacted}");
        assert_eq!(report.relation, original);
    }

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

/// 23 people with two noisy filters and a noisy height dimension: enough
/// crowd disagreement for every statistic to pick up fractional sums.
fn noisy_world(seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.2));
    let items = gt.new_items(23);
    for (i, &it) in items.iter().enumerate() {
        let tall = PredicateTruth {
            value: i % 3 != 0,
            error_rate: 0.1,
        };
        let blond = PredicateTruth {
            value: i % 2 == 0,
            error_rate: 0.2,
        };
        gt.set_predicate(it, "isTall", tall);
        gt.set_predicate(it, "isBlond", blond);
        gt.set_score(it, "height", i as f64);
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
               TASK isBlond(field) TYPE Filter:
                Prompt: "<img src='%s'> Blond?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .expect("task definitions parse");
    (catalog, market)
}

/// What a persisted session learned is what a reopened store recovers,
/// bit for bit: the session journals exactly the evidence it merged,
/// so replaying the journal repeats the live float sums in order.
#[test]
fn recovered_statistics_equal_the_live_ones_bit_for_bit() {
    for seed in 1..=20 {
        let path = store_path(&format!("stats-{seed}"));
        let _ = std::fs::remove_file(&path);
        let (catalog, market) = noisy_world(seed);
        let live = {
            let mut session = Session::builder()
                .catalog(&catalog)
                .backend(market)
                .persist_to(&path)
                .expect("store opens")
                .build();
            let sort_sql = "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)";
            for sql in [
                FILTER_SQL,
                "SELECT p.id FROM people AS p WHERE isBlond(p.img)",
                "SELECT p.id FROM people AS p WHERE isTall(p.img) AND isBlond(p.img)",
                sort_sql,
            ] {
                session.run(sql).expect("live run succeeds");
            }
            // Hybrid runs several rounds in one query, so the sums it
            // learns must be journaled as learned, not recovered as the
            // difference of two running totals.
            session
                .query(sort_sql)
                .sort(SortMode::Hybrid(HybridSort::default(), 6))
                .run()
                .expect("live run succeeds");
            session.statistics().clone()
        }; // session dropped — "process exit"
        let recovered = DurableStore::open(&path)
            .expect("store reopens")
            .stats_snapshot();
        assert_eq!(recovered, live, "seed {seed}");
        let _ = std::fs::remove_file(&path);
    }
}

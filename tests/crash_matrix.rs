//! The deterministic fault-injection sweep behind `qurk::store`'s
//! recovery guarantees (the CI `fault-matrix` job runs this file with
//! `--release`).
//!
//! For every [`CrashPoint`] in the catalogue × several seeds, the
//! harness:
//!
//! 1. records one ground-truth trace of a three-tenant workload on a
//!    live marketplace (once per seed): the service's task cache
//!    afterwards, the market's
//!    [`CachingBackend::trace`](qurk::CachingBackend::trace);
//! 2. runs the same workload on a durable [`QueryService`] whose store
//!    is armed to **die** at the crash point (a process crash, modeled
//!    byte-exactly: every later write is a no-op, torn points leave a
//!    genuinely garbage tail), then discards everything in memory;
//! 3. reopens the same store path fault-free, calls
//!    [`QueryService::recover`], re-submits whatever was never
//!    checkpointed, and runs to completion on a fresh replay of the
//!    same trace.
//!
//! Invariants asserted for every (crash point, seed) cell:
//!
//! * **no double-pay** — no spec key with a durable paid answer is
//!   ever posted again after recovery (checked against every spec that
//!   reached the recovery run's marketplace,
//!   [`ReplayBackend::posted_keys`], whether or not it was answered);
//! * **no lost work** — every durable cache entry is byte-equal to
//!   the original trace's entry for that key (a paid, acknowledged
//!   round survived the crash intact);
//! * **byte-identical results** — every query's recovered relation
//!   equals the uninterrupted reference run's relation;
//! * **the books balance** — recovery-run spend attributed across
//!   tenants equals the marketplace's total new spend, and the
//!   reference run's tenant spends sum to its market total.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use qurk::backend::ReplayBackend;
use qurk::service::QueryService;
use qurk::store::{CrashPoint, DurableStore, FaultPlan};
use qurk::{
    Catalog, CrowdBackend, ExecConfig, OptimizeMode, Relation, ReplayTrace, Schema, Value,
    ValueType,
};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

const SEEDS: u64 = 8;
/// Tiny threshold so the sweep actually reaches the compaction crash
/// points (production default is 1 MiB).
const COMPACT_THRESHOLD: u64 = 512;

const FILTER_SQL: &str = "SELECT p.id FROM people AS p WHERE isTall(p.img)";
const SORT_SQL: &str = "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)";

/// (tenant, budget, sql) — carol repeats alice's filter so the sweep
/// also covers cross-tenant dedup under recovery.
fn workload() -> Vec<(&'static str, Option<f64>, &'static str)> {
    vec![
        ("alice", Some(50.0), FILTER_SQL),
        ("bob", None, SORT_SQL),
        ("carol", None, FILTER_SQL),
    ]
}

/// Plans must not depend on what statistics happened to become durable
/// before the crash, or "byte-identical" would be unfalsifiable; pin
/// the optimizer to as-written plans for every run of the sweep.
fn sweep_config() -> ExecConfig {
    ExecConfig {
        optimize: OptimizeMode::AsWritten,
        ..ExecConfig::default()
    }
}

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

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qurk-crash-matrix-{}-{tag}.qwal",
        std::process::id()
    ))
}

fn register_and_submit(svc: &mut QueryService<impl qurk::CrowdBackend>) {
    for (tenant, budget, _) in workload() {
        svc.register_tenant(tenant, budget);
    }
    for (tenant, _, sql) in workload() {
        svc.submit(tenant, sql)
            .expect("sweep workload is admissible");
    }
}

/// Record the ground-truth trace for one seed on a live marketplace.
fn record_trace(catalog: &Arc<Catalog>, market: Marketplace) -> ReplayTrace {
    let mut svc = QueryService::with_config(Arc::clone(catalog), market, sweep_config());
    register_and_submit(&mut svc);
    for report in svc.run_pending() {
        report.expect("live recording run succeeds");
    }
    let trace = svc.market().trace().clone();
    trace
}

/// The uninterrupted run every recovery must be byte-identical to:
/// relations per (tenant, sql), plus the reference books invariant.
fn reference_run(
    catalog: &Arc<Catalog>,
    trace: &ReplayTrace,
    tag: &str,
) -> HashMap<(String, String), Relation> {
    let path = store_path(tag);
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(
        DurableStore::open(&path)
            .expect("fresh reference store opens")
            .with_compact_threshold(COMPACT_THRESHOLD),
    );
    let backend = ReplayBackend::from_trace(trace.clone());
    let mut svc = QueryService::with_store(Arc::clone(catalog), backend, sweep_config(), store);
    register_and_submit(&mut svc);
    let reports = svc.run_pending();

    let mut spent_sum = 0.0;
    for (tenant, _, _) in workload() {
        spent_sum += svc.tenant_spent(tenant).expect("tenant registered");
    }
    let total = svc.market().spend_dollars();
    assert!(
        (spent_sum - total).abs() < 1e-6,
        "reference books: tenants sum to {spent_sum}, market total {total}"
    );

    let mut relations = HashMap::new();
    for ((tenant, _, sql), report) in workload().into_iter().zip(reports) {
        let report = report.expect("reference run succeeds");
        relations.insert((tenant.to_owned(), sql.to_owned()), report.relation);
    }
    let _ = std::fs::remove_file(&path);
    relations
}

/// One sweep cell: crash at `point` (occurrence `occ`) on a fresh
/// store, recover, assert every invariant.
fn crash_and_recover(
    catalog: &Arc<Catalog>,
    trace: &ReplayTrace,
    reference: &HashMap<(String, String), Relation>,
    point: CrashPoint,
    occ: u32,
    tag: &str,
) {
    let path = store_path(tag);
    let _ = std::fs::remove_file(&path);

    // ---- phase A: run with the fault armed, then "crash" (drop
    // everything in memory; only the durable file survives).
    {
        let store = Arc::new(
            DurableStore::open_with_faults(&path, FaultPlan::at(point).on_occurrence(occ))
                .expect("fresh store opens")
                .with_compact_threshold(COMPACT_THRESHOLD),
        );
        let backend = ReplayBackend::from_trace(trace.clone());
        let mut svc = QueryService::with_store(
            Arc::clone(catalog),
            backend,
            sweep_config(),
            Arc::clone(&store),
        );
        register_and_submit(&mut svc);
        let _ = svc.run_pending(); // results die with the process
        if occ == 1 {
            // The workload reaches every catalogue point at least once
            // (the tiny threshold forces compactions), so the first
            // occurrence always fires.
            assert!(
                store.is_dead(),
                "{point} occurrence 1 never fired — the sweep is not exercising it"
            );
        }
    }

    recover_and_check(catalog, trace, reference, &path, &format!("{point}:{occ}"));
    let _ = std::fs::remove_file(&path);
}

/// Phase B: reopen `path` fault-free, recover, finish the workload,
/// and assert the no-double-pay / no-loss / byte-identical / books
/// invariants against the reference run.
fn recover_and_check(
    catalog: &Arc<Catalog>,
    trace: &ReplayTrace,
    reference: &HashMap<(String, String), Relation>,
    path: &std::path::Path,
    label: &str,
) {
    let store = Arc::new(
        DurableStore::open(path)
            .expect("store reopens after a crash")
            .with_compact_threshold(COMPACT_THRESHOLD),
    );
    let recovered_cache = store.cache_snapshot();
    let recovered_spent: HashMap<String, f64> = store
        .tenants_snapshot()
        .into_iter()
        .map(|t| (t.name, t.spent))
        .collect();
    let live: Vec<(String, String)> = store
        .live_checkpoints()
        .into_iter()
        .map(|c| (c.tenant, c.sql))
        .collect();

    // No lost work: everything durable is a round the crowd really
    // answered, intact.
    for key in recovered_cache.keys() {
        assert_eq!(
            trace.get(key),
            recovered_cache.get(key),
            "{label}: durable cache entry for key {key} does not match the paid original"
        );
    }

    let backend = ReplayBackend::from_trace(trace.clone());
    let mut svc = QueryService::with_store(
        Arc::clone(catalog),
        backend,
        sweep_config(),
        Arc::clone(&store),
    );
    for (tenant, budget, _) in workload() {
        svc.register_tenant(tenant, budget);
    }
    let resumed = svc.recover();
    assert_eq!(resumed.len(), live.len(), "{label}: recover() count");

    // A client re-issues whatever was never durably admitted (or was
    // already acknowledged — re-running those must be free and equal).
    let mut expected: Vec<(String, String)> = live.clone();
    let mut remaining = live;
    for (tenant, _, sql) in workload() {
        let pair = (tenant.to_owned(), sql.to_owned());
        if let Some(pos) = remaining.iter().position(|p| *p == pair) {
            remaining.remove(pos);
        } else {
            svc.submit(tenant, sql).expect("resubmission is admissible");
            expected.push(pair);
        }
    }

    let reports = svc.run_pending();
    assert_eq!(reports.len(), expected.len());
    for ((tenant, sql), report) in expected.into_iter().zip(reports) {
        let report =
            report.unwrap_or_else(|e| panic!("{label}: recovered query for {tenant} failed: {e}"));
        let want = &reference[&(tenant.clone(), sql.clone())];
        assert_eq!(
            &report.relation, want,
            "{label}: {tenant}'s recovered result differs from the uninterrupted run"
        );
    }

    // The books balance: new spend attributed across tenants equals
    // the marketplace's total spend this process.
    let mut new_spend = 0.0;
    for (tenant, _, _) in workload() {
        let before = recovered_spent.get(tenant).copied().unwrap_or(0.0);
        new_spend += svc.tenant_spent(tenant).expect("tenant registered") - before;
    }
    let market_total = svc.market().spend_dollars();
    assert!(
        (new_spend - market_total).abs() < 1e-6,
        "{label}: tenants' new spend {new_spend} != market total {market_total}"
    );

    // No double-pay: nothing with a durable paid answer was re-posted.
    for key in svc.into_backend().posted_keys() {
        assert!(
            recovered_cache.get(key).is_none(),
            "{label}: spec key {key} was paid for before the crash and re-posted after"
        );
    }
}

#[test]
fn every_crash_point_recovers_across_seeds() {
    for seed in 0..SEEDS {
        let (catalog, market) = world(seed);
        let trace = record_trace(&catalog, market);
        assert!(!trace.is_empty(), "seed {seed}: recorded trace is empty");
        let reference = reference_run(&catalog, &trace, &format!("ref-{seed}"));

        for point in CrashPoint::ALL {
            // Vary the occurrence with the seed so later firings of
            // each point are swept too, not just the first.
            let occ = 1 + (seed % 3) as u32;
            crash_and_recover(
                &catalog,
                &trace,
                &reference,
                point,
                occ,
                &format!("{}-{seed}", point.name()),
            );
        }
    }
}

/// Recovery of a half-run batch must also converge when the *same*
/// store is reopened twice in a row (crash during recovery itself is
/// just another crash).
#[test]
fn double_crash_then_recover_converges() {
    let seed = 3;
    let (catalog, market) = world(seed);
    let trace = record_trace(&catalog, market);
    let reference = reference_run(&catalog, &trace, "ref-double");
    let path = store_path("double");
    let _ = std::fs::remove_file(&path);

    // Crash #1: die on the second append.
    {
        let store = Arc::new(
            DurableStore::open_with_faults(
                &path,
                FaultPlan::at(CrashPoint::AppendDone).on_occurrence(2),
            )
            .expect("store opens")
            .with_compact_threshold(COMPACT_THRESHOLD),
        );
        let mut svc = QueryService::with_store(
            Arc::clone(&catalog),
            ReplayBackend::from_trace(trace.clone()),
            sweep_config(),
            store,
        );
        register_and_submit(&mut svc);
        let _ = svc.run_pending();
    }
    // Crash #2: die again, mid-recovery-run, on a torn compaction.
    {
        let store = Arc::new(
            DurableStore::open_with_faults(
                &path,
                FaultPlan::at(CrashPoint::CompactTorn).on_occurrence(1),
            )
            .expect("store reopens")
            .with_compact_threshold(COMPACT_THRESHOLD),
        );
        let mut svc = QueryService::with_store(
            Arc::clone(&catalog),
            ReplayBackend::from_trace(trace.clone()),
            sweep_config(),
            Arc::clone(&store),
        );
        for (tenant, budget, _) in workload() {
            svc.register_tenant(tenant, budget);
        }
        let live: Vec<(String, String)> = store
            .live_checkpoints()
            .into_iter()
            .map(|c| (c.tenant, c.sql))
            .collect();
        svc.recover();
        let mut remaining = live;
        for (tenant, _, sql) in workload() {
            let pair = (tenant.to_owned(), sql.to_owned());
            if let Some(pos) = remaining.iter().position(|p| *p == pair) {
                remaining.remove(pos);
            } else {
                svc.submit(tenant, sql).expect("resubmission is admissible");
            }
        }
        let _ = svc.run_pending();
    }
    // Final recovery: everything still converges to the reference.
    recover_and_check(&catalog, &trace, &reference, &path, "double-crash");
    let _ = std::fs::remove_file(&path);
}

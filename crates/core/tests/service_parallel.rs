//! The point of the parallel machine phase: a batch of machine-heavy
//! queries finishes in less wall-clock time than running them one at
//! a time, because between yield points every query thread executes
//! concurrently. Results stay byte-identical either way. Tier-1 runs
//! only the byte-identity half; the wall-clock half is opt-in
//! (`--ignored`) and runs in the bench-wallclock CI job.

use std::sync::Arc;

use std::time::Instant;

use qurk::service::QueryService;
use qurk::{Catalog, Relation, Schema, Value, ValueType};
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

/// Machine-only world: a wide table big enough that scanning and
/// projecting it costs real CPU, and no crowd tasks at all — the
/// whole query is machine phase.
fn machine_world(rows: i64) -> Arc<Catalog> {
    let mut catalog = Catalog::new();
    let mut rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Int),
    ]));
    for i in 0..rows {
        rel.push(vec![
            Value::Int(i),
            Value::Int(i.wrapping_mul(2654435761)),
            Value::Int(i ^ 0x5DEECE66D),
            Value::Int(i.rotate_left(17)),
        ])
        .unwrap();
    }
    catalog.register_table("big", rel);
    Arc::new(catalog)
}

fn market() -> Marketplace {
    Marketplace::new(&CrowdConfig::default().with_seed(1), GroundTruth::new())
}

const N: usize = 8;
const SQL: &str = "SELECT b.id, b.a, b.b, b.c FROM big AS b";

const ROWS: i64 = 300_000;

/// Warm up (page in the table, stabilize allocator state) and capture
/// the reference relation.
fn reference(catalog: &Arc<Catalog>) -> Relation {
    let mut svc = QueryService::new(Arc::clone(catalog), market());
    svc.register_tenant("warm", None);
    svc.submit("warm", SQL).unwrap();
    svc.run_pending().pop().unwrap().unwrap().relation
}

/// Sequential: N single-query batches, one after another.
fn run_sequential(catalog: &Arc<Catalog>, reference: &Relation) {
    let mut svc = QueryService::new(Arc::clone(catalog), market());
    svc.register_tenant("t", None);
    for _ in 0..N {
        svc.submit("t", SQL).unwrap();
        let r = svc.run_pending().pop().unwrap().unwrap();
        assert_eq!(r.relation.len(), reference.len());
    }
}

/// Concurrent: the same N queries in ONE batch — the machine phase
/// runs them all on their own worker threads between barriers.
fn run_batch(catalog: &Arc<Catalog>) -> Vec<Relation> {
    let mut svc = QueryService::new(Arc::clone(catalog), market());
    svc.register_tenant("t", None);
    for _ in 0..N {
        svc.submit("t", SQL).unwrap();
    }
    let reports = svc.run_pending();
    assert_eq!(reports.len(), N);
    reports.into_iter().map(|r| r.unwrap().relation).collect()
}

/// Machine-only queries are trivially deterministic under concurrency;
/// assert it anyway — it is the cheap half of the replay determinism
/// tests in service_multi_tenant.rs.
#[test]
fn concurrent_machine_batch_matches_sequential_results() {
    let catalog = machine_world(ROWS);
    let reference = reference(&catalog);
    run_sequential(&catalog, &reference);
    for relation in run_batch(&catalog) {
        assert_eq!(
            format!("{relation:?}"),
            format!("{reference:?}"),
            "concurrent machine-only query diverged"
        );
    }
}

/// The wall-clock half: on a multi-core host the batch beats
/// sequential by at least 15%. Host load can fail it, so it stays out
/// of tier-1; run it with
/// `cargo test --release --test service_parallel -- --ignored`.
#[test]
#[ignore = "wall-clock timing; run with --ignored"]
fn batch_machine_phases_overlap_on_multi_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let catalog = machine_world(ROWS);
    let reference = reference(&catalog);

    let seq_start = Instant::now();
    run_sequential(&catalog, &reference);
    let sequential = seq_start.elapsed();

    let batch_start = Instant::now();
    let relations = run_batch(&catalog);
    let batch = batch_start.elapsed();
    assert!(relations.iter().all(|r| r.len() == reference.len()));

    if cores < 2 {
        eprintln!("single core: skipping the overlap assertion");
        return;
    }
    assert!(
        batch < sequential.mul_f64(0.85),
        "machine phases should overlap on {cores} cores: \
         batch {batch:?} vs sequential {sequential:?}"
    );
}

//! Property test: the cost-based planner and the as-written planner
//! produce result-equivalent output on `ReplayBackend` traces.
//!
//! Strategy: record a trace that covers every single-tuple filter spec
//! (and every combined permutation) the two planners could possibly
//! post, then replay randomly generated filter queries through both
//! modes. Because the trace answers each (predicate, item) question
//! deterministically, any legal reordering / combining / machine
//! pushdown the optimizer performs must leave the result relation
//! unchanged — if the cost-based plan ever posts a spec the as-written
//! plan couldn't have answered per-item, the replay times out and the
//! test fails loudly.

use proptest::prelude::*;

use qurk::ops::filter::FilterOp;
use qurk::prelude::*;
use qurk::{CachingBackend, ReplayTrace};
use qurk_crowd::truth::PredicateTruth;
use qurk_crowd::{CrowdConfig, GroundTruth, ItemId, Marketplace};

const N_ITEMS: usize = 8;
const PREDICATES: [&str; 3] = ["pa", "pb", "pc"];

fn truth_value(pred: &str, i: usize) -> bool {
    match pred {
        "pa" => i.is_multiple_of(2),
        "pb" => i < 5,
        "pc" => i.is_multiple_of(3),
        _ => unreachable!(),
    }
}

fn build_catalog(items: &[ItemId]) -> Catalog {
    let mut catalog = Catalog::new();
    let mut rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in items.iter().enumerate() {
        rel.push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    catalog.register_table("t", rel);
    catalog
        .define_tasks(
            r#"TASK pa(field) TYPE Filter:
                Prompt: "%s a?", tuple[field]
               TASK pb(field) TYPE Filter:
                Prompt: "%s b?", tuple[field]
               TASK pc(field) TYPE Filter:
                Prompt: "%s c?", tuple[field]
            "#,
        )
        .unwrap();
    catalog
}

/// Record every spec shape the planners can post: each predicate on
/// each item alone (serial / OR-group evaluation at batch 1) and every
/// ordered combination of ≥2 predicates per item (§2.6 combining).
fn record_full_trace() -> (ReplayTrace, Vec<ItemId>) {
    let mut gt = GroundTruth::new();
    let items = gt.new_items(N_ITEMS);
    for (i, &it) in items.iter().enumerate() {
        for pred in PREDICATES {
            gt.set_predicate(
                it,
                pred,
                PredicateTruth {
                    value: truth_value(pred, i),
                    error_rate: 0.0, // deterministic answers
                },
            );
        }
    }
    let market = Marketplace::new(&CrowdConfig::default().with_seed(0xE0).honest(), gt);
    let mut rec = CachingBackend::new(market);
    let op = FilterOp {
        batch_size: 1,
        ..Default::default()
    };
    // Singles.
    for pred in PREDICATES {
        op.run(&mut rec, pred, &items).unwrap();
    }
    // Ordered pairs and triples (combined-interface specs are
    // order-sensitive).
    let perms: Vec<Vec<&str>> = ordered_subsets(&PREDICATES);
    for perm in perms {
        if perm.len() >= 2 {
            op.run_combined(&mut rec, &perm, &items).unwrap();
        }
    }
    (rec.trace().clone(), items)
}

/// All ordered subsets of size ≥ 2.
fn ordered_subsets<'a>(preds: &[&'a str]) -> Vec<Vec<&'a str>> {
    let mut out = Vec::new();
    let n = preds.len();
    for a in 0..n {
        for b in 0..n {
            if b != a {
                out.push(vec![preds[a], preds[b]]);
                for c in 0..n {
                    if c != a && c != b {
                        out.push(vec![preds[a], preds[b], preds[c]]);
                    }
                }
            }
        }
    }
    out
}

/// Build the WHERE clause for one generated query.
fn where_clause(
    conjuncts: &[&str],
    machine_k: usize,
    machine_pos: usize,
    or_group: Option<&str>,
) -> String {
    let mut parts: Vec<String> = conjuncts.iter().map(|p| format!("{p}(t.img)")).collect();
    // Machine predicate spliced at an arbitrary written position.
    parts.insert(machine_pos.min(parts.len()), format!("t.id < {machine_k}"));
    let mut clause = parts.join(" AND ");
    if let Some(op) = or_group {
        clause.push_str(&format!(" OR {op}(t.img) AND t.id >= {machine_k}"));
    }
    clause
}

fn run_mode(
    trace: &ReplayTrace,
    catalog: &Catalog,
    sql: &str,
    mode: OptimizeMode,
    stats: StatisticsStore,
) -> Relation {
    let backend = ReplayBackend::from_trace(trace.clone());
    let mut config = ExecConfig::default();
    config.filter.batch_size = 1;
    config.optimize = mode;
    let mut session = Session::builder()
        .catalog(catalog)
        .backend(backend)
        .config(config)
        .statistics(stats)
        .build();
    session
        .run(sql)
        .unwrap_or_else(|e| panic!("{mode:?} failed on {sql}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random conjunctions (with a machine predicate at a random
    /// written position, optionally an OR group) produce identical
    /// results under AsWritten and CostBased with arbitrary learned
    /// selectivities.
    #[test]
    fn cost_based_and_as_written_agree_on_replay(
        subset_idx in 0usize..6,
        machine_k in 0usize..9,
        machine_pos in 0usize..4,
        with_or in any::<bool>(),
        or_pred_idx in 0usize..3,
        sel_a in 0.0f64..1.0,
        sel_b in 0.0f64..1.0,
        sel_c in 0.0f64..1.0,
        seen in 1u64..200,
    ) {
        let (trace, items) = trace_and_items();
        let catalog = build_catalog(&items);

        // Conjunct subsets in varying order.
        let subsets: [&[&str]; 6] = [
            &["pa"], &["pb", "pa"], &["pa", "pc"],
            &["pc", "pb", "pa"], &["pa", "pb", "pc"], &["pb", "pc"],
        ];
        let conjuncts = subsets[subset_idx];
        let or_group = with_or.then(|| PREDICATES[or_pred_idx]);
        let sql = format!(
            "SELECT id FROM t WHERE {}",
            where_clause(conjuncts, machine_k, machine_pos, or_group)
        );

        // Arbitrary learned evidence: the optimizer may reorder and
        // combine however these numbers tell it to.
        let mut stats = StatisticsStore::new();
        for (pred, sel) in PREDICATES.iter().zip([sel_a, sel_b, sel_c]) {
            let passed = (sel * seen as f64) as usize;
            stats.record_filter(pred, seen as usize, passed.min(seen as usize));
        }

        let as_written = run_mode(&trace, &catalog, &sql, OptimizeMode::AsWritten,
                                  StatisticsStore::new());
        let cost_based = run_mode(&trace, &catalog, &sql, OptimizeMode::CostBased, stats);
        prop_assert_eq!(&as_written, &cost_based, "query: {}", sql);

        // And both agree with the ground truth the deterministic
        // trace encodes.
        let expected: Vec<i64> = (0..N_ITEMS)
            .filter(|&i| {
                let conj = conjuncts.iter().all(|p| truth_value(p, i)) && i < machine_k;
                let disj = or_group
                    .map(|p| truth_value(p, i) && i >= machine_k)
                    .unwrap_or(false);
                conj || disj
            })
            .map(|i| i as i64)
            .collect();
        let got: Vec<i64> = as_written
            .rows()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        prop_assert_eq!(got, expected, "query: {}", sql);
    }
}

/// The trace is deterministic and expensive enough to build once.
fn trace_and_items() -> (ReplayTrace, Vec<ItemId>) {
    use std::sync::OnceLock;
    static CACHE: OnceLock<(ReplayTrace, Vec<ItemId>)> = OnceLock::new();
    CACHE.get_or_init(record_full_trace).clone()
}

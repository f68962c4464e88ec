//! Integration tests: full SQL queries through parser → planner →
//! session → simulated marketplace, spanning every crate.

use qurk::ops::join::{JoinOp, JoinStrategy};
use qurk::ops::sort::RateSort;
use qurk::prelude::*;
use qurk_crowd::truth::{DimensionParams, PredicateTruth, TextTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

const TASKS: &str = r#"
TASK isFemale(field) TYPE Filter:
    Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
    YesText: "Yes"
    NoText: "No"
    Combiner: MajorityVote
TASK samePerson(f1, f2) TYPE EquiJoin:
    SingularName: "person"
    PluralName: "people"
    LeftNormal: "<img src='%s'>", tuple1[f1]
    RightNormal: "<img src='%s'>", tuple2[f2]
    Combiner: QualityAdjust
TASK gender(field) TYPE Generative:
    Prompt: "<img src='%s'> Gender?", tuple[field]
    Response: Radio("Gender", ["Male", "Female", UNKNOWN])
    Combiner: MajorityVote
TASK byHeight(field) TYPE Rank:
    SingularName: "person"
    PluralName: "people"
    OrderDimensionName: "height"
    LeastName: "shortest"
    MostName: "tallest"
    Html: "<img src='%s'>", tuple[field]
TASK nameOf(field) TYPE Generative:
    Prompt: "<img src='%s'> Who is this?", tuple[field]
    Fields: {
        common: { Response: Text("Name"),
                  Combiner: MajorityVote,
                  Normalizer: LowercaseSingleSpace }
    }
"#;

/// Build a 12-person world with two photo tables, gender features,
/// heights and name text.
fn world(seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    gt.define_feature("gender", &["Male", "Female"]);
    let n = 12;
    let people = gt.new_items(n);
    let photos = gt.new_items(n);
    for i in 0..n {
        let female = i % 2 == 0;
        for &it in &[people[i], photos[i]] {
            gt.set_entity(it, EntityId(i as u64));
            gt.set_predicate(
                it,
                "isFemale",
                PredicateTruth {
                    value: female,
                    error_rate: 0.03,
                },
            );
            gt.set_feature_simple(it, "gender", usize::from(female), 0.02);
        }
        gt.set_score(people[i], "height", i as f64);
        gt.set_text(
            people[i],
            "common",
            TextTruth {
                variants: vec![
                    (format!("Person {i}"), 0.6),
                    (format!("person   {i} "), 0.4),
                ],
            },
        );
    }

    let mut ppl = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("name", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    let mut ph = Relation::new(Schema::new(&[
        ("pid", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for i in 0..n {
        ppl.push(vec![
            Value::Int(i as i64),
            Value::text(format!("p{i}")),
            Value::Item(people[i]),
        ])
        .unwrap();
        ph.push(vec![Value::Int(i as i64), Value::Item(photos[i])])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table("people", ppl);
    catalog.register_table("photos", ph);
    catalog.define_tasks(TASKS).unwrap();
    let market = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);
    (catalog, market)
}

#[test]
fn filter_and_machine_predicate_compose() {
    let (catalog, market) = world(1);
    let mut session = Session::new(&catalog, market);
    let rel = session
        .run("SELECT p.id FROM people p WHERE isFemale(p.img) AND p.id < 6")
        .unwrap();
    let ids: Vec<i64> = rel.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    // Expect mostly {0, 2, 4}.
    assert!(ids.len() >= 2 && ids.len() <= 4, "ids={ids:?}");
    for id in &ids {
        assert!(*id < 6);
    }
    assert!(ids.contains(&0) || ids.contains(&2));
}

#[test]
fn join_with_possibly_feature_filtering() {
    let (catalog, market) = world(2);
    let mut session = Session::new(&catalog, market);
    let report = session
        .query(
            "SELECT p.id, ph.pid FROM people p JOIN photos ph \
             ON samePerson(p.img, ph.img) \
             AND POSSIBLY gender(p.img) = gender(ph.img)",
        )
        .report()
        .unwrap();
    // Most of the 12 true matches found, few mistakes.
    let correct = report
        .relation
        .rows()
        .iter()
        .filter(|r| r[0].as_int() == r[1].as_int())
        .count();
    assert!(correct >= 9, "correct={correct}");
    assert!(report.relation.len() <= 14);
    // Feature filtering cut the cross product: fewer join HITs than
    // an unfiltered NaiveBatch(5) would need (144/5 = 29) plus
    // extraction overhead.
    assert!(report.hits_posted < 50, "hits={}", report.hits_posted);
}

#[test]
fn order_by_with_limit_returns_top_k() {
    let (catalog, market) = world(3);
    let mut session = Session::new(&catalog, market);
    let rel = session
        .run("SELECT p.id FROM people p ORDER BY byHeight(p.img) DESC LIMIT 3")
        .unwrap();
    let ids: Vec<i64> = rel.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(ids.len(), 3);
    // Top-3 tallest are 11, 10, 9 (modulo small crowd error).
    for id in &ids {
        assert!(*id >= 8, "ids={ids:?}");
    }
}

#[test]
fn generative_select_produces_normalized_text() {
    let (catalog, market) = world(4);
    let mut session = Session::new(&catalog, market);
    let rel = session
        .run("SELECT p.id, nameOf(p.img).common FROM people p WHERE p.id < 4")
        .unwrap();
    assert_eq!(rel.len(), 4);
    for row in rel.rows() {
        let id = row[0].as_int().unwrap();
        assert_eq!(
            row[1].as_text(),
            Some(format!("person {id}").as_str()),
            "row={row:?}"
        );
    }
}

#[test]
fn task_cache_makes_repeat_queries_free() {
    let (catalog, market) = world(5);
    let mut session = Session::new(&catalog, market);
    let first = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .report()
        .unwrap();
    assert!(first.hits_posted > 0);
    let second = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .report()
        .unwrap();
    assert_eq!(second.hits_posted, 0, "cached re-run must cost nothing");
    assert_eq!(first.relation, second.relation);
    let (cache_hits, _) = session.cache_stats();
    assert!(cache_hits > 0);
}

#[test]
fn query_builder_controls_join_strategy_cost() {
    let run = |strategy: JoinStrategy| {
        let (catalog, market) = world(6);
        let mut session = Session::new(&catalog, market);
        session
            .query("SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img)")
            .join(JoinOp {
                strategy,
                ..Default::default()
            })
            .report()
            .unwrap()
            .hits_posted
    };
    let simple = run(JoinStrategy::Simple);
    let naive = run(JoinStrategy::NaiveBatch(5));
    let smart = run(JoinStrategy::SmartBatch { rows: 3, cols: 3 });
    assert_eq!(simple, 144);
    assert!(naive <= simple / 4, "naive={naive}");
    assert!(smart < naive, "smart={smart} naive={naive}");
}

#[test]
fn rate_sort_mode_is_cheaper_than_compare() {
    let run = |sort: SortMode| {
        let (catalog, market) = world(7);
        let mut session = Session::new(&catalog, market);
        session
            .query("SELECT p.id FROM people p ORDER BY byHeight(p.img)")
            .sort(sort)
            .report()
            .unwrap()
            .hits_posted
    };
    let compare = run(SortMode::default());
    let rate = run(SortMode::Rate(RateSort::default()));
    assert!(
        rate * 3 <= compare,
        "rate={rate} compare={compare} (linear vs quadratic)"
    );
}

#[test]
fn bad_queries_surface_errors_not_panics() {
    let (catalog, market) = world(8);
    let mut session = Session::new(&catalog, market);
    assert!(session.run("SELECT FROM nope").is_err());
    assert!(session.run("SELECT x FROM missing_table").is_err());
    assert!(session
        .run("SELECT p.id FROM people p WHERE notATask(p.img)")
        .is_err());
    assert!(session
        .run("SELECT p.id FROM people p ORDER BY isFemale(p.img)")
        .is_err());
}

#[test]
fn cost_accounting_matches_ledger_arithmetic() {
    let (catalog, market) = world(9);
    let mut session = Session::new(&catalog, market);
    let report = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .report()
        .unwrap();
    // 12 items / batch 5 = 3 HITs x 5 assignments x $0.015.
    assert_eq!(report.hits_posted, 3);
    assert_eq!(report.assignments, 15);
    assert!((report.cost_dollars - 3.0 * 5.0 * 0.015).abs() < 1e-9);
    // The metering numbers agree with the marketplace's own ledger.
    let market = session.backend().inner().inner();
    assert_eq!(market.ledger.assignments_paid, 15);
    assert!((market.ledger.total() - report.cost_dollars).abs() < 1e-9);
}

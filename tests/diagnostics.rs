//! Golden tests for the pre-flight analyzer: every QA code has a
//! firing and a non-firing case, plus the deny-policy guarantee that a
//! rejected query posts zero crowd work.

use qurk::ops::join::{JoinOp, JoinStrategy};
use qurk::ops::sort::{HybridSort, RateSort};
use qurk::prelude::*;
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

const TASKS: &str = r#"
TASK isFemale(field) TYPE Filter:
    Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
    YesText: "Yes"
    NoText: "No"
    Combiner: MajorityVote
TASK isSmiling(field) TYPE Filter:
    Prompt: "<img src='%s'> Smiling?", tuple[field]
    YesText: "Yes"
    NoText: "No"
    Combiner: MajorityVote
TASK samePerson(f1, f2) TYPE EquiJoin:
    SingularName: "person"
    PluralName: "people"
    LeftNormal: "<img src='%s'>", tuple1[f1]
    RightNormal: "<img src='%s'>", tuple2[f2]
    Combiner: MajorityVote
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
"#;

/// An n-person world with `people` and `photos` tables.
fn world(n: usize, seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    gt.define_feature("gender", &["Male", "Female"]);
    let people = gt.new_items(n);
    let photos = gt.new_items(n);
    for i in 0..n {
        let female = i % 2 == 0;
        for &it in &[people[i], photos[i]] {
            gt.set_entity(it, EntityId(i as u64));
            for pred in ["isFemale", "isSmiling"] {
                gt.set_predicate(
                    it,
                    pred,
                    PredicateTruth {
                        value: female,
                        error_rate: 0.03,
                    },
                );
            }
            gt.set_feature_simple(it, "gender", usize::from(female), 0.02);
        }
        gt.set_score(people[i], "height", i as f64);
    }
    let mut ppl = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    let mut ph = Relation::new(Schema::new(&[
        ("pid", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for i in 0..n {
        ppl.push(vec![Value::Int(i as i64), Value::Item(people[i])])
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

fn codes(diags: &[Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

// ------------------------------------------------------------- QA001

#[test]
fn qa001_fires_on_unfiltered_join_past_ceiling() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let mut config = session.config().clone();
    config.lint.join_hit_ceiling = 10.0;
    let diags = session
        .query("SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img)")
        .config(config)
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA001)
        .expect("QA001 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert!(
        d.message.contains("unfiltered cross join 'samePerson'")
            && d.message.contains("~144 candidate pairs"),
        "{}",
        d.message
    );
    assert!(d.span.is_some(), "join span resolved");
}

#[test]
fn qa001_escalates_to_error_against_budget() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img)")
        .budget_dollars(1.0)
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA001)
        .expect("QA001 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("exceeds the query budget"),
        "{}",
        d.message
    );
}

#[test]
fn qa001_silent_with_possibly_prefilter() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let mut config = session.config().clone();
    config.lint.join_hit_ceiling = 10.0;
    let diags = session
        .query(
            "SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img) \
             AND POSSIBLY gender(p.img) = gender(ph.img)",
        )
        .config(config)
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA001), "{diags:?}");
}

// ------------------------------------------------------------- QA002

#[test]
fn qa002_fires_on_contradictory_interval() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND p.id > 5 AND p.id < 3")
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA002)
        .expect("QA002 fires");
    assert!(
        d.message.contains("contradictory") && d.message.contains("returns no rows"),
        "{}",
        d.message
    );
}

#[test]
fn qa002_fires_on_tautology() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE p.id = p.id AND isFemale(p.img)")
        .check()
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::QA002 && d.message.contains("always true")),
        "{diags:?}"
    );
}

#[test]
fn qa002_silent_on_satisfiable_bounds() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND p.id > 3 AND p.id < 5")
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA002), "{diags:?}");
}

// ------------------------------------------------------------- QA003

#[test]
fn qa003_fires_on_pure_crowd_or_group() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE p.id < 6 OR isFemale(p.img)")
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA003)
        .expect("QA003 fires");
    assert!(
        d.message.contains("no machine-evaluable member") && d.message.contains("HITs"),
        "{}",
        d.message
    );
}

#[test]
fn qa003_silent_when_every_group_has_machine_member() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query(
            "SELECT p.id FROM people p \
             WHERE p.id < 6 AND isFemale(p.img) OR p.id >= 6 AND isSmiling(p.img)",
        )
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA003), "{diags:?}");
}

// ------------------------------------------------------------- QA004

/// A catalog whose `people` table has `n` rows (heights only).
fn tall_world(n: usize) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    let people = gt.new_items(n);
    let mut ppl = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in people.iter().enumerate() {
        gt.set_score(it, "height", i as f64);
        ppl.push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table("people", ppl);
    catalog.define_tasks(TASKS).unwrap();
    let market = Marketplace::new(&CrowdConfig::default().with_seed(9), gt);
    (catalog, market)
}

#[test]
fn qa004_fires_on_large_compare_sort() {
    let (catalog, market) = tall_world(300);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p ORDER BY byHeight(p.img)")
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA004)
        .expect("QA004 fires");
    assert!(
        d.message.contains("~300 items") && d.message.contains("covering-design bound (256)"),
        "{}",
        d.message
    );
}

#[test]
fn qa004_silent_below_bound_or_with_rate_sort() {
    let (catalog, market) = tall_world(300);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p ORDER BY byHeight(p.img)")
        .sort(SortMode::Rate(RateSort::default()))
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA004), "{diags:?}");

    let (catalog, market) = tall_world(12);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p ORDER BY byHeight(p.img)")
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA004), "{diags:?}");
}

// ------------------------------------------------------------- QA005

#[test]
fn qa005_fires_when_budget_below_floor() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .budget_dollars(0.01)
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA005)
        .expect("QA005 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("below the cost-model floor") && d.message.contains("BudgetExceeded"),
        "{}",
        d.message
    );
}

#[test]
fn qa005_fires_on_zero_budget_with_crowd_work() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .budget_dollars(0.0)
        .check()
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::QA005 && d.message.contains("cannot admit any crowd work")),
        "{diags:?}"
    );
}

#[test]
fn qa005_silent_with_adequate_budget_or_machine_only_query() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .budget_dollars(10.0)
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA005), "{diags:?}");

    // Machine-only queries spend nothing: even a zero budget is fine.
    let diags = session
        .query("SELECT p.id FROM people p WHERE p.id < 6")
        .budget_dollars(0.0)
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA005), "{diags:?}");
}

// ------------------------------------------------------------- QA006

#[test]
fn qa006_fires_on_smartbatch_pin_too_small_input() {
    let (catalog, market) = world(4, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img)")
        .join(JoinOp {
            strategy: JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            ..JoinOp::default()
        })
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA006)
        .expect("QA006 fires");
    assert!(
        d.message.contains("pinned SmartBatch 5x5") && d.message.contains("~16 candidate pairs"),
        "{}",
        d.message
    );
}

#[test]
fn qa006_fires_on_zero_iteration_hybrid_pin() {
    let (catalog, market) = tall_world(12);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p ORDER BY byHeight(p.img)")
        .sort(SortMode::Hybrid(HybridSort::default(), 0))
        .check()
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::QA006 && d.message.contains("zero comparison budget")),
        "{diags:?}"
    );
}

#[test]
fn qa006_silent_when_pin_fits_input() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p JOIN photos ph ON samePerson(p.img, ph.img)")
        .join(JoinOp {
            strategy: JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            ..JoinOp::default()
        })
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA006), "{diags:?}");
}

// ------------------------------------------------------------- QA007

#[test]
fn qa007_fires_on_duplicate_crowd_conjunct() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND isFemale(p.img)")
        .check()
        .unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == Code::QA007)
        .expect("QA007 fires");
    assert!(
        d.message.contains("duplicate crowd filter isFemale(..)"),
        "{}",
        d.message
    );
    // The span points at the second occurrence.
    let span = d.span.expect("span resolved");
    assert!(span.column > 40, "span {span:?} should be the repeat");
}

#[test]
fn qa007_fires_on_shadowed_bound() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE p.id < 5 AND p.id < 8 AND isFemale(p.img)")
        .check()
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::QA007 && d.message.contains("shadowed")),
        "{diags:?}"
    );
}

#[test]
fn qa007_silent_on_clean_query() {
    let (catalog, market) = world(12, 1);
    let mut session = Session::new(&catalog, market);
    let diags = session
        .query("SELECT p.id FROM people p WHERE p.id < 6 AND isFemale(p.img)")
        .check()
        .unwrap();
    assert!(!codes(&diags).contains(&Code::QA007), "{diags:?}");
}

// ----------------------------------------------------- policy plumbing

#[test]
fn deny_policy_rejects_before_any_post() {
    let (catalog, market) = world(12, 2);
    let mut session = Session::new(&catalog, market);
    let err = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .lint(LintPolicy::Deny)
        .budget_dollars(0.01)
        .run()
        .unwrap_err();
    let QurkError::Rejected { diagnostics } = &err else {
        panic!("expected Rejected, got {err}");
    };
    assert!(diagnostics.iter().any(|d| d.code == Code::QA005));
    assert!(err.to_string().contains("rejected by pre-flight analysis"));
    // Nothing reached the marketplace: no HITs, no recorded answers.
    assert_eq!(session.backend().hits_posted(), 0);
    assert!(session.backend().inner().trace().is_empty());
}

#[test]
fn deny_policy_passes_clean_queries_and_warn_reports() {
    let (catalog, market) = world(12, 3);
    let mut session = Session::new(&catalog, market);
    // Warn-level findings do not reject under deny…
    let report = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND isFemale(p.img)")
        .lint(LintPolicy::Deny)
        .report()
        .unwrap();
    assert!(report.diagnostics.iter().any(|d| d.code == Code::QA007));
    // …and flow into the report + explain_full output.
    assert!(report.explain_full().contains("QA007 [warn]"));
}

#[test]
fn allow_policy_skips_analysis() {
    let (catalog, market) = world(12, 4);
    let mut session = Session::new(&catalog, market);
    let report = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND isFemale(p.img)")
        .lint(LintPolicy::Allow)
        .report()
        .unwrap();
    assert!(report.diagnostics.is_empty());
}

#[test]
fn explain_shows_diagnostics_block() {
    let (catalog, market) = world(12, 5);
    let mut session = Session::new(&catalog, market);
    let text = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img) AND isFemale(p.img)")
        .explain()
        .unwrap();
    assert!(text.contains("diagnostics:\n"), "{text}");
    assert!(text.contains("QA007 [warn]"), "{text}");

    let clean = session
        .query("SELECT p.id FROM people p WHERE isFemale(p.img)")
        .explain()
        .unwrap();
    assert!(clean.contains("diagnostics: none"), "{clean}");
}

#[test]
fn parse_error_renders_caret_snippet() {
    let (catalog, market) = world(4, 6);
    let mut session = Session::new(&catalog, market);
    let err = session.run("SELECT p.id FRM people p").unwrap_err();
    let text = err.to_string();
    assert!(text.contains("parse error at 1:"), "{text}");
    assert!(text.contains("SELECT p.id FRM people p"), "{text}");
    // Caret on its own line, under the offending column.
    let caret_line = text.lines().last().unwrap();
    assert!(caret_line.trim_end().ends_with('^'), "{text}");
}

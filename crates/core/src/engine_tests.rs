// Engine tests: every physical operator end to end through `Session`
// on a seeded simulated crowd — filters, joins, sorts, MAX/MIN
// extraction, combining, edge cases, and worker bans. Included into
// `exec.rs`, so each module below is a child of `exec`.

#[cfg(test)]
mod tests {
    use crate::backend::CrowdBackend;
    use crate::catalog::Catalog;
    use crate::error::QurkError;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::Session;
    use crate::value::Value;
    use qurk_crowd::truth::{DimensionParams, PredicateTruth};
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

    /// A toy world: table `people` with items that have an `isTall`
    /// predicate, a `height` dimension, and entities for joining.
    fn setup() -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        gt.define_dimension("height", DimensionParams::crisp(0.02));
        let items = gt.new_items(10);
        let photos = gt.new_items(10);
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
            gt.set_entity(photos[i], EntityId(i as u64));
        }
        let market = Marketplace::new(&CrowdConfig::default(), gt);

        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("img", ValueType::Item),
        ]));
        let mut prel = Relation::new(Schema::new(&[
            ("pid", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &it) in items.iter().enumerate() {
            rel.push(vec![
                Value::Int(i as i64),
                Value::text(format!("p{i}")),
                Value::Item(it),
            ])
            .unwrap();
            prel.push(vec![Value::Int(i as i64), Value::Item(photos[i])])
                .unwrap();
        }
        catalog.register_table("people", rel);
        catalog.register_table("photos", prel);
        catalog
            .define_tasks(
                r#"TASK isTall(field) TYPE Filter:
                    Prompt: "<img src='%s'> Tall?", tuple[field]
                   TASK samePerson(a, b) TYPE EquiJoin:
                    LeftNormal: "<img src='%s'>", tuple1[a]
                    RightNormal: "<img src='%s'>", tuple2[b]
                    Combiner: QualityAdjust
                   TASK byHeight(field) TYPE Rank:
                    SingularName: "person"
                    PluralName: "people"
                    OrderDimensionName: "height"
                    LeastName: "shortest"
                    MostName: "tallest"
                    Html: "<img src='%s'>", tuple[field]
                "#,
            )
            .unwrap();
        (catalog, market)
    }

    #[test]
    fn filter_query_end_to_end() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT p.name FROM people AS p WHERE isTall(p.img)")
            .unwrap();
        assert_eq!(rel.schema().fields()[0].name, "p.name");
        let names: Vec<&str> = rel.column(0).iter().map(|v| v.as_text().unwrap()).collect();
        // Mostly the tall half.
        let tall = names
            .iter()
            .filter(|n| n[1..].parse::<usize>().unwrap() >= 5)
            .count();
        assert!(tall >= names.len() - 1, "names={names:?}");
        assert!(names.len() >= 4);
    }

    #[test]
    fn machine_predicate_costs_no_hits() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT p.name FROM people AS p WHERE p.id < 3")
            .report()
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert_eq!(report.hits_posted, 0);
        assert_eq!(report.cost_dollars, 0.0);
    }

    #[test]
    fn machine_filter_runs_before_crowd_filter() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT p.name FROM people AS p WHERE isTall(p.img) AND p.id >= 8")
            .report()
            .unwrap();
        // Only 2 rows survive the machine filter, so the crowd sees at
        // most one HIT (batch 5).
        assert_eq!(report.hits_posted, 1);
        assert!(report.relation.len() <= 2);
    }

    #[test]
    fn join_query_end_to_end() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run(
                "SELECT p.name, ph.pid FROM people p JOIN photos ph \
                 ON samePerson(p.img, ph.img)",
            )
            .unwrap();
        // Most of the 10 true matches, few errors.
        assert!(rel.len() >= 8, "matches={}", rel.len());
        let correct = rel
            .rows()
            .filter(|r| {
                r[0].as_text().unwrap()[1..].parse::<i64>().unwrap() == r[1].as_int().unwrap()
            })
            .count();
        assert!(correct >= rel.len() - 1);
    }

    #[test]
    fn order_by_crowd_rank() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT p.id FROM people p ORDER BY byHeight(p.img) DESC")
            .unwrap();
        let ids: Vec<i64> = rel.rows().map(|r| r[0].as_int().unwrap()).collect();
        // DESC: tallest first.
        let tau =
            qurk_metrics::tau_between_orders(&ids, &(0..10).rev().collect::<Vec<i64>>()).unwrap();
        assert!(tau > 0.9, "tau={tau}, ids={ids:?}");
    }

    #[test]
    fn order_by_asc_reverses() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT p.id FROM people p ORDER BY byHeight(p.img) LIMIT 3")
            .unwrap();
        // ASC: shortest first; limit applies after sort.
        assert_eq!(rel.len(), 3);
        let ids: Vec<i64> = rel.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert!(ids.iter().all(|&i| i <= 4), "ids={ids:?}");
    }

    #[test]
    fn order_by_machine_column() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT p.id FROM people p ORDER BY p.id DESC LIMIT 2")
            .unwrap();
        let ids: Vec<i64> = rel.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![9, 8]);
    }

    #[test]
    fn select_star() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session.run("SELECT * FROM people LIMIT 1").unwrap();
        assert_eq!(rel.schema().len(), 3);
        assert_eq!(rel.len(), 1);
    }

    /// An unknown column fails the query whatever the data: a machine
    /// predicate no row reaches (after `people.id < 0`) fails as surely
    /// as one every row reaches, and an OR group's bad column fails
    /// before the other group pays the crowd.
    #[test]
    fn unknown_column_errors() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        for sql in [
            "SELECT nope FROM people",
            "SELECT id FROM people WHERE people.id < 0 AND people.nope > 3",
            "SELECT id FROM people WHERE people.id < 0 AND people.nope > 3 OR people.id > 100",
            "SELECT id FROM people WHERE isTall(people.img) OR people.nope > 3",
        ] {
            let out = session.run(sql);
            assert!(
                matches!(out, Err(QurkError::UnknownColumn(_))),
                "{sql}: {out:?}"
            );
        }
        assert_eq!(session.backend().hits_posted(), 0);
    }

    /// Run `sql`, which names an unknown column above crowd work, and
    /// check that it fails with `UnknownColumn` before posting a HIT.
    fn unknown_column_posts_nothing(sql: &str) {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let out = session.run(sql);
        assert!(
            matches!(out, Err(QurkError::UnknownColumn(_))),
            "{sql}: {out:?}"
        );
        assert_eq!(session.backend().hits_posted(), 0, "{sql}");
    }

    #[test]
    fn unknown_projected_column_fails_before_a_crowd_filter() {
        unknown_column_posts_nothing("SELECT p.nope FROM people p WHERE isTall(p.img)");
    }

    #[test]
    fn unknown_sort_column_fails_before_a_crowd_filter() {
        unknown_column_posts_nothing(
            "SELECT p.id FROM people p WHERE isTall(p.img) ORDER BY p.nope",
        );
    }

    #[test]
    fn unknown_rank_argument_fails_before_a_crowd_filter_under_a_sort() {
        unknown_column_posts_nothing(
            "SELECT p.id FROM people p WHERE isTall(p.img) ORDER BY byHeight(p.nope)",
        );
    }

    #[test]
    fn unknown_rank_argument_fails_before_a_crowd_filter_under_an_extreme() {
        unknown_column_posts_nothing(
            "SELECT p.id FROM people p WHERE isTall(p.img) ORDER BY byHeight(p.nope) LIMIT 1",
        );
    }

    #[test]
    fn unknown_second_conjunct_column_fails_before_the_first() {
        unknown_column_posts_nothing(
            "SELECT p.id FROM people p WHERE isTall(p.img) AND isTall(p.nope)",
        );
    }

    #[test]
    fn unknown_join_argument_fails_before_a_crowd_filter() {
        unknown_column_posts_nothing(
            "SELECT p.id FROM people p JOIN photos q ON samePerson(p.img, q.nope) \
             WHERE isTall(p.img)",
        );
    }

    /// A binding joined in three times repeats a column name even
    /// once qualified: the query fails with a schema error before any
    /// HIT is posted, where the runner would have panicked after
    /// paying for the first join.
    #[test]
    fn a_thrice_joined_binding_fails_before_posting() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let sql = "SELECT p.id FROM people p JOIN people p ON samePerson(p.img, p.img) \
                   JOIN people p ON samePerson(p.img, p.img)";
        let out = session.run(sql);
        assert!(matches!(out, Err(QurkError::Schema(_))), "{out:?}");
        assert_eq!(session.backend().hits_posted(), 0);
    }

    #[test]
    fn report_accounts_costs() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT p.name FROM people AS p WHERE isTall(p.img)")
            .report()
            .unwrap();
        // 10 items / batch 5 = 2 HITs x 5 assignments x $0.015.
        assert_eq!(report.hits_posted, 2);
        assert!((report.cost_dollars - 2.0 * 5.0 * 0.015).abs() < 1e-9);
        assert!(report.explain.contains("CrowdFilter"));
    }

    #[test]
    fn or_groups_execute() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT p.id FROM people p WHERE isTall(p.img) OR p.id < 2")
            .unwrap();
        let ids: Vec<i64> = rel.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert!(ids.contains(&0) && ids.contains(&1), "ids={ids:?}");
        assert!(ids.iter().filter(|&&i| i >= 5).count() >= 4);
    }

    /// Run `sql`, a shape the plan runner cannot execute over a crowd
    /// filter, and check that it fails with `msg` before the filter
    /// posts a HIT.
    fn fails_before_any_hit(sql: &str, msg: &str) {
        let (mut catalog, mut market) = setup();
        catalog
            .define_tasks(
                r#"TASK gender(field) TYPE Generative:
                    Prompt: "<img src='%s'> Gender?", tuple[field]
                    Response: Radio("Gender", ["Male", "Female", UNKNOWN])
                   TASK hair(field) TYPE Generative:
                    Prompt: "<img src='%s'> Hair?", tuple[field]
                    Response: Radio("Hair", ["Dark", "Light", UNKNOWN])
                   TASK caption(field) TYPE Generative:
                    Prompt: "<img src='%s'> Caption?", tuple[field]
                    Response: Text("Caption")
                "#,
            )
            .unwrap();
        let mut session = Session::new(&catalog, &mut market);
        assert_eq!(
            session.run(sql).err(),
            Some(QurkError::Other(msg.into())),
            "{sql}"
        );
        drop(session);
        assert_eq!(market.hits_posted(), 0, "{sql}");
    }

    #[test]
    fn order_by_shape_fails_before_any_hit() {
        fails_before_any_hit(
            "SELECT p.id FROM people p WHERE isTall(p.img) ORDER BY byHeight(p.img), p.id",
            "only one crowd sort key is supported, and it must be last",
        );
        fails_before_any_hit(
            "SELECT p.id FROM people p WHERE isTall(p.img) ORDER BY p.id, 3",
            "cannot order by a literal",
        );
    }

    #[test]
    fn possibly_equality_shape_fails_before_any_hit() {
        let join = "SELECT p.id FROM people p JOIN photos q ON samePerson(p.img, q.img)";
        fails_before_any_hit(
            &format!("{join} AND POSSIBLY gender(p.img) = hair(q.img) WHERE isTall(p.img)"),
            "POSSIBLY compares different features: gender vs hair",
        );
        fails_before_any_hit(
            &format!("{join} AND POSSIBLY caption(p.img) = caption(q.img) WHERE isTall(p.img)"),
            "feature task caption must have a Radio response",
        );
    }

    #[test]
    fn literal_possibly_on_a_free_text_task_fails_before_any_hit() {
        fails_before_any_hit(
            "SELECT p.id FROM people p JOIN photos q ON samePerson(p.img, q.img) \
             AND POSSIBLY caption(p.img) = \"x\" WHERE isTall(p.img)",
            "feature task caption must be categorical",
        );
    }
}

#[cfg(test)]
mod edge_tests {
    use crate::catalog::Catalog;
    use crate::error::QurkError;
    use crate::ops::{HybridSort, RateSort};
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::{QueryReport, Session, SortMode};
    use crate::value::Value;
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    fn empty_world() -> (Catalog, Marketplace) {
        let gt = GroundTruth::new();
        let market = Marketplace::new(&CrowdConfig::default(), gt);
        let mut catalog = Catalog::new();
        catalog.register_table(
            "t",
            Relation::new(Schema::new(&[
                ("id", ValueType::Int),
                ("img", ValueType::Item),
            ])),
        );
        catalog
            .define_tasks(
                r#"TASK p(field) TYPE Filter:
                    Prompt: "%s?", tuple[field]
                   TASK j(a, b) TYPE EquiJoin:
                    Combiner: MajorityVote
                   TASK q(field) TYPE Filter:
                    Prompt: "%s?", tuple[field]
                   TASK r(field) TYPE Rank:
                    OrderDimensionName: "d"
                   TASK g(field) TYPE Generative:
                    Prompt: "%s?", tuple[field]
                    Response: Radio("G", ["a", "b", UNKNOWN])
                "#,
            )
            .unwrap();
        (catalog, market)
    }

    /// Every shape the plan runner executes runs over an empty table
    /// and posts no HIT: binding a plan (`exec::bind`) is the runner
    /// over zero-row tables, so it rests on this.
    #[test]
    fn empty_table_flows_through_every_operator() {
        let (catalog, mut market) = empty_world();
        let mut session = Session::new(&catalog, &mut market);
        // An empty result, from a plan that shows the shape.
        let check = |sql: &str, shape: &str, report: Result<QueryReport, QurkError>| {
            let report = report.unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert!(report.relation.is_empty(), "{sql}");
            let plan = &report.plan.physical;
            assert!(plan.contains(shape), "{sql}: no {shape} in\n{plan}");
        };
        let join = "SELECT t.id FROM t JOIN t AS u ON j(t.img, u.img)";
        let rank = "SELECT id FROM t ORDER BY r(t.img)";
        for (sql, shape) in [
            ("SELECT id FROM t".to_owned(), "Scan t"),
            (
                "SELECT id FROM t WHERE p(t.img)".into(),
                "CrowdFilter p [serial",
            ),
            (
                "SELECT id FROM t WHERE id < 5 AND p(t.img)".into(),
                "MachineFilter",
            ),
            (
                "SELECT id FROM t WHERE id < 5 AND p(t.img) OR q(t.img)".into(),
                "CrowdFilterOr",
            ),
            (join.into(), "CrowdJoin ON j"),
            (
                format!("{join} AND POSSIBLY g(t.img) = \"a\""),
                "1 POSSIBLY",
            ),
            (
                format!("{join} AND POSSIBLY g(t.img) = g(u.img)"),
                "1 POSSIBLY",
            ),
            ("SELECT id, g(t.img) FROM t".into(), "Project [2 columns]"),
            (format!("{rank} LIMIT 3"), "Compare(S="),
            (format!("{rank} LIMIT 1"), "ExtractMin r"),
            (format!("{rank} DESC LIMIT 1"), "ExtractMax r"),
            ("SELECT * FROM t LIMIT 0".into(), "Limit 0"),
            ("SELECT * FROM t".into(), "Project [*]  (~0 rows)"),
        ] {
            check(&sql, shape, session.query(&sql).report());
        }
        let conjuncts = "SELECT id FROM t WHERE p(t.img) AND q(t.img)";
        let report = session.query(conjuncts).combine_filters(true).report();
        check(conjuncts, "CrowdFilter p AND q [combined", report);
        // Nothing to extract from: the extreme is estimated at no rows.
        for sql in [format!("{rank} LIMIT 1"), format!("{rank} DESC LIMIT 1")] {
            let plan = session.query(&sql).report().unwrap().plan.physical;
            let extract = plan.lines().find(|l| l.contains("Extract")).unwrap();
            assert!(extract.ends_with("[tournament]  (~0 rows)"), "{plan}");
        }
        for (mode, shape) in [
            (SortMode::Rate(RateSort::default()), "Rate("),
            (SortMode::Hybrid(HybridSort::default(), 3), "Hybrid("),
        ] {
            check(rank, shape, session.query(rank).sort(mode).report());
        }
        let out = session.run("SELECT id FROM t WHERE t.nope > 3");
        assert!(
            matches!(out, Err(QurkError::UnknownColumn(_))),
            "an unknown column fails even on no rows: {out:?}"
        );
        drop(session);
        assert_eq!(market.hits_posted(), 0, "empty inputs must not post HITs");
    }

    #[test]
    fn null_items_fail_crowd_filters() {
        let mut gt = GroundTruth::new();
        let item = gt.new_item();
        gt.set_predicate(
            item,
            "p",
            PredicateTruth {
                value: true,
                error_rate: 0.02,
            },
        );
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        rel.push(vec![Value::Int(0), Value::Item(item)]).unwrap();
        rel.push(vec![Value::Int(1), Value::Null]).unwrap();
        catalog.register_table("t", rel);
        catalog
            .define_tasks("TASK p(field) TYPE Filter:\n Prompt: \"%s?\", tuple[field]")
            .unwrap();
        let mut market = Marketplace::new(&CrowdConfig::default(), gt);
        let mut session = Session::new(&catalog, &mut market);
        let out = session.run("SELECT id FROM t WHERE p(t.img)").unwrap();
        let ids: Vec<i64> = out.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert!(!ids.contains(&1), "NULL-item row must not pass: {ids:?}");
    }

    /// `t(id, img)` with one item per id in `ids` (same entity, so
    /// every crossing matches) and then one NULL-item row, id 99.
    fn items_then_null(ids: &[i64]) -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        gt.define_feature("g", &["a", "b"]);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for &id in ids {
            let item = gt.new_item();
            gt.set_entity(item, qurk_crowd::EntityId(1));
            gt.set_feature_simple(item, "g", 0, 0.02);
            rel.push(vec![Value::Int(id), Value::Item(item)]).unwrap();
        }
        rel.push(vec![Value::Int(99), Value::Null]).unwrap();
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks(
                r#"TASK j(a, b) TYPE EquiJoin:
                    Combiner: MajorityVote
                   TASK p(field) TYPE Filter:
                    Prompt: "%s?", tuple[field]
                   TASK g(field) TYPE Generative:
                    Prompt: "%s?", tuple[field]
                    Response: Radio("G", ["a", "b", UNKNOWN])
                "#,
            )
            .unwrap();
        let market = Marketplace::new(&CrowdConfig::default().honest(), gt);
        (catalog, market)
    }

    /// A NULL item joins nothing and is never asked about: a 4-row
    /// self-join with a fifth, NULL-item row posts the 4×4 crossings
    /// (4 HITs of 5 pairs, $0.300), not 5×5.
    #[test]
    fn null_items_are_not_joined_or_asked_about() {
        let (catalog, mut market) = items_then_null(&[0, 1, 2, 3]);
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT x.id, y.id FROM t AS x JOIN t AS y ON j(x.img, y.img)")
            .report()
            .unwrap();
        assert_eq!(report.hits_posted, 4);
        assert!(
            (report.cost_dollars - 0.300).abs() < 1e-9,
            "{}",
            report.cost_dollars
        );
        assert!(
            report.relation.len() >= 12,
            "matches: {}",
            report.relation.len()
        );
        for row in report.relation.rows() {
            assert!(row.values().all(|v| v.as_int() != Some(99)), "{row:?}");
        }
    }

    /// When the κ test drops every POSSIBLY feature, no filter is left
    /// and the join asks about every pair: over one pure-noise feature
    /// and 6×6 items of one entity, all 36 pairs are asked and nearly
    /// all match.
    #[test]
    fn a_join_whose_features_all_drop_asks_every_pair() {
        let mut gt = GroundTruth::new();
        gt.define_feature("g", &["a", "b"]);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for id in 0..6 {
            let item = gt.new_item();
            gt.set_entity(item, qurk_crowd::EntityId(1));
            // Either option with probability 0.5: pure noise.
            gt.set_feature_simple(item, "g", 0, 0.5);
            rel.push(vec![Value::Int(id), Value::Item(item)]).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks(
                r#"TASK j(a, b) TYPE EquiJoin:
                    Combiner: MajorityVote
                   TASK g(field) TYPE Generative:
                    Prompt: "%s?", tuple[field]
                    Response: Radio("G", ["a", "b", UNKNOWN])
                "#,
            )
            .unwrap();
        let mut market = Marketplace::new(&CrowdConfig::default().honest(), gt);
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query(
                "SELECT x.id, y.id FROM t AS x JOIN t AS y ON j(x.img, y.img) \
                 AND POSSIBLY g(x.img) = g(y.img)",
            )
            .report()
            .unwrap();
        assert_eq!(session.statistics().joins["j"].seen, 36);
        let matches = report.relation.len();
        assert!((30..=36).contains(&matches), "{matches} matches");
    }

    /// A generative SELECT asks nothing about a NULL item and yields
    /// NULL for its row: five items fit one HIT, the NULL does not add
    /// a sixth question (and a second HIT).
    #[test]
    fn generative_select_skips_null_items() {
        let (catalog, mut market) = items_then_null(&[0, 1, 2, 3, 4]);
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT id, g(t.img) FROM t")
            .report()
            .unwrap();
        assert_eq!(report.hits_posted, 1);
        let rows: Vec<(i64, Value)> = report
            .relation
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1]))
            .collect();
        assert_eq!(rows.len(), 6);
        for (id, v) in rows {
            if id == 99 {
                assert_eq!(v, Value::Null);
            } else {
                assert_eq!(v.as_text(), Some("a"), "row {id}");
            }
        }
    }

    /// A SELECT item whose name an earlier column took is named
    /// `name#i` (`i` its position), whatever kind of item either is;
    /// two identical generative calls still post their HITs once.
    #[test]
    fn repeated_select_names_get_their_position() {
        let names = |rel: &Relation| -> Vec<String> {
            rel.schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect()
        };
        let (catalog, mut market) = items_then_null(&[0, 1, 2, 3, 4]);
        let mut session = Session::new(&catalog, &mut market);

        let same = session
            .query("SELECT g(t.img), g(t.img) FROM t")
            .report()
            .unwrap();
        assert_eq!(names(&same.relation), ["g", "g#1"]);
        assert_eq!(same.hits_posted, 1);
        assert_eq!(same.relation.column(0), same.relation.column(1));

        let join = session
            .query("SELECT g(x.img), g(y.img) FROM t AS x JOIN t AS y ON j(x.img, y.img)")
            .report()
            .unwrap();
        assert_eq!(names(&join.relation), ["g", "g#1"]);
        assert!(!join.relation.is_empty());

        let star = session.run("SELECT t.id, * FROM t").unwrap();
        assert_eq!(names(&star), ["t.id", "t.id#1", "t.img"]);
    }

    /// A call with the wrong number of arguments fails at planning:
    /// `check()` and `run()` give the same typed error, and the join
    /// before the malformed filter posts nothing.
    #[test]
    fn wrong_arity_fails_before_any_hit() {
        let (catalog, mut market) = items_then_null(&[0, 1]);
        let mut session = Session::new(&catalog, &mut market);
        let sql = "SELECT x.id FROM t AS x JOIN t AS y ON j(x.img, y.img) WHERE p()";
        let want = QurkError::TaskArity {
            task: "p".into(),
            expected: 1,
            found: 0,
        };
        assert_eq!(session.query(sql).check().err(), Some(want.clone()));
        assert_eq!(session.run(sql).err(), Some(want));
        drop(session);
        assert_eq!(market.hits_posted(), 0);
    }

    #[test]
    fn limit_zero_and_oversized_limit() {
        let (catalog, mut market) = empty_world();
        let mut session = Session::new(&catalog, &mut market);
        assert_eq!(session.run("SELECT id FROM t LIMIT 0").unwrap().len(), 0);
        assert_eq!(session.run("SELECT id FROM t LIMIT 999").unwrap().len(), 0);
    }

    #[test]
    fn self_join_uses_aliases() {
        // Regression: both sides of a self-join resolve their own
        // qualified columns.
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        gt.set_entity(a, qurk_crowd::EntityId(1));
        gt.set_entity(b, qurk_crowd::EntityId(1));
        let mut catalog = Catalog::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        rel.push(vec![Value::Int(0), Value::Item(a)]).unwrap();
        rel.push(vec![Value::Int(1), Value::Item(b)]).unwrap();
        catalog.register_table("t", rel);
        catalog
            .define_tasks("TASK j(a, b) TYPE EquiJoin:\n Combiner: MajorityVote")
            .unwrap();
        let mut market = Marketplace::new(&CrowdConfig::default(), gt);
        let mut session = Session::new(&catalog, &mut market);
        let out = session
            .run("SELECT x.id, y.id FROM t AS x JOIN t AS y ON j(x.img, y.img)")
            .unwrap();
        // Items a and b depict the same entity: all 4 crossings match.
        assert!(out.len() >= 3, "self-join found {} pairs", out.len());
    }
}

#[cfg(test)]
mod max_min_tests {
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::Session;
    use crate::value::Value;
    use qurk_crowd::truth::DimensionParams;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    fn world(n: usize) -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        gt.define_dimension("d", DimensionParams::crisp(0.02));
        let items = gt.new_items(n);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "d", i as f64);
            rel.push(vec![Value::Int(i as i64), Value::Item(it)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks("TASK byD(field) TYPE Rank:\n OrderDimensionName: \"d\"")
            .unwrap();
        (catalog, Marketplace::new(&CrowdConfig::default(), gt))
    }

    #[test]
    fn limit_one_desc_runs_max_extraction() {
        let (catalog, mut market) = world(20);
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT id FROM t ORDER BY byD(t.img) DESC LIMIT 1")
            .report()
            .unwrap();
        assert_eq!(report.relation.len(), 1);
        assert_eq!(report.relation.row(0)[0], Value::Int(19));
        // Tournament over 20 items in batches of 5: 4 + 1 = 5 HITs —
        // far below the ~19-group full sort.
        assert!(report.hits_posted <= 6, "hits={}", report.hits_posted);
    }

    #[test]
    fn limit_one_asc_runs_min_extraction() {
        let (catalog, mut market) = world(20);
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT id FROM t ORDER BY byD(t.img) LIMIT 1")
            .unwrap();
        assert_eq!(rel.row(0)[0], Value::Int(0));
    }

    #[test]
    fn limit_two_still_does_full_sort() {
        let (catalog, mut market) = world(10);
        let mut session = Session::new(&catalog, &mut market);
        let report = session
            .query("SELECT id FROM t ORDER BY byD(t.img) DESC LIMIT 2")
            .report()
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        let ids: Vec<i64> = report
            .relation
            .rows()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![9, 8]);
    }

    #[test]
    fn limit_one_on_empty_is_empty() {
        let (catalog, mut market) = world(20);
        let mut session = Session::new(&catalog, &mut market);
        let rel = session
            .run("SELECT id FROM t WHERE id < 0 ORDER BY byD(t.img) LIMIT 1")
            .unwrap();
        assert!(rel.is_empty());
    }
}

#[cfg(test)]
mod null_sort_tests {
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::Session;
    use crate::value::Value;
    use qurk_crowd::truth::DimensionParams;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    /// Table `t(id, x, img)`: 64 rows whose Int column `x` is NULL in
    /// about a third of them, placed by `seed`.
    fn nullable_world(seed: u64) -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(64);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("x", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for (i, &it) in items.iter().enumerate() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = if state.is_multiple_of(3) {
                Value::Null
            } else {
                Value::Int((state >> 8) as i64 % 20)
            };
            rel.push(vec![Value::Int(i as i64), x, Value::Item(it)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        (catalog, Marketplace::new(&CrowdConfig::default(), gt))
    }

    fn xs(rel: &Relation) -> Vec<Option<i64>> {
        rel.column(0).iter().map(Value::as_int).collect()
    }

    #[test]
    fn order_by_nullable_column_asc_puts_nulls_last() {
        for seed in 0..50 {
            let (catalog, mut market) = nullable_world(seed);
            let mut session = Session::new(&catalog, &mut market);
            let out = xs(&session.run("SELECT t.x FROM t ORDER BY t.x").unwrap());
            assert_eq!(out.len(), 64);
            let nulls = out.iter().filter(|v| v.is_none()).count();
            assert!(nulls > 0, "seed {seed}: no NULLs generated");
            assert!(out[64 - nulls..].iter().all(Option::is_none), "seed {seed}");
            assert!(
                out[..64 - nulls].windows(2).all(|w| w[0] <= w[1]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn order_by_nullable_column_desc_puts_nulls_first() {
        for seed in 0..50 {
            let (catalog, mut market) = nullable_world(seed);
            let mut session = Session::new(&catalog, &mut market);
            let out = xs(&session.run("SELECT t.x FROM t ORDER BY t.x DESC").unwrap());
            let nulls = out.iter().filter(|v| v.is_none()).count();
            assert!(out[..nulls].iter().all(Option::is_none), "seed {seed}");
            assert!(out[nulls..].iter().all(Option::is_some), "seed {seed}");
            assert!(out[nulls..].windows(2).all(|w| w[0] >= w[1]), "seed {seed}");
        }
    }

    #[test]
    fn crowd_key_after_nullable_machine_key_sorts_null_rows_as_one_group() {
        // Group key `g` is 0, 1 or NULL; within each group the crowd
        // orders rows by a crisp score equal to the row id.
        let mut gt = GroundTruth::new();
        gt.define_dimension("d", DimensionParams::crisp(0.02));
        let items = gt.new_items(12);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("g", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "d", i as f64);
            let g = match i % 3 {
                0 => Value::Null,
                1 => Value::Int(1),
                _ => Value::Int(0),
            };
            rel.push(vec![Value::Int(i as i64), g, Value::Item(it)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks("TASK byD(field) TYPE Rank:\n OrderDimensionName: \"d\"")
            .unwrap();
        let mut market = Marketplace::new(&CrowdConfig::default(), gt);
        let mut session = Session::new(&catalog, &mut market);
        let out = session
            .run("SELECT t.g, t.id FROM t ORDER BY t.g, byD(t.img) DESC")
            .unwrap();
        let got: Vec<(Option<i64>, i64)> = out
            .rows()
            .map(|r| (r[0].as_int(), r[1].as_int().unwrap()))
            .collect();
        let want: Vec<(Option<i64>, i64)> = [(Some(0), [11, 8, 5, 2]), (Some(1), [10, 7, 4, 1])]
            .into_iter()
            .chain([(None, [9, 6, 3, 0])])
            .flat_map(|(g, ids)| ids.into_iter().map(move |id| (g, id)))
            .collect();
        assert_eq!(got, want);
    }
}

#[cfg(test)]
mod ban_tests {
    use crate::ops::join::{identify_spammers, JoinOp};
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, ItemId, Marketplace, WorkerId};

    /// A 12×12 join market with 25% spammers, seed 99.
    fn spam_market() -> (Marketplace, Vec<ItemId>, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        let left = gt.new_items(12);
        let right = gt.new_items(12);
        for i in 0..12 {
            gt.set_entity(left[i], EntityId(i as u64));
            gt.set_entity(right[i], EntityId(i as u64));
        }
        let mut cfg = CrowdConfig::default().with_seed(99);
        cfg.workers.spammer_fraction = 0.25;
        (Marketplace::new(&cfg, gt), left, right)
    }

    /// §6: QA spam scores identify bad workers; banning them improves a
    /// *subsequent* run on the same marketplace.
    #[test]
    fn qa_identifies_spammers_and_bans_stick() {
        let (mut market, left, right) = spam_market();
        let op = JoinOp::default();
        let out = op.run(&mut market, &left, &right, None).unwrap();
        let spammers = identify_spammers(&out.pair_votes, 0.9);
        assert!(!spammers.is_empty(), "should flag some spam workers");
        // Flagged workers are predominantly actual spammers.
        let truly_spam = spammers
            .iter()
            .filter(|w| {
                matches!(
                    market.pool().get(**w).archetype,
                    qurk_crowd::WorkerArchetype::Spammer(_)
                )
            })
            .count();
        assert!(
            truly_spam * 3 >= spammers.len() * 2,
            "{truly_spam}/{} flagged are real spammers",
            spammers.len()
        );
        market.ban_workers(spammers.iter().copied());
        assert_eq!(market.banned_count(), spammers.len());

        // Second run: banned workers contribute no votes.
        let out2 = op.run(&mut market, &left, &right, None).unwrap();
        let banned: std::collections::HashSet<_> = spammers.into_iter().collect();
        for (_, votes) in out2.pair_votes.iter() {
            for (w, _) in votes {
                assert!(!banned.contains(w), "banned worker {w:?} still answering");
            }
        }
    }

    /// The flagged workers come back sorted by `WorkerId`, the same
    /// list on every run of the same votes (no hash-order leak).
    #[test]
    fn identified_spammers_are_sorted_and_stable() {
        let runs: Vec<Vec<WorkerId>> = (0..8)
            .map(|_| {
                let (mut market, left, right) = spam_market();
                let out = JoinOp::default()
                    .run(&mut market, &left, &right, None)
                    .unwrap();
                identify_spammers(&out.pair_votes, 0.9)
            })
            .collect();
        assert!(runs[0].len() >= 2, "need two flagged workers to order");
        for spammers in &runs {
            assert!(
                spammers.windows(2).all(|w| w[0] < w[1]),
                "not sorted: {spammers:?}"
            );
            assert_eq!(spammers, &runs[0]);
        }
    }
}

#[cfg(test)]
mod combining_tests {
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::Session;
    use crate::value::Value;
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    fn world() -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(20);
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, &it) in items.iter().enumerate() {
            gt.set_predicate(
                it,
                "a",
                PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: 0.03,
                },
            );
            gt.set_predicate(
                it,
                "b",
                PredicateTruth {
                    value: i % 3 == 0,
                    error_rate: 0.03,
                },
            );
            rel.push(vec![Value::Int(i as i64), Value::Item(it)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks(
                "TASK a(field) TYPE Filter:\n Prompt: \"%s?\", tuple[field]\n\
                 TASK b(field) TYPE Filter:\n Prompt: \"%s?\", tuple[field]",
            )
            .unwrap();
        (catalog, Marketplace::new(&CrowdConfig::default(), gt))
    }

    /// §2.6 footnote 2: combining asks more questions (the second
    /// filter sees tuples the first would have discarded) but posts
    /// fewer HITs; serial execution posts more HITs but asks less.
    #[test]
    fn combining_cuts_hits_at_equal_answers() {
        let (catalog, mut market) = world();
        let mut session = Session::new(&catalog, &mut market);
        let serial = session
            .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
            .report()
            .unwrap();
        let (catalog, mut market) = world();
        let mut session = Session::new(&catalog, &mut market);
        session.config_mut().combine_conjunct_filters = true;
        let combined = session
            .query("SELECT id FROM t WHERE a(t.img) AND b(t.img)")
            .report()
            .unwrap();
        // Serial: 4 HITs for `a` + ~2 for survivors of `a`.
        // Combined: 4 HITs carrying both questions.
        assert!(
            combined.hits_posted < serial.hits_posted,
            "combined={} serial={}",
            combined.hits_posted,
            serial.hits_posted
        );
        // Same survivors (ids divisible by 6, modulo crowd noise).
        let ids = |r: &Relation| -> Vec<i64> { r.rows().map(|t| t[0].as_int().unwrap()).collect() };
        let mut s = ids(&serial.relation);
        let mut c = ids(&combined.relation);
        s.sort_unstable();
        c.sort_unstable();
        for want in [0i64, 6, 12, 18] {
            assert!(c.contains(&want), "combined missing {want}: {c:?}");
        }
        assert!(
            s.len().abs_diff(c.len()) <= 1,
            "serial {s:?} combined {c:?}"
        );
    }

    /// Table `t(id, a, b)`: `a` items are tall from row 5 on, `b`
    /// items are red on even rows; no crowd error.
    fn two_item_world() -> (Catalog, Marketplace) {
        let mut gt = GroundTruth::new();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("a", ValueType::Item),
            ("b", ValueType::Item),
        ]));
        for i in 0..10 {
            let (a, b) = (gt.new_item(), gt.new_item());
            let truth = |value| PredicateTruth {
                value,
                error_rate: 0.0,
            };
            gt.set_predicate(a, "isTall", truth(i >= 5));
            gt.set_predicate(b, "isRed", truth(i % 2 == 0));
            rel.push(vec![Value::Int(i), Value::Item(a), Value::Item(b)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_table("t", rel);
        catalog
            .define_tasks(
                "TASK isTall(field) TYPE Filter:\n Prompt: \"%s?\", tuple[field]\n\
                 TASK isRed(field) TYPE Filter:\n Prompt: \"%s?\", tuple[field]",
            )
            .unwrap();
        (catalog, Marketplace::new(&CrowdConfig::default(), gt))
    }

    /// Regression: §2.6 combining asks every predicate about one item
    /// per tuple, and conjuncts over different item columns were
    /// combined anyway — asking `isRed` about the `a` items and
    /// returning no rows — whether combining was pinned on or chosen
    /// by the cost-based optimizer from learned selectivities.
    #[test]
    fn conjuncts_over_different_items_stay_serial() {
        let sql = "SELECT id FROM t WHERE isTall(t.a) AND isRed(t.b)";
        let ids = |r: &Relation| -> Vec<i64> { r.rows().map(|t| t[0].as_int().unwrap()).collect() };

        let (catalog, mut market) = two_item_world();
        let mut session = Session::new(&catalog, &mut market);
        assert_eq!(ids(&session.run(sql).unwrap()), [6, 8], "serial");

        let (catalog, mut market) = two_item_world();
        let mut session = Session::new(&catalog, &mut market);
        let pinned = session.query(sql).combine_filters(true).report().unwrap();
        assert_eq!(ids(&pinned.relation), [6, 8], "combining pinned on");
        assert!(
            pinned.plan.physical.contains("serial"),
            "{}",
            pinned.plan.physical
        );

        let (catalog, mut market) = two_item_world();
        let mut session = Session::new(&catalog, &mut market);
        session.run(sql).unwrap();
        let learned = session.query(sql).report().unwrap();
        assert_eq!(ids(&learned.relation), [6, 8], "cost-based second run");
        assert!(
            learned
                .plan
                .decisions
                .iter()
                .all(|d| !d.starts_with("combine")),
            "{:?}",
            learned.plan.decisions
        );
    }
}

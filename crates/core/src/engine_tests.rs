//! Engine tests: every physical operator end to end through
//! [`Session`](crate::session::Session) on a seeded simulated crowd —
//! filters, joins, sorts, MAX/MIN extraction, combining, edge cases,
//! and worker bans.

#[cfg(test)]
mod tests {
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

    #[test]
    fn unknown_column_errors() {
        let (catalog, mut market) = setup();
        let mut session = Session::new(&catalog, &mut market);
        assert!(matches!(
            session.run("SELECT nope FROM people"),
            Err(QurkError::UnknownColumn(_))
        ));
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
}

#[cfg(test)]
mod edge_tests {
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::{Schema, ValueType};
    use crate::session::Session;
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
                   TASK r(field) TYPE Rank:
                    OrderDimensionName: "d"
                "#,
            )
            .unwrap();
        (catalog, market)
    }

    #[test]
    fn empty_table_flows_through_every_operator() {
        let (catalog, mut market) = empty_world();
        let mut session = Session::new(&catalog, &mut market);
        for sql in [
            "SELECT id FROM t",
            "SELECT id FROM t WHERE p(t.img)",
            "SELECT id FROM t WHERE id < 5 AND p(t.img)",
            "SELECT t.id FROM t JOIN t AS u ON j(t.img, u.img)",
            "SELECT id FROM t ORDER BY r(t.img) LIMIT 3",
            "SELECT * FROM t LIMIT 0",
        ] {
            let rel = session.run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(rel.len(), 0, "{sql}");
        }
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
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

    /// §6: QA spam scores identify bad workers; banning them improves a
    /// *subsequent* run on the same marketplace.
    #[test]
    fn qa_identifies_spammers_and_bans_stick() {
        let mut gt = GroundTruth::new();
        let left = gt.new_items(12);
        let right = gt.new_items(12);
        for i in 0..12 {
            gt.set_entity(left[i], EntityId(i as u64));
            gt.set_entity(right[i], EntityId(i as u64));
        }
        let mut cfg = CrowdConfig::default().with_seed(99);
        cfg.workers.spammer_fraction = 0.25;
        let mut market = Marketplace::new(&cfg, gt);
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
        for votes in out2.pair_votes.values() {
            for (w, _) in votes {
                assert!(!banned.contains(w), "banned worker {w:?} still answering");
            }
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
}

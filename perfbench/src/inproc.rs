//! The in-process workloads, each a default `Session` over a live
//! simulated marketplace:
//!
//! - `join-crowd`: §3.3's celebrity join with two POSSIBLY feature
//!   filters. The simulator, the EM combiner, κ and candidate
//!   partitioning do the work.
//! - `sort-compare`: `ORDER BY` with the Compare sort over squares.
//!   Planning the comparison groups does most of the work.
//!
//! Every query gets a fresh marketplace built from the same seeded
//! ground truth, so each query repeats the same crowd work and every
//! HIT spec is a cache miss.

use std::collections::HashMap;
use std::time::Instant;

use qurk::prelude::*;
use qurk_bench::world::{is_true_match, TrialSpec};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};
use qurk_data::celebrity::{celebrity_dataset, CelebrityConfig, GENDER_OPTIONS, HAIR_OPTIONS};
use qurk_data::squares::{squares_dataset, AREA};

use crate::serve::Shape;
use crate::timed::Timed;
use crate::util::SplitMix;

/// Celebrities per table in `join-crowd` (the join is this size squared).
pub const JOIN_SIZE: usize = 300;
/// Squares sorted by `sort-compare`. Large enough that planning the
/// comparison groups (cubic in this) outweighs the simulator, small
/// enough that a run repeats each input many times: at 200 squares a
/// query took about a second, too few repeats for a steady figure on a
/// shared host.
pub const SORT_SIZE: usize = 128;

/// Output floors; a query below any of them counts as failed. They sit
/// far below what a working engine gives, so crowd noise never trips
/// them and a broken operator always does: over 320 generated join
/// inputs precision ran 0.71–1 (mean 0.89) and recall 0.76–0.95 (mean
/// 0.85), and Kendall τ over 96 sort inputs never fell below 0.99.
pub const PRECISION_FLOOR: f64 = 0.5;
pub const RECALL_FLOOR: f64 = 0.6;
pub const TAU_FLOOR: f64 = 0.9;

/// Inputs per run. The queries of a run cycle through this many inputs
/// generated from the run's seed, so a run's figures average over
/// inputs instead of resting on one draw. Whether a join input keeps the
/// hairColor filter changes its work severalfold, so a run needs many
/// inputs for its mix, and its figures, to repeat from seed to seed.
pub const INSTANCES: usize = 16;

/// The run's inputs for `build`, one per sub-seed of `seed`.
pub fn instances(build: fn(u64) -> InProc, seed: u64) -> Vec<InProc> {
    let mut rng = SplitMix::new(seed);
    (0..INSTANCES).map(|_| build(rng.next_u64())).collect()
}

/// What a correct answer looks like.
enum Expect {
    /// `photo_owner[pid]` is the celebrity id shown in photo `pid`.
    Join(qurk_data::celebrity::CelebrityDataset),
    /// Rank of each square's area, by label.
    Sort(HashMap<String, f64>),
    /// Exactly this many rows.
    Rows(usize),
}

pub struct InProc {
    pub catalog: Catalog,
    pub sql: String,
    truth: GroundTruth,
    crowd: CrowdConfig,
    expect: Expect,
}

/// One query's measurements.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The `report()` call: plan, run, combine.
    pub wall_s: f64,
    /// Marketplace construction, the query, and the output check.
    pub batch_s: f64,
    pub hits: usize,
    pub dollars: f64,
    pub virtual_s: f64,
    pub assignments: u64,
    pub ok: bool,
    /// The output figures `ok` rests on, or the query's error.
    pub quality: String,
    /// Time inside the crowd backend (traced runs only).
    pub crowd_busy_s: f64,
    pub crowd_calls: u64,
    pub cache: (u64, u64),
}

impl QueryRun {
    /// The counters that must repeat exactly on every query of a run.
    pub fn counters(&self) -> (usize, u64, u64, u64) {
        (
            self.hits,
            self.dollars.to_bits(),
            self.virtual_s.to_bits(),
            self.assignments,
        )
    }
}

/// `join-crowd`: celeb(id, img) ⋈ photos(pid, img) on samePerson, with
/// POSSIBLY gender and hairColor.
pub fn join_crowd(seed: u64) -> InProc {
    let mut truth = GroundTruth::new();
    let ds = celebrity_dataset(
        &mut truth,
        &CelebrityConfig::default()
            .with_celebrities(JOIN_SIZE)
            .with_seed(seed),
    );
    let mut catalog = Catalog::new();
    let mut celeb = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in ds.celeb_items.iter().enumerate() {
        celeb
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .expect("celeb row matches schema");
    }
    let mut photos = Relation::new(Schema::new(&[
        ("pid", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in ds.photo_items.iter().enumerate() {
        photos
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .expect("photo row matches schema");
    }
    catalog.register_table("celeb", celeb);
    catalog.register_table("photos", photos);
    let quoted = |opts: &[&str]| {
        opts.iter()
            .map(|o| format!("\"{o}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    catalog
        .define_tasks(&format!(
            r#"TASK samePerson(f1, f2) TYPE EquiJoin:
                Combiner: QualityAdjust
               TASK gender(field) TYPE Generative:
                Prompt: "<img src='%s'>?", tuple[field]
                Response: Radio("Gender", [{}, UNKNOWN])
               TASK hairColor(field) TYPE Generative:
                Prompt: "<img src='%s'>?", tuple[field]
                Response: Radio("Hair", [{}, UNKNOWN])
            "#,
            quoted(&GENDER_OPTIONS),
            quoted(&HAIR_OPTIONS),
        ))
        .expect("join task definitions parse");
    InProc {
        catalog,
        sql: "SELECT c.id, p.pid FROM celeb c JOIN photos p \
              ON samePerson(c.img, p.img) \
              AND POSSIBLY gender(c.img) = gender(p.img) \
              AND POSSIBLY hairColor(c.img) = hairColor(p.img)"
            .to_owned(),
        truth,
        crowd: TrialSpec::morning(seed).crowd_config(),
        expect: Expect::Join(ds),
    }
}

/// `sort-compare`: squares in a seed-shuffled row order, sorted by area
/// with the default Compare sort.
pub fn sort_compare(seed: u64) -> InProc {
    let mut truth = GroundTruth::new();
    let ds = squares_dataset(&mut truth, SORT_SIZE);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut squares = Relation::new(Schema::new(&[
        ("label", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for &i in &order {
        squares
            .push(vec![Value::text(&ds.labels[i]), Value::Item(ds.items[i])])
            .expect("square row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog.register_table("squares", squares);
    catalog
        .define_tasks(
            r#"TASK sortSquares(field) TYPE Rank:
                SingularName: "square"
                PluralName: "squares"
                OrderDimensionName: "area"
                LeastName: "smallest"
                MostName: "largest"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .expect("sort task definition parses");
    // Labels are in increasing size, so the index ranks the area.
    let area = ds
        .labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.clone(), i as f64))
        .collect();
    InProc {
        catalog,
        sql: "SELECT label FROM squares ORDER BY sortSquares(squares.img) DESC".to_owned(),
        truth,
        crowd: TrialSpec::morning(seed).crowd_config(),
        expect: Expect::Sort(area),
    }
}

/// One `serve-loopback` query shape, run in process against a replica
/// of the world `qurk-serve` serves (its default seed, `people` and
/// `squares`). Traced `serve-loopback` runs use it to split crowd from
/// machine time, which the wire cannot show, and to time the front end
/// on the served SQL.
pub fn served(shape: Shape) -> InProc {
    let mut truth = GroundTruth::new();
    truth.define_dimension("height", DimensionParams::crisp(0.02));
    let people = truth.new_items(10);
    for (i, &it) in people.iter().enumerate() {
        truth.set_predicate(
            it,
            "isTall",
            PredicateTruth {
                value: i >= 5,
                error_rate: 0.03,
            },
        );
        truth.set_score(it, "height", i as f64);
        truth.set_entity(it, EntityId(i as u64));
    }
    let squares = squares_dataset(&mut truth, 6);

    let mut catalog = Catalog::new();
    let mut people_rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in people.iter().enumerate() {
        people_rel
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .expect("people row matches schema");
    }
    catalog.register_table("people", people_rel);
    let mut squares_rel = Relation::new(Schema::new(&[
        ("label", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for (label, &it) in squares.labels.iter().zip(&squares.items) {
        squares_rel
            .push(vec![Value::text(label), Value::Item(it)])
            .expect("squares row matches schema");
    }
    catalog.register_table("squares", squares_rel);
    catalog
        .define_tasks(&format!(
            r#"TASK isTall(field) TYPE Filter:
                Prompt: "<img src='%s'> Tall?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
               TASK byArea(field) TYPE Rank:
                OrderDimensionName: "{AREA}"
                Html: "<img src='%s'>", tuple[field]
            "#
        ))
        .expect("served task definitions parse");
    InProc {
        catalog,
        sql: shape.sql(),
        truth,
        crowd: CrowdConfig::default().with_seed(SERVED_SEED),
        expect: Expect::Rows(shape.rows()),
    }
}

/// `qurk-serve`'s default `--seed`.
const SERVED_SEED: u64 = 7;

impl InProc {
    fn session<B: CrowdBackend>(&self, backend: B) -> Session<'_, B> {
        Session::builder()
            .catalog(&self.catalog)
            .backend(backend)
            .build()
    }

    /// Run the workload's query once on a fresh marketplace; `traced`
    /// wraps the marketplace in the timing decorator.
    pub fn run_query(&self, traced: bool) -> QueryRun {
        let start = Instant::now();
        let market = Marketplace::new(&self.crowd, self.truth.clone());
        let (result, wall_s, cache, crowd_busy_s, crowd_calls) = if traced {
            let mut session = self.session(Timed::new(market));
            let t = Instant::now();
            let result = session.query(&self.sql).report();
            let wall = t.elapsed().as_secs_f64();
            let timed = session.backend().inner().inner();
            let (busy, calls) = (timed.busy_secs(), timed.calls());
            (result, wall, session.cache_stats(), busy, calls)
        } else {
            let mut session = self.session(market);
            let t = Instant::now();
            let result = session.query(&self.sql).report();
            let wall = t.elapsed().as_secs_f64();
            (result, wall, session.cache_stats(), 0.0, 0)
        };
        let mut run = QueryRun {
            wall_s,
            batch_s: 0.0,
            hits: 0,
            dollars: 0.0,
            virtual_s: 0.0,
            assignments: 0,
            ok: false,
            quality: String::new(),
            crowd_busy_s,
            crowd_calls,
            cache,
        };
        match result {
            Ok(report) => {
                run.hits = report.hits_posted;
                run.dollars = report.cost_dollars;
                run.virtual_s = report.elapsed_secs;
                run.assignments = report.assignments;
                (run.ok, run.quality) = self.check(&report.relation);
            }
            Err(e) => run.quality = format!("query failed: {e}"),
        }
        run.batch_s = start.elapsed().as_secs_f64();
        run
    }

    /// Does the output clear the workload's quality floor? Also returns
    /// the figures the verdict rests on, for the log.
    fn check(&self, out: &Relation) -> (bool, String) {
        match &self.expect {
            Expect::Join(ds) => {
                let (c, p) = (out.column(0), out.column(1));
                let true_pairs = c
                    .iter()
                    .zip(p)
                    .filter(|(c, p)| match (c.as_int(), p.as_int()) {
                        (Some(c), Some(p)) => is_true_match(ds, c as usize, p as usize),
                        _ => false,
                    })
                    .count() as f64;
                let precision = true_pairs / out.len().max(1) as f64;
                let recall = true_pairs / ds.len() as f64;
                (
                    precision >= PRECISION_FLOOR && recall >= RECALL_FLOOR,
                    format!("precision {precision:.3} recall {recall:.3}"),
                )
            }
            Expect::Sort(area) => {
                let got: Vec<f64> = out
                    .column(0)
                    .iter()
                    .map(|v| v.as_text().and_then(|l| area.get(l)).copied())
                    .collect::<Option<_>>()
                    .unwrap_or_default();
                if got.len() != area.len() {
                    return (false, format!("{} of {} rows", got.len(), area.len()));
                }
                // Largest first: position 0 should hold the largest area.
                let rank: Vec<f64> = (0..got.len()).rev().map(|i| i as f64).collect();
                match qurk_metrics::kendall_tau_b(&got, &rank) {
                    Ok(tau) => (tau >= TAU_FLOOR, format!("tau {tau:.3}")),
                    Err(e) => (false, format!("tau: {e}")),
                }
            }
            Expect::Rows(n) => (out.len() == *n, format!("{} of {n} rows", out.len())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same inputs: a query repeats every deterministic
    /// counter, traced or not, and clears its output floor.
    #[test]
    fn same_seed_queries_repeat_their_counters() {
        for build in [join_crowd as fn(u64) -> InProc, sort_compare] {
            let a = build(5).run_query(false);
            let b = build(5).run_query(true);
            assert!(a.ok && b.ok);
            assert!(a.hits > 0 && a.dollars > 0.0 && a.virtual_s > 0.0);
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn served_replica_answers_every_shape() {
        for shape in Shape::ALL {
            assert!(served(shape).run_query(false).ok, "{shape:?}");
        }
    }
}

//! Optimizer-vs-as-written comparison on the paper's workloads.
//!
//! For each workload (celebrity join §3.3, squares sort §4.2, movie
//! filters §5) the harness:
//!
//! 1. runs the query **as written** on a live simulated crowd — this
//!    is both the baseline and the statistics-learning run;
//! 2. re-runs the same query **cost-based** on a fresh same-seed
//!    crowd, seeded with the learned statistics; its task cache records
//!    the spec→assignment trace (the compile-time estimate is captured
//!    from the same run's `QueryReport`);
//! 3. **replays** the cost-based run from its trace — deterministic
//!    "actuals" the cost model's estimates are validated against.
//!
//! `write_json` emits `BENCH_optimizer.json` with HITs/$/latency per
//! strategy for the CI artifact; the tests pin the acceptance
//! criteria: cost-based never costs more HITs than as-written, is
//! strictly cheaper on most workloads, and estimates land within 25%
//! of replayed actuals.

use qurk::prelude::*;
use qurk::CostEstimate;
use qurk_crowd::truth::PredicateTruth;
use qurk_crowd::Marketplace;
use qurk_data::celebrity::{GENDER_OPTIONS, HAIR_OPTIONS};
use qurk_data::movie::{movie_dataset, MovieConfig};

use crate::report::Table;
use crate::world::{celebrity_world, squares_world, TrialSpec};

/// Measured resource numbers of one executed query (fractional after
/// trial averaging).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunNumbers {
    pub hits: f64,
    pub dollars: f64,
    pub latency_secs: f64,
}

impl From<&QueryReport> for RunNumbers {
    fn from(r: &QueryReport) -> Self {
        RunNumbers {
            hits: r.hits_posted as f64,
            dollars: r.cost_dollars,
            latency_secs: r.elapsed_secs,
        }
    }
}

fn avg_runs(runs: &[RunNumbers]) -> RunNumbers {
    let n = runs.len().max(1) as f64;
    RunNumbers {
        hits: runs.iter().map(|r| r.hits).sum::<f64>() / n,
        dollars: runs.iter().map(|r| r.dollars).sum::<f64>() / n,
        latency_secs: runs.iter().map(|r| r.latency_secs).sum::<f64>() / n,
    }
}

fn avg_estimates(ests: &[CostEstimate]) -> CostEstimate {
    let n = ests.len().max(1) as f64;
    let mut total = CostEstimate::ZERO;
    for e in ests {
        total += *e;
    }
    CostEstimate {
        hits: total.hits / n,
        rounds: total.rounds / n,
        assignments: total.assignments / n,
        dollars: total.dollars / n,
        latency_secs: total.latency_secs / n,
    }
}

/// One workload's optimizer-vs-as-written comparison.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    pub workload: &'static str,
    /// Live as-written run (also the statistics-learning run).
    pub as_written: RunNumbers,
    /// Live cost-based run with the learned statistics.
    pub cost_based: RunNumbers,
    /// The cost model's estimate of the cost-based plan (computed
    /// from the learned statistics *before* execution).
    pub estimate: CostEstimate,
    /// The cost-based plan replayed from its recorded trace.
    pub replay_actual: RunNumbers,
    /// Optimizer decision log of the cost-based run.
    pub decisions: Vec<String>,
}

/// A workload: a catalog + SQL + a way to mint fresh same-seed crowds.
/// Crate-visible so the wall-clock suite can time the same workloads.
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) catalog: Catalog,
    pub(crate) sql: String,
    pub(crate) make_market: Box<dyn Fn() -> Marketplace>,
}

/// Pass 1: run the query as written, returning its numbers and the
/// statistics the session learned.
pub(crate) fn learn(w: &Workload) -> (RunNumbers, StatisticsStore) {
    let mut aw_session = Session::builder()
        .catalog(&w.catalog)
        .backend((w.make_market)())
        .optimize(OptimizeMode::AsWritten)
        .build();
    let aw_report = aw_session.query(&w.sql).report().unwrap();
    let stats = aw_session.statistics().clone();
    ((&aw_report).into(), stats)
}

/// Passes 2–3: cost-based live run with `stats`, then replay it.
fn optimized(w: &Workload, as_written: RunNumbers, stats: &StatisticsStore) -> WorkloadComparison {
    // Pass 2: cost based on a fresh same-seed crowd; its task cache
    // records every spec's answers.
    let mut cb_session = Session::builder()
        .catalog(&w.catalog)
        .backend((w.make_market)())
        .optimize(OptimizeMode::CostBased)
        .statistics(stats.clone())
        .build();
    // (the compile-time estimate below is produced from `stats`,
    // before any of this run's own observations exist)
    let cb_report = cb_session.query(&w.sql).report().unwrap();
    let trace = cb_session.backend().inner().trace().clone();

    // Pass 3: replay the cost-based plan — deterministic actuals.
    let mut replay_session = Session::builder()
        .catalog(&w.catalog)
        .backend(ReplayBackend::from_trace(trace))
        .optimize(OptimizeMode::CostBased)
        .statistics(stats.clone())
        .build();
    let replay_report = replay_session.query(&w.sql).report().unwrap();

    WorkloadComparison {
        workload: w.name,
        as_written,
        cost_based: (&cb_report).into(),
        estimate: cb_report.plan.estimate,
        replay_actual: (&replay_report).into(),
        decisions: cb_report.plan.decisions.clone(),
    }
}

// ------------------------------------------------------------ workloads

/// §3.3's celebrity join with two POSSIBLY feature filters, written
/// with the paper's default NaiveBatch join.
fn celebrity_workload(n: usize, seed: u64) -> Workload {
    let (_, ds) = celebrity_world(n, TrialSpec::morning(seed));
    let mut catalog = Catalog::new();
    let mut celeb = Relation::new(Schema::new(&[
        ("name", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in ds.celeb_items.iter().enumerate() {
        celeb
            .push(vec![
                Value::text(ds.celebrities[i].name.clone()),
                Value::Item(it),
            ])
            .unwrap();
    }
    let mut photos = Relation::new(Schema::new(&[
        ("pid", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in ds.photo_items.iter().enumerate() {
        photos
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .unwrap();
    }
    catalog.register_table("celeb", celeb);
    catalog.register_table("photos", photos);
    let gender_opts = GENDER_OPTIONS
        .iter()
        .map(|o| format!("\"{o}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let hair_opts = HAIR_OPTIONS
        .iter()
        .map(|o| format!("\"{o}\""))
        .collect::<Vec<_>>()
        .join(", ");
    catalog
        .define_tasks(&format!(
            r#"TASK samePerson(f1, f2) TYPE EquiJoin:
                Combiner: QualityAdjust
               TASK gender(field) TYPE Generative:
                Prompt: "<img src='%s'>?", tuple[field]
                Response: Radio("Gender", [{gender_opts}, UNKNOWN])
               TASK hairColor(field) TYPE Generative:
                Prompt: "<img src='%s'>?", tuple[field]
                Response: Radio("Hair", [{hair_opts}, UNKNOWN])
            "#
        ))
        .unwrap();
    Workload {
        name: "celebrity-join",
        catalog,
        sql: "SELECT c.name, p.pid FROM celeb c JOIN photos p \
              ON samePerson(c.img, p.img) \
              AND POSSIBLY gender(c.img) = gender(p.img) \
              AND POSSIBLY hairColor(c.img) = hairColor(p.img)"
            .into(),
        make_market: Box::new(move |/* fresh same-seed crowd */| {
            celebrity_world(n, TrialSpec::morning(seed)).0
        }),
    }
}

/// §4.2's squares sort, written with the default Compare sort.
fn squares_workload(n: usize, seed: u64) -> Workload {
    let (_, ds) = squares_world(n, TrialSpec::morning(seed));
    let mut catalog = Catalog::new();
    let mut squares = Relation::new(Schema::new(&[
        ("label", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in ds.items.iter().enumerate() {
        squares
            .push(vec![Value::text(ds.labels[i].clone()), Value::Item(it)])
            .unwrap();
    }
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
        .unwrap();
    Workload {
        name: "squares-sort",
        catalog,
        sql: "SELECT label FROM squares ORDER BY sortSquares(squares.img) DESC".into(),
        make_market: Box::new(move || squares_world(n, TrialSpec::morning(seed)).0),
    }
}

/// §5's movie query reduced to its filter stage: two crowd filters
/// written unselective-first — the ordering §2.5 admits Qurk gets
/// wrong without selectivity estimation.
fn movie_filters_workload(seed: u64) -> Workload {
    let build = move || {
        let mut truth = qurk_crowd::GroundTruth::new();
        let ds = movie_dataset(&mut truth, &MovieConfig::default());
        for scene in &ds.scenes {
            // Selective: exactly-one-person scenes (~28%).
            truth.set_predicate(
                scene.item,
                "soloScene",
                PredicateTruth {
                    value: scene.num_in_scene == 1,
                    error_rate: 0.03,
                },
            );
            // Unselective: daytime stills (~80% of the film).
            truth.set_predicate(
                scene.item,
                "daylight",
                PredicateTruth {
                    value: scene.second % 5 != 0,
                    error_rate: 0.03,
                },
            );
        }
        (
            Marketplace::new(&TrialSpec::morning(seed).crowd_config(), truth),
            ds,
        )
    };
    let (_, ds) = build();
    let mut catalog = Catalog::new();
    let mut scenes = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, scene) in ds.scenes.iter().enumerate() {
        scenes
            .push(vec![Value::Int(i as i64), Value::Item(scene.item)])
            .unwrap();
    }
    catalog.register_table("scenes", scenes);
    catalog
        .define_tasks(
            r#"TASK soloScene(field) TYPE Filter:
                Prompt: "<img src='%s'> Exactly one person?", tuple[field]
               TASK daylight(field) TYPE Filter:
                Prompt: "<img src='%s'> Daylight?", tuple[field]
            "#,
        )
        .unwrap();
    Workload {
        name: "movie-filters",
        catalog,
        sql: "SELECT s.id FROM scenes s WHERE daylight(s.img) AND soloScene(s.img)".into(),
        make_market: Box::new(move || build().0),
    }
}

/// Trials averaged per workload (the paper itself reports two trials
/// per experiment; the simulator's round latencies vary ±30% between
/// equivalent runs, and averaging is what makes a 25% estimate
/// criterion meaningful).
pub const DEFAULT_TRIALS: u64 = 5;

pub(crate) fn trial_workloads(seed: u64) -> [Workload; 3] {
    [
        celebrity_workload(15, seed),
        squares_workload(24, seed.wrapping_add(0x100)),
        movie_filters_workload(seed.wrapping_add(0x200)),
    ]
}

/// Run all three workloads, averaging [`DEFAULT_TRIALS`] seeded
/// trials per workload.
///
/// Learning happens first, across *all* trials and workloads, into
/// one shared statistics store: operator selectivities key by task
/// name (no cross-talk between workloads), while the latency round
/// observations pool — round overhead α and per-work-unit service β
/// are properties of the *marketplace*, not of any one query, and
/// pooling round sizes across workloads and trials is what makes the
/// α/β regression identifiable and stable. Every cost-based run is
/// then optimized against the same learned store, mirroring a
/// long-lived production session whose statistics accumulated over
/// many queries.
pub fn compare_workloads() -> Vec<WorkloadComparison> {
    let trials: Vec<[Workload; 3]> = (0..DEFAULT_TRIALS)
        .map(|t| trial_workloads(0x0071 + t * 0x1000))
        .collect();

    // Phase 1: as-written learning runs, pooled into one store.
    let mut shared = StatisticsStore::new();
    let mut as_written: Vec<[RunNumbers; 3]> = Vec::new();
    for tw in &trials {
        let mut aw_trial = [RunNumbers::default(); 3];
        for (wi, w) in tw.iter().enumerate() {
            let (aw, learned) = learn(w);
            shared.merge(&learned);
            aw_trial[wi] = aw;
        }
        as_written.push(aw_trial);
    }

    // Phase 2+3: cost-based runs with the pooled statistics, then
    // replay; averaged per workload across trials.
    (0..3)
        .map(|wi| {
            let per: Vec<WorkloadComparison> = trials
                .iter()
                .zip(&as_written)
                .map(|(tw, aw)| optimized(&tw[wi], aw[wi], &shared))
                .collect();
            WorkloadComparison {
                workload: per[0].workload,
                as_written: avg_runs(&per.iter().map(|c| c.as_written).collect::<Vec<_>>()),
                cost_based: avg_runs(&per.iter().map(|c| c.cost_based).collect::<Vec<_>>()),
                estimate: avg_estimates(&per.iter().map(|c| c.estimate).collect::<Vec<_>>()),
                replay_actual: avg_runs(&per.iter().map(|c| c.replay_actual).collect::<Vec<_>>()),
                decisions: per[0].decisions.clone(),
            }
        })
        .collect()
}

/// Render the comparison table.
pub fn comparison_table(results: &[WorkloadComparison]) -> Table {
    let mut t = Table::new(
        "Optimizer vs as-written (HITs / $ / latency; estimate vs replayed actual)",
        &[
            "Workload", "AW HITs", "CB HITs", "Est HITs", "AW $", "CB $", "Est $", "CB secs",
            "Est secs",
        ],
    );
    for r in results {
        t.row(vec![
            r.workload.into(),
            format!("{:.1}", r.as_written.hits),
            format!("{:.1}", r.cost_based.hits),
            format!("{:.1}", r.estimate.hits),
            format!("{:.2}", r.as_written.dollars),
            format!("{:.2}", r.cost_based.dollars),
            format!("{:.2}", r.estimate.dollars),
            format!("{:.0}", r.replay_actual.latency_secs),
            format!("{:.0}", r.estimate.latency_secs),
        ]);
    }
    t
}

/// Serialize the comparison to the `BENCH_optimizer.json` artifact
/// (hand-rolled JSON; the workspace is dependency-free by design).
pub fn to_json(results: &[WorkloadComparison]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn run(n: &RunNumbers) -> String {
        format!(
            "{{\"hits\": {:.1}, \"dollars\": {:.4}, \"latency_secs\": {:.1}}}",
            n.hits, n.dollars, n.latency_secs
        )
    }
    let mut out = String::from("{\n  \"benchmark\": \"optimizer-vs-as-written\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workload\": \"{}\",\n", esc(r.workload)));
        out.push_str(&format!("      \"as_written\": {},\n", run(&r.as_written)));
        out.push_str(&format!("      \"cost_based\": {},\n", run(&r.cost_based)));
        out.push_str(&format!(
            "      \"estimate\": {{\"hits\": {:.1}, \"dollars\": {:.4}, \"latency_secs\": {:.1}}},\n",
            r.estimate.hits, r.estimate.dollars, r.estimate.latency_secs
        ));
        out.push_str(&format!(
            "      \"replay_actual\": {},\n",
            run(&r.replay_actual)
        ));
        out.push_str(&format!(
            "      \"decisions\": [{}]\n",
            r.decisions
                .iter()
                .map(|d| format!("\"{}\"", esc(d)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the JSON artifact to `path`.
pub fn write_json(results: &[WorkloadComparison], path: &str) -> std::io::Result<()> {
    std::fs::write(path, to_json(results))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(est: f64, actual: f64) -> f64 {
        if actual == 0.0 {
            if est == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (est - actual).abs() / actual
        }
    }

    /// The acceptance gate: the cost-based plan never costs more HITs
    /// than the as-written plan, is strictly cheaper on at least two
    /// workloads, and the cost model's estimates land within 25% of
    /// the replayed actuals for HITs, dollars and latency.
    #[test]
    fn cost_based_beats_as_written_and_estimates_track_actuals() {
        let results = compare_workloads();
        assert_eq!(results.len(), 3);
        let mut strictly_cheaper = 0;
        for r in &results {
            assert!(
                r.cost_based.hits <= r.as_written.hits,
                "{}: cost-based {:.1} HITs > as-written {:.1}",
                r.workload,
                r.cost_based.hits,
                r.as_written.hits
            );
            if r.cost_based.hits < r.as_written.hits {
                strictly_cheaper += 1;
                assert!(
                    !r.decisions.is_empty(),
                    "{}: a cheaper plan must come from recorded decisions",
                    r.workload
                );
            }
            let hits_err = rel_err(r.estimate.hits, r.replay_actual.hits);
            assert!(
                hits_err <= 0.25,
                "{}: HIT estimate off by {:.0}% ({:.1} est vs {:.1} actual)",
                r.workload,
                hits_err * 100.0,
                r.estimate.hits,
                r.replay_actual.hits
            );
            let dollar_err = rel_err(r.estimate.dollars, r.replay_actual.dollars);
            assert!(
                dollar_err <= 0.25,
                "{}: $ estimate off by {:.0}% ({:.2} est vs {:.2} actual)",
                r.workload,
                dollar_err * 100.0,
                r.estimate.dollars,
                r.replay_actual.dollars
            );
            let lat_err = rel_err(r.estimate.latency_secs, r.replay_actual.latency_secs);
            assert!(
                lat_err <= 0.25,
                "{}: latency estimate off by {:.0}% ({:.0}s est vs {:.0}s actual)",
                r.workload,
                lat_err * 100.0,
                r.estimate.latency_secs,
                r.replay_actual.latency_secs
            );
        }
        assert!(
            strictly_cheaper >= 2,
            "cost-based must be strictly cheaper on at least two workloads"
        );
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let results = vec![WorkloadComparison {
            workload: "demo",
            as_written: RunNumbers {
                hits: 10.0,
                dollars: 0.75,
                latency_secs: 120.0,
            },
            cost_based: RunNumbers {
                hits: 5.0,
                dollars: 0.375,
                latency_secs: 60.0,
            },
            estimate: CostEstimate {
                hits: 5.0,
                rounds: 1.0,
                assignments: 25.0,
                dollars: 0.375,
                latency_secs: 55.0,
            },
            replay_actual: RunNumbers {
                hits: 5.0,
                dollars: 0.375,
                latency_secs: 61.0,
            },
            decisions: vec!["join strategy: \"upgraded\"".into()],
        }];
        let json = to_json(&results);
        assert!(json.contains("\"workload\": \"demo\""));
        assert!(json.contains("\\\"upgraded\\\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }
}

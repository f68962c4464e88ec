//! Layer probes for traced runs: each times one layer through its
//! public entry points, in isolation, on inputs shaped like the
//! workload the layer's time should move.

use std::hint::black_box;
use std::time::Instant;

use qurk::analyze::analyze_query;
use qurk::lang::parse_query;
use qurk::ops::partition::candidate_pairs;
use qurk::ops::CompareSort;
use qurk::opt::compile;
use qurk::plan::plan_query;
use qurk::{Catalog, ExecConfig, StatisticsStore};
use qurk_bench::wallclock::em_corpus;
use qurk_combine::{QualityAdjust, QualityAdjustConfig};
use qurk_crowd::GroundTruth;
use qurk_data::celebrity::{celebrity_dataset, CelebrityConfig};

use crate::inproc::{JOIN_SIZE, SORT_SIZE};
use crate::util::{median, median_secs, SplitMix};

/// Repetitions per SQL text: up to `FRONTEND_REPS`, stopping once
/// `FRONTEND_BUDGET_S` has passed (a Compare sort's compile plans its
/// comparison groups, which takes far longer than parsing).
const FRONTEND_REPS: usize = 200;
const FRONTEND_BUDGET_S: f64 = 1.0;

/// Median seconds of parse, plan, compile and analyze, averaged over
/// `sqls`, under the default session configuration.
pub fn frontend(catalog: &Catalog, sqls: &[String]) -> [f64; 4] {
    let config = ExecConfig::default();
    let stats = StatisticsStore::new();
    let mut total = [0.0; 4];
    for sql in sqls {
        let mut samples: [Vec<f64>; 4] = Default::default();
        let start = Instant::now();
        for _ in 0..FRONTEND_REPS {
            if samples[0].len() >= 3 && start.elapsed().as_secs_f64() > FRONTEND_BUDGET_S {
                break;
            }
            let t0 = Instant::now();
            let query = parse_query(sql).expect("workload SQL parses");
            let t1 = Instant::now();
            let logical = plan_query(&query, catalog).expect("workload SQL plans");
            let t2 = Instant::now();
            let compiled = compile(&logical, catalog, &config, &stats).expect("plan compiles");
            let t3 = Instant::now();
            let diagnostics =
                analyze_query(sql, &query, catalog, &config, &stats, None).expect("analysis runs");
            let t4 = Instant::now();
            black_box((compiled, diagnostics));
            for (s, (a, b)) in samples
                .iter_mut()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
            {
                s.push((b - a).as_secs_f64());
            }
        }
        for (t, s) in total.iter_mut().zip(&samples) {
            *t += median(s) / sqls.len() as f64;
        }
    }
    total
}

/// `CompareSort::plan_groups` at `sort-compare`'s size and settings.
pub fn plan_groups_secs() -> f64 {
    let d = CompareSort::default();
    median_secs(3, || {
        black_box(CompareSort::plan_groups(SORT_SIZE, d.group_size, d.seed));
    })
}

/// `QualityAdjust::run` on a `join-crowd`-shaped vote corpus: five
/// votes on each of the ~n²/8 candidate pairs that survive the gender
/// (2-way) and hair colour (4-way) partitions.
pub fn em_secs() -> f64 {
    let obs = em_corpus(JOIN_SIZE * JOIN_SIZE / 8, 5, 100);
    let em = QualityAdjust::new(QualityAdjustConfig::paper_join());
    median_secs(10, || {
        black_box(em.run(&obs));
    })
}

/// `candidate_pairs` on `join-crowd`'s feature tables: each celebrity's
/// gender and hair colour, a tenth of them UNKNOWN.
pub fn partition_secs(seed: u64) -> f64 {
    let ds = celebrity_dataset(
        &mut GroundTruth::new(),
        &CelebrityConfig::default()
            .with_celebrities(JOIN_SIZE)
            .with_seed(seed),
    );
    let mut rng = SplitMix::new(seed);
    let mut known = |v: usize| (rng.below(10) != 0).then_some(v);
    let left: Vec<Vec<Option<usize>>> = ds
        .celebrities
        .iter()
        .map(|c| vec![known(c.gender), known(c.hair_profile)])
        .collect();
    let right: Vec<Vec<Option<usize>>> = ds
        .photo_owner
        .iter()
        .map(|&o| {
            let c = &ds.celebrities[o];
            vec![known(c.gender), known(c.hair_award)]
        })
        .collect();
    median_secs(20, || {
        black_box(candidate_pairs(&[0, 1], &left, &right));
    })
}

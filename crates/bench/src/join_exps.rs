//! Join experiments: Table 1, Figure 3, Figure 4, and the §3.3.3
//! worker-volume vs. accuracy regression.
//!
//! Protocol (§3.3.2): each configuration runs twice (Trial #1 before
//! 11 AM, Trial #2 after 7 PM virtual time) with 5 assignments per
//! HIT; votes are pooled to 10 per pair before combining with
//! MajorityVote and QualityAdjust.

use std::collections::HashMap;

use qurk::ops::join::{JoinOp, JoinStrategy};
use qurk::task::CombinerKind;
use qurk_combine::em::{LabelObservation, QualityAdjust, QualityAdjustConfig};
use qurk_combine::majority_vote_bool;
use qurk_crowd::WorkerId;
use qurk_metrics::{linear_regression, percentile};

use crate::report::{f, Table};
use crate::world::{celebrity_world, is_true_match, TrialSpec};

/// One batching scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Simple,
    Naive(usize),
    Smart(usize, usize),
}

impl Scheme {
    pub fn label(&self) -> String {
        match self {
            Scheme::Simple => "Simple".to_owned(),
            Scheme::Naive(b) => format!("Naive {b}"),
            Scheme::Smart(r, c) => format!("Smart {r}x{c}"),
        }
    }

    pub fn strategy(&self) -> JoinStrategy {
        match *self {
            Scheme::Simple => JoinStrategy::Simple,
            Scheme::Naive(b) => JoinStrategy::NaiveBatch(b),
            Scheme::Smart(r, c) => JoinStrategy::SmartBatch { rows: r, cols: c },
        }
    }
}

/// Pooled two-trial vote set for one scheme, plus bookkeeping.
#[derive(Debug)]
pub struct SchemeRun {
    pub scheme: Scheme,
    /// Pooled votes per (celeb_idx, photo_idx); workers from trial 2
    /// are offset to stay distinct.
    pub votes: HashMap<(usize, usize), Vec<(WorkerId, bool)>>,
    /// Per-trial latency samples (seconds from group post to
    /// assignment submit).
    pub latencies: [Vec<f64>; 2],
    pub hits_per_trial: usize,
    pub n: usize,
}

/// Outcome counts under one combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub true_pos: usize,
    pub true_neg: usize,
    pub n: usize,
}

impl Counts {
    pub fn tp_fraction(&self) -> f64 {
        self.true_pos as f64 / self.n as f64
    }

    pub fn tn_fraction(&self) -> f64 {
        self.true_neg as f64 / (self.n * self.n - self.n) as f64
    }
}

/// Run one scheme over the two-trial protocol at table size `n`.
pub fn run_scheme(scheme: Scheme, n: usize, base_seed: u64) -> SchemeRun {
    let mut votes: HashMap<(usize, usize), Vec<(WorkerId, bool)>> = HashMap::new();
    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut hits_per_trial = 0;
    for (t, trial) in [
        TrialSpec::morning(base_seed),
        TrialSpec::evening(base_seed ^ 0xFFFF),
    ]
    .into_iter()
    .enumerate()
    {
        let (mut market, ds) = celebrity_world(n, trial);
        let op = JoinOp {
            strategy: scheme.strategy(),
            combiner: CombinerKind::MajorityVote, // combiner applied later on pooled votes
            ..Default::default()
        };
        let out = op
            .run(&mut market, &ds.celeb_items, &ds.photo_items, None)
            .expect("join should complete");
        hits_per_trial = out.hits_posted;
        for (pair, vs) in out.pair_votes.iter() {
            let entry = votes.entry(pair).or_default();
            for &(w, b) in vs {
                // Offset trial-2 workers so EM sees distinct raters.
                entry.push((WorkerId(w.0 + t * 100_000), b));
            }
        }
        // Latency for the (single) join group of this trial.
        latencies[t] = market.group_latencies(qurk_crowd::HitGroupId(0));
    }
    SchemeRun {
        scheme,
        votes,
        latencies,
        hits_per_trial,
        n,
    }
}

/// Combine pooled votes with MajorityVote and count TP/TN.
pub fn counts_mv(run: &SchemeRun) -> Counts {
    let ds_truth = truth_table(run.n);
    let mut tp = 0;
    let mut tn = 0;
    for (&(i, j), vs) in &run.votes {
        let bools: Vec<bool> = vs.iter().map(|&(_, b)| b).collect();
        let decided = majority_vote_bool(&bools);
        if ds_truth[&(i, j)] {
            tp += usize::from(decided);
        } else {
            tn += usize::from(!decided);
        }
    }
    Counts {
        true_pos: tp,
        true_neg: tn,
        n: run.n,
    }
}

/// Combine pooled votes with QualityAdjust (5 EM iterations, FN cost
/// 2×) and count TP/TN.
pub fn counts_qa(run: &SchemeRun) -> Counts {
    let ds_truth = truth_table(run.n);
    let mut pair_ids: Vec<(usize, usize)> = run.votes.keys().copied().collect();
    pair_ids.sort_unstable();
    let index: HashMap<(usize, usize), usize> =
        pair_ids.iter().enumerate().map(|(k, &p)| (p, k)).collect();
    let mut workers: HashMap<WorkerId, usize> = HashMap::new();
    let mut obs = Vec::new();
    for (&pair, vs) in &run.votes {
        for &(w, b) in vs {
            let next = workers.len();
            let wid = *workers.entry(w).or_insert(next);
            obs.push(LabelObservation {
                worker: wid,
                item: index[&pair],
                label: usize::from(b),
            });
        }
    }
    let qa = QualityAdjust::new(QualityAdjustConfig::paper_join());
    let out = qa.run(&obs);
    let mut tp = 0;
    let mut tn = 0;
    for &pair in &pair_ids {
        let decided = out.decision_bool(index[&pair]);
        if ds_truth[&pair] {
            tp += usize::from(decided);
        } else {
            tn += usize::from(!decided);
        }
    }
    Counts {
        true_pos: tp,
        true_neg: tn,
        n: run.n,
    }
}

fn truth_table(n: usize) -> HashMap<(usize, usize), bool> {
    // The dataset seed is fixed in `celebrity_world`, so the owner
    // permutation is reproducible here.
    let (_, ds) = celebrity_world(n, TrialSpec::morning(0));
    let mut m = HashMap::new();
    for i in 0..n {
        for j in 0..n {
            m.insert((i, j), is_true_match(&ds, i, j));
        }
    }
    m
}

/// Table 1: baseline (unbatched) comparison of the three algorithms at
/// N = 20 with 10 pooled assignments.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: baseline join comparison (20 celebrities, 10 assignments)",
        &["Implementation", "TP (MV)", "TP (QA)", "TN (MV)", "TN (QA)"],
    );
    t.row(vec![
        "IDEAL".into(),
        "20".into(),
        "20".into(),
        "380".into(),
        "380".into(),
    ]);
    for (scheme, seed) in [
        (Scheme::Simple, 101),
        (Scheme::Naive(1), 102),
        (Scheme::Smart(1, 1), 103),
    ] {
        let run = run_scheme(scheme, 20, seed);
        let mv = counts_mv(&run);
        let qa = counts_qa(&run);
        let label = match scheme {
            Scheme::Simple => "Simple",
            Scheme::Naive(_) => "Naive",
            Scheme::Smart(..) => "Smart",
        };
        t.row(vec![
            label.into(),
            mv.true_pos.to_string(),
            qa.true_pos.to_string(),
            mv.true_neg.to_string(),
            qa.true_neg.to_string(),
        ]);
    }
    t
}

/// The Figure 3 scheme list.
pub fn fig3_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Simple,
        Scheme::Naive(3),
        Scheme::Naive(5),
        Scheme::Naive(10),
        Scheme::Smart(2, 2),
        Scheme::Smart(3, 3),
    ]
}

/// Figure 3: fraction of correct answers per batching scheme at
/// N = 30 (30 matches / 870 non-matches), MV vs QA.
pub fn fig3() -> (Table, Vec<(Scheme, Counts, Counts)>) {
    let mut t = Table::new(
        "Figure 3: celebrity join accuracy vs batching (30 celebrities)",
        &[
            "Scheme",
            "TP frac (MV)",
            "TP frac (QA)",
            "TN frac (MV)",
            "TN frac (QA)",
        ],
    );
    let mut results = Vec::new();
    for (k, scheme) in fig3_schemes().into_iter().enumerate() {
        let run = run_scheme(scheme, 30, 200 + k as u64);
        let mv = counts_mv(&run);
        let qa = counts_qa(&run);
        t.row(vec![
            scheme.label(),
            f(mv.tp_fraction(), 2),
            f(qa.tp_fraction(), 2),
            f(mv.tn_fraction(), 2),
            f(qa.tn_fraction(), 2),
        ]);
        results.push((scheme, mv, qa));
    }
    (t, results)
}

/// Figure 4: completion-time percentiles (hours) of the assignments
/// for each scheme, per trial.
pub fn fig4() -> Table {
    let mut t = Table::new(
        "Figure 4: completion time (hours) per join variant (30 celebrities)",
        &["Scheme", "Trial", "50%", "95%", "100%"],
    );
    for (k, scheme) in fig3_schemes().into_iter().enumerate() {
        let run = run_scheme(scheme, 30, 300 + k as u64);
        for (trial, lats) in run.latencies.iter().enumerate() {
            let hours = |p: f64| percentile(lats, p).unwrap_or(0.0) / 3600.0;
            t.row(vec![
                scheme.label(),
                if trial == 0 { "#1 (am)" } else { "#2 (pm)" }.into(),
                f(hours(50.0), 2),
                f(hours(95.0), 2),
                f(hours(100.0), 2),
            ]);
        }
    }
    t
}

/// §3.3.3: regress per-worker accuracy on tasks completed over the two
/// Simple 30×30 trials. The paper reports R² = 0.028, positive slope,
/// p < .05 — i.e. volume explains almost nothing.
pub fn assignments_vs_accuracy() -> (Table, Option<qurk_metrics::Regression>) {
    let run = run_scheme(Scheme::Simple, 30, 400);
    let truth = truth_table(30);
    let mut per_worker: HashMap<WorkerId, (usize, usize)> = HashMap::new(); // (correct, total)
    for (&pair, vs) in &run.votes {
        for &(w, b) in vs {
            let e = per_worker.entry(w).or_default();
            e.1 += 1;
            if b == truth[&pair] {
                e.0 += 1;
            }
        }
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (_, (correct, total)) in per_worker.iter() {
        // Every worker participates, as in the paper's fit; one-task
        // workers carry high variance but belong to the population.
        if *total >= 1 {
            xs.push(*total as f64);
            ys.push(*correct as f64 / *total as f64);
        }
    }
    let reg = linear_regression(&xs, &ys).ok();
    let mut t = Table::new(
        "Sec 3.3.3: worker task volume vs accuracy (Simple 30x30, pooled trials)",
        &["workers", "R^2", "slope", "p-value"],
    );
    match &reg {
        Some(r) => {
            t.row(vec![
                xs.len().to_string(),
                f(r.r_squared, 3),
                format!("{:+.5}", r.slope),
                f(r.p_value, 3),
            ]);
        }
        None => {
            t.row(vec![
                xs.len().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    (t, reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_schemes_are_accurate_at_n10() {
        // Small-n smoke version of Table 1's claim: unbatched schemes
        // all come close to ideal.
        for scheme in [Scheme::Simple, Scheme::Naive(1), Scheme::Smart(1, 1)] {
            let run = run_scheme(scheme, 10, 7);
            let mv = counts_mv(&run);
            assert!(mv.true_pos >= 9, "{scheme:?} tp={}", mv.true_pos);
            assert!(mv.true_neg >= 88, "{scheme:?} tn={}", mv.true_neg);
        }
    }

    #[test]
    fn pooled_votes_have_ten_assignments() {
        let run = run_scheme(Scheme::Simple, 5, 8);
        for vs in run.votes.values() {
            assert_eq!(vs.len(), 10, "expected 2 trials x 5 assignments");
        }
        assert_eq!(run.votes.len(), 25);
    }

    #[test]
    fn qa_not_worse_than_mv_on_batched_scheme() {
        let run = run_scheme(Scheme::Smart(3, 3), 12, 9);
        let mv = counts_mv(&run);
        let qa = counts_qa(&run);
        assert!(
            qa.true_pos >= mv.true_pos,
            "QA {} vs MV {}",
            qa.true_pos,
            mv.true_pos
        );
    }

    #[test]
    fn latencies_captured_for_both_trials() {
        let run = run_scheme(Scheme::Naive(5), 6, 10);
        assert!(!run.latencies[0].is_empty());
        assert!(!run.latencies[1].is_empty());
    }
}

//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! * MajorityVote vs QualityAdjust under a spammer-fraction sweep
//!   (what drives Figure 3's gap);
//! * head-to-head aggregation vs a naive comparator sort under
//!   intransitive votes (§4.1.1's motivation);
//! * the sliding-window divisor effect (Window 5 vs 6, generalized);
//! * adaptive vote collection vs the fixed-5 default (§6);
//! * the task cache's effect on repeated queries.

use qurk::adaptive::AdaptiveVotes;
use qurk::backend::CrowdBackend;
use qurk::ops::join::{JoinOp, JoinStrategy};
use qurk::ops::sort::{CompareSort, HybridSort, HybridStrategy};
use qurk::task::CombinerKind;
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};
use qurk_data::animals::{animals_dataset, SATURN};
use qurk_data::celebrity::{celebrity_dataset, CelebrityConfig};
use qurk_data::squares::AREA;
use qurk_metrics::tau_between_orders;

use crate::report::{f, Table};
use crate::world::{squares_world, TrialSpec};

/// MV vs QA true-positive rate as the spammer fraction rises
/// (Smart 3×3 join, 15 celebrities).
pub fn spam_sweep() -> Table {
    let mut t = Table::new(
        "Ablation: combiner robustness vs spammer fraction (Smart 3x3 join, 15 celebs)",
        &["Spam fraction", "TP (MV)", "TP (QA)", "FP (MV)", "FP (QA)"],
    );
    for (k, spam) in [0.0f64, 0.10, 0.25, 0.40].into_iter().enumerate() {
        let run = |combiner: CombinerKind| {
            let mut gt = GroundTruth::new();
            let ds = celebrity_dataset(&mut gt, &CelebrityConfig::default().with_celebrities(15));
            let mut cfg = CrowdConfig::default().with_seed(801 + k as u64);
            cfg.workers.spammer_fraction = spam;
            let mut market = Marketplace::new(&cfg, gt);
            let out = JoinOp {
                strategy: JoinStrategy::SmartBatch { rows: 3, cols: 3 },
                combiner,
                ..Default::default()
            }
            .run(&mut market, &ds.celeb_items, &ds.photo_items, None)
            .unwrap();
            let tp = out
                .matches
                .iter()
                .filter(|&&(i, j)| ds.photo_owner[j] == i)
                .count();
            let fp = out.matches.len() - tp;
            (tp, fp)
        };
        let (tp_mv, fp_mv) = run(CombinerKind::MajorityVote);
        let (tp_qa, fp_qa) = run(CombinerKind::QualityAdjust);
        t.row(vec![
            format!("{:.0}%", spam * 100.0),
            format!("{tp_mv}/15"),
            format!("{tp_qa}/15"),
            fp_mv.to_string(),
            fp_qa.to_string(),
        ]);
    }
    t
}

/// Head-to-head vs a naive comparator sort (`sort_by` over majority
/// edges) on an ambiguous dimension where majority votes contain
/// cycles. The naive sort's output depends on unexamined pairs; the
/// head-to-head score is total and stable (§4.1.1).
pub fn aggregation_ablation() -> Table {
    let mut t = Table::new(
        "Ablation: head-to-head vs naive comparator sort (animals/Saturn)",
        &["Run", "cycles?", "tau (head-to-head)", "tau (naive sort)"],
    );
    for seed in [811u64, 812, 813] {
        let mut gt = GroundTruth::new();
        let ds = animals_dataset(&mut gt);
        let truth_order = gt.true_order(&ds.items, SATURN);
        let mut market = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);
        let out = CompareSort::default()
            .run(&mut market, &ds.items, SATURN)
            .unwrap();
        let tau_h2h = tau_between_orders(&out.order, &truth_order).unwrap();

        // Naive: comparator sort over majority edges (what a Quicksort
        // implementation would do). With cycles this comparator is not
        // a total order — `slice::sort_by` *panics* on it ("user-provided
        // comparison function does not correctly implement a total
        // order"), which is precisely §4.1.1's warning about O(N log N)
        // sorts on crowd votes. Insertion sort tolerates the
        // inconsistency but produces order-dependent results.
        let mut naive: Vec<usize> = (0..ds.items.len()).collect();
        for i in 1..naive.len() {
            let mut j = i;
            while j > 0 {
                let (wa, wb) = out.tally.votes(naive[j], naive[j - 1]);
                if wa > wb {
                    naive.swap(j, j - 1);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        let naive_items: Vec<_> = naive.iter().map(|&i| ds.items[i]).collect();
        let tau_naive = tau_between_orders(&naive_items, &truth_order).unwrap();

        t.row(vec![
            format!("seed {seed}"),
            if out.tally.has_cycles() { "yes" } else { "no" }.into(),
            f(tau_h2h, 3),
            f(tau_naive, 3),
        ]);
    }
    t
}

/// Sliding-window step sweep: how the divisor relationship between
/// `t` and N drives hybrid convergence (generalizes Window 5 vs 6).
pub fn window_step_sweep() -> Table {
    let mut t = Table::new(
        "Ablation: hybrid sliding-window step t on 40 squares (30 extra HITs)",
        &["t", "divides 40?", "tau@10", "tau@30"],
    );
    for (k, step) in [4usize, 5, 6, 8, 13].into_iter().enumerate() {
        let (mut market, ds) = squares_world(40, TrialSpec::morning(821 + k as u64));
        let truth_order = ds.true_order_desc();
        let out = HybridSort {
            strategy: HybridStrategy::Window { t: step },
            ..Default::default()
        }
        .run(&mut market, &ds.items, AREA, 30)
        .unwrap();
        let tau_at =
            |k: usize| tau_between_orders(&out.trajectory[k - 1], &truth_order).unwrap_or(0.0);
        t.row(vec![
            step.to_string(),
            if 40 % step == 0 { "yes" } else { "no" }.into(),
            f(tau_at(10), 3),
            f(tau_at(30), 3),
        ]);
    }
    t
}

/// Feature auto-selection (§3.2's κ test) vs applying every POSSIBLY
/// filter blindly. With a κ threshold of 0.5 the ambiguous hair filter
/// is dropped — which is exactly what the paper's Table 3/4 analysis
/// recommends ("hair color should potentially be left out") — trading
/// a few saved comparisons for fewer lost matches.
pub fn feature_selection_ablation() -> Table {
    use qurk::ops::join::feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureSpec};
    use qurk_data::celebrity::{GENDER, HAIR, SKIN};

    let mut t = Table::new(
        "Ablation: kappa-based feature selection vs all filters (30 celebs)",
        &["Policy", "Filters used", "Errors", "Saved"],
    );
    let specs = vec![
        FeatureSpec {
            name: GENDER.into(),
            num_options: 2,
        },
        FeatureSpec {
            name: HAIR.into(),
            num_options: 4,
        },
        FeatureSpec {
            name: SKIN.into(),
            num_options: 3,
        },
    ];
    for (label, kappa_threshold) in [("all filters", 0.0), ("kappa >= 0.5", 0.5)] {
        let mut gt = GroundTruth::new();
        let ds = celebrity_dataset(&mut gt, &CelebrityConfig::default().with_celebrities(30));
        let mut market = Marketplace::new(&CrowdConfig::default().with_seed(853), gt);
        // Half the table per side: the paper's 25% sample is 8 items
        // here, too few for a stable kappa estimate near the threshold.
        let ff = FeatureFilter::new(FeatureFilterConfig {
            kappa_threshold,
            sample_fraction: 0.5,
            ..Default::default()
        });
        let out = ff
            .run(&mut market, &specs, &ds.celeb_items, &ds.photo_items)
            .unwrap();
        let mut errors = 0;
        let mut saved = 0;
        for i in 0..30 {
            for j in 0..30 {
                let pass = out.candidates.binary_search(&(i, j)).is_ok();
                if ds.photo_owner[j] == i {
                    errors += usize::from(!pass);
                } else {
                    saved += usize::from(!pass);
                }
            }
        }
        let used: Vec<&str> = out
            .selected
            .iter()
            .map(|&fi| specs[fi].name.as_str())
            .collect();
        t.row(vec![
            label.into(),
            used.join("+"),
            errors.to_string(),
            saved.to_string(),
        ]);
    }
    t
}

/// Adaptive vote collection (§6) vs the fixed-5 default on a filter
/// workload: assignments spent and accuracy.
pub fn adaptive_votes_ablation() -> Table {
    let mut t = Table::new(
        "Ablation: adaptive vote collection vs fixed 5 votes (60-item filter)",
        &["Scheme", "Assignments", "Accuracy"],
    );
    let build = |seed: u64| {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(60);
        for (i, &it) in items.iter().enumerate() {
            gt.set_predicate(
                it,
                "p",
                qurk_crowd::truth::PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: 0.06,
                },
            );
        }
        (
            Marketplace::new(&CrowdConfig::default().with_seed(seed), gt),
            items,
        )
    };

    // Fixed 5 votes.
    {
        let (mut market, items) = build(831);
        let op = qurk::ops::filter::FilterOp {
            batch_size: 1,
            ..Default::default()
        };
        let out = op.run(&mut market, "p", &items).unwrap();
        let acc = out
            .iter()
            .enumerate()
            .filter(|(i, &b)| b == (i % 2 == 0))
            .count() as f64
            / 60.0;
        t.row(vec![
            "fixed 5".into(),
            market.ledger.assignments_paid.to_string(),
            f(acc, 3),
        ]);
    }
    // Adaptive (min 3, margin 2, max 9).
    {
        let (mut market, items) = build(832);
        let out = AdaptiveVotes::default()
            .run_filter(&mut market, "p", &items)
            .unwrap();
        let acc = out
            .decisions
            .iter()
            .enumerate()
            .filter(|(i, &b)| b == (i % 2 == 0))
            .count() as f64
            / 60.0;
        t.row(vec![
            "adaptive 3..9".into(),
            market.ledger.assignments_paid.to_string(),
            f(acc, 3),
        ]);
    }
    t
}

/// Task-cache effect: the same filter query twice.
pub fn cache_ablation() -> Table {
    let mut t = Table::new(
        "Ablation: task cache on repeated work (40-item filter, batch 5)",
        &["Run", "HITs posted", "Cache hits"],
    );
    let mut gt = GroundTruth::new();
    let items = gt.new_items(40);
    for (i, &it) in items.iter().enumerate() {
        gt.set_predicate(
            it,
            "p",
            qurk_crowd::truth::PredicateTruth {
                value: i % 3 == 0,
                error_rate: 0.05,
            },
        );
    }
    let market = Marketplace::new(&CrowdConfig::default().with_seed(841), gt);
    // The task cache now lives at the backend boundary.
    let mut backend = qurk::CachingBackend::new(market);
    let op = qurk::ops::filter::FilterOp::default();
    for run in 1..=2 {
        let before = backend.hits_posted();
        op.run(&mut backend, "p", &items).unwrap();
        let (hits, _) = backend.stats();
        t.row(vec![
            run.to_string(),
            (backend.hits_posted() - before).to_string(),
            hits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spam_sweep_shows_qa_advantage_at_high_spam() {
        let t = spam_sweep();
        // At the 40% row, QA's TP must be >= MV's.
        let last = t.rows.last().unwrap();
        let mv: usize = last[1].split('/').next().unwrap().parse().unwrap();
        let qa: usize = last[2].split('/').next().unwrap().parse().unwrap();
        assert!(qa >= mv, "QA {qa} vs MV {mv} at 40% spam");
    }

    #[test]
    fn head_to_head_never_loses_to_naive() {
        let t = aggregation_ablation();
        for row in &t.rows {
            let h2h: f64 = row[2].parse().unwrap();
            let naive: f64 = row[3].parse().unwrap();
            assert!(h2h >= naive - 0.05, "h2h {h2h} vs naive {naive}");
        }
    }

    #[test]
    fn divisor_steps_underperform() {
        let t = window_step_sweep();
        // Compare tau@30 of a divisor step (5) against a non-divisor (6).
        let tau = |step: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == step)
                .map(|r| r[3].parse().unwrap())
                .unwrap()
        };
        assert!(tau("6") >= tau("5"), "t=6 {} vs t=5 {}", tau("6"), tau("5"));
    }

    #[test]
    fn kappa_selection_drops_hair_and_reduces_errors() {
        let t = feature_selection_ablation();
        let all = &t.rows[0];
        let selected = &t.rows[1];
        // The kappa policy drops at least one filter...
        assert!(selected[1].len() < all[1].len(), "{selected:?}");
        // ...and never loses more matches than applying everything.
        let err_all: usize = all[2].parse().unwrap();
        let err_sel: usize = selected[2].parse().unwrap();
        assert!(err_sel <= err_all, "errors {err_sel} vs {err_all}");
    }

    #[test]
    fn adaptive_votes_spend_fewer_assignments() {
        let t = adaptive_votes_ablation();
        let fixed: u64 = t.rows[0][1].parse().unwrap();
        let adaptive: u64 = t.rows[1][1].parse().unwrap();
        assert!(adaptive < fixed, "adaptive {adaptive} vs fixed {fixed}");
        let acc: f64 = t.rows[1][2].parse().unwrap();
        assert!(acc >= 0.9, "adaptive accuracy {acc}");
    }

    #[test]
    fn cache_zeroes_second_run() {
        let t = cache_ablation();
        assert_ne!(t.rows[0][1], "0");
        assert_eq!(t.rows[1][1], "0");
    }
}

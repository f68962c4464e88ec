//! Feature-filtering experiments: Tables 2, 3 and 4 (§3.3.4).
//!
//! Protocol: 30 celebrities (60 images across the two tables); for
//! each feature two trials with 5 votes per image, run once through
//! the combined all-features interface and once through separate
//! single-feature interfaces. Majority vote combines votes; candidates
//! must agree on every applied feature (UNKNOWN matches anything).
//!
//! Cost model (§3.3.2/§3.3.4): every HIT costs $0.015 per assignment ×
//! 5 assignments; extraction HITs ask one image each (one feature per
//! HIT separate, all three combined), and the join then evaluates the
//! pairs that passed filtering: the paper's "$67.50 without filters"
//! baseline is 900 pairs × 5 × $0.015.

use qurk::ops::join::feature_filter::{
    Extraction, FeatureFilter, FeatureFilterConfig, FeatureSpec,
};
use qurk_crowd::Marketplace;
use qurk_data::celebrity::{CelebrityDataset, GENDER, HAIR, SKIN};
use qurk_metrics::kappa::{counts_from_labels, fleiss_kappa};
use qurk_metrics::{mean, sample_std};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{f, Table};
use crate::world::{celebrity_world, is_true_match, TrialSpec};

pub const N_CELEBS: usize = 30;
const PRICE_PER_HIT: f64 = 5.0 * 0.015; // 5 assignments x $0.015

/// The three paper features.
pub fn feature_specs() -> Vec<FeatureSpec> {
    vec![
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
    ]
}

/// One extraction trial over both tables.
pub struct FeatureTrial {
    pub combined: bool,
    pub trial_no: usize,
    pub left: Extraction,
    pub right: Extraction,
    pub extraction_hits: usize,
    pub ds: CelebrityDataset,
}

/// Run one extraction trial.
pub fn run_trial(trial_no: usize, combined: bool, seed: u64) -> FeatureTrial {
    let spec = if trial_no == 1 {
        TrialSpec::morning(seed)
    } else {
        TrialSpec::evening(seed)
    };
    let (mut market, ds): (Marketplace, CelebrityDataset) = celebrity_world(N_CELEBS, spec);
    let ff = FeatureFilter::new(FeatureFilterConfig {
        batch_size: 1, // one image per HIT, as priced in the paper
        combined_interface: combined,
        ..Default::default()
    });
    let (left, h1) = ff
        .extract(&mut market, &feature_specs(), &ds.celeb_items)
        .unwrap();
    let (right, h2) = ff
        .extract(&mut market, &feature_specs(), &ds.photo_items)
        .unwrap();
    FeatureTrial {
        combined,
        trial_no,
        left,
        right,
        extraction_hits: h1 + h2,
        ds,
    }
}

/// Errors (true matches filtered away) and saved comparisons
/// (non-matching pairs filtered away) under the given feature subset.
pub fn filter_effect(trial: &FeatureTrial, applied: &[usize]) -> (usize, usize) {
    let candidates = FeatureFilter::candidates(applied, &trial.left, &trial.right);
    let n = trial.ds.len();
    let mut errors = 0;
    let mut saved = 0;
    for i in 0..n {
        for j in 0..n {
            let passes = candidates.binary_search(&(i, j)).is_ok();
            if is_true_match(&trial.ds, i, j) {
                errors += usize::from(!passes);
            } else {
                saved += usize::from(!passes);
            }
        }
    }
    (errors, saved)
}

/// Join cost in dollars for the pairs that pass `applied`, including
/// the extraction HITs actually spent in this trial.
pub fn join_cost(trial: &FeatureTrial, applied: &[usize]) -> f64 {
    let (errors, saved) = filter_effect(trial, applied);
    let n = trial.ds.len();
    let passing = n * n - saved - errors;
    passing as f64 * PRICE_PER_HIT + trial.extraction_hits as f64 * PRICE_PER_HIT
}

/// Table 2: all three filters applied, 4 trials (2 × combined Y/N).
pub fn table2() -> (Table, Vec<FeatureTrial>) {
    let mut t = Table::new(
        "Table 2: feature filtering effectiveness (30 celebrities, 870 non-matching pairs)",
        &[
            "Trial",
            "Combined?",
            "Errors",
            "Saved comparisons",
            "Join cost",
        ],
    );
    let mut trials = Vec::new();
    for (trial_no, combined, seed) in [
        (1, true, 501),
        (2, true, 502),
        (1, false, 503),
        (2, false, 504),
    ] {
        let trial = run_trial(trial_no, combined, seed);
        let (errors, saved) = filter_effect(&trial, &[0, 1, 2]);
        let cost = join_cost(&trial, &[0, 1, 2]);
        t.row(vec![
            trial_no.to_string(),
            if combined { "Y" } else { "N" }.into(),
            errors.to_string(),
            saved.to_string(),
            format!("${cost:.2}"),
        ]);
        trials.push(trial);
    }
    (t, trials)
}

/// Table 3: leave-one-out analysis on the first combined trial.
pub fn table3(trial: &FeatureTrial) -> Table {
    let mut t = Table::new(
        "Table 3: leave-one-out analysis (first combined trial)",
        &[
            "Omitted feature",
            "Errors",
            "Saved comparisons",
            "Join cost",
        ],
    );
    let names = ["Gender", "Hair Color", "Skin Color"];
    for (omit, name) in names.iter().enumerate() {
        let applied: Vec<usize> = (0..3).filter(|&x| x != omit).collect();
        let (errors, saved) = filter_effect(trial, &applied);
        let cost = join_cost(trial, &applied);
        t.row(vec![
            (*name).into(),
            errors.to_string(),
            saved.to_string(),
            format!("${cost:.2}"),
        ]);
    }
    t
}

/// κ over a subset of celebrity indices (both photos of each sampled
/// celebrity, pooled across tables). UNKNOWN participates as its own
/// category.
pub fn kappa_on_sample(
    trial: &FeatureTrial,
    feature_idx: usize,
    num_options: usize,
    celeb_subset: &[usize],
) -> f64 {
    let mut labels: Vec<Vec<usize>> = Vec::new();
    for &c in celeb_subset {
        labels.push(trial.left.labels(c, feature_idx).collect());
        // photo_items are shuffled; find the photo of celebrity c.
        let photo_idx = trial.ds.photo_owner.iter().position(|&o| o == c).unwrap();
        labels.push(trial.right.labels(photo_idx, feature_idx).collect());
    }
    let counts = counts_from_labels(&labels, num_options + 1);
    fleiss_kappa(&counts).unwrap_or(0.0)
}

/// Table 4: κ per feature, full data and 50 random 25% samples.
pub fn table4(trials: &[FeatureTrial]) -> Table {
    let mut t = Table::new(
        "Table 4: inter-rater agreement (kappa) for features",
        &[
            "Trial",
            "Sample",
            "Combined?",
            "Gender k (std)",
            "Hair k (std)",
            "Skin k (std)",
        ],
    );
    let specs = feature_specs();
    let all: Vec<usize> = (0..N_CELEBS).collect();
    for trial in trials {
        // Full-data row.
        let full: Vec<f64> = (0..3)
            .map(|fi| kappa_on_sample(trial, fi, specs[fi].num_options, &all))
            .collect();
        t.row(vec![
            trial.trial_no.to_string(),
            "100%".into(),
            if trial.combined { "Y" } else { "N" }.into(),
            f(full[0], 2),
            f(full[1], 2),
            f(full[2], 2),
        ]);
    }
    for trial in trials {
        // 50 random 25% samples.
        let mut rng = StdRng::seed_from_u64(0x5A_0000 + trial.trial_no as u64);
        let k = (N_CELEBS as f64 * 0.25).round() as usize;
        let mut per_feature: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for _ in 0..50 {
            let subset = qurk_crowd::rng::sample_distinct(&mut rng, N_CELEBS, k);
            for fi in 0..3 {
                per_feature[fi].push(kappa_on_sample(trial, fi, specs[fi].num_options, &subset));
            }
        }
        let cell = |fi: usize| {
            format!(
                "{:.2} ({:.2})",
                mean(&per_feature[fi]).unwrap_or(0.0),
                sample_std(&per_feature[fi]).unwrap_or(0.0)
            )
        };
        t.row(vec![
            trial.trial_no.to_string(),
            "25%".into(),
            if trial.combined { "Y" } else { "N" }.into(),
            cell(0),
            cell(1),
            cell(2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trial(combined: bool) -> FeatureTrial {
        // Use the full N_CELEBS world (the dataset seed is shared with
        // the experiment) but this is slow-ish; fine for a unit test.
        run_trial(1, combined, 42)
    }

    #[test]
    fn extraction_covers_all_images() {
        let t = small_trial(true);
        assert_eq!(t.left.values.len(), N_CELEBS);
        assert_eq!(t.right.values.len(), N_CELEBS);
        // Combined interface: one HIT per image.
        assert_eq!(t.extraction_hits, 2 * N_CELEBS);
    }

    #[test]
    fn separate_interface_costs_three_times_the_hits() {
        let t = small_trial(false);
        assert_eq!(t.extraction_hits, 2 * N_CELEBS * 3);
    }

    #[test]
    fn filters_save_many_comparisons_with_few_errors() {
        let t = small_trial(true);
        let (errors, saved) = filter_effect(&t, &[0, 1, 2]);
        assert!(errors <= 8, "errors={errors}");
        assert!(
            (400..=820).contains(&saved),
            "saved={saved} (expect paper-like 550-700)"
        );
    }

    #[test]
    fn gender_is_strongest_filter() {
        let t = small_trial(true);
        let (_, saved_no_gender) = filter_effect(&t, &[1, 2]);
        let (_, saved_no_hair) = filter_effect(&t, &[0, 2]);
        let (_, saved_no_skin) = filter_effect(&t, &[0, 1]);
        // Omitting gender hurts the most (paper Table 3).
        assert!(saved_no_gender < saved_no_hair);
        assert!(saved_no_gender < saved_no_skin);
    }

    #[test]
    fn hair_causes_the_errors() {
        let t = small_trial(true);
        let (errors_all, _) = filter_effect(&t, &[0, 1, 2]);
        let (errors_no_hair, _) = filter_effect(&t, &[0, 2]);
        assert!(errors_no_hair <= errors_all);
    }

    #[test]
    fn kappa_ordering_matches_paper() {
        let t = small_trial(true);
        let all: Vec<usize> = (0..N_CELEBS).collect();
        let g = kappa_on_sample(&t, 0, 2, &all);
        let h = kappa_on_sample(&t, 1, 4, &all);
        assert!(g > 0.7, "gender kappa={g}");
        assert!(h < g, "hair {h} should be below gender {g}");
    }
}

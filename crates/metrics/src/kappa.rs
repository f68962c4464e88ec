//! Fleiss' κ inter-rater reliability, plus the paper's modified variant.
//!
//! §3.2 uses standard Fleiss' κ \[Fleiss 1971\] to decide whether a join
//! feature filter (gender / hair color / skin color) is too ambiguous to
//! trust: κ below a small positive threshold drops the filter. Table 4
//! reports κ per feature and shows 25% samples estimate the full-data κ
//! well.
//!
//! §4.2.3 (footnote 4) applies κ to sort *comparison* votes, but finds
//! the per-category prior compensation misbehaves because comparator
//! outcomes are correlated; the paper removes the compensating factor
//! (the denominator), i.e. reports `P̄ − P̄ₑ` instead of
//! `(P̄ − P̄ₑ)/(1 − P̄ₑ)`. That is [`modified_fleiss_kappa`].

// lint:hot-path

/// Errors produced by κ computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KappaError {
    /// No subjects (rows) were supplied.
    NoSubjects,
    /// A subject has fewer than two ratings; pairwise agreement is
    /// undefined for it.
    TooFewRatings { subject: usize, ratings: usize },
    /// Rows must all have the same number of categories.
    RaggedCategories { subject: usize },
    /// Expected agreement is 1 (all raters always chose one category);
    /// the standard κ denominator is zero.
    Degenerate,
}

impl std::fmt::Display for KappaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KappaError::NoSubjects => write!(f, "no subjects supplied"),
            KappaError::TooFewRatings { subject, ratings } => {
                write!(f, "subject {subject} has {ratings} ratings; need >= 2")
            }
            KappaError::RaggedCategories { subject } => {
                write!(f, "subject {subject} has a different category count")
            }
            KappaError::Degenerate => {
                write!(f, "all ratings in a single category; kappa undefined")
            }
        }
    }
}

impl std::error::Error for KappaError {}

/// Count matrix accessor: `counts[subject][category]` = number of raters
/// assigning `category` to `subject`.
///
/// Unlike the textbook presentation, the number of raters may vary per
/// subject (crowd workers rate overlapping but not identical record
/// sets); the generalized formula weights each subject's agreement by its
/// own rater count, following Fleiss' treatment for unequal `n_i`.
fn validate(counts: &[Vec<u32>]) -> Result<usize, KappaError> {
    if counts.is_empty() {
        return Err(KappaError::NoSubjects);
    }
    let k = counts[0].len();
    for (i, row) in counts.iter().enumerate() {
        if row.len() != k {
            return Err(KappaError::RaggedCategories { subject: i });
        }
        let n: u32 = row.iter().sum();
        if n < 2 {
            return Err(KappaError::TooFewRatings {
                subject: i,
                ratings: n as usize,
            });
        }
    }
    Ok(k)
}

/// Mean observed pairwise agreement `P̄` and chance agreement `P̄ₑ`
/// over an iterator of per-subject count rows (shared by the nested
/// and the flat [`CountMatrix`] entry points — same arithmetic, same
/// order).
fn agreement_components_rows<'a>(
    rows: impl Iterator<Item = &'a [u32]>,
    k: usize,
    num_subjects: usize,
) -> (f64, f64) {
    let mut p_bar = 0.0f64;
    let mut category_totals = vec![0.0f64; k];
    let mut grand_total = 0.0f64;

    for row in rows {
        let n: u32 = row.iter().sum();
        let n = n as f64;
        // P_i = (sum n_ij^2 - n) / (n (n - 1))
        let sum_sq: f64 = row.iter().map(|&c| (c as f64) * (c as f64)).sum();
        p_bar += (sum_sq - n) / (n * (n - 1.0));
        for (j, &c) in row.iter().enumerate() {
            category_totals[j] += c as f64;
        }
        grand_total += n;
    }
    p_bar /= num_subjects as f64;

    let p_e: f64 = category_totals
        .iter()
        .map(|t| {
            let p = t / grand_total;
            p * p
        })
        .sum();
    (p_bar, p_e)
}

fn agreement_components(counts: &[Vec<u32>]) -> Result<(f64, f64), KappaError> {
    let k = validate(counts)?;
    Ok(agreement_components_rows(
        counts.iter().map(Vec::as_slice),
        k,
        counts.len(),
    ))
}

/// Standard Fleiss' κ over a subjects × categories count matrix.
///
/// `counts[i][j]` is the number of raters who assigned category `j` to
/// subject `i`. Values near 1 indicate strong agreement, near 0 chance
/// level, negative values systematic disagreement.
///
/// # Errors
/// See [`KappaError`]; in particular a matrix where every rating falls in
/// one category yields [`KappaError::Degenerate`] (the chance agreement is
/// already 1 and the statistic is undefined).
pub fn fleiss_kappa(counts: &[Vec<u32>]) -> Result<f64, KappaError> {
    let (p_bar, p_e) = agreement_components(counts)?;
    let denom = 1.0 - p_e;
    if denom.abs() < 1e-12 {
        return Err(KappaError::Degenerate);
    }
    Ok((p_bar - p_e) / denom)
}

/// The paper's modified κ for sort-comparison data: `P̄ − P̄ₑ`.
///
/// Footnote 4 of the paper: traditional Fleiss' κ "calculates priors for
/// each label to compensate for bias in the dataset … this doesn't work
/// well for sort-based comparator data due to correlation between
/// comparator values, and so we removed the compensating factor (the
/// denominator in Fleiss' κ)."
///
/// For purely random votes this is ≈ 0; for perfect agreement it is
/// `1 − P̄ₑ` (bounded above by 1 but usually ≤ 0.5 for balanced binary
/// comparisons). Only the *relative* ordering across queries matters for
/// the paper's Figure 6 signal.
pub fn modified_fleiss_kappa(counts: &[Vec<u32>]) -> Result<f64, KappaError> {
    let (p_bar, p_e) = agreement_components(counts)?;
    Ok(p_bar - p_e)
}

/// Build a κ count matrix from per-subject label assignments.
///
/// `labels[i]` holds every rater's categorical answer for subject `i`,
/// where answers are small category indices in `0..num_categories`.
/// Subjects with fewer than two answers are dropped (a lone vote carries
/// no agreement information), mirroring how Qurk assembles κ input from
/// incomplete assignment sets.
/// Flat subjects × categories count matrix.
///
/// The cache-friendly κ input: one contiguous `Vec<u32>` instead of a
/// heap row per subject, and [`Self::fill_from_labels`] reuses the
/// buffer across calls — callers that recompute κ every HIT round
/// (feature filters, sort ambiguity) keep one matrix alive and refill
/// it with zero steady-state allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CountMatrix {
    num_categories: usize,
    data: Vec<u32>,
}

impl CountMatrix {
    pub fn new(num_categories: usize) -> CountMatrix {
        CountMatrix {
            num_categories,
            data: Vec::new(),
        }
    }

    /// Rebuild from per-subject label assignments, reusing the
    /// existing buffer. Same semantics as [`counts_from_labels`]:
    /// subjects with fewer than two answers are dropped.
    pub fn fill_from_labels(&mut self, labels: &[Vec<usize>], num_categories: usize) {
        self.num_categories = num_categories;
        self.data.clear();
        for row in labels.iter().filter(|row| row.len() >= 2) {
            let start = self.data.len();
            self.data.resize(start + num_categories, 0);
            for &l in row {
                assert!(
                    l < num_categories,
                    "label {l} out of range {num_categories}"
                );
                self.data[start + l] += 1;
            }
        }
    }

    pub fn num_subjects(&self) -> usize {
        self.data
            .len()
            .checked_div(self.num_categories)
            .unwrap_or(0)
    }

    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Count rows, one `&[u32]` per subject (zero-copy).
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks(self.num_categories.max(1))
    }

    fn components(&self) -> Result<(f64, f64), KappaError> {
        if self.is_empty() {
            return Err(KappaError::NoSubjects);
        }
        for (i, row) in self.rows().enumerate() {
            let n: u32 = row.iter().sum();
            if n < 2 {
                return Err(KappaError::TooFewRatings {
                    subject: i,
                    ratings: n as usize,
                });
            }
        }
        Ok(agreement_components_rows(
            self.rows(),
            self.num_categories,
            self.num_subjects(),
        ))
    }
}

/// [`fleiss_kappa`] over a flat [`CountMatrix`] — identical arithmetic
/// in identical order, without the per-subject heap rows.
pub fn fleiss_kappa_flat(counts: &CountMatrix) -> Result<f64, KappaError> {
    let (p_bar, p_e) = counts.components()?;
    let denom = 1.0 - p_e;
    if denom.abs() < 1e-12 {
        return Err(KappaError::Degenerate);
    }
    Ok((p_bar - p_e) / denom)
}

/// [`modified_fleiss_kappa`] over a flat [`CountMatrix`].
pub fn modified_fleiss_kappa_flat(counts: &CountMatrix) -> Result<f64, KappaError> {
    let (p_bar, p_e) = counts.components()?;
    Ok(p_bar - p_e)
}

pub fn counts_from_labels<R: AsRef<[usize]>>(labels: &[R], num_categories: usize) -> Vec<Vec<u32>> {
    labels
        .iter()
        .map(AsRef::as_ref)
        .filter(|row| row.len() >= 2)
        .map(|row| {
            let mut c = vec![0u32; num_categories];
            for &l in row {
                assert!(
                    l < num_categories,
                    "label {l} out of range {num_categories}"
                );
                c[l] += 1;
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Fleiss (1971): 10 subjects, 5 categories,
    /// 14 raters each; κ ≈ 0.2099.
    #[test]
    fn fleiss_1971_worked_example() {
        let counts = vec![
            vec![0, 0, 0, 0, 14],
            vec![0, 2, 6, 4, 2],
            vec![0, 0, 3, 5, 6],
            vec![0, 3, 9, 2, 0],
            vec![2, 2, 8, 1, 1],
            vec![7, 7, 0, 0, 0],
            vec![3, 2, 6, 3, 0],
            vec![2, 5, 3, 2, 2],
            vec![6, 5, 2, 1, 0],
            vec![0, 2, 2, 3, 7],
        ];
        let k = fleiss_kappa(&counts).unwrap();
        assert!((k - 0.20993).abs() < 1e-4, "kappa={k}");
    }

    #[test]
    fn perfect_agreement_across_categories_is_one() {
        // Two categories used overall, each subject unanimous.
        let counts = vec![vec![5, 0], vec![0, 5], vec![5, 0], vec![0, 5]];
        let k = fleiss_kappa(&counts).unwrap();
        assert!((k - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_category_everywhere_is_degenerate() {
        let counts = vec![vec![5, 0], vec![5, 0]];
        assert_eq!(fleiss_kappa(&counts), Err(KappaError::Degenerate));
    }

    #[test]
    fn even_split_is_negative() {
        // Every subject maximally disagreed: observed agreement below chance.
        let counts = vec![vec![3, 3], vec![3, 3], vec![3, 3]];
        let k = fleiss_kappa(&counts).unwrap();
        assert!(k < 0.0, "kappa={k}");
    }

    #[test]
    fn modified_kappa_zero_for_chance() {
        // Large balanced random-ish matrix: P_bar ~ P_e.
        let counts = vec![vec![3, 3]; 50];
        let m = modified_fleiss_kappa(&counts).unwrap();
        // P_bar for an even 3/3 split: (9+9-6)/(6*5)=0.4; P_e=0.5 => -0.1
        assert!((m + 0.1).abs() < 1e-12, "modified={m}");
    }

    #[test]
    fn modified_kappa_upper_bound_for_binary_perfect_agreement() {
        let counts = vec![vec![5, 0], vec![0, 5]];
        let m = modified_fleiss_kappa(&counts).unwrap();
        // P_bar = 1, P_e = 0.5 (balanced categories) -> 0.5
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unequal_rater_counts_supported() {
        let counts = vec![vec![4, 0], vec![0, 2], vec![3, 1]];
        let k = fleiss_kappa(&counts).unwrap();
        assert!(k > 0.0 && k < 1.0, "kappa={k}");
    }

    #[test]
    fn ragged_rows_rejected() {
        let counts = vec![vec![4, 0], vec![0, 2, 0]];
        assert_eq!(
            fleiss_kappa(&counts),
            Err(KappaError::RaggedCategories { subject: 1 })
        );
    }

    #[test]
    fn lone_vote_rejected() {
        let counts = vec![vec![1, 0]];
        assert_eq!(
            fleiss_kappa(&counts),
            Err(KappaError::TooFewRatings {
                subject: 0,
                ratings: 1
            })
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(fleiss_kappa(&[]), Err(KappaError::NoSubjects));
    }

    #[test]
    fn counts_from_labels_builds_and_filters() {
        let labels = vec![vec![0, 0, 1], vec![1], vec![1, 1]];
        let counts = counts_from_labels(&labels, 2);
        assert_eq!(counts, vec![vec![2, 1], vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn counts_from_labels_panics_on_bad_label() {
        counts_from_labels(&[vec![0, 5]], 2);
    }

    fn matrix_from_nested(counts: &[Vec<u32>]) -> CountMatrix {
        let k = counts.first().map(Vec::len).unwrap_or(0);
        CountMatrix {
            num_categories: k,
            data: counts.iter().flatten().copied().collect(),
        }
    }

    #[test]
    fn flat_kappa_matches_nested_exactly() {
        let counts = vec![
            vec![0, 0, 0, 0, 14],
            vec![0, 2, 6, 4, 2],
            vec![0, 0, 3, 5, 6],
            vec![2, 2, 8, 1, 1],
        ];
        let m = matrix_from_nested(&counts);
        assert_eq!(m.num_subjects(), 4);
        assert_eq!(m.num_categories(), 5);
        // Bit-identical, not just approximately equal: same arithmetic
        // in the same order.
        assert_eq!(
            fleiss_kappa(&counts).unwrap(),
            fleiss_kappa_flat(&m).unwrap()
        );
        assert_eq!(
            modified_fleiss_kappa(&counts).unwrap(),
            modified_fleiss_kappa_flat(&m).unwrap()
        );
    }

    #[test]
    fn flat_kappa_error_paths() {
        assert_eq!(
            fleiss_kappa_flat(&CountMatrix::new(2)),
            Err(KappaError::NoSubjects)
        );
        let lone = matrix_from_nested(&[vec![1, 0]]);
        assert_eq!(
            fleiss_kappa_flat(&lone),
            Err(KappaError::TooFewRatings {
                subject: 0,
                ratings: 1
            })
        );
        let degenerate = matrix_from_nested(&[vec![5, 0], vec![5, 0]]);
        assert_eq!(fleiss_kappa_flat(&degenerate), Err(KappaError::Degenerate));
    }

    #[test]
    fn fill_from_labels_reuses_buffer_and_matches() {
        let labels = vec![vec![0, 0, 1], vec![1], vec![1, 1]];
        let mut m = CountMatrix::new(2);
        m.fill_from_labels(&labels, 2);
        let nested = counts_from_labels(&labels, 2);
        assert_eq!(m, matrix_from_nested(&nested));
        // Refill with different data: old contents fully replaced.
        m.fill_from_labels(&[vec![0, 1, 1, 1]], 2);
        assert_eq!(m.num_subjects(), 1);
        assert_eq!(m.rows().next().unwrap(), &[1, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn count_matrix() -> impl Strategy<Value = Vec<Vec<u32>>> {
        (2usize..5).prop_flat_map(|k| {
            prop::collection::vec(
                prop::collection::vec(0u32..6, k..=k)
                    .prop_filter("need >=2 ratings", |row| row.iter().sum::<u32>() >= 2),
                1..30,
            )
        })
    }

    proptest! {
        /// Standard κ never exceeds 1 and the modified variant is bounded
        /// by the standard one's numerator geometry.
        #[test]
        fn kappa_bounds(counts in count_matrix()) {
            if let Ok(k) = fleiss_kappa(&counts) {
                prop_assert!(k <= 1.0 + 1e-9, "kappa={k}");
            }
            if let Ok(m) = modified_fleiss_kappa(&counts) {
                prop_assert!((-1.0..=1.0).contains(&m), "modified={m}");
            }
        }

        /// Duplicating every subject leaves both statistics unchanged.
        #[test]
        fn kappa_invariant_under_subject_duplication(counts in count_matrix()) {
            let mut doubled = counts.clone();
            doubled.extend(counts.iter().cloned());
            match (fleiss_kappa(&counts), fleiss_kappa(&doubled)) {
                (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "inconsistent: {a:?} vs {b:?}"),
            }
        }

        /// The flat CountMatrix path is bit-identical to the nested
        /// path on every input (same arithmetic, different layout).
        #[test]
        fn flat_matches_nested(counts in count_matrix()) {
            let k = counts[0].len();
            let mut m = CountMatrix::new(k);
            m.num_categories = k;
            m.data = counts.iter().flatten().copied().collect();
            prop_assert_eq!(fleiss_kappa(&counts), fleiss_kappa_flat(&m));
            prop_assert_eq!(
                modified_fleiss_kappa(&counts),
                modified_fleiss_kappa_flat(&m)
            );
        }

        /// Permuting category columns (consistently across subjects)
        /// leaves κ unchanged.
        #[test]
        fn kappa_invariant_under_category_relabel(counts in count_matrix()) {
            let k = counts[0].len();
            let perm: Vec<usize> = (0..k).rev().collect();
            let relabeled: Vec<Vec<u32>> = counts
                .iter()
                .map(|row| perm.iter().map(|&j| row[j]).collect())
                .collect();
            match (fleiss_kappa(&counts), fleiss_kappa(&relabeled)) {
                (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "inconsistent: {a:?} vs {b:?}"),
            }
        }
    }
}

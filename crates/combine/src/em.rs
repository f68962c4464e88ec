//! `QualityAdjust`: the Dawid–Skene / Ipeirotis EM combiner.
//!
//! The paper (§2.1) implements "the method described by Ipeirotis et
//! al. \[6\]", which "identifies spammers and worker bias, and
//! iteratively adjusts answer confidence accordingly in an
//! ExpectationMaximization-like fashion". Concretely (Ipeirotis, Provost
//! & Wang, *Quality management on Amazon Mechanical Turk*, HCOMP 2010,
//! building on Dawid & Skene 1979):
//!
//! 1. **E-step** — given per-worker confusion matrices `π_w[k][l]`
//!    (probability worker `w` answers `l` when the true label is `k`)
//!    and class priors `p[k]`, compute each item's label posterior.
//! 2. **M-step** — re-estimate `π_w` and `p` from the posteriors.
//! 3. **Spam scoring** — each worker's answers are converted to *soft
//!    labels*; the expected misclassification cost of those soft labels,
//!    normalized by the cost of a prior-emitting spammer, yields a score
//!    in which ≈0 is a perfect worker and ≥1 indistinguishable from
//!    spam. Bias (e.g. a worker who systematically inverts answers) is
//!    *corrected* rather than punished: an inverted confusion matrix
//!    still produces informative posteriors.
//!
//! The paper runs **5 iterations** on join data and penalizes false
//! negatives twice as heavily as false positives; see
//! [`QualityAdjustConfig::iterations`] and
//! [`QualityAdjustConfig::cost`].
//!
//! ## Layout
//!
//! EM is the machine-side hot loop (it runs once per HIT round), so
//! everything is flat, input and output alike. The input is the votes
//! grouped by item, CSR-style: an `offsets` array and one flat
//! `(worker, label)` buffer ([`QualityAdjust::run_grouped`]). A caller
//! that gathers its votes per item (the join, the filter and the
//! generative operator do) hands them over as they are;
//! [`QualityAdjust::run`] is a thin adapter that groups a
//! [`LabelObservation`] list first. Inside, posteriors are one
//! `num_items × k` buffer, confusion matrices one `num_workers × k × k`
//! buffer, and each vote is encoded once as the `u32` index of its
//! confusion cell: a run allocates the same handful of buffers however
//! many items it has. The output keeps those buffers ([`FlatRows`]),
//! read through per-item and per-worker accessors.
//!
//! Each iteration is one pass over the votes: the E-step adds every
//! posterior it computes into the next M-step's sums right away. The
//! kernel is generic over its label count, compiled once at the
//! constant 2 (the join's yes/no, where every per-label loop unrolls)
//! and once at a runtime `k`. The arithmetic is performed in exactly
//! the same order as the reference nested-`Vec` formulation (kept as
//! `qurk-bench`'s baseline), so results are bit-identical; only the
//! memory layout and the number of passes changed.
// lint:hot-path

/// One worker response: `worker` assigned `label` to `item`.
///
/// Identifiers are dense indices assigned by the caller (Qurk's executor
/// interns Turker IDs and tuple pair keys before invoking the combiner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelObservation {
    pub worker: usize,
    pub item: usize,
    pub label: usize,
}

/// Misclassification cost matrix: `cost[true_label][decided_label]`.
///
/// The diagonal must be zero. For the paper's join setting with labels
/// `{0 = no-match, 1 = match}` and false negatives twice as costly:
/// `cost[1][0] = 2.0`, `cost[0][1] = 1.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix(Vec<Vec<f64>>);

impl CostMatrix {
    /// Uniform 0/1 loss over `k` labels.
    pub fn zero_one(k: usize) -> Self {
        let mut m = vec![vec![1.0; k]; k];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        CostMatrix(m)
    }

    /// Binary matrix with asymmetric penalties. `false_negative` is the
    /// cost of deciding 0 when truth is 1; `false_positive` the reverse.
    pub fn binary(false_positive: f64, false_negative: f64) -> Self {
        CostMatrix(vec![vec![0.0, false_positive], vec![false_negative, 0.0]])
    }

    /// The paper's join configuration: FN cost 2, FP cost 1.
    pub fn paper_join() -> Self {
        Self::binary(1.0, 2.0)
    }

    /// Cost of deciding `decided` when the truth is `truth`.
    #[inline]
    pub fn get(&self, truth: usize, decided: usize) -> f64 {
        self.0[truth][decided]
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.0.len()
    }
}

/// Configuration for [`QualityAdjust`].
#[derive(Debug, Clone)]
pub struct QualityAdjustConfig {
    /// Number of labels (categories).
    pub num_labels: usize,
    /// EM iterations; the paper uses 5.
    pub iterations: usize,
    /// Laplace smoothing added to confusion-matrix counts so unseen
    /// (worker, label) cells keep nonzero probability.
    pub smoothing: f64,
    /// Decision-time misclassification costs.
    pub cost: CostMatrix,
}

impl QualityAdjustConfig {
    /// Binary labels, 5 iterations, paper's asymmetric join costs.
    pub fn paper_join() -> Self {
        QualityAdjustConfig {
            num_labels: 2,
            iterations: 5,
            smoothing: 0.01,
            cost: CostMatrix::paper_join(),
        }
    }

    /// `k` labels, 5 iterations, 0/1 loss.
    pub fn categorical(k: usize) -> Self {
        QualityAdjustConfig {
            num_labels: k,
            iterations: 5,
            smoothing: 0.01,
            cost: CostMatrix::zero_one(k),
        }
    }
}

/// Rows of `width` probabilities in one flat row-major buffer (EM's
/// posteriors, a row per item). [`Self::row`] and iteration yield
/// `&[f64]` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRows {
    width: usize,
    data: Vec<f64>,
}

impl FlatRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn iter(&self) -> std::slice::Chunks<'_, f64> {
        self.data.chunks(self.width)
    }

    /// The whole buffer, row after row.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl<'a> IntoIterator for &'a FlatRows {
    type Item = &'a [f64];
    type IntoIter = std::slice::Chunks<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Result of running the EM combiner.
#[derive(Debug, Clone)]
pub struct QualityAdjustOutput {
    /// Row `item` (`posteriors.row(item)`) holds P(true label of
    /// `item` is `t`) for each `t`.
    pub posteriors: FlatRows,
    /// Cost-minimizing decision per item.
    pub decisions: Vec<usize>,
    /// Worker `w`'s `k × k` confusion matrix at `w * k * k`; read it
    /// through [`Self::confusion`].
    confusion: Vec<f64>,
    /// Estimated class priors.
    pub priors: Vec<f64>,
    /// Per-worker spam score: ≈0 perfect, ≥1 spam-equivalent.
    pub spammer_score: Vec<f64>,
    /// Number of observations consumed per worker.
    pub worker_answer_counts: Vec<usize>,
}

impl QualityAdjustOutput {
    /// Worker `worker`'s confusion matrix, row-major `k × k`: entry
    /// `t * k + l` is P(worker answers `l` | truth `t`).
    pub fn confusion(&self, worker: usize) -> &[f64] {
        let kk = self.priors.len() * self.priors.len();
        &self.confusion[worker * kk..(worker + 1) * kk]
    }

    /// Number of EM workers (one past the largest worker id voted).
    pub fn num_workers(&self) -> usize {
        self.spammer_score.len()
    }

    /// Convenience: decision for `item` as a bool (label 1 = true).
    pub fn decision_bool(&self, item: usize) -> bool {
        self.decisions[item] == 1
    }

    /// Workers whose spam score exceeds `threshold` (Ipeirotis suggests
    /// values near 1 indicate spam; Qurk's §6 discussion bans such
    /// workers in non-experimental deployments).
    pub fn spammers(&self, threshold: f64) -> Vec<usize> {
        self.spammer_score
            .iter()
            .enumerate()
            .filter(|(w, &s)| s >= threshold && self.worker_answer_counts[*w] > 0)
            .map(|(w, _)| w)
            .collect()
    }
}

/// The `QualityAdjust` combiner.
#[derive(Debug, Clone)]
pub struct QualityAdjust {
    config: QualityAdjustConfig,
}

impl QualityAdjust {
    pub fn new(config: QualityAdjustConfig) -> Self {
        assert!(config.num_labels >= 2, "need at least two labels");
        assert_eq!(
            config.cost.num_labels(),
            config.num_labels,
            "cost matrix size must match num_labels"
        );
        QualityAdjust { config }
    }

    /// Run EM over the observations: groups them by item (in input
    /// order) and calls [`Self::run_grouped`].
    ///
    /// Item/worker indices may be sparse; missing items get the
    /// prior-based decision. Panics if any label is out of range.
    pub fn run(&self, observations: &[LabelObservation]) -> QualityAdjustOutput {
        let num_items = observations.iter().map(|o| o.item + 1).max().unwrap_or(0);
        let mut offsets = vec![0usize; num_items + 1];
        for o in observations {
            offsets[o.item + 1] += 1;
        }
        for i in 0..num_items {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..num_items].to_vec();
        let mut votes = vec![(0usize, 0usize); observations.len()];
        for o in observations {
            votes[cursor[o.item]] = (o.worker, o.label);
            cursor[o.item] += 1;
        }
        self.run_grouped(&offsets, &votes)
    }

    /// Run EM over votes grouped by item, CSR-style: item `i`'s
    /// `(worker, label)` votes are `votes[offsets[i]..offsets[i + 1]]`,
    /// so there are `offsets.len() - 1` items (an item whose range is
    /// empty gets the prior-based decision). Workers are dense indices;
    /// EM has one past the largest of them.
    ///
    /// Panics if `offsets` does not describe `votes` (it must start at
    /// 0, never decrease and end at `votes.len()`), if any label is
    /// out of range, or if a worker id is so large that its confusion
    /// cells overflow a `u32` index.
    pub fn run_grouped(&self, offsets: &[usize], votes: &[(usize, usize)]) -> QualityAdjustOutput {
        match self.config.num_labels {
            2 => self.run_width(Fixed::<2>, offsets, votes),
            k => self.run_width(Dyn(k), offsets, votes),
        }
    }

    /// [`Self::run_grouped`] at label count `width`: one kernel,
    /// compiled once per [`Width`].
    fn run_width<W: Width>(
        &self,
        width: W,
        offsets: &[usize],
        votes: &[(usize, usize)],
    ) -> QualityAdjustOutput {
        let k = width.k();
        let kk = k * k;
        let num_items = offsets.len().saturating_sub(1);
        assert!(
            offsets.first().is_none_or(|&o| o == 0)
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && offsets.last().copied().unwrap_or(0) == votes.len(),
            "offsets must group all {} votes by item",
            votes.len()
        );
        // Each vote as its confusion cell: `cells[v] + t * k` indexes
        // π_w[t][l] in the flat `confusion[(w*k + t)*k + l]`.
        let mut num_workers = 0;
        let mut cells = Vec::with_capacity(votes.len());
        for &(w, l) in votes {
            assert!(l < k, "label {l} out of range {k}");
            num_workers = num_workers.max(w + 1);
            cells.push(u32::try_from(w * kk + l).expect("confusion cells fit in u32"));
        }

        let mut worker_answer_counts = vec![0usize; num_workers];
        for &(w, _) in votes {
            worker_answer_counts[w] += 1;
        }

        let iterations = self.config.iterations;
        let s = self.config.smoothing;
        // `confusion` and `prior_sums` accumulate the next M-step's
        // sums while the pass before it computes the posteriors they
        // sum, each added in right after it is computed: items and
        // votes in input order, so every float sum has the order of a
        // separate M-step pass (bit-identical). With no iterations,
        // nothing is accumulated and the outputs keep their initial
        // values.
        let mut confusion = vec![if iterations > 0 { s } else { 0.0 }; num_workers * kk];
        let mut prior_sums = vec![s; k];
        let mut priors = vec![1.0 / k as f64; k];
        let mut log_confusion = vec![0.0f64; num_workers * kk];
        let mut log_priors = vec![0.0f64; k];

        // --- Initialization: posteriors from raw vote proportions. ---
        // `posteriors[item*k..][..k]` is item's distribution (flat).
        let mut posteriors = vec![1e-9f64; num_items * k];
        for item in 0..num_items {
            let (lo, hi) = (offsets[item], offsets[item + 1]);
            let row = &mut posteriors[item * k..][..k];
            for &(_, l) in &votes[lo..hi] {
                row[l] += 1.0;
            }
            normalize_in_place(row);
            if iterations > 0 {
                accumulate(width, &mut confusion, &mut prior_sums, &cells[lo..hi], row);
            }
        }

        for iteration in 1..=iterations {
            // --- M-step: close the sums the last pass accumulated. ---
            for row in confusion.chunks_exact_mut(k) {
                normalize_in_place(row);
            }
            priors.copy_from_slice(&prior_sums);
            normalize_in_place(&mut priors);
            // The logs change once per iteration, so the E-step's
            // inner loop only adds.
            for (lc, &c) in log_confusion.iter_mut().zip(&confusion) {
                *lc = c.max(1e-300).ln();
            }
            for (lp, &p) in log_priors.iter_mut().zip(&priors) {
                *lp = p.max(1e-300).ln();
            }
            // The last iteration's confusion is the output: keep it.
            let next = iteration < iterations;
            if next {
                confusion.fill(s);
                prior_sums.fill(s);
            }

            // --- E-step: item posteriors (log space for stability). ---
            for item in 0..num_items {
                let item_cells = &cells[offsets[item]..offsets[item + 1]];
                let row = &mut posteriors[item * k..][..k];
                if item_cells.is_empty() {
                    row.copy_from_slice(&priors);
                } else {
                    posterior(width, row, &log_priors, &log_confusion, item_cells);
                }
                if next {
                    accumulate(width, &mut confusion, &mut prior_sums, item_cells, row);
                }
            }
        }

        // --- Decisions: minimize expected cost. ---
        let decisions: Vec<usize> = (0..num_items)
            .map(|item| self.min_cost_decision(&posteriors[item * k..(item + 1) * k]))
            .collect();

        // --- Spam scores. ---
        let spammer_score =
            self.spam_scores(&confusion, &priors, num_workers, &worker_answer_counts);

        QualityAdjustOutput {
            posteriors: FlatRows {
                width: k,
                data: posteriors,
            },
            decisions,
            confusion,
            priors,
            spammer_score,
            worker_answer_counts,
        }
    }

    /// The decision minimizing `Σ_t posterior[t] · cost[t][decision]`.
    fn min_cost_decision(&self, posterior: &[f64]) -> usize {
        let k = self.config.num_labels;
        (0..k)
            .min_by(|&a, &b| {
                let ca: f64 = posterior
                    .iter()
                    .enumerate()
                    .map(|(t, p)| p * self.config.cost.get(t, a))
                    .sum();
                let cb: f64 = posterior
                    .iter()
                    .enumerate()
                    .map(|(t, p)| p * self.config.cost.get(t, b))
                    .sum();
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("k >= 2")
    }

    /// Ipeirotis spam score: the expected cost of the *soft label*
    /// induced by each answer the worker gives, normalized by the
    /// expected cost of always emitting the prior distribution (the
    /// best a zero-information spammer can do).
    fn spam_scores(
        &self,
        confusion: &[f64], // flat: [(w*k + t)*k + l]
        priors: &[f64],
        num_workers: usize,
        counts: &[usize],
    ) -> Vec<f64> {
        let k = self.config.num_labels;

        // Cost of a soft label q: Σ_t q[t] · cost[t][argmin-cost decision].
        let soft_cost = |q: &[f64]| -> f64 {
            let d = self.min_cost_decision(q);
            q.iter()
                .enumerate()
                .map(|(t, p)| p * self.config.cost.get(t, d))
                .sum()
        };
        let spam_baseline = soft_cost(priors).max(1e-12);

        let mut scores = vec![1.0f64; num_workers];
        let mut q = vec![0.0f64; k]; // soft-label scratch, reused
                                     // P(worker emits l) = Σ_t prior[t] π_w[t][l]; soft label for l:
                                     // q[t] ∝ prior[t] π_w[t][l].
        for w in 0..num_workers {
            if counts[w] == 0 {
                continue;
            }
            let base = w * k * k;
            let mut expected = 0.0;
            for l in 0..k {
                for (t, qt) in q.iter_mut().enumerate() {
                    *qt = priors[t] * confusion[base + t * k + l];
                }
                let mass: f64 = q.iter().sum();
                if mass <= 0.0 {
                    continue;
                }
                normalize_in_place(&mut q);
                expected += mass * soft_cost(&q);
            }
            scores[w] = expected / spam_baseline;
        }
        // Workers with no answers keep score 1 (unknown = spam-neutral)
        // but are excluded by `spammers()` via the count check.
        scores
    }
}

/// One item's E-step: its posterior, into `row`, from the logs of the
/// priors and of the confusion cells its votes name.
#[inline(always)]
fn posterior<W: Width>(
    width: W,
    row: &mut [f64],
    log_priors: &[f64],
    log_confusion: &[f64],
    cells: &[u32],
) {
    let k = width.k();
    let row = &mut row[..k];
    // Label by label, each sum in a register; every label's sum still
    // adds its votes in input order.
    for (t, lp) in row.iter_mut().enumerate() {
        let mut sum = log_priors[t];
        for &c in cells {
            sum += log_confusion[c as usize + t * k];
        }
        *lp = sum;
    }
    // Every log is clamped at ln(1e-300), so the sums are finite and
    // the max term's exp(0) is exactly 1.
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for lp in row.iter_mut() {
        *lp = if *lp == max { 1.0 } else { (*lp - max).exp() };
    }
    normalize_in_place(row);
}

/// Add one item's posterior `row` to the next M-step's sums: the
/// confusion cells its votes name, and the priors.
#[inline(always)]
fn accumulate<W: Width>(
    width: W,
    confusion: &mut [f64],
    prior_sums: &mut [f64],
    cells: &[u32],
    row: &[f64],
) {
    let k = width.k();
    let row = &row[..k];
    for (t, &p) in row.iter().enumerate() {
        for &c in cells {
            confusion[c as usize + t * k] += p;
        }
    }
    for (sum, &p) in prior_sums[..k].iter_mut().zip(row) {
        *sum += p;
    }
}

/// The label count an EM kernel is compiled for: a constant
/// ([`Fixed`]), which unrolls every per-label loop, or a runtime value
/// ([`Dyn`]).
trait Width: Copy {
    fn k(self) -> usize;
}

/// `K` labels, known at compile time.
#[derive(Clone, Copy)]
struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    #[inline(always)]
    fn k(self) -> usize {
        K
    }
}

/// A label count known only at run time.
#[derive(Clone, Copy)]
struct Dyn(usize);

impl Width for Dyn {
    #[inline(always)]
    fn k(self) -> usize {
        self.0
    }
}

#[inline]
fn normalize_in_place(p: &mut [f64]) {
    let s: f64 = p.iter().sum();
    if s > 0.0 {
        for v in p.iter_mut() {
            *v /= s;
        }
    } else {
        let u = 1.0 / p.len() as f64;
        for v in p.iter_mut() {
            *v = u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build observations where `workers` is a list of closures mapping
    /// (item, truth) -> label.
    fn observe(
        truths: &[usize],
        workers: &[&dyn Fn(usize, usize) -> usize],
    ) -> Vec<LabelObservation> {
        let mut obs = Vec::new();
        for (item, &t) in truths.iter().enumerate() {
            for (w, f) in workers.iter().enumerate() {
                obs.push(LabelObservation {
                    worker: w,
                    item,
                    label: f(item, t),
                });
            }
        }
        obs
    }

    fn truths_pattern(n: usize) -> Vec<usize> {
        (0..n).map(|i| usize::from(i % 3 == 0)).collect()
    }

    #[test]
    fn perfect_workers_recover_truth() {
        let truths = truths_pattern(30);
        let honest = |_: usize, t: usize| t;
        let obs = observe(&truths, &[&honest, &honest, &honest]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        assert_eq!(out.decisions, truths);
        for w in 0..3 {
            assert!(
                out.spammer_score[w] < 0.1,
                "honest worker scored {}",
                out.spammer_score[w]
            );
        }
    }

    #[test]
    fn systematically_inverted_worker_is_corrected() {
        // 2 honest + 1 inverter. MV on any single item: 2 yes / 1 no
        // still works; the interesting property is that the inverter's
        // confusion matrix learns the inversion, so its *information*
        // is preserved (low spam score), unlike a random spammer.
        let truths = truths_pattern(40);
        let honest = |_: usize, t: usize| t;
        let invert = |_: usize, t: usize| 1 - t;
        let obs = observe(&truths, &[&honest, &honest, &invert]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        assert_eq!(out.decisions, truths);
        // The inverter should not look like a spammer: its answers are
        // perfectly informative once decoded.
        assert!(
            out.spammer_score[2] < 0.5,
            "inverter scored {} (should be informative)",
            out.spammer_score[2]
        );
        // Confusion matrix rows should be near-deterministic inversions.
        assert!(out.confusion(2)[1] > 0.9);
        assert!(out.confusion(2)[2] > 0.9);
    }

    #[test]
    fn always_yes_spammer_identified() {
        let truths = truths_pattern(40);
        let honest = |_: usize, t: usize| t;
        let always_yes = |_: usize, _: usize| 1usize;
        let obs = observe(&truths, &[&honest, &honest, &honest, &always_yes]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        assert_eq!(out.decisions, truths, "honest majority should prevail");
        assert!(
            out.spammer_score[3] > 0.9,
            "always-yes worker scored {} (should be ~1)",
            out.spammer_score[3]
        );
        assert_eq!(out.spammers(0.9), vec![3]);
    }

    #[test]
    fn random_spammer_identified_and_outvoted() {
        let truths = truths_pattern(60);
        let honest = |_: usize, t: usize| t;
        // Deterministic pseudo-random labels decoupled from the truth.
        let random = |item: usize, _: usize| (item * 2654435761) >> 3 & 1;
        let obs = observe(&truths, &[&honest, &honest, &honest, &random]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        assert_eq!(out.decisions, truths);
        assert!(
            out.spammer_score[3] > 0.6,
            "random worker scored {}",
            out.spammer_score[3]
        );
        assert!(out.spammer_score[0] < 0.2);
    }

    #[test]
    fn qa_beats_majority_vote_with_spammer_flood() {
        // 2 honest workers + 3 always-yes spammers: plain majority vote
        // answers "yes" on everything; QA should learn the spammers'
        // uninformative matrices and side with the honest pair.
        let truths = truths_pattern(60);
        let honest = |_: usize, t: usize| t;
        let always_yes = |_: usize, _: usize| 1usize;
        let obs = observe(
            &truths,
            &[&honest, &honest, &always_yes, &always_yes, &always_yes],
        );
        // Majority vote is wrong on all true-negative items:
        let mv_errors = truths.iter().filter(|&&t| t == 0).count();
        assert!(mv_errors > 0);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        let qa_errors = out
            .decisions
            .iter()
            .zip(&truths)
            .filter(|(d, t)| d != t)
            .count();
        assert!(
            qa_errors < mv_errors,
            "QA errors {qa_errors} should beat MV errors {mv_errors}"
        );
    }

    #[test]
    fn asymmetric_cost_shifts_decision_threshold() {
        // A single item with a 60/40 split toward "no": with 0/1 loss
        // the decision is "no"; with FN twice as costly the expected
        // cost of "no" is 0.4·2 = 0.8 vs "yes" 0.6·1 = 0.6 -> "yes".
        let obs: Vec<LabelObservation> = (0..5)
            .map(|w| LabelObservation {
                worker: w,
                item: 0,
                label: usize::from(w < 2),
            })
            .collect();
        let zero_one = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        // Use 0 iterations so posteriors stay at the raw vote split and
        // the test isolates the decision rule.
        let mut cfg = QualityAdjustConfig::paper_join();
        cfg.iterations = 0;
        let mut cfg01 = QualityAdjustConfig::categorical(2);
        cfg01.iterations = 0;
        let out01 = QualityAdjust::new(cfg01).run(&obs);
        assert_eq!(out01.decisions[0], 0);
        let out_fn2 = QualityAdjust::new(cfg).run(&obs);
        assert_eq!(out_fn2.decisions[0], 1);
        let _ = zero_one;
    }

    #[test]
    fn multiclass_labels_supported() {
        // 4 categories (e.g. hair colors), 3 honest workers + 1 spammer.
        let truths: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let honest = |_: usize, t: usize| t;
        let always_two = |_: usize, _: usize| 2usize;
        let obs = observe(&truths, &[&honest, &honest, &honest, &always_two]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(4));
        let out = qa.run(&obs);
        assert_eq!(out.decisions, truths);
        assert!(out.spammer_score[3] > 0.5);
    }

    #[test]
    fn empty_observations() {
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&[]);
        assert!(out.decisions.is_empty());
        assert!(out.posteriors.is_empty());
    }

    #[test]
    fn item_with_no_votes_gets_prior_decision() {
        // Item 1 never observed; item 0 and 2 observed.
        let obs = vec![
            LabelObservation {
                worker: 0,
                item: 0,
                label: 1,
            },
            LabelObservation {
                worker: 1,
                item: 0,
                label: 1,
            },
            LabelObservation {
                worker: 0,
                item: 2,
                label: 1,
            },
            LabelObservation {
                worker: 1,
                item: 2,
                label: 1,
            },
        ];
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        assert_eq!(out.decisions.len(), 3);
        // Prior is dominated by label 1, so the unseen item defaults to 1.
        assert_eq!(out.decisions[1], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        qa.run(&[LabelObservation {
            worker: 0,
            item: 0,
            label: 5,
        }]);
    }

    #[test]
    fn posteriors_are_distributions() {
        let truths = truths_pattern(20);
        let honest = |_: usize, t: usize| t;
        let noisy = |item: usize, t: usize| if item.is_multiple_of(7) { 1 - t } else { t };
        let obs = observe(&truths, &[&honest, &noisy, &honest]);
        let qa = QualityAdjust::new(QualityAdjustConfig::categorical(2));
        let out = qa.run(&obs);
        for p in &out.posteriors {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let s: f64 = out.priors.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// EM always yields valid distributions and in-range decisions.
        #[test]
        fn em_outputs_valid(
            labels in prop::collection::vec((0usize..8, 0usize..12, 0usize..3), 1..200)
        ) {
            let obs: Vec<LabelObservation> = labels
                .into_iter()
                .map(|(worker, item, label)| LabelObservation { worker, item, label })
                .collect();
            let qa = QualityAdjust::new(QualityAdjustConfig::categorical(3));
            let out = qa.run(&obs);
            for p in &out.posteriors {
                let s: f64 = p.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-6);
            }
            for &d in &out.decisions {
                prop_assert!(d < 3);
            }
            for w in 0..out.num_workers() {
                for row in out.confusion(w).chunks(3) {
                    let s: f64 = row.iter().sum();
                    prop_assert!((s - 1.0).abs() < 1e-6);
                }
            }
            for &s in &out.spammer_score {
                prop_assert!(s.is_finite() && s >= 0.0);
            }
        }

        /// With unanimous honest votes, decisions match the votes
        /// regardless of iteration count.
        #[test]
        fn unanimous_votes_respected(
            truths in prop::collection::vec(0usize..2, 1..30),
            iters in 0usize..8,
        ) {
            let mut obs = Vec::new();
            for (item, &t) in truths.iter().enumerate() {
                for w in 0..3 {
                    obs.push(LabelObservation { worker: w, item, label: t });
                }
            }
            let mut cfg = QualityAdjustConfig::categorical(2);
            cfg.iterations = iters;
            let out = QualityAdjust::new(cfg).run(&obs);
            prop_assert_eq!(out.decisions, truths);
        }

        /// The grouped entry and the `LabelObservation` adapter agree
        /// bit for bit. Worker ids are sparse (a few of 0..1000), some
        /// items in range have no votes, and the grouping here is built
        /// independently of the adapter's (a stable sort by item).
        #[test]
        fn grouped_entry_matches_the_observation_adapter(
            k in prop::sample::select(vec![2usize, 4]),
            workers in prop::collection::vec(0usize..1000, 1..6),
            votes in prop::collection::vec((0usize..6, 0usize..40, 0usize..4), 0..150),
        ) {
            let obs: Vec<LabelObservation> = votes
                .iter()
                .map(|&(w, item, label)| LabelObservation {
                    worker: workers[w % workers.len()],
                    item,
                    label: label % k,
                })
                .collect();
            let num_items = obs.iter().map(|o| o.item + 1).max().unwrap_or(0);
            let mut sorted = obs.clone();
            sorted.sort_by_key(|o| o.item);
            let grouped: Vec<(usize, usize)> = sorted.iter().map(|o| (o.worker, o.label)).collect();
            let offsets: Vec<usize> = (0..=num_items)
                .map(|i| sorted.partition_point(|o| o.item < i))
                .collect();

            let qa = QualityAdjust::new(QualityAdjustConfig::categorical(k));
            let a = qa.run(&obs);
            let b = qa.run_grouped(&offsets, &grouped);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(a.posteriors.len(), num_items);
            prop_assert_eq!(bits(a.posteriors.as_slice()), bits(b.posteriors.as_slice()));
            prop_assert_eq!(&a.decisions, &b.decisions);
            prop_assert_eq!(bits(&a.spammer_score), bits(&b.spammer_score));
            prop_assert_eq!(bits(&a.priors), bits(&b.priors));
            prop_assert_eq!(&a.worker_answer_counts, &b.worker_answer_counts);
        }
    }
}

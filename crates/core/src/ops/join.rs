//! The crowd join operator (§3).
//!
//! Qurk implements a block nested loop join whose predicate evaluations
//! are HITs. Three interfaces ([`JoinStrategy`]):
//!
//! * **Simple** (Figure 2a) — one pair per HIT: `|R||S|` HITs.
//! * **NaiveBatch(b)** (Figure 2b) — b pairs stacked per HIT:
//!   `|R||S|/b` HITs.
//! * **SmartBatch(r×s)** (Figure 2c) — an r×s image grid per HIT:
//!   `|R||S|/(rs)` HITs.
//!
//! [`feature_filter`] implements §3.2's `POSSIBLY` clause machinery:
//! crowd-extracted features pre-filter the cross product, with three
//! automatic tests for dropping bad filters (selectivity, leave-one-out
//! error contribution, and Fleiss-κ ambiguity).
//!
//! ## Layout
//!
//! A join round touches every candidate pair several times (compile,
//! vote gathering, combining), so a pair is carried as its **ordinal**:
//! its position in one sorted `Vec<(usize, usize)>`. Compiled HITs
//! record ordinals, and the batched vote path (`CellVotes::ask`)
//! tallies each ordinal's votes into one CSR buffer ([`PairVotes`]
//! keeps the voted ones); that buffer's offsets are the item grouping
//! QualityAdjust takes ([`qurk_combine::em::QualityAdjust::run_grouped`]),
//! with workers numbered through a dense `WorkerId`-indexed rank table.
//! Sorted and contiguous from compile to EM, with no hashing.
// lint:hot-path

use qurk_combine::em::{QualityAdjustConfig, QualityAdjustOutput};
use qurk_combine::majority_vote_bool;
use qurk_crowd::market::Assignment;
use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::{HitSpec, ItemId, WorkerId};

use crate::backend::CrowdBackend;
use crate::error::Result;
use crate::ops::common::{batch_streams, CellVotes, WorkerRanks, DEFAULT_ROUND_LIMIT_SECS};
use crate::task::CombinerKind;

pub use feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureFilterOutcome};

/// Which join interface to compile HITs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    Simple,
    NaiveBatch(usize),
    SmartBatch { rows: usize, cols: usize },
}

/// One crowd join execution.
#[derive(Debug, Clone)]
pub struct JoinOp {
    pub strategy: JoinStrategy,
    pub combiner: CombinerKind,
    pub assignments: Option<u32>,
    pub limit_secs: f64,
}

impl Default for JoinOp {
    fn default() -> Self {
        JoinOp {
            strategy: JoinStrategy::NaiveBatch(5),
            combiner: CombinerKind::MajorityVote,
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
        }
    }
}

/// The `(worker, vote)` answers each candidate pair received: the
/// voted pairs `(left_idx, right_idx)` ascending, and per pair its
/// answers in arrival order, in the one CSR tally of the batched vote
/// path ([`CellVotes`], over pair ordinals). Pairs nobody answered are
/// absent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairVotes {
    pairs: Vec<(usize, usize)>,
    /// Voted pair `n`'s votes are cell `n`.
    votes: CellVotes<bool>,
}

impl PairVotes {
    /// Tally a completed join round. `pairs` are the sorted candidate
    /// pairs; `layout[q]` is the ordinal (position in `pairs`) of the
    /// pair question `q` asks about, in posting order; spec `p` asks
    /// questions `starts[p]..starts[p + 1]`, and `round[p]` holds its
    /// HIT's assignments
    /// ([`Round::complete`](crate::ops::common::Round::complete)). Votes
    /// keep arrival order (HITs in spec order, each HIT's assignments in
    /// completion order).
    pub fn tally(
        pairs: &[(usize, usize)],
        layout: &[usize],
        starts: &[usize],
        round: &[Vec<Assignment>],
    ) -> PairVotes {
        let votes = CellVotes::tally(pairs.len(), layout, starts, round, |_, a| a.as_bool());
        PairVotes::from_ordinals(pairs, votes)
    }

    /// Keep the voted ordinals of `votes` (cell `n` is `pairs[n]`).
    fn from_ordinals(pairs: &[(usize, usize)], votes: CellVotes<bool>) -> PairVotes {
        let (voted, votes) = votes.voted();
        PairVotes {
            pairs: voted.into_iter().map(|n| pairs[n]).collect(),
            votes,
        }
    }

    /// Number of voted pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The voted pairs, ascending.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Voted pair `n`'s answers, in arrival order.
    pub fn votes(&self, n: usize) -> &[(WorkerId, bool)] {
        self.votes.cell(n)
    }

    /// Each voted pair with its answers, ascending by pair.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ((usize, usize), &[(WorkerId, bool)])> {
        self.pairs.iter().copied().zip(self.votes.iter())
    }
}

/// Compare with the nested shape `[(pair, votes)]`, ascending by pair.
impl PartialEq<Vec<((usize, usize), Vec<(WorkerId, bool)>)>> for PairVotes {
    fn eq(&self, other: &Vec<((usize, usize), Vec<(WorkerId, bool)>)>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|((p, v), (q, w))| p == *q && v == w.as_slice())
    }
}

/// Result of a join run.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Matching (left_idx, right_idx) pairs, ascending.
    pub matches: Vec<(usize, usize)>,
    /// HITs posted by this run.
    pub hits_posted: usize,
    /// Raw votes per pair for quality analysis (§3.3.3's per-worker
    /// accuracy regression needs worker identities).
    pub pair_votes: PairVotes,
}

impl JoinOp {
    /// Join `left` × `right`, optionally restricted to `candidates`
    /// (pairs that passed feature filtering, ascending as
    /// [`FeatureFilterOutcome::candidates`] holds them; other orders
    /// and duplicates are tolerated). Pairs outside the two tables are
    /// ignored. Returns combined matches.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        left: &[ItemId],
        right: &[ItemId],
        candidates: Option<&[(usize, usize)]>,
    ) -> Result<JoinOutcome> {
        // `pairs` is sorted and duplicate-free: a pair's ordinal is its
        // position here.
        let pairs: Vec<(usize, usize)> = match candidates {
            Some(c) => {
                let mut pairs: Vec<(usize, usize)> = c
                    .iter()
                    .copied()
                    .filter(|&(i, j)| i < left.len() && j < right.len())
                    .collect();
                // Linear on the sorted input callers pass.
                pairs.sort_unstable();
                pairs.dedup();
                pairs
            }
            None => (0..left.len())
                .flat_map(|i| (0..right.len()).map(move |j| (i, j)))
                .collect(),
        };
        if pairs.is_empty() {
            return Ok(JoinOutcome {
                matches: Vec::new(),
                hits_posted: 0,
                pair_votes: PairVotes::default(),
            });
        }

        // Compile pairs into HITs; `layout` holds, per question in
        // posting order, the ordinal of the pair it asks about.
        let (specs, layout) = self.compile(left, right, &pairs);
        let hits_posted = specs.len();
        let votes = CellVotes::ask(
            backend,
            specs,
            &layout,
            self.assignments,
            self.limit_secs,
            |_, answer| answer.as_bool(),
        )?;
        let pair_votes = PairVotes::from_ordinals(&pairs, votes);
        let matches = self.combine(&pair_votes);
        Ok(JoinOutcome {
            matches,
            hits_posted,
            pair_votes,
        })
    }

    /// Compile the sorted candidate `pairs` into HIT specs plus, flat
    /// in posting order, the ordinal (position in `pairs`) of the pair
    /// each question asks about.
    fn compile(
        &self,
        left: &[ItemId],
        right: &[ItemId],
        pairs: &[(usize, usize)],
    ) -> (Vec<HitSpec>, Vec<usize>) {
        let q = |(i, j): (usize, usize)| Question::JoinPair {
            left: left[i],
            right: right[j],
        };
        match self.strategy {
            JoinStrategy::Simple => {
                let specs = pairs
                    .iter()
                    .map(|&p| HitSpec::new(vec![q(p)], HitKind::JoinSimple))
                    .collect();
                (specs, (0..pairs.len()).collect())
            }
            JoinStrategy::NaiveBatch(b) => {
                assert!(b > 0, "batch size must be positive");
                let specs = pairs
                    .chunks(b)
                    .map(|chunk| {
                        HitSpec::new(chunk.iter().map(|&p| q(p)).collect(), HitKind::JoinNaive)
                    })
                    .collect();
                (specs, (0..pairs.len()).collect())
            }
            JoinStrategy::SmartBatch { rows, cols } => {
                assert!(rows > 0 && cols > 0, "grid dims must be positive");
                // Group candidate pairs into r×s grids: take left items
                // (that still have pending pairs) in chunks of `rows`,
                // then chunk their pending right items by `cols`.
                // `pairs` is sorted, so each left item's pairs are one
                // contiguous run `(i, start, end)`.
                let mut runs: Vec<(usize, usize, usize)> = Vec::new();
                let mut start = 0;
                while start < pairs.len() {
                    let i = pairs[start].0;
                    let end = start + pairs[start..].partition_point(|p| p.0 == i);
                    runs.push((i, start, end));
                    start = end;
                }
                let kind = HitKind::JoinSmart { rows, cols };
                let mut specs = Vec::new();
                let mut layout = Vec::with_capacity(pairs.len());
                let mut rights: Vec<usize> = Vec::new();
                for lchunk in runs.chunks(rows) {
                    // Right items paired with any left in this chunk.
                    rights.clear();
                    for &(_, start, end) in lchunk {
                        rights.extend(pairs[start..end].iter().map(|p| p.1));
                    }
                    rights.sort_unstable();
                    rights.dedup();
                    // Every right item here pairs with some left of the
                    // chunk, so no grid comes out empty.
                    for rchunk in rights.chunks(cols) {
                        let mut questions = Vec::new();
                        for &(i, start, end) in lchunk {
                            for &j in rchunk {
                                // Only candidate crossings are scored.
                                if let Ok(at) = pairs[start..end].binary_search(&(i, j)) {
                                    questions.push(q((i, j)));
                                    layout.push(start + at);
                                }
                            }
                        }
                        specs.push(HitSpec::new(questions, kind));
                    }
                }
                (specs, layout)
            }
        }
    }

    /// Fuse votes into the final match set (ascending, like
    /// `pair_votes`).
    pub fn combine(&self, pair_votes: &PairVotes) -> Vec<(usize, usize)> {
        match self.combiner {
            CombinerKind::MajorityVote => {
                let mut bools: Vec<bool> = Vec::new();
                pair_votes
                    .iter()
                    .filter(|(_, votes)| {
                        bools.clear();
                        bools.extend(votes.iter().map(|&(_, b)| b));
                        majority_vote_bool(&bools)
                    })
                    .map(|(p, _)| p)
                    .collect()
            }
            CombinerKind::QualityAdjust => {
                let (out, _) = quality_adjust(pair_votes);
                pair_votes
                    .pairs()
                    .iter()
                    .zip(&out.decisions)
                    .filter(|&(_, &d)| d == 1)
                    .map(|(&p, _)| p)
                    .collect()
            }
        }
    }
}

/// The paper's QualityAdjust configuration (5 EM iterations, false
/// negatives penalized twice as heavily, §3.3.2) run over `pair_votes`.
/// EM item `n` is voted pair `n`; EM worker `r` is the returned ranks'
/// `worker(r)`, ascending by `WorkerId`.
fn quality_adjust(pair_votes: &PairVotes) -> (QualityAdjustOutput, WorkerRanks) {
    let config = QualityAdjustConfig::paper_join();
    pair_votes.votes.quality_adjust(config, |&b| usize::from(b))
}

/// Identify spam-scoring workers from raw join votes via the
/// QualityAdjust EM (§6: the QA output "is able to effectively
/// eliminate and identify workers who generate spam answers"; in a
/// non-experimental deployment these workers are banned via
/// [`CrowdBackend::ban_workers`]). Returned in ascending `WorkerId`
/// order.
pub fn identify_spammers(pair_votes: &PairVotes, threshold: f64) -> Vec<WorkerId> {
    identify_spammers_with_min_answers(pair_votes, threshold, 8)
}

/// [`identify_spammers`] with an explicit evidence floor: workers with
/// fewer than `min_answers` votes are never flagged (their confusion
/// matrices are too poorly estimated to condemn them).
pub fn identify_spammers_with_min_answers(
    pair_votes: &PairVotes,
    threshold: f64,
    min_answers: usize,
) -> Vec<WorkerId> {
    let (out, ranks) = quality_adjust(pair_votes);
    // `spammers` is ascending in EM id, and EM ids follow `WorkerId`.
    out.spammers(threshold)
        .into_iter()
        .filter(|&id| out.worker_answer_counts[id] >= min_answers)
        .map(|id| ranks.worker(id))
        .collect()
}

pub mod feature_filter {
    //! §3.2: POSSIBLY-clause feature filtering.

    use super::*;
    use crate::ops::generative::{radio_label, radio_majority};
    use qurk_metrics::kappa::{counts_from_labels, fleiss_kappa};

    /// A feature to extract: oracle name + option count (UNKNOWN
    /// excluded).
    #[derive(Debug, Clone)]
    pub struct FeatureSpec {
        pub name: String,
        pub num_options: usize,
    }

    /// Configuration for the feature-filter pipeline.
    #[derive(Debug, Clone)]
    pub struct FeatureFilterConfig {
        /// Tuples per extraction HIT.
        pub batch_size: usize,
        /// Ask all features of an item at once (§3.3.4's combined
        /// interface) or separately.
        pub combined_interface: bool,
        pub assignments: Option<u32>,
        /// Features with Fleiss κ below this are dropped as ambiguous.
        pub kappa_threshold: f64,
        /// Features whose estimated selectivity exceeds this are
        /// dropped as not worth their extraction cost.
        pub max_selectivity: f64,
        /// Leave-one-out: drop a feature that kills more than this
        /// fraction of sample join results.
        pub error_threshold: f64,
        /// Fraction of items sampled for the κ/selectivity estimates
        /// (the paper samples 25%).
        pub sample_fraction: f64,
        /// Run the (HIT-costly) leave-one-out error test.
        pub leave_one_out: bool,
        pub limit_secs: f64,
    }

    impl Default for FeatureFilterConfig {
        fn default() -> Self {
            FeatureFilterConfig {
                batch_size: 5,
                combined_interface: true,
                assignments: None,
                kappa_threshold: 0.20,
                max_selectivity: 0.85,
                error_threshold: 0.15,
                sample_fraction: 0.25,
                leave_one_out: false,
                limit_secs: DEFAULT_ROUND_LIMIT_SECS,
            }
        }
    }

    /// Per-table extraction results.
    #[derive(Debug, Clone, Default)]
    pub struct Extraction {
        /// `values[item_idx][feature_idx]`: combined value; `None` is
        /// UNKNOWN (matches everything, §2.4).
        pub values: Vec<Vec<Option<usize>>>,
        /// Raw votes for κ, one cell per (item, feature), tuple-major:
        /// cell `item_idx * features + feature_idx`. A vote is the
        /// category, UNKNOWN mapped to `num_options`.
        pub votes: CellVotes<usize>,
    }

    impl Extraction {
        /// Item `i`'s raw votes on feature `f`, in arrival order.
        pub fn labels(&self, i: usize, f: usize) -> impl Iterator<Item = usize> + '_ {
            let features = self.values[i].len();
            self.votes.cell(i * features + f).iter().map(|&(_, l)| l)
        }
    }

    /// Outcome of the full pipeline.
    #[derive(Debug)]
    pub struct FeatureFilterOutcome {
        /// Indices of features kept after the three tests.
        pub selected: Vec<usize>,
        /// Why each feature was kept/dropped (diagnostics).
        pub decisions: Vec<String>,
        /// Candidate (left_idx, right_idx) pairs passing the selected
        /// filters, ascending (what [`JoinOp::run`] takes).
        pub candidates: Vec<(usize, usize)>,
        /// κ per feature (left and right tables pooled).
        pub kappas: Vec<f64>,
        /// Estimated selectivity per feature.
        pub selectivities: Vec<f64>,
        pub hits_posted: usize,
    }

    /// The feature-filter pipeline driver.
    #[derive(Debug, Clone, Default)]
    pub struct FeatureFilter {
        pub config: FeatureFilterConfig,
    }

    impl FeatureFilter {
        pub fn new(config: FeatureFilterConfig) -> Self {
            FeatureFilter { config }
        }

        /// Extract `features` for every item of one table: one row per
        /// item, feature-less when there are no features (then every
        /// pair is a [`Self::candidates`] pair).
        pub fn extract<B: CrowdBackend + ?Sized>(
            &self,
            backend: &mut B,
            features: &[FeatureSpec],
            items: &[ItemId],
        ) -> Result<(Extraction, usize)> {
            if items.is_empty() || features.is_empty() {
                let values = vec![Vec::new(); items.len()];
                let votes = CellVotes::default();
                return Ok((Extraction { values, votes }, 0));
            }
            let kind = if self.config.combined_interface {
                HitKind::FeatureCombined
            } else {
                HitKind::FeatureSingle
            };
            let streams: Vec<Vec<Question>> = features
                .iter()
                .map(|f| {
                    items
                        .iter()
                        .map(|&item| Question::Feature {
                            item,
                            // lint:allow(hot-clone): each question owns its feature name.
                            feature: f.name.clone(),
                            num_options: f.num_options,
                        })
                        .collect()
                })
                .collect();
            let (specs, layout) = batch_streams(
                streams,
                self.config.batch_size,
                self.config.combined_interface,
                kind,
            );
            let hits_posted = specs.len();
            let nf = features.len();
            let votes = CellVotes::ask(
                backend,
                specs,
                &layout,
                self.config.assignments,
                self.config.limit_secs,
                |cell, answer| radio_label(answer, features[cell % nf].num_options),
            )?;
            let values = (0..items.len())
                .map(|i| {
                    let cells = votes.iter().skip(i * nf);
                    features
                        .iter()
                        .zip(cells)
                        .map(|(f, vs)| radio_majority(vs.iter().map(|&(_, l)| l), f.num_options))
                        .collect()
                })
                .collect();
            Ok((Extraction { values, votes }, hits_posted))
        }

        /// Pooled Fleiss κ for one feature across both tables' votes.
        /// UNKNOWN answers participate as their own category.
        pub fn kappa_for(
            feature_idx: usize,
            num_options: usize,
            left: &Extraction,
            right: &Extraction,
        ) -> f64 {
            let labels: Vec<Vec<usize>> = [left, right]
                .into_iter()
                .flat_map(|e| (0..e.values.len()).map(move |i| e.labels(i, feature_idx).collect()))
                .collect();
            let counts = counts_from_labels(&labels, num_options + 1);
            fleiss_kappa(&counts).unwrap_or(0.0)
        }

        /// §3.2's selectivity estimate
        /// `σᵢ = Σ_j ρSij × ρRij` from extracted values, counting
        /// UNKNOWN as matching everything.
        pub fn selectivity_for(
            feature_idx: usize,
            num_options: usize,
            left: &Extraction,
            right: &Extraction,
        ) -> f64 {
            let hist = |e: &Extraction| -> (Vec<f64>, f64) {
                let mut counts = vec![0.0; num_options];
                let mut unknown = 0.0;
                let mut total = 0.0;
                for row in &e.values {
                    total += 1.0;
                    match row[feature_idx] {
                        Some(v) => counts[v] += 1.0,
                        None => unknown += 1.0,
                    }
                }
                if total == 0.0 {
                    return (counts, 0.0);
                }
                for c in counts.iter_mut() {
                    *c /= total;
                }
                (counts, unknown / total)
            };
            let (l, lu) = hist(left);
            let (r, ru) = hist(right);
            // P(pair passes) = Σ_j ρL_j ρR_j + P(either side UNKNOWN).
            let agree: f64 = l.iter().zip(&r).map(|(a, b)| a * b).sum();
            (agree + lu + ru - lu * ru).min(1.0)
        }

        /// Candidate pairs under the selected features, ascending: pass
        /// iff every selected feature agrees or either side is UNKNOWN.
        /// Runs via the hash-partitioned generator in
        /// [`crate::ops::partition`], which produces the same set as the
        /// full |L|×|R| scan.
        pub fn candidates(
            selected: &[usize],
            left: &Extraction,
            right: &Extraction,
        ) -> Vec<(usize, usize)> {
            let mut pairs =
                crate::ops::partition::candidate_pairs(selected, &left.values, &right.values);
            pairs.sort_unstable();
            pairs
        }

        /// Run the full pipeline: sample-extract, test features
        /// (κ, selectivity, optional leave-one-out), extract the
        /// survivors on the full tables, and compute candidates.
        pub fn run<B: CrowdBackend + ?Sized>(
            &self,
            backend: &mut B,
            features: &[FeatureSpec],
            left_items: &[ItemId],
            right_items: &[ItemId],
        ) -> Result<FeatureFilterOutcome> {
            let mut hits_posted = 0usize;

            // --- Phase 1: extraction on a sample. ---
            let sample_n = |n: usize| {
                ((n as f64 * self.config.sample_fraction).ceil() as usize).clamp(1.min(n), n)
            };
            let ls = &left_items[..sample_n(left_items.len())];
            let rs = &right_items[..sample_n(right_items.len())];
            let (left_sample, h1) = self.extract(backend, features, ls)?;
            let (right_sample, h2) = self.extract(backend, features, rs)?;
            hits_posted += h1 + h2;

            // --- Phase 2: per-feature tests. ---
            let mut kappas = Vec::with_capacity(features.len());
            let mut selectivities = Vec::with_capacity(features.len());
            let mut selected = Vec::new();
            let mut decisions = Vec::with_capacity(features.len());
            for (fi, f) in features.iter().enumerate() {
                let kappa = Self::kappa_for(fi, f.num_options, &left_sample, &right_sample);
                let sel = Self::selectivity_for(fi, f.num_options, &left_sample, &right_sample);
                kappas.push(kappa);
                selectivities.push(sel);
                if kappa < self.config.kappa_threshold {
                    decisions.push(format!(
                        "{}: dropped (ambiguous: kappa {kappa:.2} < {:.2})",
                        f.name, self.config.kappa_threshold
                    ));
                } else if sel > self.config.max_selectivity {
                    decisions.push(format!(
                        "{}: dropped (not selective: sigma {sel:.2} > {:.2})",
                        f.name, self.config.max_selectivity
                    ));
                } else {
                    decisions.push(format!(
                        "{}: kept (kappa {kappa:.2}, sigma {sel:.2})",
                        f.name
                    ));
                    selected.push(fi);
                }
            }

            // --- Phase 3: leave-one-out error test on the sample. ---
            if self.config.leave_one_out && selected.len() > 1 {
                let join = JoinOp {
                    strategy: JoinStrategy::NaiveBatch(self.config.batch_size),
                    combiner: CombinerKind::MajorityVote,
                    assignments: self.config.assignments,
                    limit_secs: self.config.limit_secs,
                };
                let mut kept = Vec::new();
                for &fi in &selected {
                    let others: Vec<usize> =
                        selected.iter().copied().filter(|&x| x != fi).collect();
                    let cand_minus = Self::candidates(&others, &left_sample, &right_sample);
                    let out = join.run(backend, ls, rs, Some(&cand_minus))?;
                    hits_posted += out.hits_posted;
                    let j_minus = out.matches;
                    if j_minus.is_empty() {
                        kept.push(fi);
                        continue;
                    }
                    let killed = j_minus
                        .iter()
                        .filter(|&&(i, j)| {
                            !(match (left_sample.values[i][fi], right_sample.values[j][fi]) {
                                (Some(a), Some(b)) => a == b,
                                _ => true,
                            })
                        })
                        .count();
                    let frac = killed as f64 / j_minus.len() as f64;
                    if frac > self.config.error_threshold {
                        decisions[fi] = format!(
                            "{}: dropped (leave-one-out: kills {frac:.2} of sample joins)",
                            features[fi].name
                        );
                    } else {
                        kept.push(fi);
                    }
                }
                selected = kept;
            }

            // --- Phase 4: full extraction of surviving features. ---
            let survivors: Vec<FeatureSpec> = selected
                .iter()
                // lint:allow(hot-clone): one spec per surviving feature, once per run.
                .map(|&fi| features[fi].clone())
                .collect();
            let (left_full, h3) = self.extract(backend, &survivors, left_items)?;
            let (right_full, h4) = self.extract(backend, &survivors, right_items)?;
            hits_posted += h3 + h4;

            // The full extractions hold the survivors only: column `n`
            // is feature `selected[n]`.
            let columns: Vec<usize> = (0..selected.len()).collect();
            let candidates = Self::candidates(&columns, &left_full, &right_full);
            Ok(FeatureFilterOutcome {
                selected,
                decisions,
                candidates,
                kappas,
                selectivities,
                hits_posted,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::feature_filter::*;
    use super::*;
    use crate::backend::{CachingBackend, ReplayBackend};
    use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

    /// Two tables of n items each, where left[i] matches right[i].
    fn join_market(n: usize, seed: u64) -> (Marketplace, Vec<ItemId>, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        let left = gt.new_items(n);
        let right = gt.new_items(n);
        for i in 0..n {
            gt.set_entity(left[i], EntityId(i as u64));
            gt.set_entity(right[i], EntityId(i as u64));
        }
        gt.set_default_similarity(0.05);
        let m = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);
        (m, left, right)
    }

    fn accuracy(matches: &[(usize, usize)], n: usize) -> (usize, usize) {
        let tp = matches.iter().filter(|&&(i, j)| i == j).count();
        let fp = matches.len() - tp;
        let _ = n;
        (tp, fp)
    }

    #[test]
    fn simple_join_finds_matches() {
        let (mut m, l, r) = join_market(10, 1);
        let op = JoinOp {
            strategy: JoinStrategy::Simple,
            ..Default::default()
        };
        let out = op.run(&mut m, &l, &r, None).unwrap();
        assert_eq!(out.hits_posted, 100);
        // Per-vote TP is ~78-85% (paper-calibrated); MV over 5 votes
        // recovers most but not all matches.
        let (tp, fp) = accuracy(&out.matches, 10);
        assert!(tp >= 8, "tp={tp}");
        assert!(fp <= 1, "fp={fp}");
    }

    #[test]
    fn naive_batch_reduces_hits() {
        let (mut m, l, r) = join_market(10, 2);
        // QA combiner, as the paper recommends for batched schemes.
        let op = JoinOp {
            strategy: JoinStrategy::NaiveBatch(5),
            combiner: CombinerKind::QualityAdjust,
            ..Default::default()
        };
        let out = op.run(&mut m, &l, &r, None).unwrap();
        assert_eq!(out.hits_posted, 20); // 100 / 5
        let (tp, _) = accuracy(&out.matches, 10);
        assert!(tp >= 7, "tp={tp}");
    }

    #[test]
    fn smart_batch_grid_hit_count() {
        let (mut m, l, r) = join_market(9, 3);
        let op = JoinOp {
            strategy: JoinStrategy::SmartBatch { rows: 3, cols: 3 },
            combiner: CombinerKind::QualityAdjust,
            ..Default::default()
        };
        let out = op.run(&mut m, &l, &r, None).unwrap();
        assert_eq!(out.hits_posted, 9); // 81 / 9
        let (tp, fp) = accuracy(&out.matches, 9);
        assert!(tp >= 6, "tp={tp}");
        assert!(fp <= 2, "fp={fp}");
    }

    #[test]
    fn qa_beats_mv_under_spam() {
        // Heavier spam population: QA should retain at least MV's TP.
        let build = || {
            let mut gt = GroundTruth::new();
            let left = gt.new_items(12);
            let right = gt.new_items(12);
            for i in 0..12 {
                gt.set_entity(left[i], EntityId(i as u64));
                gt.set_entity(right[i], EntityId(i as u64));
            }
            let mut cfg = CrowdConfig::default().with_seed(77).with_assignments(5);
            cfg.workers.spammer_fraction = 0.25;
            (Marketplace::new(&cfg, gt), left, right)
        };
        let (mut m1, l, r) = build();
        let mv = JoinOp {
            strategy: JoinStrategy::SmartBatch { rows: 3, cols: 3 },
            combiner: CombinerKind::MajorityVote,
            ..Default::default()
        }
        .run(&mut m1, &l, &r, None)
        .unwrap();
        let (mut m2, l, r) = build();
        let qa = JoinOp {
            strategy: JoinStrategy::SmartBatch { rows: 3, cols: 3 },
            combiner: CombinerKind::QualityAdjust,
            ..Default::default()
        }
        .run(&mut m2, &l, &r, None)
        .unwrap();
        let (tp_mv, _) = accuracy(&mv.matches, 12);
        let (tp_qa, _) = accuracy(&qa.matches, 12);
        assert!(tp_qa >= tp_mv, "QA {tp_qa} vs MV {tp_mv}");
    }

    #[test]
    fn candidate_mask_restricts_pairs() {
        let (mut m, l, r) = join_market(6, 4);
        let mut candidates: Vec<(usize, usize)> =
            (0..6).map(|i| (i, i)).chain([(0, 1), (1, 0)]).collect();
        candidates.sort_unstable();
        let op = JoinOp::default();
        let out = op.run(&mut m, &l, &r, Some(&candidates)).unwrap();
        // 8 candidates / batch 5 -> 2 HITs.
        assert_eq!(out.hits_posted, 2);
        for &(i, j) in &out.matches {
            assert!(candidates.contains(&(i, j)));
        }
        let (tp, _) = accuracy(&out.matches, 6);
        assert!(tp >= 5);
    }

    #[test]
    fn empty_candidates_is_noop() {
        let (mut m, l, r) = join_market(3, 5);
        let out = JoinOp::default().run(&mut m, &l, &r, Some(&[])).unwrap();
        assert!(out.matches.is_empty());
        assert_eq!(out.hits_posted, 0);
        assert_eq!(m.hits_posted(), 0);
    }

    // ---- feature filtering ----

    /// Market where items carry a crisp "color" feature and an
    /// ambiguous "mood" feature.
    fn feature_market(n: usize) -> (Marketplace, Vec<ItemId>, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        gt.define_feature("color", &["red", "green", "blue"]);
        gt.define_feature("mood", &["happy", "sad"]);
        let left = gt.new_items(n);
        let right = gt.new_items(n);
        for i in 0..n {
            gt.set_entity(left[i], EntityId(i as u64));
            gt.set_entity(right[i], EntityId(i as u64));
            for &item in &[left[i], right[i]] {
                gt.set_feature_simple(item, "color", i % 3, 0.04);
                // mood is pure noise: uniform report probs.
                gt.set_feature(
                    item,
                    "mood",
                    qurk_crowd::truth::FeatureTruth {
                        value: 0,
                        report_probs: vec![0.5, 0.5],
                    },
                );
            }
        }
        let m = Marketplace::new(&CrowdConfig::default().with_seed(9), gt);
        (m, left, right)
    }

    fn specs() -> Vec<FeatureSpec> {
        vec![
            FeatureSpec {
                name: "color".into(),
                num_options: 3,
            },
            FeatureSpec {
                name: "mood".into(),
                num_options: 2,
            },
        ]
    }

    #[test]
    fn extraction_recovers_crisp_features() {
        let (mut m, l, _) = feature_market(9);
        let ff = FeatureFilter::default();
        let (ex, hits) = ff.extract(&mut m, &specs(), &l).unwrap();
        assert!(hits > 0);
        let correct = ex
            .values
            .iter()
            .enumerate()
            .filter(|(i, row)| row[0] == Some(i % 3))
            .count();
        assert!(correct >= 8, "correct={correct}/9");
    }

    #[test]
    fn kappa_separates_crisp_from_ambiguous() {
        let (mut m, l, r) = feature_market(12);
        let ff = FeatureFilter::default();
        let (le, _) = ff.extract(&mut m, &specs(), &l).unwrap();
        let (re, _) = ff.extract(&mut m, &specs(), &r).unwrap();
        let k_color = FeatureFilter::kappa_for(0, 3, &le, &re);
        let k_mood = FeatureFilter::kappa_for(1, 2, &le, &re);
        assert!(k_color > 0.5, "color kappa={k_color}");
        assert!(k_mood < 0.2, "mood kappa={k_mood}");
    }

    #[test]
    fn selectivity_estimate_reasonable() {
        let (mut m, l, r) = feature_market(12);
        let ff = FeatureFilter::default();
        let (le, _) = ff.extract(&mut m, &specs(), &l).unwrap();
        let (re, _) = ff.extract(&mut m, &specs(), &r).unwrap();
        let sel = FeatureFilter::selectivity_for(0, 3, &le, &re);
        // 3 roughly equal color classes -> sigma ~ 1/3.
        assert!((0.2..=0.5).contains(&sel), "sel={sel}");
    }

    #[test]
    fn pipeline_drops_ambiguous_feature_and_prunes() {
        let (mut m, l, r) = feature_market(12);
        let ff = FeatureFilter::new(FeatureFilterConfig {
            sample_fraction: 0.5,
            ..Default::default()
        });
        let out = ff.run(&mut m, &specs(), &l, &r).unwrap();
        assert_eq!(out.selected, vec![0], "decisions: {:?}", out.decisions);
        // All true matches survive filtering.
        for i in 0..12 {
            assert!(
                out.candidates.contains(&(i, i)),
                "true match {i} filtered away"
            );
        }
        // And the cross product shrank substantially.
        assert!(
            out.candidates.len() < 12 * 12 / 2,
            "candidates={}",
            out.candidates.len()
        );
    }

    /// A CRC-valid store can hold a category past a feature's options.
    /// Replayed, that answer is no vote: the pipeline still runs, and
    /// the cell it answered has every other vote.
    #[test]
    fn an_out_of_range_stored_category_is_no_vote() {
        let (m, l, r) = feature_market(4);
        let ff = FeatureFilter::new(FeatureFilterConfig {
            sample_fraction: 1.0,
            ..Default::default()
        });
        let color = [FeatureSpec {
            name: "color".into(),
            num_options: 3,
        }];
        let mut caching = CachingBackend::new(m);
        ff.run(&mut caching, &color, &l, &r).unwrap();
        let trace = caching.trace().clone();
        let mut replay = ReplayBackend::from_trace(trace.clone());
        let (before, _) = ff.extract(&mut replay, &color, &l).unwrap();
        let [key] = replay.posted_keys()[..] else {
            panic!("the left table fits one HIT");
        };
        let mut hostile = trace;
        let entry = hostile.entries.get_mut(&key).unwrap();
        entry.assignments[0].answers[0] = qurk_crowd::Answer::Category(3 + 1);

        let replay = || ReplayBackend::from_trace(hostile.clone());
        let out = ff.run(&mut replay(), &color, &l, &r).unwrap();
        assert!(out.kappas[0].is_finite());
        let (after, _) = ff.extract(&mut replay(), &color, &l).unwrap();
        assert!(after.labels(0, 0).eq(before.labels(0, 0).skip(1)));
        assert_eq!(after.votes.cell(0), &before.votes.cell(0)[1..]);
        assert!((1..before.values.len()).all(|c| after.votes.cell(c) == before.votes.cell(c)));
    }

    #[test]
    fn unknowns_act_as_wildcards() {
        let left = Extraction {
            values: vec![vec![None], vec![Some(1)]],
            votes: CellVotes::default(),
        };
        let right = Extraction {
            values: vec![vec![Some(0)], vec![Some(2)]],
            votes: CellVotes::default(),
        };
        let c = FeatureFilter::candidates(&[0], &left, &right);
        assert!(c.contains(&(0, 0)));
        assert!(c.contains(&(0, 1)));
        assert!(!c.contains(&(1, 0)));
        assert!(!c.contains(&(1, 1)));
    }
}

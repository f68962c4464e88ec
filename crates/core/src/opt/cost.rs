//! The HIT cost model.
//!
//! Every formula here is the arithmetic the paper does by hand:
//!
//! | Operator | HITs | Paper |
//! |---|---|---|
//! | Crowd filter, batch `b` | `⌈n/b⌉` | §2.6 *merging* |
//! | Combined conjunct filters | `⌈n/b⌉` (k questions share HITs) | §2.6 *combining* |
//! | Simple join | `n·m` | §3.1, Figure 2a |
//! | NaiveBatch(b) join | `⌈pairs/b⌉` | §3.1 "nm/b" |
//! | SmartBatch(r×s) join | `≈ ⌈n/r⌉·⌈m'/s⌉` | §3.1 "nm/b²" |
//! | Feature extraction (combined) | `⌈n/b⌉` per table | §3.3.4 |
//! | Feature extraction (single) | `k·⌈n/b⌉` per table | §3.2 |
//! | Compare sort | exact covering-design count, `≈ N(N−1)/(S(S−1))` | §4.1.1 |
//! | Rate sort | `⌈n/b⌉` | §4.1.2 "O(N)" |
//! | Hybrid sort | rate + one HIT per iteration | §4.1.3 |
//! | MAX/MIN tournament | `Σ ⌈pool/b⌉` until one remains | §2.3 |
//!
//! Dollars follow §3.3.2's fixed price (assignments × $0.015,
//! `Price::PAPER`); latency extrapolates the observed seconds-per-HIT
//! of the session's completed queries.

use qurk_crowd::pricing::Price;
use qurk_crowd::question::{hit_work_units, HitKind, Question};
use qurk_crowd::ItemId;

use crate::ops::filter::FilterOp;
use crate::ops::join::feature_filter::FeatureFilterConfig;
use crate::ops::join::JoinStrategy;
use crate::ops::sort::CompareSort;
use crate::opt::stats::StatisticsStore;
use crate::session::SortMode;

/// Assignments requested per HIT when neither the operator nor the
/// backend overrides it (the paper's 5).
pub const DEFAULT_ASSIGNMENTS: u32 = 5;

/// Latency guess per HIT before any query has been observed (roughly
/// one worker round-trip at the simulator's default arrival rates).
pub const FALLBACK_SECS_PER_HIT: f64 = 60.0;

/// Worker-effort units per question, taken from the simulator's own
/// effort model so the cost model can never drift out of sync with it.
fn filter_unit() -> f64 {
    Question::Filter {
        item: ItemId(0),
        predicate: String::new(),
    }
    .work_units()
}

fn feature_unit() -> f64 {
    Question::Feature {
        item: ItemId(0),
        feature: String::new(),
        num_options: 2,
    }
    .work_units()
}

fn join_pair_unit() -> f64 {
    Question::JoinPair {
        left: ItemId(0),
        right: ItemId(0),
    }
    .work_units()
}

fn rate_unit() -> f64 {
    Question::Rate {
        item: ItemId(0),
        dimension: String::new(),
        scale: 7,
        context: Vec::new(),
    }
    .work_units()
}

fn compare_unit(group_size: usize) -> f64 {
    Question::CompareGroup {
        items: vec![ItemId(0); group_size],
        dimension: String::new(),
    }
    .work_units()
}

fn pick_unit(batch: usize) -> f64 {
    Question::PickBest {
        items: vec![ItemId(0); batch],
        dimension: String::new(),
        want_max: true,
    }
    .work_units()
}

fn smart_hit_unit(rows: usize, cols: usize) -> f64 {
    hit_work_units(HitKind::JoinSmart { rows, cols }, &[])
}

/// Above this input size the compare-sort estimate switches from the
/// exact covering-design count to the `N(N−1)/(S(S−1))` bound. The
/// exact count runs the real generator, O(N³/S) (about 2 ms at N = 128,
/// S = 5 in release); the threshold also decides where QA004 starts
/// warning, so moving it changes estimates and diagnostics. It also
/// bounds what [`CompareSort::group_plan`] retains: the one plan it
/// keeps is of at most this many items.
pub const EXACT_COMPARE_PLAN_MAX_N: usize = 256;

/// Estimated resource usage of a (sub)plan. Additive across operators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    pub hits: f64,
    /// Sequential operator rounds (HIT-group post → completion
    /// cycles): the unit of the latency model's fixed overhead.
    pub rounds: f64,
    pub assignments: f64,
    pub dollars: f64,
    pub latency_secs: f64,
}

impl CostEstimate {
    pub const ZERO: CostEstimate = CostEstimate {
        hits: 0.0,
        rounds: 0.0,
        assignments: 0.0,
        dollars: 0.0,
        latency_secs: 0.0,
    };
}

impl std::ops::Add for CostEstimate {
    type Output = CostEstimate;
    fn add(self, rhs: CostEstimate) -> CostEstimate {
        CostEstimate {
            hits: self.hits + rhs.hits,
            rounds: self.rounds + rhs.rounds,
            assignments: self.assignments + rhs.assignments,
            dollars: self.dollars + rhs.dollars,
            latency_secs: self.latency_secs + rhs.latency_secs,
        }
    }
}

impl std::ops::AddAssign for CostEstimate {
    fn add_assign(&mut self, rhs: CostEstimate) {
        *self = *self + rhs;
    }
}

/// Prices a HIT count into a full [`CostEstimate`] and implements the
/// per-operator formulas above.
pub struct CostModel<'a> {
    stats: &'a StatisticsStore,
}

impl<'a> CostModel<'a> {
    pub fn new(stats: &'a StatisticsStore) -> Self {
        CostModel { stats }
    }

    /// Price `hits` HITs carrying `units` of per-assignment worker
    /// effort, spread over `rounds` sequential post→collect cycles,
    /// at `assignments` assignments each. Latency follows the learned
    /// round model `rounds·α + total_work·β` where total_work is the
    /// effort replicated across assignments (falling back to the
    /// per-query seconds-per-HIT average, then to a constant).
    pub fn charge(
        &self,
        hits: f64,
        rounds: f64,
        units: f64,
        assignments: Option<u32>,
    ) -> CostEstimate {
        if hits <= 0.0 {
            return CostEstimate::ZERO;
        }
        let per_hit = assignments.unwrap_or(DEFAULT_ASSIGNMENTS) as f64;
        let assignments = hits * per_hit;
        let latency_secs = match self.stats.latency_params() {
            Some((alpha, beta)) => rounds * alpha + units * per_hit * beta,
            None => hits * self.stats.secs_per_hit().unwrap_or(FALLBACK_SECS_PER_HIT),
        };
        CostEstimate {
            hits,
            rounds,
            assignments,
            dollars: assignments * Price::PAPER.per_assignment(),
            latency_secs,
        }
    }

    // ------------------------------------------------------- filters

    /// One crowd filter over `rows` tuples (§2.6 merging): one round.
    pub fn filter(&self, rows: f64, op: &FilterOp) -> CostEstimate {
        self.charge(
            ceil_div(rows, op.batch_size),
            1.0,
            rows * filter_unit(),
            op.assignments,
        )
    }

    /// `k` conjunct filters combined into shared HITs (§2.6
    /// combining): HIT count is independent of `k`.
    pub fn combined_filter(&self, rows: f64, k: usize, op: &FilterOp) -> CostEstimate {
        self.charge(
            ceil_div(rows, op.batch_size),
            1.0,
            rows * k as f64 * filter_unit(),
            op.assignments,
        )
    }

    /// Serial conjunct filters: each stage only sees the survivors of
    /// the previous one. `selectivities[i]` shrinks the input of stage
    /// `i + 1` (unknown = 1.0, i.e. no shrinkage assumed).
    pub fn serial_filters(&self, rows: f64, selectivities: &[f64], op: &FilterOp) -> CostEstimate {
        let mut remaining = rows;
        let mut total = CostEstimate::ZERO;
        for &sel in selectivities {
            total += self.filter(remaining, op);
            remaining *= sel.clamp(0.0, 1.0);
        }
        total
    }

    // --------------------------------------------------------- joins

    /// A crowd join scoring `pairs` candidate pairs drawn from an
    /// `n × m` cross product (§3.1). For SmartBatch the grid packs
    /// left rows even when most of their pairs were pruned, so the
    /// estimate accounts for the expected distinct right items per
    /// left chunk.
    pub fn join(
        &self,
        n: f64,
        m: f64,
        pairs: f64,
        strategy: JoinStrategy,
        assignments: Option<u32>,
    ) -> CostEstimate {
        if pairs <= 0.0 {
            return CostEstimate::ZERO;
        }
        let (hits, units) = match strategy {
            JoinStrategy::Simple => (pairs, pairs * join_pair_unit()),
            JoinStrategy::NaiveBatch(b) => (ceil_div(pairs, b), pairs * join_pair_unit()),
            JoinStrategy::SmartBatch { rows, cols } => {
                // Per-pair survival probability under the feature
                // filter; 1.0 when nothing was pruned.
                let p = if n > 0.0 && m > 0.0 {
                    (pairs / (n * m)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                // A chunk of `rows` left items references a right item
                // iff any of its pairs with it survived.
                let distinct_rights = m * (1.0 - (1.0 - p).powi(rows as i32));
                let hits = ceil_div(n, rows) * ceil_div(distinct_rights.max(1.0), cols);
                // Grid effort is per interface, not per pair.
                (hits, hits * smart_hit_unit(rows, cols))
            }
        };
        self.charge(hits, 1.0, units, assignments)
    }

    // ------------------------------------------------------ features

    /// Extract `k` features of `rows` items on one table (§3.2/§3.3.4).
    pub fn feature_extraction(
        &self,
        rows: f64,
        k: usize,
        cfg: &FeatureFilterConfig,
    ) -> CostEstimate {
        if rows <= 0.0 || k == 0 {
            return CostEstimate::ZERO;
        }
        let per_table = if cfg.combined_interface {
            ceil_div(rows, cfg.batch_size)
        } else {
            k as f64 * ceil_div(rows, cfg.batch_size)
        };
        // One group per extraction call regardless of feature count.
        self.charge(
            per_table,
            1.0,
            rows * k as f64 * feature_unit(),
            cfg.assignments,
        )
    }

    /// The full §3.2 pipeline over an `n × m` join: sampled extraction
    /// of all `k` candidate features on both tables, then full
    /// extraction of the `k_kept` survivors.
    pub fn feature_filter(
        &self,
        n: f64,
        m: f64,
        k: usize,
        k_kept: usize,
        cfg: &FeatureFilterConfig,
    ) -> CostEstimate {
        if k == 0 {
            return CostEstimate::ZERO;
        }
        // As the operator samples: at least one row of a non-empty table.
        let sample = |rows: f64| {
            (rows * cfg.sample_fraction)
                .ceil()
                .clamp(rows.min(1.0), rows)
        };
        let mut total =
            self.feature_extraction(sample(n), k, cfg) + self.feature_extraction(sample(m), k, cfg);
        total += self.feature_extraction(n, k_kept, cfg) + self.feature_extraction(m, k_kept, cfg);
        total
    }

    // --------------------------------------------------------- sorts

    /// Number of comparison groups a full sort of `n` items needs
    /// (§4.1.1): exact covering-design size for small inputs, the
    /// `N(N−1)/(S(S−1))` bound (with the greedy generator's observed
    /// ~20% overshoot) beyond.
    pub fn compare_sort_groups(&self, n: usize, op: &CompareSort) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let s = op.group_size.max(2).min(n);
        if n <= EXACT_COMPARE_PLAN_MAX_N {
            CompareSort::group_plan(n, s, op.seed).len() as f64
        } else {
            let bound = (n * (n - 1)) as f64 / (s * (s - 1)) as f64;
            (bound * 1.2).ceil()
        }
    }

    /// A crowd sort of `n` items under the given mode.
    pub fn sort(&self, n: usize, mode: &SortMode) -> CostEstimate {
        match mode {
            SortMode::Compare(op) => {
                let groups = self.compare_sort_groups(n, op);
                self.charge(
                    ceil_div(groups, op.groups_per_hit.max(1)),
                    1.0,
                    groups * compare_unit(op.group_size.max(2).min(n.max(2))),
                    op.assignments,
                )
            }
            SortMode::Rate(op) => self.charge(
                ceil_div(n as f64, op.batch_size),
                1.0,
                n as f64 * rate_unit(),
                op.assignments,
            ),
            SortMode::Hybrid(op, iterations) => {
                let rate = self.charge(
                    ceil_div(n as f64, op.rate.batch_size),
                    1.0,
                    n as f64 * rate_unit(),
                    op.rate.assignments,
                );
                // Each hybrid iteration is its own one-HIT round.
                let extra = if n <= 1 { 0.0 } else { *iterations as f64 };
                rate + self.charge(
                    extra,
                    extra,
                    extra * compare_unit(op.window.max(2)),
                    op.assignments,
                )
            }
        }
    }

    /// MAX/MIN tournament extraction over `n` items (§2.3): winners
    /// advance until one remains.
    pub fn extract_best(&self, n: usize, batch: usize, assignments: Option<u32>) -> CostEstimate {
        let b = batch.max(2);
        let mut pool = n;
        let mut hits = 0.0;
        let mut levels = 0.0;
        while pool > 1 {
            let this_level = pool.div_ceil(b);
            hits += this_level as f64;
            levels += 1.0;
            pool = this_level;
        }
        self.charge(hits, levels, hits * pick_unit(b), assignments)
    }

    /// A generative SELECT-item extraction pass over `rows` tuples
    /// (§2.2's Fields mechanism; free-text answers cost about twice a
    /// Yes/No question).
    pub fn generative_select(&self, rows: f64) -> CostEstimate {
        let gen_unit = Question::Generative {
            item: ItemId(0),
            field: String::new(),
        }
        .work_units();
        self.charge(ceil_div(rows, 5), 1.0, rows * gen_unit, None)
    }
}

fn ceil_div(x: f64, b: usize) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        (x / b.max(1) as f64).ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sort::{HybridSort, RateSort};

    fn model(stats: &StatisticsStore) -> CostModel<'_> {
        CostModel::new(stats)
    }

    #[test]
    fn filter_merging_formula() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        let op = FilterOp::default(); // batch 5
        assert_eq!(m.filter(211.0, &op).hits, 43.0); // Table 5's Filter row
        assert_eq!(m.filter(0.0, &op).hits, 0.0);
    }

    #[test]
    fn serial_filters_shrink_by_selectivity() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        let op = FilterOp::default();
        // 20 rows, first filter passes half: 4 + 2 HITs.
        let est = m.serial_filters(20.0, &[0.5, 1.0], &op);
        assert_eq!(est.hits, 6.0);
        // Combining the same two filters costs 4.
        assert_eq!(m.combined_filter(20.0, 2, &op).hits, 4.0);
    }

    #[test]
    fn join_formulas_match_paper_arithmetic() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        // §3.3.2: a 30×30 join.
        let simple = m.join(30.0, 30.0, 900.0, JoinStrategy::Simple, None);
        assert_eq!(simple.hits, 900.0);
        // 10 assignments × $0.015 = $135 at 10 assignments.
        let simple10 = m.join(30.0, 30.0, 900.0, JoinStrategy::Simple, Some(10));
        assert!((simple10.dollars - 135.0).abs() < 1e-9);
        let naive = m.join(30.0, 30.0, 900.0, JoinStrategy::NaiveBatch(10), None);
        assert_eq!(naive.hits, 90.0);
        // Smart 5×5 with no pruning is the full grid: 6 × 6 = 36.
        let smart = m.join(
            30.0,
            30.0,
            900.0,
            JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            None,
        );
        assert_eq!(smart.hits, 36.0);
    }

    #[test]
    fn smart_join_accounts_for_pruning() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        // Heavy pruning (1% of pairs survive): far fewer grids than
        // the full 6×6-per-chunk packing.
        let pruned = m.join(
            30.0,
            30.0,
            9.0,
            JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            None,
        );
        let full = m.join(
            30.0,
            30.0,
            900.0,
            JoinStrategy::SmartBatch { rows: 5, cols: 5 },
            None,
        );
        assert!(
            pruned.hits < full.hits / 2.0,
            "{} vs {}",
            pruned.hits,
            full.hits
        );
    }

    #[test]
    fn sort_formulas() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        // Rate is linear.
        let rate = m.sort(30, &SortMode::Rate(RateSort::default()));
        assert_eq!(rate.hits, 6.0);
        // Compare matches the exact covering design of the operator.
        let op = CompareSort::default();
        let exact = CompareSort::plan_groups(40, 5, op.seed).len() as f64;
        let cmp = m.sort(40, &SortMode::Compare(op));
        assert_eq!(cmp.hits, exact);
        // Hybrid = rate pass + one HIT per iteration.
        let hybrid = m.sort(30, &SortMode::Hybrid(HybridSort::default(), 12));
        assert_eq!(hybrid.hits, 6.0 + 12.0);
    }

    #[test]
    fn tournament_extraction_formula() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        // 20 items in batches of 5: 4 + 1 HITs.
        assert_eq!(m.extract_best(20, 5, None).hits, 5.0);
        assert_eq!(m.extract_best(1, 5, None).hits, 0.0);
    }

    #[test]
    fn feature_filter_counts_sample_and_full_passes() {
        let stats = StatisticsStore::new();
        let m = model(&stats);
        let cfg = FeatureFilterConfig::default(); // batch 5, combined, 25% sample
                                                  // 20×20 join, 2 features sampled, 1 kept: samples of 5 items
                                                  // each side (1 HIT per table) plus full extraction (4 HITs per
                                                  // table).
        let est = m.feature_filter(20.0, 20.0, 2, 1, &cfg);
        assert_eq!(est.hits, 1.0 + 1.0 + 4.0 + 4.0);
        assert_eq!(m.feature_filter(20.0, 20.0, 0, 0, &cfg).hits, 0.0);
    }

    #[test]
    fn latency_uses_learned_secs_per_hit() {
        let mut stats = StatisticsStore::new();
        stats.record_epoch(10, 500.0);
        let m = CostModel::new(&stats);
        let est = m.charge(4.0, 1.0, 20.0, None);
        assert!((est.latency_secs - 200.0).abs() < 1e-9);
        assert!((est.dollars - 4.0 * 5.0 * 0.015).abs() < 1e-9);
    }

    #[test]
    fn latency_prefers_the_round_regression() {
        let mut stats = StatisticsStore::new();
        // round_secs = 300 + 10·units.
        stats.record_round(2.0, 320.0);
        stats.record_round(10.0, 400.0);
        let m = CostModel::new(&stats);
        // 4 HITs carrying 1.2 units each at 5 assignments: total work
        // 4 × 1.2 × 5 = 24 units over 2 rounds.
        let est = m.charge(4.0, 2.0, 4.8, None);
        // 2 rounds × 300 + 24 units × 10.
        assert!((est.latency_secs - 840.0).abs() < 1e-6, "{est:?}");
        assert_eq!(est.rounds, 2.0);
    }
}

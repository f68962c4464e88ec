//! The statistics store the paper says Qurk lacks.
//!
//! §2.5: "Qurk currently lacks selectivity estimation, so it orders
//! filters and joins as they appear in the query." This module is that
//! missing piece: a [`StatisticsStore`] that learns, from completed
//! crowd work, exactly the quantities the paper's experiments measure
//! by hand —
//!
//! * per-filter-task **selectivity** (fraction of tuples passing, the
//!   σ driving §2.5 filter ordering),
//! * per-join-task **match selectivity** (matches / pairs asked, the
//!   cardinality input to §3.1's batching arithmetic),
//! * per-feature **Fleiss κ ambiguity and selectivity** (§3.2's two
//!   automatic feature-filter tests, remembered across queries so a
//!   known-bad feature is never sampled again — the §5.4 threshold),
//! * per-dimension **sort ambiguity** (worker disagreement, Figure 6's
//!   κ signal, deciding Compare vs Rate vs Hybrid per §4.3),
//! * observed **seconds-per-HIT** from executed queries, each read
//!   from the Task Cache groups it posted (the latency leg of the
//!   cost model).
//!
//! Observations are running tallies: the store starts empty, every
//! executed operator feeds it, and estimates are exposed as `Option` —
//! `None` means "no evidence", which the planner treats as "keep the
//! as-written plan".
//!
//! The multi-tenant service ([`crate::service`]) keeps one plain
//! store: each query records what it observes into a fresh, empty
//! store while running, and the service [`StatisticsStore::merge`]s
//! those deltas in submission order once the batch ends. Concurrent
//! queries therefore never observe each other's half-finished
//! evidence, and no update is lost (deltas of monotone counters merge
//! associatively).

use std::collections::HashMap;

/// A pass/fail tally (filter tuples, join pairs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub seen: u64,
    pub passed: u64,
}

impl Tally {
    /// Observed pass fraction; `None` until something was seen.
    pub fn fraction(&self) -> Option<f64> {
        (self.seen > 0).then(|| self.passed as f64 / self.seen as f64)
    }
}

/// Learned quality numbers for one feature-extraction task (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureStat {
    /// Pooled Fleiss κ over the last sampled extraction.
    pub kappa: f64,
    /// Estimated pair selectivity σ = Σ ρL·ρR.
    pub selectivity: f64,
}

/// Running mean without the sample history.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Avg {
    pub(crate) n: u64,
    pub(crate) sum: f64,
}

impl Avg {
    fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
    }

    fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Cross-query operator statistics, owned by a
/// [`Session`](crate::session::Session) and fed by every executed
/// crowd operator plus each query's latency and rounds, read from the
/// Task Cache groups it posted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatisticsStore {
    /// Filter-task pass tallies, keyed by the task's oracle key.
    pub(crate) filters: HashMap<String, Tally>,
    /// Join-task (pairs asked, matches) tallies, keyed by task name.
    pub(crate) joins: HashMap<String, Tally>,
    /// Feature-task κ/σ from sampled extractions, keyed by task name.
    pub(crate) features: HashMap<String, FeatureStat>,
    /// Sort-dimension ambiguity in [0, 1], keyed by dimension name.
    pub(crate) sorts: HashMap<String, Avg>,
    /// Observed crowd latency: total live HITs and elapsed seconds
    /// across completed queries.
    pub(crate) epoch_hits: u64,
    pub(crate) epoch_secs: f64,
    /// Per-round observations for the latency regression
    /// `round_secs ≈ α + β · work_units`: count, Σw, Σt, Σw², Σw·t.
    pub(crate) rounds: RoundSums,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RoundSums {
    pub(crate) n: u64,
    pub(crate) sum_h: f64,
    pub(crate) sum_t: f64,
    pub(crate) sum_hh: f64,
    pub(crate) sum_ht: f64,
}

impl StatisticsStore {
    pub fn new() -> Self {
        StatisticsStore::default()
    }

    /// True if nothing has been observed yet (the planner degrades to
    /// as-written plans in that case).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
            && self.joins.is_empty()
            && self.features.is_empty()
            && self.sorts.is_empty()
            && self.epoch_hits == 0
            && self.rounds.n == 0
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        *self = StatisticsStore::default();
    }

    // ---------------------------------------------------- observation

    /// A crowd filter evaluated `seen` tuples and passed `passed`.
    pub fn record_filter(&mut self, task: &str, seen: usize, passed: usize) {
        let t = self.filters.entry(task.to_owned()).or_default();
        t.seen += seen as u64;
        t.passed += passed as u64;
    }

    /// A crowd join scored `pairs` candidate pairs and matched
    /// `matches` of them.
    pub fn record_join(&mut self, task: &str, pairs: usize, matches: usize) {
        let t = self.joins.entry(task.to_owned()).or_default();
        t.seen += pairs as u64;
        t.passed += matches as u64;
    }

    /// A feature extraction measured this κ and selectivity (§3.2's
    /// sampled tests). Later observations replace earlier ones — the
    /// freshest sample wins.
    pub fn record_feature(&mut self, task: &str, kappa: f64, selectivity: f64) {
        self.features
            .insert(task.to_owned(), FeatureStat { kappa, selectivity });
    }

    /// A crowd sort of this dimension measured worker disagreement
    /// `ambiguity` ∈ [0, 1] (0 = unanimous, 1 = coin flips).
    pub fn record_sort(&mut self, dimension: &str, ambiguity: f64) {
        self.sorts
            .entry(dimension.to_owned())
            .or_default()
            .push(ambiguity.clamp(0.0, 1.0));
    }

    /// One completed query: its `hits` live HITs took `secs` of
    /// virtual time. Queries with no HITs teach nothing about latency.
    pub fn record_epoch(&mut self, hits: u64, secs: f64) {
        if hits > 0 && secs.is_finite() && secs >= 0.0 {
            self.epoch_hits += hits;
            self.epoch_secs += secs;
        }
    }

    /// One completed HIT group (an operator round): `work_units` of
    /// total worker effort (Σ spec work-units × assignments) took
    /// `secs` from posting to last completion. Feeds the
    /// round-latency regression behind [`Self::latency_params`].
    pub fn record_round(&mut self, work_units: f64, secs: f64) {
        if work_units <= 0.0 || !work_units.is_finite() || !secs.is_finite() || secs <= 0.0 {
            return;
        }
        let h = work_units;
        self.rounds.n += 1;
        self.rounds.sum_h += h;
        self.rounds.sum_t += secs;
        self.rounds.sum_hh += h * h;
        self.rounds.sum_ht += h * secs;
    }

    // ------------------------------------------------------ estimates

    /// Observed selectivity of a filter task.
    pub fn filter_selectivity(&self, task: &str) -> Option<f64> {
        self.filters.get(task).and_then(Tally::fraction)
    }

    /// Observed match rate of a join task (matches per pair asked).
    pub fn join_selectivity(&self, task: &str) -> Option<f64> {
        self.joins.get(task).and_then(Tally::fraction)
    }

    /// Learned κ/σ for a feature task.
    pub fn feature(&self, task: &str) -> Option<FeatureStat> {
        self.features.get(task).copied()
    }

    /// Mean observed ambiguity of a sort dimension.
    pub fn sort_ambiguity(&self, dimension: &str) -> Option<f64> {
        self.sorts.get(dimension).and_then(Avg::mean)
    }

    /// Mean observed seconds of crowd latency per HIT.
    pub fn secs_per_hit(&self) -> Option<f64> {
        (self.epoch_hits > 0).then(|| self.epoch_secs / self.epoch_hits as f64)
    }

    /// Latency model parameters `(α, β)` with
    /// `round_secs ≈ α + β · work_units`: α is the fixed per-round
    /// overhead (posting, first worker arrivals — empirically the
    /// dominant term for small rounds, since workers rarely engage
    /// with groups offering little work), β the marginal service time
    /// per assignment work-unit. Least squares over observed rounds.
    ///
    /// Degenerate fits are split 50/50 between overhead and service:
    /// when every observed round had the same effort — or noise made
    /// the slope negative — half the mean round time is attributed to
    /// α and half spread over the mean effort, so both "many tiny
    /// rounds" and "one huge round" plans extrapolate sanely instead
    /// of collapsing to a pure per-unit (or pure per-round) rate.
    /// `None` with no observations.
    pub fn latency_params(&self) -> Option<(f64, f64)> {
        let r = &self.rounds;
        if r.n == 0 {
            return None;
        }
        let n = r.n as f64;
        let det = n * r.sum_hh - r.sum_h * r.sum_h;
        if r.n >= 2 && det.abs() > 1e-9 {
            let beta = (n * r.sum_ht - r.sum_h * r.sum_t) / det;
            let alpha = (r.sum_t - beta * r.sum_h) / n;
            if beta >= 0.0 && alpha >= 0.0 {
                return Some((alpha, beta));
            }
        }
        let mean_t = r.sum_t / n;
        let mean_h = r.sum_h / n;
        Some((0.5 * mean_t, 0.5 * mean_t / mean_h))
    }

    /// Fold another store's evidence into this one (e.g. importing a
    /// previous session's statistics).
    ///
    /// Merge is **associative**, and **commutative for every tallied
    /// quantity** (filters, joins, sorts, query latencies, rounds are sums).
    /// The one documented tiebreak: `features` is latest-wins, so when
    /// both stores carry the same feature key, the store merged
    /// **later** (submission order in the service's `finish`)
    /// provides the surviving κ/σ sample. Up to that tiebreak, merge
    /// is order-insensitive (property-tested in
    /// `tests/statistics_persistence.rs`).
    pub fn merge(&mut self, other: &StatisticsStore) {
        for (k, t) in &other.filters {
            let e = self.filters.entry(k.clone()).or_default();
            e.seen += t.seen;
            e.passed += t.passed;
        }
        for (k, t) in &other.joins {
            let e = self.joins.entry(k.clone()).or_default();
            e.seen += t.seen;
            e.passed += t.passed;
        }
        for (k, f) in &other.features {
            self.features.insert(k.clone(), *f);
        }
        for (k, a) in &other.sorts {
            let e = self.sorts.entry(k.clone()).or_default();
            e.n += a.n;
            e.sum += a.sum;
        }
        self.epoch_hits += other.epoch_hits;
        self.epoch_secs += other.epoch_secs;
        self.rounds.n += other.rounds.n;
        self.rounds.sum_h += other.rounds.sum_h;
        self.rounds.sum_t += other.rounds.sum_t;
        self.rounds.sum_hh += other.rounds.sum_hh;
        self.rounds.sum_ht += other.rounds.sum_ht;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_has_no_estimates() {
        let s = StatisticsStore::new();
        assert!(s.is_empty());
        assert_eq!(s.filter_selectivity("f"), None);
        assert_eq!(s.join_selectivity("j"), None);
        assert!(s.feature("g").is_none());
        assert_eq!(s.sort_ambiguity("d"), None);
        assert_eq!(s.secs_per_hit(), None);
    }

    #[test]
    fn filter_selectivity_accumulates() {
        let mut s = StatisticsStore::new();
        s.record_filter("f", 10, 2);
        s.record_filter("f", 10, 4);
        assert_eq!(s.filter_selectivity("f"), Some(0.3));
        assert!(!s.is_empty());
    }

    #[test]
    fn feature_latest_sample_wins() {
        let mut s = StatisticsStore::new();
        s.record_feature("hair", 0.9, 0.4);
        s.record_feature("hair", 0.1, 0.5);
        let f = s.feature("hair").unwrap();
        assert_eq!(f.kappa, 0.1);
        assert_eq!(f.selectivity, 0.5);
    }

    #[test]
    fn sort_ambiguity_averages_and_clamps() {
        let mut s = StatisticsStore::new();
        s.record_sort("area", 0.2);
        s.record_sort("area", 1.8); // clamped to 1.0
        assert_eq!(s.sort_ambiguity("area"), Some(0.6));
    }

    #[test]
    fn epoch_latency_averages_per_hit() {
        let mut s = StatisticsStore::new();
        s.record_epoch(0, 100.0); // no HITs: ignored
        s.record_epoch(10, 200.0);
        s.record_epoch(10, 400.0);
        assert_eq!(s.secs_per_hit(), Some(30.0));
    }

    #[test]
    fn latency_regression_separates_overhead_from_service() {
        let mut s = StatisticsStore::new();
        // round_secs = 100 + 20·units, exactly.
        s.record_round(1.0, 120.0);
        s.record_round(5.0, 200.0);
        s.record_round(10.0, 300.0);
        let (alpha, beta) = s.latency_params().unwrap();
        assert!((alpha - 100.0).abs() < 1e-6, "alpha={alpha}");
        assert!((beta - 20.0).abs() < 1e-6, "beta={beta}");
    }

    #[test]
    fn latency_uniform_rounds_split_overhead_and_service() {
        let mut s = StatisticsStore::new();
        s.record_round(4.0, 200.0);
        s.record_round(4.0, 200.0);
        let (alpha, beta) = s.latency_params().unwrap();
        assert!((alpha - 100.0).abs() < 1e-9);
        assert!((beta - 25.0).abs() < 1e-9);
        assert_eq!(StatisticsStore::new().latency_params(), None);
    }

    #[test]
    fn latency_negative_slope_degrades_to_split() {
        let mut s = StatisticsStore::new();
        // Bigger round finished faster (noise): no negative β leaks.
        s.record_round(10.0, 100.0);
        s.record_round(2.0, 300.0);
        let (alpha, beta) = s.latency_params().unwrap();
        assert!(alpha >= 0.0 && beta >= 0.0, "({alpha}, {beta})");
    }

    #[test]
    fn merge_combines_evidence() {
        let mut a = StatisticsStore::new();
        a.record_filter("f", 10, 5);
        a.record_join("j", 100, 10);
        a.record_sort("d", 0.4);
        let mut b = StatisticsStore::new();
        b.record_filter("f", 10, 1);
        b.record_feature("g", 0.8, 0.5);
        b.record_epoch(5, 50.0);
        a.merge(&b);
        assert_eq!(a.filter_selectivity("f"), Some(0.3));
        assert_eq!(a.join_selectivity("j"), Some(0.1));
        assert!(a.feature("g").is_some());
        assert_eq!(a.secs_per_hit(), Some(10.0));
    }
}

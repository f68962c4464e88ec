//! Worker population and per-archetype answer models.
//!
//! The simulator's workers are a mixture of archetypes calibrated
//! against the aggregate behaviours the paper reports:
//!
//! * **Diligent** — low-noise perception; the majority of assignments.
//! * **Sloppy** — higher perceptual noise and more skipped grid pairs;
//!   "workers … attempt to game the marketplace by doing a minimal
//!   amount of work" (§1) sits between Sloppy and Spammer.
//! * **Spammer** — answers carry no information: constant or random
//!   buttons, no clicks in grid interfaces, constant ratings. The
//!   QualityAdjust combiner must identify these (§3.3.2: "QA includes
//!   filters for identifying spammers and sloppy workers, and these
//!   larger, batched schemes are more attractive to workers that
//!   quickly and inaccurately complete the tasks").
//! * **Biased** — systematically shifted answers (Likert offset, a
//!   tendency toward "No"); informative once the EM bias correction
//!   decodes them.
//!
//! All randomness flows through the caller's RNG so runs are
//! reproducible.

// lint:hot-path

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::question::{Answer, HitContext, HitKind, Question, UNKNOWN};
use crate::rng::{normal, shuffle, ZipfSampler};
use crate::truth::{Dimension, GroundTruth, ItemId};

/// Worker identifier (dense index into the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

/// How a spammer fills out forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpamStrategy {
    /// Clicks the affirmative button everywhere.
    AlwaysYes,
    /// Clicks the negative button everywhere (in grid interfaces this
    /// is the "no matches" checkbox — the laziest possible submit).
    AlwaysNo,
    /// Uniformly random buttons.
    Random,
    /// The same Likert value / category every time.
    Constant,
}

/// Behavioural class of a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerArchetype {
    Diligent,
    Sloppy,
    Spammer(SpamStrategy),
    /// Informative but systematically biased.
    Biased,
}

/// A simulated worker.
#[derive(Debug, Clone)]
pub struct Worker {
    pub id: WorkerId,
    pub archetype: WorkerArchetype,
    /// Perceptual noise multiplier (1.0 = median careful worker).
    pub noise: f64,
    /// Additive Likert bias in scale points.
    pub rating_bias: f64,
    /// Seconds of work per work-unit (speed).
    pub secs_per_unit: f64,
    /// Largest HIT (in work units) this worker will accept for the
    /// fixed $0.01 price. §4.2.2: acceptance collapses for comparison
    /// groups above size 10.
    pub max_work_units: f64,
    /// Number of assignments completed so far (for §3.3.3 analysis).
    pub completed: usize,
}

impl Worker {
    /// Answer every question in a HIT.
    pub fn answer_hit(
        &self,
        questions: &[Question],
        ctx: HitContext,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> Vec<Answer> {
        questions
            .iter()
            .map(|q| self.answer(q, ctx, truth, rng))
            .collect()
    }

    /// Answer a single question.
    pub fn answer(
        &self,
        question: &Question,
        ctx: HitContext,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> Answer {
        match question {
            Question::Filter { item, predicate } => {
                Answer::Bool(self.answer_filter(*item, predicate, truth, rng))
            }
            Question::Feature {
                item,
                feature,
                num_options,
            } => {
                Answer::Category(self.answer_feature(*item, feature, *num_options, ctx, truth, rng))
            }
            Question::Generative { item, field } => {
                Answer::Text(self.answer_generative(*item, field, truth, rng))
            }
            Question::JoinPair { left, right } => {
                Answer::Bool(self.answer_join(*left, *right, ctx, truth, rng))
            }
            Question::CompareGroup { items, dimension } => {
                Answer::Ordering(self.answer_compare(items, dimension, truth, rng))
            }
            Question::Rate {
                item,
                dimension,
                scale,
                ..
            } => Answer::Rating(self.answer_rate(*item, dimension, *scale, truth, rng)),
            Question::PickBest {
                items,
                dimension,
                want_max,
            } => Answer::Pick(self.answer_pick(items, dimension, *want_max, truth, rng)),
        }
    }

    // ---- per-question models ----

    fn answer_filter(
        &self,
        item: ItemId,
        predicate: &str,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> bool {
        let t = truth.predicate(item, predicate);
        let (value, base_err) = match t {
            Some(p) => (p.value, p.error_rate),
            None => (false, 0.5), // unregistered predicate: coin flip
        };
        match self.archetype {
            WorkerArchetype::Spammer(s) => spam_bool(s, rng),
            WorkerArchetype::Biased => {
                // Leans "No": flips positive answers 15% of the time on
                // top of the base error.
                let err = (base_err * self.noise).min(0.45);
                let mut v = flip(value, err, rng);
                if v && rng.random::<f64>() < 0.15 {
                    v = false;
                }
                v
            }
            _ => {
                let err = (base_err * self.noise).min(0.45);
                flip(value, err, rng)
            }
        }
    }

    fn answer_feature(
        &self,
        item: ItemId,
        feature: &str,
        num_options: usize,
        ctx: HitContext,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> usize {
        match self.archetype {
            WorkerArchetype::Spammer(SpamStrategy::Constant) => 0,
            WorkerArchetype::Spammer(_) => rng.random_range(0..num_options.max(1)),
            _ => {
                let ft = if matches!(ctx.kind, HitKind::FeatureCombined) {
                    truth.feature_combined(item, feature)
                } else {
                    truth.feature(item, feature)
                };
                let Some(ft) = ft else {
                    return rng.random_range(0..num_options.max(1));
                };
                // Sloppy workers blend the careful distribution with
                // uniform noise; diligent use it as-is.
                let uniform_mix = match self.archetype {
                    WorkerArchetype::Sloppy => 0.12,
                    WorkerArchetype::Biased => 0.06,
                    _ => 0.0,
                };
                let k = num_options.max(1);
                let u: f64 = rng.random();
                if u < uniform_mix {
                    return rng.random_range(0..k);
                }
                let draw: f64 = rng.random();
                let mut acc = 0.0;
                for (i, &p) in ft.report_probs.iter().enumerate() {
                    acc += p;
                    if draw < acc {
                        return if i >= k { UNKNOWN } else { i };
                    }
                }
                ft.value
            }
        }
    }

    fn answer_generative(
        &self,
        item: ItemId,
        field: &str,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> String {
        if let WorkerArchetype::Spammer(_) = self.archetype {
            return "asdf".to_owned();
        }
        let Some(tt) = truth.text(item, field) else {
            return String::new();
        };
        let draw: f64 = rng.random();
        let mut acc = 0.0;
        for (s, p) in &tt.variants {
            acc += p;
            if draw < acc {
                // lint:allow(hot-clone): the answer owns the typed text
                return s.clone();
            }
        }
        tt.variants
            .first()
            // lint:allow(hot-clone): the answer owns the typed text
            .map(|(s, _)| s.clone())
            .unwrap_or_default()
    }

    fn answer_join(
        &self,
        left: ItemId,
        right: ItemId,
        ctx: HitContext,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> bool {
        let same = truth.same_entity(left, right);
        if let WorkerArchetype::Spammer(s) = self.archetype {
            // In grid interfaces the lazy submit is "no matches".
            if matches!(ctx.kind, HitKind::JoinSmart { .. }) {
                return false;
            }
            return spam_bool(s, rng);
        }

        // Interface-driven miss model. Grid interfaces cause genuine
        // workers to overlook matching pairs as the grid grows; stacked
        // batches cause mild fatigue.
        let miss_mult = match ctx.kind {
            HitKind::JoinSmart { rows, cols } => {
                // Grows with grid size but saturates: 2x2 behaves like
                // Simple, 3x3 roughly doubles the miss rate (the
                // paper's 53% per-vote TP), and 5x5 degrades only a
                // little further (workers scan columns, not cells —
                // §5.2 found 5x5 acceptable).
                let cells = (rows * cols) as f64;
                1.0 + (0.2 * (cells - 4.0).max(0.0)).min(1.4)
            }
            HitKind::JoinNaive => 1.0 + 0.02 * ctx.total_work_units,
            _ => 1.0,
        };

        // Calibrated to the paper's measured per-vote rates: the average
        // worker answered matching pairs correctly 78% of the time in
        // the Simple interface and 53% in Smart 3x3 (§3.3.2).
        let base_miss = match self.archetype {
            WorkerArchetype::Diligent => 0.15,
            WorkerArchetype::Sloppy => 0.35,
            WorkerArchetype::Biased => 0.20,
            WorkerArchetype::Spammer(_) => unreachable!(),
        } * self.noise
            * miss_mult;

        if same {
            flip(true, base_miss.min(0.85), rng)
        } else {
            // False positives scale with entity similarity; nearly zero
            // for dissimilar pairs (Table 1: 376–380/380 true negatives).
            let sim = truth.similarity(left, right);
            let fp = (0.004 + 0.10 * sim * sim) * self.noise;
            rng.random::<f64>() < fp.min(0.5)
        }
    }

    fn answer_compare(
        &self,
        items: &[ItemId],
        dimension: &str,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> Vec<ItemId> {
        if let WorkerArchetype::Spammer(_) = self.archetype {
            let mut v = items.to_vec();
            shuffle(rng, &mut v);
            return v;
        }
        let dim = truth.dimension(dimension);
        let mut scored: Vec<(ItemId, f64)> = items
            .iter()
            .map(|&i| (i, self.perceive_with(i, &dim, 1.0, rng)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().map(|(i, _)| i).collect()
    }

    fn answer_rate(
        &self,
        item: ItemId,
        dimension: &str,
        scale: u8,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> u8 {
        if let WorkerArchetype::Spammer(s) = self.archetype {
            return match s {
                SpamStrategy::Constant | SpamStrategy::AlwaysYes => scale,
                SpamStrategy::AlwaysNo => 1,
                SpamStrategy::Random => rng.random_range(1..=scale),
            };
        }
        let dim = truth.dimension(dimension);
        let perceived = self.perceive_with(item, &dim, dim.params.rating_noise_mult, rng);
        // Map [0,1] perception onto the Likert scale with the worker's
        // personal bias; quantization is the Rate operator's fundamental
        // granularity limit (§4.2.2).
        let raw = 1.0 + perceived.clamp(0.0, 1.0) * (scale as f64 - 1.0) + self.rating_bias;
        raw.round().clamp(1.0, scale as f64) as u8
    }

    fn answer_pick(
        &self,
        items: &[ItemId],
        dimension: &str,
        want_max: bool,
        truth: &GroundTruth,
        rng: &mut StdRng,
    ) -> ItemId {
        if let WorkerArchetype::Spammer(_) = self.archetype {
            return items[rng.random_range(0..items.len())];
        }
        let dim = truth.dimension(dimension);
        let scored = items
            .iter()
            .map(|&i| (i, self.perceive_with(i, &dim, 1.0, rng)));
        let pick = if want_max {
            scored.max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        } else {
            scored.min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        };
        pick.map(|(i, _)| i).expect("non-empty pick batch")
    }

    /// Thurstonian perception: the item's range-normalized latent score
    /// plus Gaussian noise scaled by dimension ambiguity, worker skill
    /// and `noise_mult` (above 1 for absolute judgments, which are
    /// noisier than comparisons). Pure-noise dimensions (Q5) carry no
    /// signal at all.
    fn perceive_with(
        &self,
        item: ItemId,
        dim: &Dimension<'_>,
        noise_mult: f64,
        rng: &mut StdRng,
    ) -> f64 {
        let params = dim.params;
        if params.pure_noise {
            return rng.random::<f64>();
        }
        let score = dim.score(item).unwrap_or(0.5);
        let (lo, hi) = dim.range().unwrap_or((0.0, 1.0));
        let norm = if hi > lo {
            (score - lo) / (hi - lo)
        } else {
            0.5
        };
        let sloppy_mult = match self.archetype {
            WorkerArchetype::Sloppy => 2.5,
            _ => 1.0,
        };
        norm + normal(
            rng,
            0.0,
            params.ambiguity * self.noise * sloppy_mult * noise_mult,
        )
    }
}

fn flip(value: bool, err: f64, rng: &mut StdRng) -> bool {
    if rng.random::<f64>() < err {
        !value
    } else {
        value
    }
}

fn spam_bool(s: SpamStrategy, rng: &mut StdRng) -> bool {
    match s {
        SpamStrategy::AlwaysYes | SpamStrategy::Constant => true,
        SpamStrategy::AlwaysNo => false,
        SpamStrategy::Random => rng.random(),
    }
}

/// Mixture proportions and trait distributions for a worker population.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    pub num_workers: usize,
    /// Fraction of the population per archetype; must sum to ≤ 1, the
    /// remainder becomes Diligent.
    pub sloppy_fraction: f64,
    pub spammer_fraction: f64,
    pub biased_fraction: f64,
    /// Zipf exponent for how often individual workers show up (§3.3.3:
    /// task counts per worker are roughly Zipfian).
    pub arrival_zipf_exponent: f64,
    /// Median seconds per work unit.
    pub median_secs_per_unit: f64,
    /// Median largest acceptable HIT size in work units at $0.01.
    pub median_max_work_units: f64,
}

impl Default for WorkerPoolConfig {
    fn default() -> Self {
        WorkerPoolConfig {
            num_workers: 150,
            sloppy_fraction: 0.22,
            spammer_fraction: 0.10,
            biased_fraction: 0.08,
            arrival_zipf_exponent: 1.05,
            median_secs_per_unit: 12.0,
            median_max_work_units: 13.0,
        }
    }
}

/// The worker population plus the arrival-propensity sampler.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    arrival_sampler: ZipfSampler,
    /// Permutation mapping Zipf rank -> worker index, so heavy workers
    /// are not always the low archetype indices.
    rank_to_worker: Vec<usize>,
}

impl WorkerPool {
    /// Generate a population deterministically from a seed.
    pub fn generate(config: &WorkerPoolConfig, seed: u64) -> Self {
        assert!(config.num_workers > 0, "empty worker pool");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
        let n = config.num_workers;
        let mut workers = Vec::with_capacity(n);
        // Integer archetype boundaries (rounded) avoid float-sum drift.
        let spam_end = (config.spammer_fraction * n as f64).round() as usize;
        let sloppy_end = spam_end + (config.sloppy_fraction * n as f64).round() as usize;
        let biased_end = sloppy_end + (config.biased_fraction * n as f64).round() as usize;
        for i in 0..n {
            let archetype = if i < spam_end {
                let strat = match i % 4 {
                    0 => SpamStrategy::AlwaysYes,
                    1 => SpamStrategy::AlwaysNo,
                    2 => SpamStrategy::Constant,
                    _ => SpamStrategy::Random,
                };
                WorkerArchetype::Spammer(strat)
            } else if i < sloppy_end {
                WorkerArchetype::Sloppy
            } else if i < biased_end {
                WorkerArchetype::Biased
            } else {
                WorkerArchetype::Diligent
            };
            let noise = (normal(&mut rng, 1.0, 0.25)).clamp(0.4, 2.5);
            let rating_bias = normal(&mut rng, 0.0, 0.5);
            let secs = (config.median_secs_per_unit * normal(&mut rng, 1.0, 0.3)).clamp(3.0, 60.0);
            let max_wu = (config.median_max_work_units * normal(&mut rng, 1.0, 0.35)).max(2.0);
            workers.push(Worker {
                id: WorkerId(i),
                archetype,
                noise,
                rating_bias,
                secs_per_unit: secs,
                max_work_units: max_wu,
                completed: 0,
            });
        }
        let mut rank_to_worker: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut rank_to_worker);
        // Diligent workers are disproportionately prolific: fill the
        // head ranks (the heavy end of the Zipf) with diligent workers,
        // lowest-noise first. This produces the small positive
        // accuracy-vs-volume slope of §3.3.3 (R² = 0.028, p < .05 in
        // the paper) — prolific workers are *slightly* better, not
        // because practice helps but because careful workers stick
        // around.
        let head = (n / 4).max(1);
        for r in 0..head {
            if let Some(pos) = rank_to_worker[r..]
                .iter()
                .position(|&w| matches!(workers[w].archetype, WorkerArchetype::Diligent))
            {
                rank_to_worker.swap(r, r + pos);
            }
        }
        rank_to_worker[..head].sort_by(|&a, &b| {
            workers[a]
                .noise
                .partial_cmp(&workers[b].noise)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        WorkerPool {
            workers,
            arrival_sampler: ZipfSampler::new(n as u64, config.arrival_zipf_exponent),
            rank_to_worker,
        }
    }

    /// Pick the next arriving worker (Zipf-weighted).
    pub fn sample_arrival(&self, rng: &mut StdRng) -> WorkerId {
        let rank = self.arrival_sampler.sample(rng) as usize - 1;
        WorkerId(self.rank_to_worker[rank])
    }

    pub fn get(&self, id: WorkerId) -> &Worker {
        &self.workers[id.0]
    }

    pub fn get_mut(&mut self, id: WorkerId) -> &mut Worker {
        &mut self.workers[id.0]
    }

    pub fn len(&self) -> usize {
        self.workers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{DimensionParams, PredicateTruth};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn diligent() -> Worker {
        Worker {
            id: WorkerId(0),
            archetype: WorkerArchetype::Diligent,
            noise: 1.0,
            rating_bias: 0.0,
            secs_per_unit: 10.0,
            max_work_units: 10.0,
            completed: 0,
        }
    }

    fn ctx(kind: HitKind) -> HitContext {
        HitContext {
            kind,
            total_work_units: 1.0,
        }
    }

    #[test]
    fn pool_generation_is_deterministic() {
        let cfg = WorkerPoolConfig::default();
        let a = WorkerPool::generate(&cfg, 7);
        let b = WorkerPool::generate(&cfg, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.workers().iter().zip(b.workers()) {
            assert_eq!(x.archetype, y.archetype);
            assert_eq!(x.noise, y.noise);
        }
    }

    #[test]
    fn pool_mixture_fractions_respected() {
        let cfg = WorkerPoolConfig {
            num_workers: 200,
            spammer_fraction: 0.10,
            sloppy_fraction: 0.20,
            biased_fraction: 0.05,
            ..Default::default()
        };
        let pool = WorkerPool::generate(&cfg, 1);
        let spam = pool
            .workers()
            .iter()
            .filter(|w| matches!(w.archetype, WorkerArchetype::Spammer(_)))
            .count();
        assert_eq!(spam, 20);
        let sloppy = pool
            .workers()
            .iter()
            .filter(|w| matches!(w.archetype, WorkerArchetype::Sloppy))
            .count();
        assert_eq!(sloppy, 40);
    }

    #[test]
    fn zipf_arrivals_concentrate() {
        let pool = WorkerPool::generate(&WorkerPoolConfig::default(), 3);
        let mut r = rng();
        let mut counts = vec![0usize; pool.len()];
        for _ in 0..20_000 {
            counts[pool.sample_arrival(&mut r).0] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = sorted[..15].iter().sum();
        // Top 10% of workers should take a large share (Zipfian).
        assert!(
            top10 as f64 > 0.35 * 20_000.0,
            "top-15 share {} too small",
            top10
        );
    }

    #[test]
    fn filter_answers_track_truth() {
        let mut gt = GroundTruth::new();
        let item = gt.new_item();
        gt.set_predicate(
            item,
            "isFemale",
            PredicateTruth {
                value: true,
                error_rate: 0.05,
            },
        );
        let w = diligent();
        let mut r = rng();
        let yes = (0..2000)
            .filter(|_| {
                w.answer(
                    &Question::Filter {
                        item,
                        predicate: "isFemale".into(),
                    },
                    ctx(HitKind::Filter),
                    &gt,
                    &mut r,
                )
                .as_bool()
                .unwrap()
            })
            .count();
        let rate = yes as f64 / 2000.0;
        assert!((rate - 0.95).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn join_same_entity_mostly_yes_diff_mostly_no() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        let c = gt.new_item();
        gt.set_entity(a, crate::truth::EntityId(1));
        gt.set_entity(b, crate::truth::EntityId(1));
        gt.set_entity(c, crate::truth::EntityId(2));
        gt.set_default_similarity(0.1);
        let w = diligent();
        let mut r = rng();
        let mut same_yes = 0;
        let mut diff_yes = 0;
        for _ in 0..2000 {
            if w.answer(
                &Question::JoinPair { left: a, right: b },
                ctx(HitKind::JoinSimple),
                &gt,
                &mut r,
            )
            .as_bool()
            .unwrap()
            {
                same_yes += 1;
            }
            if w.answer(
                &Question::JoinPair { left: a, right: c },
                ctx(HitKind::JoinSimple),
                &gt,
                &mut r,
            )
            .as_bool()
            .unwrap()
            {
                diff_yes += 1;
            }
        }
        // A diligent worker matches ~85% of true pairs (the paper's
        // population-wide average is 78%) and rarely claims false ones.
        assert!(same_yes > 1600, "same_yes={same_yes}");
        assert!(diff_yes < 60, "diff_yes={diff_yes}");
    }

    #[test]
    fn smart_grid_increases_misses() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        gt.set_entity(a, crate::truth::EntityId(1));
        gt.set_entity(b, crate::truth::EntityId(1));
        let w = diligent();
        let mut r = rng();
        let count_yes = |kind: HitKind, r: &mut StdRng| {
            (0..3000)
                .filter(|_| {
                    w.answer(&Question::JoinPair { left: a, right: b }, ctx(kind), &gt, r)
                        .as_bool()
                        .unwrap()
                })
                .count()
        };
        let simple = count_yes(HitKind::JoinSimple, &mut r);
        let smart2 = count_yes(HitKind::JoinSmart { rows: 2, cols: 2 }, &mut r);
        let smart3 = count_yes(HitKind::JoinSmart { rows: 3, cols: 3 }, &mut r);
        assert!(smart2 <= simple + 60, "smart2={smart2} simple={simple}");
        assert!(smart3 < smart2, "smart3={smart3} smart2={smart2}");
    }

    #[test]
    fn spammers_are_uninformative() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        gt.set_entity(a, crate::truth::EntityId(1));
        gt.set_entity(b, crate::truth::EntityId(2));
        let w = Worker {
            archetype: WorkerArchetype::Spammer(SpamStrategy::AlwaysYes),
            ..diligent()
        };
        let mut r = rng();
        let ans = w.answer(
            &Question::JoinPair { left: a, right: b },
            ctx(HitKind::JoinSimple),
            &gt,
            &mut r,
        );
        assert_eq!(ans, Answer::Bool(true));
        // In smart grids spammers submit "no matches".
        let ans = w.answer(
            &Question::JoinPair { left: a, right: b },
            ctx(HitKind::JoinSmart { rows: 3, cols: 3 }),
            &gt,
            &mut r,
        );
        assert_eq!(ans, Answer::Bool(false));
    }

    #[test]
    fn compare_orders_crisp_dimension_correctly() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(5);
        gt.define_dimension("area", DimensionParams::crisp(0.02));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "area", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let q = Question::CompareGroup {
            items: items.clone(),
            dimension: "area".into(),
        };
        let mut correct = 0;
        for _ in 0..200 {
            let ord = w.answer(&q, ctx(HitKind::SortCompare), &gt, &mut r);
            let ord = ord.as_ordering().unwrap().to_vec();
            let want: Vec<ItemId> = items.iter().rev().copied().collect();
            if ord == want {
                correct += 1;
            }
        }
        assert!(correct > 180, "correct={correct}");
    }

    #[test]
    fn ambiguous_dimension_orders_noisily() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(5);
        gt.define_dimension("saturn", DimensionParams::crisp(1.5));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "saturn", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let q = Question::CompareGroup {
            items: items.clone(),
            dimension: "saturn".into(),
        };
        let mut exact = 0;
        for _ in 0..200 {
            let ord = w.answer(&q, ctx(HitKind::SortCompare), &gt, &mut r);
            let want: Vec<ItemId> = items.iter().rev().copied().collect();
            if ord.as_ordering().unwrap() == want.as_slice() {
                exact += 1;
            }
        }
        assert!(exact < 100, "too deterministic for ambiguous dim: {exact}");
    }

    #[test]
    fn ratings_monotone_in_truth() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(10);
        gt.define_dimension("size", DimensionParams::crisp(0.05));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "size", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let avg = |it: ItemId, r: &mut StdRng| -> f64 {
            let q = Question::Rate {
                item: it,
                dimension: "size".into(),
                scale: 7,
                context: vec![],
            };
            (0..300)
                .map(|_| {
                    w.answer(&q, ctx(HitKind::SortRate), &gt, r)
                        .as_rating()
                        .unwrap() as f64
                })
                .sum::<f64>()
                / 300.0
        };
        let lo = avg(items[0], &mut r);
        let hi = avg(items[9], &mut r);
        assert!(lo < 2.0, "lo={lo}");
        assert!(hi > 6.0, "hi={hi}");
    }

    #[test]
    fn rating_quantizes_nearby_items_together() {
        // 50 items on a 7-point scale: adjacent items frequently collide
        // (the granularity ceiling of §4.2.2).
        let mut gt = GroundTruth::new();
        let items = gt.new_items(50);
        gt.define_dimension("size", DimensionParams::crisp(0.01));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "size", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let q0 = Question::Rate {
            item: items[20],
            dimension: "size".into(),
            scale: 7,
            context: vec![],
        };
        let q1 = Question::Rate {
            item: items[21],
            dimension: "size".into(),
            scale: 7,
            context: vec![],
        };
        let a = w
            .answer(&q0, ctx(HitKind::SortRate), &gt, &mut r)
            .as_rating()
            .unwrap();
        let b = w
            .answer(&q1, ctx(HitKind::SortRate), &gt, &mut r)
            .as_rating()
            .unwrap();
        assert!((a as i16 - b as i16).abs() <= 1);
    }

    #[test]
    fn pick_best_finds_max() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(5);
        gt.define_dimension("size", DimensionParams::crisp(0.02));
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "size", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let q = Question::PickBest {
            items: items.clone(),
            dimension: "size".into(),
            want_max: true,
        };
        let picks = (0..100)
            .filter(|_| {
                w.answer(&q, ctx(HitKind::PickBest), &gt, &mut r).as_pick() == Some(items[4])
            })
            .count();
        assert!(picks > 90, "picks={picks}");
        let q = Question::PickBest {
            items: items.clone(),
            dimension: "size".into(),
            want_max: false,
        };
        let picks_min = (0..100)
            .filter(|_| {
                w.answer(&q, ctx(HitKind::PickBest), &gt, &mut r).as_pick() == Some(items[0])
            })
            .count();
        assert!(picks_min > 90, "picks_min={picks_min}");
    }

    #[test]
    fn generative_text_draws_variants() {
        let mut gt = GroundTruth::new();
        let item = gt.new_item();
        gt.set_text(
            item,
            "common",
            crate::truth::TextTruth {
                variants: vec![("Whale".into(), 0.7), ("WHALE ".into(), 0.3)],
            },
        );
        let w = diligent();
        let mut r = rng();
        let q = Question::Generative {
            item,
            field: "common".into(),
        };
        let mut saw_primary = false;
        let mut saw_alt = false;
        for _ in 0..200 {
            match w.answer(&q, ctx(HitKind::Generative), &gt, &mut r) {
                Answer::Text(t) if t == "Whale" => saw_primary = true,
                Answer::Text(t) if t == "WHALE " => saw_alt = true,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_primary && saw_alt);
    }

    #[test]
    fn pure_noise_dimension_is_random() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(4);
        gt.define_dimension("rand", DimensionParams::pure_noise());
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "rand", i as f64);
        }
        let w = diligent();
        let mut r = rng();
        let q = Question::CompareGroup {
            items: items.clone(),
            dimension: "rand".into(),
        };
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..100 {
            let ord = w.answer(&q, ctx(HitKind::SortCompare), &gt, &mut r);
            firsts.insert(ord.as_ordering().unwrap()[0]);
        }
        assert!(
            firsts.len() >= 3,
            "pure noise should vary: {}",
            firsts.len()
        );
    }
}

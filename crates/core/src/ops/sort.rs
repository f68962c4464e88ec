//! The crowd sort operator (§4).
//!
//! Three implementations:
//!
//! * [`CompareSort`] — groups of `S` items per question; each worker
//!   ranking yields `C(S,2)` pairwise votes. Because transitivity can
//!   fail across workers (§4.1.1), aggregation uses the paper's
//!   **head-to-head** method: an item's score is the number of
//!   pairwise contests it wins under majority vote — identical to the
//!   true ordering when the majority tournament is acyclic.
//! * [`RateSort`] — each item rated on a 7-point Likert scale against
//!   ten random context items; items are ordered by mean rating
//!   (§4.1.2). `O(N)` HITs instead of `O(N²)`.
//! * [`HybridSort`] — starts from the Rate order and spends extra
//!   comparison HITs on suspect windows (§4.1.3): `Random`,
//!   `Confidence` (rating-overlap driven) or sliding `Window(t)`.
//!
//! Plus the MAX/MIN extraction interface of §2.3 ([`extract_best`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qurk_crowd::question::{HitKind, Question};
use qurk_crowd::{Answer, HitSpec, ItemId};

use crate::backend::CrowdBackend;
use crate::error::{QurkError, Result};
use crate::ops::common::{batch_streams, CellVotes, Round, DEFAULT_ROUND_LIMIT_SECS};
use crate::opt::cost::EXACT_COMPARE_PLAN_MAX_N;

/// Result of a sort run.
#[derive(Debug, Clone)]
pub struct SortOutcome {
    /// Items best-to-worst (the `MostName` end first).
    pub order: Vec<ItemId>,
    /// Score per *input index* (head-to-head wins or mean rating).
    pub scores: Vec<f64>,
    /// Rating standard deviation per input index (Rate only; zeros for
    /// Compare).
    pub stds: Vec<f64>,
    /// Raw pairwise vote tally (Compare only; empty for Rate). Drives
    /// the paper's modified-kappa agreement signal (Figure 6).
    pub tally: PairTally,
    pub hits_posted: usize,
}

// ---------------------------------------------------------------- Compare

/// Comparison-based sort.
#[derive(Debug, Clone)]
pub struct CompareSort {
    /// Items per comparison group (`S`).
    pub group_size: usize,
    /// Groups per HIT (`b` in §4.1.1's batching).
    pub groups_per_hit: usize,
    pub assignments: Option<u32>,
    pub limit_secs: f64,
    /// Seed for the group-cover generator.
    pub seed: u64,
}

impl Default for CompareSort {
    fn default() -> Self {
        CompareSort {
            group_size: 5,
            groups_per_hit: 1,
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
            seed: 0x50B7,
        }
    }
}

impl CompareSort {
    /// Generate groups of `s` item indices covering every pair at
    /// least once (a greedy covering design; §4.1.1: "our
    /// batch-generation algorithm may generate overlapping groups").
    /// The count approaches the `N(N−1)/(S(S−1))` lower bound the
    /// paper quotes.
    ///
    /// Each group is seeded with the item having the most uncovered
    /// partners (ties broken by a random rotation, keeping the last
    /// maximum), then grown by the item covering the most new pairs
    /// with the group so far (ties to the smallest index). Per-item
    /// uncovered degrees and per-candidate gains are kept current as
    /// pairs are covered and members join, so a group costs O(S·N)
    /// and the whole plan O(N³/S). Emits exactly the groups of the
    /// original recount-everything generator, which the bench crate
    /// keeps as its equivalence oracle (`qurk_bench::wallclock`).
    pub fn plan_groups(n: usize, s: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(s >= 2, "group size must be at least 2");
        if n <= 1 {
            return Vec::new();
        }
        let s = s.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        // uncovered[i * n + j]: the pair {i, j} is in no group yet.
        let mut uncovered = vec![true; n * n];
        for i in 0..n {
            uncovered[i * n + i] = false;
        }
        // degree[i]: uncovered partners of i.
        let mut degree = vec![n - 1; n];
        // gain[i]: uncovered pairs i would add to the group being built.
        let mut gain = vec![0usize; n];
        let mut in_group = vec![false; n];
        let mut remaining = n * (n - 1) / 2;
        let mut groups = Vec::new();
        while remaining > 0 {
            let start = rng.random_range(0..n);
            let mut first = start;
            for k in 0..n {
                let i = (k + start) % n;
                if degree[i] >= degree[first] {
                    first = i;
                }
            }
            let mut group = Vec::with_capacity(s);
            let mut member = Some(first);
            while let Some(m) = member {
                group.push(m);
                in_group[m] = true;
                for (g, &unc) in gain.iter_mut().zip(&uncovered[m * n..(m + 1) * n]) {
                    *g += usize::from(unc);
                }
                if group.len() == s {
                    break;
                }
                member = None;
                for i in 0..n {
                    if !in_group[i] && member.is_none_or(|b| gain[i] > gain[b]) {
                        member = Some(i);
                    }
                }
            }
            for (a, &x) in group.iter().enumerate() {
                in_group[x] = false;
                for &y in &group[a + 1..] {
                    if uncovered[x * n + y] {
                        uncovered[x * n + y] = false;
                        uncovered[y * n + x] = false;
                        degree[x] -= 1;
                        degree[y] -= 1;
                        remaining -= 1;
                    }
                }
            }
            gain.fill(0);
            group.sort_unstable();
            groups.push(group);
        }
        groups
    }

    /// [`Self::plan_groups`], built once per `(n, s, seed)`: the last
    /// plan built for at most [`EXACT_COMPARE_PLAN_MAX_N`] items stays
    /// in a process-wide slot, so the cost model's estimate and the
    /// operator's run of one query, and every repeat of that query,
    /// share one plan. Larger inputs are planned on every call.
    pub fn group_plan(n: usize, s: usize, seed: u64) -> Arc<Vec<Vec<usize>>> {
        type Slot = Option<((usize, usize, u64), Arc<Vec<Vec<usize>>>)>;
        // lint:allow(global-state): one plan of at most EXACT_COMPARE_PLAN_MAX_N items
        static LAST: Mutex<Slot> = Mutex::new(None);
        assert!(s >= 2, "group size must be at least 2");
        if n > EXACT_COMPARE_PLAN_MAX_N {
            return Arc::new(Self::plan_groups(n, s, seed));
        }
        // `plan_groups` clamps `s` to `n`, so both spellings share a plan.
        let key = (n, s.min(n), seed);
        if let Some((k, plan)) = &*LAST.lock().unwrap_or_else(PoisonError::into_inner) {
            if *k == key {
                return Arc::clone(plan);
            }
        }
        let plan = Arc::new(Self::plan_groups(n, s, seed));
        *LAST.lock().unwrap_or_else(PoisonError::into_inner) = Some((key, Arc::clone(&plan)));
        plan
    }

    /// Sort `items` along `dimension`.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        items: &[ItemId],
        dimension: &str,
    ) -> Result<SortOutcome> {
        if items.len() <= 1 {
            return Ok(SortOutcome {
                order: items.to_vec(),
                scores: vec![0.0; items.len()],
                stds: vec![0.0; items.len()],
                tally: PairTally::new(items.len()),
                hits_posted: 0,
            });
        }
        let groups = Self::group_plan(items.len(), self.group_size, self.seed);
        let questions: Vec<Question> = groups
            .iter()
            .map(|g| Question::CompareGroup {
                items: g.iter().map(|&i| items[i]).collect(),
                dimension: dimension.to_owned(),
            })
            .collect();
        let per_hit = self.groups_per_hit.max(1);
        let specs = crate::hit::batch::merge_into_hits(questions, per_hit, HitKind::SortCompare);
        let hits_posted = specs.len();
        let round = Round::post(backend, specs, self.assignments);
        let answers = round.complete(backend, self.limit_secs)?;

        // Accumulate pairwise wins from every ordering answer; HIT `h`
        // asks groups `h * per_hit..`, and answer `q` of an assignment
        // ranks its `q`th group.
        let mut tally = PairTally::new(items.len());
        let mut shown = Vec::with_capacity(self.group_size);
        for (hit_groups, assignments) in groups.chunks(per_hit).zip(&answers) {
            for (q, group) in hit_groups.iter().enumerate() {
                shown.clear();
                shown.extend(group.iter().map(|&i| items[i]));
                for a in assignments {
                    if let Some(ordering) = a.answers.get(q).and_then(Answer::as_ordering) {
                        tally.record_ordering(ordering, &shown, group);
                    }
                }
            }
        }

        let scores = tally.head_to_head_scores();
        let order = order_by_scores(items, &scores);
        Ok(SortOutcome {
            order,
            scores,
            stds: vec![0.0; items.len()],
            tally,
            hits_posted,
        })
    }
}

/// Pairwise vote tally with head-to-head scoring.
#[derive(Debug, Clone)]
pub struct PairTally {
    n: usize,
    /// wins[i][j] = number of votes ranking i above j.
    wins: Vec<Vec<u32>>,
    /// Scratch for [`Self::record_ordering`]: one ordering's indices.
    ranked: Vec<usize>,
}

impl PairTally {
    pub fn new(n: usize) -> Self {
        PairTally {
            n,
            wins: vec![vec![0; n]; n],
            ranked: Vec::new(),
        }
    }

    /// Record one worker's best-to-worst ordering of a question that
    /// showed the items `shown`, at the distinct input indices `at` (one
    /// per shown item): a vote for every item over each item ranked
    /// below it. An ordering that names an item the question did not
    /// show, or names one more often than shown, is no vote, as a pick
    /// outside its HIT is for [`extract_best`].
    pub fn record_ordering(&mut self, ordering: &[ItemId], shown: &[ItemId], at: &[usize]) {
        self.ranked.clear();
        for it in ordering {
            // The first position showing `it` that no earlier item took.
            let taken = |p: usize| self.ranked.contains(&at[p]);
            match (0..shown.len()).find(|&p| shown[p] == *it && !taken(p)) {
                Some(p) => self.ranked.push(at[p]),
                None => return,
            }
        }
        for (a, &i) in self.ranked.iter().enumerate() {
            for &j in &self.ranked[a + 1..] {
                self.wins[i][j] += 1;
            }
        }
    }

    /// Record a single pairwise vote: `winner` beat `loser`.
    pub fn record_pair(&mut self, winner: usize, loser: usize) {
        self.wins[winner][loser] += 1;
    }

    /// Votes for (i beats j).
    pub fn votes(&self, i: usize, j: usize) -> (u32, u32) {
        (self.wins[i][j], self.wins[j][i])
    }

    /// Head-to-head scores (§4.1.1): each pair's majority winner gets a
    /// point; ties split. Pairs with no votes contribute nothing.
    pub fn head_to_head_scores(&self) -> Vec<f64> {
        let mut scores = vec![0.0; self.n];
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let (wi, wj) = self.votes(i, j);
                if wi + wj == 0 {
                    continue;
                }
                match wi.cmp(&wj) {
                    std::cmp::Ordering::Greater => scores[i] += 1.0,
                    std::cmp::Ordering::Less => scores[j] += 1.0,
                    std::cmp::Ordering::Equal => {
                        scores[i] += 0.5;
                        scores[j] += 0.5;
                    }
                }
            }
        }
        scores
    }

    /// Does the majority tournament contain a cycle? (§4.1.1 explains
    /// why Quicksort-style `O(N log N)` algorithms misbehave: with
    /// cycles their output depends on unexamined pairs.)
    pub fn has_cycles(&self) -> bool {
        // DFS 3-coloring over majority edges i -> j (i beats j).
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let beats = |i: usize, j: usize| {
            let (wi, wj) = self.votes(i, j);
            wi > wj
        };
        let mut color = vec![Color::White; self.n];
        for start in 0..self.n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let mut advanced = false;
                while *next < self.n {
                    let j = *next;
                    *next += 1;
                    if j != node && beats(node, j) {
                        match color[j] {
                            Color::Gray => return true,
                            Color::White => {
                                color[j] = Color::Gray;
                                stack.push((j, 0));
                                advanced = true;
                                break;
                            }
                            Color::Black => {}
                        }
                    }
                }
                if !advanced
                    && stack
                        .last()
                        .map(|&(n2, nx)| n2 == node && nx >= self.n)
                        .unwrap_or(false)
                {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }
}

fn order_by_scores(items: &[ItemId], scores: &[f64]) -> Vec<ItemId> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    idx.into_iter().map(|i| items[i]).collect()
}

// ---------------------------------------------------------------- Rate

/// Rating-based sort.
#[derive(Debug, Clone)]
pub struct RateSort {
    /// Items per HIT.
    pub batch_size: usize,
    /// Likert scale size (7 in the paper).
    pub scale: u8,
    /// Random context items shown alongside the target (10 in §4.1.2).
    pub context_size: usize,
    pub assignments: Option<u32>,
    pub limit_secs: f64,
    pub seed: u64,
}

impl Default for RateSort {
    fn default() -> Self {
        RateSort {
            batch_size: 5,
            scale: 7,
            context_size: 10,
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
            seed: 0x4A7E,
        }
    }
}

impl RateSort {
    /// Sort `items` along `dimension` by mean rating.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        items: &[ItemId],
        dimension: &str,
    ) -> Result<SortOutcome> {
        if items.is_empty() {
            return Ok(SortOutcome {
                order: Vec::new(),
                scores: Vec::new(),
                stds: Vec::new(),
                tally: PairTally::new(0),
                hits_posted: 0,
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let questions: Vec<Question> = items
            .iter()
            .map(|&item| {
                let ctx = qurk_crowd::rng::sample_distinct(
                    &mut rng,
                    items.len(),
                    self.context_size.min(items.len()),
                )
                .into_iter()
                .map(|i| items[i])
                .collect();
                Question::Rate {
                    item,
                    dimension: dimension.to_owned(),
                    scale: self.scale,
                    context: ctx,
                }
            })
            .collect();
        let (specs, layout) =
            batch_streams(vec![questions], self.batch_size, false, HitKind::SortRate);
        let hits_posted = specs.len();
        let votes = CellVotes::ask(
            backend,
            specs,
            &layout,
            self.assignments,
            self.limit_secs,
            |_, answer| answer.as_rating().map(f64::from),
        )?;

        // Per-item rating samples; cell `i` is item `i`.
        let mut scores = Vec::with_capacity(items.len());
        let mut stds = Vec::with_capacity(items.len());
        let mut ratings = Vec::new();
        for vs in votes.iter() {
            ratings.clear();
            ratings.extend(vs.iter().map(|&(_, r)| r));
            scores.push(qurk_metrics::mean(&ratings).unwrap_or(0.0));
            stds.push(qurk_metrics::sample_std(&ratings).unwrap_or(0.0));
        }
        let order = order_by_scores(items, &scores);
        Ok(SortOutcome {
            order,
            scores,
            stds,
            tally: PairTally::new(items.len()),
            hits_posted,
        })
    }
}

// ---------------------------------------------------------------- Hybrid

/// Window-selection strategy for the hybrid sort (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridStrategy {
    /// Pick S random items each iteration.
    Random,
    /// Prioritize windows whose rating confidence intervals overlap
    /// most (`Σ Δa,b` over the window).
    Confidence,
    /// Sliding window advancing by `t` positions per iteration;
    /// §4.2.4: `t` coprime with N lets passes interleave (Window 6
    /// beats Window 5 on 40 squares because 5 divides 40).
    Window { t: usize },
}

/// Result of a hybrid run: the initial rating order plus the order
/// after each comparison HIT (Figure 7's x-axis).
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    pub initial: SortOutcome,
    /// `trajectory[k]` = order after k+1 comparison HITs.
    pub trajectory: Vec<Vec<ItemId>>,
    pub hits_posted: usize,
}

/// The hybrid sort driver.
#[derive(Debug, Clone)]
pub struct HybridSort {
    /// Window size S (usually the comparison group size).
    pub window: usize,
    pub strategy: HybridStrategy,
    pub rate: RateSort,
    pub assignments: Option<u32>,
    pub limit_secs: f64,
    pub seed: u64,
}

impl Default for HybridSort {
    fn default() -> Self {
        HybridSort {
            window: 5,
            strategy: HybridStrategy::Window { t: 6 },
            rate: RateSort::default(),
            assignments: None,
            limit_secs: DEFAULT_ROUND_LIMIT_SECS,
            seed: 0x48B1D,
        }
    }
}

impl HybridSort {
    /// Run: rating pass, then `iterations` single-window comparison
    /// HITs, re-sorting the touched positions after each.
    pub fn run<B: CrowdBackend + ?Sized>(
        &self,
        backend: &mut B,
        items: &[ItemId],
        dimension: &str,
        iterations: usize,
    ) -> Result<HybridOutcome> {
        let initial = self.rate.run(backend, items, dimension)?;
        let mut hits_posted = initial.hits_posted;
        let n = items.len();
        if n <= 1 || iterations == 0 {
            return Ok(HybridOutcome {
                trajectory: Vec::new(),
                initial,
                hits_posted,
            });
        }

        let index: HashMap<ItemId, usize> =
            items.iter().enumerate().map(|(i, &it)| (it, i)).collect();
        // Current order as input indices.
        let mut order: Vec<usize> = initial.order.iter().map(|it| index[it]).collect();
        let mut tally = PairTally::new(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut trajectory = Vec::with_capacity(iterations);
        let s = self.window.min(n);

        // Confidence strategy: rank windows once by rating-overlap.
        let mut confidence_windows: Vec<usize> = Vec::new();
        if self.strategy == HybridStrategy::Confidence {
            let mut scored: Vec<(f64, usize)> = (0..n.saturating_sub(s - 1))
                .map(|w| {
                    let mut r = 0.0;
                    for a in w..(w + s) {
                        for b in (a + 1)..(w + s) {
                            let (ia, ib) = (order[a], order[b]);
                            let (mu_a, sd_a) = (initial.scores[ia], initial.stds[ia]);
                            let (mu_b, sd_b) = (initial.scores[ib], initial.stds[ib]);
                            // Δa,b = max(μlow + σlow − μhigh + σhigh, 0)
                            let (lo, lo_sd, hi, hi_sd) = if mu_a < mu_b {
                                (mu_a, sd_a, mu_b, sd_b)
                            } else {
                                (mu_b, sd_b, mu_a, sd_a)
                            };
                            r += (lo + lo_sd - (hi - hi_sd)).max(0.0);
                        }
                    }
                    (r, w)
                })
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            confidence_windows = scored.into_iter().map(|(_, w)| w).collect();
        }

        let mut window_cursor = 1usize; // sliding window position (paper starts i at 1)
        for it in 0..iterations {
            // Pick window positions within the *current* order.
            let positions: Vec<usize> = match self.strategy {
                HybridStrategy::Random => qurk_crowd::rng::sample_distinct(&mut rng, n, s),
                HybridStrategy::Confidence => {
                    let w = confidence_windows[it % confidence_windows.len().max(1)];
                    (w..(w + s).min(n)).collect()
                }
                HybridStrategy::Window { t } => {
                    let start = window_cursor;
                    window_cursor = (window_cursor + t) % n;
                    (0..s).map(|k| (start + k) % n).collect()
                }
            };
            let mut positions = positions;
            positions.sort_unstable();
            positions.dedup();

            let members: Vec<usize> = positions.iter().map(|&p| order[p]).collect();
            let shown: Vec<ItemId> = members.iter().map(|&m| items[m]).collect();
            let spec = HitSpec::new(
                vec![Question::CompareGroup {
                    // lint:allow(hot-clone): one window's items, once per comparison HIT
                    items: shown.clone(),
                    dimension: dimension.to_owned(),
                }],
                HitKind::SortCompare,
            );
            let round = Round::post(backend, vec![spec], self.assignments);
            let answers = round.complete(backend, self.limit_secs)?;
            hits_posted += 1;
            for assignments in &answers {
                for a in assignments {
                    if let Some(o) = a.answers.first().and_then(Answer::as_ordering) {
                        tally.record_ordering(o, &shown, &members);
                    }
                }
            }

            // Re-order the window's items by head-to-head among all
            // accumulated votes for those pairs; stable fallback to
            // current position.
            // lint:allow(hot-clone): one window's members, once per comparison HIT
            let mut local: Vec<usize> = members.clone();
            // lint:allow(unwrap): `local` is a permutation of `members`, so every member is found
            let pos_of = |m: usize, cur: &[usize]| cur.iter().position(|&x| x == m).unwrap();
            local.sort_by(|&a, &b| {
                let mut score_a = 0.0;
                let mut score_b = 0.0;
                for &m in &members {
                    if m != a {
                        let (wa, wm) = tally.votes(a, m);
                        if wa > wm {
                            score_a += 1.0;
                        } else if wa == wm && wa > 0 {
                            score_a += 0.5;
                        }
                    }
                    if m != b {
                        let (wb, wm) = tally.votes(b, m);
                        if wb > wm {
                            score_b += 1.0;
                        } else if wb == wm && wb > 0 {
                            score_b += 0.5;
                        }
                    }
                }
                score_b
                    .partial_cmp(&score_a)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| pos_of(a, &order).cmp(&pos_of(b, &order)))
            });
            for (k, &p) in positions.iter().enumerate() {
                order[p] = local[k];
            }
            trajectory.push(order.iter().map(|&i| items[i]).collect());
        }

        Ok(HybridOutcome {
            initial,
            trajectory,
            hits_posted,
        })
    }
}

// ---------------------------------------------------------------- MAX/MIN

/// Tournament-style MAX/MIN extraction (§2.3): batches of `batch_size`
/// items, each HIT picks the best (or worst), winners advance.
/// Returns the final pick and the number of HITs used.
pub fn extract_best<B: CrowdBackend + ?Sized>(
    backend: &mut B,
    items: &[ItemId],
    dimension: &str,
    batch_size: usize,
    want_max: bool,
    assignments: Option<u32>,
) -> Result<(ItemId, usize)> {
    assert!(!items.is_empty(), "cannot extract from empty input");
    assert!(batch_size >= 2, "batch size must be at least 2");
    let mut pool: Vec<ItemId> = items.to_vec();
    let mut hits = 0usize;
    while pool.len() > 1 {
        let specs: Vec<HitSpec> = pool
            .chunks(batch_size)
            .map(|chunk| {
                HitSpec::new(
                    vec![Question::PickBest {
                        items: chunk.to_vec(),
                        dimension: dimension.to_owned(),
                        want_max,
                    }],
                    HitKind::PickBest,
                )
            })
            .collect();
        hits += specs.len();
        let round = Round::post(backend, specs, assignments);
        let answers = round.complete(backend, DEFAULT_ROUND_LIMIT_SECS)?;
        let mut winners: Vec<ItemId> = Vec::new();
        for (chunk, assignments) in pool.chunks(batch_size).zip(&answers) {
            // Majority vote over the assignment picks; a pick of an
            // item outside this HIT is no vote.
            let picks: Vec<ItemId> = assignments
                .iter()
                .flat_map(|a| a.answers.iter().filter_map(|x| x.as_pick()))
                .filter(|p| chunk.contains(p))
                .collect();
            let winner = qurk_combine::majority_vote(&picks).winner;
            winners.push(winner.ok_or_else(|| QurkError::NoValidAnswer {
                task: dimension.to_owned(),
            })?);
        }
        winners.sort_unstable();
        winners.dedup();
        pool = winners;
    }
    Ok((pool[0], hits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CachingBackend, ReplayBackend};
    use qurk_crowd::truth::DimensionParams;
    use qurk_crowd::{Answer, CrowdConfig, GroundTruth, Marketplace};
    use qurk_metrics::tau_between_orders;

    fn sort_market(n: usize, ambiguity: f64, seed: u64) -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        gt.define_dimension(
            "dim",
            DimensionParams {
                ambiguity,
                rating_noise_mult: 5.0,
                pure_noise: false,
            },
        );
        let items = gt.new_items(n);
        for (i, &it) in items.iter().enumerate() {
            gt.set_score(it, "dim", i as f64);
        }
        let m = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);
        (m, items)
    }

    fn true_desc(items: &[ItemId]) -> Vec<ItemId> {
        items.iter().rev().copied().collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) index a pair matrix
    fn plan_groups_covers_all_pairs() {
        for (n, s) in [(10, 5), (17, 4), (40, 5), (7, 7), (5, 10)] {
            let groups = CompareSort::plan_groups(n, s, 42);
            let mut covered = vec![vec![false; n]; n];
            for g in &groups {
                assert!(g.len() <= s.min(n));
                for a in 0..g.len() {
                    for b in (a + 1)..g.len() {
                        covered[g[a]][g[b]] = true;
                        covered[g[b]][g[a]] = true;
                    }
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    assert!(covered[i][j], "pair ({i},{j}) uncovered for n={n} s={s}");
                }
            }
        }
    }

    #[test]
    fn plan_groups_near_lower_bound() {
        // 40 items, S=5: lower bound 78 (the paper's Compare cost);
        // greedy should stay within ~40% of it.
        let groups = CompareSort::plan_groups(40, 5, 1);
        assert!(
            (78..=110).contains(&groups.len()),
            "groups={}",
            groups.len()
        );
    }

    #[test]
    fn plan_groups_trivial_cases() {
        assert!(CompareSort::plan_groups(1, 5, 0).is_empty());
        assert_eq!(CompareSort::plan_groups(2, 5, 0).len(), 1);
    }

    #[test]
    fn compare_sort_is_nearly_perfect_on_crisp_data() {
        let (mut m, items) = sort_market(15, 0.012, 10);
        let out = CompareSort::default().run(&mut m, &items, "dim").unwrap();
        let tau = tau_between_orders(&out.order, &true_desc(&items)).unwrap();
        assert!(tau > 0.97, "tau={tau}");
    }

    #[test]
    fn rate_sort_is_good_but_imperfect() {
        let (mut m, items) = sort_market(30, 0.012, 11);
        let out = RateSort::default().run(&mut m, &items, "dim").unwrap();
        assert_eq!(out.hits_posted, 6); // 30 / 5
        let tau = tau_between_orders(&out.order, &true_desc(&items)).unwrap();
        assert!((0.55..0.98).contains(&tau), "tau={tau}");
        // Stds are populated (needed by Confidence hybrid).
        assert!(out.stds.iter().any(|&s| s > 0.0));
    }

    #[test]
    fn rate_costs_linear_compare_costs_quadratic() {
        let (mut m, items) = sort_market(20, 0.012, 12);
        let rate = RateSort::default().run(&mut m, &items, "dim").unwrap();
        let cmp = CompareSort::default().run(&mut m, &items, "dim").unwrap();
        assert!(
            cmp.hits_posted > 3 * rate.hits_posted,
            "compare={} rate={}",
            cmp.hits_posted,
            rate.hits_posted
        );
    }

    #[test]
    fn hybrid_improves_on_rating() {
        let (mut m, items) = sort_market(20, 0.012, 13);
        let hybrid = HybridSort {
            strategy: HybridStrategy::Window { t: 3 },
            ..Default::default()
        };
        let out = hybrid.run(&mut m, &items, "dim", 25).unwrap();
        let tau0 = tau_between_orders(&out.initial.order, &true_desc(&items)).unwrap();
        let tau_end =
            tau_between_orders(out.trajectory.last().unwrap(), &true_desc(&items)).unwrap();
        assert!(
            tau_end > tau0,
            "hybrid should improve: tau0={tau0} tau_end={tau_end}"
        );
        assert!(tau_end > 0.9, "tau_end={tau_end}");
    }

    #[test]
    fn hybrid_trajectory_length_matches_iterations() {
        let (mut m, items) = sort_market(10, 0.012, 14);
        let out = HybridSort::default().run(&mut m, &items, "dim", 7).unwrap();
        assert_eq!(out.trajectory.len(), 7);
        assert_eq!(out.hits_posted, out.initial.hits_posted + 7);
        // Every trajectory entry is a permutation of the items.
        for t in &out.trajectory {
            let mut s = t.clone();
            s.sort_unstable();
            let mut want = items.clone();
            want.sort_unstable();
            assert_eq!(s, want);
        }
    }

    #[test]
    fn all_three_strategies_run() {
        for strategy in [
            HybridStrategy::Random,
            HybridStrategy::Confidence,
            HybridStrategy::Window { t: 6 },
        ] {
            let (mut m, items) = sort_market(12, 0.012, 15);
            let out = HybridSort {
                strategy,
                ..Default::default()
            }
            .run(&mut m, &items, "dim", 5)
            .unwrap();
            assert_eq!(out.trajectory.len(), 5, "{strategy:?}");
        }
    }

    #[test]
    fn head_to_head_handles_cycles() {
        // A > B, B > C, C > A: scores all equal; no panic, order total.
        let mut tally = PairTally::new(3);
        for _ in 0..3 {
            tally.record_pair(0, 1);
            tally.record_pair(1, 2);
            tally.record_pair(2, 0);
        }
        assert!(tally.has_cycles());
        let scores = tally.head_to_head_scores();
        assert_eq!(scores, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn acyclic_tournament_detected() {
        let mut tally = PairTally::new(3);
        tally.record_pair(0, 1);
        tally.record_pair(1, 2);
        tally.record_pair(0, 2);
        assert!(!tally.has_cycles());
        let scores = tally.head_to_head_scores();
        assert_eq!(scores, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn tie_votes_split_points() {
        let mut tally = PairTally::new(2);
        tally.record_pair(0, 1);
        tally.record_pair(1, 0);
        assert_eq!(tally.head_to_head_scores(), vec![0.5, 0.5]);
    }

    #[test]
    fn record_ordering_votes_every_ranked_pair() {
        let items: Vec<ItemId> = (0..6).map(ItemId).collect();
        // The question showed items[..5], at input indices 4, 3, 2, 1,
        // 0; it did not show items[5].
        let (shown, at) = (&items[..5], [4, 3, 2, 1, 0]);
        let valid = [
            vec![items[4], items[0], items[2]],
            vec![items[1], items[3], items[0]],
            vec![items[2], items[4], items[1], items[3], items[0]],
            vec![items[3], items[0]],
            vec![],
        ];
        // No vote: items[5] at the top, the middle and the bottom of an
        // ordering, alone, and an item named twice.
        let hostile = [
            vec![items[5], items[1], items[3], items[0]],
            vec![items[2], items[5], items[4], items[1], items[3]],
            vec![items[3], items[0], items[5]],
            vec![items[5]],
            vec![items[1], items[3], items[1]],
        ];
        let mut tally = PairTally::new(5);
        let mut want = vec![vec![0u32; 5]; 5];
        let index = |it: &ItemId| at[shown.iter().position(|s| s == it).unwrap()];
        for o in &valid {
            tally.record_ordering(o, shown, &at);
            for a in 0..o.len() {
                for b in (a + 1)..o.len() {
                    want[index(&o[a])][index(&o[b])] += 1;
                }
            }
        }
        for o in &hostile {
            tally.record_ordering(o, shown, &at);
        }
        assert_eq!(tally.wins, want);
        // items[1] (index 3) over items[3] (index 1) in two orderings.
        assert_eq!(tally.votes(3, 1), (2, 0));

        // An item shown twice may be named twice: each naming takes
        // the next position that shows it.
        let mut tally = PairTally::new(3);
        let (a, b) = (items[0], items[1]);
        tally.record_ordering(&[a, b, a], &[a, a, b], &[0, 1, 2]);
        assert_eq!(tally.votes(0, 2), (1, 0));
        assert_eq!(tally.votes(2, 1), (1, 0));
        assert_eq!(tally.votes(0, 1), (1, 0));
    }

    #[test]
    fn extract_max_and_min() {
        let (mut m, items) = sort_market(12, 0.012, 16);
        let (max, hits) = extract_best(&mut m, &items, "dim", 4, true, None).unwrap();
        assert_eq!(max, items[11]);
        assert!(hits >= 4); // 3 first-round + final
        let (min, _) = extract_best(&mut m, &items, "dim", 4, false, None).unwrap();
        assert_eq!(min, items[0]);
    }

    /// Record one five-item MAX HIT through the Task Cache, then
    /// rewrite every stored answer with `hostile` and replay the trace.
    fn replay_max_with(hostile: impl Fn(usize, &mut Vec<Answer>)) -> (Vec<ItemId>, Result<ItemId>) {
        let (m, items) = sort_market(6, 0.012, 18);
        let mut caching = CachingBackend::new(m);
        let (max, _) = extract_best(&mut caching, &items[..5], "dim", 5, true, None).unwrap();
        assert_eq!(max, items[4]);
        let mut trace = caching.trace().clone();
        let [key] = trace.keys()[..] else {
            panic!("five items fit one HIT");
        };
        let entry = trace.entries.get_mut(&key).unwrap();
        for (i, a) in entry.assignments.iter_mut().enumerate() {
            hostile(i, &mut a.answers);
        }
        let mut replay = ReplayBackend::from_trace(trace);
        let out = extract_best(&mut replay, &items[..5], "dim", 5, true, None);
        (items, out.map(|(best, _)| best))
    }

    #[test]
    fn a_stored_pick_outside_its_hit_is_no_vote() {
        // Three of five assignments pick the sixth item, which the HIT
        // never showed: a majority, but of no votes.
        let outsider = sort_market(6, 0.012, 18).1[5];
        let (items, best) = replay_max_with(|i, answers| {
            if i < 3 {
                *answers = vec![Answer::Pick(outsider)];
            }
        });
        let best = best.unwrap();
        assert_ne!(best, outsider);
        assert!(items[..5].contains(&best));
    }

    /// Sort eight items with `sort` through the Task Cache, then replay
    /// the trace twice: with the last ordering of every other
    /// assignment rewritten by `hostile(ordering, items)`, and with that
    /// answer removed. Returns both replayed outputs.
    fn replay_orderings<T>(
        hostile: impl Fn(&[ItemId], &[ItemId]) -> Vec<ItemId>,
        mut sort: impl FnMut(&mut dyn CrowdBackend, &[ItemId]) -> T,
    ) -> (T, T) {
        let (m, items) = sort_market(8, 0.3, 19);
        let mut caching = CachingBackend::new(m);
        sort(&mut caching, &items);
        let mut bad = caching.trace().clone();
        let mut cut = bad.clone();
        let mut changed = 0;
        for key in bad.keys() {
            let bad = &mut bad.entries.get_mut(&key).unwrap().assignments;
            let cut = &mut cut.entries.get_mut(&key).unwrap().assignments;
            for (k, (a, b)) in bad.iter_mut().zip(cut).enumerate() {
                if let (0, Some(Answer::Ordering(o))) = (k % 2, a.answers.last_mut()) {
                    *o = hostile(o, &items);
                    b.answers.pop();
                    changed += 1;
                }
            }
        }
        assert!(
            changed > 0,
            "no ordering was rewritten: the check is vacuous"
        );
        let mut replay = |trace| sort(&mut ReplayBackend::from_trace(trace), &items);
        (replay(bad), replay(cut))
    }

    /// Compare (two groups per HIT) and hybrid sorts replayed with
    /// `hostile` orderings decide as if those answers were missing. The
    /// hybrid sort asks one window: a later window depends on the
    /// orderings before it, so it would not be in the trace.
    fn hostile_orderings_are_no_vote(hostile: impl Fn(&[ItemId], &[ItemId]) -> Vec<ItemId>) {
        let compare = CompareSort {
            groups_per_hit: 2,
            ..CompareSort::default()
        };
        let (bad, cut) = replay_orderings(&hostile, |b, items| {
            let out = compare.run(b, items, "dim").unwrap();
            (out.order, out.scores, out.tally.wins)
        });
        assert_eq!(bad, cut);
        let (bad, cut) = replay_orderings(&hostile, |b, items| {
            HybridSort::default()
                .run(b, items, "dim", 1)
                .unwrap()
                .trajectory
        });
        assert_eq!(bad, cut);
    }

    #[test]
    fn a_stored_ordering_naming_an_unshown_item_is_no_vote() {
        // The first place goes to an item of the sort that this
        // question did not show.
        hostile_orderings_are_no_vote(|o, items| {
            let mut o = o.to_vec();
            o[0] = *items.iter().find(|it| !o.contains(it)).unwrap();
            o
        });
    }

    #[test]
    fn a_stored_ordering_naming_an_item_twice_is_no_vote() {
        hostile_orderings_are_no_vote(|o, _| {
            let mut o = o.to_vec();
            o[1] = o[0];
            o
        });
    }

    #[test]
    fn a_hit_without_a_valid_pick_fails_the_query() {
        let (_, best) = replay_max_with(|_, answers| *answers = vec![Answer::Bool(true)]);
        assert!(
            matches!(best, Err(QurkError::NoValidAnswer { ref task }) if task == "dim"),
            "{best:?}"
        );
    }

    #[test]
    fn single_item_sorts_trivially() {
        let (mut m, items) = sort_market(1, 0.012, 17);
        let out = CompareSort::default().run(&mut m, &items, "dim").unwrap();
        assert_eq!(out.order, items);
        assert_eq!(out.hits_posted, 0);
    }
}

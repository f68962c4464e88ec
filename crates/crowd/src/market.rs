//! The marketplace: HIT lifecycle and the event loop tying workers,
//! questions and time together.
//!
//! Operators interact with the marketplace the way Qurk interacted with
//! MTurk (§2.6): they post *HIT groups* (batches of HITs sharing an
//! interface), let the crowd work, and collect completed assignments.
//! Each HIT requests a number of assignments (default 5, §2.1), each of
//! which must come from a distinct worker — MTurk's own rule.
//!
//! Dynamics reproduced from the paper:
//!
//! * Workers "gravitate toward HIT groups with more tasks available in
//!   them" — group engagement scales with remaining work, so the last
//!   few assignments of a group linger (§3.3.2: "the last 50% of wait
//!   time is spent completing the last 5% of tasks").
//! * "Some Turkers pick up and then abandon tasks, which temporarily
//!   blocks other Turkers from starting them."
//! * Oversized batches are refused outright (§4.2.2: group-size-20
//!   comparison HITs sat uncompleted for hours).

// lint:hot-path

use std::collections::{BTreeSet, HashSet};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::CrowdConfig;
use crate::pricing::{Ledger, Price};
use crate::question::{Answer, HitContext, HitKind, Question};
use crate::rng::{exponential, normal};
use crate::sim::{EventQueue, SimConfig, SimTime};
use crate::truth::GroundTruth;
use crate::worker::{WorkerId, WorkerPool};

/// HIT identifier (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HitId(pub usize);

/// HIT-group identifier (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HitGroupId(pub usize);

/// Assignment identifier (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssignmentId(pub usize);

/// Specification of one HIT to post.
#[derive(Debug, Clone)]
pub struct HitSpec {
    pub questions: Vec<Question>,
    pub kind: HitKind,
}

impl HitSpec {
    pub fn new(questions: Vec<Question>, kind: HitKind) -> Self {
        HitSpec { questions, kind }
    }

    pub fn work_units(&self) -> f64 {
        crate::question::hit_work_units(self.kind, &self.questions)
    }
}

/// A posted HIT.
#[derive(Debug, Clone)]
pub struct Hit {
    pub id: HitId,
    pub group: HitGroupId,
    pub questions: Vec<Question>,
    pub kind: HitKind,
    pub assignments_requested: u32,
    pub posted_at: SimTime,
    completed: u32,
    in_flight: u32,
    /// Workers holding or having submitted an assignment (at most
    /// `assignments_requested` of them, so a scan beats hashing).
    touched_by: Vec<WorkerId>,
}

impl Hit {
    pub fn work_units(&self) -> f64 {
        crate::question::hit_work_units(self.kind, &self.questions)
    }

    /// Still accepting workers: not every requested assignment is
    /// completed or in flight.
    fn is_open(&self) -> bool {
        self.completed + self.in_flight < self.assignments_requested
    }

    fn is_complete(&self) -> bool {
        self.completed >= self.assignments_requested
    }

    fn outstanding(&self) -> u32 {
        self.assignments_requested - self.completed.min(self.assignments_requested)
    }
}

/// One completed assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    pub id: AssignmentId,
    pub hit: HitId,
    pub group: HitGroupId,
    pub worker: WorkerId,
    pub answers: Vec<Answer>,
    pub accepted_at: SimTime,
    pub submitted_at: SimTime,
}

#[derive(Debug)]
struct GroupState {
    hits: Vec<HitId>,
    posted_at: SimTime,
    /// Open HITs ([`Hit::is_open`]) in posting order.
    open: BTreeSet<HitId>,
    /// Per worker (dense id): how many of `open` that worker touched.
    /// A worker can take `open.len() - touched_open[w]` HITs here.
    touched_open: Vec<u32>,
}

#[derive(Debug)]
enum SimEvent {
    Arrival,
    Finish {
        worker: WorkerId,
        hit: HitId,
        accepted_at: SimTime,
        session_left: u32,
    },
    LockExpires {
        worker: WorkerId,
        hit: HitId,
    },
}

/// Outcome of running the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All posted assignments completed.
    Completed,
    /// The time limit elapsed with work outstanding (e.g. a batch too
    /// large for anyone to accept).
    TimedOut,
}

/// The simulated marketplace.
///
/// No event's cost grows with the number of posted HITs: the loop
/// keeps a count of incomplete HITs, and each group indexes its open
/// HITs and how many of them each worker has touched, so an arrival
/// costs O(groups) and finding a worker's next HIT skips only HITs that
/// worker already touched. `Self::update_hit` is the only writer of a
/// HIT's counters, so the index cannot drift.
pub struct Marketplace {
    truth: GroundTruth,
    pool: WorkerPool,
    sim: SimConfig,
    price: Price,
    pub ledger: Ledger,
    default_assignments: u32,
    hits: Vec<Hit>,
    groups: Vec<GroupState>,
    /// HITs with fewer completed assignments than requested.
    incomplete: usize,
    completed: Vec<Assignment>,
    collected_mark: usize,
    queue: EventQueue<SimEvent>,
    now: SimTime,
    rng: StdRng,
    arrival_scheduled: bool,
    banned: HashSet<WorkerId>,
}

impl Marketplace {
    /// Build a marketplace from a full configuration and ground truth.
    pub fn new(config: &CrowdConfig, truth: GroundTruth) -> Self {
        Marketplace {
            truth,
            pool: WorkerPool::generate(&config.workers, config.seed),
            // lint:allow(hot-clone): once per marketplace, not per event
            sim: config.sim.clone(),
            price: config.price,
            ledger: Ledger::new(),
            default_assignments: config.assignments_per_hit,
            hits: Vec::new(),
            groups: Vec::new(),
            incomplete: 0,
            completed: Vec::new(),
            collected_mark: 0,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed ^ 0x00AA_55EE),
            arrival_scheduled: false,
            banned: HashSet::new(),
        }
    }

    /// Hidden ground truth (read-only; for evaluation harnesses).
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Mutable truth access for dataset construction before posting.
    pub fn truth_mut(&mut self) -> &mut GroundTruth {
        &mut self.truth
    }

    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of HITs ever posted.
    pub fn hits_posted(&self) -> usize {
        self.hits.len()
    }

    /// Assignments requested per HIT when [`Self::post_group`] is used
    /// (from [`crate::CrowdConfig::assignments_per_hit`]).
    pub fn default_assignments(&self) -> u32 {
        self.default_assignments
    }

    /// Post a group of HITs with the default assignment count.
    pub fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        let n = self.default_assignments;
        self.post_group_with_assignments(specs, n)
    }

    /// Post a group of HITs requesting `assignments` per HIT.
    pub fn post_group_with_assignments(
        &mut self,
        specs: Vec<HitSpec>,
        assignments: u32,
    ) -> HitGroupId {
        assert!(assignments > 0, "assignments must be positive");
        assert!(
            (assignments as usize) <= self.pool.len(),
            "cannot request more assignments than workers"
        );
        let group = HitGroupId(self.groups.len());
        let mut hit_ids = Vec::with_capacity(specs.len());
        for spec in specs {
            assert!(!spec.questions.is_empty(), "HIT must contain questions");
            let id = HitId(self.hits.len());
            self.hits.push(Hit {
                id,
                group,
                questions: spec.questions,
                kind: spec.kind,
                assignments_requested: assignments,
                posted_at: self.now,
                completed: 0,
                in_flight: 0,
                touched_by: Vec::new(),
            });
            hit_ids.push(id);
        }
        // Fresh HITs are open, incomplete and untouched.
        self.incomplete += hit_ids.len();
        self.groups.push(GroupState {
            open: hit_ids.iter().copied().collect(),
            hits: hit_ids,
            posted_at: self.now,
            touched_open: vec![0; self.pool.len()],
        });
        group
    }

    /// Run the event loop until every posted assignment completes, or
    /// `limit_secs` of virtual time elapse (measured from now).
    pub fn run(&mut self, limit_secs: f64) -> RunOutcome {
        let deadline = self.now.plus_secs(limit_secs);
        if !self.arrival_scheduled {
            self.schedule_next_arrival();
        }
        while !self.all_done() {
            let Some(ev) = self.queue.pop() else {
                // No events can only happen if arrivals stopped; resume.
                self.schedule_next_arrival();
                continue;
            };
            if ev.at.secs() > deadline.secs() {
                // Push it back for a later run() call and stop.
                self.queue.push(ev.at, ev.payload);
                self.now = deadline;
                return RunOutcome::TimedOut;
            }
            self.now = ev.at;
            match ev.payload {
                SimEvent::Arrival => {
                    self.schedule_next_arrival();
                    self.handle_arrival();
                }
                SimEvent::Finish {
                    worker,
                    hit,
                    accepted_at,
                    session_left,
                } => self.handle_finish(worker, hit, accepted_at, session_left),
                SimEvent::LockExpires { worker, hit } => self.update_hit(hit, |h| {
                    h.in_flight = h.in_flight.saturating_sub(1);
                    h.touched_by.retain(|&t| t != worker);
                }),
            }
        }
        RunOutcome::Completed
    }

    /// Convenience: run with a generous default limit (30 virtual days).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(30.0 * 24.0 * 3600.0)
    }

    /// All assignments completed across every posted HIT?
    pub fn all_done(&self) -> bool {
        self.incomplete == 0
    }

    /// Completed assignments for a group (all of them, in completion
    /// order).
    pub fn assignments(&self, group: HitGroupId) -> impl Iterator<Item = &Assignment> {
        self.completed.iter().filter(move |a| a.group == group)
    }

    /// Drain all assignments completed since the last drain.
    pub fn drain_new_assignments(&mut self) -> Vec<Assignment> {
        let out = self.completed[self.collected_mark..].to_vec();
        self.collected_mark = self.completed.len();
        out
    }

    /// Per-assignment completion latencies (seconds since the group was
    /// posted) for Figure 4's percentile reporting.
    pub fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        let posted = self.groups[group.0].posted_at;
        self.assignments(group)
            .map(|a| a.submitted_at.secs() - posted.secs())
            .collect()
    }

    /// The HITs of a group, in the order their specs were posted.
    pub fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        // lint:allow(hot-clone): caller-owned copy, once per posted group
        self.groups[group.0].hits.clone()
    }

    /// Number of outstanding assignments in a group.
    pub fn group_outstanding(&self, group: HitGroupId) -> u32 {
        self.groups[group.0]
            .hits
            .iter()
            .map(|&h| self.hits[h.0].outstanding())
            .sum()
    }

    pub fn hit(&self, id: HitId) -> &Hit {
        &self.hits[id.0]
    }

    // ---- index maintenance ----

    /// The only way to change a HIT's `in_flight`, `completed` or
    /// `touched_by`: take the HIT out of its group's index, apply
    /// `mutate`, and index it again. Costs O(assignments requested).
    fn update_hit(&mut self, id: HitId, mutate: impl FnOnce(&mut Hit)) {
        self.index_hit(id, false);
        mutate(&mut self.hits[id.0]);
        self.index_hit(id, true);
    }

    /// Add (`add`) or remove one HIT's contribution to the incomplete
    /// counter and to its group's open set and `touched_open` counts.
    fn index_hit(&mut self, id: HitId, add: bool) {
        let h = &self.hits[id.0];
        if !h.is_complete() {
            if add {
                self.incomplete += 1;
            } else {
                self.incomplete -= 1;
            }
        }
        if !h.is_open() {
            return;
        }
        let g = &mut self.groups[h.group.0];
        for w in &h.touched_by {
            if add {
                g.touched_open[w.0] += 1;
            } else {
                g.touched_open[w.0] -= 1;
            }
        }
        if add {
            g.open.insert(id);
        } else {
            g.open.remove(&id);
        }
    }

    /// HITs of a group that `worker` could start.
    fn available(&self, group: usize, worker: WorkerId) -> u32 {
        let g = &self.groups[group];
        g.open.len() as u32 - g.touched_open[worker.0]
    }

    /// The first HIT (in posting order) of a group that `worker` could
    /// start: the first open one it has not touched.
    fn first_available(&self, group: usize, worker: WorkerId) -> Option<HitId> {
        self.groups[group]
            .open
            .iter()
            .copied()
            .find(|h| !self.hits[h.0].touched_by.contains(&worker))
    }

    // ---- event handlers ----

    fn schedule_next_arrival(&mut self) {
        let mult = self.sim.rate_multiplier(self.now).max(0.05);
        let rate_per_sec = self.sim.arrivals_per_hour * mult / 3600.0;
        let dt = exponential(&mut self.rng, rate_per_sec.max(1e-9));
        self.queue.push(self.now.plus_secs(dt), SimEvent::Arrival);
        self.arrival_scheduled = true;
    }

    /// Ban workers from future assignments (§6: "one could use the
    /// output of the QA algorithm to ban Turkers found to produce poor
    /// results, reducing future costs"). In-flight work is unaffected.
    pub fn ban_workers(&mut self, workers: impl IntoIterator<Item = WorkerId>) {
        self.banned.extend(workers);
    }

    /// Number of currently banned workers.
    pub fn banned_count(&self) -> usize {
        self.banned.len()
    }

    fn handle_arrival(&mut self) {
        let worker_id = self.pool.sample_arrival(&mut self.rng);
        if self.banned.contains(&worker_id) {
            return; // requester rejected this Turker's future work
        }

        // Engagement: total remaining work across groups this worker
        // could contribute to.
        let candidate_groups: Vec<(usize, u32)> = (0..self.groups.len())
            .map(|gi| (gi, self.available(gi, worker_id)))
            .filter(|&(_, avail)| avail > 0)
            .collect();
        let total_avail: u32 = candidate_groups.iter().map(|&(_, a)| a).sum();
        if total_avail == 0 {
            return;
        }
        let engage_p =
            total_avail as f64 / (total_avail as f64 + self.sim.engagement_half_saturation);
        if self.rng.random::<f64>() >= engage_p {
            return;
        }

        // Browse groups weighted by available work; a worker who
        // refuses one group's batch size keeps browsing (up to three
        // listings) before leaving — a stalled oversized group must not
        // starve the rest of the marketplace.
        let mut remaining = candidate_groups;
        for _ in 0..3 {
            let total: u32 = remaining.iter().map(|&(_, a)| a).sum();
            if total == 0 {
                return;
            }
            let mut pick = self.rng.random_range(0..total);
            let mut chosen = 0usize;
            for (k, &(_, avail)) in remaining.iter().enumerate() {
                if pick < avail {
                    chosen = k;
                    break;
                }
                pick -= avail;
            }
            let (group_idx, _) = remaining.swap_remove(chosen);

            let Some(first_hit) = self.first_available(group_idx, worker_id) else {
                continue;
            };
            let wu = self.hits[first_hit.0].work_units();
            let w = self.pool.get(worker_id);
            // Spammers chase throughput: big batches mean more pay per
            // click-through, so their acceptance *rises* with batch
            // size — §3.3.2: "these larger, batched schemes are more
            // attractive to workers that quickly and inaccurately
            // complete the tasks."
            let accept_p = if matches!(w.archetype, crate::worker::WorkerArchetype::Spammer(_)) {
                // ...but even spammers walk away from marathon HITs: a
                // 20-item comparison (~76 work units) pays the same cent.
                (0.35 + 0.6 * logistic((wu - 4.0) / 3.0)) * logistic((28.0 - wu) / 4.0)
            } else {
                logistic((w.max_work_units - wu) / self.sim.acceptance_softness)
            };
            if self.rng.random::<f64>() >= accept_p {
                continue; // keep browsing
            }

            // Session length (Zipf-ish heavy tail).
            let session = crate::rng::zipf(
                &mut self.rng,
                self.sim.session_zipf_n,
                self.sim.session_zipf_s,
            ) as u32;
            self.start_assignment(worker_id, first_hit, session.saturating_sub(1));
            return;
        }
    }

    fn start_assignment(&mut self, worker: WorkerId, hit: HitId, session_left: u32) {
        self.update_hit(hit, |h| {
            h.in_flight += 1;
            h.touched_by.push(worker);
        });
        let wu = self.hits[hit.0].work_units();

        if self.rng.random::<f64>() < self.sim.abandon_probability {
            let at = self.now.plus_secs(self.sim.abandon_lock_secs);
            self.queue.push(at, SimEvent::LockExpires { worker, hit });
            return;
        }

        let w = self.pool.get(worker);
        let noise = normal(&mut self.rng, 1.0, 0.25).clamp(0.4, 2.5);
        let duration = (self.sim.per_hit_overhead_secs + wu * w.secs_per_unit) * noise;
        let at = self.now.plus_secs(duration.max(1.0));
        self.queue.push(
            at,
            SimEvent::Finish {
                worker,
                hit,
                accepted_at: self.now,
                session_left,
            },
        );
    }

    fn handle_finish(
        &mut self,
        worker: WorkerId,
        hit: HitId,
        accepted_at: SimTime,
        session_left: u32,
    ) {
        // Produce the answers at submission time, borrowing the HIT,
        // the worker, the truth and the RNG side by side.
        let h = &self.hits[hit.0];
        let group = h.group;
        let ctx = HitContext {
            kind: h.kind,
            total_work_units: h.work_units(),
        };
        let answers =
            self.pool
                .get(worker)
                .answer_hit(&h.questions, ctx, &self.truth, &mut self.rng);
        self.update_hit(hit, |h| {
            h.in_flight = h.in_flight.saturating_sub(1);
            h.completed += 1;
        });
        self.pool.get_mut(worker).completed += 1;
        self.ledger.charge(self.price);
        let id = AssignmentId(self.completed.len());
        self.completed.push(Assignment {
            id,
            hit,
            group,
            worker,
            answers,
            accepted_at,
            submitted_at: self.now,
        });

        // Continue the session within the same group if possible.
        if session_left > 0 {
            if let Some(next) = self.first_available(group.0, worker) {
                self.start_assignment(worker, next, session_left - 1);
            }
        }
    }

    /// Recompute every index by brute force and compare.
    #[cfg(test)]
    fn check_index(&self) {
        let incomplete = self.hits.iter().filter(|h| !h.is_complete()).count();
        assert_eq!(self.incomplete, incomplete, "incomplete counter");
        for (gi, g) in self.groups.iter().enumerate() {
            let open: BTreeSet<HitId> = g
                .hits
                .iter()
                .copied()
                .filter(|h| self.hits[h.0].is_open())
                .collect();
            assert_eq!(g.open, open, "open set of group {gi}");
            for (w, &count) in g.touched_open.iter().enumerate() {
                let touched = open
                    .iter()
                    .filter(|h| self.hits[h.0].touched_by.contains(&WorkerId(w)))
                    .count();
                assert_eq!(count as usize, touched, "touched_open[{w}] of group {gi}");
            }
        }
        for h in &self.hits {
            assert!(h.completed + h.in_flight <= h.assignments_requested);
            assert_eq!(h.touched_by.len(), (h.completed + h.in_flight) as usize);
        }
    }
}

#[inline]
fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::Question;
    use crate::truth::PredicateTruth;

    fn small_market(num_items: usize) -> (Marketplace, Vec<crate::truth::ItemId>) {
        let mut truth = GroundTruth::new();
        let items = truth.new_items(num_items);
        for &it in &items {
            truth.set_predicate(
                it,
                "p",
                PredicateTruth {
                    value: it.0 % 2 == 0,
                    error_rate: 0.05,
                },
            );
        }
        let cfg = CrowdConfig::default();
        (Marketplace::new(&cfg, truth), items)
    }

    fn filter_specs(items: &[crate::truth::ItemId]) -> Vec<HitSpec> {
        items
            .iter()
            .map(|&it| {
                HitSpec::new(
                    vec![Question::Filter {
                        item: it,
                        predicate: "p".into(),
                    }],
                    HitKind::Filter,
                )
            })
            .collect()
    }

    #[test]
    fn completes_simple_group_and_charges() {
        let (mut m, items) = small_market(10);
        let g = m.post_group(filter_specs(&items));
        assert_eq!(m.group_outstanding(g), 50); // 10 hits x 5 assignments
        let outcome = m.run_to_completion();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(m.assignments(g).count(), 50);
        assert_eq!(m.ledger.assignments_paid, 50);
        assert!((m.ledger.total() - 50.0 * 0.015).abs() < 1e-9);
    }

    #[test]
    fn distinct_workers_per_hit() {
        let (mut m, items) = small_market(6);
        let g = m.post_group(filter_specs(&items));
        m.run_to_completion();
        use std::collections::HashMap;
        let mut per_hit: HashMap<HitId, Vec<WorkerId>> = HashMap::new();
        for a in m.assignments(g) {
            per_hit.entry(a.hit).or_default().push(a.worker);
        }
        for (hit, workers) in per_hit {
            let set: HashSet<_> = workers.iter().collect();
            assert_eq!(set.len(), workers.len(), "repeat worker on {hit:?}");
        }
    }

    #[test]
    fn answers_are_mostly_correct() {
        let (mut m, items) = small_market(20);
        let g = m.post_group(filter_specs(&items));
        m.run_to_completion();
        let mut correct = 0usize;
        let mut total = 0usize;
        for a in m.assignments(g) {
            let truth_val = items[a.hit.0].0 % 2 == 0;
            if a.answers[0].as_bool().unwrap() == truth_val {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "accuracy={acc}");
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        let run = || {
            let (mut m, items) = small_market(8);
            let g = m.post_group(filter_specs(&items));
            m.run_to_completion();
            let lat = m.group_latencies(g);
            (m.now().secs(), lat)
        };
        let (t1, l1) = run();
        let (t2, l2) = run();
        assert_eq!(t1, t2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn oversized_hits_time_out() {
        // A comparison group of 20 items = ~76 work units; nobody
        // accepts that for $0.01 (§4.2.2's stalled experiment).
        let mut truth = GroundTruth::new();
        let items = truth.new_items(20);
        for (i, &it) in items.iter().enumerate() {
            truth.set_score(it, "size", i as f64);
        }
        let cfg = CrowdConfig::default();
        let mut m = Marketplace::new(&cfg, truth);
        let g = m.post_group(vec![HitSpec::new(
            vec![Question::CompareGroup {
                items,
                dimension: "size".into(),
            }],
            HitKind::SortCompare,
        )]);
        let outcome = m.run(4.0 * 3600.0); // four virtual hours
        assert_eq!(outcome, RunOutcome::TimedOut);
        assert!(m.group_outstanding(g) > 0);
    }

    #[test]
    fn fewer_hits_complete_faster() {
        // 200 single-question HITs vs 20 ten-question HITs: the batched
        // group has 10x fewer HITs and should finish sooner (Figure 4).
        let elapsed = |batch: usize| {
            let mut truth = GroundTruth::new();
            let items = truth.new_items(200);
            for &it in &items {
                truth.set_predicate(
                    it,
                    "p",
                    PredicateTruth {
                        value: true,
                        error_rate: 0.05,
                    },
                );
            }
            let cfg = CrowdConfig::default();
            let mut m = Marketplace::new(&cfg, truth);
            let specs: Vec<HitSpec> = items
                .chunks(batch)
                .map(|chunk| {
                    HitSpec::new(
                        chunk
                            .iter()
                            .map(|&it| Question::Filter {
                                item: it,
                                predicate: "p".into(),
                            })
                            .collect(),
                        HitKind::Filter,
                    )
                })
                .collect();
            let g = m.post_group(specs);
            assert_eq!(m.run_to_completion(), RunOutcome::Completed);
            let lats = m.group_latencies(g);
            lats.iter().cloned().fold(0.0, f64::max)
        };
        let unbatched = elapsed(1);
        let batched = elapsed(10);
        assert!(
            batched < unbatched,
            "batched={batched} unbatched={unbatched}"
        );
    }

    #[test]
    fn latency_tail_is_disproportionate() {
        // Figure 4's "last 5% of tasks take the last ~half of the wait"
        // effect: p100 should sit well above p50.
        let (mut m, items) = small_market(60);
        let g = m.post_group(filter_specs(&items));
        m.run_to_completion();
        let lats = m.group_latencies(g);
        let p50 = qurk_metrics_percentile(&lats, 50.0);
        let p100 = qurk_metrics_percentile(&lats, 100.0);
        assert!(p100 > p50 * 1.5, "p50={p50} p100={p100}");
    }

    // Local percentile to avoid a dev-dependency cycle with qurk-metrics.
    fn qurk_metrics_percentile(xs: &[f64], p: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (p / 100.0 * (v.len() - 1) as f64).round() as usize;
        v[rank.min(v.len() - 1)]
    }

    /// FNV-1a over each assignment's `(hit, worker, accepted_at bits,
    /// submitted_at bits, answers)`, in completion order.
    fn timeline_hash(assignments: &[Assignment]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for a in assignments {
            eat(&(a.hit.0 as u64).to_le_bytes());
            eat(&(a.worker.0 as u64).to_le_bytes());
            eat(&a.accepted_at.secs().to_bits().to_le_bytes());
            eat(&a.submitted_at.secs().to_bits().to_le_bytes());
            eat(format!("{:?}", a.answers).as_bytes());
        }
        h
    }

    /// The event order itself is pinned: a fixed-seed marketplace with
    /// mixed group kinds, the default abandonment rate, a banned worker
    /// and a stalled oversized group must reproduce this exact
    /// timeline. Two runs of the same code agreeing (the determinism
    /// tests above) cannot catch a change that reorders events or
    /// draws; this constant can.
    #[test]
    fn pinned_timeline_is_unchanged() {
        let mut truth = GroundTruth::new();
        let items = truth.new_items(24);
        for (i, &it) in items.iter().enumerate() {
            truth.set_predicate(
                it,
                "p",
                PredicateTruth {
                    value: i % 3 == 0,
                    error_rate: 0.05,
                },
            );
            truth.set_score(it, "size", i as f64);
            truth.set_entity(it, crate::truth::EntityId((i / 2) as u64));
        }
        let cfg = CrowdConfig::default().with_seed(0x5EED);
        assert_eq!(cfg.sim.abandon_probability, 0.03);
        let mut m = Marketplace::new(&cfg, truth);
        let compare = |chunk: &[crate::truth::ItemId]| {
            HitSpec::new(
                vec![Question::CompareGroup {
                    items: chunk.to_vec(),
                    dimension: "size".into(),
                }],
                HitKind::SortCompare,
            )
        };
        let filter = m.post_group(filter_specs(&items[..12]));
        let join = m.post_group(
            items
                .chunks(2)
                .map(|c| {
                    HitSpec::new(
                        vec![Question::JoinPair {
                            left: c[0],
                            right: c[1],
                        }],
                        HitKind::JoinSimple,
                    )
                })
                .collect(),
        );
        let sort = m.post_group(items.chunks(4).map(compare).collect());
        let oversized = m.post_group(vec![compare(&items[..20])]);

        assert_eq!(m.run(3600.0), RunOutcome::TimedOut);
        let mut timeline = m.drain_new_assignments();
        m.ban_workers([timeline[0].worker]);
        assert_eq!(m.run(12.0 * 3600.0), RunOutcome::TimedOut);
        timeline.extend(m.drain_new_assignments());

        for g in [filter, join, sort] {
            assert_eq!(m.group_outstanding(g), 0);
        }
        assert_eq!(m.group_outstanding(oversized), 5);
        assert_eq!(timeline.len(), (12 + 12 + 6) * 5);
        assert_eq!(timeline_hash(&timeline), 0xa55b_6b56_cf86_3aa8);
    }

    #[test]
    fn drain_returns_only_new() {
        let (mut m, items) = small_market(4);
        let _ = m.post_group(filter_specs(&items));
        m.run_to_completion();
        let first = m.drain_new_assignments();
        assert_eq!(first.len(), 20);
        assert!(m.drain_new_assignments().is_empty());
    }

    #[test]
    #[should_panic(expected = "assignments must be positive")]
    fn zero_assignments_rejected() {
        let (mut m, items) = small_market(1);
        m.post_group_with_assignments(filter_specs(&items), 0);
    }

    #[test]
    #[should_panic(expected = "HIT must contain questions")]
    fn empty_hit_rejected() {
        let (mut m, _) = small_market(1);
        m.post_group(vec![HitSpec::new(vec![], HitKind::Filter)]);
    }

    #[test]
    fn evening_runs_differ_from_morning() {
        let latency_at = |start: f64| {
            let mut truth = GroundTruth::new();
            let items = truth.new_items(30);
            for &it in &items {
                truth.set_predicate(
                    it,
                    "p",
                    PredicateTruth {
                        value: true,
                        error_rate: 0.05,
                    },
                );
            }
            let mut cfg = CrowdConfig::default();
            cfg.sim.start_hour = start;
            let mut m = Marketplace::new(&cfg, truth);
            let g = m.post_group(
                items
                    .iter()
                    .map(|&it| {
                        HitSpec::new(
                            vec![Question::Filter {
                                item: it,
                                predicate: "p".into(),
                            }],
                            HitKind::Filter,
                        )
                    })
                    .collect(),
            );
            m.run_to_completion();
            let l = m.group_latencies(g);
            l.iter().sum::<f64>() / l.len() as f64
        };
        // 4 AM has much lower arrival rates than noon; latency higher.
        let night = latency_at(3.0);
        let noon = latency_at(11.0);
        assert!(night > noon, "night={night} noon={noon}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::question::Question;
    use crate::truth::PredicateTruth;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Marketplace invariants hold for arbitrary small workloads of
        /// several groups with abandonment on: exact assignment counts,
        /// distinct workers per HIT, ledger consistency, monotone
        /// virtual time, non-negative latencies — and after every
        /// `run()` slice the incremental index matches a brute-force
        /// recount.
        #[test]
        fn marketplace_invariants(
            num_items in 1usize..12,
            batch in 1usize..4,
            assignments in 1u32..7,
            num_groups in 1usize..4,
            abandon in 0.0f64..0.3,
            seed in 0u64..1000,
        ) {
            let mut truth = GroundTruth::new();
            let items = truth.new_items(num_items);
            for (i, &it) in items.iter().enumerate() {
                truth.set_predicate(it, "p", PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: 0.1,
                });
            }
            let mut cfg = CrowdConfig::default().with_seed(seed);
            cfg.sim.abandon_probability = abandon;
            let mut m = Marketplace::new(&cfg, truth);
            let mut groups = Vec::new();
            let mut hits_per_group = Vec::new();
            for k in 0..num_groups {
                // Each group batches differently so their sizes differ.
                let specs: Vec<HitSpec> = items
                    .chunks(batch + k)
                    .map(|chunk| HitSpec::new(
                        chunk.iter().map(|&it| Question::Filter {
                            item: it,
                            predicate: "p".into(),
                        }).collect(),
                        HitKind::Filter,
                    ))
                    .collect();
                hits_per_group.push(specs.len());
                groups.push(m.post_group_with_assignments(specs, assignments));
                m.check_index();
            }
            let mut slices = 0;
            loop {
                let before = m.now().secs();
                let outcome = m.run(1800.0);
                m.check_index();
                prop_assert!(m.now().secs() >= before);
                if outcome == RunOutcome::Completed {
                    break;
                }
                slices += 1;
                prop_assert!(slices < 30 * 48, "never completed");
            }
            prop_assert!(m.all_done());

            for (&g, &num_hits) in groups.iter().zip(&hits_per_group) {
                // Exact assignment counts.
                let collected: Vec<_> = m.assignments(g).collect();
                prop_assert_eq!(collected.len(), num_hits * assignments as usize);

                // Distinct workers per HIT; answers arity matches questions.
                use std::collections::HashMap;
                let mut per_hit: HashMap<HitId, Vec<WorkerId>> = HashMap::new();
                for a in &collected {
                    per_hit.entry(a.hit).or_default().push(a.worker);
                    prop_assert_eq!(a.answers.len(), m.hit(a.hit).questions.len());
                    prop_assert!(a.submitted_at.secs() >= a.accepted_at.secs());
                }
                for workers in per_hit.values() {
                    let set: HashSet<_> = workers.iter().collect();
                    prop_assert_eq!(set.len(), workers.len());
                }

                // Latencies non-negative.
                for l in m.group_latencies(g) {
                    prop_assert!(l >= 0.0);
                }
            }

            // Ledger arithmetic.
            let paid: usize = hits_per_group.iter().sum::<usize>() * assignments as usize;
            prop_assert_eq!(m.ledger.assignments_paid, paid as u64);
            let expect = paid as f64 * 0.015;
            prop_assert!((m.ledger.total() - expect).abs() < 1e-9);
        }
    }
}

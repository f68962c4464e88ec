//! The `CrowdBackend` abstraction: where HITs actually run.
//!
//! Qurk's architecture (§2.5–§2.6) separates *what* a crowd operator
//! asks from *where* the HITs execute. Operators talk to a backend the
//! way Qurk talked to MTurk — post HIT groups, drive the (virtual)
//! clock, collect assignments — and every operator in
//! [`crate::ops`] is generic over [`CrowdBackend`], so the concrete
//! [`qurk_crowd::Marketplace`] is just one implementation.
//!
//! Layered on the trait are composable decorators:
//!
//! * [`CachingBackend`] — the Task Cache of Figure 1, lifted to the
//!   backend boundary: identical HIT specs are posted to the crowd
//!   once and replayed from the cache afterwards, across queries.
//! * [`MeteringBackend`] — per-epoch (per-query) HIT / assignment /
//!   dollar / virtual-latency accounting, which
//!   [`crate::session::QueryReport`] reads instead of re-deriving from
//!   marketplace internals.
//! * [`RecordingBackend`] / [`ReplayBackend`] — record `HitSpec` →
//!   assignment traces against a real backend, then replay them with
//!   no marketplace at all (a deterministic test double).
//!
//! # The group contract
//!
//! Implementations must uphold what operators rely on:
//!
//! 1. [`CrowdBackend::group_hits`] returns a group's HITs in the order
//!    their specs were passed to `post_group*`.
//! 2. After [`CrowdBackend::run`] returns [`RunOutcome::Completed`],
//!    every HIT of every posted group has exactly its requested number
//!    of assignments, each from a distinct worker.
//! 3. [`CrowdBackend::now`] is monotone non-decreasing.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qurk_crowd::market::{Assignment, AssignmentId, HitGroupId, HitId, RunOutcome};
use qurk_crowd::sim::SimTime;
use qurk_crowd::{Answer, HitSpec, Marketplace, WorkerId};

use crate::store::DurableStore;

/// Generous default for "run until everything completes" (30 virtual
/// days — far beyond any workload the paper's crowd would finish).
pub const RUN_TO_COMPLETION_SECS: f64 = 30.0 * 24.0 * 3600.0;

/// The minimal marketplace surface crowd operators use.
///
/// Implemented by [`qurk_crowd::Marketplace`], by `&mut B` for any
/// backend `B` (so shims can borrow), and by the decorators in this
/// module. See the module docs for the group contract.
///
/// `Send + Sync` is part of the contract: the multi-tenant service
/// ([`crate::service`]) runs each query on its own thread against a
/// shared backend, so a backend that cannot cross threads cannot be
/// served. Keep interiors behind `Mutex`/`RwLock` (never
/// `Rc`/`RefCell` — `xtask lint` and `tests/send_sync.rs` enforce
/// this).
pub trait CrowdBackend: Send + Sync {
    /// Post a group of HITs with the backend's default assignment
    /// count per HIT.
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId;

    /// Post a group of HITs requesting `assignments` per HIT.
    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId;

    /// Advance the backend until all posted work completes or
    /// `limit_secs` of virtual time elapse.
    fn run(&mut self, limit_secs: f64) -> RunOutcome;

    /// [`Self::run`] with [`RUN_TO_COMPLETION_SECS`].
    fn run_to_completion(&mut self) -> RunOutcome {
        self.run(RUN_TO_COMPLETION_SECS)
    }

    /// Completed assignments of a group, in completion order. Takes
    /// `&mut self` because caching/recording backends fold freshly
    /// completed work into their stores here.
    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment>;

    /// A group's HITs in spec order.
    fn group_hits(&self, group: HitGroupId) -> Vec<HitId>;

    /// Per-assignment completion latencies (seconds since the group
    /// was posted).
    fn group_latencies(&self, group: HitGroupId) -> Vec<f64>;

    /// Assignments still outstanding in a group.
    fn group_outstanding(&self, group: HitGroupId) -> u32;

    /// Number of questions in a HIT (for mapping flattened answer
    /// positions back to tuples).
    fn hit_question_count(&self, hit: HitId) -> usize;

    /// Ban workers from future assignments (§6). In-flight work is
    /// unaffected.
    fn ban_workers(&mut self, workers: Vec<WorkerId>);

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Total HITs ever posted to the *real* crowd (cache hits served
    /// without posting do not count).
    fn hits_posted(&self) -> usize;

    /// Total dollars spent since construction.
    fn spend_dollars(&self) -> f64;

    /// Total assignments paid for since construction.
    fn assignments_completed(&self) -> u64;

    /// Assignments requested per HIT when [`Self::post_group`] is
    /// used without an override (the paper's 5 unless the backend
    /// says otherwise). Used for accounting, not enforcement.
    fn default_assignments(&self) -> u32 {
        5
    }

    /// Post with an optional assignment override (`None` = default).
    fn post(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        match assignments {
            Some(n) => self.post_group_with_assignments(specs, n),
            None => self.post_group(specs),
        }
    }
}

impl CrowdBackend for Marketplace {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        Marketplace::post_group(self, specs)
    }

    fn default_assignments(&self) -> u32 {
        Marketplace::default_assignments(self)
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        Marketplace::post_group_with_assignments(self, specs, assignments)
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        Marketplace::run(self, limit_secs)
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        Marketplace::assignments(self, group).cloned().collect()
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        Marketplace::group_hits(self, group)
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        Marketplace::group_latencies(self, group)
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        Marketplace::group_outstanding(self, group)
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.hit(hit).questions.len()
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        Marketplace::ban_workers(self, workers)
    }

    fn now(&self) -> SimTime {
        Marketplace::now(self)
    }

    fn hits_posted(&self) -> usize {
        Marketplace::hits_posted(self)
    }

    fn spend_dollars(&self) -> f64 {
        self.ledger.total()
    }

    fn assignments_completed(&self) -> u64 {
        self.ledger.assignments_paid
    }
}

impl<B: CrowdBackend + ?Sized> CrowdBackend for &mut B {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        (**self).post_group(specs)
    }

    fn default_assignments(&self) -> u32 {
        (**self).default_assignments()
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        (**self).post_group_with_assignments(specs, assignments)
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        (**self).run(limit_secs)
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        (**self).assignments(group)
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        (**self).group_hits(group)
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        (**self).group_latencies(group)
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        (**self).group_outstanding(group)
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        (**self).hit_question_count(hit)
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        (**self).ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        (**self).now()
    }

    fn hits_posted(&self) -> usize {
        (**self).hits_posted()
    }

    fn spend_dollars(&self) -> f64 {
        (**self).spend_dollars()
    }

    fn assignments_completed(&self) -> u64 {
        (**self).assignments_completed()
    }
}

/// Content key for one HIT spec under a given assignment request.
/// Identical questions + interface + assignment count ⇒ identical key.
fn spec_key(spec: &HitSpec, assignments: Option<u32>) -> u64 {
    let mut h = DefaultHasher::new();
    // Question and HitKind are Hash, so the key is computed directly
    // from content with zero allocation (the seed rendered both to a
    // Debug string first).
    spec.kind.hash(&mut h);
    spec.questions.hash(&mut h);
    assignments.hash(&mut h);
    h.finish()
}

// ------------------------------------------------------------- caching

/// One recorded assignment, relative to its group's post time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAssignment {
    pub worker: WorkerId,
    pub answers: Vec<Answer>,
    pub accept_delay_secs: f64,
    pub submit_delay_secs: f64,
}

/// Fold one *completed* inner group into a spec-keyed trace store
/// (shared by [`CachingBackend`] and [`RecordingBackend`]).
/// `keys_by_pos` maps inner-hit positions (spec order) to spec keys;
/// positions absent from it are skipped.
fn fold_completed_group<B: CrowdBackend + ?Sized>(
    inner: &mut B,
    group: HitGroupId,
    posted_at: SimTime,
    keys_by_pos: &[(usize, u64)],
    entries: &mut HashMap<u64, TraceEntry>,
) {
    let inner_hits = inner.group_hits(group);
    let mut by_hit: HashMap<HitId, Vec<Assignment>> = HashMap::new();
    for a in inner.assignments(group) {
        by_hit.entry(a.hit).or_default().push(a);
    }
    for &(pos, key) in keys_by_pos {
        let hit = inner_hits[pos];
        let assignments = by_hit
            .remove(&hit)
            .unwrap_or_default()
            .into_iter()
            .map(|a| TraceAssignment {
                worker: a.worker,
                answers: a.answers,
                accept_delay_secs: a.accepted_at.secs() - posted_at.secs(),
                submit_delay_secs: a.submitted_at.secs() - posted_at.secs(),
            })
            .collect();
        let question_count = inner.hit_question_count(hit);
        entries.entry(key).or_insert(TraceEntry {
            question_count,
            assignments,
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum VirtualSource {
    /// Served from cache; assignments replayed from the store.
    Cached(u64),
    /// Forwarded to the inner backend.
    Live { inner_hit_pos: usize },
    /// Identical to a live spec still in flight in another group
    /// (`owner` is that group's index): posted once by the owner,
    /// served here from the cache as soon as the owner completes.
    Shared { owner: usize },
}

#[derive(Debug, Clone, Copy)]
struct VirtualHit {
    question_count: usize,
    source: VirtualSource,
    key: u64,
}

#[derive(Debug)]
struct CacheGroup {
    /// Inner group holding the forwarded (uncached) specs, if any.
    inner: Option<HitGroupId>,
    /// Virtual HIT ids of this group, spec order.
    hits: Vec<HitId>,
    posted_at: SimTime,
    /// Live results folded into the cache yet?
    recorded: bool,
}

/// A backend decorator implementing the Task Cache of Figure 1 at the
/// HIT boundary: a spec identical (questions, interface, assignment
/// request) to one already completed is never re-posted — its recorded
/// assignments are replayed with zero latency and zero cost.
///
/// Granularity is the **whole HIT spec**, not individual questions
/// (where the seed's `TaskCache` cached combined answers per
/// question). Exactly repeated work — the common re-run case — is
/// free, but queries whose item sets overlap while batching
/// differently (e.g. after a machine filter drops a row and shifts
/// the chunking) produce different specs and re-ask the crowd.
///
/// Virtual HIT/group ids are allocated by this decorator; callers must
/// not mix them with the inner backend's ids.
pub struct CachingBackend<B> {
    inner: B,
    cache: HashMap<u64, TraceEntry>,
    /// Spec keys posted live but not yet folded into the cache, mapped
    /// to the virtual group that owns the live posting. A subsequent
    /// identical spec piggybacks on the in-flight work
    /// ([`VirtualSource::Shared`]) instead of re-posting — the
    /// cross-tenant "identical specs are paid for once" guarantee of
    /// [`crate::service`] even when both arrive in the same round.
    pending: HashMap<u64, usize>,
    hits: Vec<VirtualHit>,
    groups: Vec<CacheGroup>,
    next_assignment_id: usize,
    cache_hits: u64,
    cache_misses: u64,
    shared_hits: u64,
    /// Optional durable journal: every entry folded into `cache` is
    /// write-ahead appended here *before* the round's assignments are
    /// handed to the caller, so an acknowledged paid round is never
    /// lost to a crash (see [`crate::store`]).
    journal: Option<Arc<DurableStore>>,
    /// Cache growth bound: when set, least-recently-used entries are
    /// evicted once `cache` exceeds this many specs (see
    /// [`Self::set_max_entries`]). `None` = unbounded (the default).
    max_entries: Option<usize>,
    /// Monotone recency counter; bumped on every cache touch.
    tick: u64,
    /// Last-touch tick per cached spec key.
    recency: HashMap<u64, u64>,
    /// Entries touched at or after this tick are pinned: a batch's
    /// live groups hold bare spec keys, so anything referenced since
    /// [`Self::begin_batch`] must stay resident until the next batch.
    batch_floor: u64,
    evictions: u64,
}

impl<B: CrowdBackend> CachingBackend<B> {
    pub fn new(inner: B) -> Self {
        CachingBackend {
            inner,
            cache: HashMap::new(),
            pending: HashMap::new(),
            hits: Vec::new(),
            groups: Vec::new(),
            next_assignment_id: 0,
            cache_hits: 0,
            cache_misses: 0,
            shared_hits: 0,
            journal: None,
            max_entries: None,
            tick: 0,
            recency: HashMap::new(),
            batch_floor: 0,
            evictions: 0,
        }
    }

    /// A caching backend journaling to (and preloaded from) a durable
    /// store: the store's recovered cache entries replay without
    /// re-posting, and every newly paid round is appended write-ahead.
    pub fn with_journal(inner: B, journal: Arc<DurableStore>) -> Self {
        let mut backend = CachingBackend::new(inner);
        backend.cache = journal.cache_snapshot();
        // Seed recency in sorted-key order so a later eviction pass
        // over recovered entries is deterministic (the snapshot is a
        // HashMap; its iteration order is not).
        let mut keys: Vec<u64> = backend.cache.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            backend.tick += 1;
            backend.recency.insert(key, backend.tick);
        }
        backend.journal = Some(journal);
        backend
    }

    /// The attached durable journal, if any.
    pub fn journal(&self) -> Option<&Arc<DurableStore>> {
        self.journal.as_ref()
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    pub fn into_inner(self) -> B {
        self.inner
    }

    /// (cache hits, cache misses) over all posted specs. Specs served
    /// by piggybacking on in-flight identical work count as hits.
    pub fn stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// How many of the cache hits were in-flight shares: specs whose
    /// identical twin had been posted live but had not completed yet.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Assignments still outstanding in the group's **own** live
    /// posting, excluding in-flight work shared from other groups.
    /// This is what the group's owner will be charged for; see
    /// [`CrowdBackend::group_outstanding`] for the completion view.
    pub fn live_outstanding(&self, group: HitGroupId) -> u32 {
        self.groups[group.0]
            .inner
            .map_or(0, |ig| self.inner.group_outstanding(ig))
    }

    /// Number of distinct specs with recorded answers.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drop all recorded answers (subsequent identical specs re-post).
    pub fn clear(&mut self) {
        self.cache.clear();
        self.recency.clear();
        self.cache_hits = 0;
        self.cache_misses = 0;
    }

    /// Export the recorded spec → assignment traces (e.g. to seed a
    /// [`ReplayBackend`]).
    pub fn export_trace(&self) -> ReplayTrace {
        ReplayTrace {
            entries: self.cache.clone(),
        }
    }

    /// Bound the cache to at most `max` recorded specs, evicting the
    /// least recently used beyond that (`None` removes the bound).
    ///
    /// Eviction is memory-only and journal-aware: a journaled entry is
    /// never deleted from the durable log, so recovery still replays
    /// every paid round. An evicted spec that is posted again is a
    /// cache miss — it re-posts live and is paid for again, exactly as
    /// if it had never been seen. Entries touched since the last
    /// [`Self::begin_batch`] are pinned (live groups reference them by
    /// key), so the cache may transiently overshoot `max` within a
    /// batch.
    pub fn set_max_entries(&mut self, max: Option<usize>) {
        self.max_entries = max;
        self.enforce_cap();
    }

    /// Builder form of [`Self::set_max_entries`].
    pub fn with_max_entries(mut self, max: usize) -> Self {
        self.set_max_entries(Some(max));
        self
    }

    /// The configured cache bound, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Entries evicted by the [`Self::set_max_entries`] bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Mark a batch boundary: everything cached so far becomes
    /// eligible for eviction, and entries touched from here on are
    /// pinned until the next boundary. The service scheduler calls
    /// this at the top of every `run_pending` batch; standalone
    /// sessions call it per query.
    pub fn begin_batch(&mut self) {
        self.batch_floor = self.tick;
        self.enforce_cap();
    }

    fn touch(&mut self, key: u64) {
        self.tick += 1;
        self.recency.insert(key, self.tick);
    }

    /// Evict least-recently-used unpinned entries until the cache fits
    /// `max_entries`. Linear scans per eviction are fine at the cache
    /// sizes a bound is meant for (thousands of specs).
    fn enforce_cap(&mut self) {
        let Some(max) = self.max_entries else { return };
        while self.cache.len() > max {
            let victim = self
                .cache
                .keys()
                .map(|&k| (self.recency.get(&k).copied().unwrap_or(0), k))
                .filter(|&(tick, _)| tick < self.batch_floor)
                .min();
            let Some((_, key)) = victim else {
                break; // everything resident is pinned by the current batch
            };
            self.cache.remove(&key);
            self.recency.remove(&key);
            self.evictions += 1;
        }
    }

    fn post_impl(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let group_id = HitGroupId(self.groups.len());
        let posted_at = self.inner.now();
        let mut group_hits = Vec::with_capacity(specs.len());
        let mut live_specs = Vec::new();
        for spec in specs {
            let key = spec_key(&spec, assignments);
            let question_count = spec.questions.len();
            let hit_id = HitId(self.hits.len());
            group_hits.push(hit_id);
            let source = if self.cache.contains_key(&key) {
                self.cache_hits += 1;
                // Pin the entry for the rest of the batch: this group
                // holds only the bare key and will replay it later.
                self.touch(key);
                VirtualSource::Cached(key)
            } else if let Some(&owner) = self.pending.get(&key) {
                self.cache_hits += 1;
                self.shared_hits += 1;
                VirtualSource::Shared { owner }
            } else {
                self.cache_misses += 1;
                self.pending.insert(key, group_id.0);
                let pos = live_specs.len();
                live_specs.push(spec);
                VirtualSource::Live { inner_hit_pos: pos }
            };
            self.hits.push(VirtualHit {
                question_count,
                source,
                key,
            });
        }
        let inner = if live_specs.is_empty() {
            None
        } else {
            Some(self.inner.post(live_specs, assignments))
        };
        self.groups.push(CacheGroup {
            inner,
            hits: group_hits,
            posted_at,
            recorded: false,
        });
        group_id
    }

    /// Fold a completed group's live results into the cache.
    fn record_group(&mut self, group: HitGroupId) {
        let (inner_group, posted_at) = {
            let g = &self.groups[group.0];
            if g.recorded {
                return;
            }
            let Some(ig) = g.inner else {
                self.groups[group.0].recorded = true;
                return;
            };
            if self.inner.group_outstanding(ig) > 0 {
                return; // not finished yet; try again later
            }
            (ig, g.posted_at)
        };
        let keys_by_pos: Vec<(usize, u64)> = self.groups[group.0]
            .hits
            .iter()
            .filter_map(|&h| {
                let vh = &self.hits[h.0];
                match vh.source {
                    VirtualSource::Live { inner_hit_pos } => Some((inner_hit_pos, vh.key)),
                    VirtualSource::Cached(_) | VirtualSource::Shared { .. } => None,
                }
            })
            .collect();
        // Which keys are about to enter the cache for the first time
        // (fold is `or_insert`, so pre-existing entries are kept).
        let fresh: Vec<u64> = keys_by_pos
            .iter()
            .map(|&(_, key)| key)
            .filter(|key| !self.cache.contains_key(key))
            .collect();
        fold_completed_group(
            &mut self.inner,
            inner_group,
            posted_at,
            &keys_by_pos,
            &mut self.cache,
        );
        for &(_, key) in &keys_by_pos {
            self.pending.remove(&key);
            self.touch(key);
        }
        // Write-ahead: the paid round becomes durable before its
        // assignments are returned to (acknowledged by) the caller.
        if let Some(journal) = &self.journal {
            for key in fresh {
                if let Some(entry) = self.cache.get(&key) {
                    journal.append_cache_entry(key, entry);
                }
            }
        }
        self.groups[group.0].recorded = true;
        self.enforce_cap();
    }

    /// Release the in-flight dedup slots owned by `group` (the
    /// `pending` keys of its live specs) without folding anything.
    ///
    /// Called when the query that posted the group **fails** before
    /// its rounds complete: leaving the keys pending would make every
    /// future identical spec piggyback
    /// (`VirtualSource::Shared`) on a group nobody is driving to
    /// completion — a leak that turns into a hang or a miss. After
    /// release, an identical spec re-posts live. A group that already
    /// recorded is untouched (its keys are in the cache, not pending).
    pub fn release_in_flight(&mut self, group: HitGroupId) {
        if self.groups.get(group.0).is_none_or(|g| g.recorded) {
            return;
        }
        self.pending.retain(|_, owner| *owner != group.0);
    }

    /// Number of spec keys posted live but not yet folded (in-flight
    /// dedup slots) — observability for the release-on-error fix.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Release **every** in-flight dedup slot. Single-owner variant of
    /// [`Self::release_in_flight`] for contexts (like [`crate::session::Session`])
    /// where all pending groups belong to the one query that just
    /// failed.
    pub fn release_all_in_flight(&mut self) {
        self.pending.clear();
    }

    /// Fold the owner groups of this group's unresolved shared specs,
    /// so [`Self::replay_shared`] finds their answers in the cache.
    fn record_shared_owners(&mut self, group: HitGroupId) {
        let owners: Vec<usize> = self.groups[group.0]
            .hits
            .clone()
            .into_iter()
            .filter_map(|h| {
                let vh = &self.hits[h.0];
                match vh.source {
                    VirtualSource::Shared { owner } if !self.cache.contains_key(&vh.key) => {
                        Some(owner)
                    }
                    _ => None,
                }
            })
            .collect();
        for owner in owners {
            self.record_group(HitGroupId(owner));
        }
    }

    fn replay(&mut self, key: u64, hit: HitId, group: HitGroupId) -> Vec<Assignment> {
        let posted_at = self.groups[group.0].posted_at;
        // Cached sources are pinned against eviction from post time
        // (`touch` in `post_impl`) until the next batch boundary, so
        // the entry is present for any group still being read; a group
        // read across batches degrades to no answers rather than a
        // panic.
        let Some(entry) = self.cache.get(&key) else {
            return Vec::new();
        };
        let cached = entry.assignments.clone();
        self.touch(key);
        cached
            .into_iter()
            .map(|t| {
                let id = AssignmentId(usize::MAX - self.next_assignment_id);
                self.next_assignment_id += 1;
                Assignment {
                    id,
                    hit,
                    group,
                    worker: t.worker,
                    answers: t.answers,
                    // Replays are instantaneous: the answer already
                    // exists, nobody re-does the work.
                    accepted_at: posted_at,
                    submitted_at: posted_at,
                }
            })
            .collect()
    }

    /// Serve a shared spec from the cache with the *owner's* real
    /// completion times: the sharer genuinely waited for the in-flight
    /// crowd work, unlike a [`VirtualSource::Cached`] replay.
    /// Timestamps are clamped to the sharer's post time for answers
    /// that had already arrived when it posted.
    fn replay_shared(
        &mut self,
        key: u64,
        hit: HitId,
        group: HitGroupId,
        owner: usize,
    ) -> Vec<Assignment> {
        let own_posted = self.groups[group.0].posted_at;
        let owner_posted = self.groups[owner].posted_at;
        let clamp = |t: SimTime| {
            if t.secs() < own_posted.secs() {
                own_posted
            } else {
                t
            }
        };
        let Some(entry) = self.cache.get(&key) else {
            return Vec::new();
        };
        let cached = entry.assignments.clone();
        self.touch(key);
        cached
            .into_iter()
            .map(|t| {
                let id = AssignmentId(usize::MAX - self.next_assignment_id);
                self.next_assignment_id += 1;
                Assignment {
                    id,
                    hit,
                    group,
                    worker: t.worker,
                    answers: t.answers,
                    accepted_at: clamp(owner_posted.plus_secs(t.accept_delay_secs)),
                    submitted_at: clamp(owner_posted.plus_secs(t.submit_delay_secs)),
                }
            })
            .collect()
    }
}

impl<B: CrowdBackend> CrowdBackend for CachingBackend<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        self.post_impl(specs, None)
    }

    fn default_assignments(&self) -> u32 {
        self.inner.default_assignments()
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        self.post_impl(specs, Some(assignments))
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        self.inner.run(limit_secs)
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        self.record_group(group);
        self.record_shared_owners(group);
        let hits = self.groups[group.0].hits.clone();
        let inner_group = self.groups[group.0].inner;
        let mut out = Vec::new();
        // Live assignments first, translated to virtual ids; their
        // completion order is preserved.
        if let Some(ig) = inner_group {
            let inner_hits = self.inner.group_hits(ig);
            let inner_pos: HashMap<HitId, usize> = inner_hits
                .iter()
                .enumerate()
                .map(|(p, &h)| (h, p))
                .collect();
            let live_virt: Vec<HitId> = hits
                .iter()
                .copied()
                .filter(|&h| matches!(self.hits[h.0].source, VirtualSource::Live { .. }))
                .collect();
            for mut a in self.inner.assignments(ig) {
                let pos = inner_pos[&a.hit];
                a.hit = live_virt[pos];
                a.group = group;
                out.push(a);
            }
        }
        for h in hits {
            match self.hits[h.0].source {
                VirtualSource::Cached(key) => out.extend(self.replay(key, h, group)),
                VirtualSource::Shared { owner } => {
                    let key = self.hits[h.0].key;
                    if self.cache.contains_key(&key) {
                        out.extend(self.replay_shared(key, h, group, owner));
                    }
                }
                VirtualSource::Live { .. } => {}
            }
        }
        out
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        self.groups[group.0].hits.clone()
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        let g = &self.groups[group.0];
        let mut out = Vec::new();
        if let Some(ig) = g.inner {
            out.extend(self.inner.group_latencies(ig));
        }
        for &h in &g.hits {
            match self.hits[h.0].source {
                VirtualSource::Cached(key) => {
                    // Replayed answers arrive instantly. Missing means
                    // evicted after the group's batch ended.
                    let n = self.cache.get(&key).map_or(0, |e| e.assignments.len());
                    out.extend(std::iter::repeat_n(0.0, n));
                }
                VirtualSource::Shared { owner } => {
                    // The sharer waits for the owner's live round: its
                    // latency is the owner's, minus the head start the
                    // owner had (clamped for answers that landed before
                    // this group was even posted).
                    if let Some(entry) = self.cache.get(&self.hits[h.0].key) {
                        let offset = g.posted_at.secs() - self.groups[owner].posted_at.secs();
                        out.extend(
                            entry
                                .assignments
                                .iter()
                                .map(|a| (a.submit_delay_secs - offset).max(0.0)),
                        );
                    }
                }
                VirtualSource::Live { .. } => {}
            }
        }
        out
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        let g = &self.groups[group.0];
        let mut out = g.inner.map_or(0, |ig| self.inner.group_outstanding(ig));
        // Shared specs are complete only once their owner's live round
        // is: count each unresolved owner's outstanding work once.
        let mut seen: Vec<usize> = vec![group.0];
        for &h in &g.hits {
            let vh = &self.hits[h.0];
            if let VirtualSource::Shared { owner } = vh.source {
                if self.cache.contains_key(&vh.key) || seen.contains(&owner) {
                    continue;
                }
                seen.push(owner);
                if let Some(ig) = self.groups[owner].inner {
                    out += self.inner.group_outstanding(ig);
                }
            }
        }
        out
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.hits[hit.0].question_count
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.inner.ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn hits_posted(&self) -> usize {
        self.inner.hits_posted()
    }

    fn spend_dollars(&self) -> f64 {
        self.inner.spend_dollars()
    }

    fn assignments_completed(&self) -> u64 {
        self.inner.assignments_completed()
    }
}

// ------------------------------------------------------------ metering

/// One HIT group's observed round: size, effort, and completion time.
/// The raw material of the optimizer's latency model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundObservation {
    /// HITs in the group.
    pub hits: usize,
    /// Total worker effort: Σ spec work-units × assignments per HIT.
    pub work_units: f64,
    /// Seconds from posting to the last completed assignment.
    pub secs: f64,
}

/// Resource usage over one metering epoch (typically one query).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendUsage {
    /// HITs posted to the real crowd.
    pub hits_posted: usize,
    /// Assignments paid for.
    pub assignments: u64,
    /// Dollars spent.
    pub dollars: f64,
    /// Virtual time elapsed (seconds).
    pub elapsed_secs: f64,
}

#[derive(Debug, Clone, Copy)]
struct MeterSnapshot {
    hits: usize,
    assignments: u64,
    dollars: f64,
    at: f64,
}

/// A backend decorator that meters resource consumption in epochs.
/// [`crate::session::Session`] opens one epoch per query and builds
/// [`crate::session::QueryReport`]s from the usage deltas.
pub struct MeteringBackend<B> {
    inner: B,
    epoch_start: Option<MeterSnapshot>,
    history: Vec<BackendUsage>,
    /// Groups posted during the open epoch (with their total
    /// assignment work-units), for per-round latency observation.
    epoch_groups: Vec<(HitGroupId, f64)>,
    /// Observed rounds of the last closed epoch.
    last_epoch_groups: Vec<RoundObservation>,
}

impl<B: CrowdBackend> MeteringBackend<B> {
    pub fn new(inner: B) -> Self {
        MeteringBackend {
            inner,
            epoch_start: None,
            history: Vec::new(),
            epoch_groups: Vec::new(),
            last_epoch_groups: Vec::new(),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    pub fn into_inner(self) -> B {
        self.inner
    }

    fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            hits: self.inner.hits_posted(),
            assignments: self.inner.assignments_completed(),
            dollars: self.inner.spend_dollars(),
            at: self.inner.now().secs(),
        }
    }

    /// Open a new epoch (discarding any currently open one).
    pub fn begin_epoch(&mut self) {
        self.epoch_start = Some(self.snapshot());
        self.epoch_groups.clear();
    }

    /// Usage since [`Self::begin_epoch`] (or since construction if no
    /// epoch is open).
    ///
    /// An epoch that posted no HITs and completed no assignments is a
    /// **zero-cost epoch**: its elapsed time is reported as 0 even if
    /// the backend's clock moved. The clock can tick inside such an
    /// epoch only on behalf of *other* work (stale outstanding HITs
    /// from an earlier timed-out query, queued arrival events), and
    /// charging those ticks to a machine-only or fully-cached query
    /// would double-count them across epochs.
    pub fn epoch_usage(&self) -> BackendUsage {
        let start = self.epoch_start.unwrap_or(MeterSnapshot {
            hits: 0,
            assignments: 0,
            dollars: 0.0,
            at: 0.0,
        });
        let end = self.snapshot();
        let hits_posted = end.hits - start.hits;
        let assignments = end.assignments - start.assignments;
        BackendUsage {
            hits_posted,
            assignments,
            dollars: end.dollars - start.dollars,
            elapsed_secs: if hits_posted == 0 && assignments == 0 {
                0.0
            } else {
                end.at - start.at
            },
        }
    }

    /// Close the epoch, append its usage to the history and return it.
    pub fn end_epoch(&mut self) -> BackendUsage {
        let usage = self.epoch_usage();
        self.epoch_start = None;
        self.history.push(usage);
        // Per-round observations: the raw material of the optimizer's
        // latency model (round time ≈ α + β · work-units).
        self.last_epoch_groups = self
            .epoch_groups
            .drain(..)
            .map(|(g, work_units)| {
                let hits = self.inner.group_hits(g).len();
                let secs = self
                    .inner
                    .group_latencies(g)
                    .into_iter()
                    .fold(0.0f64, f64::max);
                RoundObservation {
                    hits,
                    work_units,
                    secs,
                }
            })
            .collect();
        usage
    }

    /// Observed rounds of the most recently closed epoch, in posting
    /// order. Groups with no completed assignments report 0 seconds.
    pub fn last_epoch_groups(&self) -> &[RoundObservation] {
        &self.last_epoch_groups
    }

    /// Usage of every closed epoch, in order.
    pub fn history(&self) -> &[BackendUsage] {
        &self.history
    }
}

fn specs_work_units(specs: &[HitSpec], assignments: u32) -> f64 {
    specs.iter().map(HitSpec::work_units).sum::<f64>() * f64::from(assignments)
}

impl<B: CrowdBackend> CrowdBackend for MeteringBackend<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        let units = specs_work_units(&specs, self.inner.default_assignments());
        let g = self.inner.post_group(specs);
        self.epoch_groups.push((g, units));
        g
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        let units = specs_work_units(&specs, assignments);
        let g = self.inner.post_group_with_assignments(specs, assignments);
        self.epoch_groups.push((g, units));
        g
    }

    fn default_assignments(&self) -> u32 {
        self.inner.default_assignments()
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        self.inner.run(limit_secs)
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        self.inner.assignments(group)
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        self.inner.group_hits(group)
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        self.inner.group_latencies(group)
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        self.inner.group_outstanding(group)
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.inner.hit_question_count(hit)
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.inner.ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn hits_posted(&self) -> usize {
        self.inner.hits_posted()
    }

    fn spend_dollars(&self) -> f64 {
        self.inner.spend_dollars()
    }

    fn assignments_completed(&self) -> u64 {
        self.inner.assignments_completed()
    }
}

// ----------------------------------------------------- record / replay

/// Recorded answers for one HIT spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    pub question_count: usize,
    pub assignments: Vec<TraceAssignment>,
}

/// A spec-keyed trace of crowd answers, produced by
/// [`RecordingBackend`] (or [`CachingBackend::export_trace`]) and
/// consumed by [`ReplayBackend`].
#[derive(Debug, Clone, Default)]
pub struct ReplayTrace {
    entries: HashMap<u64, TraceEntry>,
}

impl ReplayTrace {
    /// Number of distinct specs with recorded answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded spec keys, sorted (for diffing against a durable
    /// store's [`DurableStore::cache_keys`]).
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The recorded entry for one spec key.
    pub fn get(&self, key: u64) -> Option<&TraceEntry> {
        self.entries.get(&key)
    }
}

/// A passthrough decorator that records every completed HIT's
/// assignments, keyed by spec content. Ids are the inner backend's ids
/// (unlike [`CachingBackend`], nothing is rewritten or deduplicated).
pub struct RecordingBackend<B> {
    inner: B,
    trace: ReplayTrace,
    groups: Vec<RecordedGroup>,
}

struct RecordedGroup {
    inner: HitGroupId,
    keys: Vec<u64>,
    posted_at: SimTime,
    recorded: bool,
}

impl<B: CrowdBackend> RecordingBackend<B> {
    pub fn new(inner: B) -> Self {
        RecordingBackend {
            inner,
            trace: ReplayTrace::default(),
            groups: Vec::new(),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The trace recorded so far: every group that had completed by
    /// the last [`CrowdBackend::run`] / [`CrowdBackend::assignments`]
    /// call is included.
    pub fn trace(&self) -> &ReplayTrace {
        &self.trace
    }

    /// Consume the recorder, returning the trace.
    pub fn into_trace(self) -> ReplayTrace {
        self.trace
    }

    fn post_impl(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let keys = specs.iter().map(|s| spec_key(s, assignments)).collect();
        let posted_at = self.inner.now();
        let inner = self.inner.post(specs, assignments);
        self.groups.push(RecordedGroup {
            inner,
            keys,
            posted_at,
            recorded: false,
        });
        inner
    }

    fn record_completed(&mut self) {
        for gi in 0..self.groups.len() {
            if self.groups[gi].recorded || self.inner.group_outstanding(self.groups[gi].inner) > 0 {
                continue;
            }
            let keys_by_pos: Vec<(usize, u64)> =
                self.groups[gi].keys.iter().copied().enumerate().collect();
            fold_completed_group(
                &mut self.inner,
                self.groups[gi].inner,
                self.groups[gi].posted_at,
                &keys_by_pos,
                &mut self.trace.entries,
            );
            self.groups[gi].recorded = true;
        }
    }
}

impl<B: CrowdBackend> CrowdBackend for RecordingBackend<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        self.post_impl(specs, None)
    }

    fn default_assignments(&self) -> u32 {
        self.inner.default_assignments()
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        self.post_impl(specs, Some(assignments))
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        let outcome = self.inner.run(limit_secs);
        self.record_completed();
        outcome
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        self.record_completed();
        self.inner.assignments(group)
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        self.inner.group_hits(group)
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        self.inner.group_latencies(group)
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        self.inner.group_outstanding(group)
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.inner.hit_question_count(hit)
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.inner.ban_workers(workers)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn hits_posted(&self) -> usize {
        self.inner.hits_posted()
    }

    fn spend_dollars(&self) -> f64 {
        self.inner.spend_dollars()
    }

    fn assignments_completed(&self) -> u64 {
        self.inner.assignments_completed()
    }
}

/// A [`CrowdBackend`] with no marketplace behind it: assignments are
/// served from a [`ReplayTrace`]. Posting a spec absent from the trace
/// leaves it outstanding forever, so [`CrowdBackend::run`] reports
/// [`RunOutcome::TimedOut`] — the replay equivalent of a batch the
/// crowd never accepts.
pub struct ReplayBackend {
    trace: ReplayTrace,
    hits: Vec<ReplayHit>,
    groups: Vec<ReplayGroup>,
    now: SimTime,
    price_per_assignment: f64,
    default_assignments: u32,
    banned: Vec<WorkerId>,
    next_assignment_id: usize,
}

struct ReplayHit {
    key: u64,
    question_count: usize,
    requested: Option<u32>,
    completed: bool,
}

struct ReplayGroup {
    hits: Vec<HitId>,
    posted_at: SimTime,
}

impl ReplayBackend {
    pub fn from_trace(trace: ReplayTrace) -> Self {
        ReplayBackend {
            trace,
            hits: Vec::new(),
            groups: Vec::new(),
            now: SimTime::ZERO,
            price_per_assignment: 0.015,
            default_assignments: 5,
            banned: Vec::new(),
            next_assignment_id: 0,
        }
    }

    /// Assignments assumed per HIT when `post_group` is used and the
    /// spec is absent from the trace (only affects the outstanding
    /// count reported for unanswerable work). Defaults to the paper's 5.
    pub fn with_default_assignments(mut self, n: u32) -> Self {
        self.default_assignments = n;
        self
    }

    /// Price charged per replayed assignment (defaults to the paper's
    /// $0.015).
    pub fn with_price(mut self, dollars_per_assignment: f64) -> Self {
        self.price_per_assignment = dollars_per_assignment;
        self
    }

    /// Workers passed to [`CrowdBackend::ban_workers`]. Replayed
    /// traces are immutable, so bans are recorded but do not filter
    /// answers — mirroring "in-flight work is unaffected".
    pub fn banned(&self) -> &[WorkerId] {
        &self.banned
    }

    fn post_impl(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let group = HitGroupId(self.groups.len());
        let mut hits = Vec::with_capacity(specs.len());
        for spec in specs {
            assert!(!spec.questions.is_empty(), "HIT must contain questions");
            let id = HitId(self.hits.len());
            self.hits.push(ReplayHit {
                key: spec_key(&spec, assignments),
                question_count: spec.questions.len(),
                requested: assignments,
                completed: false,
            });
            hits.push(id);
        }
        self.groups.push(ReplayGroup {
            hits,
            posted_at: self.now,
        });
        group
    }

    fn entry(&self, hit: &ReplayHit) -> Option<&TraceEntry> {
        self.trace.entries.get(&hit.key)
    }
}

impl CrowdBackend for ReplayBackend {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        self.post_impl(specs, None)
    }

    fn default_assignments(&self) -> u32 {
        self.default_assignments
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        self.post_impl(specs, Some(assignments))
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        // Complete every hit whose recorded answers arrived within the
        // time budget, advancing the clock to the latest replayed
        // submission. Hits the trace cannot answer — or whose recorded
        // crowd took longer than the budget allows — stay outstanding,
        // exactly like a live marketplace timing out.
        let deadline = self.now.plus_secs(limit_secs);
        let mut latest = self.now.secs();
        let mut incomplete = false;
        for gi in 0..self.groups.len() {
            let posted = self.groups[gi].posted_at;
            for hi in 0..self.groups[gi].hits.len() {
                let hit_id = self.groups[gi].hits[hi];
                if self.hits[hit_id.0].completed {
                    continue;
                }
                match self.trace.entries.get(&self.hits[hit_id.0].key) {
                    Some(entry) => {
                        let finish = entry
                            .assignments
                            .iter()
                            .map(|a| posted.secs() + a.submit_delay_secs)
                            .fold(posted.secs(), f64::max);
                        if finish <= deadline.secs() {
                            latest = latest.max(finish);
                            self.hits[hit_id.0].completed = true;
                        } else {
                            incomplete = true;
                        }
                    }
                    None => incomplete = true,
                }
            }
        }
        if incomplete {
            self.now = deadline;
            RunOutcome::TimedOut
        } else {
            if latest > self.now.secs() {
                self.now = SimTime::ZERO.plus_secs(latest);
            }
            RunOutcome::Completed
        }
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        let g = &self.groups[group.0];
        let posted_at = g.posted_at;
        let mut out = Vec::new();
        for &hit in &g.hits {
            let h = &self.hits[hit.0];
            if !h.completed {
                continue;
            }
            let Some(entry) = self.entry(h) else { continue };
            for t in entry.assignments.clone() {
                let id = AssignmentId(self.next_assignment_id);
                self.next_assignment_id += 1;
                out.push(Assignment {
                    id,
                    hit,
                    group,
                    worker: t.worker,
                    answers: t.answers,
                    accepted_at: posted_at.plus_secs(t.accept_delay_secs),
                    submitted_at: posted_at.plus_secs(t.submit_delay_secs),
                });
            }
        }
        out
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        self.groups[group.0].hits.clone()
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        self.groups[group.0]
            .hits
            .iter()
            .filter(|&&h| self.hits[h.0].completed)
            .filter_map(|&h| self.entry(&self.hits[h.0]))
            .flat_map(|e| e.assignments.iter().map(|a| a.submit_delay_secs))
            .collect()
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        // Like Marketplace: outstanding *assignments*, not HITs. For a
        // spec the trace cannot answer, the recorded assignment count
        // is unknown, so fall back to the requested (or default) count.
        self.groups[group.0]
            .hits
            .iter()
            .filter(|&&h| !self.hits[h.0].completed)
            .map(|&h| {
                let rh = &self.hits[h.0];
                match self.entry(rh) {
                    Some(e) => e.assignments.len() as u32,
                    None => rh.requested.unwrap_or(self.default_assignments),
                }
            })
            .sum()
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.hits[hit.0].question_count
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        self.banned.extend(workers);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn hits_posted(&self) -> usize {
        self.hits.len()
    }

    fn spend_dollars(&self) -> f64 {
        self.assignments_completed() as f64 * self.price_per_assignment
    }

    fn assignments_completed(&self) -> u64 {
        self.hits
            .iter()
            .filter(|h| h.completed)
            .filter_map(|h| self.entry(h))
            .map(|e| e.assignments.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurk_crowd::question::{HitKind, Question};
    use qurk_crowd::truth::PredicateTruth;
    use qurk_crowd::{CrowdConfig, GroundTruth, ItemId};

    fn market(n: usize) -> (Marketplace, Vec<ItemId>) {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(n);
        for (i, &it) in items.iter().enumerate() {
            gt.set_predicate(
                it,
                "p",
                PredicateTruth {
                    value: i % 2 == 0,
                    error_rate: 0.03,
                },
            );
        }
        (Marketplace::new(&CrowdConfig::default(), gt), items)
    }

    fn filter_specs(items: &[ItemId]) -> Vec<HitSpec> {
        items
            .iter()
            .map(|&item| {
                HitSpec::new(
                    vec![Question::Filter {
                        item,
                        predicate: "p".into(),
                    }],
                    HitKind::Filter,
                )
            })
            .collect()
    }

    #[test]
    fn caching_serves_identical_specs_without_posting() {
        let (m, items) = market(6);
        let mut b = CachingBackend::new(m);
        let g1 = b.post_group(filter_specs(&items));
        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        let first = b.assignments(g1);
        assert_eq!(first.len(), 6 * 5);
        let posted = b.hits_posted();

        let g2 = b.post_group(filter_specs(&items));
        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        let second = b.assignments(g2);
        assert_eq!(b.hits_posted(), posted, "cache hit must not repost");
        assert_eq!(second.len(), first.len());
        // Same answers per spec position, rebadged to the new group.
        for a in &second {
            assert_eq!(a.group, g2);
        }
        assert_eq!(b.stats(), (6, 6));
    }

    /// Regression: a group abandoned before completion (its query
    /// failed) used to leave its `pending` dedup slots behind forever,
    /// so every later identical spec piggybacked on work nobody was
    /// driving. `release_in_flight` must free the slots so a retry
    /// re-posts live.
    #[test]
    fn release_in_flight_frees_abandoned_dedup_slots() {
        let (m, items) = market(6);
        let mut b = CachingBackend::new(m);
        let g1 = b.post_group(filter_specs(&items));
        assert_eq!(b.pending_len(), 6, "live specs hold in-flight slots");

        // The query that owned g1 fails before its rounds complete.
        b.release_in_flight(g1);
        assert_eq!(b.pending_len(), 0, "failed query's slots released");

        // A retry with identical specs must post live (a Shared entry
        // would wait on g1 forever), and completing it works normally.
        let posted_before = b.hits_posted();
        let g2 = b.post_group(filter_specs(&items));
        assert!(
            b.hits_posted() > posted_before,
            "retry must re-post live, not piggyback on the dead group"
        );
        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        assert_eq!(b.assignments(g2).len(), 6 * 5);
        assert_eq!(b.pending_len(), 0, "completed group folded its slots");

        // A recorded group is untouched by release: its keys are in
        // the cache, not pending.
        b.release_in_flight(g2);
        let g3 = b.post_group(filter_specs(&items));
        assert_eq!(b.assignments(g3).len(), 6 * 5, "cache still serves");
    }

    #[test]
    fn caching_mixed_group_translates_ids_correctly() {
        let (m, items) = market(8);
        let mut b = CachingBackend::new(m);
        // Prime the cache with the first half.
        let g1 = b.post_group(filter_specs(&items[..4]));
        b.run_to_completion();
        let _ = b.assignments(g1);
        // Post all 8: 4 cached + 4 live in one group.
        let g2 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        let collected = b.assignments(g2);
        assert_eq!(collected.len(), 8 * 5);
        let hits = b.group_hits(g2);
        assert_eq!(hits.len(), 8);
        // Every assignment's hit id belongs to the group, and each of
        // the 8 virtual hits received exactly 5 assignments.
        let mut per_hit: HashMap<HitId, usize> = HashMap::new();
        for a in &collected {
            assert!(hits.contains(&a.hit));
            *per_hit.entry(a.hit).or_default() += 1;
        }
        assert!(per_hit.values().all(|&c| c == 5));
        // Question counts resolve through virtual ids.
        for &h in &hits {
            assert_eq!(b.hit_question_count(h), 1);
        }
    }

    #[test]
    fn caching_shares_in_flight_specs_without_reposting() {
        let (m, items) = market(4);
        let mut b = CachingBackend::new(m);
        // Two groups with identical specs posted back-to-back, with no
        // run in between: the second must piggyback on the first's
        // in-flight HITs rather than re-post.
        let g1 = b.post_group(filter_specs(&items));
        let posted = b.hits_posted();
        let g2 = b.post_group(filter_specs(&items));
        assert_eq!(b.hits_posted(), posted, "in-flight twin must not repost");
        assert_eq!(b.stats(), (4, 4));
        assert_eq!(b.shared_hits(), 4);
        // Before the crowd runs, *both* groups are incomplete — but
        // only g1 owns live (billable) work.
        assert!(b.group_outstanding(g1) > 0);
        assert!(b.group_outstanding(g2) > 0);
        assert!(b.live_outstanding(g1) > 0);
        assert_eq!(b.live_outstanding(g2), 0);

        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        assert_eq!(b.group_outstanding(g2), 0);
        let first = b.assignments(g1);
        let second = b.assignments(g2);
        assert_eq!(first.len(), 4 * 5);
        assert_eq!(second.len(), 4 * 5);
        // Same answers per spec position, rebadged to g2's ids.
        let key = |assignments: &[Assignment], hits: &[HitId]| -> Vec<Vec<(WorkerId, Answer)>> {
            let mut per: Vec<Vec<(WorkerId, Answer)>> = vec![Vec::new(); hits.len()];
            for a in assignments {
                let pos = hits.iter().position(|&h| h == a.hit).unwrap();
                per[pos].push((a.worker, a.answers[0].clone()));
            }
            for v in &mut per {
                v.sort_by_key(|(w, _)| *w);
            }
            per
        };
        assert_eq!(
            key(&first, &b.group_hits(g1)),
            key(&second, &b.group_hits(g2))
        );
        // Only the live copy was paid for.
        assert_eq!(b.assignments_completed(), 4 * 5);
        // The sharer's latencies reflect the owner's real round, not an
        // instantaneous cache replay.
        let shared_max = b.group_latencies(g2).into_iter().fold(0.0f64, f64::max);
        assert!(shared_max > 0.0, "sharer should observe the crowd's time");
    }

    #[test]
    fn caching_key_distinguishes_assignment_counts() {
        let (m, items) = market(2);
        let mut b = CachingBackend::new(m);
        let g1 = b.post_group_with_assignments(filter_specs(&items), 3);
        b.run_to_completion();
        assert_eq!(b.assignments(g1).len(), 6);
        // Same questions, different assignment request: not a cache hit.
        let g2 = b.post_group_with_assignments(filter_specs(&items), 5);
        b.run_to_completion();
        assert_eq!(b.assignments(g2).len(), 10);
    }

    #[test]
    fn metering_epochs_track_deltas() {
        let (m, items) = market(4);
        let mut b = MeteringBackend::new(m);
        b.begin_epoch();
        let g = b.post_group(filter_specs(&items));
        b.run_to_completion();
        let _ = b.assignments(g);
        let usage = b.end_epoch();
        assert_eq!(usage.hits_posted, 4);
        assert_eq!(usage.assignments, 20);
        assert!((usage.dollars - 20.0 * 0.015).abs() < 1e-9);
        assert!(usage.elapsed_secs > 0.0);

        b.begin_epoch();
        let idle = b.end_epoch();
        assert_eq!(idle, BackendUsage::default());
        assert_eq!(b.history().len(), 2);
    }

    /// Regression: an epoch that posts no HITs must report zero
    /// elapsed time even when the backend's clock advances on behalf
    /// of stale work from an earlier epoch (previously the same ticks
    /// were charged to every subsequent zero-HIT query).
    #[test]
    fn zero_hit_epoch_reports_zero_elapsed() {
        // A replay backend with an empty trace: any posted spec stays
        // outstanding forever and every `run` call advances the clock
        // to its deadline.
        let (m, items) = market(2);
        let mut rec = RecordingBackend::new(m);
        let g = rec.post_group(filter_specs(&items[..1]));
        rec.run_to_completion();
        let _ = rec.assignments(g);
        let mut replay = ReplayBackend::from_trace(rec.into_trace());

        // Epoch 1: post a spec the trace cannot answer; it times out.
        let mut b = MeteringBackend::new(&mut replay);
        b.begin_epoch();
        let _stuck = b.post_group(filter_specs(&items[1..]));
        assert_eq!(b.run(500.0), RunOutcome::TimedOut);
        let first = b.end_epoch();
        assert_eq!(first.hits_posted, 1);

        // Epoch 2: no new work, but running (as any crowd operator
        // would) advances the clock chasing epoch 1's stuck HIT.
        b.begin_epoch();
        assert_eq!(b.run(500.0), RunOutcome::TimedOut);
        let idle = b.end_epoch();
        assert_eq!(idle.hits_posted, 0);
        assert_eq!(idle.assignments, 0);
        assert_eq!(
            idle.elapsed_secs, 0.0,
            "stale clock ticks must not be charged to a zero-HIT epoch"
        );
    }

    #[test]
    fn record_then_replay_reproduces_answers() {
        let (m, items) = market(5);
        let mut rec = RecordingBackend::new(m);
        let g = rec.post_group(filter_specs(&items));
        assert_eq!(rec.run_to_completion(), RunOutcome::Completed);
        let original = rec.assignments(g);
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 5);

        let mut replay = ReplayBackend::from_trace(trace);
        let rg = replay.post_group(filter_specs(&items));
        assert_eq!(replay.run_to_completion(), RunOutcome::Completed);
        let replayed = replay.assignments(rg);
        assert_eq!(replayed.len(), original.len());
        // Answers match per spec position.
        let collect = |assignments: &[Assignment]| -> HashMap<usize, Vec<(WorkerId, Answer)>> {
            let mut out: HashMap<usize, Vec<(WorkerId, Answer)>> = HashMap::new();
            for a in assignments {
                out.entry(a.hit.0)
                    .or_default()
                    .push((a.worker, a.answers[0].clone()));
            }
            for v in out.values_mut() {
                v.sort_by_key(|(w, _)| *w);
            }
            out
        };
        // Both backends number this group's hits 0..5 in spec order.
        assert_eq!(collect(&original), collect(&replayed));
        assert!((replay.spend_dollars() - 25.0 * 0.015).abs() < 1e-9);
    }

    #[test]
    fn replay_times_out_on_unknown_specs() {
        let (m, items) = market(3);
        let mut rec = RecordingBackend::new(m);
        let g = rec.post_group(filter_specs(&items[..2]));
        rec.run_to_completion();
        let _ = rec.assignments(g);
        let mut replay = ReplayBackend::from_trace(rec.into_trace());
        let rg = replay.post_group(filter_specs(&items));
        assert_eq!(replay.run_to_completion(), RunOutcome::TimedOut);
        // Outstanding counts assignments (5 per unknown hit), like the
        // live marketplace.
        assert_eq!(replay.group_outstanding(rg), 5);
        // The known specs still replay.
        assert_eq!(replay.assignments(rg).len(), 2 * 5);
    }

    #[test]
    fn replay_honors_time_budget() {
        // Record a filter group, note how long the crowd took, then
        // replay with a budget smaller than that: the replay must time
        // out with the full assignment count outstanding, and complete
        // once given enough time.
        let (m, items) = market(4);
        let mut rec = RecordingBackend::new(m);
        let g = rec.post_group(filter_specs(&items));
        rec.run_to_completion();
        let recorded_secs = rec.group_latencies(g).into_iter().fold(0.0f64, f64::max);
        assert!(recorded_secs > 1.0);
        let _ = rec.assignments(g);

        let mut replay = ReplayBackend::from_trace(rec.into_trace());
        let rg = replay.post_group(filter_specs(&items));
        assert_eq!(replay.run(recorded_secs / 10.0), RunOutcome::TimedOut);
        assert!(replay.group_outstanding(rg) > 0);
        // A later run with the remaining budget completes the group.
        assert_eq!(replay.run_to_completion(), RunOutcome::Completed);
        assert_eq!(replay.group_outstanding(rg), 0);
        assert_eq!(replay.assignments(rg).len(), 4 * 5);
    }

    #[test]
    fn mut_ref_backend_forwards() {
        let (mut m, items) = market(2);
        fn post_via<B: CrowdBackend>(b: &mut B, specs: Vec<HitSpec>) -> HitGroupId {
            b.post_group(specs)
        }
        let g = post_via(&mut (&mut m), filter_specs(&items));
        CrowdBackend::run_to_completion(&mut m);
        assert_eq!(CrowdBackend::assignments(&mut m, g).len(), 10);
    }

    #[test]
    fn lru_bound_evicts_only_at_batch_boundaries() {
        let (m, items) = market(6);
        let mut b = CachingBackend::new(m).with_max_entries(2);
        // First batch: record 6 entries. All were touched since the
        // (implicit) batch start, so none is evictable yet — the cache
        // overshoots its bound rather than dropping a key a live group
        // still references.
        let g1 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        assert_eq!(b.assignments(g1).len(), 6 * 5);
        assert_eq!(b.len(), 6);
        assert_eq!(b.evictions(), 0, "same-batch entries are pinned");

        // The batch boundary unpins them: trim to the bound, LRU-first.
        b.begin_batch();
        assert_eq!(b.len(), 2);
        assert_eq!(b.evictions(), 4);

        // Re-posting all 6 specs re-pays the 4 evicted ones (they post
        // live again) and still completes with full answers.
        let posted = b.hits_posted();
        let g2 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        assert_eq!(b.assignments(g2).len(), 6 * 5);
        assert_eq!(
            b.hits_posted(),
            posted + 4,
            "evicted specs re-post; survivors replay from cache"
        );
    }

    #[test]
    fn lru_touch_on_hit_refreshes_recency() {
        let (m, items) = market(4);
        let mut b = CachingBackend::new(m).with_max_entries(3);
        // Record items 0..3; exactly at the bound.
        let g1 = b.post_group(filter_specs(&items[..3]));
        b.run_to_completion();
        let _ = b.assignments(g1);
        b.begin_batch();
        assert_eq!(b.len(), 3, "at the bound, nothing to evict yet");

        // Touch item 0 (a cache hit re-pins it for this batch), then
        // record the brand-new item 3: the cache overshoots to 4 and
        // must evict the least recently used *unpinned* entry —
        // item 1, not the just-touched item 0.
        let _ = b.post_group(filter_specs(&items[..1]));
        let g3 = b.post_group(filter_specs(&items[3..]));
        b.run_to_completion();
        let _ = b.assignments(g3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.evictions(), 1);
        let posted = b.hits_posted();
        let _ = b.post_group(filter_specs(&items[..1]));
        assert_eq!(b.hits_posted(), posted, "the touched entry survived");
        let _ = b.post_group(filter_specs(&items[1..2]));
        assert!(
            b.hits_posted() > posted,
            "the untouched entry was the eviction victim"
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let (m, items) = market(6);
        let mut b = CachingBackend::new(m);
        let g = b.post_group(filter_specs(&items));
        b.run_to_completion();
        let _ = b.assignments(g);
        b.begin_batch();
        b.begin_batch();
        assert_eq!(b.len(), 6);
        assert_eq!(b.evictions(), 0);
        // Dropping the bound after the fact also stops eviction.
        b.set_max_entries(Some(2));
        b.begin_batch();
        assert_eq!(b.len(), 2);
        b.set_max_entries(None);
        let g2 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        let _ = b.assignments(g2);
        b.begin_batch();
        assert_eq!(b.len(), 6, "unbounded again: everything stays");
    }
}

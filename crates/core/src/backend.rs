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
//!   once and replayed from the cache afterwards, across queries. Its
//!   groups are the one record of a round: every answer it returns,
//!   live or cached, is replayed from its cache entry.
//!   A query's groups are also the one record of what it cost: its
//!   HITs, assignments, dollars, virtual latency and rounds are read
//!   from them, in a [`crate::session::Session`] and in the
//!   [`crate::service`] alike.
//! * [`MeteringBackend`] — a `Session`'s per-query view of its cache:
//!   it records the groups the current query posts and reports that
//!   query's totals, which [`crate::session::QueryReport`] carries.
//! * [`ReplayBackend`] — serve a [`ReplayTrace`] (the `HitSpec` →
//!   assignment answers a cache recorded, [`CachingBackend::trace`])
//!   with no marketplace at all (a deterministic test double).
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
//!
//! [`CachingBackend::assignments`] returns a group's answers grouped
//! by HIT in spec order, and each HIT's in completion order. A group's
//! live answers can be read once the group completes: they enter the
//! cache then, and every read replays them from there.

// lint:hot-path

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
/// ([`crate::service`]) runs each query on a worker thread against a
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

    /// Completed assignments of a group: in completion order on a
    /// marketplace, grouped by HIT in spec order on a
    /// [`CachingBackend`] or [`ReplayBackend`] (each HIT's in
    /// completion order). Takes `&mut self` because the caching
    /// backend folds freshly completed work into its store here.
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

/// A HIT's position in its group: `hits` are the group's HIT ids in
/// spec order. Every backend here allocates a group's ids
/// consecutively, so the position is the offset from the first id;
/// a group whose ids are not consecutive falls back to a map.
pub(crate) struct HitPositions {
    first: usize,
    len: usize,
    fallback: Option<HashMap<HitId, usize>>,
}

impl HitPositions {
    pub(crate) fn new(hits: &[HitId]) -> Self {
        let first = hits.first().map_or(0, |h| h.0);
        let consecutive = hits
            .iter()
            .enumerate()
            .all(|(p, h)| h.0.wrapping_sub(first) == p);
        HitPositions {
            first,
            len: hits.len(),
            fallback: (!consecutive)
                .then(|| hits.iter().enumerate().map(|(p, &h)| (h, p)).collect()),
        }
    }

    /// `hit`'s position, or `None` for a HIT outside the group.
    pub(crate) fn get(&self, hit: HitId) -> Option<usize> {
        match &self.fallback {
            None => Some(hit.0.wrapping_sub(self.first)).filter(|&p| p < self.len),
            Some(map) => map.get(&hit).copied(),
        }
    }
}

/// A group's `assignments` by HIT position: `out[p]` holds those of
/// `hits[p]`, in the order given (assignments of other HITs are
/// dropped). Each HIT's list is sized exactly, from a counting pass.
pub(crate) fn by_position(hits: &[HitId], assignments: Vec<Assignment>) -> Vec<Vec<Assignment>> {
    let positions = HitPositions::new(hits);
    let mut counts = vec![0usize; hits.len()];
    for a in &assignments {
        if let Some(p) = positions.get(a.hit) {
            counts[p] += 1;
        }
    }
    let mut out: Vec<Vec<Assignment>> = counts.into_iter().map(Vec::with_capacity).collect();
    for a in assignments {
        if let Some(p) = positions.get(a.hit) {
            out[p].push(a);
        }
    }
    out
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

/// Recorded answers for one HIT spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    pub question_count: usize,
    pub assignments: Vec<TraceAssignment>,
}

impl TraceEntry {
    /// The recorded answers as assignments of `hit` in `group`, in
    /// recorded order, numbered from `*next_id` on. `at` turns a delay
    /// after the group's post time into the moment the answer arrived.
    /// Every answer a [`CachingBackend`] or [`ReplayBackend`] returns
    /// is built here.
    fn replay<'a>(
        &'a self,
        hit: HitId,
        group: HitGroupId,
        next_id: &'a mut usize,
        at: impl Fn(f64) -> SimTime + 'a,
    ) -> impl Iterator<Item = Assignment> + 'a {
        self.assignments.iter().map(move |t| {
            let id = AssignmentId(*next_id);
            *next_id += 1;
            Assignment {
                id,
                hit,
                group,
                worker: t.worker,
                // lint:allow(hot-clone): the caller's copy of the answers; the entry stays cached.
                answers: t.answers.clone(),
                accepted_at: at(t.accept_delay_secs),
                submitted_at: at(t.submit_delay_secs),
            }
        })
    }
}

/// The spec-keyed answer store: the Task Cache's contents
/// ([`CachingBackend::trace`], [`DurableStore::cache_snapshot`]) and
/// what a [`ReplayBackend`] serves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayTrace {
    pub(crate) entries: HashMap<u64, TraceEntry>,
}

impl ReplayTrace {
    /// Number of distinct specs with recorded answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded spec keys, sorted.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The recorded entry for one spec key.
    pub fn get(&self, key: u64) -> Option<&TraceEntry> {
        self.entries.get(&key)
    }

    /// The entry for `key` if it can answer a spec of `question_count`
    /// questions: the counts agree and no assignment carries more
    /// answers than that. Operators index answers by question position,
    /// and a store can hold a CRC-valid entry that fails this, so every
    /// read of an answer goes through here; a mismatch reads as absent.
    fn answering(&self, key: u64, question_count: usize) -> Option<&TraceEntry> {
        self.entries.get(&key).filter(|e| {
            e.question_count == question_count
                && e.assignments
                    .iter()
                    .all(|a| a.answers.len() <= question_count)
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum VirtualSource {
    /// Served from cache; assignments replayed from the store.
    Cached,
    /// Forwarded to the inner backend; its answers enter the cache
    /// when the group completes and are replayed from there.
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

/// What a group was when it was posted: how its HITs split between
/// the crowd and the cache, and what each HIT requested. A query is
/// metered from its groups' counts.
#[derive(Debug, Clone, Copy)]
struct GroupCounts {
    /// HITs posted live: the group pays for them.
    live_hits: u64,
    /// HITs served from the cache or shared with another group's
    /// in-flight HIT.
    cached_hits: u64,
    /// Assignments requested per HIT.
    per_hit: u64,
}

#[derive(Debug)]
struct CacheGroup {
    /// Inner group holding the forwarded (uncached) specs, if any.
    inner: Option<HitGroupId>,
    /// Virtual HIT ids of this group, spec order.
    hits: Vec<HitId>,
    posted_at: SimTime,
    counts: GroupCounts,
    /// Total worker effort the group asks for: Σ spec work-units ×
    /// assignments per HIT, cached specs included.
    work_units: f64,
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
/// Virtual HIT, group and assignment ids are allocated by this
/// decorator; callers must not mix them with the inner backend's ids.
///
/// The recorded answers are a [`ReplayTrace`] ([`Self::trace`]): with
/// no eviction bound, it holds every spec this cache posted live, so
/// a [`ReplayBackend`] over it reproduces the run with no marketplace.
pub struct CachingBackend<B> {
    inner: B,
    cache: ReplayTrace,
    /// Spec keys of groups released with live work outstanding
    /// ([`Self::release_in_flight`]), each mapped to the last group
    /// that posted it live: their late answers are paid for, so
    /// [`Self::fold_released`] folds each group once it completes. A
    /// retry released in turn takes the keys over, so a query that
    /// keeps failing holds each of its keys once.
    released: HashMap<u64, usize>,
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
            cache: ReplayTrace::default(),
            released: HashMap::new(),
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

    /// A caching backend journaling to a durable store and preloaded
    /// with `recovered`, the store's Task Cache
    /// ([`DurableStore::recovered`]): those entries replay without
    /// re-posting, and every newly paid round is appended write-ahead.
    pub fn with_journal(inner: B, journal: Arc<DurableStore>, recovered: ReplayTrace) -> Self {
        let mut backend = CachingBackend::new(inner);
        backend.cache = recovered;
        // Seed recency in sorted-key order so a later eviction pass
        // over recovered entries is deterministic.
        for key in backend.cache.keys() {
            backend.touch(key);
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
    pub(crate) fn live_outstanding(&self, group: HitGroupId) -> u32 {
        self.groups[group.0]
            .inner
            .map_or(0, |ig| self.inner.group_outstanding(ig))
    }

    /// `group`'s counts, as they were when it was posted.
    fn group_counts(&self, group: HitGroupId) -> GroupCounts {
        self.groups[group.0].counts
    }

    /// The virtual time `group` was posted at.
    fn group_posted_at(&self, group: HitGroupId) -> SimTime {
        self.groups[group.0].posted_at
    }

    /// Number of distinct specs with recorded answers.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The recorded answers, keyed by spec content: the replay trace
    /// of everything this cache has answered (minus evictions).
    pub fn trace(&self) -> &ReplayTrace {
        &self.cache
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
                .entries
                .keys()
                .map(|&k| (self.recency.get(&k).copied().unwrap_or(0), k))
                .filter(|&(tick, _)| tick < self.batch_floor)
                .min();
            let Some((_, key)) = victim else {
                break; // everything resident is pinned by the current batch
            };
            self.cache.entries.remove(&key);
            self.recency.remove(&key);
            self.evictions += 1;
        }
    }

    fn post_impl(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        let group_id = HitGroupId(self.groups.len());
        let posted_at = self.inner.now();
        let per_hit = assignments.unwrap_or_else(|| self.inner.default_assignments());
        let work_units = specs.iter().map(HitSpec::work_units).sum::<f64>() * f64::from(per_hit);
        let mut group_hits = Vec::with_capacity(specs.len());
        let mut live_specs = Vec::new();
        for spec in specs {
            let key = spec_key(&spec, assignments);
            let question_count = spec.questions.len();
            let hit_id = HitId(self.hits.len());
            group_hits.push(hit_id);
            let source = if self.cache.answering(key, question_count).is_some() {
                self.cache_hits += 1;
                // Pin the entry for the rest of the batch: this group
                // holds only the bare key and will replay it later.
                self.touch(key);
                VirtualSource::Cached
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
        let live_hits = live_specs.len() as u64;
        let counts = GroupCounts {
            live_hits,
            cached_hits: group_hits.len() as u64 - live_hits,
            per_hit: u64::from(per_hit),
        };
        let inner = if live_specs.is_empty() {
            None
        } else {
            Some(self.inner.post(live_specs, assignments))
        };
        self.groups.push(CacheGroup {
            inner,
            hits: group_hits,
            posted_at,
            counts,
            work_units,
            recorded: false,
        });
        group_id
    }

    /// The cached entry that answers virtual HIT `hit`, if any.
    fn cached(&self, hit: HitId) -> Option<&TraceEntry> {
        let vh = &self.hits[hit.0];
        self.cache.answering(vh.key, vh.question_count)
    }

    /// Fold `group` into the cache once its round is complete: its own
    /// live answers, and those of the groups that own its shared
    /// specs. Afterwards every answer the group can give is in the
    /// cache. Folding a group twice, or before it completes, does
    /// nothing.
    pub(crate) fn fold(&mut self, group: HitGroupId) {
        self.record_group(group);
        self.record_shared_owners(group);
    }

    /// Fold a completed group's live results into the cache, fetching
    /// them from the inner backend once. A group with no live part has
    /// nothing to fold and is marked recorded.
    fn record_group(&mut self, group: HitGroupId) {
        let g = &self.groups[group.0];
        if g.recorded {
            return;
        }
        let Some(ig) = g.inner else {
            self.groups[group.0].recorded = true;
            return;
        };
        if self.inner.group_outstanding(ig) == 0 {
            let live = self.inner.assignments(ig);
            self.fold_live(group, ig, live);
        }
    }

    /// Fold `live`, the assignments of `group`'s inner group `ig`, into
    /// the cache, moving each answer into its HIT's entry. An entry
    /// that already answers its spec is kept (first answer wins); one
    /// that cannot (a malformed recovered entry) is replaced.
    fn fold_live(&mut self, group: HitGroupId, ig: HitGroupId, live: Vec<Assignment>) {
        let positions = HitPositions::new(&self.inner.group_hits(ig));
        let GroupCounts {
            live_hits, per_hit, ..
        } = self.groups[group.0].counts;
        let posted_at = self.groups[group.0].posted_at;
        let mut by_pos: Vec<Vec<TraceAssignment>> = (0..live_hits)
            .map(|_| Vec::with_capacity(per_hit as usize))
            .collect();
        for a in live {
            let Some(list) = positions.get(a.hit).and_then(|p| by_pos.get_mut(p)) else {
                continue;
            };
            list.push(TraceAssignment {
                worker: a.worker,
                answers: a.answers,
                accept_delay_secs: a.accepted_at.secs() - posted_at.secs(),
                submit_delay_secs: a.submitted_at.secs() - posted_at.secs(),
            });
        }
        for i in 0..self.groups[group.0].hits.len() {
            let h = self.groups[group.0].hits[i];
            let VirtualHit {
                question_count,
                source,
                key,
            } = self.hits[h.0];
            let VirtualSource::Live { inner_hit_pos } = source else {
                continue;
            };
            // A released group's key may have been re-posted live since.
            if self.pending.get(&key) == Some(&group.0) {
                self.pending.remove(&key);
            }
            self.touch(key);
            if self.cached(h).is_some() {
                continue;
            }
            let entry = TraceEntry {
                question_count,
                assignments: std::mem::take(&mut by_pos[inner_hit_pos]),
            };
            // Write-ahead: the paid round becomes durable before its
            // assignments are returned to (acknowledged by) the caller.
            if let Some(journal) = &self.journal {
                journal.append_cache_entry(key, &entry);
            }
            self.cache.entries.insert(key, entry);
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
    /// The market still pays for the released group's live work, so
    /// the cache folds it once it completes: at a `Session`'s next
    /// query, or when the service next charges late work.
    pub fn release_in_flight(&mut self, group: HitGroupId) {
        if self.groups.get(group.0).is_none_or(|g| g.recorded) {
            return;
        }
        let released = &mut self.released;
        self.pending.retain(|&key, owner| {
            if *owner != group.0 {
                return true;
            }
            released.insert(key, group.0);
            false
        });
    }

    /// Fold every released group whose live work has completed, and
    /// forget its keys: what the market paid for is in the cache, so a
    /// retry of the failed query replays it instead of paying again. A
    /// key cached by another group is forgotten too. Groups fold in
    /// posting order. A `Session` calls this at each query's start, the
    /// service when it charges late work.
    pub(crate) fn fold_released(&mut self) {
        let mut groups: Vec<usize> = self.released.values().copied().collect();
        groups.sort_unstable();
        groups.dedup();
        for g in groups {
            self.record_group(HitGroupId(g));
        }
        let (groups, cache) = (&self.groups, &self.cache);
        self.released
            .retain(|key, g| !groups[*g].recorded && !cache.entries.contains_key(key));
    }

    /// Number of spec keys posted live but not yet folded (in-flight
    /// dedup slots) — observability for the release-on-error fix.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // A query is the list of groups posted for it, in posting order
    // (a `Session`'s [`MeteringBackend`] records them, the service
    // commits them for each query); these read its share of the market
    // from those groups' counts and state. The cache keeps nothing per
    // query.

    /// Dollars per completed assignment (uniform in both the simulator
    /// and the replay backend); 0 until anything completes.
    fn unit_price(&self) -> f64 {
        let done = self.assignments_completed();
        if done == 0 {
            0.0
        } else {
            self.spend_dollars() / done as f64
        }
    }

    /// Live assignments completed so far in `groups` (a query's).
    pub(crate) fn query_assignments(&self, groups: &[HitGroupId]) -> u64 {
        groups
            .iter()
            .map(|&g| {
                let c = self.group_counts(g);
                (c.live_hits * c.per_hit).saturating_sub(u64::from(self.live_outstanding(g)))
            })
            .sum()
    }

    /// Dollars attributable to `groups`: their completed live
    /// assignments at the uniform rate.
    pub(crate) fn query_spend(&self, groups: &[HitGroupId]) -> f64 {
        self.assignment_dollars(self.query_assignments(groups))
    }

    /// What `assignments` completed assignments cost at the uniform
    /// rate.
    pub(crate) fn assignment_dollars(&self, assignments: u64) -> f64 {
        assignments as f64 * self.unit_price()
    }

    /// What the query that posted `groups`, in posting order, has used
    /// so far, and its observed rounds. HITs, assignments and dollars
    /// are its live work ([`Self::query_live_hits`],
    /// [`Self::query_assignments`], [`Self::query_spend`]); its elapsed
    /// time runs from its first group's post to now. A query whose
    /// groups posted no live HIT and completed no assignment took no
    /// crowd time, even if the clock moved on behalf of other work
    /// (say, an earlier query's timed-out HITs). Each round is a
    /// group's work units and its last assignment's latency (0 while
    /// none completed): the raw material of the optimizer's latency
    /// model (round time ≈ α + β · work-units).
    pub(crate) fn query_usage(
        &self,
        groups: &[HitGroupId],
    ) -> (BackendUsage, Vec<RoundObservation>) {
        let hits_posted = self.query_live_hits(groups) as usize;
        let assignments = self.query_assignments(groups);
        let elapsed_secs = match groups.first() {
            Some(&g) if hits_posted > 0 || assignments > 0 => {
                self.now().secs() - self.group_posted_at(g).secs()
            }
            _ => 0.0,
        };
        let usage = BackendUsage {
            hits_posted,
            assignments,
            dollars: self.assignment_dollars(assignments),
            elapsed_secs,
        };
        let rounds = groups
            .iter()
            .map(|&g| RoundObservation {
                work_units: self.groups[g.0].work_units,
                secs: self.group_latencies(g).into_iter().fold(0.0f64, f64::max),
            })
            .collect();
        (usage, rounds)
    }

    /// Dollars the cache saved `groups`: their cache-served HITs times
    /// the assignments each requested.
    pub(crate) fn query_saved(&self, groups: &[HitGroupId]) -> f64 {
        let saved: u64 = groups
            .iter()
            .map(|&g| {
                let c = self.group_counts(g);
                c.cached_hits * c.per_hit
            })
            .sum();
        saved as f64 * self.unit_price()
    }

    /// HIT specs `groups` posted live.
    pub(crate) fn query_live_hits(&self, groups: &[HitGroupId]) -> u64 {
        groups.iter().map(|&g| self.group_counts(g).live_hits).sum()
    }

    /// HIT specs served to `groups` without posting.
    pub(crate) fn query_cached_hits(&self, groups: &[HitGroupId]) -> u64 {
        groups
            .iter()
            .map(|&g| self.group_counts(g).cached_hits)
            .sum()
    }

    /// Assignments still outstanding across `groups` (counting
    /// in-flight work they share with other queries' groups).
    pub(crate) fn query_outstanding(&self, groups: &[HitGroupId]) -> u32 {
        groups.iter().map(|&g| self.group_outstanding(g)).sum()
    }

    /// Virtual time at which the crowd work of `groups` was done: the
    /// max over the completed ones of post time + last assignment
    /// latency, after folding each. The gap between this and the
    /// moment the scheduler resumes the query is its queue wait.
    pub(crate) fn completion_time(&mut self, groups: &[HitGroupId]) -> f64 {
        let mut t = 0.0f64;
        for &g in groups {
            if self.group_outstanding(g) > 0 {
                continue;
            }
            // Folds freshly completed (and shared) work into the
            // cache so the latencies below are visible.
            self.fold(g);
            let last = self.group_latencies(g).into_iter().fold(0.0f64, f64::max);
            t = t.max(self.group_posted_at(g).secs() + last);
        }
        t
    }

    /// Fold every completed group of `groups` into the cache (and its
    /// journal). The scheduler calls this at deterministic points —
    /// barrier resolutions, in submission order — **before** resuming
    /// threads, so journal append order never depends on how the
    /// parallel machine phase's threads interleave.
    pub(crate) fn fold_completed(&mut self, groups: &[HitGroupId]) {
        for &g in groups {
            if self.group_outstanding(g) == 0 {
                self.fold(g);
            }
        }
    }

    /// Release the in-flight dedup slots of every group a **failed**
    /// query posted (see [`Self::release_in_flight`]): nobody will
    /// drive those rounds to completion, so later identical specs must
    /// re-post instead of piggybacking forever.
    pub(crate) fn release_query(&mut self, groups: &[HitGroupId]) {
        for &g in groups {
            self.release_in_flight(g);
        }
    }

    /// Fold the owner groups of this group's unresolved shared specs,
    /// so [`Self::replay`] finds their answers in the cache.
    fn record_shared_owners(&mut self, group: HitGroupId) {
        let owners: Vec<usize> = self.groups[group.0]
            .hits
            .iter()
            .filter_map(|&h| match self.hits[h.0].source {
                VirtualSource::Shared { owner } if self.cached(h).is_none() => Some(owner),
                _ => None,
            })
            .collect();
        for owner in owners {
            self.record_group(HitGroupId(owner));
        }
    }

    /// Append virtual HIT `hit`'s answers to `out`, replayed from its
    /// cache entry. A cached spec replays instantly: the answer
    /// already exists, nobody re-does the work. A live or shared spec
    /// keeps the real completion times of the group that posted it
    /// (a live spec's owner is its own group), because the reader
    /// genuinely waited for that crowd work; they are clamped to the
    /// reader's post time for answers that had already arrived when it
    /// posted.
    fn replay(&mut self, hit: HitId, group: HitGroupId, out: &mut Vec<Assignment>) {
        let VirtualHit {
            question_count,
            source,
            key,
        } = self.hits[hit.0];
        let own = &self.groups[group.0];
        let owner = match source {
            VirtualSource::Cached => None,
            VirtualSource::Shared { owner } => Some(owner),
            // Not folded yet: the round's answers are not in.
            VirtualSource::Live { .. } if !own.recorded => return,
            VirtualSource::Live { .. } => Some(group.0),
        };
        let own_posted = own.posted_at;
        let owner_posted = owner.map(|o| self.groups[o].posted_at);
        let at = move |delay: f64| match owner_posted.map(|p| p.plus_secs(delay)) {
            Some(t) if t.secs() >= own_posted.secs() => t,
            _ => own_posted,
        };
        // Cached sources are pinned against eviction from post time
        // (`touch` in `post_impl`) and live ones from their fold, until
        // the next batch boundary, so the entry is present for any
        // group still being read; a group read across batches degrades
        // to no answers rather than a panic.
        let Some(entry) = self.cache.answering(key, question_count) else {
            return;
        };
        out.extend(entry.replay(hit, group, &mut self.next_assignment_id, at));
        // A live spec's fold already refreshed its entry.
        if !matches!(source, VirtualSource::Live { .. }) {
            self.touch(key);
        }
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

    /// Fold the group into the cache (its live answers and those of
    /// the groups it shares specs with), then replay every HIT's
    /// answers from its cache entry, in spec order, whether the HIT was
    /// live, cached or shared.
    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        // Reserve the output, sized from the counts stored at post
        // time, before the fold fetches and frees the live answers'
        // buffer: on glibc, reserving it afterwards measured ~3 ms
        // slower per 5000-HIT round.
        let hits = self.groups[group.0].hits.len();
        let per_hit = self.groups[group.0].counts.per_hit as usize;
        let mut out = Vec::with_capacity(hits * per_hit);
        self.fold(group);
        for i in 0..hits {
            let hit = self.groups[group.0].hits[i];
            self.replay(hit, group, &mut out);
        }
        out
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        // lint:allow(hot-clone): the trait returns an owned list.
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
                VirtualSource::Cached => {
                    // Replayed answers arrive instantly. Missing means
                    // evicted after the group's batch ended.
                    let n = self.cached(h).map_or(0, |e| e.assignments.len());
                    out.extend(std::iter::repeat_n(0.0, n));
                }
                VirtualSource::Shared { owner } => {
                    // The sharer waits for the owner's live round: its
                    // latency is the owner's, minus the head start the
                    // owner had (clamped for answers that landed before
                    // this group was even posted).
                    if let Some(entry) = self.cached(h) {
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
            if let VirtualSource::Shared { owner } = self.hits[h.0].source {
                if self.cached(h).is_some() || seen.contains(&owner) {
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

/// One HIT group's observed round: its effort and completion time.
/// The raw material of the optimizer's latency model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundObservation {
    /// Total worker effort: Σ spec work-units × assignments per HIT.
    pub work_units: f64,
    /// Seconds from posting to the last completed assignment.
    pub secs: f64,
}

/// Resource usage of one query, read from the Task Cache groups it
/// posted.
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

/// A backend one query runs through, which reads what that query used
/// from its own Task Cache groups: [`MeteringBackend`] in a
/// [`crate::session::Session`], [`crate::service::TenantBackend`] in
/// the service.
pub(crate) trait QueryBackend: CrowdBackend {
    /// The query's usage so far and its rounds, in posting order.
    fn query_usage(&self) -> (BackendUsage, Vec<RoundObservation>);
}

/// A [`crate::session::Session`]'s per-query view of its Task Cache.
/// It records the groups the current query posts, and its usage
/// counters ([`CrowdBackend::hits_posted`],
/// [`CrowdBackend::spend_dollars`],
/// [`CrowdBackend::assignments_completed`]) report that query's own
/// live work, read from those groups — what a service query's
/// [`crate::service::TenantBackend`] reports. The session starts a
/// new query on it each time; the totals of every query together are
/// those of [`Self::inner`].
pub struct MeteringBackend<B> {
    inner: B,
    /// The groups the current query posted, in posting order.
    groups: Vec<HitGroupId>,
}

impl<B: CrowdBackend> MeteringBackend<B> {
    pub fn new(inner: B) -> Self {
        MeteringBackend {
            inner,
            groups: Vec::new(),
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
}

impl<B: CrowdBackend> MeteringBackend<CachingBackend<B>> {
    /// Start the next query: fold the completed groups of failed
    /// queries ([`CachingBackend::fold_released`]), forget the last
    /// query's groups, and mark a batch boundary for the cache's
    /// eviction bound (entries the last query touched become
    /// evictable, those this one touches stay pinned until it
    /// finishes).
    pub(crate) fn next_query(&mut self) {
        self.inner.fold_released();
        self.groups.clear();
        self.inner.begin_batch();
    }

    /// Release the in-flight dedup slots of the current query's groups
    /// ([`CachingBackend::release_in_flight`]): the query failed, so
    /// nobody will drive its rounds to completion.
    pub(crate) fn release_query(&mut self) {
        self.inner.release_query(&self.groups);
    }
}

impl<B: CrowdBackend> QueryBackend for MeteringBackend<CachingBackend<B>> {
    fn query_usage(&self) -> (BackendUsage, Vec<RoundObservation>) {
        self.inner.query_usage(&self.groups)
    }
}

impl<B: CrowdBackend> CrowdBackend for MeteringBackend<CachingBackend<B>> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        let g = self.inner.post_group(specs);
        self.groups.push(g);
        g
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        let g = self.inner.post_group_with_assignments(specs, assignments);
        self.groups.push(g);
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

    // The usage counters are the current query's.

    fn hits_posted(&self) -> usize {
        self.inner.query_live_hits(&self.groups) as usize
    }

    fn spend_dollars(&self) -> f64 {
        self.inner.query_spend(&self.groups)
    }

    fn assignments_completed(&self) -> u64 {
        self.inner.query_assignments(&self.groups)
    }
}

// -------------------------------------------------------------- replay

/// Dollars per replayed assignment: the paper's $0.015.
const REPLAY_PRICE_PER_ASSIGNMENT: f64 = 0.015;

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
            next_assignment_id: 0,
        }
    }

    /// Spec keys of every HIT posted so far, answered or not: what
    /// reached this stand-in marketplace. Sorted and deduplicated.
    pub fn posted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.hits.iter().map(|h| h.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
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
        self.trace.answering(hit.key, hit.question_count)
    }
}

impl CrowdBackend for ReplayBackend {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        self.post_impl(specs, None)
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
                match self.entry(&self.hits[hit_id.0]) {
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
            let Some(entry) = self.trace.answering(h.key, h.question_count) else {
                continue;
            };
            let at = |delay: f64| posted_at.plus_secs(delay);
            out.extend(entry.replay(hit, group, &mut self.next_assignment_id, at));
        }
        out
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        // lint:allow(hot-clone): the trait returns an owned list.
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
                    None => rh.requested.unwrap_or(self.default_assignments()),
                }
            })
            .sum()
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        self.hits[hit.0].question_count
    }

    /// Replayed traces are immutable, so bans do not filter answers,
    /// mirroring "in-flight work is unaffected".
    fn ban_workers(&mut self, _workers: Vec<WorkerId>) {}

    fn now(&self) -> SimTime {
        self.now
    }

    fn hits_posted(&self) -> usize {
        self.hits.len()
    }

    fn spend_dollars(&self) -> f64 {
        self.assignments_completed() as f64 * REPLAY_PRICE_PER_ASSIGNMENT
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
pub(crate) mod tests {
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

    /// A released group is folded once its late work completes. One
    /// that never completes (a replay trace without its answers) keeps
    /// its keys until a retry posts them live and is released in turn,
    /// so a query that keeps failing holds each of its keys once.
    #[test]
    fn released_groups_fold_or_give_way_to_a_retry() {
        let (m, items) = market(4);
        let mut b = CachingBackend::new(m);
        let g = b.post_group(filter_specs(&items));
        b.release_in_flight(g);
        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        b.fold_released();
        assert!(b.released.is_empty(), "folded and forgotten");
        assert_eq!(b.len(), 4, "the late answers are cached");

        let mut b = CachingBackend::new(ReplayBackend::from_trace(ReplayTrace::default()));
        let g = b.post_group(filter_specs(&items));
        b.run(60.0);
        b.release_in_flight(g);
        let owners = |b: &CachingBackend<ReplayBackend>| {
            let mut o: Vec<usize> = b.released.values().copied().collect();
            o.dedup();
            (b.released.len(), o)
        };
        b.fold_released();
        assert_eq!(owners(&b), (4, vec![g.0]), "unanswered, not retried: kept");
        for _ in 0..3 {
            let retry = b.post_group(filter_specs(&items));
            b.run(60.0);
            b.release_in_flight(retry);
            b.fold_released();
            assert_eq!(owners(&b), (4, vec![retry.0]), "the retry takes over");
        }
    }

    /// Regression: a cached entry whose answers do not fit its spec
    /// (one answer too many per assignment, as a CRC-valid recovered
    /// entry could carry) reached the operator, which indexes answers
    /// by question position, and panicked. It must read as a miss,
    /// re-post live, and be replaced by the live answers.
    #[test]
    fn malformed_cached_entry_is_a_miss_not_a_panic() {
        let (m, items) = market(8);
        let mut b = CachingBackend::new(m);
        let op = crate::ops::filter::FilterOp::default();
        let first = op.run(&mut b, "p", &items).unwrap();
        let posted = b.hits_posted();
        for entry in b.cache.entries.values_mut() {
            for a in &mut entry.assignments {
                a.answers.push(Answer::Bool(true));
            }
        }
        let second = op.run(&mut b, "p", &items).unwrap();
        assert_eq!(b.hits_posted(), 2 * posted, "malformed entries re-post");
        assert_eq!(b.stats(), (0, 2 * posted as u64));

        // A recorded question count that disagrees with the spec is
        // rejected the same way; the live answers replaced the bad
        // entries, so a third run is served entirely from the cache.
        let third = op.run(&mut b, "p", &items).unwrap();
        assert_eq!(b.hits_posted(), 2 * posted);
        assert_eq!(third, second);
        assert_eq!(first.len(), second.len());
        for entry in b.cache.entries.values_mut() {
            entry.question_count += 1;
        }
        let _ = op.run(&mut b, "p", &items).unwrap();
        assert_eq!(b.hits_posted(), 3 * posted, "count mismatch re-posts");
    }

    /// A marketplace that logs every group posted to it and every
    /// group whose assignments are fetched: a work counter for the
    /// cache's fetches.
    pub(crate) struct CountingBackend {
        pub(crate) inner: Marketplace,
        pub(crate) posted: Vec<HitGroupId>,
        pub(crate) fetched: Vec<HitGroupId>,
    }

    impl CountingBackend {
        pub(crate) fn new(inner: Marketplace) -> Self {
            CountingBackend {
                inner,
                posted: Vec::new(),
                fetched: Vec::new(),
            }
        }
    }

    impl CrowdBackend for CountingBackend {
        fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
            let g = self.inner.post_group(specs);
            self.posted.push(g);
            g
        }
        fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, n: u32) -> HitGroupId {
            let g = self.inner.post_group_with_assignments(specs, n);
            self.posted.push(g);
            g
        }
        fn run(&mut self, limit_secs: f64) -> RunOutcome {
            self.inner.run(limit_secs)
        }
        fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
            self.fetched.push(group);
            CrowdBackend::assignments(&mut self.inner, group)
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
            CrowdBackend::hit_question_count(&self.inner, hit)
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
            CrowdBackend::spend_dollars(&self.inner)
        }
        fn assignments_completed(&self) -> u64 {
            CrowdBackend::assignments_completed(&self.inner)
        }
    }

    /// Reading a completed group costs one inner fetch, shared by the
    /// cache fold and the caller's copy; a fully cached group costs
    /// none. Counts only, no timing.
    #[test]
    fn one_inner_fetch_per_completed_live_group() {
        let (m, items) = market(8);
        let mut b = CachingBackend::new(CountingBackend::new(m));
        // All live.
        let g1 = b.post_group(filter_specs(&items[..4]));
        b.run_to_completion();
        assert_eq!(b.assignments(g1).len(), 4 * 5);
        assert_eq!(b.inner().fetched, vec![HitGroupId(0)]);
        assert_eq!(b.len(), 4);
        // 4 cached + 4 live: one fetch, for the live half.
        let g2 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        assert_eq!(b.assignments(g2).len(), 8 * 5);
        assert_eq!(b.inner().fetched, vec![HitGroupId(0), HitGroupId(1)]);
        assert_eq!(b.len(), 8);
        // All cached: nothing to fetch.
        let g3 = b.post_group(filter_specs(&items));
        b.run_to_completion();
        assert_eq!(b.assignments(g3).len(), 8 * 5);
        assert_eq!(b.inner().fetched.len(), 2);
    }

    /// A mixed group replays its live HITs from the cache like the
    /// rest: each live HIT's `(worker, answers)` list is the
    /// marketplace's for the HIT it was posted as, in the same order.
    #[test]
    fn live_hits_replay_the_marketplace_answers_in_order() {
        let (m, items) = market(8);
        let mut b = CachingBackend::new(m);
        let warm = b.post_group(filter_specs(&items[..2]));
        b.run_to_completion();
        let _ = b.assignments(warm);
        // Items 0–1 cached, 2–3 shared with `owner` in flight, 4–7 live.
        let owner = b.post_group(filter_specs(&items[2..4]));
        let g = b.post_group(filter_specs(&items));
        assert_eq!(b.stats(), (4, 8));
        assert_eq!(b.run_to_completion(), RunOutcome::Completed);
        let got = b.assignments(g);
        assert_eq!(got.len(), 8 * 5);
        let virt = b.group_hits(g);
        let inner = b.groups[g.0].inner.expect("the group posted live HITs");
        let market_hits = b.inner().group_hits(inner);
        assert_eq!(market_hits.len(), 4);
        type Seen = Vec<(WorkerId, Vec<Answer>)>;
        for (pos, &mh) in market_hits.iter().enumerate() {
            let want: Seen = b
                .inner()
                .assignments(inner)
                .filter(|a| a.hit == mh)
                .map(|a| (a.worker, a.answers.clone()))
                .collect();
            let seen: Seen = got
                .iter()
                .filter(|a| a.hit == virt[4 + pos])
                .map(|a| (a.worker, a.answers.clone()))
                .collect();
            assert_eq!(want.len(), 5);
            assert_eq!(seen, want, "live HIT {pos}");
        }
        assert_eq!(b.assignments(owner).len(), 2 * 5);
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

    /// A query's usage is read from its own groups: their live HITs,
    /// completed assignments and dollars, the time since its first
    /// post, and one round per group. An earlier query's groups are
    /// not its own, and a query with no groups used nothing.
    #[test]
    fn query_usage_reads_the_query_groups() {
        let (m, items) = market(8);
        let mut b = CachingBackend::new(m);
        let earlier = b.post_group(filter_specs(&items[4..]));
        b.run_to_completion();
        let _ = b.assignments(earlier);

        let posted_at = b.now().secs();
        let g = b.post_group(filter_specs(&items[..4]));
        b.run_to_completion();
        let _ = b.assignments(g);
        let (usage, rounds) = b.query_usage(&[g]);
        assert_eq!(usage.hits_posted, 4);
        assert_eq!(usage.assignments, 20);
        assert!((usage.dollars - 20.0 * 0.015).abs() < 1e-9);
        assert_eq!(usage.elapsed_secs, b.now().secs() - posted_at);
        assert!(usage.elapsed_secs > 0.0);
        assert_eq!(rounds.len(), 1);
        let units = filter_specs(&items[..4])
            .iter()
            .map(HitSpec::work_units)
            .sum::<f64>()
            * 5.0;
        assert_eq!(rounds[0].work_units, units);
        assert!(rounds[0].secs > 0.0);

        let (idle, rounds) = b.query_usage(&[]);
        assert_eq!(idle, BackendUsage::default());
        assert!(rounds.is_empty());
    }

    /// Regression: a query that posts no live HIT must report zero
    /// elapsed time even when the backend's clock advances on behalf
    /// of an earlier query's stale work (the same ticks used to be
    /// charged to every later zero-HIT query).
    #[test]
    fn zero_cost_query_reports_zero_elapsed() {
        // A replay backend whose trace answers one spec: any other
        // posted spec stays outstanding forever and every `run` call
        // advances the clock to its deadline.
        let (m, items) = market(2);
        let mut rec = CachingBackend::new(m);
        let g = rec.post_group(filter_specs(&items[..1]));
        rec.run_to_completion();
        let _ = rec.assignments(g);
        let mut b = CachingBackend::new(ReplayBackend::from_trace(rec.trace().clone()));

        // Query 1 posts a spec the trace answers and one it cannot; it
        // times out.
        let answered = b.post_group(filter_specs(&items[..1]));
        let stuck = b.post_group(filter_specs(&items[1..]));
        assert_eq!(b.run_to_completion(), RunOutcome::TimedOut);
        assert_eq!(b.assignments(answered).len(), 5);
        assert_eq!(b.query_usage(&[answered, stuck]).0.hits_posted, 2);

        // Query 2 posts a spec the cache answers, and running (as any
        // crowd operator would) advances the clock chasing query 1's
        // stuck HIT.
        let cached = b.post_group(filter_specs(&items[..1]));
        let before = b.now().secs();
        assert_eq!(b.run(500.0), RunOutcome::TimedOut);
        assert!(b.now().secs() > before);
        let (idle, rounds) = b.query_usage(&[cached]);
        assert_eq!(idle.hits_posted, 0);
        assert_eq!(idle.assignments, 0);
        assert_eq!(
            idle.elapsed_secs, 0.0,
            "stale clock ticks must not be charged to a zero-HIT query"
        );
        assert_eq!(rounds.len(), 1);
    }

    #[test]
    fn record_then_replay_reproduces_answers() {
        let (m, items) = market(5);
        let mut rec = CachingBackend::new(m);
        let g = rec.post_group(filter_specs(&items));
        assert_eq!(rec.run_to_completion(), RunOutcome::Completed);
        let original = rec.assignments(g);
        let trace = rec.trace().clone();
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
        let mut rec = CachingBackend::new(m);
        let g = rec.post_group(filter_specs(&items[..2]));
        rec.run_to_completion();
        let _ = rec.assignments(g);
        let mut replay = ReplayBackend::from_trace(rec.trace().clone());
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
        let mut rec = CachingBackend::new(m);
        let g = rec.post_group(filter_specs(&items));
        rec.run_to_completion();
        let recorded_secs = rec.group_latencies(g).into_iter().fold(0.0f64, f64::max);
        assert!(recorded_secs > 1.0);
        let _ = rec.assignments(g);

        let mut replay = ReplayBackend::from_trace(rec.trace().clone());
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
        let mut b = CachingBackend::new(m);
        b.set_max_entries(Some(2));
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
        let mut b = CachingBackend::new(m);
        b.set_max_entries(Some(3));
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

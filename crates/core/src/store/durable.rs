//! The typed durable store over one [`Segment`](super::log).
//!
//! Record kinds (payload byte 0):
//!
//! | kind | record | payload |
//! |---|---|---|
//! | 1 | CacheEntry | spec key + [`TraceEntry`] (a paid round's answers) |
//! | 2 | StatsDelta | a [`StatisticsStore`] learning delta |
//! | 3 | Checkpoint | query id, tenant, SQL, budget, a legacy `u64` slot (written 0, ignored) |
//! | 4 | Rounds (legacy) | query id + rounds; no longer written, ignored on replay |
//! | 5 | QueryDone | query id (checkpoint retired) |
//! | 6 | Tenant | tenant name, budget, attributed spend |
//!
//! The log is the only copy: the store keeps no folded state in
//! memory, and an append only encodes its record and appends it. One
//! `fold` replays records front to back: cache entries are
//! latest-wins per key (the cache journals a key again only when it
//! replaced an entry that could not answer its spec, or re-paid an
//! evicted one), stats deltas merge, checkpoints stay live until their
//! `QueryDone`, and tenant records are latest-wins. It serves three
//! callers: `open` (to validate the log and find the next query id),
//! the snapshot getters (what a restart would recover right now), and
//! compaction, which re-reads the durable prefix through the handle and
//! rewrites its fold as one snapshot, in sorted order so equal state
//! produces equal bytes.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::backend::{ReplayTrace, TraceEntry};
use crate::opt::stats::StatisticsStore;
use crate::store::codec::{dec_stats, dec_trace_entry, enc_stats, enc_trace_entry, Dec, Enc};
use crate::store::fault::FaultPlan;
use crate::store::log::Segment;
use crate::store::{StoreError, StoreHealth};

const KIND_CACHE_ENTRY: u8 = 1;
const KIND_STATS_DELTA: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
/// Written by older stores as a per-round progress heartbeat that
/// nothing read; decoded and ignored so those logs still open.
const KIND_LEGACY_ROUNDS: u8 = 4;
const KIND_QUERY_DONE: u8 = 5;
const KIND_TENANT: u8 = 6;

/// A persisted in-flight query: enough to resubmit it after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCheckpoint {
    /// Store-assigned id, unique for the lifetime of the log.
    pub id: u64,
    pub tenant: String,
    pub sql: String,
    pub budget: Option<f64>,
}

/// A persisted tenant registration (latest record wins).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRecord {
    pub name: String,
    pub budget: Option<f64>,
    /// Dollars attributed across completed batches.
    pub spent: f64,
}

/// Everything a fresh process can know after replaying the log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Spec key → paid assignments (the durable Task Cache).
    pub cache: ReplayTrace,
    /// Merged statistics deltas.
    pub stats: StatisticsStore,
    /// Checkpoints without a matching `QueryDone`, in id order.
    pub checkpoints: Vec<QueryCheckpoint>,
    /// Registered tenants with their persisted budgets and spend,
    /// sorted by name.
    pub tenants: Vec<TenantRecord>,
}

struct Inner {
    segment: Segment,
    /// Record payloads appended since the last compaction (compaction
    /// triggers on log growth, not logical size).
    bytes_since_compact: u64,
    compact_threshold: u64,
    next_query_id: u64,
}

/// The durable, crash-safe store behind [`CachingBackend`
/// journaling](crate::backend::CachingBackend::with_journal),
/// [`Session::persist_to`](crate::session::SessionBuilder::persist_to)
/// and [`QueryService::with_store`](crate::service::QueryService).
///
/// Shareable (`Arc<DurableStore>`) and thread-safe: all methods take
/// `&self`. Appends are write-ahead — when an `append_*` call returns
/// on a healthy store, the record is framed, checksummed and flushed.
/// The store holds no copy of what it journals: its getters fold the
/// log's durable prefix on every call, so they return exactly what a
/// restart would recover at that moment. A store that has **died**
/// (injected [`FaultPlan`] crash, or a real I/O failure on a write or
/// a read, see [`Self::health`]) turns every write into a no-op,
/// exactly as if the process were gone; its getters, like any reader
/// of the same path, see only what was durable at death.
pub struct DurableStore {
    inner: Mutex<Inner>,
}

/// Compact when at least this much record data accumulated since the
/// last snapshot (tests shrink it via [`DurableStore::with_compact_threshold`]).
const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// Query ids are allocated one at a time from 1, so a recovered id at
/// or above this can only be damage. Rejecting it on open leaves
/// [`DurableStore::append_checkpoint`] 2⁶³ ids before it could overflow.
const MAX_QUERY_ID: u64 = 1 << 63;

impl DurableStore {
    /// Open (creating if absent) the store at `path`, validating the
    /// log by folding it once.
    pub fn open(path: impl AsRef<Path>) -> Result<DurableStore, StoreError> {
        Self::open_impl(path.as_ref(), None)
    }

    /// [`Self::open`] with a fault plan armed — the deterministic
    /// crash-injection entry point used by the fault-matrix harness.
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        plan: FaultPlan,
    ) -> Result<DurableStore, StoreError> {
        Self::open_impl(path.as_ref(), Some(plan))
    }

    fn open_impl(path: &Path, plan: Option<FaultPlan>) -> Result<DurableStore, StoreError> {
        let (segment, payloads) = Segment::open(path, plan)?;
        let (_, max_id) = fold(&payloads)?;
        Ok(DurableStore {
            inner: Mutex::new(Inner {
                segment,
                bytes_since_compact: 0,
                compact_threshold: DEFAULT_COMPACT_THRESHOLD,
                next_query_id: max_id + 1,
            }),
        })
    }

    /// Lower (or raise) the automatic compaction threshold, in bytes
    /// of appended records. Builder-style, before sharing the store.
    pub fn with_compact_threshold(self, bytes: u64) -> Self {
        self.lock().compact_threshold = bytes.max(1);
        self
    }

    /// Every record is self-contained and the state is re-derivable
    /// from the log, so lock poisoning (a panicking query thread mid-
    /// append) is recovered, not propagated.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Liveness: `Alive`, dead by injected fault, or dead by a failed
    /// write or read.
    pub fn health(&self) -> StoreHealth {
        self.lock().segment.health()
    }

    pub fn is_dead(&self) -> bool {
        self.lock().segment.is_dead()
    }

    /// Bytes of valid log on disk.
    pub fn len_bytes(&self) -> u64 {
        self.lock().segment.len_bytes()
    }

    // ------------------------------------------------------- recovery

    /// What a restart would recover right now: the log's durable
    /// prefix, folded. A read that fails kills the store
    /// ([`StoreHealth::Failed`]) and returns the empty state.
    pub fn recovered(&self) -> RecoveredState {
        Self::fold_segment(&mut self.lock()).unwrap_or_default()
    }

    /// The durable Task Cache ([`Self::recovered`]).
    pub fn cache_snapshot(&self) -> ReplayTrace {
        self.recovered().cache
    }

    /// The merged learned statistics ([`Self::recovered`]).
    pub fn stats_snapshot(&self) -> StatisticsStore {
        self.recovered().stats
    }

    /// Checkpoints not yet retired by a `QueryDone`, in id order —
    /// the queries a restarted service should resume
    /// ([`Self::recovered`]).
    pub fn live_checkpoints(&self) -> Vec<QueryCheckpoint> {
        self.recovered().checkpoints
    }

    /// Persisted tenant registrations, sorted by name
    /// ([`Self::recovered`]).
    pub fn tenants_snapshot(&self) -> Vec<TenantRecord> {
        self.recovered().tenants
    }

    /// The next unused checkpoint id.
    pub fn next_query_id(&self) -> u64 {
        self.lock().next_query_id
    }

    /// Fold the segment's durable prefix; on a failed read or an
    /// undecodable record, kill the store and return `None`.
    fn fold_segment(inner: &mut Inner) -> Option<RecoveredState> {
        match inner.segment.read().and_then(|payloads| fold(&payloads)) {
            Ok((state, _)) => Some(state),
            Err(e) => {
                inner.segment.fail(e);
                None
            }
        }
    }

    // -------------------------------------------------------- appends

    /// Journal one paid round's answers for `key`, replacing any
    /// earlier entry for it. Write-ahead: on a healthy store the entry
    /// is durable when this returns.
    pub fn append_cache_entry(&self, key: u64, entry: &TraceEntry) {
        Self::append_and_maybe_compact(&mut self.lock(), enc_cache_entry(key, entry));
    }

    /// Journal a learning delta: what one query recorded into an empty
    /// [`StatisticsStore`], merged on recovery in journal order.
    pub fn append_stats_delta(&self, delta: &StatisticsStore) {
        if !delta.is_empty() {
            Self::append_and_maybe_compact(&mut self.lock(), enc_stats_delta(delta));
        }
    }

    /// Journal a newly admitted query; returns its checkpoint id.
    pub fn append_checkpoint(&self, tenant: &str, sql: &str, budget: Option<f64>) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_query_id;
        inner.next_query_id += 1;
        let cp = QueryCheckpoint {
            id,
            tenant: tenant.to_owned(),
            sql: sql.to_owned(),
            budget,
        };
        Self::append_and_maybe_compact(&mut inner, enc_checkpoint(&cp));
        id
    }

    /// Retire a checkpoint: the query finished (either way) and must
    /// not be resumed by a future recovery.
    pub fn append_query_done(&self, id: u64) {
        let mut e = Enc::new();
        e.u8(KIND_QUERY_DONE);
        e.u64(id);
        Self::append_and_maybe_compact(&mut self.lock(), e.into_bytes());
    }

    /// Journal a tenant registration / spend update (latest wins).
    pub fn append_tenant(&self, tenant: &TenantRecord) {
        Self::append_and_maybe_compact(&mut self.lock(), enc_tenant(tenant));
    }

    /// Force a compaction now (normally automatic past the threshold).
    pub fn compact_now(&self) {
        Self::compact(&mut self.lock());
    }

    fn append_and_maybe_compact(inner: &mut Inner, payload: Vec<u8>) {
        inner.segment.append(&payload);
        inner.bytes_since_compact += payload.len() as u64 + 8;
        if inner.bytes_since_compact >= inner.compact_threshold {
            Self::compact(inner);
        }
    }

    /// Rewrite the log as one snapshot of its own fold, in sorted
    /// order (equal state ⇒ equal bytes). A dead store skips the read:
    /// its rewrite would write nothing.
    fn compact(inner: &mut Inner) {
        inner.bytes_since_compact = 0;
        if inner.segment.is_dead() {
            return;
        }
        let Some(state) = Self::fold_segment(inner) else {
            return;
        };
        let cache = &state.cache;
        let mut payloads: Vec<Vec<u8>> = cache
            .keys()
            .into_iter()
            .map(|key| enc_cache_entry(key, &cache.entries[&key]))
            .collect();
        if !state.stats.is_empty() {
            payloads.push(enc_stats_delta(&state.stats));
        }
        payloads.extend(state.checkpoints.iter().map(enc_checkpoint));
        payloads.extend(state.tenants.iter().map(enc_tenant));
        inner.segment.rewrite(&payloads);
    }
}

fn enc_cache_entry(key: u64, entry: &TraceEntry) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(KIND_CACHE_ENTRY);
    e.u64(key);
    enc_trace_entry(&mut e, entry);
    e.into_bytes()
}

fn enc_stats_delta(delta: &StatisticsStore) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(KIND_STATS_DELTA);
    enc_stats(&mut e, delta);
    e.into_bytes()
}

fn enc_checkpoint(cp: &QueryCheckpoint) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(KIND_CHECKPOINT);
    e.u64(cp.id);
    e.str(&cp.tenant);
    e.str(&cp.sql);
    e.opt_f64(cp.budget);
    e.u64(0); // the legacy rounds slot
    e.into_bytes()
}

fn enc_tenant(t: &TenantRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(KIND_TENANT);
    e.str(&t.name);
    e.opt_f64(t.budget);
    e.f64(t.spent);
    e.into_bytes()
}

/// The one fold of the log: replay `payloads` front to back into the
/// state a restart recovers, and return it with the largest query id
/// the log mentions.
fn fold(payloads: &[Vec<u8>]) -> Result<(RecoveredState, u64), StoreError> {
    let mut state = RecoveredState::default();
    let mut done: HashSet<u64> = HashSet::new();
    let mut max_id = 0u64;
    for payload in payloads {
        apply_record(payload, &mut state, &mut done, &mut max_id)?;
    }
    if max_id >= MAX_QUERY_ID {
        return Err(StoreError::corrupt(format!(
            "query id {max_id} out of range"
        )));
    }
    state.checkpoints.retain(|c| !done.contains(&c.id));
    state.checkpoints.sort_by_key(|c| c.id);
    state.tenants.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((state, max_id))
}

fn apply_record(
    payload: &[u8],
    state: &mut RecoveredState,
    done: &mut HashSet<u64>,
    max_id: &mut u64,
) -> Result<(), StoreError> {
    let mut d = Dec::new(payload);
    match d.u8()? {
        KIND_CACHE_ENTRY => {
            let key = d.u64()?;
            let entry = dec_trace_entry(&mut d)?;
            state.cache.entries.insert(key, entry);
        }
        KIND_STATS_DELTA => {
            let delta = dec_stats(&mut d)?;
            state.stats.merge(&delta);
        }
        KIND_CHECKPOINT => {
            let cp = QueryCheckpoint {
                id: d.u64()?,
                tenant: d.str()?,
                sql: d.str()?,
                budget: d.opt_f64()?,
            };
            d.u64()?; // the legacy rounds slot
            *max_id = (*max_id).max(cp.id);
            state.checkpoints.push(cp);
        }
        KIND_LEGACY_ROUNDS => {
            d.u64()?; // query id
            d.u64()?; // rounds
        }
        KIND_QUERY_DONE => {
            let id = d.u64()?;
            done.insert(id);
            *max_id = (*max_id).max(id);
        }
        KIND_TENANT => {
            let rec = TenantRecord {
                name: d.str()?,
                budget: d.opt_f64()?,
                spent: d.f64()?,
            };
            match state.tenants.iter_mut().find(|t| t.name == rec.name) {
                Some(t) => *t = rec,
                None => state.tenants.push(rec),
            }
        }
        kind => return Err(StoreError::corrupt(format!("unknown record kind {kind}"))),
    }
    d.finish()
}

/// A kind-4 record as older stores wrote it, for format tests.
#[cfg(test)]
pub(crate) fn legacy_rounds_payload(id: u64, rounds: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(KIND_LEGACY_ROUNDS);
    e.u64(id);
    e.u64(rounds);
    e.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TraceAssignment;
    use crate::store::fault::CrashPoint;
    use crate::store::testutil::tmp_store_path;
    use qurk_crowd::{Answer, WorkerId};

    fn tenant(name: &str, budget: Option<f64>, spent: f64) -> TenantRecord {
        TenantRecord {
            name: name.to_owned(),
            budget,
            spent,
        }
    }

    fn entry(tag: u64) -> TraceEntry {
        TraceEntry {
            question_count: 1,
            assignments: vec![TraceAssignment {
                worker: WorkerId(tag as usize),
                answers: vec![Answer::Bool(tag.is_multiple_of(2))],
                accept_delay_secs: 1.0,
                submit_delay_secs: 2.0,
            }],
        }
    }

    #[test]
    fn full_state_survives_reopen() {
        let path = tmp_store_path("durable-roundtrip");
        let store = DurableStore::open(&path).unwrap();
        store.append_cache_entry(11, &entry(1));
        store.append_cache_entry(22, &entry(2));
        let mut delta = StatisticsStore::new();
        delta.record_filter("isTall", 10, 4);
        store.append_stats_delta(&delta);
        let q1 = store.append_checkpoint("alice", "SELECT 1", Some(2.0));
        let q2 = store.append_checkpoint("bob", "SELECT 2", None);
        store.append_query_done(q2);
        store.append_tenant(&tenant("alice", Some(5.0), 1.25));
        store.append_tenant(&tenant("alice", Some(5.0), 1.75)); // latest wins
        drop(store);

        let store = DurableStore::open(&path).unwrap();
        assert_eq!(store.cache_snapshot().keys(), vec![11, 22]);
        assert_eq!(store.cache_snapshot().get(11), Some(&entry(1)));
        assert_eq!(
            store.stats_snapshot().filter_selectivity("isTall"),
            Some(0.4)
        );
        let live = store.live_checkpoints();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, q1);
        assert_eq!(live[0].tenant, "alice");
        assert_eq!(live[0].budget, Some(2.0));
        let tenants = store.tenants_snapshot();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].spent, 1.75);
        assert!(store.next_query_id() > q2);
        std::fs::remove_file(&path).unwrap();
    }

    /// A log written before the rounds heartbeat was dropped still
    /// opens: its kind-4 record is ignored, and its checkpoint, whose
    /// legacy slot holds a round count, stays live.
    #[test]
    fn a_log_with_legacy_rounds_records_opens_with_its_checkpoint_live() {
        let path = tmp_store_path("durable-legacy-rounds");
        let (mut segment, _) = Segment::open(&path, None).unwrap();
        let mut e = Enc::new();
        e.u8(KIND_CHECKPOINT);
        e.u64(1);
        e.str("alice");
        e.str("SELECT 1");
        e.opt_f64(Some(2.0));
        e.u64(3);
        segment.append(&e.into_bytes());
        segment.append(&legacy_rounds_payload(1, 3));
        drop(segment);

        let store = DurableStore::open(&path).unwrap();
        let want = QueryCheckpoint {
            id: 1,
            tenant: "alice".to_owned(),
            sql: "SELECT 1".to_owned(),
            budget: Some(2.0),
        };
        assert_eq!(store.live_checkpoints(), vec![want.clone()]);
        assert_eq!(store.next_query_id(), 2);
        store.compact_now();
        drop(store);
        let store = DurableStore::open(&path).unwrap();
        assert_eq!(store.live_checkpoints(), vec![want]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_log() {
        let path = tmp_store_path("durable-compact");
        let store = DurableStore::open(&path).unwrap().with_compact_threshold(1);
        let q = store.append_checkpoint("alice", "SELECT 1", None);
        store.append_query_done(q); // threshold 1: every append compacts
        for k in 0..20 {
            store.append_cache_entry(k, &entry(k));
            store.append_cache_entry(k, &entry(k + 100)); // duplicate: last wins
        }
        let compacted_len = store.len_bytes();
        drop(store);
        let store = DurableStore::open(&path).unwrap();
        assert_eq!(store.len_bytes(), compacted_len);
        assert_eq!(store.cache_snapshot().len(), 20);
        assert_eq!(store.cache_snapshot().get(3), Some(&entry(103)));
        assert!(store.live_checkpoints().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_output_is_deterministic_bytes() {
        let p1 = tmp_store_path("durable-det1");
        let p2 = tmp_store_path("durable-det2");
        for p in [&p1, &p2] {
            let store = DurableStore::open(p).unwrap();
            // Insert in different orders per path.
            let keys: Vec<u64> = if p == &p1 {
                (0..12).collect()
            } else {
                (0..12).rev().collect()
            };
            for k in keys {
                store.append_cache_entry(k, &entry(k));
            }
            store.append_tenant(&tenant("bob", None, 0.5));
            store.append_tenant(&tenant("alice", Some(1.0), 0.25));
            store.compact_now();
        }
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
    }

    /// A handle that died mid-sequence — whichever crash point fired —
    /// reports what a fresh open of its path recovers: the durable
    /// prefix, not what the dead process went on to append.
    #[test]
    fn a_dead_handle_reads_what_a_reopen_recovers() {
        for point in [
            CrashPoint::AppendTorn,
            CrashPoint::AppendDone,
            CrashPoint::CompactTorn,
            CrashPoint::CompactWritten,
            CrashPoint::CompactSwapped,
        ] {
            let path = tmp_store_path("durable-dead-read");
            let plan = FaultPlan::at(point).on_occurrence(2);
            let store = DurableStore::open_with_faults(&path, plan)
                .unwrap()
                .with_compact_threshold(200);
            let mut delta = StatisticsStore::new();
            delta.record_filter("isTall", 10, 4);
            for k in 0..8 {
                store.append_cache_entry(k % 3, &entry(k));
                store.append_stats_delta(&delta);
                let q = store.append_checkpoint("alice", "SELECT 1", None);
                if k % 2 == 0 {
                    store.append_query_done(q);
                }
                store.append_tenant(&tenant("alice", None, k as f64));
            }
            assert!(store.is_dead(), "{point} never fired");
            let reopened = DurableStore::open(&path).unwrap();
            assert_eq!(store.cache_snapshot(), reopened.cache_snapshot(), "{point}");
            assert_eq!(store.stats_snapshot(), reopened.stats_snapshot(), "{point}");
            assert_eq!(
                store.live_checkpoints(),
                reopened.live_checkpoints(),
                "{point}"
            );
            assert_eq!(
                store.tenants_snapshot(),
                reopened.tenants_snapshot(),
                "{point}"
            );
            let last = tenant("alice", None, 7.0);
            assert!(!store.tenants_snapshot().contains(&last), "{point}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A log that changed under its handle cannot be folded: the read
    /// kills the store like a failed write, and nothing is rewritten.
    #[test]
    fn a_failed_read_kills_the_store() {
        let path = tmp_store_path("durable-bad-read");
        let store = DurableStore::open(&path).unwrap();
        store.append_cache_entry(1, &entry(1));
        let damaged = vec![0u8; store.len_bytes() as usize];
        std::fs::write(&path, &damaged).unwrap();
        assert!(store.cache_snapshot().is_empty());
        assert!(matches!(store.health(), StoreHealth::Failed(_)));
        store.append_cache_entry(2, &entry(2));
        store.compact_now();
        assert_eq!(std::fs::read(&path).unwrap(), damaged);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_dead_store_loses_only_unflushed_tail() {
        let path = tmp_store_path("durable-dead");
        let plan = FaultPlan::at(CrashPoint::AppendDone).on_occurrence(2);
        let store = DurableStore::open_with_faults(&path, plan).unwrap();
        store.append_cache_entry(1, &entry(1));
        store.append_cache_entry(2, &entry(2)); // dies right after this flush
        assert!(store.is_dead());
        assert_eq!(
            store.health(),
            StoreHealth::FaultInjected(CrashPoint::AppendDone)
        );
        store.append_cache_entry(3, &entry(3)); // lost
        drop(store);
        let store = DurableStore::open(&path).unwrap();
        assert_eq!(store.cache_snapshot().keys(), vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
    }
}

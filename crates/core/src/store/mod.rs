//! `qurk::store` — the durable state layer (log-structured WAL).
//!
//! Crowd work costs real dollars, so losing state to a crash re-buys
//! answers the crowd already gave. This module persists the three
//! things worth dollars across restarts:
//!
//! 1. the **Task Cache** (spec key → paid assignments, the §2.5 cache
//!    at the HIT boundary),
//! 2. the learned [`StatisticsStore`](crate::opt::stats::StatisticsStore)
//!    evidence, and
//! 3. per-query **checkpoints** (tenant, SQL, budget) so a restarted
//!    [`QueryService`](crate::service::QueryService) resumes in-flight
//!    queries by replaying their paid rounds from the cache instead of
//!    re-posting them.
//!
//! The format is a single append-only, checksummed segment file with
//! periodic compaction (`log`); every mutation is one framed record
//! (`durable`) written **ahead** of its acknowledgement. The log is
//! the only copy: live state belongs to its owners (the
//! [`CachingBackend`](crate::backend::CachingBackend), a service's
//! statistics and tenants), and the store's getters and compaction
//! fold the log's durable prefix when they are called.
//! Crash behavior is specified by a numbered [`CrashPoint`] catalogue
//! and verified by a deterministic fault-injection harness
//! ([`FaultPlan`], `tests/crash_matrix.rs`): at every crash point ×
//! seed, recovery never double-pays a spec, never loses a flushed
//! paid assignment, and resumed queries are byte-identical to
//! uninterrupted runs. See `docs/store.md` for the file format and
//! the recovery guarantees.
//!
//! This module is the only place in the workspace allowed to issue
//! `std::fs` **writes** (enforced by `cargo run -p xtask -- lint`,
//! rule `durable-fs`): all durability flows through this WAL API.

mod codec;
mod durable;
mod fault;
mod log;

pub use durable::{DurableStore, QueryCheckpoint, RecoveredState, TenantRecord};
pub use fault::{CrashPoint, FaultPlan};

use std::fmt;

/// Why a store operation failed (or why the store refused to open).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a readable store (bad magic,
    /// unsupported version, undecodable record).
    Corrupt(String),
}

impl StoreError {
    fn corrupt(reason: impl Into<String>) -> Self {
        StoreError::Corrupt(reason.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(r) => write!(f, "store corrupt: {r}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for crate::error::QurkError {
    fn from(e: StoreError) -> Self {
        crate::error::QurkError::Store(e.to_string())
    }
}

/// Liveness of an open [`DurableStore`].
///
/// A store **dies** instead of erroring: after an injected crash
/// ([`FaultPlan`]), a real I/O failure, or a read of a log that no
/// longer folds, every subsequent write is a silent no-op — exactly
/// the observable behavior of a killed process — and the reason is
/// available here. Callers that must fail loudly on degraded
/// durability ([`Session`](crate::session::Session) runs and the
/// [`QueryService`](crate::service::QueryService)'s queries) check
/// this after work.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreHealth {
    Alive,
    /// Dead by deterministic fault injection at this crash point.
    FaultInjected(CrashPoint),
    /// Dead by a real filesystem error or an unreadable log
    /// (fail-stop, first error wins).
    Failed(String),
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per call (process id + counter), so tests
    /// never collide and can run in parallel.
    pub fn tmp_store_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qurk-store-{tag}-{}-{n}.qwal", std::process::id()))
    }
}

//! Multi-tenant query service: concurrent sessions over one shared
//! marketplace clock.
//!
//! Standalone [`Session`](crate::session::Session)s each own a
//! backend, so two users' queries run against *separate* simulated
//! marketplaces — separate clocks, separate caches, double pay for
//! identical work. This module multiplexes many queries, from many
//! tenants, onto **one** marketplace:
//!
//! ```text
//!   tenant A ──┐                              ┌────────────────────┐
//!   tenant B ──┼─ submit ─► QueryService ───► │ deterministic      │
//!   tenant C ──┘  (admission: lint gate,      │ barrier scheduler  │
//!                  budgets, fairness policy)  │ (commits in policy │
//!                                             │  order)            │
//!                                             └───────┬────────────┘
//!             machine phase: ALL runnable            │ marketplace
//!             query threads run in PARALLEL,         ▼ phase: one
//!             then barrier on their events             shared clock
//!                  ┌──────────────┐  stage   ┌────────────────────┐
//!                  │ TenantBackend │ ──────► │ SharedMarket       │
//!                  │ (stages posts,│ ◄────── │ (CachingBackend:   │
//!                  │  yields on    │ results │  cross-tenant      │
//!                  │  `run`)       │         │  dedup, LRU bound, │
//!                  └──────────────┘          │  one clock)        │
//!                                            └────────────────────┘
//! ```
//!
//! * [`scheduler`] — [`QueryService`]: admission,
//!   tenant budgets, fairness ([`SchedulePolicy`]),
//!   and the barrier scheduler: between yield points all runnable
//!   query threads execute concurrently (machine-side work genuinely
//!   overlaps on multi-core hosts); shared-state writes happen only at
//!   barriers, in policy order, so N concurrent queries still produce
//!   byte-identical results to running them sequentially.
//! * [`tenant`] — [`SharedMarket`] (the one
//!   mutex-guarded backend + per-query meters) and
//!   [`TenantBackend`] (a query's yielding
//!   handle on it).
//! * [`report`] — [`ServiceStats`], the
//!   multi-tenancy accounting attached to each
//!   [`QueryReport`](crate::session::QueryReport).
//! * [`protocol`] — the length-prefixed text wire protocol spoken by
//!   the `qurk-serve` binary.
//!
//! See `docs/service.md` for the full design.

pub mod protocol;
pub mod report;
pub mod scheduler;
pub mod tenant;

pub use protocol::Request;
pub use report::ServiceStats;
pub use scheduler::{PollOrder, QueryService, SchedulePolicy};
pub use tenant::{SharedMarket, StagedPost, TenantBackend};

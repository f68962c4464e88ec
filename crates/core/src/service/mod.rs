//! Multi-tenant query service: concurrent queries over one shared
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
//!                  budgets)                   │ (commits in        │
//!                                             │  submission order) │
//!                                             └───────┬────────────┘
//!             machine phase: ALL runnable            │ marketplace
//!             queries run in PARALLEL on             ▼ phase: one
//!             reused workers, then barrier             shared clock
//!                  ┌──────────────┐  stage   ┌────────────────────┐
//!                  │ TenantBackend │ ──────► │ the market: one    │
//!                  │ (stages posts,│ ◄────── │ CachingBackend     │
//!                  │  yields on    │ results │ (cross-tenant      │
//!                  │  `run`)       │         │  dedup, LRU bound, │
//!                  └──────────────┘          │  one clock)        │
//!                                            └────────────────────┘
//! ```
//!
//! * [`scheduler`] — [`QueryService`]: admission, tenant budgets, and
//!   the barrier scheduler: between yield points all runnable queries
//!   execute concurrently (machine-side work genuinely overlaps on
//!   multi-core hosts) on query workers reused across batches, never
//!   more than the largest batch needed; shared-state writes happen
//!   only at barriers, in submission order, so N concurrent queries
//!   still produce byte-identical results to running them
//!   sequentially.
//! * [`tenant`] — the market (the one mutex-guarded Task Cache,
//!   a [`CachingBackend`](crate::backend::CachingBackend), over the
//!   one backend; a query is the one list of cache groups committed
//!   for it) and [`TenantBackend`] (a query's yielding handle on it).
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
pub use scheduler::QueryService;
pub use tenant::TenantBackend;

//! # qurk
//!
//! A Rust reproduction of **Qurk**, the declarative crowd-powered query
//! engine of *Human-powered Sorts and Joins* (Marcus, Wu, Karger,
//! Madden, Miller — VLDB 2011).
//!
//! Qurk runs SQL-style queries whose filter, join, sort and generative
//! operators are executed by crowd workers. Operators are generic over
//! a [`backend::CrowdBackend`] — *what* is asked is decoupled from
//! *where* the HITs run — and every [`session::Session`] stacks
//! metering and caching decorators over the backend you give it; a
//! query's cost is read from the Task Cache groups it posted:
//!
//! ```text
//!  query text ──lang::parser──▶ AST
//!                                               │
//!  TASK DSL ──catalog (task templates)──────────┤
//!                                               ▼
//!                  analyze::prepare             FRONT END, once per query:
//!                    ├─ plan                    logical plan
//!                    ├─ opt::physical::compile  OPTIMIZER: cost-based
//!                    │    ├─ opt::stats         physical plan selection
//!                    │    └─ opt::cost          (as-written fallback)
//!                    └─ QA005 cost floor        │ Prepared plan
//!                                               ▼
//!                  Prepared::diagnose           ANALYZER: QA001…QA007 over
//!                                               the prepared plan (check() /
//!                                               LintPolicy deny|warn|allow)
//!                                               │
//!                                               ▼
//!                             session::Session / QueryBuilder
//!                                               │
//!                  exec::execute_plan           PLAN RUNNER: one bottom-up
//!                                               pass per PhysNode, shared
//!                                               by Session and the service
//!                                               │
//!                 ops::{filter, generative, join, sort}   [generic over B]
//!                                               │        └──▶ opt::stats
//!                 hit::batch                    │         (learned σ/κ/latency)
//!                                               ▼
//!                  backend::MeteringBackend     the query's groups
//!                    └─ backend::CachingBackend Task Cache (Figure 1),
//!                         │                     per-query accounting
//!                         └─ B: CrowdBackend    Marketplace | Replay | …
//!
//!   MULTI-TENANT (qurk-serve):
//!                  service::QueryService        admission gate + budgets;
//!                    └─ service::scheduler      PARALLEL machine phase,
//!                         │                     barrier per HIT round in
//!                         │                     submission order, 1 clock
//!                         └─ service::TenantBackend ──▶ backend::CachingBackend
//!                              (stages posts,           (the one LRU-bounded
//!                               yields on `run`)         cross-tenant Task Cache)
//! ```
//!
//! ## The paper's contributions, mapped
//!
//! | Paper | Module |
//! |---|---|
//! | §2.1 query language + task templates | [`lang`], [`task`], [`catalog`] |
//! | §2.5 HIT generation / plan rules | [`plan`], [`hit`] |
//! | §2.5 bottom-up plan-tree evaluation | `exec` (crate-private plan runner) |
//! | §2.6 Task Cache / MTurk boundary | [`backend`] |
//! | §3.1 SimpleJoin / NaiveBatch / SmartBatch | [`ops::join`] |
//! | §3.2 POSSIBLY feature filtering + κ/selectivity/leave-one-out | [`ops::join::feature_filter`] |
//! | §4.1 Compare / Rate / Hybrid sorts | [`ops::sort`] |
//! | §2.1 MajorityVote / QualityAdjust | re-exported from `qurk-combine` |
//! | §2.5 "lacks selectivity estimation" (closed) | [`opt`] |
//! | §6 adaptive assignment & batch sizing (future work) | [`adaptive`] |
//!
//! ## Quickstart
//!
//! ```
//! use qurk::prelude::*;
//!
//! // Hidden ground truth + simulated crowd.
//! let mut truth = qurk_crowd::GroundTruth::new();
//! let items = truth.new_items(4);
//! for (i, &it) in items.iter().enumerate() {
//!     truth.set_predicate(
//!         it,
//!         "isFemale",
//!         qurk_crowd::truth::PredicateTruth { value: i % 2 == 0, error_rate: 0.03 },
//!     );
//! }
//! let market = qurk_crowd::Marketplace::new(&qurk_crowd::CrowdConfig::default(), truth);
//!
//! // A table whose `img` column references crowd-visible items.
//! let mut celeb = Relation::new(Schema::new(&[
//!     ("name", ValueType::Text),
//!     ("img", ValueType::Item),
//! ]));
//! for (i, &it) in items.iter().enumerate() {
//!     celeb.push(vec![Value::text(format!("celeb{i}")), Value::Item(it)]).unwrap();
//! }
//!
//! // Register the table + a Filter task, then open a session.
//! let mut catalog = Catalog::new();
//! catalog.register_table("celeb", celeb);
//! catalog
//!     .define_tasks(
//!         r#"TASK isFemale(field) TYPE Filter:
//!             Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
//!             YesText: "Yes"
//!             NoText: "No"
//!             Combiner: MajorityVote
//!         "#,
//!     )
//!     .unwrap();
//! let mut session = Session::builder().catalog(&catalog).backend(market).build();
//!
//! // Fluent per-query configuration; overrides never leak between
//! // queries on the same session.
//! let report = session
//!     .query("SELECT c.name FROM celeb AS c WHERE isFemale(c.img)")
//!     .budget_dollars(1.0)
//!     .report()
//!     .unwrap();
//! assert_eq!(report.relation.len(), 2);
//! assert!(report.cost_dollars > 0.0);
//!
//! // Identical re-runs are answered from the session's cache.
//! let again = session
//!     .query("SELECT c.name FROM celeb AS c WHERE isFemale(c.img)")
//!     .report()
//!     .unwrap();
//! assert_eq!(again.hits_posted, 0);
//! ```

pub mod adaptive;
pub mod analyze;
pub mod backend;
pub mod catalog;
pub mod error;
mod exec;
pub mod hit;
pub mod intern;
pub mod lang;
pub mod ops;
pub mod opt;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod service;
pub mod session;
pub mod store;
pub mod task;
pub mod value;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::analyze::{Code, Diagnostic, LintConfig, LintPolicy, Severity};
    pub use crate::backend::{CachingBackend, CrowdBackend, MeteringBackend, ReplayBackend};
    pub use crate::catalog::Catalog;
    pub use crate::error::QurkError;
    pub use crate::opt::{CostEstimate, OptimizeMode, StatisticsStore};
    pub use crate::relation::Relation;
    pub use crate::schema::{Schema, ValueType};
    pub use crate::session::{ExecConfig, QueryReport, Session, SessionBuilder, SortMode};
    pub use crate::value::Value;
}

pub use analyze::{Code, Diagnostic, LintConfig, LintPolicy, Severity};
pub use backend::{
    BackendUsage, CachingBackend, CrowdBackend, MeteringBackend, ReplayBackend, ReplayTrace,
};
pub use catalog::Catalog;
pub use error::QurkError;
pub use intern::{IStr, SymbolTable, ValueId};
pub use opt::{CostEstimate, CostModel, OptimizeMode, PlanReport, StatisticsStore};
pub use relation::{Relation, RelationWindow, Row, PROCESSING_WINDOW_SIZE};
pub use schema::{Schema, ValueType};
pub use service::{QueryService, ServiceStats, TenantBackend};
pub use session::{ExecConfig, QueryBuilder, QueryReport, Session, SessionBuilder, SortMode};
pub use store::{CrashPoint, DurableStore, FaultPlan, QueryCheckpoint, StoreError, StoreHealth};
pub use value::Value;

//! The cost-based crowd optimizer.
//!
//! The paper punts on optimization: "Qurk currently lacks selectivity
//! estimation, so it orders filters and joins as they appear in the
//! query" (§2.5) — yet §3–§5 derive exact HIT-count formulas for every
//! strategy choice. This subsystem closes that loop:
//!
//! * [`stats`] — a [`stats::StatisticsStore`] learning per-task
//!   selectivities, per-feature κ/σ, per-dimension sort ambiguity and
//!   crowd latency from completed runs;
//! * [`cost`] — the paper's HIT/assignment/dollar/latency formulas as
//!   a [`cost::CostModel`];
//! * [`physical`] — [`physical::compile`], lowering logical plans to
//!   [`physical::PhysicalPlan`]s, enumerating alternatives and picking
//!   the cheapest (or reproducing the as-written plan exactly when no
//!   statistics exist);
//! * [`explain`] — EXPLAIN rendering and the per-query
//!   [`explain::PlanReport`] (estimated vs actual).
//!
//! See `docs/optimizer.md` for the formula-to-paper-section map.

pub mod cost;
pub mod explain;
pub mod physical;
pub mod stats;

pub use cost::{CostEstimate, CostModel};
pub use explain::PlanReport;
pub use physical::{compile, CompiledPlan, OptimizeMode, PhysNode, PhysicalPlan, PinSet};
pub use stats::StatisticsStore;

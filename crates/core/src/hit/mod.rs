//! HIT generation machinery (§2.5–§2.6).
//!
//! * [`batch`] — the two batching transformations: *merging* (one HIT,
//!   many tuples) and *combining* (one HIT, many tasks per tuple).
//!
//! Operators post [`qurk_crowd::HitSpec`]s — questions plus an
//! interface kind — and the simulated crowd answers those; no HTML is
//! rendered.
//!
//! The Task Cache of Figure 1 now lives at the backend boundary: see
//! [`crate::backend::CachingBackend`].

pub mod batch;

pub use batch::{combine_questions, merge_into_hits};

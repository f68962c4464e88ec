//! Crowd-powered operators.
//!
//! Each operator turns tuples into HIT groups, drives the marketplace,
//! and combines worker answers:
//!
//! * [`filter`] — linear-scan Yes/No predicates (§2.1). One predicate
//!   is *merged* (many tuples per HIT); several are *combined* (all of
//!   a tuple's predicates in one HIT).
//! * [`generative`] — free-text and categorical extraction (§2.2).
//!   Fields are combined or asked separately, each stream merged.
//! * [`join`] — SimpleJoin / NaiveBatch / SmartBatch block nested loop
//!   (§3.1) plus POSSIBLY feature filtering (§3.2), whose features are
//!   generative Radio tasks, combined or separate like
//!   [`generative`]'s fields.
//! * [`sort`] — Compare / Rate / Hybrid (§4.1) and MAX/MIN extraction.
//!   Rate merges its questions.
//!
//! Filters, ratings, joins, feature extraction and generative tasks
//! share one vote path in [`common`]: `batch_streams` lays out §2.6's
//! merged or combined HITs, and `CellVotes` posts the round and tallies
//! every (tuple, task) or join-pair cell's votes into one CSR buffer.
//! Each operator keeps only its combiner. Compare, Hybrid, MAX/MIN and
//! adaptive votes read whole orderings or picks per HIT instead.

pub mod common;
pub mod filter;
pub mod generative;
pub mod join;
pub mod partition;
pub mod sort;

pub use filter::FilterOp;
pub use generative::GenerativeOp;
pub use join::{FeatureFilterConfig, JoinOp, JoinOutcome, JoinStrategy};
pub use sort::{CompareSort, HybridSort, HybridStrategy, RateSort, SortOutcome};

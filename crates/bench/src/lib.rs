//! # qurk-bench
//!
//! The reproduction harness for every table and figure in
//! *Human-powered Sorts and Joins* (Marcus et al., VLDB 2011).
//!
//! Each module regenerates one experiment family against the simulated
//! marketplace and prints the same rows/series the paper reports; the
//! `repro` binary prints [`repro::report`] (`cargo run --release --bin repro -- --all`).
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`join_exps`] | Table 1, Figure 3, Figure 4, §3.3.3 regression |
//! | [`feature_exps`] | Table 2, Table 3, Table 4 |
//! | [`sort_exps`] | §4.2.2 microbenchmarks, Figure 6, Figure 7, §4.2.4 |
//! | [`end_to_end`] | Table 5, §3.3.2/§3.4 cost arithmetic |
//! | [`opt_exps`] | cost-based optimizer vs as-written plans (ISSUE 2) |
//! | [`wallclock`] | data-layout pass wall-clock gate (ISSUE 9) |
//! | [`ablations`] | DESIGN.md §5 design-choice ablations |
//! | [`repro`] | the `repro` report: flag dispatch and rendering |
//! | [`world`] | shared dataset/marketplace builders |
//! | [`report`] | table/series formatting |

pub mod ablations;
pub mod end_to_end;
pub mod feature_exps;
pub mod join_exps;
pub mod opt_exps;
pub mod report;
pub mod repro;
pub mod sort_exps;
pub mod wallclock;
pub mod world;

//! The `repro` report: every selected table and figure, rendered in
//! the order the paper presents them.
//!
//! Flags (any subset; `--all` runs everything):
//!   --table1              baseline join comparison
//!   --fig3                batching vs accuracy
//!   --fig4                latency percentiles
//!   --sec333              worker volume vs accuracy regression
//!   --table2              feature filtering effectiveness
//!   --table3              leave-one-out features
//!   --table4              feature kappas
//!   --squares-compare     compare batching microbenchmark
//!   --squares-rate        rate batching microbenchmark
//!   --squares-granularity rating granularity microbenchmark
//!   --fig6                tau/kappa vs ambiguity
//!   --fig7                hybrid convergence (40 squares)
//!   --fig7-animals        hybrid on animals Q2
//!   --table5              end-to-end query
//!   --costs               cost narrative arithmetic
//!   --optimizer           cost-based optimizer vs as-written plans
//!   --ablations           DESIGN.md Sec.5 design-choice ablations
//!
//! Unknown flags are ignored. The report is deterministic (seeded
//! simulation), so `tests/data/repro_all.expected` pins `--all`.

use crate::report::Table;
use crate::{ablations, end_to_end, feature_exps, join_exps, opt_exps, sort_exps};

/// Render the tables `flags` select, each followed by a blank line.
pub fn report(flags: &[String]) -> String {
    let all = flags.iter().any(|a| a == "--all");
    let has = |flag: &str| all || flags.iter().any(|a| a == flag);
    let mut out = String::new();
    let mut emit = |t: Table| {
        out.push_str(&t.render());
        out.push('\n');
    };

    if has("--table1") {
        emit(join_exps::table1());
    }
    if has("--fig3") {
        emit(join_exps::fig3().0);
    }
    if has("--fig4") {
        emit(join_exps::fig4());
    }
    if has("--sec333") {
        emit(join_exps::assignments_vs_accuracy().0);
    }
    if has("--table2") || has("--table3") || has("--table4") {
        let (t2, trials) = feature_exps::table2();
        if has("--table2") {
            emit(t2);
        }
        if has("--table3") {
            emit(feature_exps::table3(&trials[0]));
        }
        if has("--table4") {
            emit(feature_exps::table4(&trials));
        }
    }
    if has("--squares-compare") {
        emit(sort_exps::squares_compare());
    }
    if has("--squares-rate") {
        emit(sort_exps::squares_rate_batching());
    }
    if has("--squares-granularity") {
        emit(sort_exps::rating_granularity());
    }
    if has("--fig6") {
        emit(sort_exps::fig6().0);
    }
    if has("--fig7") {
        emit(sort_exps::fig7(40).0);
    }
    if has("--fig7-animals") {
        emit(sort_exps::fig7_animals());
    }
    if has("--table5") {
        emit(end_to_end::table5());
    }
    if has("--costs") {
        emit(end_to_end::costs());
    }
    if has("--optimizer") {
        emit(opt_exps::comparison_table(&opt_exps::compare_workloads()));
    }
    if has("--ablations") {
        emit(ablations::spam_sweep());
        emit(ablations::aggregation_ablation());
        emit(ablations::window_step_sweep());
        emit(ablations::feature_selection_ablation());
        emit(ablations::adaptive_votes_ablation());
        emit(ablations::cache_ablation());
    }
    out
}

//! Pre-flight static analysis of queries.
//!
//! Every mistake in a crowd query costs real dollars (§2.6 treats the
//! HIT as the primary resource), so this pass runs *between* planning
//! and execution and flags hazards before any crowd work is posted:
//! join cross products priced past the budget, sorts beyond the §4.1
//! covering-design bound, budgets below the cost-model floor,
//! contradictory machine predicates, dead conjuncts, and pinned
//! operators that cannot do what they were pinned for.
//!
//! The analyzer is pure: it prices the plan the front end already
//! built with the [`CostModel`](crate::opt::cost::CostModel) and posts
//! nothing. `prepare` is that front end — plan, compile, price, once
//! per query — and execution, `check()`, EXPLAIN and service admission
//! all start from its `Prepared` result. Entry points:
//!
//! * [`QueryBuilder::check`](crate::session::QueryBuilder::check) —
//!   analyze without executing, returning the diagnostics;
//! * [`LintPolicy`] on the session/query — under [`LintPolicy::Deny`]
//!   an Error-level diagnostic rejects the query with
//!   [`QurkError::Rejected`]
//!   pre-execution; under the default [`LintPolicy::Warn`] diagnostics
//!   ride along on the
//!   [`QueryReport`](crate::session::QueryReport) and EXPLAIN output.
//!
//! The rule registry (codes → paper sections → examples) lives in
//! `docs/diagnostics.md`.

mod diag;
mod rules;

pub use diag::{Code, Diagnostic, Severity, Span};

use crate::catalog::Catalog;
use crate::error::{QurkError, Result};
use crate::exec::bind;
use crate::lang::ast::Query;
use crate::lang::token::{Lexer, TokenKind};
use crate::opt::physical::{compile, CompiledPlan, OptimizeMode};
use crate::opt::stats::StatisticsStore;
use crate::plan::{plan_query, LogicalPlan};
use crate::session::ExecConfig;

/// What the session does with diagnostics at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Skip analysis entirely.
    Allow,
    /// Analyze and attach diagnostics to the report (the default).
    #[default]
    Warn,
    /// Analyze; any Error-level diagnostic rejects the query with
    /// [`QurkError::Rejected`]
    /// before any HIT is posted.
    Deny,
}

/// Analyzer configuration, carried on
/// [`ExecConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    pub policy: LintPolicy,
    /// QA001: estimated HIT count above which an unfiltered cross join
    /// is flagged even when the query has no budget.
    pub join_hit_ceiling: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            policy: LintPolicy::Warn,
            // A 75×75 cross product at NaiveBatch(5) — far beyond
            // anything the paper posts in one query (§3.3 tops out
            // near 1.6k pair *scores*, not HITs).
            join_hit_ceiling: 1000.0,
        }
    }
}

/// Positions of identifier tokens in source order, built by re-lexing
/// the query text (the AST itself carries no spans).
pub(crate) struct SpanIndex {
    idents: Vec<(String, Span)>,
}

impl SpanIndex {
    fn new(src: &str) -> SpanIndex {
        let idents = Lexer::new(src)
            .tokenize()
            .unwrap_or_default()
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some((
                    s,
                    Span {
                        line: t.line,
                        column: t.column,
                    },
                )),
                _ => None,
            })
            .collect();
        SpanIndex { idents }
    }

    /// Position of the `n`-th occurrence (0-based) of `name`, falling
    /// back to the first occurrence, then to no span.
    pub(crate) fn nth(&self, name: &str, n: usize) -> Option<Span> {
        let mut first = None;
        let mut seen = 0usize;
        for (ident, span) in &self.idents {
            if ident == name {
                if first.is_none() {
                    first = Some(*span);
                }
                if seen == n {
                    return Some(*span);
                }
                seen += 1;
            }
        }
        first
    }

    /// Position of the first occurrence of `name`. For qualified
    /// column names (`c.id`) pass the last segment.
    pub(crate) fn first(&self, name: &str) -> Option<Span> {
        self.nth(name, 0)
    }

    /// Span lookup for a (possibly qualified) column reference.
    pub(crate) fn column(&self, name: &str) -> Option<Span> {
        self.first(name.rsplit('.').next().unwrap_or(name))
    }
}

/// A query taken through the front end once: planned, compiled under
/// the configured optimize mode, and priced for QA005.
pub(crate) struct Prepared {
    pub(crate) ast: Query,
    pub(crate) logical: LogicalPlan,
    pub(crate) compiled: CompiledPlan,
    /// QA005's floor: the cheapest admissible physical plan's dollars.
    pub(crate) floor_dollars: f64,
}

/// Plan and compile `ast` once against `stats`, and bind the compiled
/// plan (`exec::bind`: the plan runner over zero-row tables, which
/// posts no crowd work), so a query naming an unknown column or
/// repeating a column name fails here, with the error the run would
/// give, before it posts any HIT.
///
/// QA005's floor is the cheaper of the chosen plan and the
/// [`OptimizeMode::AsWritten`] plan. Every cost-based deviation logs a
/// decision, so an empty decision log means the as-written plan *is*
/// the chosen plan, and only a non-empty log costs a second compile.
pub(crate) fn prepare(
    ast: Query,
    catalog: &Catalog,
    config: &ExecConfig,
    stats: &StatisticsStore,
) -> Result<Prepared> {
    let logical = plan_query(&ast, catalog)?;
    let compiled = compile(&logical, catalog, config, stats)?;
    bind(&compiled.root, catalog)?;
    let floor_dollars = if compiled.decisions.is_empty() {
        compiled.estimate.dollars
    } else {
        let as_written = ExecConfig {
            optimize: OptimizeMode::AsWritten,
            ..config.clone()
        };
        let alt = compile(&logical, catalog, &as_written, stats)?;
        compiled.estimate.dollars.min(alt.estimate.dollars)
    };
    Ok(Prepared {
        ast,
        logical,
        compiled,
        floor_dollars,
    })
}

impl Prepared {
    /// Run QA001–QA007 against the prepared plan, sorted Error-first
    /// then by code. `src` is the query text, for spans.
    pub(crate) fn diagnose(
        &self,
        src: &str,
        config: &ExecConfig,
        stats: &StatisticsStore,
        budget_dollars: Option<f64>,
    ) -> Vec<Diagnostic> {
        let spans = SpanIndex::new(src);
        let cx = rules::RuleCx {
            spans: &spans,
            query: &self.ast,
            chosen: &self.compiled,
            floor_dollars: self.floor_dollars,
            config,
            stats,
            budget_dollars,
        };
        let mut diagnostics = rules::run_all(&cx);
        diagnostics.sort_by(|a, b| a.severity.cmp(&b.severity).then(a.code.cmp(&b.code)));
        diagnostics
    }

    /// The lint-policy gate in front of execution: no analysis under
    /// [`LintPolicy::Allow`]; under [`LintPolicy::Deny`] an Error-level
    /// diagnostic rejects the query with [`QurkError::Rejected`].
    /// Returns the diagnostics to attach to the report.
    pub(crate) fn gate(
        &self,
        src: &str,
        config: &ExecConfig,
        stats: &StatisticsStore,
        budget_dollars: Option<f64>,
    ) -> Result<Vec<Diagnostic>> {
        if config.lint.policy == LintPolicy::Allow {
            return Ok(Vec::new());
        }
        let diagnostics = self.diagnose(src, config, stats, budget_dollars);
        if config.lint.policy == LintPolicy::Deny && diagnostics.iter().any(Diagnostic::is_error) {
            return Err(QurkError::Rejected { diagnostics });
        }
        Ok(diagnostics)
    }
}

/// Run the full rule set against a parsed query: prepare it, then
/// diagnose. Errors only on plan/compile failure; diagnostics are the
/// Ok value, sorted Error-first then by code.
pub fn analyze_query(
    src: &str,
    query: &Query,
    catalog: &Catalog,
    config: &ExecConfig,
    stats: &StatisticsStore,
    budget_dollars: Option<f64>,
) -> Result<Vec<Diagnostic>> {
    let prepared = prepare(query.clone(), catalog, config, stats)?;
    Ok(prepared.diagnose(src, config, stats, budget_dollars))
}

/// Render a diagnostics block for EXPLAIN surfaces.
pub(crate) fn render_diagnostics(diagnostics: &[Diagnostic]) -> String {
    if diagnostics.is_empty() {
        return "diagnostics: none\n".to_owned();
    }
    let mut out = String::from("diagnostics:\n");
    for d in diagnostics {
        out.push_str(&format!("  {d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_index_finds_nth_occurrence() {
        let idx = SpanIndex::new("SELECT id FROM t WHERE isTall(t.img) AND isTall(t.img)");
        let first = idx.nth("isTall", 0).unwrap();
        let second = idx.nth("isTall", 1).unwrap();
        assert_eq!(first.line, 1);
        assert!(second.column > first.column);
        // Out-of-range occurrence falls back to the first.
        assert_eq!(idx.nth("isTall", 7), Some(first));
        assert_eq!(idx.first("nope"), None);
        // Qualified column lookup uses the last segment.
        assert_eq!(idx.column("t.img"), idx.first("img"));
    }

    #[test]
    fn render_block_formats() {
        assert_eq!(render_diagnostics(&[]), "diagnostics: none\n");
        let d = Diagnostic::new(Code::QA005, Severity::Error, "budget too low");
        let block = render_diagnostics(&[d]);
        assert!(block.contains("QA005 [error]: budget too low"), "{block}");
    }
}

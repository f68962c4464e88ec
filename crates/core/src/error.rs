//! Error type for the query engine.

use std::fmt;

use crate::analyze::Diagnostic;

/// Errors surfaced by parsing, planning, or executing a Qurk query.
#[derive(Debug, Clone, PartialEq)]
pub enum QurkError {
    /// Lexing/parsing failure with position information.
    Parse {
        message: String,
        line: usize,
        column: usize,
        /// The offending source line, rendered under the message with
        /// a caret at `column` when present.
        snippet: Option<String>,
    },
    /// Reference to an unknown table.
    UnknownTable(String),
    /// Reference to an unknown task/UDF.
    UnknownTask(String),
    /// Reference to an unknown column.
    UnknownColumn(String),
    /// A task was used in a position its type does not support
    /// (e.g. a Filter task in ORDER BY).
    TaskTypeMismatch {
        task: String,
        expected: &'static str,
        found: &'static str,
    },
    /// A task was called with a different number of arguments than
    /// its definition declares parameters.
    TaskArity {
        task: String,
        expected: usize,
        found: usize,
    },
    /// Schema violation when constructing relations.
    Schema(String),
    /// The crowd did not complete the work (e.g. batch too large).
    CrowdIncomplete { outstanding: u32 },
    /// A per-query dollar budget was exhausted before the next crowd
    /// operator could start (see
    /// [`QueryBuilder::budget_dollars`](crate::session::QueryBuilder::budget_dollars)).
    BudgetExceeded {
        budget_dollars: f64,
        spent_dollars: f64,
    },
    /// A crowd round was posted with a non-finite or negative time
    /// limit. The scheduler rejects the round before it can poison the
    /// shared marketplace clock (an infinite deadline would run the
    /// simulation forever; a NaN made resume order nondeterministic).
    InvalidDeadline { limit_secs: f64 },
    /// The pre-flight analyzer found Error-level diagnostics and the
    /// lint policy is [`LintPolicy::Deny`](crate::analyze::LintPolicy):
    /// the query was rejected before any HIT was posted.
    Rejected { diagnostics: Vec<Diagnostic> },
    /// A completed HIT carried no answer its operator can count (every
    /// stored answer was of the wrong kind or named an item outside
    /// the HIT). A cached spec replays the same answers on every
    /// retry, so the query fails instead of guessing.
    NoValidAnswer { task: String },
    /// The durable store failed (I/O error or corruption) while a
    /// query required durability (see [`crate::store`]).
    Store(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for QurkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QurkError::Parse {
                message,
                line,
                column,
                snippet,
            } => {
                write!(f, "parse error at {line}:{column}: {message}")?;
                if let Some(src_line) = snippet {
                    let caret_pad = " ".repeat(column.saturating_sub(1));
                    write!(f, "\n  {src_line}\n  {caret_pad}^")?;
                }
                Ok(())
            }
            QurkError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            QurkError::UnknownTask(t) => write!(f, "unknown task: {t}"),
            QurkError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QurkError::TaskTypeMismatch {
                task,
                expected,
                found,
            } => {
                write!(f, "task {task} has type {found}, expected {expected}")
            }
            QurkError::TaskArity {
                task,
                expected,
                found,
            } => write!(
                f,
                "task {task} takes {expected} argument{}, called with {found}",
                if *expected == 1 { "" } else { "s" }
            ),
            QurkError::Schema(m) => write!(f, "schema error: {m}"),
            QurkError::CrowdIncomplete { outstanding } => {
                write!(
                    f,
                    "crowd work incomplete: {outstanding} assignments outstanding"
                )
            }
            QurkError::BudgetExceeded {
                budget_dollars,
                spent_dollars,
            } => {
                write!(
                    f,
                    "query budget exhausted: spent ${spent_dollars:.3} of ${budget_dollars:.3}"
                )
            }
            QurkError::InvalidDeadline { limit_secs } => {
                write!(
                    f,
                    "invalid round deadline: limit of {limit_secs} seconds is not a finite, \
                     non-negative duration"
                )
            }
            QurkError::Rejected { diagnostics } => {
                let errors = diagnostics.iter().filter(|d| d.is_error()).count();
                write!(
                    f,
                    "query rejected by pre-flight analysis ({errors} error{}):",
                    if errors == 1 { "" } else { "s" }
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            QurkError::NoValidAnswer { task } => {
                write!(f, "a completed {task} HIT has no valid crowd answer")
            }
            QurkError::Store(m) => write!(f, "durable store error: {m}"),
            QurkError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for QurkError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QurkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = QurkError::Parse {
            message: "bad token".into(),
            line: 2,
            column: 7,
            snippet: None,
        };
        assert_eq!(e.to_string(), "parse error at 2:7: bad token");
        assert_eq!(
            QurkError::UnknownTable("t".into()).to_string(),
            "unknown table: t"
        );
        let e = QurkError::TaskTypeMismatch {
            task: "f".into(),
            expected: "Rank",
            found: "Filter",
        };
        assert!(e.to_string().contains("expected Rank"));
    }
}

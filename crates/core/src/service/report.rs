//! Per-query service accounting: what multi-tenancy did to a query.
//!
//! A query run through [`crate::service::QueryService`] shares the
//! marketplace clock, the task cache, and the crowd's attention with
//! every other tenant's queries. [`ServiceStats`] makes that sharing
//! observable on the [`QueryReport`](crate::session::QueryReport):
//! how long the query sat waiting on rounds it did not own, how many
//! of its rounds overlapped other tenants', and how many dollars the
//! shared cache saved it.

/// Multi-tenant accounting attached to a
/// [`QueryReport`](crate::session::QueryReport) by the service
/// scheduler (absent for queries run outside the service).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Tenant that submitted the query.
    pub tenant: String,
    /// Virtual seconds the query spent resumable-but-not-resumed:
    /// time between its own crowd work completing and the scheduler
    /// handing control back (it was waiting on the shared clock, not
    /// on its own HITs).
    pub queue_wait_secs: f64,
    /// Crowd rounds this query yielded for (one per HIT group wait).
    pub rounds: u64,
    /// Rounds during which at least one other tenant's query was also
    /// waiting on the same marketplace step.
    pub rounds_shared: u64,
    /// HIT specs served from the shared cache (or by piggybacking on
    /// another tenant's identical in-flight spec) instead of posting.
    pub shared_cache_hits: u64,
    /// Dollars the shared cache saved this query: assignments it would
    /// have paid for, priced at the marketplace's per-assignment rate.
    pub saved_dollars: f64,
    /// True when the query was resumed from a persisted checkpoint
    /// after a restart ([`QueryService::recover`](crate::service::QueryService::recover))
    /// rather than submitted in this process's lifetime.
    pub resumed: bool,
}

impl ServiceStats {
    /// Render as an EXPLAIN block section (appended by
    /// [`QueryReport::explain_full`](crate::session::QueryReport::explain_full)).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("\nservice:\n");
        out.push_str(&format!("  tenant          {}\n", self.tenant));
        out.push_str(&format!("  queue wait      {:.1}s\n", self.queue_wait_secs));
        out.push_str(&format!(
            "  rounds          {} ({} shared with other tenants)\n",
            self.rounds, self.rounds_shared
        ));
        out.push_str(&format!(
            "  cache           {} specs served without posting (${:.3} saved)\n",
            self.shared_cache_hits, self.saved_dollars
        ));
        if self.resumed {
            out.push_str("  resumed         from a persisted checkpoint after restart\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_every_field() {
        let s = ServiceStats {
            tenant: "alice".into(),
            queue_wait_secs: 12.5,
            rounds: 3,
            rounds_shared: 2,
            shared_cache_hits: 7,
            saved_dollars: 0.525,
            resumed: false,
        };
        let text = s.render();
        assert!(text.contains("alice"));
        assert!(text.contains("12.5s"));
        assert!(text.contains("3 (2 shared"));
        assert!(text.contains("7 specs"));
        assert!(text.contains("$0.525"));
        assert!(!text.contains("resumed"));
        let resumed = ServiceStats { resumed: true, ..s };
        assert!(resumed.render().contains("resumed"));
    }
}

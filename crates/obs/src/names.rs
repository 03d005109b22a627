//! Canonical trace span, event and warning names.
//!
//! Instrument (counter/gauge/histogram) names live in the [`crate::metrics`]
//! catalogs; the names of trace spans, events and warnings — equally stable
//! identifiers, asserted on by integration tests and scraped from trace
//! files — live here.  Together the two modules are the `disassoc-lint`
//! DL004 registry: any obs-shaped name literal elsewhere in the workspace
//! must match an entry in one of them, which makes a typo'd assertion or an
//! inline-minted name a lint error instead of silent drift.
//!
//! Instrumented code should reference these constants rather than repeat
//! the literals.

/// Span: horizontal partitioning of one batch (or one append's routing).
pub const SPAN_CORE_HORPART: &str = "core.horpart";

/// Span: vertical partitioning of one batch's (or one append's) clusters.
pub const SPAN_CORE_VERPART: &str = "core.verpart";

/// Span: refining of one batch's (or one append's) clusters.
pub const SPAN_CORE_REFINE: &str = "core.refine";

/// Span: a `disassoc ingest` run (store open, WAL appends, flush).
pub const SPAN_CLI_INGEST: &str = "cli.ingest";

/// Span: a `disassoc append` run (incremental rebuild, append, persist).
pub const SPAN_CLI_APPEND: &str = "cli.append";

/// Span: one daemon anonymize job (store scan, pipeline, publication).
pub const SPAN_SERVE_ANONYMIZE_JOB: &str = "serve.anonymize_job";

/// Span: one daemon append job (incremental rebuild, append, publication).
pub const SPAN_SERVE_APPEND_JOB: &str = "serve.append_job";

/// Per-run anonymization summary event (records, clusters, refine passes).
pub const EVENT_CORE_ANONYMIZE: &str = "core.anonymize";

/// Per-batch pipeline completion event (batch index, records, seconds).
pub const EVENT_PIPELINE_BATCH: &str = "pipeline.batch";

/// Incremental append outcome event (generation, dirty/reused/new clusters).
pub const EVENT_INCR_APPEND: &str = "incr.append";

/// Warning: REFINE hit its pass cap without converging.
pub const WARN_REFINE_PASS_CAP: &str = "refine.pass_cap";

/// Warning: unsealed records were recovered from the write-ahead log.
pub const WARN_STORE_WAL_RECOVERY: &str = "store.wal_recovery";

/// Every registered span/event/warning name, in declaration order.
pub const ALL: &[&str] = &[
    SPAN_CORE_HORPART,
    SPAN_CORE_VERPART,
    SPAN_CORE_REFINE,
    SPAN_CLI_INGEST,
    SPAN_CLI_APPEND,
    SPAN_SERVE_ANONYMIZE_JOB,
    SPAN_SERVE_APPEND_JOB,
    EVENT_CORE_ANONYMIZE,
    EVENT_PIPELINE_BATCH,
    EVENT_INCR_APPEND,
    WARN_REFINE_PASS_CAP,
    WARN_STORE_WAL_RECOVERY,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted_lowercase() {
        let mut sorted: Vec<&str> = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "duplicate trace names");
        for name in ALL {
            assert!(
                name.contains('.')
                    && name.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || c == '_'
                        || c == '.'),
                "{name} is not dotted lowercase"
            );
        }
    }
}

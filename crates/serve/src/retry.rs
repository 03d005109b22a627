//! Bounded, deterministic retry-with-backoff for write operations, and the
//! graceful-degradation step taken when retries are exhausted.
//!
//! The schedule is jitter-free by design: `base · 2^attempt`, capped — the
//! same inputs always produce the same delays, so tests (and the torture
//! harness) can assert on exact retry behaviour.  Only
//! [`ServeError::Internal`] is considered transient: bad requests, missing
//! datasets, lock conflicts, and backpressure are not improved by retrying.
//!
//! When a write operation keeps failing past its schedule, the dataset is
//! flipped to **degraded read-only mode** (see
//! [`DatasetHandle::degrade`]) instead of letting the failure take the
//! daemon down: subsequent writes answer 503, reads keep serving the last
//! complete publication, and `GET /healthz` lists the dataset.

use std::time::Duration;

use crate::dataset::DatasetHandle;
use crate::error::ServeError;
use disassoc_obs::metrics::counters;

/// A deterministic capped-exponential backoff schedule: the server's write
/// retries and the client's 503 retries ([`crate::client`]) both run on it.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for RetrySchedule {
    fn default() -> Self {
        RetrySchedule {
            attempts: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(100),
        }
    }
}

impl RetrySchedule {
    /// A schedule that never retries — used where re-running the operation
    /// is not idempotent (incremental append persists records mid-job), so
    /// the only safe reaction to a persistent write failure is degrading.
    pub fn none() -> RetrySchedule {
        RetrySchedule {
            attempts: 1,
            ..RetrySchedule::default()
        }
    }

    /// The delay before retry number `retry_index` (0-based): jitter-free
    /// `base · 2^retry_index`, capped at `cap`.
    pub fn delay(&self, retry_index: u32) -> Duration {
        let factor = 1u32.checked_shl(retry_index).unwrap_or(u32::MAX);
        self.base
            .checked_mul(factor)
            .map_or(self.cap, |d| d.min(self.cap))
    }
}

/// Whether retrying could plausibly help: only internal (I/O-shaped)
/// failures qualify.
pub fn is_transient(error: &ServeError) -> bool {
    matches!(error, ServeError::Internal(_))
}

/// Runs `f`, retrying transient failures per `schedule`; when the schedule
/// is exhausted the dataset is degraded to read-only and the caller gets
/// [`ServeError::Degraded`].  Non-transient errors pass through untouched.
pub fn with_write_retries<T>(
    handle: &DatasetHandle,
    what: &str,
    schedule: &RetrySchedule,
    mut f: impl FnMut() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(value) => return Ok(value),
            Err(error) if is_transient(&error) => {
                if attempt + 1 < schedule.attempts.max(1) {
                    counters::SERVE_JOB_RETRIES.inc();
                    std::thread::sleep(schedule.delay(attempt));
                    attempt += 1;
                } else {
                    let reason = format!("{what} failed persistently: {error}");
                    if handle.degrade(&reason) {
                        counters::SERVE_DATASETS_DEGRADED.inc();
                    }
                    return Err(ServeError::Degraded {
                        dataset: handle.name().to_owned(),
                        reason,
                    });
                }
            }
            Err(error) => return Err(error),
        }
    }
}

/// Rejects writes to a degraded dataset up front, before any work is
/// queued: 503 for writes, while read routes stay untouched.
pub fn require_writable(handle: &DatasetHandle) -> Result<(), ServeError> {
    match handle.degraded_reason() {
        Some(reason) => Err(ServeError::Degraded {
            dataset: handle.name().to_owned(),
            reason,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let schedule = RetrySchedule {
            attempts: 6,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(100),
        };
        let delays: Vec<u64> = (0..6)
            .map(|i| schedule.delay(i).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![25, 50, 100, 100, 100, 100]);
        // Huge attempt counts saturate instead of overflowing.
        assert_eq!(schedule.delay(1000), schedule.cap);
    }

    #[test]
    fn only_internal_errors_are_transient() {
        assert!(is_transient(&ServeError::Internal("io".into())));
        assert!(!is_transient(&ServeError::BadRequest("x".into())));
        assert!(!is_transient(&ServeError::NotFound("x".into())));
        assert!(!is_transient(&ServeError::Conflict("x".into())));
        assert!(!is_transient(&ServeError::Busy {
            retry_after_seconds: 1
        }));
    }

    #[test]
    fn schedule_respects_attempt_bounds() {
        let s = RetrySchedule::default();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.delay(0), Duration::from_millis(25));
        assert_eq!(s.delay(1), Duration::from_millis(50));
        assert_eq!(s.delay(2), Duration::from_millis(100));
        assert_eq!(RetrySchedule::none().attempts, 1);
    }
}

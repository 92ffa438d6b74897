//! Readiness and degradation state: the registry behind `/readyz`.
//!
//! Liveness (`/healthz`) answers "is the process up"; **readiness**
//! answers "is it up *and whole*". One [`HealthState`] per
//! [`crate::store::SnapshotStore`] aggregates every subsystem that can
//! degrade without taking the process down:
//!
//! * **Durability breaker** — repeated durable-append failures (a full
//!   or failing `--data-dir` disk) trip a read-only-durability breaker
//!   after [`DURABLE_BREAKER_THRESHOLD`] consecutive failures. Reads
//!   keep serving and publishes keep swapping (availability over
//!   durability); appends stop being attempted on the publish path and
//!   a background probe retries with exponential backoff, catching the
//!   log up to the newest epoch and closing the breaker the moment the
//!   disk answers again — no restart needed.
//! * **Live refresher supervision** — a panicking tick is caught and
//!   the loop restarted with backoff
//!   (see [`crate::live::spawn_live_refresher`]); the registry reports
//!   `live-refresher` until a restarted tick completes cleanly.
//! * **Draining** — a SIGTERM/SIGINT drain in progress reports
//!   `draining` (and 503) so load balancers stop routing while
//!   in-flight requests finish.
//!
//! Everything here is lock-free atomics: readiness is read on the
//! request path and written from publish/supervisor threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive durable-append failures that trip the read-only
/// durability breaker.
pub const DURABLE_BREAKER_THRESHOLD: u64 = 3;

/// Aggregated degradation state, shared by the publish path, the
/// supervisors, and the `/readyz` handler.
#[derive(Debug, Default)]
pub struct HealthState {
    draining: AtomicBool,
    durable_breaker_open: AtomicBool,
    durable_consecutive: AtomicU64,
    durable_failures: AtomicU64,
    durable_recoveries: AtomicU64,
    probe_running: AtomicBool,
    live_restarting: AtomicBool,
}

impl HealthState {
    /// A fresh, fully-ready state.
    pub fn new() -> Arc<HealthState> {
        Arc::new(HealthState::default())
    }

    /// Flip the drain flag (set once by the signal path; never unset —
    /// a draining process exits).
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Is a graceful drain in progress?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Record one durable-append failure. Returns `true` when this
    /// failure *tripped* the breaker (the caller should start the
    /// recovery probe).
    pub fn record_durable_failure(&self) -> bool {
        self.durable_failures.fetch_add(1, Ordering::Relaxed);
        let consecutive = self.durable_consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if consecutive >= DURABLE_BREAKER_THRESHOLD {
            !self.durable_breaker_open.swap(true, Ordering::SeqCst)
        } else {
            false
        }
    }

    /// Record a durable failure and open the breaker immediately,
    /// skipping the consecutive-count grace. Boot-time attach failures
    /// use this: there is no append history to smooth over, and the
    /// boot epoch must land via the recovery probe. Returns `true`
    /// when this call *tripped* the breaker (the caller should start
    /// the probe).
    pub fn trip_durable_breaker(&self) -> bool {
        self.durable_failures.fetch_add(1, Ordering::Relaxed);
        self.durable_consecutive
            .store(DURABLE_BREAKER_THRESHOLD, Ordering::SeqCst);
        !self.durable_breaker_open.swap(true, Ordering::SeqCst)
    }

    /// Record one successful durable append: resets the consecutive
    /// count and closes the breaker if it was open.
    pub fn record_durable_success(&self) {
        self.durable_consecutive.store(0, Ordering::SeqCst);
        if self.durable_breaker_open.swap(false, Ordering::SeqCst) {
            self.durable_recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is the read-only-durability breaker open?
    pub fn durable_breaker_open(&self) -> bool {
        self.durable_breaker_open.load(Ordering::SeqCst)
    }

    /// Total durable-append failures since boot.
    pub fn durable_failures(&self) -> u64 {
        self.durable_failures.load(Ordering::Relaxed)
    }

    /// Times the breaker closed again after opening.
    pub fn durable_recoveries(&self) -> u64 {
        self.durable_recoveries.load(Ordering::Relaxed)
    }

    /// Claim the single recovery-probe slot. Returns `true` when the
    /// caller should spawn the probe (nobody else is running one).
    pub(crate) fn claim_probe(&self) -> bool {
        !self.probe_running.swap(true, Ordering::SeqCst)
    }

    /// Release the recovery-probe slot (the probe exited).
    pub(crate) fn release_probe(&self) {
        self.probe_running.store(false, Ordering::SeqCst);
    }

    /// Mark the live refresher as crashed/restarting (`true`) or
    /// recovered (`false`).
    pub fn set_live_restarting(&self, restarting: bool) {
        self.live_restarting.store(restarting, Ordering::SeqCst);
    }

    /// The active degradation reasons, stable slugs for `/readyz`.
    pub fn reasons(&self) -> Vec<&'static str> {
        let mut reasons = Vec::new();
        if self.durable_breaker_open() {
            reasons.push("durable-append");
        }
        if self.live_restarting.load(Ordering::SeqCst) {
            reasons.push("live-refresher");
        }
        reasons
    }

    /// The one-word readiness status: `draining` dominates, any reason
    /// means `degraded`, otherwise `ready`.
    pub fn status(&self) -> &'static str {
        if self.is_draining() {
            "draining"
        } else if self.reasons().is_empty() {
            "ready"
        } else {
            "degraded"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let h = HealthState::new();
        assert_eq!(h.status(), "ready");
        for i in 1..DURABLE_BREAKER_THRESHOLD {
            assert!(!h.record_durable_failure(), "failure {i} must not trip");
            assert!(!h.durable_breaker_open());
        }
        assert!(h.record_durable_failure(), "threshold failure trips");
        assert!(h.durable_breaker_open());
        assert_eq!(h.status(), "degraded");
        assert_eq!(h.reasons(), vec!["durable-append"]);
        // Further failures keep it open without re-tripping.
        assert!(!h.record_durable_failure());
        h.record_durable_success();
        assert!(!h.durable_breaker_open());
        assert_eq!(h.status(), "ready");
        assert_eq!(h.durable_recoveries(), 1);
        assert_eq!(h.durable_failures(), DURABLE_BREAKER_THRESHOLD + 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let h = HealthState::new();
        for _ in 0..DURABLE_BREAKER_THRESHOLD - 1 {
            h.record_durable_failure();
        }
        h.record_durable_success();
        // A fresh run of failures must count from zero again.
        for i in 1..DURABLE_BREAKER_THRESHOLD {
            assert!(!h.record_durable_failure(), "failure {i} after reset");
        }
        assert!(h.record_durable_failure());
    }

    #[test]
    fn reasons_compose_and_draining_dominates() {
        let h = HealthState::new();
        h.set_live_restarting(true);
        h.trip_durable_breaker();
        assert_eq!(h.reasons(), vec!["durable-append", "live-refresher"]);
        assert_eq!(h.status(), "degraded");
        h.set_live_restarting(false);
        assert_eq!(h.reasons(), vec!["durable-append"]);
        h.set_draining();
        assert_eq!(h.status(), "draining");
    }

    #[test]
    fn probe_slot_is_exclusive() {
        let h = HealthState::new();
        assert!(h.claim_probe());
        assert!(!h.claim_probe());
        h.release_probe();
        assert!(h.claim_probe());
    }
}

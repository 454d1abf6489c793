//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] bundles every reason a computation may be asked to
//! stop early — a wall-clock deadline, an external flag (client
//! disconnect, load shedding), or a deterministic test trip — behind one
//! cheap [`CancelToken::check`] call that kernels invoke at their natural
//! chunk boundaries:
//!
//! - the peel checks every [`crate::peel::PEEL_CANCEL_CHUNK`] items;
//! - And checks once per sweep, sequential and parallel alike;
//! - hierarchy materialization checks per union–find threshold batch.
//!
//! The overshoot past a tripped token is therefore bounded by one chunk
//! of the kernel that observes it, which the deadline-semantics tests
//! pin. A token is `Clone` (cheap: two `Option`s and two `Arc`s) so one
//! request-scoped token can be threaded through every stage it touches.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a [`CancelToken`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The external flag was raised (disconnect, shed, shutdown).
    Flag,
}

/// A tripped cancellation: the reason plus the stage that observed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the token tripped.
    pub reason: CancelReason,
    /// The kernel stage that observed the trip (e.g. `"peel drain"`).
    pub stage: &'static str,
}

impl Cancelled {
    /// The protocol-facing error string. Deadline trips keep the wire
    /// shape pinned since PR 6 (`deadline exceeded (<stage>)`); flag
    /// trips render distinctly so shed/disconnect aborts are tellable
    /// apart from deadline misses in logs and tests.
    pub fn message(&self) -> String {
        match self.reason {
            CancelReason::Deadline => format!("deadline exceeded ({})", self.stage),
            CancelReason::Flag => format!("request cancelled ({})", self.stage),
        }
    }
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message())
    }
}

impl From<Cancelled> for String {
    fn from(c: Cancelled) -> String {
        c.message()
    }
}

/// Request-scoped cancellation token threaded from the protocol layer
/// into the kernels. See the module docs for check-point granularity.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
    /// Deterministic test hook: trip on the Nth `check` call regardless
    /// of wall clock, so overshoot bounds can be asserted exactly.
    trip_after: Option<Arc<AtomicI64>>,
}

impl CancelToken {
    /// A token that never trips (the default for internal callers).
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A token tripping once `deadline` passes. `None` never trips.
    pub fn with_deadline(deadline: Option<Instant>) -> CancelToken {
        CancelToken { deadline, ..CancelToken::default() }
    }

    /// A token tripping when `flag` is raised (disconnect / shed).
    pub fn with_flag(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken { flag: Some(flag), ..CancelToken::default() }
    }

    /// Adds a deadline to this token (keeping the earlier of two).
    pub fn and_deadline(mut self, deadline: Option<Instant>) -> CancelToken {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// Adds an external flag to this token.
    pub fn and_flag(mut self, flag: Arc<AtomicBool>) -> CancelToken {
        self.flag = Some(flag);
        self
    }

    /// Test-only determinism: the token trips on its `n`th `check` call
    /// (1-based), counting across clones — all clones share the counter.
    pub fn tripping_after_checks(n: i64) -> CancelToken {
        CancelToken { trip_after: Some(Arc::new(AtomicI64::new(n))), ..CancelToken::default() }
    }

    /// Whether this token can ever trip. Kernels use this to skip the
    /// per-chunk branch entirely on the common uncancellable path.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.flag.is_some() || self.trip_after.is_some()
    }

    /// Whether the token has tripped, without consuming a test-hook
    /// count (used by workers that only need a cheap load).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if let Some(f) = &self.flag {
            if f.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(t) = &self.trip_after {
            if t.load(Ordering::Relaxed) <= 0 {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// The cancellation check kernels call at chunk boundaries. `stage`
    /// names the call site for the error message. Flag trips win over
    /// deadline trips (a dead connection needs no deadline excuse).
    #[inline]
    pub fn check(&self, stage: &'static str) -> Result<(), Cancelled> {
        if let Some(f) = &self.flag {
            if f.load(Ordering::Relaxed) {
                return Err(Cancelled { reason: CancelReason::Flag, stage });
            }
        }
        if let Some(t) = &self.trip_after {
            if t.fetch_sub(1, Ordering::Relaxed) <= 1 {
                return Err(Cancelled { reason: CancelReason::Flag, stage });
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Cancelled { reason: CancelReason::Deadline, stage });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        assert!(!t.is_armed());
        assert!(!t.is_cancelled());
        for _ in 0..1000 {
            assert!(t.check("anywhere").is_ok());
        }
    }

    #[test]
    fn expired_deadline_trips_with_pinned_message() {
        let t = CancelToken::with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(t.is_armed() && t.is_cancelled());
        let e = t.check("peel drain").unwrap_err();
        assert_eq!(e.reason, CancelReason::Deadline);
        assert_eq!(e.message(), "deadline exceeded (peel drain)");
        // A generous deadline does not trip.
        let t = CancelToken::with_deadline(Some(Instant::now() + Duration::from_secs(60)));
        assert!(t.check("peel drain").is_ok());
        // No deadline at all never trips.
        assert!(!CancelToken::with_deadline(None).is_armed());
    }

    #[test]
    fn flag_trips_all_clones_and_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(Arc::clone(&flag))
            .and_deadline(Some(Instant::now() - Duration::from_millis(1)));
        // Deadline already expired: reason is Deadline until the flag rises.
        assert_eq!(t.check("s").unwrap_err().reason, CancelReason::Deadline);
        flag.store(true, Ordering::Relaxed);
        let clone = t.clone();
        assert_eq!(clone.check("s").unwrap_err().reason, CancelReason::Flag);
        assert_eq!(clone.check("s").unwrap_err().message(), "request cancelled (s)");
    }

    #[test]
    fn and_deadline_keeps_the_earlier() {
        let near = Instant::now() - Duration::from_millis(1);
        let far = Instant::now() + Duration::from_secs(60);
        assert!(CancelToken::with_deadline(Some(far)).and_deadline(Some(near)).check("s").is_err());
        assert!(CancelToken::with_deadline(Some(near)).and_deadline(Some(far)).check("s").is_err());
        assert!(CancelToken::with_deadline(None).and_deadline(Some(far)).check("s").is_ok());
    }

    #[test]
    fn trip_after_counts_checks_deterministically() {
        let t = CancelToken::tripping_after_checks(3);
        assert!(t.check("a").is_ok());
        assert!(t.check("b").is_ok());
        let e = t.check("c").unwrap_err();
        assert_eq!(e.stage, "c");
        // Stays tripped forever after, including via is_cancelled.
        assert!(t.check("d").is_err());
        assert!(t.is_cancelled());
        // Clones share the counter: a clone of a fresh token advances it.
        let t = CancelToken::tripping_after_checks(2);
        let c = t.clone();
        assert!(c.check("x").is_ok());
        assert!(t.check("y").is_err());
    }
}

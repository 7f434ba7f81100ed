//! Cooperative cancellation for long-running searches.
//!
//! The greedy loops in this crate can run for a long time on large nets —
//! one LDRG iteration is a quadratic candidate sweep. A serving layer
//! (request deadlines, shutdown) needs a way to stop a search midway
//! without killing the thread. [`CancelToken`] is that mechanism: a cheap,
//! cloneable handle the search checks between candidate scores
//! ([`sweep_candidates`](crate::sweep_candidates) checks it once per
//! candidate), aborting with [`OracleError::Cancelled`](crate::OracleError)
//! as soon as it observes the token tripped.
//!
//! A token trips in either of two ways:
//!
//! - **explicitly**, when any clone calls [`CancelToken::cancel`], or
//! - **by deadline**, when the wall clock passes the token's
//!   [`Instant`] deadline ([`CancelToken::with_deadline`] /
//!   [`CancelToken::deadline_in`]).
//!
//! The default token ([`CancelToken::default`]) never trips and its check
//! is two `Option` tests — threading cancellation through the hot loops
//! costs nothing when it is unused.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error observed by a search when its [`CancelToken`] trips.
///
/// Carried by [`OracleError::Cancelled`](crate::OracleError::Cancelled);
/// callers that imposed a deadline can map it back to a timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the search was cancelled before it completed")
    }
}

impl std::error::Error for Cancelled {}

/// A cheap, cloneable cancellation handle.
///
/// Clones share the same underlying flag: cancelling any clone cancels
/// them all. See the module docs of `cancel.rs` for the two trip conditions.
///
/// # Examples
///
/// ```
/// use ntr_core::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// // Deadline tokens trip on their own once the clock passes.
/// let expired = CancelToken::deadline_in(Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    /// Shared explicit-cancel flag; `None` for the inert default token
    /// (then [`CancelToken::cancel`] is a no-op).
    flag: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline after which the token reads as cancelled.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that trips only when [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        Self {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A token that trips at `deadline` (or earlier via
    /// [`CancelToken::cancel`]).
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
        }
    }

    /// A token that trips `timeout` from now.
    #[must_use]
    pub fn deadline_in(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// The token's deadline, if it has one.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the deadline (`None` when the token has no
    /// deadline; [`Duration::ZERO`] once it has passed).
    ///
    /// This is the budget the resilience layer compares against its
    /// per-fidelity cost estimates when deciding whether a full-fidelity
    /// route still fits (see [`route_one`](crate::route_one)).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// A token sharing this token's explicit-cancel flag but with the
    /// deadline stripped.
    ///
    /// Used by the degradation floor: the cheapest fidelity rung must be
    /// allowed to serve even after the deadline has passed (that is the
    /// point of degrading), while still honoring an explicit
    /// [`CancelToken::cancel`] from shutdown.
    #[must_use]
    pub fn without_deadline(&self) -> CancelToken {
        Self {
            flag: self.flag.clone(),
            deadline: None,
        }
    }

    /// A token sharing this token's explicit-cancel flag with `deadline`
    /// attached (replacing any existing one).
    ///
    /// The serving layer uses this to give one request of a long-lived
    /// [`RoutingSession`](crate::RoutingSession) its own deadline while
    /// still honoring a session-wide [`CancelToken::cancel`] (close or
    /// eviction).
    #[must_use]
    pub fn with_deadline_from(&self, deadline: Instant) -> CancelToken {
        Self {
            flag: self.flag.clone(),
            deadline: Some(deadline),
        }
    }

    /// Trips the token (and every clone of it).
    ///
    /// A no-op on the inert [`CancelToken::default`] token, which has no
    /// shared flag — create tokens with [`CancelToken::new`] or the
    /// deadline constructors if you intend to cancel them.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has tripped (explicitly or by deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Acquire) {
                return true;
            }
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `Err(Cancelled)` once the token has tripped — the form the search
    /// loops use (`token.check()?`).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when [`CancelToken::is_cancelled`] is true.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Tokens compare equal when they share the same flag (or both are inert)
/// and the same deadline — so option structs holding a token keep a
/// meaningful `PartialEq`.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        let flags = match (&self.flag, &other.flag) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        flags && self.deadline == other.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_trips() {
        let t = CancelToken::default();
        assert!(!t.is_cancelled());
        t.cancel(); // documented no-op
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_trips_on_its_own() {
        let t = CancelToken::deadline_in(Duration::ZERO);
        assert!(t.is_cancelled());
        let far = CancelToken::deadline_in(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }

    #[test]
    fn remaining_tracks_the_deadline() {
        assert_eq!(CancelToken::new().remaining(), None);
        let t = CancelToken::deadline_in(Duration::from_secs(3600));
        let left = t.remaining().unwrap();
        assert!(left > Duration::from_secs(3599));
        let expired = CancelToken::deadline_in(Duration::ZERO);
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn without_deadline_keeps_the_flag_but_drops_the_clock() {
        let t = CancelToken::deadline_in(Duration::ZERO);
        assert!(t.is_cancelled());
        let floor = t.without_deadline();
        assert!(!floor.is_cancelled(), "deadline must not trip the floor");
        t.cancel();
        assert!(floor.is_cancelled(), "explicit cancel still propagates");
    }

    #[test]
    fn equality_is_identity_not_state() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(CancelToken::default(), CancelToken::default());
    }
}

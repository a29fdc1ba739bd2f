//! Round-robin arbitration.
//!
//! Every arbitration point in the router (the per-input-port v:1 first
//! stage, the per-output-port p:1 second stage(s), and VC allocation) uses a
//! rotating-priority round-robin arbiter: after a grant the pointer advances
//! past the winner, giving starvation freedom among persistent requesters.

use serde::{Deserialize, Serialize};

use crate::checkpoint::persist;

/// A rotating-priority round-robin arbiter over `n` requesters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RrArbiter {
    next: usize,
}

impl RrArbiter {
    /// Creates an arbiter with priority starting at requester 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants to the first index (searching from the rotating pointer) for
    /// which `eligible` returns true, advancing the pointer past the winner.
    ///
    /// Returns `None` when no requester is eligible (pointer unchanged).
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::router::arbiter::RrArbiter;
    /// let mut a = RrArbiter::new();
    /// assert_eq!(a.grant(3, |i| i != 1), Some(0));
    /// // Priority rotated past 0; index 1 is ineligible, so 2 wins next.
    /// assert_eq!(a.grant(3, |i| i != 1), Some(2));
    /// assert_eq!(a.grant(3, |_| false), None);
    /// ```
    pub fn grant<F: FnMut(usize) -> bool>(&mut self, n: usize, mut eligible: F) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let start = self.next % n;
        for k in 0..n {
            let i = (start + k) % n;
            if eligible(i) {
                self.next = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RrArbiter::grant`] but does not move the pointer; used to
    /// *peek* a nomination that a later pipeline stage may reject.
    pub fn peek<F: FnMut(usize) -> bool>(&self, n: usize, mut eligible: F) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let start = self.next % n;
        (0..n).map(|k| (start + k) % n).find(|&i| eligible(i))
    }

    /// Advances the pointer past `winner` (after a peeked nomination is
    /// committed).
    pub fn advance_past(&mut self, winner: usize, n: usize) {
        debug_assert!(n > 0 && winner < n);
        self.next = (winner + 1) % n;
    }
}

persist!(value RrArbiter { next });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_under_persistent_requests() {
        let mut a = RrArbiter::new();
        let mut wins = [0usize; 4];
        for _ in 0..400 {
            let w = a.grant(4, |_| true).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [100, 100, 100, 100]);
    }

    #[test]
    fn skips_ineligible() {
        let mut a = RrArbiter::new();
        for _ in 0..10 {
            let w = a.grant(4, |i| i % 2 == 1).unwrap();
            assert!(w % 2 == 1);
        }
    }

    #[test]
    fn empty_or_none() {
        let mut a = RrArbiter::new();
        assert_eq!(a.grant(0, |_| true), None);
        assert_eq!(a.grant(5, |_| false), None);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut a = RrArbiter::new();
        assert_eq!(a.peek(3, |_| true), Some(0));
        assert_eq!(a.peek(3, |_| true), Some(0));
        a.advance_past(0, 3);
        assert_eq!(a.peek(3, |_| true), Some(1));
    }
}

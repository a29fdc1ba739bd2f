//! Round-robin arbitration.
//!
//! Every arbitration point in the router (the per-input-port v:1 first
//! stage, the per-output-port p:1 second stage(s), VC allocation and the
//! injection VC pick) uses a rotating-priority round-robin arbiter: after
//! a grant the pointer advances past the winner, giving starvation freedom
//! among persistent requesters. Requests arrive as a bitmask (bit `i` set
//! when requester `i` bids), so a grant is a couple of bit operations
//! rather than a scan.

use serde::{Deserialize, Serialize};

use crate::checkpoint::persist;

/// Most requesters one arbiter serves: the width of a request mask.
const WIDTH: usize = u128::BITS as usize;

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

    /// Grants to the first requester in `requests` at or after the
    /// rotating pointer (wrapping), advancing the pointer past the winner.
    /// Bits at or above `n` are ignored.
    ///
    /// Returns `None` when no requester bids (pointer unchanged).
    ///
    /// # Panics
    /// Panics if `n` exceeds 128, the width of the request mask.
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::router::arbiter::RrArbiter;
    /// let mut a = RrArbiter::new();
    /// assert_eq!(a.grant(3, 0b101), Some(0));
    /// // Priority rotated past 0; index 1 does not bid, so 2 wins next.
    /// assert_eq!(a.grant(3, 0b101), Some(2));
    /// assert_eq!(a.grant(3, 0), None);
    /// ```
    pub fn grant(&mut self, n: usize, requests: u128) -> Option<usize> {
        let winner = self.peek(n, requests)?;
        self.advance_past(winner, n);
        Some(winner)
    }

    /// Like [`RrArbiter::grant`] but does not move the pointer; used to
    /// *peek* a nomination that a later pipeline stage may reject.
    ///
    /// # Panics
    /// Panics if `n` exceeds 128, the width of the request mask.
    pub fn peek(&self, n: usize, requests: u128) -> Option<usize> {
        assert!(
            n <= WIDTH,
            "{n} requesters exceed the {WIDTH}-bit request mask"
        );
        if n == 0 {
            return None;
        }
        let requests = requests & (u128::MAX >> (WIDTH - n));
        let at_or_after = requests & (u128::MAX << (self.next % n));
        let pick = if at_or_after != 0 {
            at_or_after
        } else {
            requests
        };
        (pick != 0).then(|| pick.trailing_zeros() as usize)
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
            let w = a.grant(4, 0b1111).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [100, 100, 100, 100]);
    }

    #[test]
    fn skips_ineligible() {
        let mut a = RrArbiter::new();
        for _ in 0..10 {
            let w = a.grant(4, 0b1010).unwrap();
            assert!(w % 2 == 1);
        }
    }

    #[test]
    fn empty_or_none() {
        let mut a = RrArbiter::new();
        assert_eq!(a.grant(0, u128::MAX), None);
        assert_eq!(a.grant(5, 0), None);
        // Bits at or above `n` never win.
        assert_eq!(a.grant(5, 1 << 5), None);
    }

    #[test]
    fn full_width_wraps() {
        let mut a = RrArbiter::new();
        a.advance_past(126, 128);
        assert_eq!(a.peek(128, 1 << 127 | 1), Some(127));
        a.advance_past(127, 128);
        assert_eq!(a.peek(128, 1 << 127 | 1), Some(0));
    }

    #[test]
    #[should_panic(expected = "exceed the 128-bit request mask")]
    fn more_requesters_than_mask_bits_panics() {
        RrArbiter::new().peek(129, 1);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut a = RrArbiter::new();
        assert_eq!(a.peek(3, 0b111), Some(0));
        assert_eq!(a.peek(3, 0b111), Some(0));
        a.advance_past(0, 3);
        assert_eq!(a.peek(3, 0b111), Some(1));
    }
}

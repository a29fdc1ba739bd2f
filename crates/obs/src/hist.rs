//! Log-bucketed histograms with exact, lossless shard merging.
//!
//! [`LogHistogram`] buckets samples by the position of their highest set
//! bit: bucket `i` covers the value range `[2^i, 2^(i+1) - 1]` (bucket 0
//! holds 0 and 1, bucket 1 holds 2–3, and so on). It is the one histogram
//! of the workspace: the engine's latency decomposition (`LatencyDist`)
//! and the epoch recorder hold it directly, and the registry exports it
//! unchanged. The layout keeps `record` branch-free and allocation-free (a
//! single `leading_zeros` plus an array increment), carries the exact sum
//! of the samples, and makes merging shards *exact*: bucket counts and sums
//! simply add, so a histogram built from `N` sweep shards is bit-identical
//! to one built single-threaded.
//!
//! The price is quantile resolution: [`LogHistogram::quantile_upper_bound`]
//! returns the top of the bucket containing the requested rank, which
//! overestimates the exact order statistic by at most 2× (precisely:
//! `max(q, 1) ≤ bound ≤ 2·max(q, 1) − 1` for any non-empty histogram). The
//! proptests in `tests/hist_props.rs` pin both the merge algebra and this
//! error bound.

use crate::json::Json;

/// Number of power-of-two buckets — enough for any `u64` sample.
pub const BUCKETS: usize = 64;

/// A mergeable log₂-bucketed histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: position of the highest set bit of
/// `value.max(1)`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.max(1).leading_zeros()) as usize - 1
}

/// Inclusive upper edge of bucket `i` (`2^(i+1) - 1`, saturating at the top
/// bucket).
#[inline]
fn bucket_hi(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Rebuilds a histogram from its stored parts: the bucket counts
    /// (trailing empty buckets may be omitted), the sample count and the
    /// sum. Returns `None` for more than [`BUCKETS`] buckets or a count
    /// that disagrees with the buckets, so decoders of outside bytes get a
    /// typed rejection instead of a panic or an inconsistent value.
    pub fn from_parts(buckets: &[u64], count: u64, sum: u64) -> Option<Self> {
        let mut h = Self::new();
        h.buckets.get_mut(..buckets.len())?.copy_from_slice(buckets);
        let total = buckets
            .iter()
            .try_fold(0u64, |acc, &b| acc.checked_add(b))?;
        (total == count).then_some(Self { count, sum, ..h })
    }

    /// Record one sample (zero lands in bucket 0).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold another shard into this one. Exact: bucket counts add, so the
    /// result is independent of how samples were split across shards.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `p`-quantile (`0.0 < p <= 1.0`): the inclusive
    /// top edge of the bucket containing the sample of rank
    /// `ceil(p · count)`. Returns 0 for an empty histogram.
    ///
    /// For the exact order statistic `q` of the same rank, the bound `b`
    /// satisfies `q <= b <= 2·q − 1` (buckets span one power of two).
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_hi(i);
            }
        }
        bucket_hi(BUCKETS - 1)
    }

    /// Raw bucket counts (bucket `i` covers `[2^i, 2^(i+1) - 1]`).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The JSON summary object
    /// `{"count":N,"sum":N,"mean":x,"p50":N,"p95":N,"p99":N}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::from(self.quantile_upper_bound(0.50))),
            ("p95", Json::from(self.quantile_upper_bound(0.95))),
            ("p99", Json::from(self.quantile_upper_bound(0.99))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_hi(3), 15);
        assert_eq!(bucket_hi(63), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1310);
        // rank ceil(0.5 * 8) = 4 -> sample 4 -> bucket 2 -> hi 7
        assert_eq!(h.quantile_upper_bound(0.5), 7);
        // rank 8 -> sample 1000 -> bucket 9 -> hi 1023
        assert_eq!(h.quantile_upper_bound(1.0), 1023);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_exact() {
        let samples = [1u64, 5, 9, 17, 33, 65, 129, 257];
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn from_parts_validates() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 6, 6, 300] {
            h.record(v);
        }
        assert_eq!(h.sum(), 313, "zero samples add nothing to the sum");
        let used = &h.buckets()[..9];
        assert_eq!(LogHistogram::from_parts(used, 5, 313).as_ref(), Some(&h));
        assert_eq!(
            LogHistogram::from_parts(h.buckets(), 5, 313).as_ref(),
            Some(&h)
        );
        assert_eq!(LogHistogram::from_parts(used, 4, 313), None);
        assert_eq!(LogHistogram::from_parts(&[0; BUCKETS + 1], 0, 0), None);
        assert_eq!(LogHistogram::from_parts(&[u64::MAX, 1], 0, 0), None);
    }

    #[test]
    fn json_summary_shape() {
        let mut h = LogHistogram::new();
        h.record(10);
        assert_eq!(
            h.to_json().to_string(),
            "{\"count\":1,\"sum\":10,\"mean\":10.0,\"p50\":15,\"p95\":15,\"p99\":15}"
        );
    }
}

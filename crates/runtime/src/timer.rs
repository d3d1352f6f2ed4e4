//! Monotonic timing helpers for latency accounting.
//!
//! The serving layer and the benches need two things the std clock does not
//! hand out directly: a cheap monotonic microsecond counter anchored at a
//! fixed origin (so timestamps taken on different threads are comparable),
//! and a fixed-footprint latency histogram that yields stable percentile
//! estimates without storing every sample.
//!
//! [`MicrosHistogram`] uses power-of-two buckets: sample `v` lands in bucket
//! `⌈log2(v+1)⌉`, so the histogram is 64 counters regardless of sample count
//! and recording is lock-free (plain `u64` adds under an external lock, or
//! one per thread merged later via [`MicrosHistogram::merge`]). Percentile
//! queries return the geometric midpoint of the bucket holding the requested
//! rank — an estimate with bounded relative error (< 2x), which is what a
//! `/stats` endpoint needs; exact latencies of individual requests are never
//! reconstructed.

use std::time::Instant;

/// A monotonic clock anchored at its creation instant. All readings are
/// microseconds since that origin, so readings taken by different threads
/// sharing one `Monotonic` are directly comparable.
#[derive(Clone, Copy, Debug)]
pub struct Monotonic {
    origin: Instant,
}

impl Monotonic {
    /// Anchors a new clock at "now".
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the anchor.
    pub fn micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Nanoseconds elapsed since the anchor — for intervals too short for
    /// the microsecond reading (e.g. a hot-swap flip).
    pub fn nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds elapsed since the anchor.
    pub fn seconds(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl Default for Monotonic {
    fn default() -> Self {
        Self::start()
    }
}

/// Number of power-of-two buckets: enough for any `u64` microsecond value.
const BUCKETS: usize = 65;

/// Fixed-footprint latency histogram over microsecond samples.
#[derive(Clone, Debug)]
pub struct MicrosHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for MicrosHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl MicrosHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn bucket(us: u64) -> usize {
        // Bucket b covers [2^(b-1), 2^b - 1] for b >= 1; bucket 0 is {0}.
        (64 - us.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram (e.g. a per-thread shard) into this one.
    pub fn merge(&mut self, other: &MicrosHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Estimated `p`-th percentile (`0.0 < p <= 100.0`) in microseconds: the
    /// geometric midpoint of the bucket containing the sample of that rank.
    /// Returns 0 when the histogram is empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if b == 0 {
                    return 0;
                }
                let lo = 1u64 << (b - 1);
                let hi = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                // Geometric midpoint, clamped to the true max so the top
                // bucket never reports past the largest observed sample.
                let mid = ((lo as f64) * (hi as f64)).sqrt().round() as u64;
                return mid.min(self.max_us).max(lo.min(self.max_us));
            }
        }
        self.max_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_is_nondecreasing() {
        let m = Monotonic::start();
        let a = m.micros();
        let b = m.micros();
        assert!(b >= a);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = MicrosHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_us(50.0), 0);
        assert_eq!(h.percentile_us(99.0), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(MicrosHistogram::bucket(0), 0);
        assert_eq!(MicrosHistogram::bucket(1), 1);
        assert_eq!(MicrosHistogram::bucket(2), 2);
        assert_eq!(MicrosHistogram::bucket(3), 2);
        assert_eq!(MicrosHistogram::bucket(4), 3);
        assert_eq!(MicrosHistogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn percentile_has_bounded_relative_error() {
        let mut h = MicrosHistogram::new();
        for us in 1..=1000u64 {
            h.record(us);
        }
        let p50 = h.percentile_us(50.0);
        let p99 = h.percentile_us(99.0);
        // True p50 = 500, p99 = 990; log2 buckets bound the error by 2x.
        assert!((250..=1000).contains(&p50), "p50 estimate {p50}");
        assert!((495..=1000).contains(&p99), "p99 estimate {p99}");
        assert!(p99 >= p50);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_us(), 1000);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut a = MicrosHistogram::new();
        let mut b = MicrosHistogram::new();
        let mut whole = MicrosHistogram::new();
        for us in [0u64, 3, 17, 400, 12_345, 7] {
            whole.record(us);
            if us % 2 == 0 {
                a.record(us);
            } else {
                b.record(us);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean_us(), whole.mean_us());
        assert_eq!(a.max_us(), whole.max_us());
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile_us(p), whole.percentile_us(p));
        }
    }
}

//! Order statistics over per-query latencies, plus the FNV-1a digest the
//! oracles use to compare serialized outputs.

use std::time::Duration;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Latency summary of one run: the median and the highest percentile
/// with at least [`TAIL_BEYOND`] samples beyond it. That percentile is
/// the sample's own rank, not a step of a fixed ladder, so the tail moves
/// smoothly with the sample count instead of jumping between ladder steps.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest-rank p50) in milliseconds.
    pub p50_ms: f64,
    /// Tail percentile in milliseconds.
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_pct: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub tail_beyond: usize,
}

/// Nearest-rank percentile of an ascending slice (`pct` in `(0, 100]`).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the two middle values for
/// an even count).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarizes per-query latencies.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn summarize(latencies: &[Duration]) -> LatencySummary {
    let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    // The rank with exactly `TAIL_BEYOND` samples beyond it, but never
    // below the median's.
    let rank = n.saturating_sub(TAIL_BEYOND).max(n.div_ceil(2)).max(1);
    LatencySummary {
        n,
        p50_ms: nearest_rank(&ms, 50.0),
        tail_ms: ms[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
        tail_beyond: n - rank,
    }
}

/// 64-bit FNV-1a over a byte stream (the digest repeated-query and
/// traced-path oracles compare).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one line (bytes plus a newline separator).
    pub fn line(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_rank_with_ten_beyond() {
        let lat: Vec<Duration> = (1..=200).map(Duration::from_millis).collect();
        let s = summarize(&lat);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail_beyond, 10);
        assert_eq!(s.tail_ms, 190.0);
        let s = summarize(&lat[..150]);
        assert_eq!((s.tail_ms, s.tail_beyond), (140.0, 10));
        let few: Vec<Duration> = (1..=5).map(Duration::from_millis).collect();
        let s = summarize(&few);
        assert_eq!((s.tail_pct, s.tail_ms, s.tail_beyond), (60.0, 3.0, 2));
    }

    #[test]
    fn median_of_even_sample_averages_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

//! Exact order statistics over raw nanosecond samples, and the digest
//! the output checks compare.
//!
//! Latencies are kept as individual `u64` nanosecond samples and
//! quantiles are read off the sorted samples, so a change of any size
//! shows — unlike a log2 bucket histogram, whose 2× buckets hide every
//! gain smaller than 2×.

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the
/// smallest sample with at least `q · n` samples at or below it.
/// `None` when there are no samples.
#[must_use]
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over samples that are already sorted ascending.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Samples strictly beyond the nearest-rank `q`-quantile position —
/// the count a tail percentile rests on.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// The median of a list of floats (mean of the middle pair for even
/// lengths); 0 for an empty list.
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A 64-bit FNV-1a digest, fed line by line; each line is terminated
/// so `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds one line.
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest of `text` as a single line.
    #[must_use]
    pub fn of(text: &str) -> u64 {
        let mut d = Digest::default();
        d.line(text);
        d.value()
    }

    /// The current value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&samples, 0.5), Some(50));
        assert_eq!(quantile(&samples, 0.9), Some(90));
        assert_eq!(quantile(&samples, 0.99), Some(99));
        assert_eq!(quantile(&samples, 1.0), Some(100));
        assert_eq!(quantile(&samples, 0.001), Some(1));
        assert_eq!(quantile(&[7], 0.5), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        // A 10 % change in one sample moves the quantile that rests on
        // it by exactly that much: no bucketing.
        let mut moved = samples.clone();
        moved[50] = 55; // the sample 50 becomes 55
        assert_eq!(quantile(&moved, 0.5), Some(51));
        assert_eq!(quantile(&[1000, 1100, 1210], 0.5), Some(1100));
    }

    #[test]
    fn tail_counts_what_lies_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(120, 0.9), 12);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn median_of_floats() {
        assert!((median_f64(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median_f64(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(median_f64(&[]).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_lines_and_is_stable() {
        let mut a = Digest::default();
        a.line("ab");
        a.line("c");
        let mut b = Digest::default();
        b.line("a");
        b.line("bc");
        assert_ne!(a, b);
        // FNV-1a 64 of "a\n" — pinned so the function cannot drift.
        assert_eq!(Digest::of("a"), 0x089B_DC07_B544_E7B2);
        assert_eq!(Digest::of("x"), Digest::of("x"));
        assert_ne!(Digest::of("x"), Digest::of("y"));
    }
}

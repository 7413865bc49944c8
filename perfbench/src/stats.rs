//! Summary statistics: percentiles, the tail-percentile rule, and a
//! compact log-bucketed histogram for span durations.

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: u64, p: f64) -> u64 {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: u64, p: f64) -> u64 {
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has too few (`n < 100`).
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// The nearest-rank `p`-th percentile of `values`; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len() as u64, p) as usize - 1]
}

/// Sub-buckets per power of two: a bucket's width is at most 1/64 of its
/// lower bound, so a reported percentile is within 1/128 of a sample value.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;

/// Histogram of nanosecond durations with bounded relative error.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = e - SUB_BITS;
    let m = (v >> shift) & (SUB - 1);
    (SUB + u64::from(shift) * SUB + m) as usize
}

/// The midpoint of bucket `b`'s value range.
fn bucket_value(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let shift = (b - SUB) / SUB;
    let m = (b - SUB) % SUB;
    let lo = (SUB + m) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
        self.sum += v;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The nearest-rank `p`-th percentile (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let want = rank(self.n, p);
        let mut cum = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= want {
                return bucket_value(b);
            }
        }
        unreachable!("ranks are bounded by the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None); // p90 leaves 9 beyond
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0)); // p99 leaves 9
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(30_000), Some(99.9)); // 30 beyond
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [100u64, 1_000, 5_432, 30_000, 1_000_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ranks() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        let mut x = 17u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 50 + (x >> 40) % 200_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        assert_eq!(h.count(), 20_000);
        assert_eq!(h.sum(), exact.iter().sum::<u64>());
        for p in [50.0, 90.0, 99.0, 99.9] {
            let want = exact[rank(20_000, p) as usize - 1] as f64;
            let got = h.percentile(p);
            assert!((got - want).abs() <= want / 64.0, "p{p}: {got} vs {want}");
        }
        let mut small = Hist::default();
        for v in [3, 1, 2] {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), 2.0);
        assert_eq!(Hist::default().percentile(50.0), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 90.0), 18.0);
        assert_eq!(quantile(&v, 50.0), 10.0);
        assert_eq!(quantile(&[5.0], 90.0), 5.0);
        assert_eq!(quantile(&[], 90.0), 0.0);
    }
}

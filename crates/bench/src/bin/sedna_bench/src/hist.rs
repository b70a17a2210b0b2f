//! Log-bucket histogram and the median-of-windows reducer.
//!
//! Latencies are recorded in nanoseconds into 64 linear sub-buckets per
//! power of two (bucket width ≤ 1.6% of the value), so a run of a million
//! ops costs 30 KB per histogram instead of a per-op vector. Quantiles
//! interpolate inside the bucket, so two runs never read exactly the same.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Exponents 6..=63 each take `SUB` buckets after the `SUB` exact ones.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-size histogram of `u64` samples.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Lowest value and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((SUB + idx % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0 < q ≤ 1), interpolated inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q * self.n as f64).ceil().clamp(1.0, self.n as f64);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (low, width) = bucket_range(idx);
                let within = (rank - before as f64 - 0.5) / c as f64;
                return (low as f64 + width as f64 * within).min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// `a / b`, or 0 when `b` is 0 — every reported ratio goes through here so
/// an empty window can never print `NaN` into the result line.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 when empty. The gated numbers are the median of the sub-windows, so
/// one window hit by a noisy neighbour does not move the result.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2] + v[(v.len() - 1) / 2]) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_u64() {
        let mut expect_low = 0u64;
        for idx in 0..BUCKETS {
            let (low, width) = bucket_range(idx);
            assert_eq!(low, expect_low, "bucket {idx}");
            assert_eq!(bucket_of(low), idx);
            assert_eq!(bucket_of(low + (width - 1)), idx);
            expect_low = low.wrapping_add(width);
        }
        assert_eq!(expect_low, 0, "last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp_are_within_bucket_error() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 100_000);
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.016,
                "q{q}: got {got}, want {want}"
            );
        }
        assert_eq!(h.quantile(1.0), 100_000.0);
        assert_eq!(h.sum(), 100_000 * 100_001 / 2);
    }

    #[test]
    fn quantile_of_small_exact_values_and_empty() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [3, 3, 3, 9] {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 3.5).abs() < 0.01);
        assert_eq!(h.quantile(1.0), 9.0);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(1_000);
        b.record(2_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 3_010);
        assert_eq!(a.max(), 2_000);
    }

    #[test]
    fn median_of_windows_ignores_one_outlier() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((median(&[50.0, 51.0, 49.0, 50.5, 12.0, 50.2]) - 50.1).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ratio_never_yields_nan() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}

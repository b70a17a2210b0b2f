//! Workload generators for the Sedna evaluation.
//!
//! The paper's load (Sec. VI-A): "all the Key-Value pair has a 20 bytes key
//! which was generated randomly like 'test-00000000000000', and has a 20
//! bytes value which was a constant value." [`PaperWorkload`] reproduces
//! that exactly; [`KeyChooser`] adds uniform and zipfian access patterns
//! (for skew ablations); [`tweets`] synthesizes the micro-blogging stream
//! that drives the Sec. V realtime-search use case.

pub mod tweets;

use sedna_common::rng::Xoshiro256;
use sedna_common::{Key, Value};

/// The paper's 20-byte-key / 20-byte-constant-value workload.
#[derive(Clone, Debug)]
pub struct PaperWorkload {
    value: Value,
}

impl Default for PaperWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl PaperWorkload {
    /// Creates the workload.
    pub fn new() -> Self {
        PaperWorkload {
            value: Value::from_bytes(vec![b'x'; 20]),
        }
    }

    /// Key number `i`: `test-` + 15 digits = 20 bytes.
    pub fn key(&self, i: u64) -> Key {
        Key::from(format!("test-{i:015}"))
    }

    /// The constant 20-byte value.
    pub fn value(&self) -> Value {
        self.value.clone()
    }
}

/// Key-index chooser: which key an operation touches.
#[derive(Clone, Debug)]
pub enum KeyChooser {
    /// Sequential 0..n then wraps (the paper's load pattern).
    Sequential {
        /// Key-space size.
        n: u64,
    },
    /// Uniform random over 0..n.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipfian over 0..n with exponent `theta` (hot-key skew).
    Zipfian {
        /// Key-space size.
        n: u64,
        /// Skew exponent (0 = uniform-ish, 0.99 = classic YCSB skew).
        theta: f64,
        /// Precomputed normalization constant.
        zeta: f64,
    },
}

impl KeyChooser {
    /// Builds a zipfian chooser (precomputes the harmonic normalizer).
    pub fn zipfian(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        let zeta = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        KeyChooser::Zipfian { n, theta, zeta }
    }

    /// Picks the key index for operation number `op`.
    pub fn pick(&self, op: u64, rng: &mut Xoshiro256) -> u64 {
        match self {
            KeyChooser::Sequential { n } => op % n,
            KeyChooser::Uniform { n } => rng.next_below(*n),
            KeyChooser::Zipfian { n, theta, zeta } => {
                let u = rng.next_f64();
                // Exact inversion for small spaces. Large ones invert the
                // CDF of the continuous density x^-theta over [1/2, n+1/2],
                // rank k taking [k-1/2, k+1/2): at n = 100k, theta = 0.99
                // rank 1 gets 8.5% (exact 7.8%) and the top 100 ranks 42.0%
                // (exact 41.4%). Over [1, n+1] rank 1 would get only 5.7%.
                if *n <= 4_096 {
                    let mut sum = 0.0;
                    for i in 1..=*n {
                        sum += 1.0 / (i as f64).powf(*theta) / zeta;
                        if u <= sum {
                            return i - 1;
                        }
                    }
                    n - 1
                } else {
                    let (lo, hi) = (0.5, *n as f64 + 0.5);
                    let s = 1.0 - theta;
                    let x = if s.abs() < 1e-9 {
                        lo * (hi / lo).powf(u)
                    } else {
                        let (a, b) = (lo.powf(s), hi.powf(s));
                        (a + u * (b - a)).powf(1.0 / s)
                    };
                    // Rank `round(x)`, 1-based.
                    ((x + 0.5) as u64).clamp(1, *n) - 1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_keys_are_20_bytes_and_unique() {
        let w = PaperWorkload::new();
        let k0 = w.key(0);
        assert_eq!(k0.len(), 20);
        assert_eq!(k0.as_bytes(), b"test-000000000000000");
        assert_eq!(w.key(123_456).len(), 20);
        assert_ne!(w.key(1), w.key(2));
        assert_eq!(w.value().len(), 20);
    }

    #[test]
    fn sequential_chooser_wraps() {
        let c = KeyChooser::Sequential { n: 10 };
        let mut rng = Xoshiro256::seeded(1);
        assert_eq!(c.pick(3, &mut rng), 3);
        assert_eq!(c.pick(13, &mut rng), 3);
    }

    #[test]
    fn uniform_chooser_in_range_and_covering() {
        let c = KeyChooser::Uniform { n: 8 };
        let mut rng = Xoshiro256::seeded(2);
        let mut seen = [false; 8];
        for op in 0..1_000 {
            let k = c.pick(op, &mut rng);
            assert!(k < 8);
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipfian_is_skewed_toward_low_indices() {
        let c = KeyChooser::zipfian(1_000, 0.99);
        let mut rng = Xoshiro256::seeded(3);
        let mut hot = 0;
        let total = 20_000;
        for op in 0..total {
            if c.pick(op, &mut rng) < 10 {
                hot += 1;
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.25,
            "hot share {}",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn zipfian_large_n_matches_the_exact_head() {
        let (n, theta) = (100_000, 0.99);
        let c = KeyChooser::zipfian(n, theta);
        let harmonic = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let exact_first = 1.0 / harmonic(n);
        let exact_top100 = harmonic(100) / harmonic(n);
        let mut rng = Xoshiro256::seeded(5);
        let (mut first, mut top100) = (0u64, 0u64);
        let total = 200_000;
        for op in 0..total {
            let k = c.pick(op, &mut rng);
            assert!(k < n);
            first += u64::from(k == 0);
            top100 += u64::from(k < 100);
        }
        let share = |hits: u64| hits as f64 / total as f64;
        assert!(
            (share(first) - exact_first).abs() <= 0.015,
            "key 0: {:.4} against exact {exact_first:.4}",
            share(first)
        );
        assert!(
            (share(top100) - exact_top100).abs() <= 0.015,
            "top 100: {:.4} against exact {exact_top100:.4}",
            share(top100)
        );
    }

    #[test]
    fn zipfian_large_n_approximation_in_range() {
        let c = KeyChooser::zipfian(1_000_000, 0.8);
        let mut rng = Xoshiro256::seeded(4);
        for op in 0..10_000 {
            assert!(c.pick(op, &mut rng) < 1_000_000);
        }
    }
}

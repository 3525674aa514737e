//! The benchmark's own quantile recorder: a log-linear histogram.
//!
//! Values below 128 get one bucket each; above that every power of two
//! is split into 128 equal sub-buckets, so a bucket is at most 1/128 of
//! its lower edge wide. Reporting the bucket midpoint bounds the
//! relative error of every quantile by 1/256 (0.4%), well inside the 1%
//! the benchmark promises. Recording is allocation-free after
//! construction and costs one `leading_zeros`.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: shifts 0..=56 cover all of `u64`.
const BUCKETS: usize = SUB + 57 * SUB;

/// A quantile recorder over `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct Quantiles {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

/// One reported quantile and the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The quantile's value (bucket midpoint, clamped to the maximum).
    pub value: u64,
    /// Samples recorded in total.
    pub samples: u64,
    /// Samples strictly above the quantile's rank.
    pub beyond: u64,
}

impl Default for Quantiles {
    fn default() -> Self {
        Self::new()
    }
}

impl Quantiles {
    pub fn new() -> Self {
        Quantiles { counts: vec![0; BUCKETS], n: 0, max: 0 }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        SUB + shift as usize * SUB + ((v >> shift) as usize - SUB)
    }

    /// The midpoint of bucket `i`.
    fn representative(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let shift = ((i - SUB) / SUB) as u32;
        let low = ((SUB + (i - SUB) % SUB) as u64) << shift;
        low + ((1u64 << shift) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Quantiles) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (nearest rank), or zeros when empty.
    pub fn quantile(&self, q: f64) -> Quantile {
        if self.n == 0 {
            return Quantile { value: 0, samples: 0, beyond: 0 };
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let value = Self::representative(i).min(self.max);
                return Quantile { value, samples: self.n, beyond: self.n - rank };
            }
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_below_one_percent() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let mut q = Quantiles::new();
            q.record(v);
            q.record(v + 1); // keeps `max` from clamping the estimate
            let got = q.quantile(0.5).value;
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 256.0 + 1e-12, "v={v} got={got} err={err}");
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut q = Quantiles::new();
        for v in 1..=1000u64 {
            q.record(v * 1000);
        }
        let p50 = q.quantile(0.5);
        assert!((p50.value as f64 / 500_000.0 - 1.0).abs() < 0.01);
        assert_eq!(p50.beyond, 500);
        let p99 = q.quantile(0.99);
        assert!((p99.value as f64 / 990_000.0 - 1.0).abs() < 0.01);
        assert_eq!(p99.beyond, 10);
        assert_eq!(q.quantile(1.0).value, 1_000_000);
    }
}

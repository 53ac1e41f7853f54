//! Exact order statistics over raw per-operation samples.
//!
//! Every reported latency is computed here from the full list of samples
//! the run recorded — never from `ridl_obs::hist`, whose power-of-two
//! buckets report a bucket edge instead of a measured value.

/// Raw samples in nanoseconds, one per operation.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

/// One quantile of a sample set, with the counts that say how much the
/// sample supports it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quantile {
    /// The quantile's value in nanoseconds.
    pub ns: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the quantile's value.
    pub beyond: usize,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated linearly between the two
    /// closest ranks of the sorted samples (the "type 7" definition that
    /// numpy and R use by default). `None` without samples.
    pub fn quantile(&mut self, q: f64) -> Option<Quantile> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.0.is_empty() {
            return None;
        }
        self.0.sort_unstable();
        let s = &self.0;
        let h = (s.len() - 1) as f64 * q;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(s.len() - 1);
        let ns = s[lo] as f64 + (h - lo as f64) * (s[hi] as f64 - s[lo] as f64);
        let beyond = s.len() - s.partition_point(|&v| v as f64 <= ns);
        Some(Quantile {
            ns,
            n: s.len(),
            beyond,
        })
    }

    /// The median in milliseconds, or `None` without samples.
    pub fn median_ms(&mut self) -> Option<f64> {
        self.quantile(0.5).map(|q| q.ns / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[u64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn quantiles_of_a_known_vector() {
        // 1..=100 in scrambled order: the type-7 quantiles are exact
        // rational numbers, so they can be compared exactly.
        let v: Vec<u64> = (0..100u64).map(|i| (i * 37) % 100 + 1).collect();
        let mut s = samples(&v);
        let q = |s: &mut Samples, p| s.quantile(p).unwrap();
        assert_eq!(q(&mut s, 0.0).ns, 1.0);
        assert_eq!(q(&mut s, 1.0).ns, 100.0);
        assert_eq!(q(&mut s, 0.5).ns, 50.5);
        assert!((q(&mut s, 0.9).ns - 90.1).abs() < 1e-9);
        assert!((q(&mut s, 0.99).ns - 99.01).abs() < 1e-9);
        let p50 = q(&mut s, 0.5);
        assert_eq!((p50.n, p50.beyond), (100, 50));
        let p99 = q(&mut s, 0.99);
        assert_eq!(p99.beyond, 1);
    }

    #[test]
    fn small_and_empty_sets() {
        let mut s = samples(&[5, 1, 3]);
        assert_eq!(s.quantile(0.5).unwrap().ns, 3.0);
        assert_eq!(s.quantile(0.25).unwrap().ns, 2.0);
        assert_eq!(s.median_ms(), Some(3e-6));
        assert_eq!(Samples::default().quantile(0.5), None);
        let mut one = samples(&[7]);
        let q = one.quantile(0.99).unwrap();
        assert_eq!((q.ns, q.n, q.beyond), (7.0, 1, 0));
    }
}

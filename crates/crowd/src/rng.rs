//! Distribution samplers.
//!
//! The simulator needs Normal, Exponential, Poisson and Zipf draws. The
//! offline dependency set includes `rand` but not `rand_distr`, so the
//! handful of samplers required are implemented here with classic
//! algorithms (Box–Muller, inversion, Knuth, and a power-law inversion
//! for Zipf) and verified by moment tests.

use rand::{Rng, RngExt};

/// Standard normal draw via Box–Muller (polar-free form; two uniforms).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal draw with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Exponential draw with the given rate (mean `1/rate`) by inversion.
///
/// # Panics
/// Panics if `rate <= 0`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive, got {rate}");
    let u: f64 = rng.random::<f64>().max(1e-300);
    -u.ln() / rate
}

/// Poisson draw.
///
/// Knuth's multiplication method for small `lambda`; for large `lambda`
/// a rounded normal approximation (error negligible at the scales the
/// simulator uses it for — arrival counts per interval).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u64
    }
}

/// Precomputed Zipf sampler: `P(k) ∝ k^(−s)` for `k ∈ 1..=n`, drawn by
/// inversion over the CDF built once in [`Self::new`].
///
/// Used for per-worker session lengths: the paper observes "the number
/// of tasks completed by each worker is roughly Zipfian, with a small
/// number of workers completing a large fraction of the work" (§3.3.3).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i as u64 + 1,
            Err(i) => (i as u64 + 1).min(self.cdf.len() as u64),
        }
    }
}

/// Sample `k` distinct indices from `0..n` (Floyd's algorithm). Order is
/// not specified but deterministic for a given RNG state.
pub fn sample_distinct<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        let v = if chosen.contains(&t) { j } else { t };
        chosen.insert(v);
        out.push(v);
    }
    out
}

/// Fisher–Yates shuffle.
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn exponential_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut r = rng();
        let xs: Vec<u64> = (0..20_000).map(|_| poisson(&mut r, 4.0)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut r = rng();
        let xs: Vec<u64> = (0..5_000).map(|_| poisson(&mut r, 200.0)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!((mean - 200.0).abs() < 1.5, "mean={mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        assert_eq!(poisson(&mut rng(), 0.0), 0);
    }

    #[test]
    fn zipf_is_heavy_headed() {
        let mut r = rng();
        let sampler = ZipfSampler::new(100, 1.2);
        let xs: Vec<u64> = (0..20_000).map(|_| sampler.sample(&mut r)).collect();
        let ones = xs.iter().filter(|&&x| x == 1).count() as f64 / xs.len() as f64;
        let tens = xs.iter().filter(|&&x| x == 10).count() as f64 / xs.len() as f64;
        // P(1)/P(10) = 10^1.2 ~ 15.8
        assert!(ones > 5.0 * tens, "ones={ones} tens={tens}");
        assert!(xs.iter().all(|&x| (1..=100).contains(&x)));
    }

    #[test]
    fn sample_distinct_no_duplicates() {
        let mut r = rng();
        for _ in 0..100 {
            let s = sample_distinct(&mut r, 20, 10);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(s.iter().all(|&x| x < 20));
        }
    }

    #[test]
    fn sample_distinct_k_clamped_to_n() {
        let mut r = rng();
        let s = sample_distinct(&mut r, 3, 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut xs: Vec<u32> = (0..50).collect();
        shuffle(&mut r, &mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_under_same_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(poisson(&mut a, 5.0), poisson(&mut b, 5.0));
        }
    }
}

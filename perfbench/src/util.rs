//! Small helpers: the seeded generator, order statistics, process memory.

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median wall seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seconds [`reference_secs`] reads on the reference host (a 2-vCPU
/// Xeon VM at 2.0 GHz) when its neighbours are quiet.
pub const REFERENCE_WORK_S: f64 = 0.00066;

/// Wall seconds of a fixed piece of machine work that owes nothing to
/// the engine (hash and sort 16k generated numbers), fastest of three.
///
/// On a shared host this process runs up to 1.7× slower for spells of
/// seconds to minutes, as neighbours load the physical cores, and every
/// in-process timing moves with it. The reference work slows with it
/// too, so a timing times `REFERENCE_WORK_S / reference_secs()` taken
/// next to it reads as if the host were quiet.
pub fn reference_secs() -> f64 {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut rng = SplitMix::new(0x5EED);
            let mut v: Vec<u64> = (0..16_384).map(|_| rng.next_u64()).collect();
            let mut counts = std::collections::HashMap::new();
            for x in &v {
                *counts.entry(x % 2048).or_insert(0u32) += 1;
            }
            v.sort_unstable();
            std::hint::black_box((v, counts));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `None` for this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix::new(9), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix::new(9), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix::new(10).next_u64());
    }
}

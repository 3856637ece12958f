//! Percentiles, medians and the seeded generator every input set is
//! drawn from.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the tail is a handful of outliers, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// The smallest run whose p90 satisfies [`MIN_BEYOND`].
pub const MIN_OPS_FOR_P90: usize = 100;

/// SplitMix64: small, well mixed and stable across platforms, so a
/// `--seed` names the same input set everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Index of the nearest-rank `p`-quantile (`0 < p <= 1`) among `n`
/// sorted samples: the smallest sample with at least `p·n` samples at
/// or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `p`-quantile of ascending `sorted` samples, with the
/// number of samples beyond it; `None` when there are no samples.
pub fn quantile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), p);
    Some((sorted[r], sorted.len() - 1 - r))
}

/// The reported p90: refused when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn p90(sorted: &[f64]) -> Result<f64, String> {
    match quantile(sorted, 0.9) {
        Some((v, beyond)) if beyond >= MIN_BEYOND => Ok(v),
        Some((_, beyond)) => Err(format!(
            "p90 refused: {beyond} of {} samples lie beyond it, {MIN_BEYOND} needed",
            sorted.len()
        )),
        None => Err("p90 refused: no samples".to_string()),
    }
}

/// Nearest-rank median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5).map_or(0.0, |(m, _)| m)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process (MB), from the kernel's
/// high-water mark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_with_fewer_than_ten_beyond() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(p90(&ninety_nine).is_err(), "99 samples leave 9 beyond p90");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(p90(&hundred), Ok(89.0));
        assert_eq!(quantile(&hundred, 0.9), Some((89.0, 10)));
        assert!(p90(&[]).is_err());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}

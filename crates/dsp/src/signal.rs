//! Signal generators.
//!
//! Stimulus for the behavioral receiver chain and reference waveforms for
//! simulator tests: single tones, LO square waves, and white and 1/f
//! noise processes (Box–Muller over `rand`).

use rand::Rng;

/// Samples a single real tone `a·cos(2πft + φ)` at times `t = i/fs`.
pub fn tone(amplitude: f64, freq: f64, phase: f64, fs: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            amplitude * (2.0 * std::f64::consts::PI * freq * t + phase).cos()
        })
        .collect()
}

/// Ideal LO square wave at time `t`: returns ±1.
///
/// `phase` is in radians of the fundamental.
pub fn lo_square_at(freq: f64, phase: f64, t: f64) -> f64 {
    let x = (2.0 * std::f64::consts::PI * freq * t + phase).sin();
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// LO square wave with finite rise/fall transition expressed as a fraction
/// of the period (tanh-shaped edges) — models non-ideal switching.
pub fn lo_soft_square_at(freq: f64, phase: f64, transition: f64, t: f64) -> f64 {
    assert!(
        (0.0..0.5).contains(&transition),
        "transition fraction must be in [0, 0.5)"
    );
    let x = (2.0 * std::f64::consts::PI * freq * t + phase).sin();
    if transition == 0.0 {
        return if x >= 0.0 { 1.0 } else { -1.0 };
    }
    // Map the sine through a saturating tanh so edges take ~`transition`
    // of a period.
    let k = 1.0 / (std::f64::consts::PI * transition);
    (k * x).tanh()
}

/// A white Gaussian noise *process* sampled on demand — each call to
/// [`next_sample`](WhiteNoise::next_sample) returns an independent sample with the
/// variance appropriate for bandwidth `fs/2`.
///
/// For a two-sided PSD `S` (V²/Hz), the sample variance is `S·fs`
/// (one-sided `S₁ = 2S` integrated over `fs/2`).
#[derive(Debug)]
pub struct WhiteNoise<R> {
    sigma: f64,
    rng: R,
    cached: Option<f64>,
}

impl<R: Rng> WhiteNoise<R> {
    /// Creates a process with one-sided PSD `psd_one_sided` (V²/Hz)
    /// sampled at `fs`.
    pub fn from_psd(psd_one_sided: f64, fs: f64, rng: R) -> Self {
        assert!(psd_one_sided >= 0.0 && fs > 0.0);
        WhiteNoise {
            sigma: (psd_one_sided * fs / 2.0).sqrt(),
            rng,
            cached: None,
        }
    }

    /// Creates a process directly from the per-sample standard deviation.
    pub fn from_sigma(sigma: f64, rng: R) -> Self {
        WhiteNoise {
            sigma,
            rng,
            cached: None,
        }
    }

    /// Per-sample standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Next sample.
    pub fn next_sample(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(self.sigma * r * theta.sin());
        self.sigma * r * theta.cos()
    }
}

/// 1/f (flicker) noise generator: sums octave-spaced first-order filtered
/// white sources (the standard Voss/McCartney-style synthesis, filtered
/// variant). The output PSD follows `~1/f` between `f_min` and `fs/2`.
#[derive(Debug)]
pub struct FlickerNoise<R> {
    white: WhiteNoise<R>,
    states: Vec<f64>,
    alphas: Vec<f64>,
    gains: Vec<f64>,
}

impl<R: Rng> FlickerNoise<R> {
    /// Creates a generator whose one-sided PSD approximates
    /// `k_f / f` (V²/Hz) over `[f_min, fs/2]`.
    pub fn new(k_f: f64, f_min: f64, fs: f64, rng: R) -> Self {
        assert!(k_f >= 0.0 && f_min > 0.0 && fs > 2.0 * f_min);
        // Octave-spaced pole frequencies.
        let mut poles = Vec::new();
        let mut f = f_min;
        while f < fs / 2.0 {
            poles.push(f);
            f *= 2.0;
        }
        let n_oct = poles.len().max(1);
        // Each first-order section contributes a plateau below its pole;
        // equal weights give an approximate 1/f sum. Scale so that the PSD
        // at geometric mid-band matches k_f/f.
        let alphas: Vec<f64> = poles
            .iter()
            .map(|&fp| (-2.0 * std::f64::consts::PI * fp / fs).exp())
            .collect();
        // Per-section gain: section k has |H|² ≈ 1/(1-a)² DC gain; we weight
        // by sqrt(f_pole) to synthesize the 1/f slope.
        let gains: Vec<f64> = poles
            .iter()
            .zip(&alphas)
            .map(|(&fp, &a)| (1.0 - a) * (k_f / fp).sqrt())
            .collect();
        FlickerNoise {
            white: WhiteNoise::from_sigma((fs / 2.0f64).sqrt(), rng),
            states: vec![0.0; n_oct],
            alphas,
            gains,
        }
    }

    /// Next sample.
    pub fn next_sample(&mut self) -> f64 {
        let mut out = 0.0;
        for i in 0..self.states.len() {
            let w = self.white.next_sample();
            self.states[i] = self.alphas[i] * self.states[i] + self.gains[i] * w;
            out += self.states[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PI: f64 = std::f64::consts::PI;

    #[test]
    fn tone_samples_match_closed_form() {
        let x = tone(2.0, 10.0, PI / 4.0, 1000.0, 16);
        for (i, &v) in x.iter().enumerate() {
            let t = i as f64 / 1000.0;
            assert!((v - 2.0 * (2.0 * PI * 10.0 * t + PI / 4.0).cos()).abs() < 1e-12);
        }
    }

    #[test]
    fn lo_square_alternates() {
        let f = 1.0;
        assert_eq!(lo_square_at(f, 0.0, 0.25), 1.0);
        assert_eq!(lo_square_at(f, 0.0, 0.75), -1.0);
        // Fundamental component of a ±1 square is 4/π.
        let n = 4096;
        let fs = 64.0;
        let x: Vec<f64> = (0..n)
            .map(|i| lo_square_at(1.0, PI / 2.0, i as f64 / fs)) // cos-aligned
            .collect();
        let a1 = crate::tone::tone_amplitude(&x, 1.0, fs);
        assert!((a1 - 4.0 / PI).abs() < 0.01, "a1 = {a1}");
    }

    #[test]
    fn soft_square_limits() {
        // Near-zero transition approaches the hard square.
        let hard = lo_square_at(1.0, 0.0, 0.1);
        let soft = lo_soft_square_at(1.0, 0.0, 0.01, 0.1);
        assert!((hard - soft).abs() < 0.01);
        // Soft square stays within ±1.
        for i in 0..100 {
            let v = lo_soft_square_at(1.0, 0.0, 0.2, i as f64 * 0.01);
            assert!(v.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn white_noise_psd_calibration() {
        // one-sided PSD S => variance = S*fs/2.
        let fs = 1e6;
        let s = 4e-12;
        let mut wn = WhiteNoise::from_psd(s, fs, StdRng::seed_from_u64(2));
        let x: Vec<f64> = (0..100_000).map(|_| wn.next_sample()).collect();
        let var = remix_numerics::stats::variance(&x);
        let expected = s * fs / 2.0;
        assert!(
            (var - expected).abs() < 0.05 * expected,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn flicker_noise_slope() {
        use crate::psd::welch;
        use crate::window::Window;
        let fs = 1e5;
        let kf = 1e-6;
        let mut fl = FlickerNoise::new(kf, 1.0, fs, StdRng::seed_from_u64(3));
        let n = 1 << 17;
        let x: Vec<f64> = (0..n).map(|_| fl.next_sample()).collect();
        let psd = welch(&x, fs, 4096, Window::Hann);
        // Compare PSD at two decades: ratio should be ~10x (1/f).
        let p100 = psd.at(100.0);
        let p1000 = psd.at(1000.0);
        let slope = (p100 / p1000).log10();
        assert!(
            (0.6..1.4).contains(&slope),
            "slope exponent = {slope}, p100={p100:.3e} p1000={p1000:.3e}"
        );
    }

    #[test]
    fn white_noise_independent_samples() {
        let mut wn = WhiteNoise::from_sigma(1.0, StdRng::seed_from_u64(4));
        let x: Vec<f64> = (0..50_000).map(|_| wn.next_sample()).collect();
        // Lag-1 autocorrelation near zero.
        let mean = remix_numerics::stats::mean(&x);
        let var = remix_numerics::stats::variance(&x);
        let ac1: f64 = x
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / ((x.len() - 1) as f64 * var);
        assert!(ac1.abs() < 0.02, "lag-1 autocorr = {ac1}");
    }
}

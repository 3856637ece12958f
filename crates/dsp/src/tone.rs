//! Tone measurement: Goertzel single-bin DFT and coherent sampling plans.
//!
//! RF measurements read the power of *specific* tones (IF fundamental, IM3
//! products) out of a simulated waveform. Goertzel evaluates one DFT bin in
//! O(n) without a full FFT, and [`CoherentPlan`] chooses simulation
//! parameters so every tone of interest lands exactly on a bin (no leakage,
//! no windowing corrections).

use crate::fft::bin_frequency;

/// Goertzel algorithm: complex DFT coefficient at `k/n·fs`.
///
/// Returns the amplitude of the cosine component at the *exact* bin
/// frequency, i.e. `2·|X_k|/n` for interior bins — directly comparable to
/// the signal's peak amplitude when the tone is bin-centred.
pub fn goertzel_amplitude(signal: &[f64], k: usize, n: usize) -> f64 {
    assert!(k <= n / 2, "bin {k} beyond Nyquist for length {n}");
    assert!(signal.len() >= n, "signal shorter than requested length");
    let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in &signal[..n] {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let real = s_prev - s_prev2 * w.cos();
    let imag = s_prev2 * w.sin();
    let mag = (real * real + imag * imag).sqrt();
    if k == 0 || k == n / 2 {
        mag / n as f64
    } else {
        2.0 * mag / n as f64
    }
}

/// Amplitude of the nearest bin to frequency `f` at sample rate `fs`.
pub fn tone_amplitude(signal: &[f64], f: f64, fs: f64) -> f64 {
    let n = signal.len();
    let k = (f * n as f64 / fs).round() as usize;
    goertzel_amplitude(signal, k, n)
}

/// A coherent-sampling plan: an FFT length, sample rate, and per-tone bin
/// assignment such that every requested frequency is *exactly* a bin
/// frequency (integer number of cycles in the record).
///
/// # Examples
///
/// ```
/// use remix_dsp::tone::CoherentPlan;
///
/// // Resolve 5 MHz and 6 MHz tones in one record.
/// let plan = CoherentPlan::new(&[5e6, 6e6], 4096, 1e6).unwrap();
/// assert!(plan.fs > 2.0 * 6e6); // Nyquist satisfied
/// for (&f, &k) in [5e6, 6e6].iter().zip(&plan.bins) {
///     let fbin = k as f64 * plan.fs / plan.n as f64;
///     assert!((fbin - f).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoherentPlan {
    /// FFT record length (power of two).
    pub n: usize,
    /// Sample rate (Hz).
    pub fs: f64,
    /// Bin index of each requested tone, in input order.
    pub bins: Vec<usize>,
    /// Total simulated time for one record (s).
    pub duration: f64,
}

impl CoherentPlan {
    /// Builds a plan for the given tone frequencies.
    ///
    /// `n` is the FFT length (power of two); `f_res` is the desired
    /// frequency resolution — the plan snaps it so that all tones are
    /// integer multiples of the final resolution `fs/n`.
    ///
    /// The tones must be expressible as integer multiples of a common
    /// resolution; the plan uses `f_res` as that base and requires every
    /// tone to be within 1 ppm of an integer multiple.
    ///
    /// Returns `None` if a tone is not an integer multiple of `f_res`, or
    /// the required bin exceeds Nyquist (`n/2`).
    pub fn new(tones: &[f64], n: usize, f_res: f64) -> Option<Self> {
        assert!(crate::fft::is_power_of_two(n), "n must be a power of two");
        assert!(f_res > 0.0, "resolution must be positive");
        let fs = f_res * n as f64;
        let mut bins = Vec::with_capacity(tones.len());
        for &f in tones {
            let ratio = f / f_res;
            let k = ratio.round();
            if (ratio - k).abs() > 1e-6 * ratio.max(1.0) {
                return None;
            }
            let k = k as usize;
            if k > n / 2 {
                return None;
            }
            bins.push(k);
        }
        Some(CoherentPlan {
            n,
            fs,
            bins,
            duration: n as f64 / fs,
        })
    }

    /// Time of sample `i`.
    pub fn sample_time(&self, i: usize) -> f64 {
        i as f64 / self.fs
    }

    /// Frequency of plan bin `idx` (the `idx`-th requested tone).
    pub fn tone_frequency(&self, idx: usize) -> f64 {
        bin_frequency(self.bins[idx], self.fs, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    #[test]
    fn goertzel_matches_known_tone() {
        let n = 1024;
        let k0 = 37;
        let amp = 0.35;
        let x: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let a = goertzel_amplitude(&x, k0, n);
        assert!((a - amp).abs() < 1e-12, "a = {a}");
        // Off-bin reads ~0.
        assert!(goertzel_amplitude(&x, k0 + 5, n) < 1e-12);
    }

    #[test]
    fn goertzel_matches_fft() {
        use crate::fft::amplitude_spectrum;
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                0.5 * (2.0 * PI * 10.0 * t).cos() + 0.25 * (2.0 * PI * 30.0 * t).sin()
            })
            .collect();
        let spec = amplitude_spectrum(&x);
        for k in [10usize, 30, 50] {
            let g = goertzel_amplitude(&x, k, n);
            assert!((g - spec[k]).abs() < 1e-10, "bin {k}: {g} vs {}", spec[k]);
        }
    }

    #[test]
    fn goertzel_dc_and_nyquist() {
        let n = 64;
        let x = vec![1.0; n];
        assert!((goertzel_amplitude(&x, 0, n) - 1.0).abs() < 1e-12);
        let alt: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((goertzel_amplitude(&alt, n / 2, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tone_amplitude_rounds_to_bin() {
        let n = 256;
        let fs = 256.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 32.0 * i as f64 / fs).cos())
            .collect();
        // 32.2 Hz rounds to bin 32.
        assert!((tone_amplitude(&x, 32.2, fs) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn coherent_plan_two_tone() {
        // 5 & 6 MHz with 1 MHz... too coarse for IM3 at 4 MHz? Use 0.5 MHz.
        let plan = CoherentPlan::new(&[5e6, 6e6, 4e6, 7e6], 1 << 12, 0.5e6).unwrap();
        assert_eq!(plan.bins, vec![10, 12, 8, 14]);
        assert_eq!(plan.fs, 0.5e6 * 4096.0);
        for (i, &f) in [5e6, 6e6, 4e6, 7e6].iter().enumerate() {
            assert!((plan.tone_frequency(i) - f).abs() < 1.0);
        }
        assert!((plan.duration - 4096.0 / plan.fs).abs() < 1e-18);
    }

    #[test]
    fn coherent_plan_rejects_offgrid_tone() {
        assert!(CoherentPlan::new(&[5.3e6], 1024, 1e6).is_none());
    }

    #[test]
    fn coherent_plan_rejects_beyond_nyquist() {
        // bin would be 600 > 512.
        assert!(CoherentPlan::new(&[600e6], 1024, 1e6).is_none());
    }

    #[test]
    fn coherent_tone_has_no_leakage() {
        let plan = CoherentPlan::new(&[3e6], 1024, 1e6).unwrap();
        let f = plan.tone_frequency(0);
        let x: Vec<f64> = (0..plan.n)
            .map(|i| (2.0 * PI * f * plan.sample_time(i)).cos())
            .collect();
        assert!((goertzel_amplitude(&x, plan.bins[0], plan.n) - 1.0).abs() < 1e-10);
        assert!(goertzel_amplitude(&x, plan.bins[0] + 1, plan.n) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "beyond Nyquist")]
    fn goertzel_bin_bounds() {
        let _ = goertzel_amplitude(&[0.0; 8], 5, 8);
    }
}

//! Spectrum analysis convenience: a one-sided amplitude spectrum with
//! dBm conversion, peak search and the largest-tone listing.

use crate::fft::{amplitude_spectrum, bin_frequency};
use crate::units::{vpeak_to_dbm, Z0};
use crate::window::Window;

/// A one-sided amplitude spectrum of a real record.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Bin frequencies (Hz).
    pub freqs: Vec<f64>,
    /// Peak amplitudes per bin (V), window-corrected.
    pub amplitudes: Vec<f64>,
}

impl Spectrum {
    /// Computes the spectrum of `signal` at sample rate `fs` with the
    /// given window (amplitudes divided by the window's coherent gain).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or `fs <= 0`.
    pub fn analyze(signal: &[f64], fs: f64, window: Window) -> Self {
        assert!(fs > 0.0, "sample rate must be positive");
        let n = signal.len();
        let windowed = window.apply(signal);
        let cg = window.coherent_gain(n);
        let amps: Vec<f64> = amplitude_spectrum(&windowed)
            .into_iter()
            .map(|a| a / cg)
            .collect();
        let freqs: Vec<f64> = (0..amps.len()).map(|k| bin_frequency(k, fs, n)).collect();
        Spectrum {
            freqs,
            amplitudes: amps,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Amplitude of the bin nearest `f` (V).
    pub fn amplitude_at(&self, f: f64) -> f64 {
        let df = self.freqs.get(1).copied().unwrap_or(1.0);
        let k = (f / df).round() as usize;
        self.amplitudes.get(k).copied().unwrap_or(0.0)
    }

    /// Power of the bin nearest `f` in dBm (50 Ω).
    pub fn dbm_at(&self, f: f64) -> f64 {
        vpeak_to_dbm(self.amplitude_at(f).max(1e-30), Z0)
    }

    /// The largest bin excluding DC: `(freq, amplitude)`.
    pub fn peak(&self) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        for k in 1..self.len() {
            if self.amplitudes[k] > best.1 {
                best = (self.freqs[k], self.amplitudes[k]);
            }
        }
        best
    }

    /// The `count` largest bins (excluding DC), descending:
    /// `(freq, dBm)`.
    pub fn top_tones(&self, count: usize) -> Vec<(f64, f64)> {
        let mut idx: Vec<usize> = (1..self.len()).collect();
        idx.sort_by(|&a, &b| self.amplitudes[b].total_cmp(&self.amplitudes[a]));
        idx.into_iter()
            .take(count)
            .map(|k| {
                (
                    self.freqs[k],
                    vpeak_to_dbm(self.amplitudes[k].max(1e-30), Z0),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::tone;

    const PI: f64 = std::f64::consts::PI;

    fn tone_plus_harmonic(n: usize, fs: f64, f0: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * f0 * t).cos() + 0.01 * (2.0 * PI * 2.0 * f0 * t).cos()
            })
            .collect()
    }

    #[test]
    fn peak_and_amplitude() {
        let fs = 1024.0;
        let x = tone(0.5, 128.0, 0.0, fs, 1024);
        let s = Spectrum::analyze(&x, fs, Window::Rectangular);
        let (f, a) = s.peak();
        assert_eq!(f, 128.0);
        assert!((a - 0.5).abs() < 1e-9);
        assert!((s.amplitude_at(128.0) - 0.5).abs() < 1e-9);
        assert!((s.dbm_at(128.0) - vpeak_to_dbm(0.5, Z0)).abs() < 1e-9);
    }

    #[test]
    fn top_tones_sorted() {
        let fs = 4096.0;
        let x = tone_plus_harmonic(4096, fs, 256.0);
        let s = Spectrum::analyze(&x, fs, Window::Rectangular);
        let tt = s.top_tones(2);
        assert_eq!(tt[0].0, 256.0);
        assert_eq!(tt[1].0, 512.0);
        assert!(tt[0].1 > tt[1].1);
    }

    #[test]
    fn windowed_amplitude_recovery() {
        // Hann-windowed coherent tone recovers its amplitude after the
        // coherent-gain correction.
        let fs = 1024.0;
        let x = tone(0.25, 64.0, 0.0, fs, 1024);
        let s = Spectrum::analyze(&x, fs, Window::Hann);
        assert!(
            (s.amplitude_at(64.0) - 0.25).abs() < 0.01,
            "a = {}",
            s.amplitude_at(64.0)
        );
    }

    #[test]
    fn empty_handles() {
        let s = Spectrum {
            freqs: vec![],
            amplitudes: vec![],
        };
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}

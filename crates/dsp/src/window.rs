//! Window functions for spectral analysis.
//!
//! Two-tone tests use windows to suppress leakage when tones are not
//! exactly bin-centred; amplitude readings are corrected by the window's
//! *coherent gain*.

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Window {
    /// Rectangular (no) window.
    #[default]
    Rectangular,
    /// Hann (raised cosine) — good general-purpose leakage suppression.
    Hann,
    /// 4-term Blackman–Harris — very low sidelobes (−92 dB), wide main lobe.
    BlackmanHarris,
    /// Flat-top — minimal scalloping loss, the choice for amplitude accuracy.
    FlatTop,
}

impl Window {
    /// Evaluates the window at sample `i` of `n`.
    pub fn value(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        if n == 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
            Window::FlatTop => {
                // SRS flat-top coefficients.
                0.21557895 - 0.41663158 * x.cos() + 0.277263158 * (2.0 * x).cos()
                    - 0.083578947 * (3.0 * x).cos()
                    + 0.006947368 * (4.0 * x).cos()
            }
        }
    }

    /// Generates the window as a vector.
    pub fn samples(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value(i, n)).collect()
    }

    /// Coherent gain: mean of the window. Divide tone amplitudes by this.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.samples(n).iter().sum::<f64>() / n as f64
    }

    /// Applies the window to a signal, returning a new vector.
    pub fn apply(self, signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        signal
            .iter()
            .enumerate()
            .map(|(i, &x)| x * self.value(i, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_ones() {
        let w = Window::Rectangular.samples(8);
        assert!(w.iter().all(|&v| v == 1.0));
        assert_eq!(Window::Rectangular.coherent_gain(8), 1.0);
    }

    #[test]
    fn hann_properties() {
        let n = 1024;
        // Coherent gain of Hann is 0.5.
        assert!((Window::Hann.coherent_gain(n) - 0.5).abs() < 1e-3);
        // Periodic Hann starts at 0.
        assert_eq!(Window::Hann.value(0, n), 0.0);
    }

    #[test]
    fn blackman_harris_properties() {
        let n = 1024;
        // Coherent gain equals the a0 coefficient for periodic windows.
        assert!((Window::BlackmanHarris.coherent_gain(n) - 0.35875).abs() < 1e-4);
    }

    #[test]
    fn flat_top_properties() {
        let n = 1024;
        assert!((Window::FlatTop.coherent_gain(n) - 0.21557895).abs() < 1e-4);
    }

    #[test]
    fn windows_are_nonnegative_where_expected() {
        for n in [16, 64, 257] {
            for i in 0..n {
                assert!(Window::Hann.value(i, n) >= -1e-12);
                assert!(Window::BlackmanHarris.value(i, n) >= -1e-6);
            }
        }
    }

    #[test]
    fn apply_scales_signal() {
        let signal = vec![2.0; 4];
        let windowed = Window::Hann.apply(&signal);
        for (i, &v) in windowed.iter().enumerate() {
            assert!((v - 2.0 * Window::Hann.value(i, 4)).abs() < 1e-15);
        }
    }

    #[test]
    fn length_one_window() {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::BlackmanHarris,
            Window::FlatTop,
        ] {
            assert_eq!(w.value(0, 1), 1.0);
        }
    }

    #[test]
    fn windowed_tone_amplitude_recovery() {
        use crate::fft::amplitude_spectrum;
        // Coherent (bin-centred) tone windowed with flat-top: amplitude /
        // coherent gain recovers the true amplitude.
        let n = 256;
        let k0 = 16;
        let amp = 0.7;
        let signal: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let windowed = Window::FlatTop.apply(&signal);
        let spec = amplitude_spectrum(&windowed);
        let cg = Window::FlatTop.coherent_gain(n);
        // Flat-top spreads energy over a few bins; take the peak.
        let peak = spec.iter().cloned().fold(0.0, f64::max);
        assert!(
            (peak / cg - amp).abs() < 0.01 * amp,
            "recovered {} vs {}",
            peak / cg,
            amp
        );
    }
}

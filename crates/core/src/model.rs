//! Behavioral mixer model, extracted from the transistor-level circuits.
//!
//! Running thousands of LO cycles of transistor-level transient per sweep
//! point is how the paper's authors spent their CPU-months; the standard
//! engineering shortcut (and ours, see DESIGN.md §1) is to extract each
//! stage's parameters from the circuit level once, then evaluate the
//! composite behavioral model per sweep point:
//!
//! * TCA: gm, output resistance, C_PAR, nonlinear polynomial, noise —
//!   from [`crate::tca::characterize`];
//! * Gm pair (active mode): differential-pair polynomial from a DC sweep
//!   of the actual devices;
//! * switches: Mp1/Mp2 degeneration and quad on-resistance from
//!   triode-region device evaluation;
//! * TIA: closed-loop transimpedance, virtual-ground impedance, and an
//!   input-referred current-noise *curve* (the OTA's flicker shows up
//!   here) — from [`crate::tia::characterize_tia`] plus a noise sweep;
//! * power and front-path transfer: one DC operating point of the complete
//!   netlist per mode; the active one also biases the front-path AC sweep.
//!
//! The conversion-gain / noise-figure / linearity formulas and their
//! derivations are documented on each method.

use crate::config::{MixerConfig, MixerMode};
use crate::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
use crate::quad::switch_on_resistance;
use crate::tca::{characterize as characterize_tca, TcaParams};
use crate::tia::{build_tia, characterize_tia, TiaParams};
use remix_analysis::{
    ac_sweep, dc_operating_point, dc_sweep, log_space, output_noise, supply_power, AnalysisError,
    OpOptions,
};
use remix_circuit::consts::{BOLTZMANN, T0_NOISE};
use remix_circuit::{Circuit, Waveform};
use remix_dsp::units::{vpeak_to_dbm, Z0};
use remix_numerics::polyfit;
use remix_rfkit::blocks::{ChainProcessor, LoMixerProcessor, PolyProcessor};
use remix_rfkit::{Poly3, SampleProcessor};

/// Conversion efficiency of an ideal square-wave commutator (per
/// sideband): 2/π.
pub const COMMUTATION_GAIN: f64 = 2.0 / std::f64::consts::PI;

/// Everything extracted from the transistor level, mode-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedParams {
    /// TCA characterization.
    pub tca: TcaParams,
    /// TIA characterization (powered).
    pub tia: TiaParams,
    /// TIA input-referred current noise vs IF frequency:
    /// `(freq_hz, a2_per_hz)` on a log grid.
    pub tia_in2_curve: Vec<(f64, f64)>,
    /// Differential-pair polynomial of the Gm devices (diff current vs
    /// diff gate voltage) at the active-mode bias.
    pub poly_gm_pair: Poly3,
    /// Quad switch on-resistance (Ω) at mid-rail.
    pub ron_quad: f64,
    /// Mp1/Mp2 on-resistance = passive degeneration Rdeg (Ω).
    pub rdeg: f64,
    /// Supply power, active mode (mW) — full netlist.
    pub power_active_mw: f64,
    /// Supply power, passive mode (mW) — full netlist.
    pub power_passive_mw: f64,
    /// Per-side quad bias current in active mode (A) — sets switch
    /// flicker.
    pub i_switch_active: f64,
    /// Measured differential transfer from the RF EMF to the TCA inputs
    /// on the full active netlist: `(f_hz, |H|)`.
    pub h_in_curve: Vec<(f64, f64)>,
    /// Measured differential transfer from the RF EMF to the Gm-device
    /// gates on the full active netlist (includes the termination, input
    /// coupling, TCA with all its real loading, and the gate coupling).
    pub h_gate_curve: Vec<(f64, f64)>,
}

/// Extracts Mp1's triode resistance at the passive operating point.
fn extract_rdeg(cfg: &MixerConfig) -> f64 {
    let p = &cfg.pmos;
    let v_ch = cfg.tca_vcm;
    let dv = 1e-3;
    // Gate at 0 (Vlogic low), bulk at VDD, channel near the TCA CM.
    let ev = p.evaluate(v_ch - dv, 0.0, v_ch, cfg.vdd);
    let g = ev.id.abs() * (cfg.sw12_w / cfg.sw12_l) / dv;
    if g > 0.0 {
        1.0 / g
    } else {
        f64::INFINITY
    }
}

/// Extracts the differential-pair polynomial of Mn1/Mn2 with the real
/// tail device, by sweeping the differential gate voltage and fitting the
/// differential drain current.
/// Extracts the Gm-pair polynomial at an arbitrary gate bias (public so
/// the evaluation layer can sweep the paper's gain-tuning knob).
pub fn extract_gm_pair_poly(cfg: &MixerConfig) -> Result<Poly3, AnalysisError> {
    let mut ckt = Circuit::new();
    let gp = ckt.node("gp");
    let gn = ckt.node("gn");
    let dp = ckt.node("dp");
    let dn = ckt.node("dn");
    let tail = ckt.node("tail");
    // Drains clamped near the active-mode quad-input level to measure
    // short-circuit current.
    let probe_p = ckt.add_vsource("vdp", dp, Circuit::gnd(), Waveform::Dc(0.45));
    let probe_n = ckt.add_vsource("vdn", dn, Circuit::gnd(), Waveform::Dc(0.45));
    ckt.add_vsource("vgp", gp, Circuit::gnd(), Waveform::Dc(cfg.gm_bias));
    ckt.add_vsource("vgn", gn, Circuit::gnd(), Waveform::Dc(cfg.gm_bias));
    let nm = cfg.nmos.clone();
    ckt.add_mosfet(
        "mn1",
        nm.clone(),
        cfg.gm_w,
        cfg.gm_l,
        dp,
        gp,
        tail,
        Circuit::gnd(),
    );
    ckt.add_mosfet(
        "mn2",
        nm.clone(),
        cfg.gm_w,
        cfg.gm_l,
        dn,
        gn,
        tail,
        Circuit::gnd(),
    );
    let (w7, l7) = (cfg.tail_w, cfg.tail_l);
    let vb7 = crate::bias::nmos_vgs_for_current(&nm, w7, l7, 0.12, cfg.tail_current, cfg.vdd);
    let vb = ckt.node("vb7");
    ckt.add_vsource("vb7", vb, Circuit::gnd(), Waveform::Dc(vb7));
    ckt.add_mosfet("m7", nm, w7, l7, tail, vb, Circuit::gnd(), Circuit::gnd());

    // Sweep +v/2 on gp while holding gn at bias − v/2 requires two swept
    // sources; sweep gp only over ±dv and measure the *odd* part of the
    // differential current, which cancels the common-mode error to first
    // order (equivalent to a true differential sweep at half amplitude).
    let dv = 0.12;
    let n_pts = 21;
    let values: Vec<f64> = (0..n_pts)
        .map(|k| cfg.gm_bias - dv + 2.0 * dv * k as f64 / (n_pts - 1) as f64)
        .collect();
    let sweep = dc_sweep(&ckt, "vgp", &values, &OpOptions::default())?;
    let x: Vec<f64> = values.iter().map(|v| v - cfg.gm_bias).collect();
    let idiff: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.branch_current(probe_p) - p.branch_current(probe_n))
        .collect();
    let c = polyfit(&x, &idiff, 3).map_err(AnalysisError::singular)?;
    Ok(Poly3 {
        a1: c[1],
        a2: c[2],
        a3: c[3],
    })
}

/// Measures the TIA's input-referred current-noise curve with a realistic
/// source impedance, subtracting the fixture resistor's own contribution.
fn tia_in2_curve(cfg: &MixerConfig, rsrc: f64) -> Result<Vec<(f64, f64)>, AnalysisError> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vcm = ckt.node("vcm");
    let input = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));
    ckt.add_vsource("vcm", vcm, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    ckt.add_isource_ac("iin", Circuit::gnd(), input, Waveform::Dc(0.0), 1.0);
    ckt.add_resistor("rsrc", input, vcm, rsrc);
    build_tia(&mut ckt, "tia", input, out, vcm, vdd, cfg, true);
    let op = dc_operating_point(&ckt, &OpOptions::default())?;
    let freqs = log_space(1e3, 100e6, 6);
    let ac = ac_sweep(&ckt, &op, &freqs)?;
    let nr = output_noise(&ckt, &op, out, Circuit::gnd(), &freqs)?;
    let rsrc_idx = nr
        .contributions
        .iter()
        .position(|(n, _)| n == "rsrc")
        .expect("rsrc contribution present"); // audit: allow(AUD001): the noise builder inserts the rsrc contribution unconditionally
    let mut curve = Vec::with_capacity(freqs.len());
    for (i, &f) in freqs.iter().enumerate() {
        let zt = ac.voltage(i, out).abs().max(1e-12);
        let psd = nr.total[i] - nr.contributions[rsrc_idx].1[i];
        curve.push((f, psd / (zt * zt)));
    }
    Ok(curve)
}

impl ExtractedParams {
    /// Runs all extractions for a configuration: the TCA and TIA
    /// fixtures (operating points, a TCA transfer sweep, AC and noise),
    /// the TIA noise curve, the 21-point Gm-pair DC sweep, and one
    /// full-mixer operating point per mode (LO held) — the active one
    /// also feeds the AC sweep behind the front-path transfer curves.
    /// A few milliseconds (median 4.0 ms at the default configuration,
    /// release build, one core of a 2-vCPU Intel Xeon VM); reuse the
    /// result across sweeps.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors from any fixture.
    pub fn extract(cfg: &MixerConfig) -> Result<Self, AnalysisError> {
        cfg.assert_valid();
        let tca = characterize_tca(cfg)?;
        let tia = characterize_tia(cfg)?;
        let reff = 1.0 / (1.0 / tca.rout + 1.0 / cfg.tca_rload);
        let rdeg = extract_rdeg(cfg);
        let ron_quad = switch_on_resistance(cfg, cfg.tca_vcm);
        let rsrc_equiv = reff + rdeg + ron_quad;
        let tia_in2 = tia_in2_curve(cfg, rsrc_equiv)?;
        let poly_gm_pair = extract_gm_pair_poly(cfg)?;

        // One full-netlist operating point per mode, LO held so the quad
        // presents its conducting-state loading. The RF AC magnitude does
        // not enter the DC solve, so the active AC build's operating point
        // gives both the active supply power and the front-path transfer
        // curves.
        let mixer = ReconfigurableMixer::new(cfg.clone());
        let lo = LoDrive::held(2.4e9);
        let (ackt, anodes) = mixer.build(MixerMode::Active, &RfDrive::Ac, &lo);
        let aop = dc_operating_point(&ackt, &OpOptions::default())?;
        let power_active_mw = supply_power(&ackt, &aop).total_mw();
        let (pckt, _) = mixer.build(MixerMode::Passive, &RfDrive::Bias, &lo);
        let pop = dc_operating_point(&pckt, &OpOptions::default())?;
        let power_passive_mw = supply_power(&pckt, &pop).total_mw();

        let rf_grid = log_space(50e6, 20e9, 8);
        let aac = ac_sweep(&ackt, &aop, &rf_grid)?;
        let gp = ackt.find_node("gmg_p").expect("gate node"); // audit: allow(AUD001): the gm-gate fixture always has the gmg_p node
        let gn = ackt.find_node("gmg_n").expect("gate node"); // audit: allow(AUD001): the gm-gate fixture always has the gmg_n node
        let mut h_in_curve = Vec::with_capacity(rf_grid.len());
        let mut h_gate_curve = Vec::with_capacity(rf_grid.len());
        for (i, &f) in rf_grid.iter().enumerate() {
            h_in_curve.push((f, aac.voltage_diff(i, anodes.in_p, anodes.in_n).abs()));
            h_gate_curve.push((f, aac.voltage_diff(i, gp, gn).abs()));
        }

        Ok(ExtractedParams {
            tca,
            tia,
            tia_in2_curve: tia_in2,
            poly_gm_pair,
            ron_quad,
            rdeg,
            power_active_mw,
            power_passive_mw,
            i_switch_active: cfg.tail_current / 2.0,
            h_in_curve,
            h_gate_curve,
        })
    }

    /// Serializes every extracted quantity to a flat scalar vector — the
    /// success payload of corner-sweep study checkpoints
    /// ([`StudyOutcome::Ok`](crate::checkpoint::StudyOutcome)). Layout:
    /// 23 scalars (TCA 9, TIA 6, Gm-pair polynomial 3, then `ron_quad`,
    /// `rdeg`, `power_active_mw`, `power_passive_mw`,
    /// `i_switch_active`), followed by the three `(f, value)` curves,
    /// each length-prefixed.
    pub fn to_flat(&self) -> Vec<f64> {
        let n_curve = self.tia_in2_curve.len() + self.h_in_curve.len() + self.h_gate_curve.len();
        let mut out = Vec::with_capacity(23 + 3 + 2 * n_curve);
        out.extend([
            self.tca.gm,
            self.tca.rout,
            self.tca.cout,
            self.tca.pole_hz,
            self.tca.poly.a1,
            self.tca.poly.a2,
            self.tca.poly.a3,
            self.tca.en2_white,
            self.tca.bias_current,
            self.tia.zf0,
            self.tia.corner_hz,
            self.tia.rin_at_5mhz,
            self.tia.out_noise_5mhz,
            self.tia.in2_5mhz,
            self.tia.supply_current,
            self.poly_gm_pair.a1,
            self.poly_gm_pair.a2,
            self.poly_gm_pair.a3,
            self.ron_quad,
            self.rdeg,
            self.power_active_mw,
            self.power_passive_mw,
            self.i_switch_active,
        ]);
        for curve in [&self.tia_in2_curve, &self.h_in_curve, &self.h_gate_curve] {
            out.push(curve.len() as f64);
            for &(f, v) in curve.iter() {
                out.push(f);
                out.push(v);
            }
        }
        out
    }

    /// Rebuilds parameters from [`to_flat`](Self::to_flat) output.
    /// `None` when the vector is truncated, carries trailing data, or
    /// encodes an invalid curve length — a malformed checkpoint record
    /// then recomputes instead of deserializing garbage.
    pub fn from_flat(flat: &[f64]) -> Option<Self> {
        fn take<const N: usize>(flat: &[f64], pos: &mut usize) -> Option<[f64; N]> {
            let s = flat.get(*pos..*pos + N)?;
            *pos += N;
            s.try_into().ok()
        }
        fn take_curve(flat: &[f64], pos: &mut usize) -> Option<Vec<(f64, f64)>> {
            let n = *flat.get(*pos)?;
            *pos += 1;
            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
                return None;
            }
            let mut curve = Vec::with_capacity(n as usize);
            for _ in 0..n as usize {
                let [f, v] = take::<2>(flat, pos)?;
                curve.push((f, v));
            }
            Some(curve)
        }
        let mut pos = 0;
        let [gm, rout, cout, pole_hz, a1, a2, a3, en2_white, bias_current] =
            take::<9>(flat, &mut pos)?;
        let [zf0, corner_hz, rin_at_5mhz, out_noise_5mhz, in2_5mhz, supply_current] =
            take::<6>(flat, &mut pos)?;
        let [g1, g2, g3] = take::<3>(flat, &mut pos)?;
        let [ron_quad, rdeg, power_active_mw, power_passive_mw, i_switch_active] =
            take::<5>(flat, &mut pos)?;
        let tia_in2_curve = take_curve(flat, &mut pos)?;
        let h_in_curve = take_curve(flat, &mut pos)?;
        let h_gate_curve = take_curve(flat, &mut pos)?;
        if pos != flat.len() {
            return None;
        }
        Some(ExtractedParams {
            tca: TcaParams {
                gm,
                rout,
                cout,
                pole_hz,
                poly: Poly3 { a1, a2, a3 },
                en2_white,
                bias_current,
            },
            tia: TiaParams {
                zf0,
                corner_hz,
                rin_at_5mhz,
                out_noise_5mhz,
                in2_5mhz,
                supply_current,
            },
            tia_in2_curve,
            poly_gm_pair: Poly3 {
                a1: g1,
                a2: g2,
                a3: g3,
            },
            ron_quad,
            rdeg,
            power_active_mw,
            power_passive_mw,
            i_switch_active,
            h_in_curve,
            h_gate_curve,
        })
    }

    /// TIA input current noise (A²/Hz) interpolated at `f`.
    pub fn tia_in2_at(&self, f: f64) -> f64 {
        let xs: Vec<f64> = self.tia_in2_curve.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = self.tia_in2_curve.iter().map(|p| p.1).collect();
        remix_numerics::interp::lerp_logx(&xs, &ys, f.max(xs[0]))
    }

    fn curve_at(curve: &[(f64, f64)], f: f64) -> f64 {
        let xs: Vec<f64> = curve.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = curve.iter().map(|p| p.1).collect();
        remix_numerics::interp::lerp_logx(&xs, &ys, f.clamp(xs[0], xs[xs.len() - 1]))
    }

    /// Measured EMF → TCA-input transfer at `f` (active netlist).
    pub fn h_in_at(&self, f: f64) -> f64 {
        Self::curve_at(&self.h_in_curve, f)
    }

    /// Measured EMF → Gm-gate transfer at `f` (active netlist).
    pub fn h_gate_at(&self, f: f64) -> f64 {
        Self::curve_at(&self.h_gate_curve, f)
    }
}

/// The behavioral model of one mode, with every paper metric as a method.
#[derive(Debug, Clone)]
pub struct MixerModel {
    /// Which mode this models.
    pub mode: MixerMode,
    cfg: MixerConfig,
    /// The extraction this model was built from.
    pub params: ExtractedParams,
}

impl MixerModel {
    /// Builds the model for a mode from a prior extraction.
    pub fn new(cfg: MixerConfig, mode: MixerMode, params: ExtractedParams) -> Self {
        MixerModel { mode, cfg, params }
    }

    /// Convenience: extract and build in one call.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn from_config(cfg: &MixerConfig, mode: MixerMode) -> Result<Self, AnalysisError> {
        Ok(Self::new(cfg.clone(), mode, ExtractedParams::extract(cfg)?))
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &MixerConfig {
        &self.cfg
    }

    /// Effective TCA load resistance `rout ∥ rload` (Ω).
    pub fn reff_tca(&self) -> f64 {
        1.0 / (1.0 / self.params.tca.rout + 1.0 / self.cfg.tca_rload)
    }

    /// Input termination divider: `rterm/(rs + rterm)` — 0.5 for a
    /// matched port.
    pub fn termination_divider(&self) -> f64 {
        self.cfg.input_term_r / (self.cfg.rs + self.cfg.input_term_r)
    }

    /// Input high-pass corner common to both modes: the coupling cap
    /// sits between the source and the termination, so it sees
    /// `rs + rterm` in series.
    pub fn input_hp_hz(&self) -> f64 {
        let r = self.cfg.rs + self.cfg.input_term_r;
        1.0 / (2.0 * std::f64::consts::PI * r * self.cfg.input_couple_c)
    }

    /// Active-only high-pass from the Gm-gate coupling network.
    pub fn gate_hp_hz(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * self.cfg.gm_bias_r * self.cfg.gm_couple_c)
    }

    /// RF pole at the TCA output (upper band edge mechanism).
    pub fn rf_pole_hz(&self) -> f64 {
        let c_total = self.params.tca.cout + self.cfg.node_parasitic_c;
        let r = match self.mode {
            // Active: the full Reff is seen.
            MixerMode::Active => self.reff_tca(),
            // Passive: the switch path loads the node.
            MixerMode::Passive => {
                let series = self.params.rdeg + self.params.ron_quad + self.params.tia.rin_at_5mhz;
                1.0 / (1.0 / self.reff_tca() + 1.0 / series)
            }
        };
        1.0 / (2.0 * std::f64::consts::PI * r * c_total)
    }

    /// IF pole (output low-pass).
    pub fn if_pole_hz(&self) -> f64 {
        match self.mode {
            MixerMode::Active => {
                1.0 / (2.0 * std::f64::consts::PI * self.cfg.tg_load_r * self.cfg.cc)
            }
            MixerMode::Passive => self.params.tia.corner_hz,
        }
    }

    /// Active-mode Gilbert transconductance (S): `a1` of the pair.
    pub fn gm_pair(&self) -> f64 {
        self.params.poly_gm_pair.a1.abs()
    }

    /// Passive-mode effective transconductance into the TIA (S):
    /// `gm_tca · Reff/(Reff + Rdeg + ron + Rin,TIA)`.
    pub fn gm_eff_passive(&self) -> f64 {
        let reff = self.reff_tca();
        let loop_r = reff + self.params.rdeg + self.params.ron_quad + self.params.tia.rin_at_5mhz;
        self.params.tca.gm * reff / loop_r
    }

    /// Mid-band conversion gain (linear, differential V/V), from the
    /// source EMF — includes the matched-termination factor of 1/2.
    pub fn conv_gain_flat(&self) -> f64 {
        let internal = match self.mode {
            MixerMode::Active => {
                let av1 = self.params.tca.gm * self.reff_tca();
                av1 * COMMUTATION_GAIN * self.gm_pair() * self.cfg.tg_load_r
            }
            MixerMode::Passive => {
                // Eq. (3): VCG = (2/π)·gm·ZF with gm the *effective*
                // transconductance delivered to the virtual ground.
                COMMUTATION_GAIN * self.gm_eff_passive() * self.params.tia.zf0
            }
        };
        internal * self.termination_divider()
    }

    /// Conversion gain at (`f_rf`, `f_if`), linear.
    ///
    /// Active mode uses the *measured* EMF→gate transfer curve from the
    /// full netlist (which carries the termination, coupling networks and
    /// all real loading of the TCA); passive mode uses the analytic
    /// divider chain, which cross-validates against the transistor-level
    /// transient within a couple of dB.
    pub fn conv_gain(&self, f_rf: f64, f_if: f64) -> f64 {
        let hp = |f: f64, fc: f64| {
            let x = f / fc;
            x / (1.0 + x * x).sqrt()
        };
        let lp = |f: f64, fc: f64| 1.0 / (1.0 + (f / fc).powi(2)).sqrt();
        match self.mode {
            MixerMode::Active => {
                self.params.h_gate_at(f_rf)
                    * COMMUTATION_GAIN
                    * self.gm_pair()
                    * self.cfg.tg_load_r
                    * lp(f_if, self.if_pole_hz())
            }
            MixerMode::Passive => {
                let mut g = self.conv_gain_flat();
                g *= hp(f_rf, self.input_hp_hz());
                g *= lp(f_rf, self.rf_pole_hz());
                g *= lp(f_if, self.if_pole_hz());
                g
            }
        }
    }

    /// Conversion gain in dB.
    pub fn conv_gain_db(&self, f_rf: f64, f_if: f64) -> f64 {
        20.0 * self.conv_gain(f_rf, f_if).log10()
    }

    /// Noise folding factor of square-wave commutation: white noise ahead
    /// of the switches reaches the IF from *every* odd LO harmonic, a
    /// `Σ_odd 1/n² = π²/8` power penalty relative to the fundamental-only
    /// signal conversion.
    pub const FOLDING: f64 = std::f64::consts::PI * std::f64::consts::PI / 8.0;

    /// Internal noise PSD (V²/Hz, differential) referred to the *TCA
    /// input node* at the given IF, for RF near 2.45 GHz.
    ///
    /// Active budget:
    /// * 2× TCA input noise (two uncorrelated halves), folded;
    /// * Gm-pair channel thermal `2·4kTγ·gm/(gm²·av1²)`, folded;
    /// * switch flicker `2·KF·I_sw/(CoxWL·f_if)` through the load,
    ///   referred by the internal gain (the classic Gilbert-mixer 1/f
    ///   mechanism — switches carry DC bias in this mode only);
    /// * load thermal `2·4kT·R_tg` referred by the internal gain.
    ///
    /// Passive budget:
    /// * 2× TCA input noise, folded;
    /// * series-resistance thermal `2·4kT(Rdeg+ron)/(gm·Reff)²`, folded;
    /// * switch-overlap conduction noise (both switches on during LO
    ///   transitions inject current directly into the virtual ground);
    /// * 2× TIA input current noise (incl. OTA flicker) `/gm_eff²` —
    ///   this is where the passive mode's higher white noise and its
    ///   sub-100 kHz corner come from.
    pub fn internal_noise_psd(&self, f_if: f64) -> f64 {
        let four_kt = 4.0 * BOLTZMANN * 300.0;
        let tca2 = 2.0 * self.params.tca.en2_white * Self::FOLDING;
        match self.mode {
            MixerMode::Active => {
                // Effective TCA-input→pair-gate gain, from the measured
                // curves at band centre.
                let f0 = 2.45e9;
                let av1 = (self.params.h_gate_at(f0) / self.params.h_in_at(f0)).max(1e-3);
                let gm = self.gm_pair();
                let gamma = self.cfg.nmos.gamma_noise;
                let pair = 2.0 * four_kt * gamma * gm / (gm * gm * av1 * av1) * Self::FOLDING;
                // Switch flicker via the Darabi/Abidi mechanism: the
                // switch pair's gate-referred 1/f voltage modulates the
                // commutation instants, producing an output noise current
                // i_n = (4·I/(π·A_LO))·v_n that bypasses the signal gain —
                // the classic active-mixer 1/f penalty.
                let nm = &self.cfg.nmos;
                let i_sw = self.params.i_switch_active;
                let vov_sw = 0.25; // overdrive at the commutation instant
                let gm_sw = 2.0 * i_sw / vov_sw;
                let vn2 = if f_if > 0.0 {
                    nm.kf * i_sw
                        / (nm.cox * self.cfg.quad_w * self.cfg.quad_l * f_if * gm_sw * gm_sw)
                } else {
                    0.0
                };
                let slope = 4.0 * i_sw / (std::f64::consts::PI * self.cfg.lo_amplitude);
                // Two switch pairs contribute to the differential output.
                // The ×20 power excess models the cyclostationary 1/f
                // elevation of periodically switched devices (trap
                // occupancy re-randomized every LO cycle) plus the
                // triode-interval contribution the saturated-gm referral
                // underestimates.
                let flicker_out = 2.0 * slope * slope * vn2 * 20.0;
                // Internal gain from the TCA input node to the output.
                let g_int = av1 * COMMUTATION_GAIN * gm * self.cfg.tg_load_r;
                let r = self.cfg.tg_load_r;
                let load = 2.0 * four_kt * r; // 4kT/R·R² per side
                tca2 + pair + (flicker_out * r * r + load) / (g_int * g_int)
            }
            MixerMode::Passive => {
                let gm_reff = self.params.tca.gm * self.reff_tca();
                let series = 2.0 * four_kt * (self.params.rdeg + self.params.ron_quad)
                    / (gm_reff * gm_reff)
                    * Self::FOLDING;
                let gme = self.gm_eff_passive();
                let gamma = self.cfg.nmos.gamma_noise;
                // Overlap window: both switches of a pair conduct for a
                // fraction of the LO period, injecting 4kTγ·g_on into the
                // virtual ground.
                let overlap = 0.25;
                let sw = 2.0 * four_kt * gamma * overlap / self.params.ron_quad / (gme * gme);
                let tia = 2.0 * self.params.tia_in2_at(f_if) / (gme * gme);
                tca2 + series + sw + tia
            }
        }
    }

    /// DSB noise figure (dB) at the given IF (RF near 2.45 GHz).
    ///
    /// Referred to the matched, terminated differential port:
    /// the source EMF noise reaches the TCA input attenuated by the
    /// termination divider squared, and the termination itself adds an
    /// equal part — the familiar 3 dB matched-port floor:
    /// `F = 1 + (T/T0)·(rterm/rs) + en_int²/(4kT0·rs_diff·d²)`.
    pub fn nf_db(&self, f_if: f64) -> f64 {
        let d = self.termination_divider();
        let rs_diff = 2.0 * self.cfg.rs;
        let rterm_diff = 2.0 * self.cfg.input_term_r;
        let source_at_node = 4.0 * BOLTZMANN * T0_NOISE * rs_diff * d * d;
        // Termination noise sees the complementary divider rs/(rs+rterm).
        let dt = self.cfg.rs / (self.cfg.rs + self.cfg.input_term_r);
        let term_at_node = 4.0 * BOLTZMANN * 300.0 * rterm_diff * dt * dt;
        let f =
            1.0 + term_at_node / source_at_node + self.internal_noise_psd(f_if) / source_at_node;
        10.0 * f.log10()
    }

    /// Flicker corner: IF below which the NF rises 3 dB above its
    /// mid-band (1 MHz–10 MHz) value. `None` if never within [1 kHz, 10 MHz].
    pub fn flicker_corner_hz(&self) -> Option<f64> {
        let mid = self.nf_db(5e6);
        let mut f = 10e6;
        while f > 1e3 {
            if self.nf_db(f) > mid + 3.0 {
                return Some(f);
            }
            f /= 1.25;
        }
        None
    }

    /// Input-referred IIP3 peak amplitude (V, differential, at the EMF —
    /// the termination divider relaxes it by 1/d).
    ///
    /// Cascade of the TCA polynomial and (active only) the Gm-pair
    /// polynomial; the paper's passive linearity advantage appears
    /// because the TIA virtual ground removes voltage swing from the
    /// switches, leaving the (Rdeg-degenerated) TCA as the limit.
    pub fn a_iip3(&self) -> f64 {
        self.a_iip3_at(2.45e9)
    }

    /// Input-referred IIP3 peak amplitude at a specific RF frequency:
    /// the interstage poles (TCA output pole, gate-coupling high-pass)
    /// attenuate the drive reaching the Gm pair, relaxing its
    /// contribution in-band exactly as a lab measurement sees it.
    pub fn a_iip3_at(&self, f_rf: f64) -> f64 {
        let a_tca = self.params.tca.a_iip3().unwrap_or(f64::INFINITY);
        match self.mode {
            MixerMode::Active => {
                // Referred to the EMF with the *measured* drive levels:
                // the TCA sees h_in·v_emf, the pair sees h_gate·v_emf.
                let h_in = self.params.h_in_at(f_rf);
                let h_gate = self.params.h_gate_at(f_rf);
                let a_pair = self.params.poly_gm_pair.a_iip3().unwrap_or(f64::INFINITY);
                let inv = (h_in * h_in) / (a_tca * a_tca) + (h_gate * h_gate) / (a_pair * a_pair);
                (1.0 / inv).sqrt()
            }
            MixerMode::Passive => a_tca / self.termination_divider(),
        }
    }

    /// IIP3 in dBm into the 50 Ω reference.
    pub fn iip3_dbm(&self) -> f64 {
        vpeak_to_dbm(self.a_iip3(), Z0)
    }

    /// Maximum differential output swing before hard clipping (V peak).
    pub fn output_swing_limit(&self) -> f64 {
        match self.mode {
            // Each side swings only ±≈0.16 V around the TG-load common
            // mode before the quad/Gm stack runs out of headroom (the
            // load drop already spends ~0.6 V of the 1.2 V supply) —
            // ±0.32 V differential.
            MixerMode::Active => 0.32,
            // TIA outputs swing nearly rail-to-rail (the OTA's second
            // stage is "for high swing"): ±0.55 V each side → ±1.1 V
            // differential.
            MixerMode::Passive => 1.1,
        }
    }

    /// 1 dB compression point (dBm): the smaller of the polynomial
    /// (soft) compression and the output-swing (hard) limit — the paper
    /// notes "1dB-CP of the circuit is limited by the output swing".
    pub fn p1db_dbm(&self) -> f64 {
        let poly_p1db = self.a_iip3_at(2.45e9) * remix_dsp::units::db_to_amplitude(-9.64);
        let cg = self.conv_gain(2.45e9, 5e6);
        // Hard-limiter describing function: a symmetric clip at L drops
        // the fundamental gain by 1 dB when the linear output amplitude
        // reaches L/0.795 (solve (2/π)(asin r + r√(1−r²)) = 10^(−1/20)).
        let swing_p1db = self.output_swing_limit() / (0.795 * cg);
        vpeak_to_dbm(poly_p1db.min(swing_p1db), Z0)
    }

    /// IIP2 (dBm) for a given differential mismatch fraction (e.g. 0.01
    /// for 1 % device mismatch). Perfect balance → ∞; the paper reports
    /// "> 65 dBm for both cases".
    pub fn iip2_dbm(&self, mismatch: f64) -> f64 {
        assert!(mismatch > 0.0 && mismatch < 1.0);
        let p = &self.params.tca.poly;
        let a_iip2_single = (p.a1 / p.a2).abs();
        // Referred to the EMF: the termination divider relaxes the
        // even-order intercept by 1/d (IM2 scales with the node
        // amplitude squared).
        let a_emf = a_iip2_single / (mismatch * self.termination_divider());
        vpeak_to_dbm(a_emf, Z0)
    }

    /// Supply power of this mode (mW), measured on the full netlist.
    pub fn power_mw(&self) -> f64 {
        match self.mode {
            MixerMode::Active => self.params.power_active_mw,
            MixerMode::Passive => self.params.power_passive_mw,
        }
    }

    /// Builds the time-domain behavioral chain (RF samples in, IF samples
    /// out) for an LO at `f_lo`. Used by the two-tone/compression
    /// measurement harnesses; its small-signal gain matches
    /// [`conv_gain`](Self::conv_gain) by construction.
    pub fn chain(&self, f_lo: f64) -> ChainProcessor {
        // The two-tone / compression stimuli are narrowband around the
        // LO, so the RF-domain frequency shaping is applied as *scalar*
        // gains evaluated at f_lo (the discrete IIR filters would be
        // operating right at their corners otherwise); the IF low-pass
        // stays as a real filter since the products spread across the IF.
        match self.mode {
            MixerMode::Active => {
                let h_in = self.params.h_in_at(f_lo);
                let h_gate = self.params.h_gate_at(f_lo);
                // Input network up to the TCA gates.
                let front = PolyProcessor::new(Poly3::linear(h_in));
                // TCA nonlinearity normalized to the realized gate-to-gate
                // voltage gain (its polynomial is expressed at the TCA
                // input).
                let p_tca = &self.params.tca.poly;
                let av_eff = h_gate / h_in;
                let scale = av_eff / p_tca.a1.abs();
                let tca_stage = Poly3 {
                    a1: -p_tca.a1 * scale,
                    a2: -p_tca.a2 * scale,
                    a3: -p_tca.a3 * scale,
                };
                let p_pair = self.params.poly_gm_pair;
                let mixer = LoMixerProcessor::new(f_lo).with_transition(0.05);
                let load = Poly3::linear(self.cfg.tg_load_r);
                ChainProcessor::new()
                    .then(Box::new(front))
                    .then(Box::new(PolyProcessor::new(tca_stage)))
                    .then(Box::new(PolyProcessor::new(p_pair)))
                    .then(Box::new(mixer))
                    .then(Box::new(
                        PolyProcessor::new(load).with_pole(self.if_pole_hz()),
                    ))
            }
            MixerMode::Passive => {
                let x = f_lo / self.input_hp_hz();
                let hp_in = x / (1.0 + x * x).sqrt();
                let lp_rf = 1.0 / (1.0 + (f_lo / self.rf_pole_hz()).powi(2)).sqrt();
                let front =
                    PolyProcessor::new(Poly3::linear(self.termination_divider() * hp_in * lp_rf));
                // TCA V→I with its polynomial scaled by the current
                // divider, commutation, transimpedance.
                let div = self.gm_eff_passive() / self.params.tca.gm;
                let p = &self.params.tca.poly;
                let vto_i = Poly3 {
                    a1: -p.a1 * div,
                    a2: -p.a2 * div,
                    a3: -p.a3 * div,
                };
                let mixer = LoMixerProcessor::new(f_lo).with_transition(0.05);
                let zf = Poly3::linear(self.params.tia.zf0);
                ChainProcessor::new()
                    .then(Box::new(front))
                    .then(Box::new(PolyProcessor::new(vto_i)))
                    .then(Box::new(mixer))
                    .then(Box::new(
                        PolyProcessor::new(zf).with_pole(self.if_pole_hz()),
                    ))
            }
        }
    }

    /// Renders this mode as an analytic [`Cascade`](remix_rfkit::Cascade) of
    /// [`StageSpec`](remix_rfkit::blocks::StageSpec)s — the bridge to
    /// `remix_rfkit::budget`'s link-budget
    /// tables. Gains are the same factors `conv_gain` multiplies; the
    /// noise entries are the per-stage input-referred PSDs of
    /// [`internal_noise_psd`](Self::internal_noise_psd)'s budget.
    pub fn as_cascade(&self) -> remix_rfkit::Cascade {
        use remix_rfkit::blocks::{SignalDomain, StageSpec};
        let four_kt = 4.0 * remix_circuit::consts::BOLTZMANN * 300.0;
        let term = StageSpec {
            name: "termination".into(),
            gain: self.termination_divider(),
            a_iip3: None,
            // Port noise floor: the termination contributes like the
            // source (captured in nf_db's port term; representative here).
            en2_white: four_kt * (self.cfg.rs + self.cfg.input_term_r) / 2.0,
            flicker_corner: 0.0,
            pole: None,
            domain: SignalDomain::Rf,
        };
        match self.mode {
            MixerMode::Active => {
                let f0 = 2.45e9;
                let av1 = self.params.h_gate_at(f0) / self.params.h_in_at(f0);
                let tca = StageSpec {
                    name: "tca".into(),
                    gain: av1,
                    a_iip3: self.params.tca.a_iip3(),
                    en2_white: 2.0 * self.params.tca.en2_white * Self::FOLDING,
                    flicker_corner: 0.0,
                    pole: Some(self.rf_pole_hz()),
                    domain: SignalDomain::Rf,
                };
                let gm = self.gm_pair();
                let pair_quad = StageSpec {
                    name: "pair+quad".into(),
                    gain: COMMUTATION_GAIN * gm * self.cfg.tg_load_r,
                    a_iip3: self.params.poly_gm_pair.a_iip3(),
                    en2_white: 2.0 * four_kt * self.cfg.nmos.gamma_noise / gm * Self::FOLDING,
                    flicker_corner: 80e3,
                    pole: Some(self.if_pole_hz()),
                    domain: SignalDomain::If,
                };
                remix_rfkit::Cascade::new()
                    .stage(term)
                    .stage(tca)
                    .stage(pair_quad)
            }
            MixerMode::Passive => {
                let gme = self.gm_eff_passive();
                let tca = StageSpec {
                    name: "tca+switches".into(),
                    // Transconductance stage: the "gain" entry carries the
                    // V→I factor (S); the following transimpedance stage
                    // carries Ω, so the cascade product stays a voltage
                    // gain.
                    gain: gme,
                    a_iip3: self.params.tca.a_iip3(),
                    en2_white: 2.0 * self.params.tca.en2_white * Self::FOLDING,
                    flicker_corner: 0.0,
                    pole: Some(self.rf_pole_hz()),
                    domain: SignalDomain::Rf,
                };
                let tia = StageSpec {
                    name: "quad+tia".into(),
                    gain: COMMUTATION_GAIN * self.params.tia.zf0,
                    a_iip3: None,
                    // In this formalism the preceding stage's gain is a
                    // transconductance (S), so this stage's noise entry is
                    // the TIA input *current* PSD (A²/Hz): the cascade's
                    // referral divides by gme², landing at volts² again.
                    en2_white: 2.0 * self.params.tia_in2_at(5e6),
                    flicker_corner: 30e3,
                    pole: Some(self.if_pole_hz()),
                    domain: SignalDomain::If,
                };
                remix_rfkit::Cascade::new()
                    .stage(term)
                    .stage(tca)
                    .stage(tia)
            }
        }
    }

    /// Applies the hard output-swing clamp to a sample buffer (the chain
    /// itself is polynomial and does not saturate).
    pub fn clamp_output(&self, x: &mut [f64]) {
        let lim = self.output_swing_limit();
        for v in x.iter_mut() {
            *v = v.clamp(-lim, lim);
        }
    }

    /// One-call processing: run RF samples through the chain and clamp.
    pub fn process(&self, input: &[f64], fs: f64, f_lo: f64) -> Vec<f64> {
        let mut chain = self.chain(f_lo);
        let mut buf = input.to_vec();
        chain.process(&mut buf, fs);
        self.clamp_output(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn extraction() -> &'static ExtractedParams {
        static CACHE: OnceLock<ExtractedParams> = OnceLock::new();
        CACHE.get_or_init(|| ExtractedParams::extract(&MixerConfig::default()).unwrap())
    }

    fn model(mode: MixerMode) -> MixerModel {
        MixerModel::new(MixerConfig::default(), mode, extraction().clone())
    }

    #[test]
    fn extraction_sane() {
        let p = extraction();
        assert!(p.ron_quad > 5.0 && p.ron_quad < 300.0, "ron {}", p.ron_quad);
        assert!(p.rdeg > 5.0 && p.rdeg < 500.0, "rdeg {}", p.rdeg);
        assert!(p.power_active_mw > 2.0 && p.power_active_mw < 20.0);
        assert!(p.power_passive_mw > 2.0 && p.power_passive_mw < 20.0);
        assert!(
            p.poly_gm_pair.a1.abs() > 1e-3,
            "gm pair {:?}",
            p.poly_gm_pair
        );
        assert!(!p.tia_in2_curve.is_empty());
    }

    /// Pins how many operating points one default extraction solves, so
    /// a re-added duplicate full-mixer solve fails here.
    #[test]
    fn extraction_solves_one_full_mixer_operating_point_per_mode() {
        use remix_telemetry::{names, Telemetry};
        let telemetry = Telemetry::new();
        let params = {
            let _armed = telemetry.arm();
            ExtractedParams::extract(&MixerConfig::default()).unwrap()
        };
        let snap = telemetry.snapshot().without_timings();
        let ops = snap.span(names::ANALYSIS_OP).map_or(0, |s| s.count);
        let iterations = snap.counter(names::CONVERGENCE_ITERATIONS);
        // Both full-mixer solves are in here; a second active-mode solve
        // would read 53 operating points. Three Direct stages run away
        // past 12 V and end before their 150-iteration budget: the TIA
        // fixture's after 53 iterations, the active mixer's after 48 and
        // the passive mixer's after 45. Unbounded, they read 949.
        assert_eq!((ops, iterations), (52, Some(645)));

        // The active power read off the AC build equals the bias-only
        // build's, bit for bit.
        let mixer = ReconfigurableMixer::new(MixerConfig::default());
        let (ckt, _) = mixer.build(MixerMode::Active, &RfDrive::Bias, &LoDrive::held(2.4e9));
        let op = dc_operating_point(&ckt, &OpOptions::default()).unwrap();
        assert_eq!(
            supply_power(&ckt, &op).total_mw().to_bits(),
            params.power_active_mw.to_bits()
        );
    }

    #[test]
    fn flat_encoding_round_trips_and_rejects_malformed() {
        let p = extraction();
        let flat = p.to_flat();
        assert_eq!(
            flat.len(),
            23 + 3 + 2 * (p.tia_in2_curve.len() + p.h_in_curve.len() + p.h_gate_curve.len())
        );
        let back = ExtractedParams::from_flat(&flat).unwrap();
        assert_eq!(&back, p);
        // Truncation, trailing data, and corrupted curve lengths all
        // refuse to deserialize.
        assert!(ExtractedParams::from_flat(&flat[..flat.len() - 1]).is_none());
        let mut longer = flat.clone();
        longer.push(0.0);
        assert!(ExtractedParams::from_flat(&longer).is_none());
        let mut bad_len = flat.clone();
        bad_len[23] = -1.0;
        assert!(ExtractedParams::from_flat(&bad_len).is_none());
        bad_len[23] = 2.5;
        assert!(ExtractedParams::from_flat(&bad_len).is_none());
        assert!(ExtractedParams::from_flat(&[]).is_none());
    }

    #[test]
    fn active_gain_higher_than_passive() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        let ga = a.conv_gain_db(2.45e9, 5e6);
        let gp = p.conv_gain_db(2.45e9, 5e6);
        assert!(ga > gp, "active {ga} dB vs passive {gp} dB");
        // Both in the paper's ballpark.
        assert!(ga > 20.0 && ga < 40.0, "active {ga}");
        assert!(gp > 15.0 && gp < 35.0, "passive {gp}");
    }

    #[test]
    fn band_edges_ordering() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        // Both modes are wideband: at 0.25 GHz each has rolled off
        // markedly from its midband value (sub-band rejection exists),
        // while at 2.45 GHz both are within 1 dB of their peaks.
        for (m, name) in [(&a, "active"), (&p, "passive")] {
            let low = m.conv_gain_db(0.25e9, 5e6);
            let mid = m.conv_gain_db(2.45e9, 5e6);
            assert!(mid - low > 2.0, "{name}: low {low:.1} vs mid {mid:.1}");
        }
        // The active gate-coupling high-pass exists (corner near 1 GHz).
        assert!(a.gate_hp_hz() > 0.4e9 && a.gate_hp_hz() < 2e9);
    }

    #[test]
    fn nf_ordering_matches_paper() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        let nfa = a.nf_db(5e6);
        let nfp = p.nf_db(5e6);
        assert!(nfa < nfp, "active NF {nfa} must beat passive {nfp}");
        assert!(nfa > 3.0 && nfa < 15.0, "active NF {nfa}");
        assert!(nfp > 5.0 && nfp < 18.0, "passive NF {nfp}");
    }

    #[test]
    fn iip3_ordering_matches_paper() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        let ia = a.iip3_dbm();
        let ip = p.iip3_dbm();
        assert!(
            ip > ia + 5.0,
            "passive IIP3 {ip} should exceed active {ia} by many dB"
        );
    }

    #[test]
    fn p1db_below_iip3() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let m = model(mode);
            assert!(
                m.p1db_dbm() < m.iip3_dbm() - 8.0,
                "{mode:?}: p1db {} vs iip3 {}",
                m.p1db_dbm(),
                m.iip3_dbm()
            );
        }
    }

    #[test]
    fn iip2_above_65dbm_at_1pct_mismatch() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let m = model(mode);
            assert!(m.iip2_dbm(0.01) > 65.0, "{mode:?}: {}", m.iip2_dbm(0.01));
        }
    }

    #[test]
    fn flicker_corner_passive_below_active() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        let ca = a.flicker_corner_hz();
        let cp = p.flicker_corner_hz();
        // Paper: passive corner < 100 kHz; active corner visibly higher.
        if let Some(cp) = cp {
            assert!(cp < 300e3, "passive corner {cp:.3e}");
        }
        if let (Some(ca), Some(cp)) = (ca, cp) {
            assert!(ca > cp, "active corner {ca:.3e} vs passive {cp:.3e}");
        }
    }

    #[test]
    fn chain_gain_matches_analytic_small_signal() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let m = model(mode);
            // Realistic operating point: 2.4 GHz LO, 5 MHz IF, sampled
            // fast enough that the discrete filters track their analog
            // prototypes.
            let f_lo = 2.4e9;
            let f_if = 5e6;
            let f_rf = f_lo + f_if;
            let plan = remix_dsp::tone::CoherentPlan::new(&[f_if], 1 << 16, 0.5e6).unwrap();
            assert!(plan.fs > 2.2 * f_rf, "sampling too slow: {}", plan.fs);
            let a_in = 1e-4;
            let input = remix_dsp::signal::tone(a_in, f_rf, 0.0, plan.fs, plan.n * 2);
            let out = m.process(&input, plan.fs, f_lo);
            let settled = &out[plan.n..];
            let a_if = remix_dsp::tone::goertzel_amplitude(settled, plan.bins[0], plan.n);
            let measured = a_if / a_in;
            let analytic = m.conv_gain(f_rf, f_if);
            let err_db = 20.0 * (measured / analytic).log10().abs();
            assert!(
                err_db < 1.5,
                "{mode:?}: chain {measured:.2} vs analytic {analytic:.2} ({err_db:.2} dB)"
            );
        }
    }

    #[test]
    fn cascade_view_matches_conv_gain() {
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let m = model(mode);
            let c = m.as_cascade();
            let dc = c.conv_gain_db(2.45e9, 5e6);
            let dm = m.conv_gain_db(2.45e9, 5e6);
            assert!(
                (dc - dm).abs() < 1.0,
                "{mode:?}: cascade {dc:.2} dB vs model {dm:.2} dB"
            );
        }
    }

    #[test]
    fn third_harmonic_conversion_is_one_third() {
        // Square-wave commutation converts RF near 3·LO with 1/3 the
        // fundamental's efficiency (the 2/(πn) Fourier series) — a classic
        // property the time-domain chain must exhibit.
        let m = model(MixerMode::Passive);
        let f_lo = 500e6;
        let f_if = 5e6;
        let plan = remix_dsp::tone::CoherentPlan::new(&[f_if], 1 << 14, 0.5e6).unwrap();
        let a_in = 1e-4;
        let measure = |f_rf: f64| {
            let x = remix_dsp::signal::tone(a_in, f_rf, 0.0, plan.fs, plan.n * 2);
            let y = m.process(&x, plan.fs, f_lo);
            remix_dsp::tone::goertzel_amplitude(&y[plan.n..], plan.bins[0], plan.n)
        };
        let fund = measure(f_lo + f_if);
        let third = measure(3.0 * f_lo + f_if);
        // The chain's front-path factors are evaluated at f_lo (narrowband
        // model), so both tones see the same front gain and the raw ratio
        // isolates the commutation physics. The 5 % LO edge transition
        // slightly suppresses the 3rd harmonic (+few % on the ratio).
        let ratio = fund / third;
        assert!(
            (2.7..=3.8).contains(&ratio),
            "harmonic conversion ratio {ratio:.2}, expected ≈3"
        );
    }

    #[test]
    fn power_close_between_modes() {
        let a = model(MixerMode::Active);
        let p = model(MixerMode::Passive);
        assert!((a.power_mw() - p.power_mw()).abs() < 3.0);
    }
}

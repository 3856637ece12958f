//! Transimpedance amplifier (paper Fig. 7): a two-stage Miller-compensated
//! OTA with `RF ∥ CF` feedback.
//!
//! The TIA is the passive-mode load: it presents a virtual ground to the
//! switching quad (eq. (4): `Zin ≈ RF/(1 + A(f))`), converts the
//! commutated current to the IF voltage (eq. (3)) and anti-alias filters
//! with its `RF·CF` corner. It draws 3.3 mA and is powered down in active
//! mode (PMOS switch p3).
//!
//! The OTA follows the paper: "A two stage miller compensated OTA topology
//! is chosen ... First stage to provide high gain and second stage for
//! high swing". The tail and second-stage bias currents are ideal sources
//! (the paper does not describe its bias generator — substitution noted
//! in DESIGN.md); all signal-path devices are MOSFETs.

use crate::config::MixerConfig;
use remix_analysis::{
    ac_sweep, dc_operating_point, log_space, output_noise, AnalysisError, OpOptions,
};
use remix_circuit::{Circuit, ElementId, Node, Waveform};

/// Device sizing of the two-stage OTA.
#[derive(Debug, Clone, PartialEq)]
pub struct OtaSizing {
    /// Input pair width (m).
    pub w_in: f64,
    /// Mirror load width (m).
    pub w_mirror: f64,
    /// Second-stage PMOS width (m).
    pub w_cs: f64,
    /// Channel length for all OTA devices (m) — longer than minimum for
    /// gain.
    pub l: f64,
    /// Miller capacitor (F).
    pub cm: f64,
    /// Nulling resistor (Ω).
    pub rz: f64,
}

impl Default for OtaSizing {
    fn default() -> Self {
        OtaSizing {
            w_in: 20e-6,
            w_mirror: 24e-6,
            w_cs: 60e-6,
            l: 130e-9,
            cm: 2e-12,
            rz: 60.0,
        }
    }
}

/// Handles to an instantiated OTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtaHandles {
    /// Tail current source element.
    pub tail: ElementId,
    /// Second-stage current source element.
    pub load2: ElementId,
}

/// Adds a two-stage Miller OTA: output `out = A·(v(inp) − v(inn))`.
///
/// When `powered` is false the bias sources are set to ~0, modeling the
/// p3 supply switch in the off state.
#[allow(clippy::too_many_arguments)]
pub fn build_ota(
    ckt: &mut Circuit,
    prefix: &str,
    inp: Node,
    inn: Node,
    out: Node,
    vdd: Node,
    cfg: &MixerConfig,
    sizing: &OtaSizing,
    powered: bool,
) -> OtaHandles {
    let tail = ckt.node(&format!("{prefix}_tail"));
    let x1 = ckt.node(&format!("{prefix}_x1"));
    let x2 = ckt.node(&format!("{prefix}_x2"));
    let nmos = cfg.nmos.clone();
    let pmos = cfg.pmos.clone();

    // PMOS input pair — the low-flicker choice for a TIA front end
    // (PMOS 1/f is an order of magnitude below NMOS in this node, and
    // the OTA input devices dominate the passive mode's IF noise).
    // M1 (gate = inn) sits on the diode side, M2 (gate = inp) on the
    // mirror output side, so `out` is in phase with `inp`.
    ckt.add_mosfet(
        &format!("{prefix}_m1"),
        pmos.clone(),
        sizing.w_in,
        sizing.l,
        x1,
        inn,
        tail,
        vdd,
    );
    ckt.add_mosfet(
        &format!("{prefix}_m2"),
        pmos,
        sizing.w_in,
        sizing.l,
        x2,
        inp,
        tail,
        vdd,
    );
    // NMOS mirror load: M3 diode-connected, M4 mirror output.
    ckt.add_mosfet(
        &format!("{prefix}_m3"),
        nmos.clone(),
        sizing.w_mirror,
        sizing.l,
        x1,
        x1,
        Circuit::gnd(),
        Circuit::gnd(),
    );
    ckt.add_mosfet(
        &format!("{prefix}_m4"),
        nmos.clone(),
        sizing.w_mirror,
        sizing.l,
        x2,
        x1,
        Circuit::gnd(),
        Circuit::gnd(),
    );
    // Second stage: NMOS common source from x2 (high swing).
    ckt.add_mosfet(
        &format!("{prefix}_m6"),
        nmos,
        sizing.w_cs,
        sizing.l,
        out,
        x2,
        Circuit::gnd(),
        Circuit::gnd(),
    );
    // Miller compensation with nulling resistor.
    let zm = ckt.node(&format!("{prefix}_zm"));
    ckt.add_capacitor(&format!("{prefix}_cm"), x2, zm, sizing.cm);
    ckt.add_resistor(&format!("{prefix}_rz"), zm, out, sizing.rz);

    let scale = if powered { 1.0 } else { 1e-6 };
    // Tail current sourced from the supply into the pair.
    let tail_id = ckt.add_isource(
        &format!("{prefix}_itail"),
        vdd,
        tail,
        Waveform::Dc(cfg.ota_i1 * scale),
    );
    // Second-stage load current sourced from the supply into the output.
    let load2 = ckt.add_isource(
        &format!("{prefix}_i2"),
        vdd,
        out,
        Waveform::Dc(cfg.ota_i2 * scale),
    );
    OtaHandles {
        tail: tail_id,
        load2,
    }
}

/// Adds a complete single-ended TIA: OTA with `+` at `vcm_ref`, `−` at
/// `input`, and `RF ∥ CF` feedback from `out` to `input`.
#[allow(clippy::too_many_arguments)]
pub fn build_tia(
    ckt: &mut Circuit,
    prefix: &str,
    input: Node,
    out: Node,
    vcm_ref: Node,
    vdd: Node,
    cfg: &MixerConfig,
    powered: bool,
) -> OtaHandles {
    let h = build_ota(
        ckt,
        &format!("{prefix}_ota"),
        vcm_ref,
        input,
        out,
        vdd,
        cfg,
        &OtaSizing::default(),
        powered,
    );
    ckt.add_resistor(&format!("{prefix}_rf"), out, input, cfg.tia_rf);
    ckt.add_capacitor(&format!("{prefix}_cf"), out, input, cfg.tia_cf);
    h
}

/// Extracted closed-loop TIA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiaParams {
    /// Low-frequency transimpedance |ZF| (Ω) — ideally `tia_rf`.
    pub zf0: f64,
    /// Closed-loop −3 dB corner (Hz) — ideally `1/(2π·RF·CF)`.
    pub corner_hz: f64,
    /// Input impedance magnitude at 5 MHz (Ω) — the virtual-ground
    /// quality, eq. (4).
    pub rin_at_5mhz: f64,
    /// Output noise PSD at 5 MHz (V²/Hz), all TIA generators.
    pub out_noise_5mhz: f64,
    /// Equivalent input *current* noise at 5 MHz (A²/Hz).
    pub in2_5mhz: f64,
    /// Supply current (A) — the paper says 3.3 mA.
    pub supply_current: f64,
}

/// Characterizes the closed-loop TIA against its netlist.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn characterize_tia(cfg: &MixerConfig) -> Result<TiaParams, AnalysisError> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vcm = ckt.node("vcm");
    let input = ckt.node("in");
    let out = ckt.node("out");
    let vddsrc = ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));
    ckt.add_vsource("vcm", vcm, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    // AC test current into the virtual ground.
    ckt.add_isource_ac("iin", Circuit::gnd(), input, Waveform::Dc(0.0), 1.0);
    build_tia(&mut ckt, "tia", input, out, vcm, vdd, cfg, true);

    let op = dc_operating_point(&ckt, &OpOptions::default())?;
    let supply_current = -op.branch_current(vddsrc);

    let nominal = cfg.tia_corner_hz();
    let freqs = log_space(nominal / 1e3, nominal * 100.0, 12);
    let ac = ac_sweep(&ckt, &op, &freqs)?;
    let zmag: Vec<f64> = (0..freqs.len()).map(|i| ac.voltage(i, out).abs()).collect();
    let zf0 = zmag[0];
    let corner = remix_numerics::interp::first_crossing(
        &freqs,
        &zmag,
        zf0 * std::f64::consts::FRAC_1_SQRT_2,
    )
    .unwrap_or(f64::INFINITY);

    let ac5 = ac_sweep(&ckt, &op, &[5e6])?;
    let rin = ac5.voltage(0, input).abs();
    let zf_5m = ac5.voltage(0, out).abs();

    let nr = output_noise(&ckt, &op, out, Circuit::gnd(), &[5e6])?;
    let out_noise = nr.total[0];
    let in2 = out_noise / (zf_5m * zf_5m);

    Ok(TiaParams {
        zf0,
        corner_hz: corner,
        rin_at_5mhz: rin,
        out_noise_5mhz: out_noise,
        in2_5mhz: in2,
        supply_current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tia_transimpedance_equals_rf() {
        let cfg = MixerConfig::default();
        let p = characterize_tia(&cfg).unwrap();
        assert!(
            (p.zf0 - cfg.tia_rf).abs() < 0.1 * cfg.tia_rf,
            "zf0 = {} vs RF = {}",
            p.zf0,
            cfg.tia_rf
        );
    }

    #[test]
    fn tia_corner_matches_rc() {
        let cfg = MixerConfig::default();
        let p = characterize_tia(&cfg).unwrap();
        let nominal = cfg.tia_corner_hz();
        assert!(
            (p.corner_hz - nominal).abs() < 0.35 * nominal,
            "corner {:.3e} vs nominal {:.3e}",
            p.corner_hz,
            nominal
        );
    }

    #[test]
    fn tia_virtual_ground_low_impedance() {
        // Paper: "TIA is designed in such a way so that very low impedance
        // is provided at the passive mixer output."
        let cfg = MixerConfig::default();
        let p = characterize_tia(&cfg).unwrap();
        assert!(
            p.rin_at_5mhz < cfg.tia_rf / 10.0,
            "rin = {} not ≪ RF = {}",
            p.rin_at_5mhz,
            cfg.tia_rf
        );
    }

    #[test]
    fn tia_power_in_3ma_class() {
        // Paper: "The TIA draws a total of 3.3 mA from the supply."
        let p = characterize_tia(&MixerConfig::default()).unwrap();
        assert!(
            p.supply_current > 1.5e-3 && p.supply_current < 6e-3,
            "i = {} mA",
            p.supply_current * 1e3
        );
    }

    #[test]
    fn unpowered_tia_draws_nothing() {
        let cfg = MixerConfig::default();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vcm = ckt.node("vcm");
        let input = ckt.node("in");
        let out = ckt.node("out");
        let vddsrc = ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));
        ckt.add_vsource("vcm", vcm, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
        ckt.add_isource("iin", Circuit::gnd(), input, Waveform::Dc(0.0));
        build_tia(&mut ckt, "tia", input, out, vcm, vdd, &cfg, false);
        let op = dc_operating_point(&ckt, &OpOptions::default()).unwrap();
        let i = -op.branch_current(vddsrc);
        assert!(i.abs() < 50e-6, "off-state current {} A", i);
    }

    #[test]
    fn tia_noise_reasonable() {
        let p = characterize_tia(&MixerConfig::default()).unwrap();
        // Output noise of a few-kΩ TIA: nV²/Hz scale; input current noise
        // on the pA/√Hz scale.
        assert!(p.out_noise_5mhz > 0.0 && p.out_noise_5mhz < 1e-12);
        let in_pa = p.in2_5mhz.sqrt() * 1e12;
        assert!(in_pa > 0.1 && in_pa < 1000.0, "in = {in_pa} pA/√Hz");
    }
}

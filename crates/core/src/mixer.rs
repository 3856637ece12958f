//! The reconfigurable mixer netlist (paper Fig. 4) — both modes in one
//! circuit, switched by control voltages, exactly as fabricated silicon
//! would be.
//!
//! Signal path:
//!
//! ```text
//!            ┌── Mp1 (sw1) ──┐                 (passive: current route)
//! RF ─ TCA ──┤               ├─ quad in ─ QUAD ─ quad out ─┬─ TG load ─ VDD
//!            └─ Cg ┬ Mn1 gate┘   (LO±)                     ├─ Cc
//!                  Rb → Vb       Mn1/Mn2 = Gm (sw5-6)      ├─ TIA → IF out
//!                                tail = M7 (sw7)           (passive)
//! ```
//!
//! Mode control:
//!
//! | switch | element          | active        | passive       |
//! |--------|------------------|---------------|---------------|
//! | 1-2    | PMOS Mp1/Mp2     | off (Vg=VDD)  | on (Vg=0), doubles as Rdeg |
//! | 3-4    | TG loads to VDD  | on            | off           |
//! | 5-6    | Gm MOS Mn1/Mn2   | biased (Vb)   | off (Vb=0)    |
//! | 7      | tail NMOS M7     | saturated     | off           |
//! | p3     | TIA power        | off           | on            |

use crate::bias::nmos_vgs_for_current;
use crate::config::{MixerConfig, MixerMode};
use crate::quad::build_quad;
use crate::tca::build_tca_half;
use crate::tg::size_tg_load;
use crate::tia::build_tia;
use remix_circuit::{Circuit, Element, Node, TransmissionGate, Waveform};

/// RF drive applied to the differential input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RfDrive {
    /// Bias only (operating-point / noise studies).
    Bias,
    /// Small-signal AC excitation of 1 V differential (0.5 V per side).
    Ac,
    /// A single tone of the given *differential* peak amplitude.
    Tone {
        /// RF frequency (Hz).
        freq: f64,
        /// Differential peak amplitude (V).
        amplitude: f64,
    },
    /// Two equal tones (IIP3 stimulus), each of the given differential
    /// peak amplitude.
    TwoTone {
        /// First tone (Hz).
        f1: f64,
        /// Second tone (Hz).
        f2: f64,
        /// Differential peak amplitude per tone (V).
        amplitude: f64,
    },
}

/// LO drive description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoDrive {
    /// LO frequency (Hz).
    pub freq: f64,
    /// When `true` the LO is *held* at its positive extreme (LO+ high,
    /// LO− low) instead of oscillating. At the sinusoid's DC midpoint all
    /// four switches are off, so operating-point and power measurements
    /// must be taken at an extreme — at any instant of a real LO cycle
    /// exactly one switch pair conducts, and the held state is
    /// representative of the cycle-averaged supply current.
    pub held_extreme: bool,
}

impl LoDrive {
    /// A sinusoidal LO at `freq`.
    pub fn sine(freq: f64) -> Self {
        LoDrive {
            freq,
            held_extreme: false,
        }
    }

    /// LO held at its positive extreme (for OP/power studies).
    pub fn held(freq: f64) -> Self {
        LoDrive {
            freq,
            held_extreme: true,
        }
    }
}

/// All externally interesting nodes of the built mixer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixerNodes {
    /// RF source EMF nodes (before the 50 Ω source resistances).
    pub rf_emf_p: Node,
    /// Negative-side EMF.
    pub rf_emf_n: Node,
    /// TCA input (gate) nodes.
    pub in_p: Node,
    /// Negative side.
    pub in_n: Node,
    /// TCA output nodes.
    pub tca_p: Node,
    /// Negative side.
    pub tca_n: Node,
    /// Quad source (input) nodes.
    pub qin_p: Node,
    /// Negative side.
    pub qin_n: Node,
    /// Quad drain (output) nodes — the active-mode IF output.
    pub qout_p: Node,
    /// Negative side.
    pub qout_n: Node,
    /// TIA outputs — the passive-mode IF output.
    pub tia_p: Node,
    /// Negative side.
    pub tia_n: Node,
    /// LO gate nodes.
    pub lo_p: Node,
    /// Negative side.
    pub lo_n: Node,
}

impl MixerNodes {
    /// The mode-appropriate IF output pair (paper: active output taken
    /// before the TIA, passive output at the TIA).
    pub fn if_out(&self, mode: MixerMode) -> (Node, Node) {
        match mode {
            MixerMode::Active => (self.qout_p, self.qout_n),
            MixerMode::Passive => (self.tia_p, self.tia_n),
        }
    }
}

/// The reconfigurable down-conversion mixer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurableMixer {
    config: MixerConfig,
}

impl ReconfigurableMixer {
    /// Creates a mixer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MixerConfig::assert_valid`]).
    pub fn new(config: MixerConfig) -> Self {
        config.assert_valid();
        ReconfigurableMixer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MixerConfig {
        &self.config
    }

    /// Builds the complete transistor-level netlist for `mode` with the
    /// given RF and LO drives.
    pub fn build(&self, mode: MixerMode, rf: &RfDrive, lo: &LoDrive) -> (Circuit, MixerNodes) {
        let cfg = &self.config;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));

        // --- RF differential input with source resistance and coupling ---
        let rf_emf_p = ckt.node("rf_emf_p");
        let rf_emf_n = ckt.node("rf_emf_n");
        let in_p = ckt.node("in_p");
        let in_n = ckt.node("in_n");
        let (wave_p, wave_n, ac): (Waveform, Waveform, f64) = match *rf {
            RfDrive::Bias => (Waveform::Dc(0.0), Waveform::Dc(0.0), 0.0),
            RfDrive::Ac => (Waveform::Dc(0.0), Waveform::Dc(0.0), 0.5),
            RfDrive::Tone { freq, amplitude } => (
                Waveform::Sin {
                    offset: 0.0,
                    amplitude: amplitude / 2.0,
                    freq,
                    phase: 0.0,
                    delay: 0.0,
                },
                Waveform::Sin {
                    offset: 0.0,
                    amplitude: -amplitude / 2.0,
                    freq,
                    phase: 0.0,
                    delay: 0.0,
                },
                0.0,
            ),
            RfDrive::TwoTone { f1, f2, amplitude } => (
                Waveform::TwoTone {
                    offset: 0.0,
                    amplitude: amplitude / 2.0,
                    f1,
                    f2,
                },
                Waveform::TwoTone {
                    offset: 0.0,
                    amplitude: -amplitude / 2.0,
                    f1,
                    f2,
                },
                0.0,
            ),
        };
        ckt.add_vsource_ac("vrf_p", rf_emf_p, Circuit::gnd(), wave_p, ac, 0.0);
        ckt.add_vsource_ac(
            "vrf_n",
            rf_emf_n,
            Circuit::gnd(),
            wave_n,
            ac,
            std::f64::consts::PI,
        );
        // 50 Ω source, series coupling cap, then the 50 Ω termination —
        // returned to the (AC-ground) bias rail so it simultaneously
        // terminates the port and biases the TCA gates. The cap ahead of
        // the termination puts the receiver's low band edge at
        // 1/(2π·(rs+rterm)·Cin) ≈ 0.5 GHz as in the paper's Fig. 8.
        let pre_p = ckt.node("rfc_p");
        let pre_n = ckt.node("rfc_n");
        ckt.add_resistor("rs_p", rf_emf_p, pre_p, cfg.rs);
        ckt.add_resistor("rs_n", rf_emf_n, pre_n, cfg.rs);
        ckt.add_capacitor("cin_p", pre_p, in_p, cfg.input_couple_c);
        ckt.add_capacitor("cin_n", pre_n, in_n, cfg.input_couple_c);
        let vbin = ckt.node("vb_in");
        ckt.add_vsource("vb_in", vbin, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
        ckt.add_resistor("rterm_p", in_p, vbin, cfg.input_term_r);
        ckt.add_resistor("rterm_n", in_n, vbin, cfg.input_term_r);

        // --- TCA (Fig. 3) ---
        let tca_p = ckt.node("tca_p");
        let tca_n = ckt.node("tca_n");
        build_tca_half(&mut ckt, "tca_p", in_p, tca_p, vdd, cfg);
        build_tca_half(&mut ckt, "tca_n", in_n, tca_n, vdd, cfg);
        // CMFB proxy load defining the output common mode at VDD/2.
        let vcm = ckt.node("vcm");
        ckt.add_vsource("vcm", vcm, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
        ckt.add_resistor("rcm_p", tca_p, vcm, cfg.tca_rload);
        ckt.add_resistor("rcm_n", tca_n, vcm, cfg.tca_rload);
        // Layout parasitic at the TCA output (paper's C_PAR).
        ckt.add_capacitor("cpar_p", tca_p, Circuit::gnd(), cfg.node_parasitic_c);
        ckt.add_capacitor("cpar_n", tca_n, Circuit::gnd(), cfg.node_parasitic_c);

        // --- Mode switches Mp1/Mp2 (switch 1-2) ---
        let qin_p = ckt.node("qin_p");
        let qin_n = ckt.node("qin_n");
        let vlogic = ckt.node("vlogic");
        ckt.add_vsource(
            "vlogic",
            vlogic,
            Circuit::gnd(),
            Waveform::Dc(mode.vlogic(cfg.vdd)),
        );
        ckt.add_mosfet(
            "mp1",
            cfg.pmos.clone(),
            cfg.sw12_w,
            cfg.sw12_l,
            qin_p,
            vlogic,
            tca_p,
            vdd,
        );
        ckt.add_mosfet(
            "mp2",
            cfg.pmos.clone(),
            cfg.sw12_w,
            cfg.sw12_l,
            qin_n,
            vlogic,
            tca_n,
            vdd,
        );

        // --- Gm devices Mn1/Mn2 (switch 5-6) and tail M7 (switch 7) ---
        let g_p = ckt.node("gmg_p");
        let g_n = ckt.node("gmg_n");
        ckt.add_capacitor("cg_p", tca_p, g_p, cfg.gm_couple_c);
        ckt.add_capacitor("cg_n", tca_n, g_n, cfg.gm_couple_c);
        let vb_gm = ckt.node("vb_gm");
        let gm_bias = match mode {
            MixerMode::Active => cfg.gm_bias,
            MixerMode::Passive => 0.0,
        };
        ckt.add_vsource("vb_gm", vb_gm, Circuit::gnd(), Waveform::Dc(gm_bias));
        ckt.add_resistor("rb_gm_p", vb_gm, g_p, cfg.gm_bias_r);
        ckt.add_resistor("rb_gm_n", vb_gm, g_n, cfg.gm_bias_r);
        let tail = ckt.node("tail");
        ckt.add_mosfet(
            "mn1",
            cfg.nmos.clone(),
            cfg.gm_w,
            cfg.gm_l,
            qin_p,
            g_p,
            tail,
            Circuit::gnd(),
        );
        ckt.add_mosfet(
            "mn2",
            cfg.nmos.clone(),
            cfg.gm_w,
            cfg.gm_l,
            qin_n,
            g_n,
            tail,
            Circuit::gnd(),
        );
        // Tail current source: NMOS biased in saturation (active) or off.
        let (w7, l7) = (cfg.tail_w, cfg.tail_l);
        let vb7_val = match mode {
            MixerMode::Active => {
                nmos_vgs_for_current(&cfg.nmos, w7, l7, 0.12, cfg.tail_current, cfg.vdd)
            }
            MixerMode::Passive => 0.0,
        };
        let vb7 = ckt.node("vb7");
        ckt.add_vsource("vb7", vb7, Circuit::gnd(), Waveform::Dc(vb7_val));
        ckt.add_mosfet(
            "m7",
            cfg.nmos.clone(),
            w7,
            l7,
            tail,
            vb7,
            Circuit::gnd(),
            Circuit::gnd(),
        );

        // --- LO drive and switching quad ---
        let lo_p = ckt.node("lo_p");
        let lo_n = ckt.node("lo_n");
        let (wave_lo_p, wave_lo_n) = if lo.held_extreme {
            (
                Waveform::Dc(cfg.lo_common + cfg.lo_amplitude),
                Waveform::Dc(cfg.lo_common - cfg.lo_amplitude),
            )
        } else {
            // Rail-to-rail buffered LO: the quad gates see a near-square
            // drive (every practical mixer has LO buffers; a bare sine
            // leaves the NMOS switches conducting for well under half
            // the period because the gate must exceed channel + Vth).
            let period = 1.0 / lo.freq;
            let edge = 0.05 * period;
            let square = |delay: f64| Waveform::Pulse {
                v1: cfg.lo_common - cfg.lo_amplitude,
                v2: cfg.lo_common + cfg.lo_amplitude,
                delay,
                rise: edge,
                fall: edge,
                width: 0.5 * period - edge,
                period,
            };
            (square(0.0), square(0.5 * period))
        };
        ckt.add_vsource("vlo_p", lo_p, Circuit::gnd(), wave_lo_p);
        ckt.add_vsource("vlo_n", lo_n, Circuit::gnd(), wave_lo_n);
        let qout_p = ckt.node("qout_p");
        let qout_n = ckt.node("qout_n");
        build_quad(
            &mut ckt, "quad", qin_p, qin_n, lo_p, lo_n, qout_p, qout_n, cfg,
        );

        // --- TG loads (switch 3-4) and Cc ---
        // Expected IF common mode: the TG only carries the unbled share
        // of the tail current. Sizing at the true CM keeps the TG's NMOS
        // half off there, so the realized load equals the target.
        let v_pass =
            (cfg.vdd - (1.0 - cfg.bleed_frac) * cfg.tail_current / 2.0 * cfg.tg_load_r).max(0.5);
        let tg_sizing = size_tg_load(&cfg.nmos, &cfg.pmos, cfg.tg_load_r, cfg.vdd, v_pass, 65e-9);
        let tg_ctl = ckt.node("tg_ctl");
        let tg_ctl_bar = ckt.node("tg_ctl_bar");
        let (ctl_v, ctl_bar_v) = match mode {
            MixerMode::Active => (cfg.vdd, 0.0),
            MixerMode::Passive => (0.0, cfg.vdd),
        };
        ckt.add_vsource("vtg_ctl", tg_ctl, Circuit::gnd(), Waveform::Dc(ctl_v));
        ckt.add_vsource(
            "vtg_ctlb",
            tg_ctl_bar,
            Circuit::gnd(),
            Waveform::Dc(ctl_bar_v),
        );
        TransmissionGate::add_with_models(
            &mut ckt,
            "tg3",
            vdd,
            qout_p,
            tg_ctl,
            tg_ctl_bar,
            vdd,
            tg_sizing,
            cfg.nmos.clone(),
            cfg.pmos.clone(),
        );
        TransmissionGate::add_with_models(
            &mut ckt,
            "tg4",
            vdd,
            qout_n,
            tg_ctl,
            tg_ctl_bar,
            vdd,
            tg_sizing,
            cfg.nmos.clone(),
            cfg.pmos.clone(),
        );
        // Current bleeding (active mode only): PMOS-equivalent sources
        // carry most of the load DC so the TG stays a high-value signal
        // load inside the 1.2 V headroom.
        let bleed = match mode {
            MixerMode::Active => cfg.bleed_frac * cfg.tail_current / 2.0,
            MixerMode::Passive => 0.0,
        };
        if bleed > 0.0 {
            ckt.add_isource("ibleed_p", vdd, qout_p, Waveform::Dc(bleed));
            ckt.add_isource("ibleed_n", vdd, qout_n, Waveform::Dc(bleed));
        }
        ckt.add_capacitor("cc_p", qout_p, Circuit::gnd(), cfg.cc);
        ckt.add_capacitor("cc_n", qout_n, Circuit::gnd(), cfg.cc);

        // --- TIA (powered only in passive mode; paper's p3 switch) ---
        let tia_p = ckt.node("tia_p");
        let tia_n = ckt.node("tia_n");
        let powered = mode == MixerMode::Passive;
        build_tia(&mut ckt, "tia_p", qout_p, tia_p, vcm, vdd, cfg, powered);
        build_tia(&mut ckt, "tia_n", qout_n, tia_n, vcm, vdd, cfg, powered);

        let nodes = MixerNodes {
            rf_emf_p,
            rf_emf_n,
            in_p,
            in_n,
            tca_p,
            tca_n,
            qin_p,
            qin_n,
            qout_p,
            qout_n,
            tia_p,
            tia_n,
            lo_p,
            lo_n,
        };

        // Build-time ERC: the wiring above is done by hand, so a deny
        // finding here is a bug in this module, not in the caller's use.
        #[cfg(debug_assertions)]
        {
            let report = remix_lint::lint(&ckt, &remix_lint::LintConfig::default());
            assert!(
                report.is_clean(),
                "mixer ({mode:?}) netlist fails ERC:\n{}",
                report.render_text()
            );
        }

        (ckt, nodes)
    }

    /// Runs the full ERC pass over the `mode` netlist (bias drives, LO
    /// held) and returns the report. The paper's netlists must be
    /// deny-clean in both modes; warn-level findings are surfaced for
    /// inspection (see the `lint` binary in `remix-bench`).
    pub fn lint_report(&self, mode: MixerMode) -> remix_lint::LintReport {
        let (ckt, _) = self.build(mode, &RfDrive::Bias, &LoDrive::held(2.4e9));
        remix_lint::lint(&ckt, &remix_lint::LintConfig::default())
    }
}

impl ReconfigurableMixer {
    /// Builds a netlist whose mode *switches live* at `t_switch`: every
    /// control source (Vlogic, the Gm and tail biases, the TG controls,
    /// the TIA bias currents and the bleed sources) transitions from the
    /// `first` mode's level to the `second` mode's level with `edge`-long
    /// ramps — the paper's "reconfiguration in single circuitry"
    /// exercised in one transient run.
    pub fn build_mode_switch(
        &self,
        first: MixerMode,
        second: MixerMode,
        t_switch: f64,
        edge: f64,
        rf: &RfDrive,
        lo: &LoDrive,
    ) -> (Circuit, MixerNodes) {
        assert!(t_switch > 0.0 && edge > 0.0);
        let cfg = &self.config;
        // Base build in Active mode so the bleed sources exist; every
        // mode-dependent value is overwritten below.
        let (mut ckt, nodes) = self.build(MixerMode::Active, rf, lo);

        let vb7_active = nmos_vgs_for_current(
            &cfg.nmos,
            cfg.tail_w,
            cfg.tail_l,
            0.12,
            cfg.tail_current,
            cfg.vdd,
        );
        let level = |name: &str, mode: MixerMode| -> f64 {
            match (name, mode) {
                ("vlogic", m) => m.vlogic(cfg.vdd),
                ("vb_gm", MixerMode::Active) => cfg.gm_bias,
                ("vb_gm", MixerMode::Passive) => 0.0,
                ("vb7", MixerMode::Active) => vb7_active,
                ("vb7", MixerMode::Passive) => 0.0,
                ("vtg_ctl", MixerMode::Active) => cfg.vdd,
                ("vtg_ctl", MixerMode::Passive) => 0.0,
                ("vtg_ctlb", MixerMode::Active) => 0.0,
                ("vtg_ctlb", MixerMode::Passive) => cfg.vdd,
                (n, m) if n.ends_with("_itail") => match m {
                    MixerMode::Active => cfg.ota_i1 * 1e-6,
                    MixerMode::Passive => cfg.ota_i1,
                },
                (n, m) if n.ends_with("_i2") => match m {
                    MixerMode::Active => cfg.ota_i2 * 1e-6,
                    MixerMode::Passive => cfg.ota_i2,
                },
                (n, m) if n.starts_with("ibleed") => match m {
                    MixerMode::Active => cfg.bleed_frac * cfg.tail_current / 2.0,
                    MixerMode::Passive => 0.0,
                },
                _ => unreachable!("unknown control '{name}'"), // audit: allow(AUD002): the control list two arms up names exactly these sources
            }
        };
        let controls = [
            "vlogic",
            "vb_gm",
            "vb7",
            "vtg_ctl",
            "vtg_ctlb",
            "tia_p_ota_itail",
            "tia_p_ota_i2",
            "tia_n_ota_itail",
            "tia_n_ota_i2",
            "ibleed_p",
            "ibleed_n",
        ];
        for name in controls {
            let id = ckt
                .find_element(name)
                .unwrap_or_else(|| panic!("control source '{name}' missing")); // audit: allow(AUD002): the generated netlist contains every control source it names
            let pulse = Waveform::Pulse {
                v1: level(name, first),
                v2: level(name, second),
                delay: t_switch,
                rise: edge,
                fall: edge,
                width: 1e3, // effectively one-shot
                period: f64::INFINITY,
            };
            match ckt.element_mut(id) {
                Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => {
                    *wave = pulse;
                }
                _ => unreachable!("control '{name}' is not a source"), // audit: allow(AUD002): controls are built as sources by the netlist generator
            }
        }
        (ckt, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_analysis::{dc_operating_point, supply_power, OpOptions};

    fn mixer() -> ReconfigurableMixer {
        ReconfigurableMixer::new(MixerConfig::default())
    }

    fn op_of(mode: MixerMode) -> (Circuit, MixerNodes, remix_analysis::OperatingPoint) {
        let m = mixer();
        let (ckt, nodes) = m.build(mode, &RfDrive::Bias, &LoDrive::held(2.4e9));
        let op = dc_operating_point(&ckt, &OpOptions::default()).unwrap();
        (ckt, nodes, op)
    }

    /// The RF sources' AC magnitude must not reach the DC solve: the
    /// extraction solves each mode's operating point once, on whichever
    /// build it needs, and reads supply power from it.
    #[test]
    fn ac_drive_leaves_the_operating_point_and_power_bit_identical() {
        let m = mixer();
        let lo = LoDrive::held(2.4e9);
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let (bias_ckt, _, bias_op) = op_of(mode);
            let (ac_ckt, _) = m.build(mode, &RfDrive::Ac, &lo);
            let ac_op = dc_operating_point(&ac_ckt, &OpOptions::default()).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&bias_op.solution),
                bits(&ac_op.solution),
                "{mode:?} solution"
            );
            assert_eq!(bias_op.iterations, ac_op.iterations, "{mode:?} iterations");
            assert_eq!(
                supply_power(&bias_ckt, &bias_op).total_mw().to_bits(),
                supply_power(&ac_ckt, &ac_op).total_mw().to_bits(),
                "{mode:?} supply power"
            );
        }
    }

    #[test]
    fn netlist_lints_clean_in_both_modes() {
        let m = mixer();
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let report = m.lint_report(mode);
            assert!(report.is_clean(), "{mode:?}:\n{}", report.render_text());
        }
    }

    #[test]
    fn active_op_biases_gilbert() {
        let (ckt, nodes, op) = op_of(MixerMode::Active);
        // Tail device carries roughly the programmed current.
        let m7 = ckt.find_element("m7").unwrap();
        let id7 = op.mos_eval(m7).unwrap().id;
        assert!(
            (id7 - mixer().config().tail_current).abs() < 0.4 * mixer().config().tail_current,
            "tail current = {:.3} mA vs programmed {:.3} mA",
            id7 * 1e3,
            mixer().config().tail_current * 1e3
        );
        // IF common mode below VDD but with headroom. With the LO held at
        // its extreme the full tail current flows through one branch, so
        // this is the worst-case (largest) load drop.
        let vout = op.voltage(nodes.qout_p);
        assert!(vout > 0.25 && vout < 1.15, "v(qout) = {vout}");
        // TCA output near VDD/2.
        let vtca = op.voltage(nodes.tca_p);
        assert!((vtca - 0.6).abs() < 0.2, "v(tca) = {vtca}");
    }

    #[test]
    fn passive_op_routes_through_switches() {
        let (ckt, nodes, op) = op_of(MixerMode::Passive);
        // Mp1 is on: quad input follows the TCA common mode.
        let vqin = op.voltage(nodes.qin_p);
        let vtca = op.voltage(nodes.tca_p);
        assert!((vqin - vtca).abs() < 0.1, "qin {vqin} vs tca {vtca}");
        // Tail off: negligible current in M7.
        let m7 = ckt.find_element("m7").unwrap();
        assert!(op.mos_eval(m7).unwrap().id.abs() < 1e-5);
        // TIA holds the quad outputs at the virtual ground.
        let vq = op.voltage(nodes.qout_p);
        assert!((vq - 0.6).abs() < 0.15, "v(qout) = {vq}");
    }

    #[test]
    fn power_in_paper_range_both_modes() {
        // Paper: 9.36 mW active, 9.24 mW passive. Accept the right class
        // and the right *ordering mechanism* (TIA only burns in passive).
        let (ckt_a, _, op_a) = op_of(MixerMode::Active);
        let (ckt_p, _, op_p) = op_of(MixerMode::Passive);
        let pa = supply_power(&ckt_a, &op_a).total_mw();
        let pp = supply_power(&ckt_p, &op_p).total_mw();
        assert!(pa > 4.0 && pa < 16.0, "active {pa} mW");
        assert!(pp > 4.0 && pp < 16.0, "passive {pp} mW");
    }

    #[test]
    fn mode_output_selection() {
        let m = mixer();
        let (_, nodes) = m.build(MixerMode::Active, &RfDrive::Bias, &LoDrive::sine(2.4e9));
        assert_eq!(
            nodes.if_out(MixerMode::Active),
            (nodes.qout_p, nodes.qout_n)
        );
        assert_eq!(nodes.if_out(MixerMode::Passive), (nodes.tia_p, nodes.tia_n));
    }
}

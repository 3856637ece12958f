//! Family (c): sub-50 µW MedRadio (401–406 MHz) front-end (Chang et
//! al., PAPERS.md).
//!
//! Implantable MedRadio budgets force every device into weak inversion:
//! a subthreshold-biased common-source transconductor (gate bias
//! *below* `vt0`) drives a large resistive load, AC-couples into a
//! single passive mixing switch, and lands on a baseband R‖C. Total
//! supply power must stay under 50 µW — the study drivers' MedRadio
//! metric reads that headline number from the operating point.
//!
//! This family exists to stress the MOS model's weak-inversion corner:
//! the subthreshold/saturation boundary must be smooth (no Jacobian
//! kink) for these bias points to converge at all — see the
//! `weak_inversion_gm_finite_and_monotone` test in `remix-circuit`.

use crate::error::{in_range, TopoError};
use crate::FAMILY_MEDRADIO;
use remix_circuit::{Circuit, ElementId, MosModel, Node, Waveform};

/// Parameters of the MedRadio front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct MedRadioParams {
    /// Transconductor width (m), `[5 µm, 200 µm]`.
    pub w_gm: f64,
    /// Transconductor length (m), `[100 nm, 2 µm]` — longer than
    /// minimum for subthreshold matching.
    pub l_gm: f64,
    /// Load resistance (Ω), `[20 kΩ, 500 kΩ]` — micro-amp currents need
    /// large loads for gain.
    pub r_load: f64,
    /// Gate bias (V), `[0.15, 0.4]`; constrained below `vt0 − 20 mV`
    /// (weak inversion).
    pub vbias: f64,
    /// Mixer switch width (m), `[2 µm, 100 µm]`.
    pub w_sw: f64,
    /// Baseband resistance (Ω), `[1 kΩ, 100 kΩ]`.
    pub r_bb: f64,
    /// Baseband capacitance (F), `[1 pF, 10 nF]`.
    pub c_bb: f64,
    /// Coupling capacitance into the mixer (F), `[100 fF, 100 pF]`.
    pub c_couple: f64,
    /// DC-return resistance at the mixer input (Ω), `[100 kΩ, 10 MΩ]`.
    pub r_bias: f64,
    /// Supply (V), `[1.0, 1.3]`.
    pub vdd: f64,
    /// RF frequency (Hz), the MedRadio band `[401 MHz, 406 MHz]`.
    pub f_rf: f64,
    /// LO frequency (Hz), `[390 MHz, 406 MHz]`.
    pub f_lo: f64,
    /// RF amplitude (V), `[0.1 mV, 50 mV]`.
    pub rf_amp: f64,
    /// Device model.
    pub nmos: MosModel,
}

impl Default for MedRadioParams {
    fn default() -> Self {
        MedRadioParams {
            w_gm: 60e-6,
            l_gm: 200e-9,
            r_load: 100e3,
            vbias: 0.30,
            w_sw: 10e-6,
            r_bb: 10e3,
            c_bb: 100e-12,
            c_couple: 10e-12,
            r_bias: 1e6,
            vdd: 1.2,
            f_rf: 403e6,
            f_lo: 402e6,
            rf_amp: 1e-3,
            nmos: MosModel::nmos_65nm(),
        }
    }
}

/// A generated MedRadio front-end with its analysis handles.
#[derive(Debug, Clone)]
pub struct MedRadioFrontEnd {
    /// The compiled netlist.
    pub circuit: Circuit,
    /// RF gate-drive source.
    pub rf_source: ElementId,
    /// Supply source (its branch current is the power-budget number).
    pub vdd_source: ElementId,
    /// Amplifier output node.
    pub amp: Node,
    /// Mixer input node (after the coupling cap).
    pub mix: Node,
    /// Baseband output node.
    pub bb: Node,
}

impl MedRadioParams {
    /// Checks every parameter against its documented range, including
    /// the weak-inversion bias constraint.
    ///
    /// # Errors
    ///
    /// [`TopoError`] naming the offending parameter or constraint.
    pub fn validate(&self) -> Result<(), TopoError> {
        let f = FAMILY_MEDRADIO;
        in_range(f, "w_gm", self.w_gm, 5e-6, 200e-6)?;
        in_range(f, "l_gm", self.l_gm, 100e-9, 2e-6)?;
        in_range(f, "r_load", self.r_load, 20e3, 500e3)?;
        in_range(f, "vbias", self.vbias, 0.15, 0.4)?;
        in_range(f, "w_sw", self.w_sw, 2e-6, 100e-6)?;
        in_range(f, "r_bb", self.r_bb, 1e3, 100e3)?;
        in_range(f, "c_bb", self.c_bb, 1e-12, 10e-9)?;
        in_range(f, "c_couple", self.c_couple, 100e-15, 100e-12)?;
        in_range(f, "r_bias", self.r_bias, 100e3, 10e6)?;
        in_range(f, "vdd", self.vdd, 1.0, 1.3)?;
        in_range(f, "f_rf", self.f_rf, 401e6, 406e6)?;
        in_range(f, "f_lo", self.f_lo, 390e6, 406e6)?;
        in_range(f, "rf_amp", self.rf_amp, 0.1e-3, 50e-3)?;
        if self.vbias > self.nmos.vt0 - 0.02 {
            return Err(TopoError::Constraint {
                family: f,
                requirement: format!(
                    "gate bias {} V must sit below threshold {} V by ≥ 20 mV \
                     (weak inversion is the family's point)",
                    self.vbias, self.nmos.vt0
                ),
            });
        }
        Ok(())
    }

    /// Compiles the parameters to a circuit.
    ///
    /// # Errors
    ///
    /// [`TopoError`] when validation fails.
    pub fn generate(&self) -> Result<MedRadioFrontEnd, TopoError> {
        self.validate()?;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let rfin = ckt.node("rfin");
        let amp = ckt.node("amp");
        let mix = ckt.node("mix");
        let lo = ckt.node("lo");
        let bb = ckt.node("bb");
        let vdd_source = ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(self.vdd));
        let rf_source = ckt.add_vsource(
            "vrf",
            rfin,
            Circuit::gnd(),
            Waveform::Sin {
                offset: self.vbias,
                amplitude: self.rf_amp,
                freq: self.f_rf,
                phase: 0.0,
                delay: 0.0,
            },
        );
        ckt.add_mosfet(
            "mgm",
            self.nmos.clone(),
            self.w_gm,
            self.l_gm,
            amp,
            rfin,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        ckt.add_resistor("rload", vdd, amp, self.r_load);
        ckt.add_capacitor("cc", amp, mix, self.c_couple);
        ckt.add_resistor("rbias", mix, Circuit::gnd(), self.r_bias);
        let t_lo = 1.0 / self.f_lo;
        ckt.add_vsource(
            "vlo",
            lo,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: self.vdd,
                delay: 0.0,
                rise: 0.02 * t_lo,
                fall: 0.02 * t_lo,
                width: 0.46 * t_lo,
                period: t_lo,
            },
        );
        ckt.add_mosfet(
            "msw",
            self.nmos.clone(),
            self.w_sw,
            65e-9,
            mix,
            lo,
            bb,
            Circuit::gnd(),
        );
        ckt.add_resistor("rbb", bb, Circuit::gnd(), self.r_bb);
        ckt.add_capacitor("cbb", bb, Circuit::gnd(), self.c_bb);
        Ok(MedRadioFrontEnd {
            circuit: ckt,
            rf_source,
            vdd_source,
            amp,
            mix,
            bb,
        })
    }

    /// Emits the generated circuit as a SPICE deck.
    ///
    /// # Errors
    ///
    /// [`TopoError`] when validation fails.
    pub fn emit(&self) -> Result<String, TopoError> {
        let fe = self.generate()?;
        Ok(remix_circuit::to_spice(
            &fe.circuit,
            &format!(
                "remix-topo medradio f_rf={:.4e} vbias={}",
                self.f_rf, self.vbias
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_analysis::{dc_operating_point, supply_power, OpOptions};
    use remix_lint::{lint, LintConfig};

    #[test]
    fn default_params_generate_clean_circuit() {
        let fe = MedRadioParams::default().generate().unwrap();
        assert!(fe.circuit.defects().is_empty());
        let report = lint(&fe.circuit, &LintConfig::default());
        assert_eq!(report.deny_count(), 0, "{}", report.render_text());
        assert_eq!(fe.circuit.stats().mosfets, 2);
    }

    #[test]
    fn default_bias_meets_the_power_budget() {
        let fe = MedRadioParams::default().generate().unwrap();
        let op = dc_operating_point(&fe.circuit, &OpOptions::default()).unwrap();
        let uw = supply_power(&fe.circuit, &op).total_mw() * 1e3;
        assert!(uw > 0.1, "amplifier draws no current ({uw} µW)");
        assert!(uw < 50.0, "power budget blown: {uw} µW ≥ 50 µW");
    }

    #[test]
    fn weak_inversion_constraint_enforced() {
        let p = MedRadioParams {
            vbias: 0.34,
            ..MedRadioParams::default()
        };
        assert!(matches!(p.validate(), Err(TopoError::Constraint { .. })));
    }

    #[test]
    fn band_edges_validated() {
        let p = MedRadioParams {
            f_rf: 400e6,
            ..MedRadioParams::default()
        };
        match p.validate() {
            Err(TopoError::OutOfRange { param, .. }) => assert_eq!(param, "f_rf"),
            other => panic!("expected OutOfRange(f_rf), got {other:?}"),
        }
    }

    #[test]
    fn amp_stage_has_gain_worth_of_drop() {
        // In weak inversion the µA-scale drain current across the
        // 100 kΩ load must still drop enough volts to show the stage is
        // alive, without crushing the output to the rail.
        let p = MedRadioParams::default();
        let fe = p.generate().unwrap();
        let op = dc_operating_point(&fe.circuit, &OpOptions::default()).unwrap();
        let v_amp = op.voltage(fe.amp);
        assert!(v_amp > 0.1 && v_amp < p.vdd - 0.1, "v_amp = {v_amp}");
    }
}

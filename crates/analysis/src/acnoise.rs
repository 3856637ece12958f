//! LTI small-signal noise analysis.
//!
//! At a DC operating point every noise generator (resistor thermal, MOSFET
//! channel thermal and flicker) is an independent current source across
//! its element. For each analysis frequency the complex MNA matrix is
//! factored once and each generator's transfer function to the output is
//! obtained by one extra solve; the output PSD is `Σ |H_k(f)|²·S_k(f)`.
//!
//! This is exactly SPICE `.NOISE`. It is valid for time-invariant
//! operating points — the Gm stage, the OTA/TIA — and is complemented for
//! the complete (periodically switched) mixer by the Monte-Carlo
//! transient-noise path in [`crate::trannoise`] and the analytic LTV
//! cascade in `remix-rfkit` (see DESIGN.md).

use crate::error::AnalysisError;
use crate::op::OperatingPoint;
use crate::stamp::AcAssembler;
use remix_circuit::consts::{BOLTZMANN, ROOM_TEMP};
use remix_circuit::{stamp_current, Circuit, Element, Node};
use remix_numerics::{Complex, SparseSolver};

/// One noise generator discovered in the circuit.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    /// Name of the owning element.
    pub element: String,
    /// Injection node (current flows `a → b` through the generator).
    pub a: Node,
    /// Return node.
    pub b: Node,
    /// Generator kind.
    pub kind: NoiseKind,
}

/// Noise generator kinds with their PSD parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseKind {
    /// Frequency-flat current PSD (A²/Hz): resistor or MOS channel
    /// thermal noise.
    White {
        /// PSD value (A²/Hz).
        psd: f64,
    },
    /// Flicker: `k_over_f / f` (A²/Hz).
    Flicker {
        /// Numerator of the 1/f PSD (A²).
        k_over_f: f64,
    },
}

impl NoiseSource {
    /// PSD of this generator at frequency `f` (A²/Hz).
    pub fn psd(&self, f: f64) -> f64 {
        match self.kind {
            NoiseKind::White { psd } => psd,
            NoiseKind::Flicker { k_over_f } => {
                if f <= 0.0 {
                    0.0
                } else {
                    k_over_f / f
                }
            }
        }
    }
}

/// Enumerates the noise generators of a circuit at an operating point.
pub fn noise_sources(circuit: &Circuit, op: &OperatingPoint, temp: f64) -> Vec<NoiseSource> {
    let mut out = Vec::new();
    for (idx, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Resistor { name, a, b, r } => {
                out.push(NoiseSource {
                    element: name.clone(),
                    a: *a,
                    b: *b,
                    kind: NoiseKind::White {
                        psd: 4.0 * BOLTZMANN * temp / r,
                    },
                });
            }
            Element::Mos { name, dev } => {
                if let Some(ev) = &op.mos_evals[idx] {
                    out.push(NoiseSource {
                        element: format!("{name}:thermal"),
                        a: dev.d,
                        b: dev.s,
                        kind: NoiseKind::White {
                            psd: dev.thermal_noise_psd(ev, temp),
                        },
                    });
                    // Flicker: psd(f) = kf·|id|^af/(Cox·W·L) · 1/f.
                    let k = dev.model.kf * ev.id.abs().powf(dev.model.af)
                        / (dev.model.cox * dev.w * dev.l);
                    if k > 0.0 {
                        out.push(NoiseSource {
                            element: format!("{name}:flicker"),
                            a: dev.d,
                            b: dev.s,
                            kind: NoiseKind::Flicker { k_over_f: k },
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Output-referred noise result.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// Analysis frequencies (Hz).
    pub freqs: Vec<f64>,
    /// Total output voltage-noise PSD (V²/Hz) per frequency.
    pub total: Vec<f64>,
    /// Per-generator output PSD contributions, same order as
    /// [`noise_sources`].
    pub contributions: Vec<(String, Vec<f64>)>,
}

impl NoiseResult {
    /// The generator contributing the most at sweep index `idx`.
    pub fn dominant_source(&self, idx: usize) -> Option<(&str, f64)> {
        self.contributions
            .iter()
            .map(|(n, v)| (n.as_str(), v[idx]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Computes the output-referred noise PSD at `out_p − out_n` over `freqs`.
///
/// Use `out_n = ground` for single-ended outputs.
///
/// # Errors
///
/// [`AnalysisError::Lint`] when the implied noise plan fails the `SIM`
/// rules; [`AnalysisError::Singular`] if the AC system cannot be
/// factored; [`AnalysisError::BudgetExceeded`] if a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// between frequency points.
pub fn output_noise(
    circuit: &Circuit,
    op: &OperatingPoint,
    out_p: Node,
    out_n: Node,
    freqs: &[f64],
) -> Result<NoiseResult, AnalysisError> {
    crate::plan::gate(&crate::plan::noise_plan("output noise", freqs))?;
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_ACNOISE)
        .with_field("analysis", "acnoise")
        .with_field("dim", op.layout.dim())
        .with_field("points", freqs.len());
    let sources = noise_sources(circuit, op, ROOM_TEMP);
    let layout = &op.layout;
    let dim = layout.dim();
    let mut asm = AcAssembler::new(layout);
    let mut rhs = vec![Complex::ZERO; dim];
    let mut solver = SparseSolver::new();
    let mut inj = vec![Complex::ZERO; dim];
    let mut sol = vec![Complex::ZERO; dim];

    let mut total = vec![0.0; freqs.len()];
    let mut contributions: Vec<(String, Vec<f64>)> = sources
        .iter()
        .map(|s| (s.element.clone(), vec![0.0; freqs.len()]))
        .collect();

    for (fi, &f) in freqs.iter().enumerate() {
        if let Err(i) = remix_exec::checkpoint() {
            return Err(AnalysisError::interrupted_at(
                "ac noise",
                crate::convergence::TraceStage::AcPoint { f },
                i,
                fi,
                freqs.len(),
            ));
        }
        let omega = 2.0 * std::f64::consts::PI * f;
        let a = asm.assemble(
            circuit,
            layout,
            omega,
            &op.mos_evals,
            &op.mos_caps,
            &mut rhs,
        );
        let lu = crate::fault::factor(&mut solver, a)
            .map_err(|e| AnalysisError::singular_at_point(circuit, "ac noise", f, e))?;
        for (si, s) in sources.iter().enumerate() {
            // Unit current injection a → b.
            inj.fill(Complex::ZERO);
            stamp_current(&mut inj, s.a, s.b, Complex::ONE);
            lu.solve_into(&inj, &mut sol)
                .map_err(|e| AnalysisError::singular_at_point(circuit, "ac noise", f, e))?;
            let vout = match (out_p.unknown_index(), out_n.unknown_index()) {
                (Some(p), Some(n)) => sol[p] - sol[n],
                (Some(p), None) => sol[p],
                (None, Some(n)) => -sol[n],
                (None, None) => Complex::ZERO,
            };
            let contrib = vout.abs_sq() * s.psd(f);
            contributions[si].1[fi] = contrib;
            total[fi] += contrib;
        }
    }

    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        total,
        contributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::ac_sweep;
    use crate::op::{dc_operating_point, OpOptions};
    use remix_circuit::{Circuit, MosModel, Waveform};

    const FOUR_KT: f64 = 4.0 * BOLTZMANN * ROOM_TEMP;

    #[test]
    fn resistor_divider_noise() {
        // Two equal resistors R from a driven node to ground: the output
        // sees each R's noise through R/2 ∥ ... — closed form: for node
        // with R1 to (ac-grounded) source and R2 to ground, output PSD =
        // 4kT·(R1∥R2).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", vin, out, 2e3);
        c.add_resistor("r2", out, Circuit::gnd(), 2e3);
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let res = output_noise(&c, &op, out, Circuit::gnd(), &[1e3]).unwrap();
        let expected = FOUR_KT * 1e3; // R1∥R2 = 1k
        assert!(
            (res.total[0] - expected).abs() < 0.01 * expected,
            "psd {} vs {}",
            res.total[0],
            expected
        );
    }

    #[test]
    fn rc_noise_kt_over_c_full() {
        // The classic kT/C result: total integrated output noise of an RC
        // network is kT/C regardless of R.
        let mut c = Circuit::new();
        let out = c.node("out");
        let bias = c.node("bias");
        c.add_vsource("v1", bias, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", bias, out, 10e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-12);
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        // Integrate PSD over a wide log grid.
        let freqs = crate::ac::log_space(1e3, 1e12, 20);
        let res = output_noise(&c, &op, out, Circuit::gnd(), &freqs).unwrap();
        let psd = remix_dsp::psd::Psd {
            freqs: res.freqs.clone(),
            values: res.total.clone(),
        };
        let total_v2 = psd.integrate(1e3, 1e12);
        let kt_over_c = BOLTZMANN * ROOM_TEMP / 1e-12;
        assert!(
            (total_v2 - kt_over_c).abs() < 0.05 * kt_over_c,
            "integrated {total_v2:.3e} vs kT/C {kt_over_c:.3e}"
        );
    }

    #[test]
    fn mos_thermal_noise_at_output() {
        // CS amplifier: output noise ≈ 4kTγ(gm+gds)·Rout² + 4kT/Rd·Rout².
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource("vg", g, Circuit::gnd(), Waveform::Dc(0.55));
        c.add_resistor("rd", vdd, d, 1e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            5e-6,
            65e-9,
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let ev = *op
            .mos_eval(remix_circuit::ElementId::from_index(3))
            .unwrap();
        // Measure well above the device's flicker corner (tens of MHz at
        // this size/bias) so the thermal budget dominates.
        let res = output_noise(&c, &op, d, Circuit::gnd(), &[100e6]).unwrap();
        let rout = 1.0 / (1.0 / 1e3 + ev.gds);
        let expected = (FOUR_KT * 1.2 * (ev.gm + ev.gds) + FOUR_KT / 1e3) * rout * rout;
        assert!(
            res.total[0] > 0.9 * expected && res.total[0] < 2.0 * expected,
            "psd {:.3e} vs thermal-only {:.3e}",
            res.total[0],
            expected
        );
        // Dominant source should be the transistor at this bias.
        let (name, _) = res.dominant_source(0).unwrap();
        assert!(name.starts_with("m1"), "dominant: {name}");
    }

    #[test]
    fn flicker_corner_visible() {
        // Same CS stage: at low frequency flicker dominates; find the
        // corner where thermal and flicker contributions cross.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource("vg", g, Circuit::gnd(), Waveform::Dc(0.55));
        c.add_resistor("rd", vdd, d, 1e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            5e-6,
            65e-9,
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let freqs = crate::ac::log_space(1e2, 1e9, 4);
        let res = output_noise(&c, &op, d, Circuit::gnd(), &freqs).unwrap();
        // PSD at 100 Hz must exceed PSD at 1 GHz (flicker slope).
        assert!(
            res.total[0] > 3.0 * res.total[res.total.len() - 1],
            "no 1/f visible: {:?}",
            res.total
        );
    }

    #[test]
    fn noise_figure_of_matched_attenuator() {
        // A matched resistive divider has NF equal to its attenuation.
        // Source rs = 50 Ω driving a 50 Ω load through nothing: gain from
        // EMF to load = 0.5, output noise = 4kT·(rs ∥ rl).
        let mut c = Circuit::new();
        let src = c.node("src");
        let out = c.node("out");
        c.add_vsource_ac("vs", src, Circuit::gnd(), Waveform::Dc(0.0), 1.0, 0.0);
        c.add_resistor("rs", src, out, 50.0);
        c.add_resistor("rl", out, Circuit::gnd(), 50.0);
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let ac = ac_sweep(&c, &op, &[1e6]).unwrap();
        let gain = ac.voltage(0, out).abs();
        assert!((gain - 0.5).abs() < 1e-9);
        let res = output_noise(&c, &op, out, Circuit::gnd(), &[1e6]).unwrap();
        // F = total output PSD over the source's own 4kT·rs·|H|² at T0.
        let source_part = 4.0 * BOLTZMANN * remix_circuit::consts::T0_NOISE * 50.0 * gain * gain;
        let nf = 10.0 * (res.total[0] / source_part).log10();
        // Both resistors at 300 K vs reference 290 K: NF = 3 dB + small
        // temperature correction 10log10(300/290) ≈ 0.147.. on the load
        // half only → expect ≈ 3.15 dB.
        assert!((nf - 3.15).abs() < 0.2, "nf = {nf}");
    }
}

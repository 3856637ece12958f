//! Small-signal AC analysis.
//!
//! Linearizes the circuit at a DC operating point and solves the complex
//! MNA system over a frequency sweep. AC excitation comes from the
//! `ac_mag`/`ac_phase` fields of independent sources.

use crate::convergence::TraceStage;
use crate::error::AnalysisError;
use crate::op::OperatingPoint;
use crate::partial::Interrupted;
use crate::stamp::AcAssembler;
use remix_circuit::{Circuit, ElementId, MnaLayout, Node};
use remix_numerics::{Complex, SparseSolver};

/// Result of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    layout: MnaLayout,
    /// Swept frequencies (Hz).
    pub freqs: Vec<f64>,
    /// One complex solution vector per frequency.
    pub solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Complex node voltage at sweep point `idx`.
    pub fn voltage(&self, idx: usize, n: Node) -> Complex {
        match n.unknown_index() {
            Some(i) => self.solutions[idx][i],
            None => Complex::ZERO,
        }
    }

    /// Complex branch current of a voltage-defined element at point `idx`.
    pub fn branch_current(&self, idx: usize, id: ElementId) -> Complex {
        let i = self
            .layout
            .branch_index(id)
            .expect("element has no branch current"); // audit: allow(AUD001): documented caller contract; panics only for elements without branch currents
        self.solutions[idx][i]
    }

    /// Differential voltage `v(p) − v(n)` at point `idx`.
    pub fn voltage_diff(&self, idx: usize, p: Node, n: Node) -> Complex {
        self.voltage(idx, p) - self.voltage(idx, n)
    }
}

/// Runs an AC sweep at the given frequencies (Hz).
///
/// # Errors
///
/// [`AnalysisError::Singular`] if the complex system cannot be factored
/// at some frequency; [`AnalysisError::BudgetExceeded`] if a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// between frequency points.
pub fn ac_sweep(
    circuit: &Circuit,
    op: &OperatingPoint,
    freqs: &[f64],
) -> Result<AcResult, AnalysisError> {
    let layout = op.layout.clone();
    let dim = layout.dim();
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_AC)
        .with_field("analysis", "ac")
        .with_field("dim", dim)
        .with_field("points", freqs.len());
    let mut asm = AcAssembler::new(&layout);
    let mut rhs = vec![Complex::ZERO; dim];
    let mut solver = SparseSolver::new();
    let mut solutions = Vec::with_capacity(freqs.len());
    for &f in freqs {
        if let Err(i) = remix_exec::checkpoint() {
            let i = Interrupted::at("ac sweep", TraceStage::AcPoint { f }, i);
            return Err(i.into_error("ac sweep", solutions.len(), freqs.len()));
        }
        let omega = 2.0 * std::f64::consts::PI * f;
        let a = asm.assemble(
            circuit,
            &layout,
            omega,
            &op.mos_evals,
            &op.mos_caps,
            &mut rhs,
        );
        let lu = crate::fault::factor(&mut solver, a)
            .map_err(|e| AnalysisError::singular_at_point(circuit, "ac sweep", f, e))?;
        solutions.push(
            lu.solve(&rhs)
                .map_err(|e| AnalysisError::singular_at_point(circuit, "ac sweep", f, e))?,
        );
    }
    Ok(AcResult {
        layout,
        freqs: freqs.to_vec(),
        solutions,
    })
}

/// Logarithmically spaced frequency grid with `points_per_decade` points.
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade > 0`.
pub fn log_space(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "need 0 < f_start < f_stop"
    );
    assert!(points_per_decade > 0);
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(i as f64 * decades / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{dc_operating_point, OpOptions};
    use remix_circuit::{Circuit, MosModel, Waveform};

    fn run_ac(c: &Circuit, freqs: &[f64]) -> AcResult {
        let op = dc_operating_point(c, &OpOptions::default()).unwrap();
        ac_sweep(c, &op, freqs).unwrap()
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1k, C = 1n → f3dB = 1/(2πRC) ≈ 159.2 kHz.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource_ac("v1", vin, Circuit::gnd(), Waveform::Dc(0.0), 1.0, 0.0);
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        let f3 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let res = run_ac(&c, &[f3 / 100.0, f3, f3 * 100.0]);
        let mags: Vec<f64> = (0..3).map(|i| res.voltage(i, out).abs()).collect();
        assert!((mags[0] - 1.0).abs() < 1e-3, "passband {mags:?}");
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((mags[2] - 0.01).abs() < 1e-3);
        // Phase at the pole is −45°.
        let ph = res.voltage(1, out).arg().to_degrees();
        assert!((ph + 45.0).abs() < 1.0, "phase {ph}");
    }

    #[test]
    fn rl_lowpass() {
        // Series L = 1 µH into shunt R = 1 k: H = R/(R + jωL), a
        // first-order low-pass with corner R/(2πL) ≈ 159 MHz.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource_ac("v1", vin, Circuit::gnd(), Waveform::Dc(0.0), 1.0, 0.0);
        c.add_inductor("l1", vin, out, 1e-6);
        c.add_resistor("r1", out, Circuit::gnd(), 1e3);
        let res = run_ac(&c, &[1e6, 159.1549e6, 100e9]);
        let mags: Vec<f64> = (0..3).map(|i| res.voltage(i, out).abs()).collect();
        assert!(
            mags[0] > 0.99,
            "low f should pass through inductor: {mags:?}"
        );
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        assert!(mags[2] < 0.01, "high f blocked by inductor: {mags:?}");
    }

    #[test]
    fn common_source_gain_and_rolloff() {
        // CS stage: gain ≈ gm·(Rd ∥ ro); rolls off with load cap.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource_ac("vg", g, Circuit::gnd(), Waveform::Dc(0.55), 1.0, 0.0);
        c.add_resistor("rd", vdd, d, 1e3);
        c.add_capacitor("cl", d, Circuit::gnd(), 100e-15);
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
        let ev = op.mos_eval(ElementId::from_index(4)).unwrap();
        let expected_gain = ev.gm * (1.0 / (1.0 / 1e3 + ev.gds));
        let res = ac_sweep(&c, &op, &[1e6, 100e9]).unwrap();
        let g_low = res.voltage(0, d).abs();
        assert!(
            (g_low - expected_gain).abs() < 0.05 * expected_gain,
            "gain {g_low} vs gm·Rout {expected_gain}"
        );
        // Far beyond the output pole the gain must have dropped a lot.
        let g_high = res.voltage(1, d).abs();
        assert!(g_high < 0.2 * g_low, "rolloff {g_high} vs {g_low}");
    }

    #[test]
    fn vccs_ideal_transconductor() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource_ac("v1", vin, Circuit::gnd(), Waveform::Dc(0.0), 1.0, 0.0);
        c.add_vccs("g1", out, Circuit::gnd(), vin, Circuit::gnd(), 5e-3);
        c.add_resistor("rl", out, Circuit::gnd(), 1e3);
        let res = run_ac(&c, &[1e6]);
        // v(out) = −gm·R·v(in) = −5.
        let v = res.voltage(0, out);
        assert!((v.re + 5.0).abs() < 1e-9 && v.im.abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn grids() {
        let g = log_space(1.0, 1000.0, 2);
        assert_eq!(g.len(), 7);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[6] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn branch_current_readback() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let v1 = c.add_vsource_ac("v1", vin, Circuit::gnd(), Waveform::Dc(0.0), 1.0, 0.0);
        c.add_resistor("r1", vin, Circuit::gnd(), 100.0);
        let res = run_ac(&c, &[1e3]);
        // Branch current p→n through the source: −v/R = −10 mA.
        let i = res.branch_current(0, v1);
        assert!((i.re + 0.01).abs() < 1e-9, "i = {i}");
    }
}

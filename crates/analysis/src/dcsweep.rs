//! DC sweep: repeated operating points while stepping one source.
//!
//! A serial sweep is one operating-point session (`op::OpSession`): the
//! circuit is linted and laid out once, and every point reuses the
//! session's stamp plan and restarts its solver from the first point's
//! first factorization. The swept value moves only the rhs, so each
//! point is bit for bit the operating point a standalone
//! [`dc_operating_point`] call returns for it, at one pivot search per
//! sweep instead of one per point.

use crate::convergence::{StageKind, TraceStage};
use crate::error::AnalysisError;
use crate::op::{dc_operating_point, LinearSolverKind, OpOptions, OpSession, OperatingPoint, Seed};
use crate::partial::{Interrupted, Partial};
use remix_circuit::{Circuit, Element, ElementId, Node, Waveform};

/// Result of a DC sweep.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    /// Swept source values.
    pub values: Vec<f64>,
    /// Operating point at each value.
    pub points: Vec<OperatingPoint>,
}

impl DcSweepResult {
    /// Transfer curve: voltage of `node` vs swept value.
    pub fn voltage_curve(&self, node: Node) -> Vec<(f64, f64)> {
        self.values
            .iter()
            .zip(self.points.iter())
            .map(|(&v, op)| (v, op.voltage(node)))
            .collect()
    }
}

/// The swept voltage source's id.
fn sweep_source(circuit: &Circuit, source_name: &str) -> Result<ElementId, AnalysisError> {
    let id = circuit
        .find_element(source_name)
        .ok_or_else(|| AnalysisError::UnknownProbe {
            probe: format!("voltage source '{source_name}'"),
        })?;
    if !matches!(circuit.element(id), Element::VoltageSource { .. }) {
        return Err(AnalysisError::UnknownProbe {
            probe: format!("'{source_name}' is not a voltage source"),
        });
    }
    Ok(id)
}

/// The span one sweep of `points` values runs under.
fn sweep_span(circuit: &Circuit, points: usize) -> remix_telemetry::SpanGuard {
    remix_telemetry::span(remix_telemetry::names::ANALYSIS_DCSWEEP)
        .with_field("analysis", "dcsweep")
        .with_field("elements", circuit.element_count())
        .with_field("points", points)
}

/// Sets voltage source `id` of `work` to the DC value `v`.
fn set_source(work: &mut Circuit, id: ElementId, v: f64) {
    if let Element::VoltageSource { wave, .. } = work.element_mut(id) {
        *wave = Waveform::Dc(v);
    }
}

/// The serial sweep: solves each value in order in one session,
/// stopping early on a budget interruption and returning the completed
/// prefix with the interruption record.
///
/// The session opens at the first point that reaches the solver. A
/// non-finite value never joins it: it takes the standalone path, whose
/// lint rejects it with the report a standalone call gives.
fn dc_sweep_inner(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    opts: &OpOptions,
) -> Result<Partial<DcSweepResult>, AnalysisError> {
    let id = sweep_source(circuit, source_name)?;
    let _span = sweep_span(circuit, values.len());
    let mut work = circuit.clone();
    let mut session: Option<OpSession<'_>> = None;
    let mut points = Vec::with_capacity(values.len());
    let mut interrupted = None;
    for &v in values {
        // Sweep-point boundary: stop *between* points so the prefix
        // below is always a set of fully converged operating points.
        if let Err(i) = remix_exec::checkpoint() {
            interrupted = Some(Interrupted::at(
                "dc sweep",
                TraceStage::Dc(StageKind::Direct),
                i,
            ));
            break;
        }
        set_source(&mut work, id, v);
        let solved = if v.is_finite() {
            let session = match &mut session {
                Some(s) => s,
                None => session.insert(OpSession::open(
                    &work,
                    opts,
                    LinearSolverKind::Sparse,
                    Seed::Pending,
                )?),
            };
            session.solve(&work)
        } else {
            dc_operating_point(&work, opts)
        };
        match Interrupted::split(solved)? {
            Ok(op) => points.push(op),
            Err(i) => {
                interrupted = Some(i);
                break;
            }
        }
    }
    Ok(Partial {
        value: DcSweepResult {
            values: values[..points.len()].to_vec(),
            points,
        },
        interruption: interrupted,
    })
}

/// Sweeps the DC value of the named voltage source.
///
/// # Errors
///
/// * [`AnalysisError::UnknownProbe`] if the source does not exist or is
///   not a voltage source;
/// * [`AnalysisError::BudgetExceeded`] if a
///   [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
///   between or inside sweep points (use [`dc_sweep_partial`] to keep
///   the completed prefix instead);
/// * any operating-point error at a sweep value.
pub fn dc_sweep(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    opts: &OpOptions,
) -> Result<DcSweepResult, AnalysisError> {
    let res = dc_sweep_inner(circuit, source_name, values, opts)?;
    let completed = res.value.points.len();
    res.strict("dc sweep", completed, values.len())
}

/// Sweeps the DC value of the named voltage source, degrading
/// gracefully under a budget: when the
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out,
/// returns the operating points completed so far as a [`Partial`]
/// carrying the interruption and its trace.
///
/// # Errors
///
/// Same as [`dc_sweep`], except a budget interruption is not an error.
pub fn dc_sweep_partial(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    opts: &OpOptions,
) -> Result<Partial<DcSweepResult>, AnalysisError> {
    dc_sweep_inner(circuit, source_name, values, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_linear_circuit() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("vin", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, b, 1e3);
        c.add_resistor("r2", b, Circuit::gnd(), 1e3);
        let vals = [0.0, 0.5, 1.0, 1.5];
        let res = dc_sweep(&c, "vin", &vals, &OpOptions::default()).unwrap();
        let curve = res.voltage_curve(b);
        for (vin, vout) in curve {
            assert!((vout - vin / 2.0).abs() < 1e-9, "({vin}, {vout})");
        }
    }

    #[test]
    fn inverter_transfer_curve_monotone() {
        use remix_circuit::MosModel;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource("vin", inp, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
        c.add_mosfet(
            "mn",
            MosModel::nmos_65nm(),
            2e-6,
            65e-9,
            out,
            inp,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let vals: Vec<f64> = (0..=12).map(|k| k as f64 * 0.1).collect();
        let res = dc_sweep(&c, "vin", &vals, &OpOptions::default()).unwrap();
        let curve = res.voltage_curve(out);
        // Monotonically non-increasing and rail-to-rail.
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "not monotone: {curve:?}");
        }
        assert!(curve[0].1 > 1.1);
        assert!(curve[curve.len() - 1].1 < 0.1);
    }

    #[test]
    fn newton_budget_keeps_completed_prefix() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("vin", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, b, 1e3);
        c.add_resistor("r2", b, Circuit::gnd(), 1e3);
        let vals = [0.0, 0.5, 1.0, 1.5];
        let token = remix_exec::RunBudget::unlimited()
            .with_newton_iterations(5)
            .token();
        let _guard = token.arm();
        let partial = dc_sweep_partial(&c, "vin", &vals, &OpOptions::default()).unwrap();
        assert!(!partial.is_complete());
        assert!(partial.value.points.len() < vals.len());
        assert_eq!(partial.value.values.len(), partial.value.points.len());
        // The prefix holds only fully converged, correct points.
        for (vin, vout) in partial.value.voltage_curve(b) {
            assert!((vout - vin / 2.0).abs() < 1e-9, "({vin}, {vout})");
        }
        let why = partial.interruption.as_ref().unwrap();
        assert_eq!(
            why.interruption,
            remix_exec::Interruption::NewtonIterations { limit: 5 }
        );
        assert!(!why.trace.is_empty());
        // The strict entry point reports the same prefix as an error.
        let token2 = remix_exec::RunBudget::unlimited()
            .with_newton_iterations(5)
            .token();
        let _guard2 = token2.arm();
        match dc_sweep(&c, "vin", &vals, &OpOptions::default()) {
            Err(AnalysisError::BudgetExceeded { partial: p, .. }) => {
                assert_eq!(p.completed, partial.value.points.len());
                assert_eq!(p.total, vals.len());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unknown_source_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("vin", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r", a, Circuit::gnd(), 1.0);
        assert!(matches!(
            dc_sweep(&c, "zap", &[0.0], &OpOptions::default()),
            Err(AnalysisError::UnknownProbe { .. })
        ));
        assert!(matches!(
            dc_sweep(&c, "r", &[0.0], &OpOptions::default()),
            Err(AnalysisError::UnknownProbe { .. })
        ));
    }
}

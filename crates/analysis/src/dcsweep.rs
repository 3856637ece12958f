//! DC sweep: repeated operating points while stepping one source.

use crate::convergence::{StageKind, TraceStage};
use crate::error::{AnalysisError, PartialProgress};
use crate::op::{dc_operating_point, OpOptions, OperatingPoint};
use crate::partial::{Interrupted, Partial};
use remix_circuit::{Circuit, Element, Node, Waveform};

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

/// Shared sweep driver: solves each value in order, stopping early on a
/// budget interruption and returning the completed prefix with the
/// interruption record.
fn dc_sweep_inner(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    opts: &OpOptions,
) -> Result<(DcSweepResult, Option<Interrupted>), AnalysisError> {
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
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_DCSWEEP)
        .with_field("analysis", "dcsweep")
        .with_field("elements", circuit.element_count())
        .with_field("points", values.len());
    let mut work = circuit.clone();
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
        if let Element::VoltageSource { wave, .. } = work.element_mut(id) {
            *wave = Waveform::Dc(v);
        }
        match dc_operating_point(&work, opts) {
            Ok(op) => points.push(op),
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                ..
            }) => {
                interrupted = Some(Interrupted {
                    interruption,
                    trace,
                });
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let completed = points.len();
    Ok((
        DcSweepResult {
            values: values[..completed].to_vec(),
            points,
        },
        interrupted,
    ))
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
    let total = values.len();
    let (res, interrupted) = dc_sweep_inner(circuit, source_name, values, opts)?;
    match interrupted {
        None => Ok(res),
        Some(i) => Err(AnalysisError::BudgetExceeded {
            interruption: i.interruption,
            trace: i.trace,
            partial: PartialProgress {
                analysis: "dc sweep".into(),
                completed: res.points.len(),
                total,
            },
        }),
    }
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
    let (res, interrupted) = dc_sweep_inner(circuit, source_name, values, opts)?;
    Ok(match interrupted {
        None => Partial::complete(res),
        Some(i) => Partial::interrupted(res, i),
    })
}

/// [`dc_sweep_partial`] on an explicit [`remix_exec::PoolOptions`]:
/// sweep points are independent operating points, so they dispatch to
/// the work-stealing pool and solve concurrently. Results are identical
/// to the serial sweep for any worker count (each point solves the same
/// isolated system; the pool's ordered telemetry merge keeps the
/// `without_timings()` snapshot byte-identical).
///
/// A budget interruption returns the completed *prefix* as a
/// [`Partial`], exactly like the serial driver; a contained worker
/// panic surfaces as a typed [`AnalysisError::NoConvergence`] for its
/// point rather than a dead process.
///
/// # Errors
///
/// Same as [`dc_sweep_partial`].
pub fn dc_sweep_parallel(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    opts: &OpOptions,
    pool: &remix_exec::PoolOptions,
) -> Result<Partial<DcSweepResult>, AnalysisError> {
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
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_DCSWEEP)
        .with_field("analysis", "dcsweep")
        .with_field("elements", circuit.element_count())
        .with_field("points", values.len());
    let todo: Vec<usize> = (0..values.len()).collect();
    let first_trace: std::sync::Mutex<Option<crate::convergence::ConvergenceTrace>> =
        std::sync::Mutex::new(None);
    let run = remix_exec::run_tasks(
        &todo,
        pool,
        |ctx| {
            let mut work = circuit.clone();
            if let Element::VoltageSource { wave, .. } = work.element_mut(id) {
                *wave = Waveform::Dc(values[ctx.index]);
            }
            match dc_operating_point(&work, opts) {
                Ok(op) => remix_exec::TaskResult::Done(Ok(Box::new(op))),
                Err(AnalysisError::BudgetExceeded {
                    interruption,
                    trace,
                    ..
                }) => {
                    if let Ok(mut slot) = first_trace.lock() {
                        if slot.is_none() {
                            *slot = Some(trace);
                        }
                    }
                    remix_exec::TaskResult::Interrupted(interruption)
                }
                Err(e) => remix_exec::TaskResult::Done(Err(e)),
            }
        },
        |_, _| {},
    );
    let mut slots: Vec<Option<OperatingPoint>> = (0..values.len()).map(|_| None).collect();
    for (i, outcome) in run.outcomes {
        match outcome {
            remix_exec::TaskOutcome::Done(Ok(op)) => slots[i] = Some(*op),
            // A hard (non-budget) error at any point fails the sweep,
            // matching the strict serial contract.
            remix_exec::TaskOutcome::Done(Err(e)) => return Err(e),
            remix_exec::TaskOutcome::Failed(trace) => {
                return Err(AnalysisError::NoConvergence {
                    context: format!("dc sweep point {i}"),
                    iterations: 0,
                    trace: crate::convergence::ConvergenceTrace::new(trace),
                });
            }
        }
    }
    let mut points = Vec::with_capacity(values.len());
    for slot in &mut slots {
        match slot.take() {
            Some(op) => points.push(op),
            None => break,
        }
    }
    let completed = points.len();
    let result = DcSweepResult {
        values: values[..completed].to_vec(),
        points,
    };
    Ok(match run.interrupted {
        None => Partial::complete(result),
        Some(interruption) => {
            let trace = first_trace.lock().ok().and_then(|mut slot| slot.take());
            let interrupted = match trace {
                Some(trace) => Interrupted {
                    interruption,
                    trace,
                },
                None => {
                    Interrupted::at("dc sweep", TraceStage::Dc(StageKind::Direct), interruption)
                }
            };
            Partial::interrupted(result, interrupted)
        }
    })
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

    #[test]
    fn parallel_sweep_matches_serial_for_any_worker_count() {
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
        let serial = dc_sweep(&c, "vin", &vals, &OpOptions::default()).unwrap();
        for workers in [1usize, 2, 5] {
            let pool = remix_exec::PoolOptions::with_parallelism(remix_exec::Parallelism::Workers(
                workers,
            ));
            let partial =
                dc_sweep_parallel(&c, "vin", &vals, &OpOptions::default(), &pool).unwrap();
            assert!(partial.is_complete(), "workers={workers}");
            assert_eq!(partial.value.values, serial.values);
            assert_eq!(partial.value.points.len(), serial.points.len());
            for (p, s) in partial.value.points.iter().zip(serial.points.iter()) {
                assert!((p.voltage(out) - s.voltage(out)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn parallel_sweep_reports_budget_prefix_and_bad_probe() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("vin", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, b, 1e3);
        c.add_resistor("r2", b, Circuit::gnd(), 1e3);
        let vals = [0.0, 0.5, 1.0, 1.5];
        let pool = remix_exec::PoolOptions::with_parallelism(remix_exec::Parallelism::Workers(2));
        assert!(matches!(
            dc_sweep_parallel(&c, "zap", &vals, &OpOptions::default(), &pool),
            Err(AnalysisError::UnknownProbe { .. })
        ));
        let token = remix_exec::RunBudget::unlimited()
            .with_newton_iterations(5)
            .token();
        let _guard = token.arm();
        let partial = dc_sweep_parallel(&c, "vin", &vals, &OpOptions::default(), &pool).unwrap();
        assert!(!partial.is_complete());
        assert!(partial.value.points.len() < vals.len());
        assert_eq!(partial.value.values.len(), partial.value.points.len());
        for (vin, vout) in partial.value.voltage_curve(b) {
            assert!((vout - vin / 2.0).abs() < 1e-9, "({vin}, {vout})");
        }
        let why = partial.interruption.as_ref().unwrap();
        assert_eq!(
            why.interruption,
            remix_exec::Interruption::NewtonIterations { limit: 5 }
        );
        assert!(!why.trace.is_empty());
    }
}

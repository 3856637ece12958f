//! Transient analysis.
//!
//! Fixed-step implicit integration (trapezoidal, with backward Euler for
//! the first step and for the first half of a halved step) with a full
//! damped-Newton solve of the nonlinear companion system at every step,
//! through the same `NewtonSystem` loop as the operating point. The step
//! is halved locally when Newton fails to converge, down to 2⁻²⁰ of the
//! base step; results are always reported on the caller's uniform grid
//! so FFT post-processing needs no resampling.
//!
//! RF measurement flows sample mixers coherently (see
//! `remix_dsp::tone::CoherentPlan`); a fixed step that divides the sample
//! interval exactly keeps tones on their bins.

use crate::convergence::{ConvergenceTrace, StageAttempt, TraceStage};
use crate::error::{AnalysisError, PartialProgress};
use crate::op::{
    dc_operating_point, structural_diagnosis, LinearSolverKind, NewtonSystem, OpOptions,
    OperatingPoint, Seed, StageRun,
};
use crate::partial::{Interrupted, Partial};
use crate::stamp::{cap_companion_current, mos_cap_branches, CapState, ElementState, RealMode};
use remix_circuit::{Circuit, Element, MnaLayout, Node};
use remix_numerics::IntegrationMethod;

/// Newton iterations allowed per step.
const MAX_NEWTON: usize = 50;
/// gmin across MOS channels while stepping (S).
const TRAN_GMIN: f64 = 1e-12;
/// Damping limit on per-iteration node-voltage moves within a step (V).
const STEP_DV_MAX: f64 = 0.5;
/// Deepest halving of a step that fails to converge: a sub-step of
/// `h / 2^MAX_HALVINGS` that still fails ends the run.
const MAX_HALVINGS: i32 = 20;

/// Options controlling a transient run. Steady stepping is trapezoidal
/// after one backward-Euler first step; the initial condition is the
/// operating point under [`OpOptions::default`].
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Stop time (s).
    pub t_stop: f64,
    /// Base step size (s). Internally the engine may sub-divide a step
    /// when Newton fails, but output lands exactly on multiples of `h`.
    pub h: f64,
    /// Node-voltage convergence tolerance (V).
    pub v_tol: f64,
    /// Discard output before this time (settling); the result's `times`
    /// start at the first grid point ≥ `record_start`.
    pub record_start: f64,
}

impl TranOptions {
    /// Sensible defaults for a run to `t_stop` with step `h`.
    pub fn new(t_stop: f64, h: f64) -> Self {
        assert!(t_stop > 0.0 && h > 0.0 && h < t_stop, "bad transient span");
        TranOptions {
            t_stop,
            h,
            v_tol: 1e-7,
            record_start: 0.0,
        }
    }
}

/// Result of a transient run: solutions on the uniform output grid.
#[derive(Debug, Clone)]
pub struct TranResult {
    layout: MnaLayout,
    /// Output time points (s).
    pub times: Vec<f64>,
    /// Solution vector per time point.
    pub solutions: Vec<Vec<f64>>,
}

impl TranResult {
    /// Voltage waveform of a node across the stored grid.
    pub fn voltage_waveform(&self, n: Node) -> Vec<f64> {
        match n.unknown_index() {
            Some(i) => self.solutions.iter().map(|s| s[i]).collect(),
            None => vec![0.0; self.solutions.len()],
        }
    }

    /// Differential waveform `v(p) − v(n)`.
    pub fn differential_waveform(&self, p: Node, n: Node) -> Vec<f64> {
        let vp = self.voltage_waveform(p);
        let vn = self.voltage_waveform(n);
        vp.iter().zip(vn.iter()).map(|(a, b)| a - b).collect()
    }

    /// Branch current of a voltage-defined element at stored index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the element has no branch unknown.
    pub fn branch_current_at(&self, idx: usize, id: remix_circuit::ElementId) -> f64 {
        self.layout.branch_current(&self.solutions[idx], id)
    }

    /// Rebuilds a result containing only the given window (used by the
    /// periodic-steady-state engine to slice out one period).
    pub fn with_window(&self, times: Vec<f64>, solutions: Vec<Vec<f64>>) -> TranResult {
        TranResult {
            layout: self.layout.clone(),
            times,
            solutions,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Internal per-run integrator state.
struct Integrator<'a> {
    circuit: &'a Circuit,
    layout: MnaLayout,
    states: Vec<ElementState>,
    mos_caps: Vec<Option<remix_circuit::MosCaps>>,
    x: Vec<f64>,
    opts: &'a TranOptions,
    /// The run's Newton workspace, reused by every step.
    sys: NewtonSystem,
}

impl<'a> Integrator<'a> {
    fn init(circuit: &'a Circuit, opts: &'a TranOptions) -> Result<Self, AnalysisError> {
        let op: OperatingPoint = dc_operating_point(circuit, &OpOptions::default())?;
        let layout = op.layout.clone();
        let x = op.solution.clone();
        // Initialize dynamic states from the OP.
        let mut states = Vec::with_capacity(circuit.element_count());
        for (idx, e) in circuit.elements().iter().enumerate() {
            let eid = remix_circuit::ElementId::from_index(idx);
            let st = match e {
                Element::Capacitor { a, b, .. } => ElementState::Cap(CapState {
                    v: layout.voltage(&x, *a) - layout.voltage(&x, *b),
                    i: 0.0,
                }),
                Element::Inductor { a, b, .. } => ElementState::Ind(crate::stamp::IndState {
                    i: layout.branch_current(&x, eid),
                    v: layout.voltage(&x, *a) - layout.voltage(&x, *b),
                }),
                Element::Mos { dev, .. } => {
                    let caps = op.mos_caps[idx].unwrap_or_default();
                    let branches = mos_cap_branches(dev.d, dev.g, dev.s, dev.b, &caps);
                    let mut sts = [CapState::default(); 5];
                    for (k, (a, b, _)) in branches.iter().enumerate() {
                        sts[k].v = layout.voltage(&x, *a) - layout.voltage(&x, *b);
                    }
                    ElementState::MosCaps(sts)
                }
                _ => ElementState::None,
            };
            states.push(st);
        }
        Ok(Integrator {
            circuit,
            sys: NewtonSystem::new(&layout, LinearSolverKind::Sparse, Seed::Absent),
            layout,
            states,
            mos_caps: op.mos_caps,
            x,
            opts,
        })
    }

    /// Solves one implicit step of size `h` ending at time `t`.
    /// On success updates `self.x` and the dynamic states.
    fn step(&mut self, t: f64, h: f64, method: IntegrationMethod) -> Result<(), AnalysisError> {
        let coeffs = method.coeffs(h);
        let mut x = self.x.clone();
        let mode = RealMode::Tran {
            t,
            gmin: TRAN_GMIN,
            coeffs,
            states: &self.states,
            mos_caps: &self.mos_caps,
        };
        let mut attempt = StageAttempt::new(TraceStage::TranStep { t, h });
        attempt.gmin = TRAN_GMIN;
        attempt.dv_max = STEP_DV_MAX;
        let run = self.sys.converge(
            self.circuit,
            &self.layout,
            &mode,
            &mut x,
            attempt,
            self.opts.v_tol,
            MAX_NEWTON,
            f64::INFINITY,
            None,
        );
        if !run.converged() {
            return Err(step_failure(self.circuit, t, run));
        }

        // Commit dynamic states.
        for (idx, e) in self.circuit.elements().iter().enumerate() {
            let eid = remix_circuit::ElementId::from_index(idx);
            match e {
                Element::Capacitor { a, b, c, .. } => {
                    let ElementState::Cap(st) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    let v_new = self.layout.voltage(&x, *a) - self.layout.voltage(&x, *b);
                    let i_new = cap_companion_current(*c, &coeffs, v_new, st);
                    st.v = v_new;
                    st.i = i_new;
                }
                Element::Inductor { a, b, .. } => {
                    let ElementState::Ind(st) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    st.i = self.layout.branch_current(&x, eid);
                    st.v = self.layout.voltage(&x, *a) - self.layout.voltage(&x, *b);
                }
                Element::Mos { dev, .. } => {
                    let ElementState::MosCaps(sts) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    if let Some(caps) = &self.mos_caps[idx] {
                        let branches = mos_cap_branches(dev.d, dev.g, dev.s, dev.b, caps);
                        for (k, (a, b, c)) in branches.iter().enumerate() {
                            let v_new = self.layout.voltage(&x, *a) - self.layout.voltage(&x, *b);
                            if *c > 0.0 {
                                sts[k].i = cap_companion_current(*c, &coeffs, v_new, &sts[k]);
                            }
                            sts[k].v = v_new;
                        }
                    }
                }
                _ => {}
            }
        }
        self.x = x;
        Ok(())
    }

    /// Advances exactly `h_total`, sub-dividing on Newton failure.
    fn advance(
        &mut self,
        t_start: f64,
        h_total: f64,
        method: IntegrationMethod,
    ) -> Result<(), AnalysisError> {
        let mut pending = vec![(t_start, h_total, method)];
        let mut depth_guard = 0usize;
        // The last failed Newton attempt: attached to a step-size
        // underflow so the error explains *why* the halving cascade
        // never found an acceptable step.
        let mut last_trace = ConvergenceTrace::new("transient step");
        let h_floor = self.opts.h / 2f64.powi(MAX_HALVINGS);
        while let Some((t0, h, meth)) = pending.pop() {
            depth_guard += 1;
            if depth_guard > 4096 {
                return Err(AnalysisError::StepSizeUnderflow {
                    time: t0,
                    method: meth,
                    trace: last_trace,
                });
            }
            match self.step(t0 + h, h, meth) {
                Ok(()) => {}
                Err(e @ AnalysisError::NoConvergence { .. }) if h > h_floor => {
                    if let Some(t) = e.trace() {
                        last_trace = t.clone();
                    }
                    // Split: solve first half (BE for robustness), then
                    // second half.
                    pending.push((t0 + h / 2.0, h / 2.0, meth));
                    pending.push((t0, h / 2.0, IntegrationMethod::BackwardEuler));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The error a step that did not converge ends in: the budget
/// interruption that cut it short, the factorization failure that ended
/// it, or (for a stall or divergence, which the caller may retry at a
/// smaller step) non-convergence. The trace holds the step's attempt.
fn step_failure(circuit: &Circuit, t: f64, run: StageRun) -> AnalysisError {
    let (iterations, interrupted) = (run.attempt.iterations, run.interrupted());
    let mut trace = ConvergenceTrace::new("transient step");
    trace.push(run.attempt);
    match (interrupted, run.factor_error) {
        (Some(interruption), _) => AnalysisError::BudgetExceeded {
            interruption,
            trace,
            partial: PartialProgress {
                analysis: "transient".into(),
                completed: 0,
                total: 0,
            },
        },
        (None, Some(error)) => AnalysisError::Singular {
            error,
            diagnosis: structural_diagnosis(circuit),
            trace,
        },
        (None, None) => AnalysisError::NoConvergence {
            context: format!("transient step at t = {t:.3e}"),
            iterations,
            trace,
        },
    }
}

/// Shared transient driver: integrates the full grid, stopping early on
/// a budget interruption. Returns the recorded prefix (always
/// internally consistent — points land only after their step fully
/// converged), the interruption if one occurred, and the planned step
/// count.
fn transient_inner(
    circuit: &Circuit,
    opts: &TranOptions,
) -> Result<(TranResult, Option<Interrupted>, usize), AnalysisError> {
    crate::plan::gate(&crate::plan::tran_plan(circuit, opts))?;
    let mut integ = Integrator::init(circuit, opts)?;
    let n_steps = (opts.t_stop / opts.h).round() as usize;
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_TRAN)
        .with_field("analysis", "tran")
        .with_field("elements", circuit.element_count())
        .with_field("steps", n_steps);
    let mut times = Vec::new();
    let mut solutions = Vec::new();
    if opts.record_start <= 0.0 {
        times.push(0.0);
        solutions.push(integ.x.clone());
    }
    let mut interrupted = None;
    for k in 0..n_steps {
        let t0 = k as f64 * opts.h;
        if let Err(i) = remix_exec::charge_timestep() {
            interrupted = Some(Interrupted::at(
                "transient",
                TraceStage::TranStep { t: t0, h: opts.h },
                i,
            ));
            break;
        }
        // First grid step uses BE to damp the turn-on transient of the
        // companion history (standard SPICE practice).
        let method = if k == 0 {
            IntegrationMethod::BackwardEuler
        } else {
            IntegrationMethod::Trapezoidal
        };
        match integ.advance(t0, opts.h, method) {
            Ok(()) => {}
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
        let t1 = (k + 1) as f64 * opts.h;
        if t1 >= opts.record_start {
            times.push(t1);
            solutions.push(integ.x.clone());
        }
    }
    Ok((
        TranResult {
            layout: integ.layout,
            times,
            solutions,
        },
        interrupted,
        n_steps,
    ))
}

/// Runs a transient simulation.
///
/// # Errors
///
/// [`AnalysisError::Lint`] when the implied simulation plan fails the
/// `SIM` rules (e.g. `SIM001`: the timestep cannot resolve the fastest
/// stimulus in the netlist). Otherwise propagates operating-point
/// errors, singular-matrix errors, Newton non-convergence (after
/// sub-division down to femtosecond steps), step-size underflow, and
/// [`AnalysisError::BudgetExceeded`] when a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// mid-run (use [`transient_partial`] to keep the completed prefix
/// instead).
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult, AnalysisError> {
    let (res, interrupted, n_steps) = transient_inner(circuit, opts)?;
    match interrupted {
        None => Ok(res),
        Some(i) => Err(AnalysisError::BudgetExceeded {
            interruption: i.interruption,
            trace: i.trace,
            partial: PartialProgress {
                analysis: "transient".into(),
                completed: res.len(),
                total: n_steps + 1,
            },
        }),
    }
}

/// Runs a transient simulation, degrading gracefully under a budget:
/// when the [`RunBudget`](remix_exec::RunBudget) armed on this thread
/// runs out mid-run, returns the completed prefix of the waveform as a
/// [`Partial`] carrying the interruption and its trace, instead of
/// discarding the work behind an error.
///
/// # Errors
///
/// Same as [`transient`], except a budget interruption *after* the
/// initial operating point is not an error (one during the operating
/// point still is: there is no prefix worth returning).
pub fn transient_partial(
    circuit: &Circuit,
    opts: &TranOptions,
) -> Result<Partial<TranResult>, AnalysisError> {
    let (res, interrupted, _) = transient_inner(circuit, opts)?;
    Ok(match interrupted {
        None => Partial::complete(res),
        Some(i) => Partial::interrupted(res, i),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{Circuit, MosModel, Waveform};

    #[test]
    fn rc_charging_curve() {
        // Series R into C driven by a 1 V step (via PULSE): classic
        // v(t) = 1 − e^{−t/RC}.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "v1",
            vin,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        let tau = 1e-6;
        let res = transient(&c, &TranOptions::new(5.0 * tau, tau / 200.0)).unwrap();
        let v = res.voltage_waveform(out);
        let t = &res.times;
        for (i, &ti) in t.iter().enumerate() {
            if ti < 5e-9 {
                continue; // skip the ps-scale source edge
            }
            let expected = 1.0 - (-ti / tau).exp();
            assert!(
                (v[i] - expected).abs() < 5e-3,
                "t = {ti:.3e}: {} vs {expected}",
                v[i]
            );
        }
    }

    #[test]
    fn lc_oscillation_period() {
        // Parallel LC with initial energy: free oscillation at
        // f = 1/(2π√(LC)). Drive: current step into the tank.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource(
            "i1",
            Circuit::gnd(),
            a,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1e-3,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        c.add_inductor("l1", a, Circuit::gnd(), 1e-6);
        c.add_capacitor("c1", a, Circuit::gnd(), 1e-12);
        c.add_resistor("rq", a, Circuit::gnd(), 1e6); // light damping
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-12).sqrt());
        let period = 1.0 / f0;
        let res = transient(&c, &TranOptions::new(4.0 * period, period / 400.0)).unwrap();
        let v = res.voltage_waveform(a);
        // Find zero crossings of the oscillating part to estimate period.
        let mean = remix_numerics::stats::mean(&v);
        let xs: Vec<f64> = v.iter().map(|x| x - mean).collect();
        let mut crossings = Vec::new();
        for i in 1..xs.len() {
            if xs[i - 1] < 0.0 && xs[i] >= 0.0 {
                crossings.push(res.times[i]);
            }
        }
        assert!(crossings.len() >= 2, "no oscillation seen");
        let measured = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        assert!(
            (measured - period).abs() < 0.02 * period,
            "period {measured:.3e} vs {period:.3e}"
        );
    }

    #[test]
    fn sine_source_amplitude_preserved() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(0.5, 1e6));
        c.add_resistor("r1", vin, Circuit::gnd(), 1e3);
        let res = transient(&c, &TranOptions::new(2e-6, 1e-9)).unwrap();
        let v = res.voltage_waveform(vin);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 0.5).abs() < 1e-3, "max {max}");
        assert!((min + 0.5).abs() < 1e-3, "min {min}");
    }

    #[test]
    fn record_start_discards_settling() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", vin, Circuit::gnd(), 1e3);
        let mut opts = TranOptions::new(1e-6, 1e-8);
        opts.record_start = 0.5e-6;
        let res = transient(&c, &opts).unwrap();
        assert!(res.times[0] >= 0.5e-6);
        assert!(!res.is_empty());
        assert_eq!(res.len(), res.solutions.len());
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 1e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: f64::INFINITY,
            },
        );
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
        c.add_capacitor("cl", out, Circuit::gnd(), 10e-15);
        let res = transient(&c, &TranOptions::new(5e-9, 10e-12)).unwrap();
        let v = res.voltage_waveform(out);
        let t = &res.times;
        // Before the input pulse: output high.
        let before: f64 = v[t.iter().position(|&x| x > 0.8e-9).unwrap()];
        assert!(before > 1.1, "before = {before}");
        // During the pulse: output low.
        let during: f64 = v[t.iter().position(|&x| x > 2.5e-9).unwrap()];
        assert!(during < 0.1, "during = {during}");
    }

    fn rc_fixture() -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(0.5, 1e6));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        (c, out)
    }

    #[test]
    fn unmeetable_tolerance_pins_the_failed_step_attempt() {
        // No Newton update can be smaller than a zero tolerance, so every
        // step runs out of iterations; the first step halves (backward
        // Euler first) down to 2^-20 of the base step, and the failure
        // of that last step surfaces with its attempt record: 21 failed
        // solves in all.
        let (c, _) = rc_fixture();
        let mut opts = TranOptions::new(1e-6, 1e-8);
        opts.v_tol = 0.0;
        let h = 1e-8 / 2f64.powi(20);
        match transient(&c, &opts) {
            Err(AnalysisError::NoConvergence {
                context,
                iterations,
                trace,
            }) => {
                assert_eq!(context, format!("transient step at t = {h:.3e}"));
                assert_eq!(iterations, 50);
                assert_eq!(trace.analysis, "transient step");
                assert_eq!(trace.attempts.len(), 1);
                let a = &trace.attempts[0];
                assert_eq!(a.stage, TraceStage::TranStep { t: h, h });
                assert_eq!(a.gmin, 1e-12);
                assert_eq!(a.source_scale, 1.0);
                assert_eq!(a.diag_load, 0.0);
                assert_eq!(a.dv_max, 0.5);
                assert_eq!(a.iterations, 50);
                assert!(a.final_max_dv >= 0.0 && a.final_max_dv < 1e-12);
                assert!(a.rcond.is_some_and(|r| r > 0.0));
                assert_eq!(a.outcome, crate::convergence::AttemptOutcome::MaxIterations);
            }
            other => panic!("expected NoConvergence at the first step, got {other:?}"),
        }
    }

    #[test]
    fn timestep_budget_returns_clean_partial_prefix() {
        let (c, _) = rc_fixture();
        let token = remix_exec::RunBudget::unlimited()
            .with_timesteps(10)
            .token();
        let _guard = token.arm();
        let partial = transient_partial(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        assert!(!partial.is_complete());
        // Initial point + exactly the charged steps; never half-written.
        assert_eq!(partial.value.len(), 11, "got {}", partial.value.len());
        assert!(partial
            .value
            .solutions
            .iter()
            .flatten()
            .all(|v| v.is_finite()));
        let why = partial.interruption.as_ref().unwrap();
        assert_eq!(
            why.interruption,
            remix_exec::Interruption::Timesteps { limit: 10 }
        );
        assert!(!why.trace.is_empty());
    }

    #[test]
    fn strict_transient_maps_interruption_to_budget_exceeded() {
        let (c, _) = rc_fixture();
        let token = remix_exec::RunBudget::unlimited().with_timesteps(3).token();
        let _guard = token.arm();
        match transient(&c, &TranOptions::new(1e-6, 1e-8)) {
            Err(AnalysisError::BudgetExceeded { trace, partial, .. }) => {
                assert!(!trace.is_empty());
                assert_eq!(partial.analysis, "transient");
                assert_eq!(partial.completed, 4);
                assert_eq!(partial.total, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unbudgeted_partial_is_complete() {
        let (c, out) = rc_fixture();
        let full = transient(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        let partial = transient_partial(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.value.len(), full.len());
        assert_eq!(
            partial.value.voltage_waveform(out),
            full.voltage_waveform(out)
        );
    }

    #[test]
    fn mixing_products_appear() {
        // The crucial RF behaviour: drive a MOS switch's gate with an LO
        // square-ish drive and its drain path with RF; the IF product
        // appears at the output. This is a single-device sanity check that
        // the transient engine produces frequency translation at all.
        let mut c = Circuit::new();
        let rf = c.node("rf");
        let lo = c.node("lo");
        let out = c.node("out");
        let f_rf = 100e6;
        let f_lo = 90e6;
        c.add_vsource(
            "vrf",
            rf,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.0,
                amplitude: 0.1,
                freq: f_rf,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_vsource(
            "vlo",
            lo,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.6,
                amplitude: 0.6,
                freq: f_lo,
                phase: 0.0,
                delay: 0.0,
            },
        );
        // Pass transistor from rf to out, gate driven by LO.
        c.add_mosfet(
            "msw",
            MosModel::nmos_65nm(),
            20e-6,
            65e-9,
            rf,
            lo,
            out,
            Circuit::gnd(),
        );
        c.add_resistor("rl", out, Circuit::gnd(), 1e3);
        c.add_capacitor("cl", out, Circuit::gnd(), 30e-12);

        // Coherent record: IF = 10 MHz, 1 µs window → bins at 10 Hz·k.
        let fs = 1.0 / 0.5e-9;
        let n = 2048; // 1.024 µs at 0.5 ns
        let res = transient(&c, &TranOptions::new(n as f64 * 0.5e-9, 0.5e-9)).unwrap();
        let v = res.voltage_waveform(out);
        let seg = &v[v.len() - n..];
        let f_if = f_rf - f_lo; // 10 MHz
        let a_if = remix_dsp::tone::tone_amplitude(seg, f_if, fs);
        assert!(a_if > 1e-4, "IF product amplitude = {a_if:.3e}");
    }
}

//! Periodic steady state (PSS) by relaxation.
//!
//! For a dissipative circuit under periodic drive (an LO-pumped mixer),
//! the transient converges to the periodic orbit geometrically with the
//! circuit's damping. This engine integrates period by period and
//! declares steady state when the solution at the period boundary stops
//! moving — the robust (if not the fastest) way to get the *periodic*
//! operating point that DC analysis cannot see (at the LO midpoint all
//! four switches of a quad are off; averages over the cycle are what a
//! supply ammeter reads).
//!
//! Shooting-Newton PSS converges in fewer periods but needs a state-
//! transition Jacobian; the relaxation approach reuses the plain
//! transient engine unchanged and is exact at convergence.

use crate::error::{AnalysisError, PartialProgress};
use crate::tran::{transient, TranOptions, TranResult};
use remix_circuit::{Circuit, ElementId};

/// Graceful-degradation ladder for budgeted PSS runs.
///
/// Budget counters are monotonic — once a timestep allowance is spent,
/// every further charge fails — so degradation must happen *before* the
/// budget trips. When enabled and a
/// [`RunBudget`](remix_exec::RunBudget) with a timestep limit is armed
/// on this thread, the engine halves `steps_per_period` (halving the
/// number of resolvable harmonics each rung) until the worst-case
/// relaxation search fits the remaining allowance, stopping at
/// `min_steps_per_period`. If even the floor cannot fit, the run
/// proceeds at the floor and reports
/// [`AnalysisError::BudgetExceeded`] when the budget trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PssDegrade {
    /// Smallest steps-per-period the ladder may fall to (fewer steps
    /// resolve fewer harmonics; below ~8 a switching waveform is mush).
    pub min_steps_per_period: usize,
}

impl Default for PssDegrade {
    fn default() -> Self {
        PssDegrade {
            min_steps_per_period: 8,
        }
    }
}

/// Options for the PSS search.
#[derive(Debug, Clone)]
pub struct PssOptions {
    /// Drive period (s).
    pub period: f64,
    /// Time steps per period.
    pub steps_per_period: usize,
    /// Maximum periods to integrate before giving up.
    pub max_periods: usize,
    /// Convergence: max node-voltage change between consecutive period
    /// boundaries (V).
    pub v_tol: f64,
    /// Opt-in reduced-harmonic degradation under timestep budgets.
    /// `None` (the default) never alters the requested resolution.
    pub degrade: Option<PssDegrade>,
}

impl PssOptions {
    /// Defaults for a given period.
    pub fn new(period: f64) -> Self {
        assert!(period > 0.0);
        PssOptions {
            period,
            steps_per_period: 64,
            max_periods: 200,
            v_tol: 1e-5,
            degrade: None,
        }
    }
}

/// Worst-case timestep cost of the relaxation search at a given
/// resolution: the sum of each growing chunk's full re-integration (the
/// search restarts from t = 0 with a longer horizon every round).
fn relaxation_step_cost(steps_per_period: usize, max_periods: usize) -> u64 {
    let mut chunk = 4usize;
    let mut total = 0usize;
    let mut steps = 0u64;
    loop {
        total += chunk;
        if total > max_periods {
            return steps;
        }
        steps += (total as u64) * (steps_per_period as u64);
        chunk = (chunk * 2).min(32);
    }
}

/// A converged periodic steady state: one period of waveforms.
#[derive(Debug, Clone)]
pub struct PeriodicSteadyState {
    /// The final period's transient slice.
    pub waveforms: TranResult,
    /// Periods integrated before convergence.
    pub periods_used: usize,
    /// Final boundary-to-boundary change (V).
    pub residual: f64,
    /// Steps per period actually integrated. Smaller than the requested
    /// `steps_per_period` when the [`PssDegrade`] ladder reduced the
    /// resolution to fit a timestep budget.
    pub steps_per_period_used: usize,
}

impl PeriodicSteadyState {
    /// Time-average of a voltage-defined element's branch current (A).
    pub fn average_branch_current(&self, id: ElementId) -> f64 {
        let n = self.waveforms.len();
        (0..n)
            .map(|i| {
                self.waveforms
                    .solutions
                    .get(i)
                    .map(|_| self.waveforms.branch_current_at(i, id))
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
            / n as f64
    }
}

/// Finds the periodic steady state by period-to-period relaxation.
///
/// # Errors
///
/// [`AnalysisError::Lint`] when the implied simulation plan fails the
/// `SIM` rules (e.g. a shooting grid too coarse for a faster stimulus
/// elsewhere in the netlist). Otherwise propagates transient errors;
/// returns [`AnalysisError::NoConvergence`] when `max_periods` is
/// exhausted, and [`AnalysisError::BudgetExceeded`] when a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// (enable [`PssOptions::degrade`] to let the engine shed harmonics and
/// fit a timestep budget instead of tripping).
pub fn periodic_steady_state(
    circuit: &Circuit,
    opts: &PssOptions,
) -> Result<PeriodicSteadyState, AnalysisError> {
    crate::plan::gate(&crate::plan::pss_plan(circuit, opts))?;
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_PSS)
        .with_field("analysis", "pss")
        .with_field("elements", circuit.element_count())
        .with_field("steps_per_period", opts.steps_per_period);
    // Reduced-harmonic degradation: shed resolution up front so the
    // whole search fits the remaining timestep allowance (counters are
    // monotonic — there is no retrying after a trip).
    let mut steps_per_period = opts.steps_per_period;
    if let (Some(d), Some(token)) = (opts.degrade, remix_exec::active_token()) {
        if let Some(remaining) = token.timesteps_remaining() {
            let floor = d.min_steps_per_period.max(2);
            while steps_per_period > floor
                && relaxation_step_cost(steps_per_period, opts.max_periods) > remaining
            {
                steps_per_period = (steps_per_period / 2).max(floor);
            }
        }
    }
    let h = opts.period / steps_per_period as f64;
    // Integrate in growing chunks, checking the boundary samples: run
    // `chunk` periods at a time (one long transient keeps the companion
    // history continuous and the code simple — the engine's cost is per
    // step either way).
    let mut chunk = 4usize;
    let mut total = 0usize;
    let mut trace = crate::convergence::ConvergenceTrace::new("periodic steady state");
    loop {
        total += chunk;
        if total > opts.max_periods {
            return Err(AnalysisError::NoConvergence {
                context: format!(
                    "periodic steady state (residual after {} periods)",
                    total - chunk
                ),
                iterations: total - chunk,
                trace,
            });
        }
        let t_stop = total as f64 * opts.period;
        let mut topts = TranOptions::new(t_stop, h);
        // Keep only the last two periods for the boundary check.
        topts.record_start = t_stop - 2.0 * opts.period;
        let res = match transient(circuit, &topts) {
            Ok(res) => res,
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace: inner,
                ..
            }) => {
                // Re-contextualize: the boundary attempts made so far,
                // then the interrupted transient attempt(s).
                trace.analysis = "periodic steady state".into();
                trace.attempts.extend(inner.attempts);
                return Err(AnalysisError::BudgetExceeded {
                    interruption,
                    trace,
                    partial: PartialProgress {
                        analysis: "periodic steady state".into(),
                        completed: total - chunk,
                        total: opts.max_periods,
                    },
                });
            }
            Err(e) => return Err(e),
        };
        let n_per = steps_per_period;
        let len = res.len();
        if len < 2 * n_per {
            return Err(AnalysisError::NoConvergence {
                context: "periodic steady state (record too short)".into(),
                iterations: total,
                trace,
            });
        }
        // Max node-voltage difference one period apart, sampled at the
        // recorded grid (compare the last period against the previous).
        let mut residual = 0.0f64;
        for i in 0..n_per {
            let a = &res.solutions[len - n_per + i];
            let b = &res.solutions[len - 2 * n_per + i];
            for (x, y) in a.iter().zip(b.iter()) {
                residual = residual.max((x - y).abs());
            }
        }
        let mut attempt =
            crate::convergence::StageAttempt::new(crate::convergence::TraceStage::PssBoundary {
                periods: total,
            });
        attempt.iterations = chunk;
        attempt.final_max_dv = residual;
        attempt.outcome = if residual < opts.v_tol {
            crate::convergence::AttemptOutcome::Converged
        } else {
            crate::convergence::AttemptOutcome::ResidualAbove { residual }
        };
        trace.push(attempt);
        if residual < opts.v_tol {
            // Slice out the final period as the PSS waveforms.
            let times: Vec<f64> = res.times[len - n_per..].to_vec();
            let solutions: Vec<Vec<f64>> = res.solutions[len - n_per..].to_vec();
            let waveforms = res.with_window(times, solutions);
            return Ok(PeriodicSteadyState {
                waveforms,
                periods_used: total,
                residual,
                steps_per_period_used: steps_per_period,
            });
        }
        chunk = (chunk * 2).min(32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{Circuit, Waveform};

    fn average(w: &[f64]) -> f64 {
        w.iter().sum::<f64>() / w.len() as f64
    }

    #[test]
    fn rc_under_square_drive_reaches_pss() {
        // RC driven by a square wave: PSS is the classic exponential
        // sawtooth; the average output equals the drive's average.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let period = 1e-6;
        c.add_vsource(
            "v1",
            vin,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: period / 2.0 - 1e-9,
                period,
            },
        );
        c.add_resistor("r", vin, out, 1e3);
        c.add_capacitor("c", out, Circuit::gnd(), 1e-9); // τ = 1 µs ≈ period
        let pss = periodic_steady_state(&c, &PssOptions::new(period)).unwrap();
        assert!(pss.residual < 1e-5);
        let avg = average(&pss.waveforms.voltage_waveform(out));
        assert!((avg - 0.5).abs() < 0.01, "average {avg}");
        // The PSS ripple matches the closed form for a square-driven RC:
        // ΔV = (1 − e^{−T/2τ})/(1 + e^{−T/2τ}).
        let w = pss.waveforms.voltage_waveform(out);
        let ripple =
            w.iter().cloned().fold(f64::MIN, f64::max) - w.iter().cloned().fold(f64::MAX, f64::min);
        let x = (-period / 2.0 / 1e-6f64).exp();
        let expected = (1.0 - x) / (1.0 + x);
        assert!(
            (ripple - expected).abs() < 0.03 * expected,
            "ripple {ripple} vs {expected}"
        );
    }

    #[test]
    fn average_supply_current_of_switched_load() {
        // A 1 V source driving 1 kΩ through a 50 %-duty ideal switch
        // (modeled by a pulsed source): the average source current is
        // 0.5 mA — something a DC OP at either extreme gets wrong.
        let mut c = Circuit::new();
        let a = c.node("a");
        let period = 1e-6;
        let v = c.add_vsource(
            "v1",
            a,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: period / 2.0 - 1e-9,
                period,
            },
        );
        c.add_resistor("r", a, Circuit::gnd(), 1e3);
        let pss = periodic_steady_state(&c, &PssOptions::new(period)).unwrap();
        let i_avg = pss.average_branch_current(v);
        // Branch current p→n through the source is −load current.
        assert!((i_avg + 0.5e-3).abs() < 0.02e-3, "avg current {i_avg:.4e}");
    }

    fn fast_rc_under_sine(period: f64) -> (Circuit, remix_circuit::Node) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "v1",
            vin,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.5,
                amplitude: 0.5,
                freq: 1.0 / period,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_resistor("r", vin, out, 1e3);
        c.add_capacitor("c", out, Circuit::gnd(), 10e-12); // τ = 10 ns ≪ period
        (c, out)
    }

    #[test]
    fn degrade_ladder_sheds_harmonics_to_fit_timestep_budget() {
        let period = 1e-6;
        let (c, out) = fast_rc_under_sine(period);
        let mut opts = PssOptions::new(period);
        opts.degrade = Some(PssDegrade::default());
        // 64 steps/period needs ~27k steps worst-case; 4000 admits only
        // the 8-step rung of the ladder.
        let token = remix_exec::RunBudget::unlimited()
            .with_timesteps(4000)
            .token();
        let _g = token.arm();
        let pss = periodic_steady_state(&c, &opts).unwrap();
        assert_eq!(pss.steps_per_period_used, 8, "reduced-harmonic rung");
        assert!(pss.residual < 1e-5);
        let avg = average(&pss.waveforms.voltage_waveform(out));
        assert!((avg - 0.5).abs() < 0.02, "avg {avg}");
    }

    #[test]
    fn without_degrade_budget_trip_carries_pss_context() {
        let period = 1e-6;
        let (c, _) = fast_rc_under_sine(period);
        let opts = PssOptions::new(period);
        let token = remix_exec::RunBudget::unlimited()
            .with_timesteps(10)
            .token();
        let _g = token.arm();
        match periodic_steady_state(&c, &opts) {
            Err(AnalysisError::BudgetExceeded { trace, partial, .. }) => {
                assert_eq!(partial.analysis, "periodic steady state");
                assert_eq!(trace.analysis, "periodic steady state");
                assert!(!trace.is_empty());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn degrade_is_inert_without_a_budget() {
        let period = 1e-6;
        let (c, _) = fast_rc_under_sine(period);
        let mut opts = PssOptions::new(period);
        opts.degrade = Some(PssDegrade::default());
        let pss = periodic_steady_state(&c, &opts).unwrap();
        assert_eq!(pss.steps_per_period_used, opts.steps_per_period);
    }

    #[test]
    fn nonconvergence_reported_for_slow_circuit() {
        // τ ≫ period and very few allowed periods: must report cleanly.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(1.0, 1e6));
        c.add_resistor("r", vin, out, 1e6);
        c.add_capacitor("c", out, Circuit::gnd(), 1e-6); // τ = 1 s
        let mut opts = PssOptions::new(1e-6);
        opts.max_periods = 8;
        // Note: a linear RC starting from its DC OP with a zero-mean sine
        // can actually look converged early; force a visible start
        // transient by biasing the source.
        if let remix_circuit::Element::VoltageSource { wave, .. } =
            c.element_mut(c.find_element("v1").unwrap())
        {
            *wave = Waveform::Sin {
                offset: 0.5,
                amplitude: 0.5,
                freq: 1e6,
                phase: 0.0,
                delay: 0.0,
            };
        }
        match periodic_steady_state(&c, &opts) {
            Err(AnalysisError::NoConvergence { .. }) => {}
            Ok(p) => {
                // Acceptable alternate outcome: the huge τ means the output
                // barely moves at all, which *is* periodic to tolerance.
                assert!(p.residual < 1e-5);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

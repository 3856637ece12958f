//! Analysis error types.
//!
//! Every numerical failure variant carries a typed
//! [`ConvergenceTrace`] recording the stage attempts that preceded it —
//! drivers (Monte-Carlo sweeps, benches, tests) interrogate the trace
//! instead of parsing prose. [`AnalysisError::Singular`] additionally
//! carries a structural *diagnosis*: rendered ERC012/ERC013 lint
//! findings naming the unpivotable or ill-scaled equations, when the
//! rank pass can identify them.

use crate::convergence::ConvergenceTrace;
use remix_lint::LintReport;
use remix_numerics::{FactorError, IntegrationMethod};
use std::error::Error;
use std::fmt;

/// How far an analysis got before a budget interruption stopped it.
///
/// Rides inside [`AnalysisError::BudgetExceeded`] as a small,
/// comparable summary; analyses that can hand back the completed data
/// itself do so through their `*_partial` entry points, which return
/// [`Partial<T>`](crate::partial::Partial) instead of an error.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialProgress {
    /// The analysis that was interrupted (e.g. `"transient"`).
    pub analysis: String,
    /// Points / timesteps / samples completed before the interruption.
    pub completed: usize,
    /// Total planned units, when known up front (`0` when open-ended,
    /// e.g. an adaptive transient).
    pub total: usize,
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total > 0 {
            write!(
                f,
                "{}: {}/{} units completed",
                self.analysis, self.completed, self.total
            )
        } else {
            write!(f, "{}: {} units completed", self.analysis, self.completed)
        }
    }
}

/// Errors produced by the analysis engines.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The circuit failed electrical rule checks: the attached report
    /// carries every deny- and warn-level finding, not just the first.
    Lint(LintReport),
    /// The system matrix could not be factored (floating node, broken
    /// topology) even with gmin.
    Singular {
        /// The underlying factorization failure.
        error: FactorError,
        /// Rendered structural-rank findings (ERC012/ERC013) naming the
        /// equations the pivoting could not rescue, when the lint rank
        /// pass can identify them. Empty when the singularity is purely
        /// numerical.
        diagnosis: Vec<String>,
        /// Stage attempts made before the factorization gave up.
        trace: ConvergenceTrace,
    },
    /// The nonlinear iteration did not converge.
    NoConvergence {
        /// What was being solved when convergence failed (includes any
        /// lint warnings on the circuit, which often explain the stall).
        context: String,
        /// Iterations attempted.
        iterations: usize,
        /// Every homotopy stage attempt, with gmin / source scale /
        /// diagonal load / damping / residual / condition estimate.
        trace: ConvergenceTrace,
    },
    /// A transient step's halving cascade passed its sub-step guard
    /// without covering the grid interval.
    StepSizeUnderflow {
        /// Simulation time at which the step collapsed.
        time: f64,
        /// Integration method active when the step collapsed.
        method: IntegrationMethod,
        /// The last Newton attempts before the underflow.
        trace: ConvergenceTrace,
    },
    /// An analysis was asked for a node/element the circuit lacks.
    UnknownProbe {
        /// Description of the missing probe.
        probe: String,
    },
    /// The [`RunBudget`](remix_exec::RunBudget) armed on this thread ran
    /// out (deadline, cancellation, iteration/timestep limit, or a
    /// matrix-size refusal) before the analysis finished.
    BudgetExceeded {
        /// Which budget dimension tripped.
        interruption: remix_exec::Interruption,
        /// Attempts made up to and including the interrupted one — never
        /// empty, so a zero-deadline run still explains itself.
        trace: ConvergenceTrace,
        /// How far the analysis got.
        partial: PartialProgress,
    },
}

impl AnalysisError {
    /// Wraps a factorization failure with no diagnosis and an empty
    /// trace (the caller attaches both when it has them).
    pub fn singular(error: FactorError) -> Self {
        AnalysisError::Singular {
            error,
            diagnosis: Vec::new(),
            trace: ConvergenceTrace::default(),
        }
    }

    /// Wraps a factorization failure at one frequency point of an AC-type
    /// sweep: records a single-attempt trace and cross-references the
    /// structural-rank lint pass for a diagnosis.
    pub(crate) fn singular_at_point(
        circuit: &remix_circuit::Circuit,
        analysis: &str,
        f: f64,
        error: FactorError,
    ) -> Self {
        use crate::convergence::{AttemptOutcome, StageAttempt, TraceStage};
        let mut attempt = StageAttempt::new(TraceStage::AcPoint { f });
        attempt.iterations = 1;
        attempt.outcome = match error {
            FactorError::Singular { step } => AttemptOutcome::Singular { step },
            _ => AttemptOutcome::NotFinite,
        };
        let mut trace = ConvergenceTrace::new(analysis);
        trace.push(attempt);
        AnalysisError::Singular {
            error,
            diagnosis: crate::op::structural_diagnosis(circuit),
            trace,
        }
    }

    /// The budget interruption behind this error, when it is a
    /// [`AnalysisError::BudgetExceeded`].
    pub fn interruption(&self) -> Option<remix_exec::Interruption> {
        match self {
            AnalysisError::BudgetExceeded { interruption, .. } => Some(*interruption),
            _ => None,
        }
    }

    /// The convergence trace attached to this error, when the variant
    /// carries one.
    pub fn trace(&self) -> Option<&ConvergenceTrace> {
        match self {
            AnalysisError::Singular { trace, .. }
            | AnalysisError::NoConvergence { trace, .. }
            | AnalysisError::StepSizeUnderflow { trace, .. }
            | AnalysisError::BudgetExceeded { trace, .. } => Some(trace),
            AnalysisError::Lint(_) | AnalysisError::UnknownProbe { .. } => None,
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Lint(report) => {
                write!(f, "circuit fails electrical rule checks:\n{report}")
            }
            AnalysisError::Singular {
                error,
                diagnosis,
                trace,
            } => {
                write!(f, "singular system: {error}")?;
                for line in diagnosis {
                    write!(f, "\n{line}")?;
                }
                if !trace.is_empty() {
                    write!(f, "\n{}", trace.render())?;
                }
                Ok(())
            }
            AnalysisError::NoConvergence {
                context,
                iterations,
                trace,
            } => {
                write!(
                    f,
                    "{context} did not converge after {iterations} iterations"
                )?;
                if !trace.is_empty() {
                    write!(f, "\n{}", trace.render())?;
                }
                Ok(())
            }
            AnalysisError::StepSizeUnderflow {
                time,
                method,
                trace,
            } => {
                write!(
                    f,
                    "transient step size underflow at t = {time:.6e} s ({method:?} integration)"
                )?;
                if !trace.is_empty() {
                    write!(f, "\n{}", trace.render())?;
                }
                Ok(())
            }
            AnalysisError::UnknownProbe { probe } => write!(f, "unknown probe: {probe}"),
            AnalysisError::BudgetExceeded {
                interruption,
                trace,
                partial,
            } => {
                write!(f, "run budget exceeded: {interruption} ({partial})")?;
                if !trace.is_empty() {
                    write!(f, "\n{}", trace.render())?;
                }
                Ok(())
            }
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Singular { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<LintReport> for AnalysisError {
    fn from(report: LintReport) -> Self {
        AnalysisError::Lint(report)
    }
}

impl From<FactorError> for AnalysisError {
    fn from(e: FactorError) -> Self {
        AnalysisError::singular(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{AttemptOutcome, StageAttempt, StageKind, TraceStage};
    use remix_lint::{Diagnostic, RuleId, Severity};

    #[test]
    fn display_variants() {
        let e = AnalysisError::NoConvergence {
            context: "dc operating point".into(),
            iterations: 50,
            trace: ConvergenceTrace::default(),
        };
        assert!(e.to_string().contains("dc operating point"));
        assert!(e.to_string().contains("50"));
        let underflow = AnalysisError::StepSizeUnderflow {
            time: 1e-9,
            method: IntegrationMethod::Trapezoidal,
            trace: ConvergenceTrace::default(),
        };
        let text = underflow.to_string();
        assert!(text.contains("1e-9") || text.contains("1.000000e-9"));
        assert!(text.contains("Trapezoidal"));
        assert!(AnalysisError::UnknownProbe {
            probe: "node x".into()
        }
        .to_string()
        .contains("node x"));
    }

    #[test]
    fn lint_errors_carry_the_full_report() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: RuleId::EmptyCircuit,
                severity: Severity::Deny,
                message: "circuit contains no elements".into(),
                nodes: vec![],
                elements: vec![],
                line: None,
                fix: None,
            }],
        };
        let ae: AnalysisError = report.clone().into();
        assert_eq!(ae, AnalysisError::Lint(report));
        let text = ae.to_string();
        assert!(text.contains("ERC010_EMPTY_CIRCUIT"));
        assert!(text.contains("electrical rule checks"));
    }

    #[test]
    fn from_factor_error() {
        let fe = FactorError::Singular { step: 1 };
        let ae: AnalysisError = fe.clone().into();
        assert_eq!(ae, AnalysisError::singular(fe));
        assert!(ae.trace().is_some_and(ConvergenceTrace::is_empty));
    }

    #[test]
    fn singular_display_includes_diagnosis_and_trace() {
        let mut trace = ConvergenceTrace::new("dc operating point");
        let mut a = StageAttempt::new(TraceStage::Dc(StageKind::Direct));
        a.outcome = AttemptOutcome::Singular { step: 2 };
        trace.push(a);
        let mut e = AnalysisError::singular(FactorError::Singular { step: 2 });
        if let AnalysisError::Singular {
            diagnosis,
            trace: attached,
            ..
        } = &mut e
        {
            *diagnosis = vec!["ERC012: node n1 row is structurally empty".into()];
            *attached = trace;
        }
        let text = e.to_string();
        assert!(text.contains("ERC012"), "{text}");
        assert!(text.contains("convergence trace"), "{text}");
        // final_max_dv is NaN on a never-completed attempt, so compare
        // structure rather than PartialEq (NaN != NaN).
        let attached = e.trace().unwrap();
        assert_eq!(attached.attempts.len(), 1);
        assert_eq!(
            attached.attempts[0].outcome,
            AttemptOutcome::Singular { step: 2 }
        );
    }

    #[test]
    fn budget_exceeded_carries_nonempty_trace_and_progress() {
        let e = crate::partial::Interrupted::at(
            "dc sweep",
            TraceStage::Dc(StageKind::Direct),
            remix_exec::Interruption::DeadlineExpired { budget_ms: 0 },
        )
        .into_error("dc sweep", 3, 11);
        assert_eq!(
            e.interruption(),
            Some(remix_exec::Interruption::DeadlineExpired { budget_ms: 0 })
        );
        let trace = e.trace().expect("BudgetExceeded carries a trace");
        assert!(!trace.is_empty());
        assert!(matches!(
            trace.attempts[0].outcome,
            AttemptOutcome::Interrupted(_)
        ));
        let text = e.to_string();
        assert!(text.contains("run budget exceeded"), "{text}");
        assert!(text.contains("3/11"), "{text}");
        assert!(text.contains("convergence trace"), "{text}");
    }
}

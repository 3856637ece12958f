//! Graceful degradation: typed partial results.
//!
//! When a [`RunBudget`](remix_exec::RunBudget) interrupts a sweep-shaped
//! analysis (transient, DC sweep), callers often still want the points
//! computed so far — a deadline-capped characterization run should
//! report the half of the curve it finished, not discard it. The
//! `*_partial` entry points ([`transient_partial`](crate::tran::transient_partial),
//! [`dc_sweep_partial`](crate::dcsweep::dc_sweep_partial)) return a
//! [`Partial<T>`] wrapping the completed prefix together with an
//! [`Interrupted`] record (which budget tripped, plus the
//! [`ConvergenceTrace`] of the attempt it tripped in) instead of
//! converting the interruption into a hard
//! [`AnalysisError::BudgetExceeded`].

use crate::convergence::ConvergenceTrace;
use crate::error::{AnalysisError, PartialProgress};

/// Why (and where) an analysis was interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct Interrupted {
    /// The budget dimension that tripped.
    pub interruption: remix_exec::Interruption,
    /// The attempt the interruption landed in — never empty, so partial
    /// results explain themselves the same way hard failures do.
    pub trace: ConvergenceTrace,
}

impl Interrupted {
    /// Builds an interruption record with a single-attempt trace naming
    /// the stage the budget tripped in. Public so downstream sweep
    /// drivers (corner sweeps, studies) can report interruptions in the
    /// same shape the analyses do.
    pub fn at(
        analysis: &str,
        stage: crate::convergence::TraceStage,
        interruption: remix_exec::Interruption,
    ) -> Self {
        use crate::convergence::{AttemptOutcome, StageAttempt};
        let mut attempt = StageAttempt::new(stage);
        attempt.outcome = AttemptOutcome::Interrupted(interruption);
        let mut trace = ConvergenceTrace::new(analysis);
        trace.push(attempt);
        Interrupted {
            interruption,
            trace,
        }
    }

    /// This interruption as [`AnalysisError::BudgetExceeded`], with
    /// `completed` of `total` units of `analysis` done.
    pub(crate) fn into_error(
        self,
        analysis: &str,
        completed: usize,
        total: usize,
    ) -> AnalysisError {
        AnalysisError::BudgetExceeded {
            interruption: self.interruption,
            trace: self.trace,
            partial: PartialProgress {
                analysis: analysis.into(),
                completed,
                total,
            },
        }
    }

    /// Splits an outcome: a budget interruption comes back as the inner
    /// `Err`, so the caller can keep the work done before it; any other
    /// failure is the outer `Err`.
    pub(crate) fn split<T>(
        outcome: Result<T, AnalysisError>,
    ) -> Result<Result<T, Interrupted>, AnalysisError> {
        match outcome {
            Ok(value) => Ok(Ok(value)),
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                ..
            }) => Ok(Err(Interrupted {
                interruption,
                trace,
            })),
            Err(e) => Err(e),
        }
    }
}

/// A possibly-incomplete analysis result.
///
/// `value` always holds internally-consistent data: the completed
/// prefix of a sweep or transient, never half-written points. When
/// `interruption` is `None` the run finished normally and `value` is
/// the full result.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// The completed portion of the result.
    pub value: T,
    /// `Some` when a budget interruption cut the run short.
    pub interruption: Option<Interrupted>,
}

impl<T> Partial<T> {
    /// Wraps a fully completed result.
    pub fn complete(value: T) -> Self {
        Partial {
            value,
            interruption: None,
        }
    }

    /// Wraps a prefix cut short by `interrupted`.
    pub fn interrupted(value: T, interrupted: Interrupted) -> Self {
        Partial {
            value,
            interruption: Some(interrupted),
        }
    }

    /// `true` when the run finished without interruption.
    pub fn is_complete(&self) -> bool {
        self.interruption.is_none()
    }

    /// The value when the run finished, else its interruption as an
    /// error with `completed` of `total` units of `analysis` done.
    pub(crate) fn strict(
        self,
        analysis: &str,
        completed: usize,
        total: usize,
    ) -> Result<T, AnalysisError> {
        match self.interruption {
            None => Ok(self.value),
            Some(i) => Err(i.into_error(analysis, completed, total)),
        }
    }

    /// Maps the carried value, preserving the interruption record.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Partial<U> {
        Partial {
            value: f(self.value),
            interruption: self.interruption,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{StageKind, TraceStage};

    #[test]
    fn complete_and_interrupted_constructors() {
        let full = Partial::complete(vec![1.0, 2.0]);
        assert!(full.is_complete());
        let cut = Partial::interrupted(
            vec![1.0],
            Interrupted::at(
                "dc sweep",
                TraceStage::Dc(StageKind::Direct),
                remix_exec::Interruption::Cancelled,
            ),
        );
        assert!(!cut.is_complete());
        let why = cut.interruption.as_ref().unwrap();
        assert_eq!(why.interruption, remix_exec::Interruption::Cancelled);
        assert!(!why.trace.is_empty());
        assert_eq!(why.trace.analysis, "dc sweep");
    }

    #[test]
    fn map_preserves_interruption() {
        let cut = Partial::interrupted(
            3usize,
            Interrupted::at(
                "transient",
                TraceStage::TranStep { t: 1e-9, h: 1e-12 },
                remix_exec::Interruption::Timesteps { limit: 3 },
            ),
        );
        let mapped = cut.map(|n| n * 2);
        assert_eq!(mapped.value, 6);
        assert!(!mapped.is_complete());
    }
}

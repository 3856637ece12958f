//! Convergence control: declarative homotopy policies and typed failure
//! traces.
//!
//! The DC operating-point engine used to hard-code its homotopy ladder
//! (direct → gmin stepping → source stepping) and collapse every failure
//! into a format string. This module makes both ends structured:
//!
//! * [`ConvergencePolicy`] — an ordered ladder of [`StageKind`]s the
//!   solver walks until one converges, retried under progressively
//!   tighter damping. The default ladder adds a pseudo-transient
//!   continuation fallback after source stepping: Newton with a decaying
//!   diagonal load `λ·I`, the implicit-Euler limit of integrating the
//!   circuit's node voltages through artificial time.
//! * [`ConvergenceTrace`] — a typed record of every stage attempt (gmin,
//!   source scale, diagonal load, damping, iterations, final max-Δv,
//!   condition estimate, outcome) that rides inside
//!   [`AnalysisError`](crate::error::AnalysisError) instead of prose, so
//!   drivers and tests can interrogate *why* a solve failed.
//!
//! Transient, PSS, AC, and noise analyses reuse [`TraceStage`] to record
//! their own attempts (a Newton step at `t`, an AC factorization at `f`,
//! a PSS period-boundary residual), so every analysis failure in the
//! crate carries the same schema.

use std::fmt;

/// One stage kind in a convergence policy ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageKind {
    /// Plain damped Newton at the target gmin and full sources, ended
    /// early ([`AttemptOutcome::RanAway`]) once a node voltage passes ten
    /// times the circuit's largest DC voltage-source magnitude.
    Direct,
    /// Gmin stepping: relax a large channel conductance decade by decade
    /// down to the target, with a final rung *exactly at* the target
    /// (even when the target is not a decade multiple of `start`).
    GminLadder {
        /// Initial (largest) gmin (S).
        start: f64,
    },
    /// Source stepping: ramp independent sources from `1/steps` to 100 %
    /// at the target gmin.
    SourceRamp {
        /// Number of ramp points.
        steps: usize,
    },
    /// Pseudo-transient continuation: damped Newton with a diagonal load
    /// `λ` on every node equation (implicit Euler through artificial
    /// time), relaxed geometrically from `lambda0` by `decay` per round,
    /// finishing with an exact solve at `λ = 0`.
    PseudoTransient {
        /// Initial diagonal load (S).
        lambda0: f64,
        /// Multiplicative decay per round (0 < decay < 1).
        decay: f64,
        /// Number of loaded rounds before the exact solve.
        rounds: usize,
    },
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageKind::Direct => write!(f, "direct"),
            StageKind::GminLadder { start } => write!(f, "gmin ladder from {start:.0e}"),
            StageKind::SourceRamp { steps } => write!(f, "source ramp ({steps} steps)"),
            StageKind::PseudoTransient {
                lambda0,
                decay,
                rounds,
            } => write!(
                f,
                "pseudo-transient λ0 {lambda0:.0e} ×{decay} ({rounds} rounds)"
            ),
        }
    }
}

/// One Newton solve a ladder stage makes: the homotopy parameters it runs
/// at, and whether the stage fails when that solve misses tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rung {
    /// gmin across MOS channels (S).
    pub(crate) gmin: f64,
    /// Homotopy scale applied to independent sources.
    pub(crate) source_scale: f64,
    /// Pseudo-transient diagonal load (S; 0 for none).
    pub(crate) diag_load: f64,
    /// `false` for a relaxation rung whose miss is fine: only the
    /// iterate it leaves behind matters.
    pub(crate) must_converge: bool,
}

impl StageKind {
    /// The rungs this stage walks, in order, toward `target_gmin`. The
    /// stage converges when every rung that must converge does.
    pub(crate) fn rungs(&self, target_gmin: f64) -> Vec<Rung> {
        let rung = |gmin, source_scale, diag_load, must_converge| Rung {
            gmin,
            source_scale,
            diag_load,
            must_converge,
        };
        match *self {
            StageKind::Direct => vec![rung(target_gmin, 1.0, 0.0, true)],
            StageKind::GminLadder { start } => ConvergencePolicy::gmin_rungs(start, target_gmin)
                .into_iter()
                .map(|g| rung(g, 1.0, 0.0, true))
                .collect(),
            StageKind::SourceRamp { steps } => {
                let steps = steps.max(1);
                (1..=steps)
                    .map(|step| rung(target_gmin, step as f64 / steps as f64, 0.0, true))
                    .collect()
            }
            StageKind::PseudoTransient {
                lambda0,
                decay,
                rounds,
            } => {
                // Loaded rounds relax the iterate toward the solution (the
                // load keeps it bounded); only the final exact solve
                // decides.
                let mut lambda = lambda0;
                let mut rungs = Vec::with_capacity(rounds + 1);
                for _ in 0..rounds {
                    rungs.push(rung(target_gmin, 1.0, lambda, false));
                    lambda *= decay;
                }
                rungs.push(rung(target_gmin, 1.0, 0.0, true));
                rungs
            }
        }
    }
}

/// Declarative homotopy ladder for the nonlinear DC solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePolicy {
    /// Ordered stages; the first to converge wins.
    pub stages: Vec<StageKind>,
    /// The whole ladder is retried this many times, each retry tightening
    /// the damping limit (`dv_max / 3^k`) and extending the iteration
    /// budget — strong feedback loops can limit-cycle at loose damping.
    pub damping_retries: usize,
}

impl Default for ConvergencePolicy {
    fn default() -> Self {
        ConvergencePolicy {
            stages: vec![
                StageKind::Direct,
                StageKind::GminLadder { start: 1e-3 },
                StageKind::SourceRamp { steps: 10 },
                StageKind::PseudoTransient {
                    lambda0: 1e-2,
                    decay: 0.1,
                    rounds: 5,
                },
            ],
            damping_retries: 3,
        }
    }
}

impl ConvergencePolicy {
    /// A policy with a single stage (useful for tests pinning one
    /// stage's trace, or callers that know their circuit).
    pub fn single(stage: StageKind) -> Self {
        ConvergencePolicy {
            stages: vec![stage],
            damping_retries: 1,
        }
    }

    /// The gmin rungs a [`StageKind::GminLadder`] visits for a target
    /// gmin: decades from `start` down, then one final rung clamped to
    /// *exactly* `target` (the pre-policy loop `gmin /= 10` skipped the
    /// target whenever it was not a decade multiple of the start).
    pub fn gmin_rungs(start: f64, target: f64) -> Vec<f64> {
        let mut rungs = Vec::new();
        let mut g = start;
        while g > target * (1.0 + 1e-9) {
            rungs.push(g);
            g /= 10.0;
        }
        rungs.push(target);
        rungs
    }
}

/// Where in an analysis a traced attempt happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceStage {
    /// A DC homotopy stage attempt.
    Dc(StageKind),
    /// A transient Newton solve for the step ending at `t` (s).
    TranStep {
        /// End time of the step (s).
        t: f64,
        /// Step size (s).
        h: f64,
    },
    /// An AC (or AC-noise) factorization at frequency `f` (Hz).
    AcPoint {
        /// Analysis frequency (Hz).
        f: f64,
    },
    /// A PSS period-boundary residual check after `periods` periods.
    PssBoundary {
        /// Total periods integrated when the residual was measured.
        periods: usize,
    },
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStage::Dc(k) => write!(f, "dc {k}"),
            TraceStage::TranStep { t, h } => write!(f, "tran step t={t:.3e} h={h:.1e}"),
            TraceStage::AcPoint { f: freq } => write!(f, "ac point f={freq:.3e}"),
            TraceStage::PssBoundary { periods } => {
                write!(f, "pss boundary after {periods} periods")
            }
        }
    }
}

/// How one traced attempt ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt converged.
    Converged,
    /// The iteration budget ran out before the tolerance was met.
    MaxIterations,
    /// A node voltage passed the Direct stage's runaway bound (ten times
    /// the largest DC voltage-source magnitude), so the stage was ended
    /// before its iteration budget: such an iterate only drifts further
    /// off the rails.
    RanAway {
        /// The bound the node voltage passed (V).
        volts: f64,
    },
    /// The iterate left the finite domain (NaN/∞ node voltage).
    Diverged,
    /// The system matrix could not be factored at elimination step `step`.
    Singular {
        /// Elimination step at which the pivot underflowed.
        step: usize,
    },
    /// The assembled matrix or RHS contained a non-finite entry.
    NotFinite,
    /// The boundary residual was still above tolerance (PSS).
    ResidualAbove {
        /// Measured residual (V).
        residual: f64,
    },
    /// The run budget armed on this thread interrupted the attempt
    /// (deadline, cancellation, or an iteration/step/matrix-size limit).
    Interrupted(remix_exec::Interruption),
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptOutcome::Converged => write!(f, "converged"),
            AttemptOutcome::MaxIterations => write!(f, "max iterations"),
            AttemptOutcome::RanAway { volts } => write!(f, "ran away past {volts:.1} V"),
            AttemptOutcome::Diverged => write!(f, "diverged (non-finite iterate)"),
            AttemptOutcome::Singular { step } => write!(f, "singular at step {step}"),
            AttemptOutcome::NotFinite => write!(f, "non-finite system"),
            AttemptOutcome::ResidualAbove { residual } => {
                write!(f, "residual {residual:.3e} above tolerance")
            }
            AttemptOutcome::Interrupted(i) => write!(f, "interrupted: {i}"),
        }
    }
}

/// One recorded stage attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageAttempt {
    /// Which stage (and where) this attempt ran.
    pub stage: TraceStage,
    /// gmin in effect (S).
    pub gmin: f64,
    /// Source homotopy scale in effect (1.0 = full sources).
    pub source_scale: f64,
    /// Pseudo-transient diagonal load in effect (S; 0 when unused).
    pub diag_load: f64,
    /// Damping limit on per-iteration node-voltage moves (V).
    pub dv_max: f64,
    /// Newton/relaxation iterations spent.
    pub iterations: usize,
    /// Final max node-voltage change (V) — the convergence residual
    /// proxy; `NaN` when the attempt never completed an iteration.
    pub final_max_dv: f64,
    /// Reciprocal condition estimate of the last factored system, when
    /// one was factored.
    pub rcond: Option<f64>,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

impl StageAttempt {
    /// Starts a blank attempt record for a stage.
    pub fn new(stage: TraceStage) -> Self {
        StageAttempt {
            stage,
            gmin: 0.0,
            source_scale: 1.0,
            diag_load: 0.0,
            dv_max: f64::INFINITY,
            iterations: 0,
            final_max_dv: f64::NAN,
            rcond: None,
            outcome: AttemptOutcome::MaxIterations,
        }
    }
}

/// Reciprocal condition estimate below which a *successful* solve is
/// flagged as ill-conditioned (the answer exists but deserves distrust).
pub const ILL_CONDITION_RCOND: f64 = 1e-12;

/// A typed record of every stage attempt an analysis made before it
/// succeeded or gave up. Carried inside
/// [`AnalysisError`](crate::error::AnalysisError) variants so failure
/// consumers never have to parse prose.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceTrace {
    /// What was being solved (e.g. `"dc operating point"`).
    pub analysis: String,
    /// Every attempt, in execution order.
    pub attempts: Vec<StageAttempt>,
}

impl ConvergenceTrace {
    /// Starts an empty trace for the named analysis.
    pub fn new(analysis: impl Into<String>) -> Self {
        ConvergenceTrace {
            analysis: analysis.into(),
            attempts: Vec::new(),
        }
    }

    /// Records an attempt. Every attempt also ticks the per-stage
    /// telemetry counters (`remix.analysis.convergence.attempts.*`), so
    /// a bench record shows which homotopy rungs a run actually leaned
    /// on.
    pub fn push(&mut self, attempt: StageAttempt) {
        if remix_telemetry::is_armed() {
            let stage = match attempt.stage {
                TraceStage::Dc(StageKind::Direct) => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_DIRECT
                }
                TraceStage::Dc(StageKind::GminLadder { .. }) => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_GMIN_LADDER
                }
                TraceStage::Dc(StageKind::SourceRamp { .. }) => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_SOURCE_RAMP
                }
                TraceStage::Dc(StageKind::PseudoTransient { .. }) => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT
                }
                TraceStage::TranStep { .. } => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_TRAN_STEP
                }
                TraceStage::AcPoint { .. } => remix_telemetry::names::CONVERGENCE_ATTEMPTS_AC_POINT,
                TraceStage::PssBoundary { .. } => {
                    remix_telemetry::names::CONVERGENCE_ATTEMPTS_PSS_BOUNDARY
                }
            };
            remix_telemetry::counter_add(stage, 1);
            remix_telemetry::counter_add(
                remix_telemetry::names::CONVERGENCE_ITERATIONS,
                attempt.iterations as u64,
            );
        }
        self.attempts.push(attempt);
    }

    /// Total iterations across all recorded attempts.
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// Renders the trace as an aligned multi-line table.
    pub fn render(&self) -> String {
        let mut out = format!("convergence trace — {}\n", self.analysis);
        out.push_str(
            "  #  stage                                    gmin      src    load     dv_max   iters  max_dv     rcond     outcome\n",
        );
        for (i, a) in self.attempts.iter().enumerate() {
            let rcond = a
                .rcond
                .map(|r| format!("{r:.1e}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "  {i:<2} {:<40} {:<9.1e} {:<6.2} {:<8.1e} {:<8.1e} {:<6} {:<10.2e} {rcond:<9} {}\n",
                a.stage.to_string(),
                a.gmin,
                a.source_scale,
                a.diag_load,
                a.dv_max,
                a.iterations,
                a.final_max_dv,
                a.outcome,
            ));
        }
        out
    }

    /// One-line summary: stage count, iterations, last outcome.
    pub fn summary(&self) -> String {
        match self.attempts.last() {
            None => format!("{}: no attempts recorded", self.analysis),
            Some(last) => format!(
                "{}: {} stage attempts, {} iterations, last [{}] {}",
                self.analysis,
                self.attempts.len(),
                self.total_iterations(),
                last.stage,
                last.outcome
            ),
        }
    }
}

impl fmt::Display for ConvergenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmin_rungs_clamp_to_non_decade_target() {
        let rungs = ConvergencePolicy::gmin_rungs(1e-3, 2.5e-12);
        assert_eq!(*rungs.last().unwrap(), 2.5e-12, "{rungs:?}");
        // Strictly descending, no rung below the target.
        for w in rungs.windows(2) {
            assert!(w[0] > w[1], "{rungs:?}");
        }
        assert!(rungs.iter().all(|&g| g >= 2.5e-12));
        // Decade target: classic ladder, one rung per decade.
        let dec = ConvergencePolicy::gmin_rungs(1e-3, 1e-12);
        assert_eq!(dec.len(), 10);
        assert_eq!(*dec.last().unwrap(), 1e-12);
    }

    #[test]
    fn stage_kinds_expand_into_their_rungs() {
        let direct = StageKind::Direct.rungs(1e-12);
        assert_eq!(direct.len(), 1);
        assert_eq!((direct[0].gmin, direct[0].source_scale), (1e-12, 1.0));
        assert!(direct[0].must_converge);

        let ladder = StageKind::GminLadder { start: 1e-3 }.rungs(2.5e-12);
        let gmins: Vec<f64> = ladder.iter().map(|r| r.gmin).collect();
        assert_eq!(gmins, ConvergencePolicy::gmin_rungs(1e-3, 2.5e-12));
        assert!(ladder.iter().all(|r| r.must_converge && r.diag_load == 0.0));

        let ramp = StageKind::SourceRamp { steps: 4 }.rungs(1e-12);
        let scales: Vec<f64> = ramp.iter().map(|r| r.source_scale).collect();
        assert_eq!(scales, [0.25, 0.5, 0.75, 1.0]);
        assert_eq!(StageKind::SourceRamp { steps: 0 }.rungs(1e-12).len(), 1);

        let pt = StageKind::PseudoTransient {
            lambda0: 1e-2,
            decay: 0.1,
            rounds: 3,
        }
        .rungs(1e-12);
        let loads: Vec<f64> = pt.iter().map(|r| r.diag_load).collect();
        assert_eq!(loads, [1e-2, 1e-2 * 0.1, 1e-2 * 0.1 * 0.1, 0.0]);
        let musts: Vec<bool> = pt.iter().map(|r| r.must_converge).collect();
        assert_eq!(musts, [false, false, false, true]);
    }

    #[test]
    fn default_policy_ends_in_pseudo_transient() {
        let p = ConvergencePolicy::default();
        assert_eq!(p.stages.len(), 4);
        assert!(matches!(
            p.stages.last(),
            Some(StageKind::PseudoTransient { .. })
        ));
        assert_eq!(p.stages[0], StageKind::Direct);
    }

    #[test]
    fn trace_accumulates_and_summarizes() {
        let mut t = ConvergenceTrace::new("dc operating point");
        assert!(t.is_empty());
        let mut a = StageAttempt::new(TraceStage::Dc(StageKind::Direct));
        a.iterations = 12;
        a.rcond = Some(1e-3);
        a.outcome = AttemptOutcome::MaxIterations;
        t.push(a);
        let mut b = StageAttempt::new(TraceStage::Dc(StageKind::GminLadder { start: 1e-3 }));
        b.iterations = 30;
        b.rcond = Some(1e-14);
        b.outcome = AttemptOutcome::Converged;
        t.push(b);
        assert_eq!(t.total_iterations(), 42);
        let s = t.summary();
        assert!(s.contains("2 stage attempts"), "{s}");
        assert!(s.contains("42 iterations"), "{s}");
        let r = t.render();
        assert!(r.contains("gmin ladder from 1e-3"), "{r}");
        assert!(r.contains("converged"), "{r}");
    }

    #[test]
    fn stage_displays_are_informative() {
        assert_eq!(StageKind::Direct.to_string(), "direct");
        assert!(StageKind::SourceRamp { steps: 10 }
            .to_string()
            .contains("10 steps"));
        assert!(TraceStage::TranStep { t: 1e-9, h: 1e-12 }
            .to_string()
            .contains("1.000e-9"));
        assert!(TraceStage::AcPoint { f: 2.45e9 }
            .to_string()
            .contains("ac point"));
        assert!(AttemptOutcome::Singular { step: 3 }
            .to_string()
            .contains("step 3"));
        assert_eq!(
            AttemptOutcome::RanAway { volts: 12.0 }.to_string(),
            "ran away past 12.0 V"
        );
    }
}

//! DC operating-point analysis.
//!
//! Solves the nonlinear DC system by iterated linearization (the classic
//! SPICE formulation: each solve of the companion-linearized system yields
//! the next iterate), with per-iteration **damping** that limits the
//! maximum node-voltage change (keeps exponential device curves from
//! flinging the iterate). That damped loop, `NewtonSystem::converge`, is
//! the only Newton loop in the crate: every transient step runs it too.
//!
//! The homotopy ladder is declarative: a [`ConvergencePolicy`] lists the
//! stages (by default direct → gmin stepping → source stepping →
//! pseudo-transient continuation) and the solver walks them until one
//! converges, recording every attempt in a [`ConvergenceTrace`] that
//! rides inside the returned [`OperatingPoint`] on success or the
//! [`AnalysisError`] on failure.
//!
//! The Direct stage is bounded: it ends ([`AttemptOutcome::RanAway`]) as
//! soon as a node voltage passes ten times the largest DC magnitude among
//! the solved circuit's independent voltage sources (12 V on a 1.2 V
//! supply; no bound without a nonzero voltage source). On the full mixer
//! a Direct run that far off the rails only drifts further, clamped to
//! `dv_max` per iteration, until `max_iter`. Ending it early does not
//! move the result: every stage starts from the all-zero guess, so a
//! failed Direct stage leaves the next stage nothing but the solver's
//! pivot order, and a solution that lies past the bound is reached by
//! the later stages, which run unbounded, as does the transient.
//!
//! [`dc_operating_point`] is one solve of an `OpSession`, which lints and
//! lays the circuit out once; a DC sweep solves all its points in one
//! session.

use crate::convergence::{
    AttemptOutcome, ConvergencePolicy, ConvergenceTrace, StageAttempt, StageKind, TraceStage,
    ILL_CONDITION_RCOND,
};
use crate::error::{AnalysisError, PartialProgress};
use crate::stamp::{assemble_real, stamp_diag_load, RealAssembler, RealMode};
use remix_circuit::{Circuit, Element, ElementId, MnaLayout, MosCaps, MosEval, Node};
use remix_numerics::{CsrMatrix, FactorError, LuFactor, SparseLu, SparseSolver, TripletMatrix};

/// Which linear-algebra path factors the MNA system each Newton step.
///
/// The sparse path is the production solver; the dense path is an
/// independent reference implementation (different pivoting order,
/// different elimination code, no fault-injection hooks) used by the
/// differential oracle in `tests/` to cross-check operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinearSolverKind {
    /// Sparse LU via `remix_numerics::SparseLu`.
    Sparse,
    /// Dense LU with partial pivoting via `remix_numerics::LuFactor`,
    /// factoring the densified MNA matrix.
    Dense,
}

/// Options controlling the operating-point solve.
#[derive(Debug, Clone)]
pub struct OpOptions {
    /// Maximum iterations per stage. A Direct stage whose iterate runs
    /// past ten times the largest DC voltage-source magnitude ends before
    /// this budget, as [`AttemptOutcome::RanAway`]; the other stages
    /// always get the whole budget.
    pub max_iter: usize,
    /// Convergence tolerance on node-voltage change (V).
    pub v_tol: f64,
    /// Maximum per-iteration node-voltage change (V); larger proposed
    /// steps are scaled down.
    pub dv_max: f64,
    /// Final (smallest) gmin left in the circuit (S).
    pub gmin: f64,
    /// The homotopy ladder to walk when the direct solve stalls.
    pub policy: ConvergencePolicy,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            max_iter: 150,
            v_tol: 1e-9,
            dv_max: 0.3,
            gmin: 1e-12,
            policy: ConvergencePolicy::default(),
        }
    }
}

/// One factored MNA system, behind either linear-algebra path.
enum Factored<'s> {
    Sparse(&'s SparseLu<f64>),
    Dense(LuFactor<f64>),
}

impl Factored<'_> {
    fn rcond_estimate(&self) -> f64 {
        match self {
            Factored::Sparse(lu) => lu.rcond_estimate(),
            Factored::Dense(lu) => lu.rcond_estimate(),
        }
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), FactorError> {
        match self {
            Factored::Sparse(lu) => lu.solve_into(b, x),
            Factored::Dense(lu) => {
                x.copy_from_slice(&lu.solve(b)?);
                Ok(())
            }
        }
    }
}

/// Factors the assembled system through the selected path. The sparse
/// path keeps the fault-injection hook and reuses the call's solver; the
/// dense reference path deliberately bypasses both so the oracle's two
/// solves fail independently.
fn factor_system<'s>(
    solver: &'s mut SparseSolver<f64>,
    a: &CsrMatrix<f64>,
    kind: LinearSolverKind,
) -> Result<Factored<'s>, FactorError> {
    match kind {
        LinearSolverKind::Sparse => crate::fault::factor(solver, a).map(Factored::Sparse),
        LinearSolverKind::Dense => LuFactor::factor(&a.to_dense()).map(Factored::Dense),
    }
}

/// The damped-Newton workspace: the compiled stamp plan, the sparse
/// solver (a solve whose matrix pattern matches the previous
/// factorization's refactors in it), and the rhs and solution buffers.
/// One is kept across every homotopy stage of every solve of an
/// [`OpSession`], and one across every step of a transient run;
/// [`converge`] is the only Newton loop either makes.
///
/// [`converge`]: NewtonSystem::converge
pub(crate) struct NewtonSystem {
    asm: RealAssembler,
    solver: SparseSolver<f64>,
    kind: LinearSolverKind,
    /// The dense reference path's triplet assembly, independent of the
    /// plan.
    triplets: TripletMatrix<f64>,
    rhs: Vec<f64>,
    x_new: Vec<f64>,
    /// What [`restart`](Self::restart) seeds the solver with.
    seed: Seed,
}

/// What a [`NewtonSystem`] keeps of its first factorization, for
/// [`restart`](NewtonSystem::restart) to start each solve from.
pub(crate) enum Seed {
    /// To be kept: the system has not attempted a factorization yet.
    Pending,
    /// The factors of the system's first factorization.
    Kept(SparseLu<f64>),
    /// Nothing: the system is not restarted (a standalone operating
    /// point, a transient run), or its first factorization failed or
    /// went through the dense path.
    Absent,
}

impl NewtonSystem {
    /// A workspace for `layout`; `seed` is [`Seed::Pending`] when the
    /// system will be restarted and so keeps its first factors, else
    /// [`Seed::Absent`].
    pub(crate) fn new(layout: &MnaLayout, kind: LinearSolverKind, seed: Seed) -> Self {
        let dim = layout.dim();
        NewtonSystem {
            asm: RealAssembler::new(layout),
            solver: SparseSolver::new(),
            kind,
            triplets: TripletMatrix::new(dim, dim),
            rhs: vec![0.0; dim],
            x_new: vec![0.0; dim],
            seed,
        }
    }

    /// Restarts the sparse solver for a solve whose first matrix is the
    /// system's first matrix again: from the seed when there is one (no
    /// pivot search, the same factors bit for bit), copied into the
    /// solver's current factors without allocating, with nothing
    /// factored otherwise. The stamp plan is kept.
    pub(crate) fn restart(&mut self) {
        match &self.seed {
            Seed::Kept(lu) => self.solver.reseed(lu),
            Seed::Pending | Seed::Absent => self.solver = SparseSolver::new(),
        }
    }

    /// Runs damped Newton on the system `mode` (plus `attempt`'s
    /// pseudo-transient diagonal load) from the guess `x`, updating `x`
    /// in place, for at most `max_iter` iterations (the fault plan's cap
    /// applies). Each update is scaled so no node voltage moves more than
    /// `attempt.dv_max`; the solve converges when the scaled move is
    /// below `v_tol`, and otherwise ends as soon as a node voltage's
    /// magnitude passes `v_bound` (`f64::INFINITY` for none). The
    /// returned run carries `attempt` with its iterations, final move,
    /// condition estimate and outcome filled in.
    /// When `mos_evals` is given it receives each MOS evaluation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn converge(
        &mut self,
        circuit: &Circuit,
        layout: &MnaLayout,
        mode: &RealMode<'_>,
        x: &mut [f64],
        mut attempt: StageAttempt,
        v_tol: f64,
        max_iter: usize,
        v_bound: f64,
        mut mos_evals: Option<&mut Vec<Option<MosEval>>>,
    ) -> StageRun {
        let nodes = layout.node_unknowns();
        let dv_max = attempt.dv_max;
        if self.kind == LinearSolverKind::Sparse {
            self.asm.begin(circuit, layout, mode, attempt.diag_load);
        }
        let end = |mut attempt: StageAttempt, outcome, factor_error| {
            attempt.outcome = outcome;
            StageRun {
                attempt,
                factor_error,
            }
        };
        for iter in 0..crate::fault::newton_cap(max_iter) {
            if let Err(i) = remix_exec::charge_newton_iteration() {
                return end(attempt, AttemptOutcome::Interrupted(i), None);
            }
            attempt.iterations = iter + 1;
            let dense_csr;
            let a = match self.kind {
                LinearSolverKind::Sparse => {
                    self.asm
                        .assemble(circuit, layout, x, &mut self.rhs, mos_evals.as_deref_mut())
                }
                LinearSolverKind::Dense => {
                    let m = &mut self.triplets;
                    let evals = mos_evals.as_deref_mut();
                    assemble_real(circuit, layout, x, mode, m, &mut self.rhs, evals);
                    stamp_diag_load(m, &mut self.rhs, x, nodes, attempt.diag_load);
                    dense_csr = m.to_csr();
                    &dense_csr
                }
            };
            let factored = factor_system(&mut self.solver, a, self.kind);
            if let Seed::Pending = self.seed {
                self.seed = match &factored {
                    Ok(Factored::Sparse(lu)) => Seed::Kept((*lu).clone()),
                    _ => Seed::Absent,
                };
            }
            let solved = factored.and_then(|lu| {
                attempt.rcond = Some(lu.rcond_estimate());
                lu.solve_into(&self.rhs, &mut self.x_new)
            });
            if let Err(e) = solved {
                return end(attempt, factor_outcome(&e), Some(e));
            }

            // Damping limited to node voltages; branch currents follow freely.
            let x_new = &self.x_new;
            let mut max_dv: f64 = 0.0;
            for i in 0..nodes {
                max_dv = max_dv.max((x_new[i] - x[i]).abs());
            }
            let alpha = if max_dv > dv_max {
                dv_max / max_dv
            } else {
                1.0
            };
            for (xi, &ni) in x.iter_mut().zip(x_new) {
                *xi += alpha * (ni - *xi);
            }
            attempt.final_max_dv = max_dv * alpha;
            if !x.iter().all(|v| v.is_finite()) {
                return end(attempt, AttemptOutcome::Diverged, None);
            }
            if max_dv * alpha < v_tol {
                return end(attempt, AttemptOutcome::Converged, None);
            }
            if x[..nodes].iter().any(|v| v.abs() > v_bound) {
                let outcome = AttemptOutcome::RanAway { volts: v_bound };
                return end(attempt, outcome, None);
            }
        }
        end(attempt, AttemptOutcome::MaxIterations, None)
    }
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The MNA layout used (shared by follow-on analyses).
    pub layout: MnaLayout,
    /// Solution vector (node voltages then branch currents).
    pub solution: Vec<f64>,
    /// Per-element MOS evaluation at the solution (None for non-MOS).
    pub mos_evals: Vec<Option<MosEval>>,
    /// Per-element MOS capacitances at the solution (None for non-MOS).
    pub mos_caps: Vec<Option<MosCaps>>,
    /// Total iterations across all homotopy stages.
    pub iterations: usize,
    /// Every homotopy stage attempt made on the way here, including the
    /// converged one (last) with its condition estimate.
    pub trace: ConvergenceTrace,
}

impl OperatingPoint {
    /// Voltage of a node.
    pub fn voltage(&self, n: Node) -> f64 {
        self.layout.voltage(&self.solution, n)
    }

    /// Branch current of a voltage-defined element (positive `p → n`
    /// through the element).
    pub fn branch_current(&self, id: ElementId) -> f64 {
        self.layout.branch_current(&self.solution, id)
    }

    /// MOS evaluation for an element id, if it is a MOSFET.
    pub fn mos_eval(&self, id: ElementId) -> Option<&MosEval> {
        self.mos_evals[id.index()].as_ref()
    }

    /// Reciprocal condition estimate of the system that produced the
    /// solution (the converged attempt's factorization).
    pub fn rcond(&self) -> Option<f64> {
        self.trace.attempts.last().and_then(|a| a.rcond)
    }

    /// Warning text when the solve *succeeded* but the factored system
    /// was ill-conditioned — the voltages exist but deserve distrust.
    pub fn condition_warning(&self) -> Option<String> {
        let r = self.rcond()?;
        (r < ILL_CONDITION_RCOND).then(|| {
            format!(
                "operating point is ill-conditioned (rcond ≈ {r:.1e} < {ILL_CONDITION_RCOND:.0e}): \
                 node voltages may carry large numerical error"
            )
        })
    }
}

/// Rendered structural-rank lint findings (ERC012 structural singular,
/// ERC013 ill-scaled) for a circuit — the diagnosis attached to
/// [`AnalysisError::Singular`] so the message names the unpivotable or
/// ill-scaled equations instead of just an elimination step index.
pub fn structural_diagnosis(circuit: &Circuit) -> Vec<String> {
    let report = remix_lint::lint(circuit, &remix_lint::LintConfig::default());
    report
        .diagnostics
        .iter()
        .filter(|d| {
            matches!(
                d.rule,
                remix_lint::RuleId::StructuralSingular | remix_lint::RuleId::IllScaled
            )
        })
        .map(|d| d.render())
        .collect()
}

/// Result of one [`NewtonSystem::converge`] run.
pub(crate) struct StageRun {
    /// The typed record of the run (always produced, success or not).
    pub(crate) attempt: StageAttempt,
    /// The factorization failure that ended the run, if one did.
    pub(crate) factor_error: Option<FactorError>,
}

impl StageRun {
    /// Whether the run met tolerance.
    pub(crate) fn converged(&self) -> bool {
        self.attempt.outcome == AttemptOutcome::Converged
    }

    /// The budget interruption that ended the run, if one did. Unlike a
    /// convergence failure this must not trigger further homotopy stages,
    /// damping retries or step halving — the caller unwinds immediately.
    pub(crate) fn interrupted(&self) -> Option<remix_exec::Interruption> {
        match self.attempt.outcome {
            AttemptOutcome::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

/// Maps a factorization failure to its traced outcome.
fn factor_outcome(e: &FactorError) -> AttemptOutcome {
    match e {
        FactorError::Singular { step } => AttemptOutcome::Singular { step: *step },
        FactorError::Budget(i) => AttemptOutcome::Interrupted(*i),
        _ => AttemptOutcome::NotFinite,
    }
}

/// Walks one ladder stage of a [`ConvergencePolicy`] from a zero guess,
/// one Newton solve per rung, pushing every attempt into `trace`. A
/// Direct stage's solve ends once a node voltage passes `direct_bound`;
/// the other stages run unbounded.
/// Returns whether the stage converged, the last factorization failure
/// seen inside it, and the budget interruption that cut it short, if any.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    kind: StageKind,
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &mut [f64],
    stage_opts: &OpOptions,
    direct_bound: f64,
    mos_evals: &mut Vec<Option<MosEval>>,
    sys: &mut NewtonSystem,
    trace: &mut ConvergenceTrace,
) -> (bool, Option<FactorError>, Option<remix_exec::Interruption>) {
    x.fill(0.0);
    let v_bound = match kind {
        StageKind::Direct => direct_bound,
        _ => f64::INFINITY,
    };
    let mut last_ferr: Option<FactorError> = None;
    for rung in kind.rungs(stage_opts.gmin) {
        let mut attempt = StageAttempt::new(TraceStage::Dc(kind));
        attempt.gmin = rung.gmin;
        attempt.source_scale = rung.source_scale;
        attempt.diag_load = rung.diag_load;
        attempt.dv_max = stage_opts.dv_max;
        let mode = RealMode::Dc {
            gmin: rung.gmin,
            source_scale: rung.source_scale,
        };
        let run = sys.converge(
            circuit,
            layout,
            &mode,
            x,
            attempt,
            stage_opts.v_tol,
            stage_opts.max_iter,
            v_bound,
            Some(mos_evals),
        );
        let (converged, interrupted) = (run.converged(), run.interrupted());
        if run.factor_error.is_some() {
            last_ferr = run.factor_error;
        }
        trace.push(run.attempt);
        if interrupted.is_some() {
            return (false, last_ferr, interrupted);
        }
        if !converged {
            if rung.must_converge {
                return (false, last_ferr, None);
            }
            // A relaxation rung may miss tolerance, but the next rung
            // must not start from a non-finite guess.
            if !x.iter().all(|v| v.is_finite()) {
                x.fill(0.0);
            }
        }
    }
    (true, last_ferr, None)
}

/// The node voltage past which a Direct-stage run is abandoned: ten
/// times the largest DC magnitude among `circuit`'s independent voltage
/// sources, or no bound (`f64::INFINITY`) when none is nonzero.
fn direct_bound(circuit: &Circuit) -> f64 {
    let largest = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::VoltageSource { wave, .. } => Some(wave.eval(0.0).abs()),
            _ => None,
        })
        .fold(0.0, f64::max);
    if largest > 0.0 {
        10.0 * largest
    } else {
        f64::INFINITY
    }
}

/// An operating-point session: one circuit topology, linted and laid
/// out once, then solved any number of times.
///
/// [`open`](Self::open) runs the deny-level lint and builds the MNA
/// layout and one [`NewtonSystem`]. Each [`solve`](Self::solve) walks
/// the homotopy ladder on the circuit it is given, which may differ from
/// the opened one only in the values of its voltage sources: a DC
/// sweep's points. Such a value moves only the rhs, so every solve reuses
/// the compiled stamp plan. Every solve also starts on the same first
/// rung from the all-zero guess, so its first matrix is the session's
/// first matrix; the solver restarts from that matrix's factors
/// ([`NewtonSystem::restart`]) and refactors instead of searching for
/// pivots. Each solve therefore returns exactly what
/// [`dc_operating_point`] returns for its circuit, bit for bit.
pub(crate) struct OpSession<'o> {
    opts: &'o OpOptions,
    /// The opened circuit's lint report: clean at deny level; its
    /// warn-level findings explain a solve that fails to converge.
    lint: remix_lint::LintReport,
    layout: MnaLayout,
    sys: NewtonSystem,
}

impl<'o> OpSession<'o> {
    /// Lints `circuit` and lays it out, to factor each Newton step
    /// through `kind`. `seed` is [`Seed::Pending`]
    /// for a session that will solve more than once (a DC sweep), so
    /// its system keeps the first factors to restart from, and
    /// [`Seed::Absent`] for a single solve, which needs no copy of them.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Lint`] if the circuit has deny-level ERC
    /// findings.
    pub(crate) fn open(
        circuit: &Circuit,
        opts: &'o OpOptions,
        kind: LinearSolverKind,
        seed: Seed,
    ) -> Result<Self, AnalysisError> {
        let lint = remix_lint::lint(circuit, &remix_lint::LintConfig::default());
        if !lint.is_clean() {
            return Err(AnalysisError::Lint(lint));
        }
        let layout = MnaLayout::new(circuit);
        let sys = NewtonSystem::new(&layout, kind, seed);
        Ok(OpSession {
            opts,
            lint,
            layout,
            sys,
        })
    }

    /// Solves the operating point of `circuit`: the opened circuit, or
    /// it with other voltage-source values.
    ///
    /// # Errors
    ///
    /// As for [`dc_operating_point`], except [`AnalysisError::Lint`].
    pub(crate) fn solve(&mut self, circuit: &Circuit) -> Result<OperatingPoint, AnalysisError> {
        let (opts, layout) = (self.opts, &self.layout);
        let dim = layout.dim();
        let n_elem = circuit.element_count();
        let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_OP)
            .with_field("analysis", "op")
            .with_field("dim", dim)
            .with_field("elements", n_elem);
        let mut x = vec![0.0; dim];
        let mut mos_evals: Vec<Option<MosEval>> = vec![None; n_elem];
        let mut trace = ConvergenceTrace::new("dc operating point");
        let sys = &mut self.sys;
        sys.restart();
        // From the circuit solved, not the one opened: a sweep point's
        // bound is its standalone operating point's.
        let direct_bound = direct_bound(circuit);

        // Walk the policy ladder, retried with progressively tighter
        // damping: strong feedback loops (the TIA around its two-stage
        // OTA) can limit-cycle at loose damping.
        let mut converged = false;
        let mut last_factor_error: Option<FactorError> = None;
        'damping: for tighten in 0..opts.policy.damping_retries.max(1) {
            let stage_opts = OpOptions {
                dv_max: opts.dv_max / 3f64.powi(tighten as i32),
                max_iter: opts.max_iter * (1 + 2 * tighten),
                ..opts.clone()
            };
            for kind in &opts.policy.stages {
                let (ok, ferr, interrupted) = run_stage(
                    *kind,
                    circuit,
                    layout,
                    &mut x,
                    &stage_opts,
                    direct_bound,
                    &mut mos_evals,
                    sys,
                    &mut trace,
                );
                if ferr.is_some() {
                    last_factor_error = ferr;
                }
                if let Some(i) = interrupted {
                    return Err(AnalysisError::BudgetExceeded {
                        interruption: i,
                        trace,
                        partial: PartialProgress {
                            analysis: "dc operating point".into(),
                            completed: 0,
                            total: 0,
                        },
                    });
                }
                if ok {
                    converged = true;
                    break 'damping;
                }
            }
        }
        if !converged {
            // A ladder that ended on a factorization failure is a
            // *singular* problem (cross-referenced against the
            // structural-rank lint pass), not a stalled iteration.
            let ended_singular = matches!(
                trace.attempts.last().map(|a| a.outcome),
                Some(AttemptOutcome::Singular { .. }) | Some(AttemptOutcome::NotFinite)
            );
            if let (true, Some(fe)) = (ended_singular, last_factor_error) {
                return Err(AnalysisError::Singular {
                    error: fe,
                    diagnosis: structural_diagnosis(circuit),
                    trace,
                });
            }
            // Warn-level findings did not block the solve, but a circuit
            // that then fails to converge is exactly where they become
            // relevant.
            let mut context = "dc operating point".to_string();
            if self.lint.warn_count() > 0 {
                let warns: Vec<String> = self
                    .lint
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == remix_lint::Severity::Warn)
                    .map(|d| d.render())
                    .collect();
                context.push_str(" [lint: ");
                context.push_str(&warns.join("; "));
                context.push(']');
            }
            return Err(AnalysisError::NoConvergence {
                context,
                iterations: trace.total_iterations(),
                trace,
            });
        }

        // Capture MOS caps at the final solution.
        let mut mos_caps: Vec<Option<MosCaps>> = vec![None; n_elem];
        for (idx, e) in circuit.elements().iter().enumerate() {
            if let Element::Mos { dev, .. } = e {
                if let Some(ev) = &mos_evals[idx] {
                    mos_caps[idx] = Some(dev.capacitances(ev));
                }
            }
        }

        let iterations = trace.total_iterations();
        let op = OperatingPoint {
            layout: layout.clone(),
            solution: x,
            mos_evals,
            mos_caps,
            iterations,
            trace,
        };
        if let Some(rcond) = op.rcond() {
            remix_telemetry::gauge_set(remix_telemetry::names::ANALYSIS_OP_RCOND, rcond);
        }
        Ok(op)
    }
}

/// Computes the DC operating point of a circuit.
///
/// # Errors
///
/// * [`AnalysisError::Lint`] if the circuit has deny-level ERC findings
///   (the report carries every finding, not just the first);
/// * [`AnalysisError::Singular`] if the MNA matrix cannot be factored even
///   with maximum gmin;
/// * [`AnalysisError::NoConvergence`] if every policy stage fails; the
///   attached [`ConvergenceTrace`] records each attempt, and any
///   warn-level lint findings are appended to the error context, since
///   they often explain the stall;
/// * [`AnalysisError::BudgetExceeded`] if a
///   [`RunBudget`](remix_exec::RunBudget) armed on this thread ran out
///   mid-solve — the homotopy ladder unwinds immediately (no further
///   stages or damping retries) with the interrupted attempt recorded.
pub fn dc_operating_point(
    circuit: &Circuit,
    opts: &OpOptions,
) -> Result<OperatingPoint, AnalysisError> {
    OpSession::open(circuit, opts, LinearSolverKind::Sparse, Seed::Absent)?.solve(circuit)
}

/// [`dc_operating_point`] through the dense reference LU path (the
/// densified MNA matrix factored by `remix_numerics::LuFactor`): same
/// Newton iteration and homotopy ladder, independent linear algebra. Exists for differential testing —
/// solve a circuit both ways and compare node voltages.
///
/// # Errors
///
/// Same as [`dc_operating_point`].
pub fn dc_operating_point_dense(
    circuit: &Circuit,
    opts: &OpOptions,
) -> Result<OperatingPoint, AnalysisError> {
    OpSession::open(circuit, opts, LinearSolverKind::Dense, Seed::Absent)?.solve(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{Circuit, MosModel, Waveform};

    fn op(circuit: &Circuit) -> OperatingPoint {
        dc_operating_point(circuit, &OpOptions::default()).unwrap()
    }

    #[test]
    fn dense_reference_path_matches_sparse() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("rl", vdd, out, 2e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            out,
            out,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let sparse = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let dense = dc_operating_point_dense(&c, &OpOptions::default()).unwrap();
        for n in [vdd, out] {
            let (a, b) = (sparse.voltage(n), dense.voltage(n));
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "node {}: sparse {a} vs dense {b}",
                c.node_name(n)
            );
        }
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vin, out, 10e3);
        c.add_resistor("r2", out, Circuit::gnd(), 20e3);
        let op = op(&c);
        assert!((op.voltage(vin) - 1.2).abs() < 1e-9);
        assert!((op.voltage(out) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn vsource_branch_current_sign() {
        // 1 V across 1 kΩ: 1 mA flows out of the + terminal through the
        // external resistor, i.e. the *branch* current (p→n through the
        // source) is −1 mA.
        let mut c = Circuit::new();
        let a = c.node("a");
        let v1 = c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.branch_current(v1) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        // 1 mA pulled out of node a (p = a): v(a) = −R·I.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("i1", a, Circuit::gnd(), Waveform::Dc(1e-3));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(a) + 1.0).abs() < 1e-9, "v = {}", op.voltage(a));
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_inductor("l1", a, b, 1e-9);
        c.add_resistor("r1", b, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, b, 1e3);
        c.add_capacitor("c1", b, Circuit::gnd(), 1e-12);
        c.add_resistor("r2", b, Circuit::gnd(), 1e6);
        let op = op(&c);
        // Divider 1k/1M: v(b) ≈ 0.999.
        assert!((op.voltage(b) - 1e6 / 1.001e6).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected() {
        // Diode-connected NMOS pulled up through a resistor: solves the
        // classic nonlinear bias point.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let op = op(&c);
        let vd = op.voltage(d);
        // Gate-drain tied: device in saturation, vd somewhat above vth.
        assert!(vd > 0.35 && vd < 0.8, "vd = {vd}");
        // KCL: resistor current equals drain current.
        let id = op.mos_eval(ElementId::from_index(2)).unwrap().id;
        let ir = (1.2 - vd) / 10e3;
        assert!((id - ir).abs() < 1e-6 * ir.max(1e-9), "id {id} vs ir {ir}");
    }

    #[test]
    fn common_source_amplifier_bias() {
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
        let op = op(&c);
        let vd = op.voltage(d);
        assert!(vd > 0.1 && vd < 1.15, "vd = {vd}");
        let ev = op.mos_eval(ElementId::from_index(3)).unwrap();
        assert!(ev.gm > 1e-4, "gm = {}", ev.gm);
    }

    #[test]
    fn cmos_inverter_transfer_extremes() {
        for (vin, expect_high) in [(0.0, true), (1.2, false)] {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
            c.add_vsource("vin", inp, Circuit::gnd(), Waveform::Dc(vin));
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
            let op = op(&c);
            let vo = op.voltage(out);
            if expect_high {
                assert!(vo > 1.1, "inverter high: {vo}");
            } else {
                assert!(vo < 0.1, "inverter low: {vo}");
            }
        }
    }

    #[test]
    fn iterations_reported() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!(op.iterations >= 1);
    }

    #[test]
    fn invalid_circuit_rejected_with_all_findings() {
        let c = Circuit::new();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::Lint(report)) => {
                assert!(!report.is_clean());
                assert_eq!(report.by_rule(remix_lint::RuleId::EmptyCircuit).len(), 1);
            }
            other => panic!("expected Lint, got {other:?}"),
        }
    }

    #[test]
    fn success_trace_records_converged_attempt_with_rcond() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!(!op.trace.is_empty());
        let last = op.trace.attempts.last().unwrap();
        assert_eq!(last.outcome, crate::convergence::AttemptOutcome::Converged);
        let r = op.rcond().expect("converged attempt records rcond");
        assert!(r > 0.0 && r <= 1.0, "rcond = {r}");
        // A healthy divider is far from ill-conditioned.
        assert!(op.condition_warning().is_none());
    }

    #[test]
    fn gmin_ladder_descent_trace_is_pinned() {
        // Force the ladder (no direct stage) with a non-decade target so
        // the final rung must clamp to exactly the target.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            gmin: 2.5e-12,
            policy: crate::convergence::ConvergencePolicy::single(
                crate::convergence::StageKind::GminLadder { start: 1e-3 },
            ),
            ..OpOptions::default()
        };
        let op = dc_operating_point(&c, &opts).unwrap();
        let expected = crate::convergence::ConvergencePolicy::gmin_rungs(1e-3, 2.5e-12);
        let got: Vec<f64> = op.trace.attempts.iter().map(|a| a.gmin).collect();
        assert_eq!(got, expected, "one attempt per rung, in descent order");
        assert_eq!(*got.last().unwrap(), 2.5e-12, "last rung clamps to target");
        for a in &op.trace.attempts {
            assert_eq!(a.outcome, crate::convergence::AttemptOutcome::Converged);
            assert_eq!(a.source_scale, 1.0);
            assert_eq!(a.diag_load, 0.0);
            assert!(a.iterations >= 1);
            assert!(a.rcond.is_some());
            assert!(matches!(a.stage, crate::convergence::TraceStage::Dc(
                    crate::convergence::StageKind::GminLadder { start }
                ) if start == 1e-3));
        }
    }

    #[test]
    fn pseudo_transient_stage_alone_solves_nonlinear_bias() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            policy: crate::convergence::ConvergencePolicy::single(
                crate::convergence::StageKind::PseudoTransient {
                    lambda0: 1e-2,
                    decay: 0.1,
                    rounds: 5,
                },
            ),
            ..OpOptions::default()
        };
        let op = dc_operating_point(&c, &opts).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.35 && vd < 0.8, "vd = {vd}");
        // 5 loaded rounds + 1 exact solve, loads strictly decaying to 0.
        assert_eq!(op.trace.attempts.len(), 6);
        let loads: Vec<f64> = op.trace.attempts.iter().map(|a| a.diag_load).collect();
        assert_eq!(loads[0], 1e-2);
        assert_eq!(*loads.last().unwrap(), 0.0);
        for w in loads.windows(2) {
            assert!(w[0] > w[1] || w[1] == 0.0, "{loads:?}");
        }
    }

    #[test]
    fn no_convergence_carries_full_trace() {
        // One Newton iteration cannot solve a MOS bias point; with a
        // single direct stage and one damping pass the solve must fail
        // and the error must carry the attempt record.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            max_iter: 1,
            policy: crate::convergence::ConvergencePolicy {
                stages: vec![crate::convergence::StageKind::Direct],
                damping_retries: 1,
            },
            ..OpOptions::default()
        };
        match dc_operating_point(&c, &opts) {
            Err(AnalysisError::NoConvergence {
                iterations, trace, ..
            }) => {
                assert!(!trace.is_empty());
                assert_eq!(trace.total_iterations(), iterations);
                assert_eq!(
                    trace.attempts[0].outcome,
                    crate::convergence::AttemptOutcome::MaxIterations
                );
            }
            other => panic!("expected NoConvergence with trace, got {other:?}"),
        }
    }

    #[test]
    fn structural_diagnosis_names_rank_findings() {
        // A node whose every terminal is a controlled-source *control*
        // pin: invisible to the heuristic rules, but its KCL row is
        // structurally empty — only the rank pass (ERC012) names it.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        let out2 = c.node("out2");
        let ctrl = c.node("ctrl");
        c.add_vcvs("e1", out2, Circuit::gnd(), ctrl, Circuit::gnd(), 2.0);
        c.add_resistor("r_load", out2, Circuit::gnd(), 1e3);
        c.add_vccs("g1", out, Circuit::gnd(), ctrl, Circuit::gnd(), 1e-3);
        let diag = structural_diagnosis(&c);
        assert!(
            diag.iter()
                .any(|d| d.contains("ERC012") && d.contains("ctrl")),
            "expected an ERC012 finding naming 'ctrl', got {diag:?}"
        );
    }

    #[test]
    fn zero_deadline_interrupts_with_nonempty_trace() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let token = remix_exec::RunBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .token();
        let _guard = token.arm();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                partial,
            }) => {
                assert!(matches!(
                    interruption,
                    remix_exec::Interruption::DeadlineExpired { .. }
                ));
                assert!(!trace.is_empty(), "interrupted attempt must be recorded");
                assert_eq!(partial.analysis, "dc operating point");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn newton_budget_interrupts_mid_ladder() {
        // A nonlinear bias point needs more than 2 Newton iterations;
        // the iteration budget must stop the ladder without retries.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let token = remix_exec::RunBudget::unlimited()
            .with_newton_iterations(2)
            .token();
        let _guard = token.arm();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                ..
            }) => {
                assert_eq!(
                    interruption,
                    remix_exec::Interruption::NewtonIterations { limit: 2 }
                );
                assert!(trace.total_iterations() <= 2, "{}", trace.render());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn sine_source_op_uses_t0_value() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(
            "v1",
            a,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.6,
                amplitude: 0.1,
                freq: 1e9,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(a) - 0.6).abs() < 1e-9);
    }
}

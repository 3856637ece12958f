//! Process / voltage / temperature (PVT) corner analysis.
//!
//! The paper reports a single typical-corner simulation; a production
//! design review would ask how the reconfigurable mixer behaves at the
//! classic five process corners and over temperature. Corners scale the
//! device models (`kp`, `vt0`, flicker) with standard first-order laws and
//! re-run the *entire* extraction flow — nothing is special-cased.
//!
//! A sweep is resumable: it is one caller of the shared study driver,
//! [`crate::study::run_study`], which persists every completed
//! corner and restores them on the next invocation. This module supplies
//! the per-corner extraction, the configuration fingerprint a checkpoint
//! is bound to, and the corner codec ([`ExtractedParams::to_flat`]).

use crate::checkpoint::StudyOutcome;
use crate::config::MixerConfig;
use crate::model::ExtractedParams;
use crate::study::{run_study, StudyRecord};
use remix_analysis::{
    AnalysisError, ConvergenceTrace, Interrupted, Partial, StageKind, TraceStage,
};
use remix_circuit::MosModel;
use std::path::Path;

/// The five classic process corners (NMOS letter first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessCorner {
    /// Typical/typical.
    Tt,
    /// Fast/fast.
    Ff,
    /// Slow/slow.
    Ss,
    /// Fast NMOS / slow PMOS.
    Fs,
    /// Slow NMOS / fast PMOS.
    Sf,
}

impl ProcessCorner {
    /// All five corners in conventional order.
    pub fn all() -> [ProcessCorner; 5] {
        [
            ProcessCorner::Tt,
            ProcessCorner::Ff,
            ProcessCorner::Ss,
            ProcessCorner::Fs,
            ProcessCorner::Sf,
        ]
    }

    /// Label as printed in corner tables.
    pub fn label(self) -> &'static str {
        match self {
            ProcessCorner::Tt => "TT",
            ProcessCorner::Ff => "FF",
            ProcessCorner::Ss => "SS",
            ProcessCorner::Fs => "FS",
            ProcessCorner::Sf => "SF",
        }
    }

    /// `(nmos_fast, pmos_fast)` as signed speed signs (+1 fast, −1 slow,
    /// 0 typical).
    fn signs(self) -> (f64, f64) {
        match self {
            ProcessCorner::Tt => (0.0, 0.0),
            ProcessCorner::Ff => (1.0, 1.0),
            ProcessCorner::Ss => (-1.0, -1.0),
            ProcessCorner::Fs => (1.0, -1.0),
            ProcessCorner::Sf => (-1.0, 1.0),
        }
    }
}

/// A full PVT point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Process corner.
    pub process: ProcessCorner,
    /// Junction temperature (°C).
    pub temp_c: f64,
    /// Supply voltage (V); `None` keeps the config's nominal.
    pub vdd: Option<f64>,
}

impl Corner {
    /// Typical corner at 27 °C, nominal supply.
    pub fn typical() -> Self {
        Corner {
            process: ProcessCorner::Tt,
            temp_c: 27.0,
            vdd: None,
        }
    }

    /// The conventional worst-speed point (SS, hot, low supply).
    pub fn slow_hot(vdd_drop: f64) -> impl Fn(&MixerConfig) -> Corner {
        move |cfg| Corner {
            process: ProcessCorner::Ss,
            temp_c: 85.0,
            vdd: Some(cfg.vdd - vdd_drop),
        }
    }

    fn scale_model(m: &MosModel, fast_sign: f64, temp_c: f64) -> MosModel {
        let t = temp_c + 273.15;
        let t0 = 300.0;
        let mut out = m.clone();
        // Process: ±10 % kp, ∓30 mV vt0 at the fast/slow extremes.
        out.kp *= 1.0 + 0.10 * fast_sign;
        out.vt0 -= 0.030 * fast_sign;
        // Temperature: mobility ∝ T^−1.5, |vt| drops ~1 mV/K.
        out.kp *= (t / t0).powf(-1.5);
        out.vt0 -= 1.0e-3 * (t - t0);
        // Hot devices flicker a little more (trap activation).
        out.kf *= 1.0 + 0.005 * (t - t0);
        out
    }

    /// Produces a configuration with corner-scaled device models (and
    /// supply, if overridden).
    pub fn apply(&self, base: &MixerConfig) -> MixerConfig {
        let (sn, sp) = self.process.signs();
        MixerConfig {
            nmos: Self::scale_model(&base.nmos, sn, self.temp_c),
            pmos: Self::scale_model(&base.pmos, sp, self.temp_c),
            vdd: self.vdd.unwrap_or(base.vdd),
            ..base.clone()
        }
    }
}

/// Outcome of one corner extraction.
#[derive(Debug, Clone)]
pub enum CornerOutcome {
    /// The full extraction flow succeeded at this corner.
    Ok(Box<ExtractedParams>),
    /// The extraction failed; the trace records what the convergence
    /// ladder tried before giving up.
    Failed(ConvergenceTrace),
}

impl CornerOutcome {
    /// `true` when the corner extracted.
    pub fn is_ok(&self) -> bool {
        matches!(self, CornerOutcome::Ok(_))
    }

    /// The extracted parameters, when the corner solved.
    pub fn params(&self) -> Option<&ExtractedParams> {
        match self {
            CornerOutcome::Ok(p) => Some(p),
            CornerOutcome::Failed(_) => None,
        }
    }

    /// The failure trace, when the corner did not solve.
    pub fn trace(&self) -> Option<&ConvergenceTrace> {
        match self {
            CornerOutcome::Ok(_) => None,
            CornerOutcome::Failed(t) => Some(t),
        }
    }
}

/// A completed corner sweep: one outcome per requested corner, in the
/// order requested.
#[derive(Debug, Clone)]
pub struct CornerSweep {
    /// `(corner, outcome)` pairs.
    pub results: Vec<(Corner, CornerOutcome)>,
    /// Corners extracted by this invocation.
    pub computed: usize,
    /// Corners restored from the checkpoint instead of recomputed.
    pub resumed: usize,
}

impl CornerSweep {
    /// Number of corners that extracted.
    pub fn n_ok(&self) -> usize {
        self.results.iter().filter(|(_, o)| o.is_ok()).count()
    }

    /// Fraction of corners that extracted (1.0 for an empty sweep).
    pub fn yield_fraction(&self) -> f64 {
        if self.results.is_empty() {
            1.0
        } else {
            self.n_ok() as f64 / self.results.len() as f64
        }
    }

    /// `(corner, trace)` for every failed corner, in order.
    pub fn failures(&self) -> impl Iterator<Item = (&Corner, &ConvergenceTrace)> {
        self.results
            .iter()
            .filter_map(|(c, o)| o.trace().map(|t| (c, t)))
    }

    /// One-line yield summary, e.g. `corner yield 4/5 (80.0 %)`.
    pub fn summary_line(&self) -> String {
        format!(
            "corner yield {}/{} ({:.1} %)",
            self.n_ok(),
            self.results.len(),
            100.0 * self.yield_fraction()
        )
    }
}

/// The study label of corner-sweep checkpoints.
const CORNER_STUDY: &str = "corners";

/// The configuration fingerprint a corner-sweep checkpoint is bound to:
/// the model/supply scalars the outcome depends on plus every requested
/// corner. A checkpoint written for a different base design or corner
/// list is rejected on load, never merged.
fn study_config(base: &MixerConfig, corners: &[Corner]) -> Vec<(String, f64)> {
    let mut cfg = vec![
        ("base.vdd".to_string(), base.vdd),
        ("base.nmos.kp".to_string(), base.nmos.kp),
        ("base.nmos.vt0".to_string(), base.nmos.vt0),
        ("base.pmos.kp".to_string(), base.pmos.kp),
        ("base.pmos.vt0".to_string(), base.pmos.vt0),
        ("base.tca_vcm".to_string(), base.tca_vcm),
        ("corners".to_string(), corners.len() as f64),
    ];
    for (i, c) in corners.iter().enumerate() {
        let (sn, sp) = c.process.signs();
        cfg.push((format!("corner{i}.nmos_sign"), sn));
        cfg.push((format!("corner{i}.pmos_sign"), sp));
        cfg.push((format!("corner{i}.temp_c"), c.temp_c));
        cfg.push((format!("corner{i}.has_vdd"), f64::from(c.vdd.is_some())));
        cfg.push((format!("corner{i}.vdd"), c.vdd.unwrap_or(0.0)));
    }
    cfg
}

impl StudyRecord for CornerOutcome {
    fn encode(&self) -> StudyOutcome {
        match self {
            CornerOutcome::Ok(p) => StudyOutcome::Ok(p.to_flat()),
            CornerOutcome::Failed(t) => StudyOutcome::Failed(t.summary()),
        }
    }

    fn decode_ok(values: &[f64]) -> Option<Self> {
        ExtractedParams::from_flat(values).map(|p| CornerOutcome::Ok(Box::new(p)))
    }

    fn failed(trace: ConvergenceTrace) -> Self {
        CornerOutcome::Failed(trace)
    }
}

/// Runs the full extraction flow at every requested corner, isolating
/// failures: a corner that refuses to converge is recorded with its
/// convergence trace and the sweep continues to the next corner instead
/// of aborting the design review at the first casualty.
pub fn sweep_corners(base: &MixerConfig, corners: &[Corner]) -> CornerSweep {
    sweep_corners_resumable(base, corners, None).value
}

/// [`sweep_corners`] with checkpoint/resume and run-budget awareness,
/// on the default (serial) pool.
pub fn sweep_corners_resumable(
    base: &MixerConfig,
    corners: &[Corner],
    checkpoint: Option<&Path>,
) -> Partial<CornerSweep> {
    sweep_corners_resumable_with(
        base,
        corners,
        checkpoint,
        &remix_exec::PoolOptions::default(),
    )
}

/// [`sweep_corners`] with checkpoint/resume, run-budget awareness and
/// an explicit [`remix_exec::PoolOptions`] — the parallel entry point.
///
/// The sweep runs on [`crate::study::run_study`]. When
/// `checkpoint` names a file, every completed corner (pass *or* fail)
/// is persisted there — correct under out-of-order completion — and a
/// compatible existing checkpoint is resumed: completed corners are
/// restored, not re-run. A checkpoint written for a different base
/// configuration or corner list is ignored, as is a record whose
/// payload no longer deserializes.
///
/// When a [`RunBudget`](remix_exec::RunBudget) armed on this thread
/// trips — at a corner boundary or inside an extraction — the sweep
/// stops and returns the completed prefix as an interrupted
/// [`Partial`]; with a checkpoint, a later invocation finishes only the
/// remaining corners (including any completed out of order, which the
/// bitmap retains beyond the returned prefix).
pub fn sweep_corners_resumable_with(
    base: &MixerConfig,
    corners: &[Corner],
    checkpoint: Option<&Path>,
    pool: &remix_exec::PoolOptions,
) -> Partial<CornerSweep> {
    // A budget trip mid-extraction carries the analysis trace; the pool
    // reports only the typed interruption, so the first trace is handed
    // out-of-band to the Partial below.
    let first_trace: std::sync::Mutex<Option<ConvergenceTrace>> = std::sync::Mutex::new(None);
    // A fault plan armed on the caller thread must also bite on pool
    // workers: capture it here and re-arm per task (counters restart
    // per corner — the deterministic parallel semantics).
    #[cfg(feature = "fault-inject")]
    let caller_fault = remix_analysis::active_plan();
    let run = run_study(
        CORNER_STUDY,
        &study_config(base, corners),
        corners.len(),
        checkpoint,
        pool,
        |ctx| {
            let i = ctx.index;
            #[cfg(feature = "fault-inject")]
            let _fault = caller_fault.map(remix_analysis::FaultPlan::arm);
            let cfg = corners[i].apply(base);
            let _span = remix_telemetry::span(remix_telemetry::names::CORE_CORNERS_CORNER)
                .with_field("index", i)
                .with_field("process", corners[i].process.label());
            match ExtractedParams::extract(&cfg) {
                Ok(params) => remix_exec::TaskResult::Done(CornerOutcome::Ok(Box::new(params))),
                Err(AnalysisError::BudgetExceeded {
                    interruption,
                    trace,
                    ..
                }) => {
                    // Interrupts the *sweep*; nothing is recorded for
                    // the corner, so a resumed run recomputes it in
                    // full.
                    if let Ok(mut slot) = first_trace.lock() {
                        if slot.is_none() {
                            *slot = Some(trace);
                        }
                    }
                    remix_exec::TaskResult::Interrupted(interruption)
                }
                Err(e) => remix_exec::TaskResult::Done(CornerOutcome::Failed(
                    crate::montecarlo::failure_trace(&e),
                )),
            }
        },
        |_| {},
    );
    let sweep = CornerSweep {
        results: corners.iter().copied().zip(run.outcomes).collect(),
        computed: run.computed,
        resumed: run.resumed,
    };
    match run.interrupted {
        None => Partial::complete(sweep),
        Some(interruption) => {
            let trace = first_trace.lock().ok().and_then(|mut slot| slot.take());
            let interrupted = match trace {
                Some(trace) => Interrupted {
                    interruption,
                    trace,
                },
                None => Interrupted::at(
                    "corner sweep",
                    TraceStage::Dc(StageKind::Direct),
                    interruption,
                ),
            };
            Partial::interrupted(sweep, interrupted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ExtractedParams, MixerModel};
    use crate::MixerMode;

    #[test]
    fn corner_scaling_laws() {
        let base = MixerConfig::default();
        let ff = Corner {
            process: ProcessCorner::Ff,
            temp_c: 27.0,
            vdd: None,
        }
        .apply(&base);
        assert!(ff.nmos.kp > base.nmos.kp);
        assert!(ff.nmos.vt0 < base.nmos.vt0);
        assert!(ff.pmos.kp > base.pmos.kp);

        let hot = Corner {
            process: ProcessCorner::Tt,
            temp_c: 85.0,
            vdd: None,
        }
        .apply(&base);
        assert!(hot.nmos.kp < base.nmos.kp, "mobility falls when hot");
        assert!(hot.nmos.vt0 < base.nmos.vt0, "threshold falls when hot");
        assert!(hot.nmos.kf > base.nmos.kf);

        let tt27 = Corner::typical().apply(&base);
        assert!((tt27.nmos.kp - base.nmos.kp).abs() < 1e-3 * base.nmos.kp);
    }

    #[test]
    fn cross_corner_asymmetry() {
        let base = MixerConfig::default();
        let fs = Corner {
            process: ProcessCorner::Fs,
            temp_c: 27.0,
            vdd: None,
        }
        .apply(&base);
        assert!(fs.nmos.kp > base.nmos.kp);
        assert!(fs.pmos.kp < base.pmos.kp);
    }

    /// The expensive but decisive test: the design's key orderings hold
    /// at the speed extremes, not just at TT.
    #[test]
    fn orderings_hold_at_speed_corners() {
        let base = MixerConfig::default();
        for process in [ProcessCorner::Ff, ProcessCorner::Ss] {
            let cfg = Corner {
                process,
                temp_c: 27.0,
                vdd: None,
            }
            .apply(&base);
            let params = ExtractedParams::extract(&cfg).expect("corner extraction");
            let a = MixerModel::new(cfg.clone(), MixerMode::Active, params.clone());
            let p = MixerModel::new(cfg, MixerMode::Passive, params);
            let label = process.label();
            assert!(
                a.conv_gain_db(2.45e9, 5e6) > p.conv_gain_db(2.45e9, 5e6),
                "{label}: active gain must stay above passive"
            );
            assert!(
                p.iip3_dbm() > a.iip3_dbm() + 10.0,
                "{label}: passive linearity advantage must survive"
            );
            assert!(
                a.nf_db(5e6) < p.nf_db(5e6) + 0.5,
                "{label}: active NF must not fall behind passive"
            );
        }
    }

    #[test]
    fn corner_sweep_isolates_and_summarizes() {
        let base = MixerConfig::default();
        let path =
            std::env::temp_dir().join(format!("remix_corner_resume_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sweep = sweep_corners_resumable(&base, &[Corner::typical()], Some(&path));
        assert!(sweep.is_complete());
        let sweep = sweep.value;
        assert_eq!(sweep.results.len(), 1);
        assert_eq!(sweep.computed, 1);
        assert_eq!(sweep.resumed, 0);
        assert_eq!(sweep.n_ok(), 1);
        assert!(sweep.results[0].1.params().is_some());
        assert!(sweep.failures().next().is_none());
        assert_eq!(sweep.summary_line(), "corner yield 1/1 (100.0 %)");

        // A second invocation restores the corner from the checkpoint
        // bit-for-bit instead of re-extracting.
        let resumed = sweep_corners_resumable(&base, &[Corner::typical()], Some(&path));
        assert!(resumed.is_complete());
        let resumed = resumed.value;
        assert_eq!(resumed.computed, 0, "completed corners must not re-run");
        assert_eq!(resumed.resumed, 1);
        assert_eq!(
            resumed.results[0].1.params(),
            sweep.results[0].1.params(),
            "restored params must round-trip exactly"
        );

        // A different base design must reject the checkpoint rather
        // than resume someone else's corners.
        let other = MixerConfig {
            vdd: base.vdd + 0.1,
            ..base.clone()
        };
        let load = |cfg: &MixerConfig| {
            let fingerprint = study_config(cfg, &[Corner::typical()]);
            crate::checkpoint::load_study_any(&path, CORNER_STUDY, &fingerprint, 1)
        };
        assert_eq!(load(&base).map(|records| records.len()), Some(1));
        assert!(load(&other).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_deadline_interrupts_the_sweep_before_any_extraction() {
        let base = MixerConfig::default();
        let budget = remix_exec::RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let token = budget.token();
        let _guard = token.arm();
        let partial = sweep_corners_resumable(&base, &[Corner::typical()], None);
        assert!(!partial.is_complete());
        assert!(partial.value.results.is_empty());
        let why = partial.interruption.as_ref().unwrap();
        assert!(matches!(
            why.interruption,
            remix_exec::Interruption::DeadlineExpired { .. }
        ));
        assert!(!why.trace.is_empty());
        assert_eq!(why.trace.analysis, "corner sweep");
    }

    #[test]
    fn budget_trip_mid_extraction_interrupts_with_the_analysis_trace() {
        // A Newton budget far too small for a full extraction trips
        // inside the first corner's flow; the sweep reports the
        // interruption with the underlying analysis trace instead of
        // recording the corner as failed.
        let base = MixerConfig::default();
        let budget = remix_exec::RunBudget::unlimited().with_newton_iterations(3);
        let token = budget.token();
        let _guard = token.arm();
        let partial = sweep_corners_resumable(&base, &[Corner::typical()], None);
        assert!(!partial.is_complete());
        assert_eq!(partial.value.computed, 0);
        let why = partial.interruption.as_ref().unwrap();
        assert_eq!(
            why.interruption,
            remix_exec::Interruption::NewtonIterations { limit: 3 }
        );
        assert!(!why.trace.is_empty());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn corner_sweep_keeps_going_past_failing_corners() {
        use remix_analysis::FaultPlan;
        let base = MixerConfig::default();
        let corners: Vec<Corner> = [ProcessCorner::Tt, ProcessCorner::Ff, ProcessCorner::Ss]
            .into_iter()
            .map(|process| Corner {
                process,
                temp_c: 27.0,
                vdd: None,
            })
            .collect();
        // With every factorization failing, the sweep must still visit
        // every corner and report 0 yield with a trace per casualty —
        // not abort (or panic) at the first one.
        let sweep = {
            let _fault = FaultPlan::singular_pivot().arm();
            sweep_corners(&base, &corners)
        };
        assert_eq!(sweep.results.len(), corners.len());
        assert_eq!(sweep.n_ok(), 0);
        assert_eq!(sweep.summary_line(), "corner yield 0/3 (0.0 %)");
        for (corner, trace) in sweep.failures() {
            assert!(
                !trace.is_empty(),
                "{}: failed corner must carry its ladder trace",
                corner.process.label()
            );
        }
        // Disarmed, the same sweep recovers.
        let healthy = sweep_corners(&base, &corners[..1]);
        assert_eq!(healthy.n_ok(), 1);
    }

    #[test]
    fn slow_hot_supply_droop() {
        let base = MixerConfig::default();
        let worst = Corner::slow_hot(0.1)(&base).apply(&base);
        assert!((worst.vdd - 1.1).abs() < 1e-12);
        assert_eq!(Corner::slow_hot(0.1)(&base).process, ProcessCorner::Ss);
    }

    #[test]
    fn a_runaway_direct_stage_ends_early_on_the_ladder_s_solution() {
        use crate::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
        use remix_analysis::{dc_operating_point, AttemptOutcome, ConvergencePolicy, OpOptions};
        // Corner 124 of perfbench's `study` grid (SF, VDD × 1.05, 85 °C):
        // the active full mixer's Direct Newton drifts off the rails and,
        // unbounded, spent all 150 iterations before the gmin ladder.
        let base = MixerConfig::default();
        let corner = Corner {
            process: ProcessCorner::Sf,
            temp_c: 85.0,
            vdd: Some(base.vdd * 1.05),
        };
        let mixer = ReconfigurableMixer::new(corner.apply(&base));
        let lo = LoDrive::held(2.4e9);
        let (ckt, _) = mixer.build(MixerMode::Active, &RfDrive::Ac, &lo);
        let opts = OpOptions::default();
        let op = dc_operating_point(&ckt, &opts).unwrap();
        let direct = &op.trace.attempts[0];
        assert_eq!(direct.stage, TraceStage::Dc(StageKind::Direct));
        let bound = 10.0 * base.vdd * 1.05;
        assert!(
            matches!(direct.outcome, AttemptOutcome::RanAway { volts } if (volts - bound).abs() < 1e-12),
            "{}",
            op.trace.render()
        );
        assert!(direct.iterations < opts.max_iter, "{}", op.trace.render());

        // The ladder that follows lands on exactly the solution of a
        // ladder with no Direct stage in front of it.
        let mut policy = ConvergencePolicy::default();
        policy.stages.retain(|s| *s != StageKind::Direct);
        let ladder = dc_operating_point(&ckt, &OpOptions { policy, ..opts }).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&op.solution), bits(&ladder.solution));
    }
}

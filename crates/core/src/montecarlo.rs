//! Monte-Carlo mismatch analysis.
//!
//! The paper's "IIP2 > 65 dBm for both cases" rests on differential
//! symmetry: with perfect matching, even-order products are common-mode
//! and cancel. Real dies mismatch; Pelgrom-style σ(ΔVt) and σ(Δβ/β)
//! applied to the TCA halves leave a residual second-order term whose size
//! sets the achievable IIP2. This module perturbs the *device models* of
//! the two halves, re-extracts each half's large-signal polynomial from
//! the transistor level, and reports the distribution of resulting IIP2.
//!
//! ## Failure isolation
//!
//! A die that fails to converge is data, not a reason to abandon the
//! study: [`iip2_study`] records a [`SampleOutcome`] per sample — the
//! IIP2 value or the [`ConvergenceTrace`] explaining the failure — keeps
//! sweeping, and reports yield. Samples draw from *independently seeded*
//! RNG streams (SplitMix64 of the study seed and the sample index), so a
//! run interrupted after sample `k` resumes from a JSON checkpoint
//! without replaying samples `0..k`. The study is one caller of the
//! shared resumable driver, [`crate::study::run_study`]; this
//! module supplies the per-sample work and the sample codec.

use crate::checkpoint::StudyOutcome;
use crate::config::MixerConfig;
use crate::study::{run_study, StudyRecord};
use crate::tca::{build_tca_half, TcaHalf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remix_analysis::{dc_sweep, AnalysisError, ConvergenceTrace, OpOptions};
use remix_circuit::{Circuit, MosModel, Waveform};
use remix_dsp::units::{vpeak_to_dbm, Z0};
use remix_numerics::polyfit;
use remix_rfkit::Poly3;
use std::path::Path;

/// Mismatch magnitudes (1-σ) applied independently to each device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchConfig {
    /// Threshold-voltage mismatch σ (V) — Pelgrom: `A_vt/√(WL)`, a few mV
    /// for µm-scale RF devices.
    pub sigma_vt: f64,
    /// Relative β (kp) mismatch σ.
    pub sigma_kp_frac: f64,
    /// Number of Monte-Carlo samples.
    pub n_runs: usize,
    /// RNG seed for reproducibility. Each sample derives its own stream
    /// from this seed and its index, so outcomes are prefix-stable: the
    /// first `k` samples of an `n`-run study equal a `k`-run study.
    pub seed: u64,
    /// Forces the sample at this index to fail via an injected singular
    /// pivot. Only effective when the `fault-inject` feature is enabled;
    /// silently inert otherwise. Used to test failure isolation and
    /// checkpoint resume against a deterministic casualty.
    pub fault_sample: Option<usize>,
}

impl Default for MismatchConfig {
    fn default() -> Self {
        MismatchConfig {
            sigma_vt: 2.0e-3,
            sigma_kp_frac: 0.005,
            n_runs: 30,
            seed: 0xD1E5,
            fault_sample: None,
        }
    }
}

fn perturb(model: &MosModel, rng: &mut StdRng, mm: &MismatchConfig) -> MosModel {
    let mut out = model.clone();
    let gauss = |rng: &mut StdRng| -> f64 {
        // Box–Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    out.vt0 += mm.sigma_vt * gauss(rng);
    out.kp *= 1.0 + mm.sigma_kp_frac * gauss(rng);
    out
}

/// Extracts the large-signal polynomial of one (possibly perturbed) TCA
/// half via a DC sweep of the clamped fixture.
fn half_poly(cfg: &MixerConfig) -> Result<Poly3, AnalysisError> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));
    ckt.add_vsource("vin", vin, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    let probe = ckt.add_vsource("vprobe", out, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    let _: TcaHalf = build_tca_half(&mut ckt, "tca", vin, out, vdd, cfg);
    let dv = 0.05;
    let n_pts = 15;
    let values: Vec<f64> = (0..n_pts)
        .map(|k| cfg.tca_vcm - dv + 2.0 * dv * k as f64 / (n_pts - 1) as f64)
        .collect();
    let sweep = dc_sweep(&ckt, "vin", &values, &OpOptions::default())?;
    let x: Vec<f64> = values.iter().map(|v| v - cfg.tca_vcm).collect();
    let i: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.branch_current(probe))
        .collect();
    let c = polyfit(&x, &i, 3).map_err(AnalysisError::singular)?;
    Ok(Poly3 {
        a1: c[1],
        a2: c[2],
        a3: c[3],
    })
}

/// One Monte-Carlo IIP2 sample (dBm at the EMF).
///
/// The differential pair's residual even-order coefficient is the
/// *difference* of the halves' `a2` (their common part cancels); the
/// intercept follows as `|a1_avg/Δa2|`, referred through the termination
/// divider.
fn iip2_sample(
    base: &MixerConfig,
    rng: &mut StdRng,
    mm: &MismatchConfig,
) -> Result<f64, AnalysisError> {
    let cfg_p = MixerConfig {
        nmos: perturb(&base.nmos, rng, mm),
        pmos: perturb(&base.pmos, rng, mm),
        ..base.clone()
    };
    let cfg_n = MixerConfig {
        nmos: perturb(&base.nmos, rng, mm),
        pmos: perturb(&base.pmos, rng, mm),
        ..base.clone()
    };
    let pp = half_poly(&cfg_p)?;
    let pn = half_poly(&cfg_n)?;
    let a1 = 0.5 * (pp.a1.abs() + pn.a1.abs());
    let da2 = (pp.a2 - pn.a2).abs().max(1e-12);
    let d = base.input_term_r / (base.rs + base.input_term_r);
    let a_iip2_emf = (a1 / da2) / d;
    Ok(vpeak_to_dbm(a_iip2_emf, Z0))
}

/// Outcome of one Monte-Carlo sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleOutcome {
    /// The sample solved; IIP2 in dBm at the EMF.
    Ok(f64),
    /// The sample failed to solve; the trace records what the
    /// convergence ladder tried before giving up.
    Failed(ConvergenceTrace),
}

impl SampleOutcome {
    /// `true` for a solved sample.
    pub fn is_ok(&self) -> bool {
        matches!(self, SampleOutcome::Ok(_))
    }

    /// The IIP2 value, when the sample solved.
    pub fn value(&self) -> Option<f64> {
        match self {
            SampleOutcome::Ok(v) => Some(*v),
            SampleOutcome::Failed(_) => None,
        }
    }

    /// The failure trace, when the sample did not solve.
    pub fn trace(&self) -> Option<&ConvergenceTrace> {
        match self {
            SampleOutcome::Ok(_) => None,
            SampleOutcome::Failed(t) => Some(t),
        }
    }
}

/// A completed Monte-Carlo study with per-sample outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct McStudy {
    /// Outcome of sample `i` at index `i`. Shorter than the requested
    /// `n_runs` when a run budget interrupted the study (see
    /// [`interrupted`](Self::interrupted)).
    pub outcomes: Vec<SampleOutcome>,
    /// Samples evaluated by this invocation.
    pub computed: usize,
    /// Samples restored from the checkpoint instead of recomputed.
    pub resumed: usize,
    /// `Some` when a [`RunBudget`](remix_exec::RunBudget) armed on this
    /// thread stopped the study before every sample ran; the completed
    /// prefix in `outcomes` is still valid and, with a checkpoint, a
    /// later invocation finishes only the remaining samples.
    pub interrupted: Option<remix_exec::Interruption>,
}

impl McStudy {
    /// IIP2 values of the solved samples, sorted ascending.
    pub fn passed(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(SampleOutcome::value)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Number of solved samples.
    pub fn n_ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Number of failed samples.
    pub fn n_failed(&self) -> usize {
        self.outcomes.len() - self.n_ok()
    }

    /// Fraction of samples that solved (1.0 for an empty study).
    pub fn yield_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.n_ok() as f64 / self.outcomes.len() as f64
        }
    }

    /// `(sample index, trace)` for every failed sample, in order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &ConvergenceTrace)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.trace().map(|t| (i, t)))
    }

    /// One-line yield summary, e.g. `yield 39/40 (97.5 %)`.
    pub fn summary_line(&self) -> String {
        format!(
            "yield {}/{} ({:.1} %)",
            self.n_ok(),
            self.outcomes.len(),
            100.0 * self.yield_fraction()
        )
    }
}

/// Derives the RNG seed of sample `index` (SplitMix64 mix of the study
/// seed and the index), decoupling samples from one another.
fn sample_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The trace attached to a sample failure; errors without one (lint
/// rejections, unknown probes) get a single-line trace carrying the
/// rendered error so no failure is ever silent.
pub(crate) fn failure_trace(e: &AnalysisError) -> ConvergenceTrace {
    match e.trace() {
        Some(t) if !t.is_empty() => t.clone(),
        _ => ConvergenceTrace::new(e.to_string()),
    }
}

impl StudyRecord for SampleOutcome {
    const UNIT: &'static str = "sample";

    fn encode(&self) -> StudyOutcome {
        match self {
            SampleOutcome::Ok(v) => StudyOutcome::Ok(vec![*v]),
            SampleOutcome::Failed(trace) => StudyOutcome::Failed(trace.summary()),
        }
    }

    fn decode_ok(values: &[f64]) -> Option<Self> {
        values.first().copied().map(SampleOutcome::Ok)
    }

    fn failed(trace: ConvergenceTrace) -> Self {
        SampleOutcome::Failed(trace)
    }
}

/// Runs the failure-isolating Monte-Carlo IIP2 study.
///
/// Every sample is attempted; failures are recorded with their traces
/// and the sweep continues. When `checkpoint` names a file, each
/// completed sample is persisted there and a compatible existing
/// checkpoint is resumed (completed samples are restored, not re-run).
/// A checkpoint written for a different seed or σ is ignored.
///
/// When a [`RunBudget`](remix_exec::RunBudget) armed on this thread
/// trips — at a sample boundary or inside a sample — the study stops
/// with [`McStudy::interrupted`] set and the completed prefix intact;
/// with a checkpoint, a later invocation finishes only the remaining
/// samples.
///
/// Equivalent to [`iip2_study_with`] on the default (serial) pool.
pub fn iip2_study(base: &MixerConfig, mm: &MismatchConfig, checkpoint: Option<&Path>) -> McStudy {
    iip2_study_with(base, mm, checkpoint, &remix_exec::PoolOptions::default())
}

/// [`iip2_study`] on an explicit [`remix_exec::PoolOptions`] — the
/// parallel entry point.
///
/// Samples are dispatched to the work-stealing pool; per-sample RNG
/// seeding plus the pool's ordered telemetry merge make the study's
/// outcomes and its `without_timings()` snapshot identical for any
/// worker count, including chaos-injected panics (which land as typed
/// [`SampleOutcome::Failed`] records, keyed deterministically by
/// sample index). The study runs on [`crate::study::run_study`]:
/// the checkpoint is saved after every completion, so a kill mid-study
/// resumes exactly the uncomputed set even when completion ran out of
/// order.
///
/// Under an interruption, [`McStudy::outcomes`] keeps the longest
/// contiguous completed prefix (the serial contract), while the
/// checkpoint retains *every* completed sample for the resume.
pub fn iip2_study_with(
    base: &MixerConfig,
    mm: &MismatchConfig,
    checkpoint: Option<&Path>,
    pool: &remix_exec::PoolOptions,
) -> McStudy {
    // A fault plan armed on the caller thread must also bite on pool
    // workers: capture it here and re-arm per task (counters restart
    // per sample — the deterministic parallel semantics). The study's
    // own `fault_sample` casualty takes precedence for its sample.
    #[cfg(feature = "fault-inject")]
    let caller_fault = remix_analysis::active_plan();
    let run = run_study(
        "mc_iip2",
        &crate::checkpoint::mc_study_config(mm),
        mm.n_runs,
        checkpoint,
        pool,
        |ctx| {
            let i = ctx.index;
            #[cfg(feature = "fault-inject")]
            let _fault = if mm.fault_sample == Some(i) {
                Some(remix_analysis::FaultPlan::singular_pivot().arm())
            } else {
                caller_fault.map(remix_analysis::FaultPlan::arm)
            };
            let mut rng = StdRng::seed_from_u64(sample_seed(mm.seed, i));
            let _span = remix_telemetry::span(remix_telemetry::names::CORE_MONTECARLO_SAMPLE)
                .with_field("index", i);
            match iip2_sample(base, &mut rng, mm) {
                Ok(v) => remix_exec::TaskResult::Done(SampleOutcome::Ok(v)),
                Err(e) => match e.interruption() {
                    // A budget trip mid-sample interrupts the *study*
                    // (or, under a per-sample deadline, re-dispatches
                    // the straggler); nothing is recorded for the
                    // sample, so a resumed run recomputes it in full.
                    Some(intr) => remix_exec::TaskResult::Interrupted(intr),
                    None => remix_exec::TaskResult::Done(SampleOutcome::Failed(failure_trace(&e))),
                },
            }
        },
        |sample| {
            remix_telemetry::counter_add(
                match sample {
                    SampleOutcome::Ok(_) => remix_telemetry::names::CORE_MONTECARLO_SAMPLES_OK,
                    SampleOutcome::Failed(_) => {
                        remix_telemetry::names::CORE_MONTECARLO_SAMPLES_FAILED
                    }
                },
                1,
            );
        },
    );
    McStudy {
        outcomes: run.outcomes,
        computed: run.computed,
        resumed: run.resumed,
        interrupted: run.interrupted,
    }
}

/// Runs the Monte-Carlo IIP2 study; returns one IIP2 (dBm) per sample,
/// sorted ascending.
///
/// # Errors
///
/// Fails on the first failed sample, carrying its convergence trace.
/// Use [`iip2_study`] to sweep past failures instead.
pub fn iip2_distribution(
    base: &MixerConfig,
    mm: &MismatchConfig,
) -> Result<Vec<f64>, AnalysisError> {
    let study = iip2_study(base, mm, None);
    if let Some((i, trace)) = study.failures().next() {
        return Err(AnalysisError::NoConvergence {
            context: format!("monte-carlo sample {i}"),
            iterations: trace.total_iterations(),
            trace: trace.clone(),
        });
    }
    Ok(study.passed())
}

/// Summary statistics of a sorted distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes a sorted sample vector.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(sorted: &[f64]) -> DistSummary {
    assert!(!sorted.is_empty());
    DistSummary {
        min: sorted[0],
        median: sorted[sorted.len() / 2],
        max: sorted[sorted.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iip2_distribution_quantifies_matching_requirement() {
        // A finding the single-simulation paper cannot show: with raw
        // Pelgrom-scale mismatch (σ_vt = 2 mV) the *median* die sits in
        // the low-50s dBm — the paper's "> 65 dBm" needs
        // common-centroid-quality matching (σ_vt ≲ 0.5 mV), where the
        // median clears the line with margin. 12 samples per arm: the
        // 6-sample median estimator swings several dB with the RNG
        // stream; the larger draw pins the physics, not the generator.
        let raw = MismatchConfig {
            n_runs: 12,
            ..MismatchConfig::default()
        };
        let dist = iip2_distribution(&MixerConfig::default(), &raw).unwrap();
        assert_eq!(dist.len(), 12);
        let s = summarize(&dist);
        assert!(s.min > 45.0, "worst sample {:.1} dBm", s.min);
        assert!(s.median > 50.0, "median {:.1} dBm", s.median);
        assert!(s.min <= s.median && s.median <= s.max);

        let matched = MismatchConfig {
            sigma_vt: 0.5e-3,
            sigma_kp_frac: 0.001,
            n_runs: 12,
            ..MismatchConfig::default()
        };
        let dist2 = iip2_distribution(&MixerConfig::default(), &matched).unwrap();
        let s2 = summarize(&dist2);
        assert!(
            s2.median > 65.0,
            "well-matched median {:.1} dBm should clear the paper's line",
            s2.median
        );
        // Quadrupling σ(ΔVt) should cost roughly 20·log10(4) ≈ 12 dB of
        // median IIP2; demand at least half of that so the scaling law —
        // not a lucky draw — carries the comparison.
        assert!(
            s2.median - s.median > 6.0,
            "matching gain {:.1} dB too small (raw {:.1}, matched {:.1})",
            s2.median - s.median,
            s.median,
            s2.median
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mm = MismatchConfig {
            n_runs: 3,
            ..MismatchConfig::default()
        };
        let a = iip2_distribution(&MixerConfig::default(), &mm).unwrap();
        let b = iip2_distribution(&MixerConfig::default(), &mm).unwrap();
        assert_eq!(a, b);
        let mm2 = MismatchConfig { seed: 1, ..mm };
        let c = iip2_distribution(&MixerConfig::default(), &mm2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn more_mismatch_less_iip2() {
        let tight = MismatchConfig {
            sigma_vt: 0.5e-3,
            sigma_kp_frac: 0.001,
            n_runs: 8,
            seed: 7,
            fault_sample: None,
        };
        let loose = MismatchConfig {
            sigma_vt: 8.0e-3,
            sigma_kp_frac: 0.02,
            n_runs: 8,
            seed: 7,
            fault_sample: None,
        };
        let base = MixerConfig::default();
        let dt = summarize(&iip2_distribution(&base, &tight).unwrap());
        let dl = summarize(&iip2_distribution(&base, &loose).unwrap());
        assert!(
            dt.median > dl.median,
            "tight {:.1} vs loose {:.1}",
            dt.median,
            dl.median
        );
    }

    #[test]
    fn samples_are_prefix_stable() {
        // Per-sample seeding makes outcome `i` independent of `n_runs`:
        // a short study is a strict prefix of a longer one. This is the
        // property checkpoint resume relies on.
        let base = MixerConfig::default();
        let short = iip2_study(
            &base,
            &MismatchConfig {
                n_runs: 2,
                ..MismatchConfig::default()
            },
            None,
        );
        let long = iip2_study(
            &base,
            &MismatchConfig {
                n_runs: 4,
                ..MismatchConfig::default()
            },
            None,
        );
        assert_eq!(short.outcomes[..], long.outcomes[..2]);
        assert_eq!(long.n_ok(), 4);
        assert!((long.yield_fraction() - 1.0).abs() < 1e-15);
        assert_eq!(long.summary_line(), "yield 4/4 (100.0 %)");
    }

    #[test]
    fn interrupted_study_resumes_completing_only_remaining_samples() {
        let path =
            std::env::temp_dir().join(format!("remix_mc_interrupt_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let base = MixerConfig::default();
        let mm = MismatchConfig {
            n_runs: 3,
            ..MismatchConfig::default()
        };

        // A zero deadline stops the study at the first sample boundary.
        let interrupted = {
            let budget =
                remix_exec::RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
            let token = budget.token();
            let _guard = token.arm();
            iip2_study(&base, &mm, Some(&path))
        };
        assert_eq!(interrupted.computed, 0);
        assert!(interrupted.outcomes.is_empty());
        assert!(matches!(
            interrupted.interrupted,
            Some(remix_exec::Interruption::DeadlineExpired { .. })
        ));

        // Unbudgeted, the same invocation completes the study; the
        // prefix computed before a mid-run interruption is never
        // recomputed.
        let first = {
            let budget = remix_exec::RunBudget::unlimited().with_newton_iterations(150);
            let token = budget.token();
            let _guard = token.arm();
            iip2_study(&base, &mm, Some(&path))
        };
        assert!(first.interrupted.is_some(), "budget should trip mid-study");
        assert!(
            first.computed < mm.n_runs,
            "interruption must leave samples for the resume"
        );
        let resumed = iip2_study(&base, &mm, Some(&path));
        assert!(resumed.interrupted.is_none());
        assert_eq!(resumed.resumed, first.outcomes.len());
        assert_eq!(resumed.computed, mm.n_runs - first.outcomes.len());
        let fresh = iip2_study(&base, &mm, None);
        assert_eq!(
            resumed.outcomes, fresh.outcomes,
            "resume must not change results"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_extends_a_shorter_run_without_recomputing() {
        let path =
            std::env::temp_dir().join(format!("remix_mc_resume_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let base = MixerConfig::default();
        let short = MismatchConfig {
            n_runs: 2,
            ..MismatchConfig::default()
        };
        let first = iip2_study(&base, &short, Some(&path));
        assert_eq!(first.computed, 2);
        assert_eq!(first.resumed, 0);

        let full = MismatchConfig {
            n_runs: 4,
            ..MismatchConfig::default()
        };
        let second = iip2_study(&base, &full, Some(&path));
        assert_eq!(second.resumed, 2, "completed samples must not re-run");
        assert_eq!(second.computed, 2);
        let fresh = iip2_study(&base, &full, None);
        assert_eq!(
            second.outcomes, fresh.outcomes,
            "resume must not change results"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_failure_is_isolated_and_checkpoint_resume_skips_completed() {
        // The acceptance scenario: 40 samples, one forced casualty. The
        // study completes the other 39, reports yield 39/40, and a
        // resumed run restores everything from the checkpoint.
        let path = std::env::temp_dir().join(format!("remix_mc_fault_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let base = MixerConfig::default();
        let mm = MismatchConfig {
            n_runs: 40,
            fault_sample: Some(7),
            ..MismatchConfig::default()
        };
        let study = iip2_study(&base, &mm, Some(&path));
        assert_eq!(study.outcomes.len(), 40);
        assert_eq!(study.computed, 40);
        assert_eq!(study.n_ok(), 39, "only the faulted sample may fail");
        assert_eq!(study.n_failed(), 1);
        assert!((study.yield_fraction() - 39.0 / 40.0).abs() < 1e-15);
        assert_eq!(study.summary_line(), "yield 39/40 (97.5 %)");
        let failures: Vec<_> = study.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 7);
        assert!(
            !failures[0].1.is_empty(),
            "failed sample must carry the ladder trace"
        );
        assert_eq!(study.passed().len(), 39);
        assert!(study.passed().iter().all(|v| v.is_finite()));

        let resumed = iip2_study(&base, &mm, Some(&path));
        assert_eq!(resumed.computed, 0, "nothing may be recomputed");
        assert_eq!(resumed.resumed, 40);
        assert_eq!(resumed.n_ok(), 39);
        assert_eq!(resumed.summary_line(), "yield 39/40 (97.5 %)");
        assert_eq!(resumed.passed(), study.passed());
        let _ = std::fs::remove_file(&path);
    }
}

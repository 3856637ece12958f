//! `study`: one op is a one-corner resumable corner sweep followed by a
//! small Monte-Carlo IIP2 study at that corner, both on an explicit
//! serial pool.
//!
//! This is DC Newton on small matrices, where first-factorization pivot
//! search and the homotopy ladder dominate, plus the pool and
//! study-driver code around it. The drivers run without a checkpoint
//! file: every checkpoint save fsyncs, and on the shared disk the
//! benchmark may write to, fsync latency swung the op median by a third
//! between identical runs. The traced run times checkpoint save and load
//! on their own instead. Corner cost is heavy-tailed (about
//! 15–450 ms) because some corners need the homotopy ladder, so a pass
//! holds every corner of the grid once and the seed sets their order
//! and Monte-Carlo seeds: the op mix is the same for every seed.

use crate::golden::Goldens;
use crate::harness::{self, Layers, Measured, Phases, Workload};
use crate::stats::Rng;
use crate::trace::Tracer;
use remix_core::checkpoint::{mc_record, mc_study_config, render_study_v3, StudyOutcome};
use remix_core::corners::{sweep_corners_resumable_with, Corner, ProcessCorner};
use remix_core::model::{ExtractedParams, MixerModel};
use remix_core::montecarlo::{iip2_study_with, MismatchConfig};
use remix_core::{MixerConfig, MixerMode};
use remix_exec::{Parallelism, PoolOptions};
use remix_telemetry::{names, Telemetry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The corner grid: 5 process corners × 5 supplies × 5 temperatures.
/// A fine grid gives the op-latency distribution many steps, so its
/// percentiles do not sit in a gap between a few lumps.
pub const VDD_SCALES: [f64; 5] = [0.95, 0.975, 1.0, 1.025, 1.05];
pub const TEMPS_C: [f64; 5] = [-40.0, -10.0, 27.0, 55.0, 85.0];
pub const CORNERS: usize = 5 * VDD_SCALES.len() * TEMPS_C.len();
/// Passes per segment of a timed run (one pass takes several seconds).
pub const SEGMENT_PASSES: usize = 1;
/// Monte-Carlo seeds a corner can draw, and samples per study.
pub const MC_SEEDS: usize = 4;
pub const MC_RUNS: usize = 8;
/// Spot frequencies of the corner figures (Hz).
pub const F_RF: f64 = 2.45e9;
pub const F_IF: f64 = 5e6;
/// dB figures are compared at their printed precision (0.1 dB): a
/// value may move by half a printed digit.
pub const TOL_DB: f64 = 0.05;

const SALT: u64 = 0x7374_7564; // "stud"

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Corner grid index.
    pub corner: usize,
    /// Which of the corner's Monte-Carlo seeds.
    pub mc: usize,
}

pub fn corner(index: usize) -> Corner {
    let base = MixerConfig::default();
    Corner {
        process: ProcessCorner::all()[index / (VDD_SCALES.len() * TEMPS_C.len())],
        vdd: Some(base.vdd * VDD_SCALES[(index / TEMPS_C.len()) % VDD_SCALES.len()]),
        temp_c: TEMPS_C[index % TEMPS_C.len()],
    }
}

pub fn mismatch(case: Case) -> MismatchConfig {
    MismatchConfig {
        n_runs: MC_RUNS,
        seed: 0xD1E5_0000 + (case.corner * MC_SEEDS + case.mc) as u64,
        ..MismatchConfig::default()
    }
}

/// One pass: every corner once, in seeded order, each with a seeded
/// Monte-Carlo seed.
pub fn input_set(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ SALT);
    let mut order: Vec<usize> = (0..CORNERS).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|corner| Case {
            corner,
            mc: rng.below(MC_SEEDS),
        })
        .collect()
}

pub fn corner_key(corner: usize) -> String {
    format!("corner/{corner}")
}

pub fn mc_key(case: Case) -> String {
    format!("mc/{}/{}", case.corner, case.mc)
}

/// Active/passive conversion gain, NF and IIP3 at the corner (dB, dBm).
pub fn corner_figures(cfg: &MixerConfig, params: &ExtractedParams) -> Vec<f64> {
    let model = |mode| MixerModel::new(cfg.clone(), mode, params.clone());
    let (a, p) = (model(MixerMode::Active), model(MixerMode::Passive));
    vec![
        a.conv_gain_db(F_RF, F_IF),
        p.conv_gain_db(F_RF, F_IF),
        a.nf_db(F_IF),
        p.nf_db(F_IF),
        a.iip3_dbm(),
        p.iip3_dbm(),
    ]
}

/// What one op produced.
pub struct Outcome {
    pub figures: Vec<f64>,
    /// Median IIP2 (dBm) and convergence yield of the Monte-Carlo study.
    pub mc: Vec<f64>,
    pub flat_params: Vec<f64>,
    /// Size of the version-3 checkpoints the op's results render to.
    pub checkpoint_bytes: usize,
}

/// Runs one op.
pub fn evaluate(
    base: &MixerConfig,
    case: Case,
    pool: &PoolOptions,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let c = corner(case.corner);
    let span = tracer.enter("core.corners.sweep");
    let sweep = sweep_corners_resumable_with(base, &[c], None, pool);
    tracer.exit(span);
    let cfg = c.apply(base);
    let mm = mismatch(case);
    let span = tracer.enter("core.montecarlo.study");
    let study = iip2_study_with(&cfg, &mm, None, pool);
    tracer.exit(span);
    if let Some(why) = &sweep.interruption {
        return Err(format!("corner sweep interrupted: {}", why.interruption));
    }
    let params = sweep
        .value
        .results
        .first()
        .and_then(|(_, outcome)| outcome.params())
        .ok_or_else(|| format!("corner {} failed to extract", case.corner))?;
    if study.outcomes.len() != MC_RUNS {
        return Err(format!(
            "monte-carlo study stopped after {} samples",
            study.outcomes.len()
        ));
    }
    let passed = crate::stats::sorted(&study.passed());
    let median = crate::stats::quantile(&passed, 0.5).map_or(f64::NAN, |(m, _)| m);
    let flat_params = params.to_flat();
    let mc_records: Vec<(usize, StudyOutcome)> =
        study.outcomes.iter().map(mc_record).enumerate().collect();
    let checkpoint_bytes = render_study_v3(
        "corners",
        &[],
        1,
        &[(0, StudyOutcome::Ok(flat_params.clone()))],
    )
    .len()
        + render_study_v3("mc_iip2", &mc_study_config(&mm), MC_RUNS, &mc_records).len();
    Ok(Outcome {
        figures: corner_figures(&cfg, params),
        mc: vec![median, study.yield_fraction()],
        flat_params,
        checkpoint_bytes,
    })
}

fn tol_figures(_: usize, _: f64) -> f64 {
    TOL_DB
}

fn tol_mc(i: usize, _: f64) -> f64 {
    if i == 0 {
        TOL_DB
    } else {
        1e-9
    }
}

pub struct Study {
    seed: u64,
    base: MixerConfig,
    pool: PoolOptions,
    pass: Vec<Case>,
    goldens: Goldens,
    dir: PathBuf,
    /// Traced half only: rendered checkpoint bytes, the last pass's
    /// corner records for the checkpoint probe, and the yields.
    checkpoint_bytes: u64,
    records: Vec<(usize, StudyOutcome)>,
    yields: Vec<f64>,
}

impl Study {
    pub fn setup(
        seed: u64,
        goldens_path: &Path,
        dir: &Path,
        phases: &mut Phases<'_>,
    ) -> Result<Study, String> {
        let (pass, goldens) = phases.run("setup.inputs", || {
            (input_set(seed), Goldens::load(goldens_path))
        });
        let goldens = goldens?;
        let base = MixerConfig::default();
        // The nominal extraction is the reference every corner deviates
        // from; it must reproduce the typical active gain.
        phases.run("setup.reference", || {
            let params = ExtractedParams::extract(&base)
                .map_err(|e| format!("nominal extraction failed: {e}"))?;
            let cg = corner_figures(&base, &params)[0];
            if (cg - 29.0).abs() > 1.0 {
                return Err(format!("nominal active gain {cg:.2} dB is not about 29 dB"));
            }
            Ok(())
        })?;
        Ok(Study {
            seed,
            base,
            pool: PoolOptions::with_parallelism(Parallelism::Serial),
            pass,
            goldens,
            dir: dir.to_path_buf(),
            checkpoint_bytes: 0,
            records: Vec::new(),
            yields: Vec::new(),
        })
    }
}

impl Workload for Study {
    fn name(&self) -> &'static str {
        "study"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn pass_len(&self) -> usize {
        self.pass.len()
    }

    fn run_op(&mut self, slot: usize, op: u64, tracer: &mut Tracer) -> (f64, Result<(), String>) {
        let case = self.pass[slot];
        let root = tracer.enter_op("op", op);
        let t = Instant::now();
        let out = evaluate(&self.base, case, &self.pool, tracer);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let span = tracer.enter("check");
        let verdict = out.and_then(|o| {
            if tracer.is_armed() {
                self.checkpoint_bytes += o.checkpoint_bytes as u64;
                self.yields.push(o.mc[1]);
                if self.records.len() == self.pass.len() {
                    self.records.clear();
                }
                self.records
                    .push((self.records.len(), StudyOutcome::Ok(o.flat_params.clone())));
            }
            self.goldens
                .check(&corner_key(case.corner), &o.figures, tol_figures)?;
            self.goldens.check(&mc_key(case), &o.mc, tol_mc)
        });
        tracer.exit(span);
        tracer.exit(root);
        (ms, verdict)
    }
}

/// Per-layer metrics of the traced half plus the solver probe at the
/// first corner of the pass and the checkpoint probe on one pass of
/// corner records.
pub fn layers(
    w: &Study,
    telemetry: &Telemetry,
    traced: &Measured,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let ops = traced.lat_ms.len();
    let t = harness::Telem::from_snapshot(&telemetry.snapshot());
    harness::analysis_layers(&t, ops, layers);
    layers.insert(
        "core.corners.sweep_ms",
        harness::span_ms_per_op(tracer, "core.corners.sweep", ops),
    );
    layers.insert(
        "core.montecarlo.study_ms",
        harness::span_ms_per_op(tracer, "core.montecarlo.study", ops),
    );
    let yields = w.yields.len();
    layers.insert(
        "core.montecarlo.yield",
        (crate::stats::mean(&w.yields), yields),
    );
    let (runs, run_ns) = t.span(names::EXEC_POOL_RUN);
    let bodies_ns = t.span(names::CORE_CORNERS_CORNER).1 + t.span(names::CORE_MONTECARLO_SAMPLE).1;
    layers.insert(
        "exec.pool.overhead_ms",
        (
            run_ns.saturating_sub(bodies_ns) as f64 / 1e6 / ops.max(1) as f64,
            runs as usize,
        ),
    );
    layers.insert(
        "core.checkpoint.bytes",
        (w.checkpoint_bytes as f64 / ops.max(1) as f64, ops),
    );
    harness::self_time_layers(tracer, ops, layers);
    let cfg = corner(w.pass[0].corner).apply(&w.base);
    let circuits = dc_circuits(&cfg);
    let refs: Vec<&remix_circuit::Circuit> = circuits.iter().collect();
    crate::probes::solver(&refs, tracer, layers)?;
    crate::probes::checkpoint(&w.records, &w.dir.join("probe.ckpt.json"), tracer, layers)
}

/// The study's DC points at a corner: the Monte-Carlo TCA-half fixture
/// at its bias, and both mixer modes biased with the LO held, as the
/// extraction's power analysis solves them.
fn dc_circuits(cfg: &MixerConfig) -> Vec<remix_circuit::Circuit> {
    use remix_circuit::{Circuit, Waveform};
    let mut tca = Circuit::new();
    let vdd = tca.node("vdd");
    let vin = tca.node("in");
    let out = tca.node("out");
    tca.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(cfg.vdd));
    tca.add_vsource("vin", vin, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    tca.add_vsource("vprobe", out, Circuit::gnd(), Waveform::Dc(cfg.tca_vcm));
    remix_core::tca::build_tca_half(&mut tca, "tca", vin, out, vdd, cfg);
    let mixer = remix_core::ReconfigurableMixer::new(cfg.clone());
    let mut circuits = vec![tca];
    for mode in [MixerMode::Active, MixerMode::Passive] {
        let lo = remix_core::LoDrive::held(F_RF);
        circuits.push(mixer.build(mode, &remix_core::RfDrive::Bias, &lo).0);
    }
    circuits
}

/// Evaluates every corner and every Monte-Carlo seed and returns the
/// goldens.
pub fn write_goldens() -> Result<Goldens, String> {
    let base = MixerConfig::default();
    let pool = PoolOptions::with_parallelism(Parallelism::Serial);
    let mut tracer = Tracer::new(Instant::now());
    let mut g = Goldens::default();
    for corner in 0..CORNERS {
        for mc in 0..MC_SEEDS {
            let case = Case { corner, mc };
            let o = evaluate(&base, case, &pool, &mut tracer)?;
            g.insert(corner_key(corner), o.figures);
            g.insert(mc_key(case), o.mc);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_set(3), input_set(3));
        assert_ne!(input_set(3), input_set(4));
    }

    #[test]
    fn a_pass_holds_every_corner_once() {
        let mut corners: Vec<usize> = input_set(9).iter().map(|c| c.corner).collect();
        corners.sort_unstable();
        assert_eq!(corners, (0..CORNERS).collect::<Vec<_>>());
        let distinct: std::collections::BTreeSet<(u8, i64, i64)> = (0..CORNERS)
            .map(|i| {
                let c = corner(i);
                (
                    c.process as u8,
                    (c.vdd.unwrap_or(0.0) * 1e3) as i64,
                    c.temp_c as i64,
                )
            })
            .collect();
        assert_eq!(distinct.len(), CORNERS);
    }
}

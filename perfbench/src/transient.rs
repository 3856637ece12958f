//! `transient`: one op is a fixed-step trapezoidal transient of the
//! transistor-level mixer, 8 LO periods at 64 steps per period.
//!
//! Nearly all host time goes to the same-pattern stamp → CSR → LU
//! factor/solve cycle of every timestep; the pool, checkpoints and the
//! service are never touched.

use crate::golden::Goldens;
use crate::harness::{self, Layers, Measured, Phases, Workload};
use crate::stats::Rng;
use crate::trace::Tracer;
use remix_analysis::{transient, TranOptions};
use remix_circuit::Circuit;
use remix_core::{LoDrive, MixerConfig, MixerMode, MixerNodes, ReconfigurableMixer, RfDrive};
use remix_telemetry::Telemetry;
use std::time::Instant;

/// LO grid points across 0.5–5.5 GHz.
pub const LO_POINTS: usize = 64;
/// Strata per mode; each pass draws one LO point from each.
pub const STRATA: usize = 16;
/// Passes per segment of a timed run (one pass takes a few seconds).
pub const SEGMENT_PASSES: usize = 1;
pub const PERIODS: usize = 8;
pub const STEPS_PER_PERIOD: usize = 64;
/// IF offset of the RF tone (Hz) and its differential amplitude (V).
pub const F_IF: f64 = 5e6;
pub const A_RF: f64 = 2e-3;
/// The waveform is checked at the end of every LO period.
pub const SAMPLE_EVERY: usize = STEPS_PER_PERIOD;
/// Check tolerance on each sample: 10 µV plus 0.1 % of the golden value.
pub const TOL_ABS_V: f64 = 1e-5;
pub const TOL_REL: f64 = 1e-3;

const MODES: [MixerMode; 2] = [MixerMode::Active, MixerMode::Passive];
const SALT: u64 = 0x7472_616e; // "tran"

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub mode: MixerMode,
    /// LO grid index.
    pub k: usize,
}

impl Case {
    pub fn f_lo(self) -> f64 {
        0.5e9 + 5.0e9 * self.k as f64 / (LO_POINTS - 1) as f64
    }

    pub fn key(self) -> String {
        format!("{}/{}", self.mode.label(), self.k)
    }
}

/// Every case a pass can draw, for writing goldens.
pub fn all_cases() -> Vec<Case> {
    MODES
        .iter()
        .flat_map(|&mode| (0..LO_POINTS).map(move |k| Case { mode, k }))
        .collect()
}

/// One pass: per mode, one LO point from each of the 16 strata in a
/// seeded order; the modes alternate.
pub fn input_set(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ SALT);
    let per_stratum = LO_POINTS / STRATA;
    let per_mode: Vec<Vec<Case>> = MODES
        .iter()
        .map(|&mode| {
            let mut strata: Vec<usize> = (0..STRATA).collect();
            rng.shuffle(&mut strata);
            strata
                .into_iter()
                .map(|s| Case {
                    mode,
                    k: s * per_stratum + rng.below(per_stratum),
                })
                .collect()
        })
        .collect();
    (0..STRATA)
        .flat_map(|i| [per_mode[0][i], per_mode[1][i]])
        .collect()
}

pub fn build(mixer: &ReconfigurableMixer, case: Case) -> (Circuit, MixerNodes) {
    let f_lo = case.f_lo();
    mixer.build(
        case.mode,
        &RfDrive::Tone {
            freq: f_lo + F_IF,
            amplitude: A_RF,
        },
        &LoDrive::sine(f_lo),
    )
}

/// Runs the transient and returns (checked samples, output steps).
pub fn simulate(
    circuit: &Circuit,
    nodes: &MixerNodes,
    case: Case,
) -> Result<(Vec<f64>, usize), String> {
    let f_lo = case.f_lo();
    let opts = TranOptions::new(
        PERIODS as f64 / f_lo,
        1.0 / (STEPS_PER_PERIOD as f64 * f_lo),
    );
    let res =
        transient(circuit, &opts).map_err(|e| format!("{}: transient failed: {e}", case.key()))?;
    let (p, n) = nodes.if_out(case.mode);
    let wave = res.differential_waveform(p, n);
    let samples = (1..=PERIODS)
        .map(|i| wave.get(i * SAMPLE_EVERY).copied().unwrap_or(f64::NAN))
        .collect();
    Ok((samples, wave.len().saturating_sub(1)))
}

fn tolerance(_: usize, golden: f64) -> f64 {
    TOL_ABS_V + TOL_REL * golden.abs()
}

pub struct Transient {
    seed: u64,
    mixer: ReconfigurableMixer,
    pass: Vec<Case>,
    goldens: Goldens,
    steps: u64,
}

impl Transient {
    pub fn setup(
        seed: u64,
        goldens_path: &std::path::Path,
        phases: &mut Phases<'_>,
    ) -> Result<Transient, String> {
        let (pass, goldens) = phases.run("setup.inputs", || {
            (input_set(seed), Goldens::load(goldens_path))
        });
        let goldens = goldens?;
        let mixer = ReconfigurableMixer::new(MixerConfig::default());
        phases.run("setup.build", || {
            for mode in MODES {
                let report = mixer.lint_report(mode);
                if !report.is_clean() {
                    return Err(format!("{} mixer is not lint-clean", mode.label()));
                }
            }
            Ok(())
        })?;
        Ok(Transient {
            seed,
            mixer,
            pass,
            goldens,
            steps: 0,
        })
    }

    fn op(&mut self, case: Case, op: u64, tracer: &mut Tracer) -> (f64, Result<(), String>) {
        let root = tracer.enter_op("op", op);
        let t = Instant::now();
        let span = tracer.enter("circuit.build");
        let (circuit, nodes) = build(&self.mixer, case);
        tracer.exit(span);
        let span = tracer.enter("analysis.transient");
        let out = simulate(&circuit, &nodes, case);
        tracer.exit(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let span = tracer.enter("check");
        let verdict = out.and_then(|(samples, steps)| {
            if tracer.is_armed() {
                self.steps += steps as u64;
            }
            self.goldens.check(&case.key(), &samples, tolerance)
        });
        tracer.exit(span);
        tracer.exit(root);
        (ms, verdict)
    }
}

impl Workload for Transient {
    fn name(&self) -> &'static str {
        "transient"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn pass_len(&self) -> usize {
        self.pass.len()
    }

    fn run_op(&mut self, slot: usize, op: u64, tracer: &mut Tracer) -> (f64, Result<(), String>) {
        self.op(self.pass[slot], op, tracer)
    }
}

/// Per-layer metrics of the traced half plus the solver probe on both
/// mode circuits.
pub fn layers(
    w: &Transient,
    telemetry: &Telemetry,
    traced: &Measured,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let ops = traced.lat_ms.len();
    let t = harness::Telem::from_snapshot(&telemetry.snapshot());
    harness::analysis_layers(&t, ops, layers);
    layers.insert(
        "analysis.tran.steps",
        (w.steps as f64 / ops.max(1) as f64, ops),
    );
    layers.insert(
        "circuit.build_ms",
        harness::span_ms_per_op(tracer, "circuit.build", ops),
    );
    harness::self_time_layers(tracer, ops, layers);
    let circuits: Vec<Circuit> = MODES
        .iter()
        .map(|&mode| {
            build(
                &w.mixer,
                Case {
                    mode,
                    k: LO_POINTS / 2,
                },
            )
            .0
        })
        .collect();
    let refs: Vec<&Circuit> = circuits.iter().collect();
    crate::probes::solver(&refs, tracer, layers)?;
    crate::probes::factor_share(layers, crate::stats::mean(&traced.lat_ms));
    Ok(())
}

/// Simulates every case and returns the goldens.
pub fn write_goldens() -> Result<Goldens, String> {
    let mixer = ReconfigurableMixer::new(MixerConfig::default());
    let mut g = Goldens::default();
    for case in all_cases() {
        let (circuit, nodes) = build(&mixer, case);
        g.insert(case.key(), simulate(&circuit, &nodes, case)?.0);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_set(11), input_set(11));
        assert_ne!(input_set(11), input_set(12));
    }

    #[test]
    fn a_pass_alternates_modes_and_covers_every_stratum() {
        let pass = input_set(5);
        assert_eq!(pass.len(), 2 * STRATA);
        for (i, case) in pass.iter().enumerate() {
            assert_eq!(case.mode, MODES[i % 2]);
        }
        for mode in MODES {
            let mut strata: Vec<usize> = pass
                .iter()
                .filter(|c| c.mode == mode)
                .map(|c| c.k / (LO_POINTS / STRATA))
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..STRATA).collect::<Vec<_>>());
        }
        let lo: Vec<f64> = all_cases().iter().map(|c| c.f_lo()).collect();
        assert!((lo[0] - 0.5e9).abs() < 1.0 && (lo[LO_POINTS - 1] - 5.5e9).abs() < 1.0);
    }
}

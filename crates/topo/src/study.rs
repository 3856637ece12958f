//! Family-generic study drivers over any topology family: Monte-Carlo
//! mismatch and process corners behind the existing
//! [`Parallelism`](remix_exec::Parallelism) knob, and a DC transfer
//! sweep of the family's bias source as one serial operating-point
//! session.
//!
//! The drivers in `remix-core` are welded to the paper's `MixerConfig`;
//! these operate on [`Family`] — generate the circuit, perturb every
//! MOS instance independently (Pelgrom-style σ(ΔVt), σ(Δβ/β)) or shift
//! them globally (corners), then extract one scalar metric per family:
//!
//! | family | metric |
//! |---|---|
//! | `mixer_first` | held-on port resistance (Ω) |
//! | `single_balanced` | DC supply power (µW) |
//! | `medradio` | DC supply power (µW) — the sub-50 µW headline |
//!
//! Failure isolation follows the `remix-core` contract: a sample that
//! fails to converge is an `Err` record, never a dead study.

use crate::error::TopoError;
use crate::medradio::MedRadioParams;
use crate::mixer_first::{LoMode, MixerFirstParams};
use crate::single_balanced::SingleBalancedParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remix_analysis::{
    dc_operating_point, dc_sweep_partial, supply_power, AnalysisError, DcSweepResult, OpOptions,
    Partial,
};
use remix_circuit::{Circuit, Element};
use remix_exec::{run_tasks, PoolOptions, TaskResult};

/// One topology family plus its parameters — the unit every study
/// driver operates on.
#[derive(Debug, Clone, PartialEq)]
pub enum Family {
    /// Passive N-path mixer-first receiver.
    MixerFirst(MixerFirstParams),
    /// Single-balanced active mixer.
    SingleBalanced(SingleBalancedParams),
    /// Sub-50 µW MedRadio front-end.
    MedRadio(MedRadioParams),
}

impl Family {
    /// The three families at their default parameters.
    pub fn defaults() -> Vec<Family> {
        vec![
            Family::MixerFirst(MixerFirstParams::default()),
            Family::SingleBalanced(SingleBalancedParams::default()),
            Family::MedRadio(MedRadioParams::default()),
        ]
    }

    /// Family name (matches the `TopoError` vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            Family::MixerFirst(_) => crate::FAMILY_MIXER_FIRST,
            Family::SingleBalanced(_) => crate::FAMILY_SINGLE_BALANCED,
            Family::MedRadio(_) => crate::FAMILY_MEDRADIO,
        }
    }

    /// What the study metric measures, with its unit.
    pub fn metric_name(&self) -> &'static str {
        match self {
            Family::MixerFirst(_) => "held-on port resistance (ohm)",
            Family::SingleBalanced(_) | Family::MedRadio(_) => "dc supply power (uW)",
        }
    }

    /// Compiles the family to a circuit (for the mixer-first family in
    /// the DC-measurable held-on LO mode, which every OP-based study
    /// needs).
    ///
    /// # Errors
    ///
    /// [`TopoError`] when the parameters fail validation.
    pub fn generate(&self) -> Result<Circuit, TopoError> {
        match self {
            Family::MixerFirst(p) => {
                let held = MixerFirstParams {
                    lo_mode: LoMode::HeldOn,
                    ..p.clone()
                };
                Ok(held.generate()?.circuit)
            }
            Family::SingleBalanced(p) => Ok(p.generate()?.circuit),
            Family::MedRadio(p) => Ok(p.generate()?.circuit),
        }
    }

    /// Emits the family as a SPICE deck (the serve path: topology jobs
    /// reach the service as emitted decks through the lint-gated deck
    /// lane).
    ///
    /// # Errors
    ///
    /// [`TopoError`] when the parameters fail validation.
    pub fn emit(&self) -> Result<String, TopoError> {
        match self {
            Family::MixerFirst(p) => p.emit(),
            Family::SingleBalanced(p) => p.emit(),
            Family::MedRadio(p) => p.emit(),
        }
    }

    /// The name of the swept bias source for
    /// [`bias_sweep`] (`vrf` for every family).
    pub fn sweep_source(&self) -> &'static str {
        "vrf"
    }

    /// Evaluates the family's scalar metric on an already-generated
    /// (possibly perturbed) circuit.
    fn metric_on(&self, circuit: &Circuit) -> Result<f64, AnalysisError> {
        match self {
            Family::MixerFirst(_) => {
                // Held-on port resistance: EMF step ΔV, port-current
                // step ΔI, R = ΔV/ΔI. Port current is −i_branch.
                let dv = 0.05;
                let sweep =
                    remix_analysis::dc_sweep(circuit, "vrf", &[-dv, dv], &OpOptions::default())?;
                let id =
                    circuit
                        .find_element("vrf")
                        .ok_or_else(|| AnalysisError::UnknownProbe {
                            probe: "voltage source 'vrf'".into(),
                        })?;
                let i0 = -sweep.points[0].branch_current(id);
                let i1 = -sweep.points[1].branch_current(id);
                let di = i1 - i0;
                if di.abs() < 1e-18 {
                    return Err(AnalysisError::UnknownProbe {
                        probe: "port current did not respond to the EMF step".into(),
                    });
                }
                Ok(2.0 * dv / di)
            }
            Family::SingleBalanced(_) | Family::MedRadio(_) => {
                let op = dc_operating_point(circuit, &OpOptions::default())?;
                Ok(supply_power(circuit, &op).total_mw() * 1e3)
            }
        }
    }
}

/// Mismatch magnitudes for the family-generic Monte-Carlo study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoMismatch {
    /// Threshold-voltage mismatch σ (V), applied independently per
    /// device.
    pub sigma_vt: f64,
    /// Relative β (kp) mismatch σ, applied independently per device.
    pub sigma_kp_frac: f64,
    /// Number of samples.
    pub n_runs: usize,
    /// Study seed; sample `i` derives its own stream, so outcomes are
    /// prefix-stable in `n_runs`.
    pub seed: u64,
}

impl Default for TopoMismatch {
    fn default() -> Self {
        TopoMismatch {
            sigma_vt: 2.0e-3,
            sigma_kp_frac: 0.005,
            n_runs: 20,
            seed: 0x70B0,
        }
    }
}

/// One process corner: a global shift applied to every MOS instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Corner name (`"tt"`, `"ss"`, `"ff"`).
    pub name: &'static str,
    /// Multiplier on `kp` (mobility/β shift).
    pub kp_scale: f64,
    /// Additive shift on `vt0` (V).
    pub dvt0: f64,
}

/// The standard typical/slow/fast corner set (±10 % β, ∓30 mV Vt —
/// mirroring the `remix-core` corner laws).
pub fn standard_corners() -> Vec<Corner> {
    vec![
        Corner {
            name: "tt",
            kp_scale: 1.0,
            dvt0: 0.0,
        },
        Corner {
            name: "ss",
            kp_scale: 0.9,
            dvt0: 0.03,
        },
        Corner {
            name: "ff",
            kp_scale: 1.1,
            dvt0: -0.03,
        },
    ]
}

/// Outcome of one study sample: the family metric value, or the
/// rendered reason the sample failed.
pub type StudyOutcome = Result<f64, String>;

/// A completed family study with per-sample outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoStudy {
    /// Family name.
    pub family: &'static str,
    /// Metric description (with unit).
    pub metric: &'static str,
    /// `(label, outcome)` per sample — sample indexes for Monte-Carlo,
    /// corner names for corner studies.
    pub outcomes: Vec<(String, StudyOutcome)>,
}

impl TopoStudy {
    /// Number of solved samples.
    pub fn n_ok(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_ok()).count()
    }

    /// Fraction of samples that solved (1.0 for an empty study).
    pub fn yield_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.n_ok() as f64 / self.outcomes.len() as f64
        }
    }

    /// Metric values of the solved samples, sorted ascending.
    pub fn values(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|(_, o)| o.as_ref().ok().copied())
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// One-line summary, e.g.
    /// `medradio dc supply power (uW): yield 20/20, median 3.61e1`.
    pub fn summary_line(&self) -> String {
        let vals = self.values();
        let median = vals.get(vals.len() / 2).copied();
        match median {
            Some(m) => format!(
                "{} {}: yield {}/{}, median {m:.3e}",
                self.family,
                self.metric,
                self.n_ok(),
                self.outcomes.len()
            ),
            None => format!(
                "{} {}: yield 0/{}",
                self.family,
                self.metric,
                self.outcomes.len()
            ),
        }
    }
}

/// SplitMix64 mix of the study seed and sample index: independent
/// per-sample streams, prefix-stable in `n_runs`.
fn sample_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Box–Muller standard normal draw.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Applies independent Pelgrom-style perturbations to every MOS
/// instance in the circuit (the generic analogue of `remix-core`'s
/// per-half model perturbation).
fn perturb_devices(circuit: &mut Circuit, rng: &mut StdRng, mm: &TopoMismatch) {
    for idx in 0..circuit.element_count() {
        let id = remix_circuit::ElementId::from_index(idx);
        if let Element::Mos { dev, .. } = circuit.element_mut(id) {
            dev.model.vt0 += mm.sigma_vt * gauss(rng);
            dev.model.kp *= 1.0 + mm.sigma_kp_frac * gauss(rng);
        }
    }
}

/// Applies a global corner shift to every MOS instance.
fn apply_corner(circuit: &mut Circuit, corner: &Corner) {
    for idx in 0..circuit.element_count() {
        let id = remix_circuit::ElementId::from_index(idx);
        if let Element::Mos { dev, .. } = circuit.element_mut(id) {
            dev.model.kp *= corner.kp_scale;
            dev.model.vt0 += corner.dvt0;
        }
    }
}

fn run_study<F>(
    family: &Family,
    labels: Vec<String>,
    pool: &PoolOptions,
    sample: F,
) -> Result<TopoStudy, TopoError>
where
    F: Fn(usize) -> Result<f64, AnalysisError> + Sync,
{
    family.generate()?; // validate once before launching the pool
    let todo: Vec<usize> = (0..labels.len()).collect();
    let run = run_tasks(
        &todo,
        pool,
        |index| {
            let _span = remix_telemetry::span(remix_telemetry::names::TOPO_STUDY_SAMPLE)
                .with_field("index", index);
            match sample(index) {
                Ok(v) => TaskResult::Done(v),
                Err(e) => match e.interruption() {
                    Some(intr) => TaskResult::Interrupted(intr),
                    None => TaskResult::Failed(e.to_string()),
                },
            }
        },
        |_, outcome| {
            remix_telemetry::counter_add(
                match outcome {
                    Ok(_) => remix_telemetry::names::TOPO_STUDY_SAMPLES_OK,
                    Err(_) => remix_telemetry::names::TOPO_STUDY_SAMPLES_FAILED,
                },
                1,
            );
        },
    );
    let outcomes = labels
        .into_iter()
        .zip(run.outcomes)
        .map(|(label, outcome)| {
            let outcome =
                outcome.unwrap_or_else(|| Err("interrupted before the sample ran".into()));
            (label, outcome)
        })
        .collect();
    Ok(TopoStudy {
        family: family.name(),
        metric: family.metric_name(),
        outcomes,
    })
}

/// Family-generic Monte-Carlo mismatch study on the work-stealing pool.
///
/// Every MOS instance is perturbed independently per sample; sample `i`
/// uses its own RNG stream so outcomes are prefix-stable and identical
/// for any worker count.
///
/// # Errors
///
/// [`TopoError`] when the family parameters fail validation — a
/// rejected family never launches the pool.
pub fn mc_study(
    family: &Family,
    mm: &TopoMismatch,
    pool: &PoolOptions,
) -> Result<TopoStudy, TopoError> {
    let labels = (0..mm.n_runs).map(|i| format!("mc{i}")).collect();
    run_study(family, labels, pool, |i| {
        let mut circuit = family.generate().map_err(|e| AnalysisError::UnknownProbe {
            probe: e.to_string(),
        })?;
        let mut rng = StdRng::seed_from_u64(sample_seed(mm.seed, i));
        perturb_devices(&mut circuit, &mut rng, mm);
        family.metric_on(&circuit)
    })
}

/// Family-generic process-corner study on the work-stealing pool.
///
/// # Errors
///
/// [`TopoError`] when the family parameters fail validation.
pub fn corner_study(
    family: &Family,
    corners: &[Corner],
    pool: &PoolOptions,
) -> Result<TopoStudy, TopoError> {
    let owned: Vec<Corner> = corners.to_vec();
    let labels = owned.iter().map(|c| c.name.to_string()).collect();
    run_study(family, labels, pool, move |i| {
        let mut circuit = family.generate().map_err(|e| AnalysisError::UnknownProbe {
            probe: e.to_string(),
        })?;
        apply_corner(&mut circuit, &owned[i]);
        family.metric_on(&circuit)
    })
}

/// DC transfer sweep of a family's bias source (`vrf`) through
/// [`dc_sweep_partial`]: one operating-point session, so the circuit is
/// linted, laid out, plan-compiled and pivot-searched once per sweep.
///
/// # Errors
///
/// [`TopoError`] on invalid parameters; [`AnalysisError`] when the
/// sweep itself fails — both boxed into the same error type the serve
/// layer reports.
pub fn bias_sweep(
    family: &Family,
    values: &[f64],
) -> Result<Partial<DcSweepResult>, Box<dyn std::error::Error>> {
    let circuit = family.generate()?;
    Ok(dc_sweep_partial(
        &circuit,
        family.sweep_source(),
        values,
        &OpOptions::default(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medradio_mc_is_deterministic_and_meets_budget() {
        let family = Family::MedRadio(MedRadioParams::default());
        let mm = TopoMismatch {
            n_runs: 6,
            ..TopoMismatch::default()
        };
        let pool = PoolOptions::default();
        let a = mc_study(&family, &mm, &pool).unwrap();
        let b = mc_study(&family, &mm, &pool).unwrap();
        assert_eq!(a, b, "same seed must reproduce");
        assert_eq!(a.n_ok(), 6, "{}", a.summary_line());
        // Mismatch scatters the µA-scale bias current but the budget
        // must hold with margin at σ(ΔVt) = 2 mV.
        for v in a.values() {
            assert!(v > 0.0 && v < 50.0, "sample {v} µW outside budget");
        }
        // Prefix stability: a shorter study is a strict prefix.
        let short = mc_study(&family, &TopoMismatch { n_runs: 3, ..mm }, &pool).unwrap();
        assert_eq!(short.outcomes[..], a.outcomes[..3]);
    }

    #[test]
    fn corners_order_single_balanced_power() {
        let family = Family::SingleBalanced(SingleBalancedParams::default());
        let study = corner_study(&family, &standard_corners(), &PoolOptions::default()).unwrap();
        assert_eq!(study.n_ok(), 3, "{}", study.summary_line());
        let by_name: std::collections::HashMap<&str, f64> = study
            .outcomes
            .iter()
            .filter_map(|(n, o)| o.as_ref().ok().map(|v| (n.as_str(), *v)))
            .collect();
        // Fast silicon (higher β, lower Vt) burns more; slow burns less.
        assert!(by_name["ff"] > by_name["tt"]);
        assert!(by_name["tt"] > by_name["ss"]);
    }

    #[test]
    fn mixer_first_port_resistance_is_physical() {
        let p = MixerFirstParams::default();
        let family = Family::MixerFirst(p.clone());
        let study = corner_study(&family, &standard_corners(), &PoolOptions::default()).unwrap();
        assert_eq!(study.n_ok(), 3, "{}", study.summary_line());
        for v in study.values() {
            // rs + ron + r_bb bracket: above the passives alone is
            // impossible to undercut, and the switch can't add more
            // than a few hundred ohms at this width.
            assert!(
                v > p.rs + p.r_bb * 0.9 && v < p.rs + p.r_bb + 500.0,
                "port resistance {v} Ω outside physical bracket"
            );
        }
    }

    #[test]
    fn bias_sweep_is_one_session_of_standalone_points() {
        use remix_circuit::Waveform;
        use remix_telemetry::names::{LU_PIVOT_SEARCHES, STAMP_PLANS};

        let family = Family::MedRadio(MedRadioParams::default());
        let values: Vec<f64> = (0..5).map(|i| 0.2 + 0.02 * i as f64).collect();
        let tel = remix_telemetry::Telemetry::new();
        let sweep = {
            let _armed = tel.arm();
            bias_sweep(&family, &values).unwrap()
        };
        let snap = tel.snapshot();
        // One session: one stamp plan and one pivot search for the
        // whole sweep, not one per point.
        assert_eq!(snap.counter(LU_PIVOT_SEARCHES), Some(1));
        assert_eq!(snap.counter(STAMP_PLANS), Some(1));
        assert!(sweep.interruption.is_none());
        assert_eq!(sweep.value.values, values);
        assert_eq!(sweep.value.points.len(), 5);

        // Each point is, bit for bit, the standalone operating point of
        // the circuit at that bias (`Debug` prints round-trip floats).
        let circuit = family.generate().unwrap();
        let source = circuit.find_element(family.sweep_source()).unwrap();
        for (&v, point) in values.iter().zip(&sweep.value.points) {
            let mut at_v = circuit.clone();
            if let Element::VoltageSource { wave, .. } = at_v.element_mut(source) {
                *wave = Waveform::Dc(v);
            }
            let solo = dc_operating_point(&at_v, &OpOptions::default()).unwrap();
            assert_eq!(format!("{point:?}"), format!("{solo:?}"), "bias {v} V");
        }

        // Supply droop at the amp node must be monotone in bias drive.
        let amp = circuit.find_node("amp").unwrap();
        let curve: Vec<f64> = sweep.value.points.iter().map(|p| p.voltage(amp)).collect();
        for w in curve.windows(2) {
            assert!(
                w[1] < w[0],
                "amp voltage must fall as bias rises: {curve:?}"
            );
        }
    }
}

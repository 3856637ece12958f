//! `input_impedance_vs_lo`: the N-path analysis shape.
//!
//! The LTI `input_impedance` helper in `remix-analysis` cannot see the
//! N-path effect — frequency translation is a linear *time-variant*
//! phenomenon. This driver measures it the honest way: a transient run
//! per LO point with a fixed RF probe tone, single-bin DFT phasors of
//! the port voltage and current after settling, `Z_in = V/I`. Swept
//! over LO, `|Z_in(f_rf)|` traces the synthesized bandpass: maximal
//! when `f_lo ≈ f_rf`, collapsing toward `R_s + R_sw` away from it.
//!
//! ## Coherence
//!
//! All frequencies sit on a common grid `f_grid` and the DFT window is
//! an integer number of grid cycles, so both the probe tone and every
//! LO harmonic land exactly on DFT bins — no leakage, no window
//! functions, exact phasors from short records.
//!
//! ## Failure isolation
//!
//! Each LO point runs as its own task on the work-stealing pool behind
//! the [`Parallelism`](remix_exec::Parallelism) knob; a point that
//! fails to converge is recorded as an `Err` outcome and the sweep
//! continues — one stubborn point never costs the curve.

use crate::error::TopoError;
use crate::mixer_first::{LoMode, MixerFirstParams};
use crate::FAMILY_MIXER_FIRST;
use remix_analysis::{transient, TranOptions};
use remix_exec::{run_tasks, PoolOptions, TaskResult};
use remix_numerics::Complex;

/// Configuration of the LO sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ZinConfig {
    /// Common frequency grid (Hz); the probe and every LO point are
    /// integer multiples of it.
    pub f_grid: f64,
    /// RF probe frequency as a grid multiple: `f_rf = rf_bin · f_grid`.
    pub rf_bin: usize,
    /// Swept LO frequencies as grid multiples.
    pub lo_bins: Vec<usize>,
    /// Probe EMF amplitude (V).
    pub rf_amplitude: f64,
    /// Settling time discarded before the DFT window, in grid cycles.
    pub settle_cycles: usize,
    /// DFT window length in grid cycles.
    pub window_cycles: usize,
    /// Transient steps per LO period (grid resolution of the switch
    /// edges).
    pub steps_per_lo: usize,
}

impl ZinConfig {
    /// A sweep centred on `rf_bin` spanning `±span` grid bins — the
    /// shape used by the `npath_zin` bench bin and the tests.
    pub fn centered(f_grid: f64, rf_bin: usize, span: usize) -> Self {
        let lo_bins = (rf_bin.saturating_sub(span)..=rf_bin + span)
            .filter(|&b| b >= 1)
            .collect();
        ZinConfig {
            f_grid,
            rf_bin,
            lo_bins,
            rf_amplitude: 0.05,
            settle_cycles: 3,
            window_cycles: 2,
            steps_per_lo: 64,
        }
    }

    fn validate(&self) -> Result<(), TopoError> {
        let fail = |requirement: String| TopoError::Constraint {
            family: FAMILY_MIXER_FIRST,
            requirement,
        };
        if !(self.f_grid.is_finite() && self.f_grid > 0.0) {
            return Err(fail(format!("f_grid {} must be positive", self.f_grid)));
        }
        if self.rf_bin == 0 {
            return Err(fail("rf_bin must be ≥ 1".into()));
        }
        if self.lo_bins.is_empty() || self.lo_bins.contains(&0) {
            return Err(fail("lo_bins must be non-empty, all ≥ 1".into()));
        }
        if self.settle_cycles == 0 || self.window_cycles == 0 {
            return Err(fail("settle_cycles and window_cycles must be ≥ 1".into()));
        }
        if self.steps_per_lo < 16 {
            return Err(fail(format!(
                "steps_per_lo {} too coarse to resolve switch edges (≥ 16)",
                self.steps_per_lo
            )));
        }
        if !(self.rf_amplitude.is_finite() && self.rf_amplitude > 0.0 && self.rf_amplitude <= 0.3) {
            return Err(fail(format!(
                "rf_amplitude {} outside (0, 0.3] V",
                self.rf_amplitude
            )));
        }
        Ok(())
    }
}

/// Outcome of one LO point: the complex input impedance at the probe
/// frequency, or why the point failed (lint rejection, no convergence,
/// pool casualty) while the sweep continued without it.
pub type ZinOutcome = Result<Complex, String>;

/// A completed LO sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ZinSweep {
    /// RF probe frequency (Hz).
    pub f_rf: f64,
    /// `(f_lo, outcome)` per swept point, in ascending LO order.
    pub points: Vec<(f64, ZinOutcome)>,
}

impl ZinSweep {
    /// Number of solved points.
    pub fn n_ok(&self) -> usize {
        self.points.iter().filter(|(_, o)| o.is_ok()).count()
    }

    /// `(f_lo, |Z_in|)` of the solved points.
    pub fn magnitudes(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|(f, o)| o.as_ref().ok().map(|z| (*f, z.abs())))
            .collect()
    }

    /// The solved point with the largest `|Z_in|`.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.magnitudes()
            .into_iter()
            .reduce(|a, b| if b.1 > a.1 { b } else { a })
    }

    /// One-line summary, e.g. `9/9 points, peak 812 Ω at 1.000e7 Hz`.
    pub fn summary_line(&self) -> String {
        match self.peak() {
            Some((f, z)) => format!(
                "{}/{} points, peak {z:.0} Ω at {f:.3e} Hz",
                self.n_ok(),
                self.points.len()
            ),
            None => format!("0/{} points solved", self.points.len()),
        }
    }
}

/// Exact single-bin DFT phasor of a coherently sampled record:
/// `(2/M)·Σ x_m·e^{−j2πf t_m}` over the first `m_use` samples.
fn phasor(times: &[f64], samples: &[f64], f: f64, m_use: usize) -> Complex {
    let m = m_use.min(samples.len()).min(times.len());
    let mut acc = Complex::ZERO;
    for i in 0..m {
        let theta = -2.0 * std::f64::consts::PI * f * times[i];
        acc += Complex::from_polar(samples[i], theta);
    }
    acc * (2.0 / m as f64)
}

/// Measures one LO point: generate, probe, run, extract. The transient
/// gates its own plan, so an aliasing grid comes back as its lint error.
fn zin_point(params: &MixerFirstParams, cfg: &ZinConfig, f_lo: f64) -> Result<Complex, String> {
    let point = MixerFirstParams {
        f_lo,
        lo_mode: LoMode::Running,
        ..params.clone()
    };
    let mut rx = point.generate().map_err(|e| e.to_string())?;
    let f_rf = cfg.rf_bin as f64 * cfg.f_grid;
    rx.set_rf_tone(cfg.rf_amplitude, f_rf);

    let h = 1.0 / (f_lo * cfg.steps_per_lo as f64);
    let settle = cfg.settle_cycles as f64 / cfg.f_grid;
    let window = cfg.window_cycles as f64 / cfg.f_grid;
    let mut opts = TranOptions::new(settle + window, h);
    opts.record_start = settle;

    let result = transient(&rx.circuit, &opts).map_err(|e| e.to_string())?;
    // The recorded grid covers [settle, settle+window] inclusive; use
    // exactly window/h samples so the DFT window is integer cycles.
    let m_use = (window / h).round() as usize;
    if result.times.len() < m_use.max(2) {
        return Err(format!(
            "record too short: {} samples of {m_use} needed",
            result.times.len()
        ));
    }
    let v_rf = result.voltage_waveform(rx.rf);
    let i_branch: Vec<f64> = (0..result.times.len())
        .map(|i| result.branch_current_at(i, rx.rf_emf))
        .collect();
    let v = phasor(&result.times, &v_rf, f_rf, m_use);
    // Branch current flows p→n through the EMF, so the current the
    // port *delivers into* the network is its negation.
    let i = -phasor(&result.times, &i_branch, f_rf, m_use);
    if i.abs() < 1e-15 {
        return Err("port current vanished: impedance undefined".into());
    }
    Ok(v / i)
}

/// Sweeps LO frequency and extracts the synthesized bandpass input
/// impedance of an N-path mixer-first receiver.
///
/// Points run concurrently behind `pool`'s
/// [`Parallelism`](remix_exec::Parallelism) knob; per-point failures
/// are isolated as `Err` outcomes.
///
/// # Errors
///
/// [`TopoError`] when `params` or `cfg` are invalid — a rejected
/// configuration never launches the pool.
pub fn input_impedance_vs_lo(
    params: &MixerFirstParams,
    cfg: &ZinConfig,
    pool: &PoolOptions,
) -> Result<ZinSweep, TopoError> {
    params.validate()?;
    cfg.validate()?;
    let f_rf = cfg.rf_bin as f64 * cfg.f_grid;
    let mut bins = cfg.lo_bins.clone();
    bins.sort_unstable();
    bins.dedup();
    let todo: Vec<usize> = (0..bins.len()).collect();
    let run = run_tasks(
        &todo,
        pool,
        |index| {
            let f_lo = bins[index] as f64 * cfg.f_grid;
            let _span = remix_telemetry::span(remix_telemetry::names::TOPO_ZIN_POINT)
                .with_field("f_lo", f_lo);
            zin_point(params, cfg, f_lo).map_or_else(TaskResult::Failed, TaskResult::Done)
        },
        |_, _| {},
    );
    let points = bins
        .iter()
        .zip(run.outcomes)
        .map(|(&b, outcome)| {
            let outcome = outcome.unwrap_or_else(|| Err("interrupted before the point ran".into()));
            (b as f64 * cfg.f_grid, outcome)
        })
        .collect();
    Ok(ZinSweep { f_rf, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_config_spans_the_bin() {
        let cfg = ZinConfig::centered(1e6, 10, 4);
        assert_eq!(cfg.lo_bins, vec![6, 7, 8, 9, 10, 11, 12, 13, 14]);
        assert!(cfg.validate().is_ok());
        // Near zero the span clips at bin 1, never 0.
        let low = ZinConfig::centered(1e6, 2, 4);
        assert_eq!(low.lo_bins.first(), Some(&1));
    }

    #[test]
    fn bad_configs_rejected_before_any_simulation() {
        let mut cfg = ZinConfig::centered(1e6, 10, 2);
        cfg.steps_per_lo = 4;
        assert!(matches!(
            input_impedance_vs_lo(&MixerFirstParams::default(), &cfg, &PoolOptions::default()),
            Err(TopoError::Constraint { .. })
        ));
        let mut cfg = ZinConfig::centered(1e6, 10, 2);
        cfg.rf_amplitude = 2.0;
        assert!(
            input_impedance_vs_lo(&MixerFirstParams::default(), &cfg, &PoolOptions::default())
                .is_err()
        );
    }

    #[test]
    fn phasor_recovers_a_known_tone() {
        let f = 10e6;
        let n = 200;
        let h = 1.0 / (f * n as f64);
        let times: Vec<f64> = (0..n).map(|i| i as f64 * h).collect();
        let samples: Vec<f64> = times
            .iter()
            .map(|&t| 0.7 * (2.0 * std::f64::consts::PI * f * t + 0.3).sin())
            .collect();
        let z = phasor(&times, &samples, f, n);
        assert!((z.abs() - 0.7).abs() < 1e-9, "|z| = {}", z.abs());
    }
}

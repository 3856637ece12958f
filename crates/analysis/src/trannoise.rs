//! Monte-Carlo transient noise.
//!
//! The reconfigurable mixer is a *periodically time-varying* circuit, so
//! plain `.NOISE` (LTI) analysis cannot capture noise folding around LO
//! harmonics. Commercial tools use PSS+PNOISE; the substitute built here
//! (see DESIGN.md) injects sampled noise currents — one white generator
//! per resistor and MOSFET channel, with per-sample variance matched to
//! the device PSD at the operating point — and lets the ordinary
//! transient engine propagate them through the switching circuit. The
//! output PSD (Welch) then *includes* folded noise exactly like a lab
//! spectrum analyzer measurement would.
//!
//! Device noise magnitudes are frozen at the DC operating point (the
//! time-varying modulation of each generator is second-order for the
//! figures reproduced here; the analytic LTV cascade in `remix-rfkit`
//! cross-checks the result).

use crate::convergence::TraceStage;
use crate::error::AnalysisError;
use crate::op::{dc_operating_point, OpOptions};
use crate::partial::Interrupted;
use crate::tran::{transient_from, Integrator, TranOptions, TranResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use remix_circuit::consts::ROOM_TEMP;
use remix_circuit::{Circuit, Element, MnaLayout, Waveform};
use remix_dsp::signal::WhiteNoise;

/// Configuration for a Monte-Carlo noise transient.
#[derive(Debug, Clone)]
pub struct NoiseTranConfig {
    /// RNG seed (deterministic runs for reproducibility).
    pub seed: u64,
    /// Scale factor on every noise amplitude (1.0 = physical). Setting
    /// this above 1 raises noise above the transient engine's numerical
    /// floor; the measured PSD is then divided by the square at
    /// post-processing.
    pub amplitude_boost: f64,
}

impl Default for NoiseTranConfig {
    fn default() -> Self {
        NoiseTranConfig {
            seed: 0x5EED,
            amplitude_boost: 1.0,
        }
    }
}

/// Builds a copy of `circuit` with sampled-noise current sources attached
/// across every noisy element, then runs the transient.
///
/// The returned waveforms contain the circuit's response *including* the
/// injected noise. Divide measured noise power by
/// `config.amplitude_boost²` when a boost was used.
///
/// One DC operating point is solved, on the original netlist: it sets
/// the device noise PSDs and is also the noisy copy's starting point,
/// since every injected source is zero at t = 0 and adds no unknown.
/// The noisy copy is not ERC-linted again: the original was (by the
/// operating-point solve), and each injected source only joins two nodes
/// that an element of the original already joins.
///
/// # Errors
///
/// [`AnalysisError::Lint`] when the implied simulation plan fails the
/// `SIM` rules (checked here against the *original* netlist, before the
/// noise sources are injected); otherwise propagates operating-point and
/// transient errors, including [`AnalysisError::BudgetExceeded`] when a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// (checked before the noise paths are synthesized and throughout the
/// underlying operating-point and transient solves).
pub fn noise_transient(
    circuit: &Circuit,
    opts: &TranOptions,
    config: &NoiseTranConfig,
) -> Result<TranResult, AnalysisError> {
    crate::plan::gate(&crate::plan::tran_plan(circuit, opts))?;
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_TRANNOISE)
        .with_field("analysis", "trannoise")
        .with_field("elements", circuit.element_count());
    let op = dc_operating_point(circuit, &OpOptions::default())?;
    let fs = 1.0 / opts.h;
    let n_samples = (opts.t_stop / opts.h).ceil() as usize + 2;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Boundary check before committing to the (potentially megasample)
    // noise-path synthesis below.
    if let Err(i) = remix_exec::checkpoint() {
        let stage = TraceStage::TranStep { t: 0.0, h: opts.h };
        let i = Interrupted::at("noise transient", stage, i);
        return Err(i.into_error("noise transient", 0, 0));
    }

    let mut noisy = circuit.clone();
    let mut source_count = 0usize;

    for (idx, e) in circuit.elements().iter().enumerate() {
        let (a, b, white_psd) = match e {
            Element::Resistor { a, b, r, .. } => {
                let psd = 4.0 * remix_circuit::consts::BOLTZMANN * ROOM_TEMP / r;
                (*a, *b, psd)
            }
            Element::Mos { dev, .. } => {
                let Some(ev) = &op.mos_evals[idx] else {
                    continue;
                };
                (dev.d, dev.s, dev.thermal_noise_psd(ev, ROOM_TEMP))
            }
            _ => continue,
        };

        if white_psd > 0.0 {
            let mut gen = WhiteNoise::from_psd(
                white_psd * config.amplitude_boost * config.amplitude_boost,
                fs,
                StdRng::seed_from_u64(rand::Rng::gen(&mut rng)),
            );
            // First point pinned to zero so the DC operating point is the
            // noiseless one (the injections ramp in from t = 0).
            let pts: Vec<(f64, f64)> = (0..n_samples)
                .map(|k| {
                    let v = if k == 0 { 0.0 } else { gen.next_sample() };
                    (k as f64 * opts.h, v)
                })
                .collect();
            noisy.add_isource(&format!("noise_w{source_count}"), a, b, Waveform::Pwl(pts));
            source_count += 1;
        }
    }

    // PWL sources add no stimulus frequency, so the noisy copy implies
    // the plan already gated above.
    let mut mos_caps = op.mos_caps;
    mos_caps.resize(noisy.element_count(), None);
    let integ = Integrator::from_solution(
        &noisy,
        MnaLayout::new(&noisy),
        op.solution,
        mos_caps,
        opts.h,
        opts.v_tol,
    );
    transient_from(integ, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::consts::BOLTZMANN;
    use remix_dsp::psd::welch;
    use remix_dsp::window::Window;

    #[test]
    fn resistor_noise_psd_recovered() {
        // A lone resistor driven by a 0 V source: output node noise PSD
        // across R2 should be 4kT·(R1∥R2) within Monte-Carlo error.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource("vs", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, out, 2e3);
        c.add_resistor("r2", out, Circuit::gnd(), 2e3);

        let h = 1e-8;
        let n = 1 << 14;
        let opts = TranOptions::new(n as f64 * h, h);
        let cfg = NoiseTranConfig {
            amplitude_boost: 1e6, // keep well above solver tolerance floor
            ..NoiseTranConfig::default()
        };
        let res = noise_transient(&c, &opts, &cfg).unwrap();
        let v = res.voltage_waveform(out);
        let fs = 1.0 / h;
        let psd = welch(&v[1..], fs, 2048, Window::Hann);
        // Mid-band value, de-boosted.
        let measured = psd.at(fs / 8.0) / (cfg.amplitude_boost * cfg.amplitude_boost);
        let expected = 4.0 * BOLTZMANN * ROOM_TEMP * 1e3;
        assert!(
            measured > 0.3 * expected && measured < 3.0 * expected,
            "measured {measured:.3e} vs expected {expected:.3e}"
        );
    }

    #[test]
    fn one_noise_transient_solves_one_operating_point() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("vs", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let tel = remix_telemetry::Telemetry::new();
        {
            let _armed = tel.arm();
            noise_transient(
                &c,
                &TranOptions::new(1e-6, 1e-8),
                &NoiseTranConfig::default(),
            )
            .unwrap();
        }
        let snap = tel.snapshot().without_timings();
        let op = remix_telemetry::names::ANALYSIS_OP;
        assert_eq!(snap.span(op).map(|s| s.count), Some(1), "{snap:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("vs", a, Circuit::gnd(), Waveform::Dc(0.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let opts = TranOptions::new(1e-6, 1e-8);
        let cfg = NoiseTranConfig {
            amplitude_boost: 1e6,
            ..NoiseTranConfig::default()
        };
        let r1 = noise_transient(&c, &opts, &cfg).unwrap();
        let r2 = noise_transient(&c, &opts, &cfg).unwrap();
        assert_eq!(r1.solutions, r2.solutions);
        let cfg2 = NoiseTranConfig {
            seed: 99,
            ..cfg.clone()
        };
        let r3 = noise_transient(&c, &opts, &cfg2).unwrap();
        assert_ne!(r1.solutions, r3.solutions);
    }
}

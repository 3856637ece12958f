//! Periodic steady state is one transient integration carried on from
//! chunk to chunk, never a re-run from t = 0.
//!
//! On a nonlinear fixture (an LO-gated MOS switch into an RC load that
//! takes more than one chunk to settle):
//!
//! * the PSS waveforms equal, bit for bit, the last period of a plain
//!   `transient` run for the periods the PSS used;
//! * one PSS solves one DC operating point and opens no transient span;
//! * a PSS that converges after `P` periods completes under a budget of
//!   `P · steps_per_period` timesteps and trips at one fewer.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix_analysis::{
    periodic_steady_state, transient, AnalysisError, PeriodicSteadyState, PssOptions, TranOptions,
};
use remix_circuit::{Circuit, MosModel, Waveform};
use remix_telemetry::names::{ANALYSIS_OP, ANALYSIS_PSS, ANALYSIS_TRAN};

/// LO period (s).
const PERIOD: f64 = 1e-9;

/// A 1 GHz sine-gated NMOS switch passing a DC level into a 1 kΩ ∥ 2 pF
/// load: a two-period time constant, so the orbit takes more than the
/// first chunk of the PSS schedule to settle.
fn gated_switch() -> Circuit {
    let mut c = Circuit::new();
    let src = c.node("src");
    let lo = c.node("lo");
    let out = c.node("out");
    c.add_vsource("vsrc", src, Circuit::gnd(), Waveform::Dc(0.3));
    c.add_vsource(
        "vlo",
        lo,
        Circuit::gnd(),
        Waveform::Sin {
            offset: 0.6,
            amplitude: 0.6,
            freq: 1.0 / PERIOD,
            phase: 0.0,
            delay: 0.0,
        },
    );
    c.add_mosfet(
        "msw",
        MosModel::nmos_65nm(),
        10e-6,
        65e-9,
        src,
        lo,
        out,
        Circuit::gnd(),
    );
    c.add_resistor("rl", out, Circuit::gnd(), 1e3);
    c.add_capacitor("cl", out, Circuit::gnd(), 2e-12);
    c
}

fn pss_options() -> PssOptions {
    let mut opts = PssOptions::new(PERIOD);
    opts.steps_per_period = 32;
    opts.v_tol = 1e-6;
    opts
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn pss() -> PeriodicSteadyState {
    periodic_steady_state(&gated_switch(), &pss_options()).unwrap()
}

#[test]
fn pss_waveforms_are_the_last_period_of_a_plain_transient() {
    let opts = pss_options();
    let n_per = opts.steps_per_period;
    let pss = pss();
    // More than one chunk, so the integration was carried on at least once.
    assert!(
        pss.periods_used > 4,
        "settled in {} periods",
        pss.periods_used
    );
    let h = PERIOD / n_per as f64;
    let tran = transient(
        &gated_switch(),
        &TranOptions::new(pss.periods_used as f64 * PERIOD, h),
    )
    .unwrap();
    let tail = tran.len() - n_per;
    assert_eq!(pss.waveforms.len(), n_per);
    assert_eq!(bits(&pss.waveforms.times), bits(&tran.times[tail..]));
    for (i, (a, b)) in pss
        .waveforms
        .solutions
        .iter()
        .zip(&tran.solutions[tail..])
        .enumerate()
    {
        assert_eq!(bits(a), bits(b), "sample {i} of the final period");
    }
}

#[test]
fn one_pss_solves_one_operating_point() {
    let tel = remix_telemetry::Telemetry::new();
    {
        let _armed = tel.arm();
        pss();
    }
    let snap = tel.snapshot().without_timings();
    assert_eq!(snap.span(ANALYSIS_PSS).map(|s| s.count), Some(1));
    assert_eq!(snap.span(ANALYSIS_OP).map(|s| s.count), Some(1));
    assert!(snap.span(ANALYSIS_TRAN).is_none(), "{snap:?}");
}

#[test]
fn pss_spends_one_timestep_per_grid_step() {
    let opts = pss_options();
    let periods = pss().periods_used;
    let steps = (periods * opts.steps_per_period) as u64;
    let run = |limit: u64| {
        let token = remix_exec::RunBudget::unlimited()
            .with_timesteps(limit)
            .token();
        let _guard = token.arm();
        periodic_steady_state(&gated_switch(), &opts)
    };
    assert_eq!(run(steps).unwrap().periods_used, periods);
    match run(steps - 1) {
        Err(AnalysisError::BudgetExceeded {
            interruption,
            partial,
            ..
        }) => {
            assert_eq!(
                interruption,
                remix_exec::Interruption::Timesteps { limit: steps - 1 }
            );
            assert_eq!(partial.analysis, "periodic steady state");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

//! Supervised-execution acceptance suite (always compiled — no feature
//! gate, unlike `fault_inject.rs`).
//!
//! Every analysis entry point — op, dcsweep, tran, ac, acnoise, pss,
//! trannoise — must honour the [`RunBudget`](remix_exec::RunBudget)
//! armed on its thread: under a zero-millisecond deadline or a
//! pre-cancelled token it returns
//! [`AnalysisError::BudgetExceeded`] carrying a non-empty
//! [`ConvergenceTrace`](remix_analysis::ConvergenceTrace) — never a
//! hang, never a panic. The `*_partial` entry points degrade instead of
//! erroring: whatever Newton-iteration or timestep budget the property
//! tests pick, the returned prefix is internally consistent and every
//! value in it is finite.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
use proptest::prelude::*;
use remix_analysis::{
    ac_sweep, dc_operating_point, dc_sweep, dc_sweep_partial, noise_transient, output_noise,
    periodic_steady_state, transient, transient_partial, AnalysisError, NoiseTranConfig, OpOptions,
    PssOptions, TraceStage, TranOptions,
};
use remix_circuit::{Circuit, MosModel, Waveform};
use remix_exec::{Interruption, RunBudget};
use std::time::Duration;

/// Common-source amplifier (mirrors the `fault_inject.rs` fixture):
/// nonlinear, lint-clean, with an AC-capable gate source named `vg`.
fn amp() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let d = c.node("d");
    c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
    c.add_vsource_ac("vg", g, Circuit::gnd(), Waveform::Dc(0.55), 1.0, 0.0);
    c.add_resistor("rd", vdd, d, 1e3);
    c.add_capacitor("cl", d, Circuit::gnd(), 100e-15);
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
    c
}

/// The same stage driven by a 1 GHz sine at the gate (for PSS).
fn sine_amp() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let d = c.node("d");
    c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
    c.add_vsource(
        "vg",
        g,
        Circuit::gnd(),
        Waveform::Sin {
            offset: 0.55,
            amplitude: 0.05,
            freq: 1e9,
            phase: 0.0,
            delay: 0.0,
        },
    );
    c.add_resistor("rd", vdd, d, 1e3);
    c.add_capacitor("cl", d, Circuit::gnd(), 100e-15);
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
    c
}

type Runner = fn() -> Result<(), AnalysisError>;

fn run_op() -> Result<(), AnalysisError> {
    dc_operating_point(&amp(), &OpOptions::default()).map(|_| ())
}

fn run_dcsweep() -> Result<(), AnalysisError> {
    dc_sweep(&amp(), "vg", &[0.4, 0.55, 0.7], &OpOptions::default()).map(|_| ())
}

fn run_tran() -> Result<(), AnalysisError> {
    transient(&amp(), &TranOptions::new(1e-9, 1e-11)).map(|_| ())
}

fn run_ac() -> Result<(), AnalysisError> {
    let c = amp();
    let op = dc_operating_point(&c, &OpOptions::default())?;
    ac_sweep(&c, &op, &[1e6, 1e9]).map(|_| ())
}

fn run_acnoise() -> Result<(), AnalysisError> {
    let c = amp();
    let d = c.find_node("d").unwrap();
    let op = dc_operating_point(&c, &OpOptions::default())?;
    output_noise(&c, &op, d, Circuit::gnd(), &[1e6]).map(|_| ())
}

fn run_pss() -> Result<(), AnalysisError> {
    periodic_steady_state(&sine_amp(), &PssOptions::new(1e-9)).map(|_| ())
}

fn run_trannoise() -> Result<(), AnalysisError> {
    noise_transient(
        &amp(),
        &TranOptions::new(1e-9, 1e-11),
        &NoiseTranConfig::default(),
    )
    .map(|_| ())
}

const RUNNERS: &[(&str, Runner)] = &[
    ("op", run_op),
    ("dcsweep", run_dcsweep),
    ("tran", run_tran),
    ("ac", run_ac),
    ("acnoise", run_acnoise),
    ("pss", run_pss),
    ("trannoise", run_trannoise),
];

/// The interruption must surface as `BudgetExceeded` with the expected
/// budget dimension and a non-empty, self-explaining trace.
fn assert_interrupted(
    result: Result<(), AnalysisError>,
    entry: &str,
    expect: impl Fn(Interruption) -> bool,
) {
    match result.expect_err("an exhausted budget must fail the analysis") {
        AnalysisError::BudgetExceeded {
            interruption,
            trace,
            ..
        } => {
            assert!(
                expect(interruption),
                "{entry}: wrong interruption: {interruption}"
            );
            assert!(
                !trace.is_empty(),
                "{entry}: BudgetExceeded carried an empty trace"
            );
        }
        other => panic!("{entry}: expected BudgetExceeded, got {other}"),
    }
}

#[test]
fn zero_deadline_is_budget_exceeded_in_every_entry_point() {
    for (entry, run) in RUNNERS {
        let token = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
        let guard = token.arm();
        assert_interrupted(run(), entry, |i| {
            matches!(i, Interruption::DeadlineExpired { .. })
        });
        drop(guard);
    }
}

#[test]
fn pre_cancelled_token_is_budget_exceeded_in_every_entry_point() {
    for (entry, run) in RUNNERS {
        let token = RunBudget::unlimited().token();
        token.cancel();
        let guard = token.arm();
        assert_interrupted(run(), entry, |i| i == Interruption::Cancelled);
        drop(guard);
    }
}

/// Runs `sweep` under a zero deadline and then under a cancelled token:
/// each must end the sweep at its first point, before any
/// factorization, with the point's trace stage and no points completed.
fn assert_stops_at_first_point(
    entry: &str,
    first: f64,
    points: usize,
    sweep: impl Fn() -> Result<(), AnalysisError>,
) {
    let deadline = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
    let cancelled = RunBudget::unlimited().token();
    cancelled.cancel();
    for (token, expected) in [
        (deadline, Interruption::DeadlineExpired { budget_ms: 0 }),
        (cancelled, Interruption::Cancelled),
    ] {
        let guard = token.arm();
        let result = sweep();
        drop(guard);
        match result {
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                partial,
            }) => {
                assert_eq!(interruption, expected, "{entry}");
                assert_eq!(trace.attempts.len(), 1, "{entry}");
                assert_eq!(
                    trace.attempts[0].stage,
                    TraceStage::AcPoint { f: first },
                    "{entry}"
                );
                assert_eq!(partial.completed, 0, "{entry}");
                assert_eq!(partial.total, points, "{entry}");
            }
            other => panic!("{entry}: expected BudgetExceeded, got {other:?}"),
        }
    }
}

/// The AC-type sweeps check the budget before each frequency point;
/// that is the only budget check they make. The operating point is
/// solved unbudgeted, so only the sweep runs under the token.
#[test]
fn ac_type_sweeps_check_the_budget_before_every_point() {
    let c = amp();
    let d = c.find_node("d").unwrap();
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    let freqs = [1e6, 1e9];
    assert_stops_at_first_point("ac", freqs[0], freqs.len(), || {
        ac_sweep(&c, &op, &freqs).map(|_| ())
    });
    assert_stops_at_first_point("acnoise", freqs[0], freqs.len(), || {
        output_noise(&c, &op, d, Circuit::gnd(), &freqs).map(|_| ())
    });
}

#[test]
fn every_entry_point_succeeds_with_an_unlimited_budget_armed() {
    // The matrix above is only meaningful if arming per se is benign.
    for (entry, run) in RUNNERS {
        let token = RunBudget::unlimited().token();
        let guard = token.arm();
        run().unwrap_or_else(|e| panic!("{entry} failed under an unlimited budget: {e}"));
        drop(guard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Graceful degradation property: wherever in the sweep a Newton
    // budget trips, `dc_sweep_partial` hands back a consistent,
    // all-finite prefix — never a panic, never a poisoned point.
    #[test]
    fn newton_budget_never_panics_or_poisons_the_dc_sweep_prefix(limit in 1u64..600) {
        let c = amp();
        let values: Vec<f64> = (0..9).map(|k| 0.30 + 0.05 * k as f64).collect();
        let token = RunBudget::unlimited().with_newton_iterations(limit).token();
        let _guard = token.arm();
        let partial = dc_sweep_partial(&c, "vg", &values, &OpOptions::default())
            .expect("a budget trip must degrade, not error");
        let res = &partial.value;
        prop_assert_eq!(res.points.len(), res.values.len());
        prop_assert!(res.points.len() <= values.len());
        for p in &res.points {
            prop_assert!(
                p.solution.iter().all(|v| v.is_finite()),
                "non-finite value in the completed prefix at limit {}", limit
            );
        }
        match &partial.interruption {
            Some(why) => {
                prop_assert_eq!(why.interruption, Interruption::NewtonIterations { limit });
                prop_assert!(!why.trace.is_empty(), "interruption without a trace");
            }
            // Budget never tripped: the sweep must be complete.
            None => prop_assert_eq!(res.points.len(), values.len()),
        }
    }

    // Same property for the transient grid under a timestep budget.
    #[test]
    fn timestep_budget_never_panics_or_poisons_the_transient_prefix(limit in 1u64..200) {
        let c = amp();
        let token = RunBudget::unlimited().with_timesteps(limit).token();
        let _guard = token.arm();
        let partial = transient_partial(&c, &TranOptions::new(1e-9, 1e-11))
            .expect("a budget trip must degrade, not error");
        let res = &partial.value;
        prop_assert_eq!(res.solutions.len(), res.times.len());
        for s in &res.solutions {
            prop_assert!(
                s.iter().all(|v| v.is_finite()),
                "non-finite value in the completed prefix at limit {}", limit
            );
        }
        if let Some(why) = &partial.interruption {
            prop_assert_eq!(why.interruption, Interruption::Timesteps { limit });
            prop_assert!(!why.trace.is_empty(), "interruption without a trace");
        }
    }
}

#[test]
fn interrupted_dc_sweep_resumes_completing_only_the_remaining_points() {
    let c = amp();
    let values: Vec<f64> = (0..9).map(|k| 0.30 + 0.05 * k as f64).collect();
    let full = dc_sweep(&c, "vg", &values, &OpOptions::default()).unwrap();

    // Budget half the iterations the full sweep needs: the trip lands
    // deterministically mid-sweep.
    let total: u64 = full
        .points
        .iter()
        .map(|p| p.trace.total_iterations() as u64)
        .sum();
    let token = RunBudget::unlimited()
        .with_newton_iterations(total / 2)
        .token();
    let guard = token.arm();
    let partial = dc_sweep_partial(&c, "vg", &values, &OpOptions::default())
        .expect("a budget trip must degrade, not error");
    drop(guard);
    assert!(!partial.is_complete(), "half the budget must interrupt");
    let done = partial.value.points.len();
    assert!(done < values.len());

    // Resume over the remaining values only; the stitched sweep must
    // match the uninterrupted one point for point.
    let rest = dc_sweep(&c, "vg", &values[done..], &OpOptions::default()).unwrap();
    assert_eq!(done + rest.points.len(), values.len());
    for (got, want) in partial
        .value
        .points
        .iter()
        .chain(rest.points.iter())
        .zip(&full.points)
    {
        for (a, b) in got.solution.iter().zip(&want.solution) {
            assert!((a - b).abs() < 1e-6, "resumed point diverged: {a} vs {b}");
        }
    }
}

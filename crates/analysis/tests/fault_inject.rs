//! Fault-injection robustness suite (`--features fault-inject`).
//!
//! Every analysis entry point — op, dcsweep, tran, ac, acnoise, pss,
//! trannoise — is driven under each deterministic fault kind (forced
//! singular pivot, NaN device evaluation, capped Newton budget) and must
//! return a *structured* [`AnalysisError`] carrying a non-empty
//! [`ConvergenceTrace`]: never a panic, never a silently NaN-poisoned
//! result vector.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
#![cfg(feature = "fault-inject")]

use proptest::prelude::*;
use remix_analysis::{
    ac_sweep, dc_operating_point, dc_sweep, noise_transient, output_noise, periodic_steady_state,
    transient, AnalysisError, FaultPlan, NoiseTranConfig, OpOptions, PssOptions, TraceStage,
    TranOptions,
};
use remix_circuit::{Circuit, MosModel, Waveform};

/// Common-source amplifier: nonlinear (one MOSFET), lint-clean, with an
/// AC-capable gate source named `vg` for sweeps.
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

fn assert_all_finite(xs: &[f64], what: &str) {
    assert!(
        xs.iter().all(|v| v.is_finite()),
        "{what}: non-finite value escaped into results"
    );
}

/// One entry point: runs the analysis and, on success, verifies no
/// non-finite value reached the caller.
type Runner = fn() -> Result<(), AnalysisError>;

fn run_op() -> Result<(), AnalysisError> {
    let c = amp();
    let op = dc_operating_point(&c, &OpOptions::default())?;
    assert_all_finite(&op.solution, "op");
    Ok(())
}

fn run_dcsweep() -> Result<(), AnalysisError> {
    let c = amp();
    let res = dc_sweep(&c, "vg", &[0.4, 0.55, 0.7], &OpOptions::default())?;
    for p in &res.points {
        assert_all_finite(&p.solution, "dcsweep");
    }
    Ok(())
}

fn run_tran() -> Result<(), AnalysisError> {
    let c = amp();
    let res = transient(&c, &TranOptions::new(1e-9, 1e-11))?;
    for s in &res.solutions {
        assert_all_finite(s, "tran");
    }
    Ok(())
}

fn run_ac() -> Result<(), AnalysisError> {
    let c = amp();
    let op = dc_operating_point(&c, &OpOptions::default())?;
    let res = ac_sweep(&c, &op, &[1e6, 1e9])?;
    for s in &res.solutions {
        assert!(
            s.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "ac: non-finite phasor escaped"
        );
    }
    Ok(())
}

fn run_acnoise() -> Result<(), AnalysisError> {
    let c = amp();
    let d = c.find_node("d").unwrap();
    let op = dc_operating_point(&c, &OpOptions::default())?;
    let res = output_noise(&c, &op, d, Circuit::gnd(), &[1e6])?;
    assert_all_finite(&res.total, "acnoise");
    Ok(())
}

fn run_pss() -> Result<(), AnalysisError> {
    let c = sine_amp();
    let pss = periodic_steady_state(&c, &PssOptions::new(1e-9))?;
    for s in &pss.waveforms.solutions {
        assert_all_finite(s, "pss");
    }
    Ok(())
}

fn run_trannoise() -> Result<(), AnalysisError> {
    let c = amp();
    let res = noise_transient(
        &c,
        &TranOptions::new(1e-9, 1e-11),
        &NoiseTranConfig::default(),
    )?;
    for s in &res.solutions {
        assert_all_finite(s, "trannoise");
    }
    Ok(())
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

/// The failure must be typed and carry a non-empty trace.
fn assert_structured(e: &AnalysisError, entry: &str) {
    match e {
        AnalysisError::Singular { trace, .. }
        | AnalysisError::NoConvergence { trace, .. }
        | AnalysisError::StepSizeUnderflow { trace, .. } => {
            assert!(!trace.is_empty(), "{entry}: error trace is empty: {e}");
        }
        other => panic!("{entry}: expected a traced numerical error, got {other}"),
    }
}

#[test]
fn forced_singular_pivot_is_structured_in_every_entry_point() {
    for (entry, run) in RUNNERS {
        let guard = FaultPlan::singular_pivot().arm();
        let err = run().expect_err("singular pivot must fail the analysis");
        assert_structured(&err, entry);
        drop(guard);
    }
}

#[test]
fn nan_device_eval_is_structured_in_every_entry_point() {
    for (entry, run) in RUNNERS {
        let guard = FaultPlan::nan_eval().arm();
        let err = run().expect_err("NaN device eval must fail the analysis");
        assert_structured(&err, entry);
        drop(guard);
    }
}

#[test]
fn capped_newton_budget_is_structured_in_every_entry_point() {
    for (entry, run) in RUNNERS {
        let guard = FaultPlan::newton_cap(1).arm();
        let err = run().expect_err("a one-iteration Newton budget must fail");
        assert_structured(&err, entry);
        drop(guard);
    }
}

#[test]
fn every_entry_point_succeeds_with_faults_disarmed() {
    // The matrix above is only meaningful if the baseline passes.
    for (entry, run) in RUNNERS {
        run().unwrap_or_else(|e| panic!("{entry} failed without faults: {e}"));
    }
}

#[test]
fn ac_stage_singular_records_an_ac_point_trace() {
    let c = amp();
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    let _guard = FaultPlan::singular_pivot().arm();
    match ac_sweep(&c, &op, &[1e6]) {
        Err(AnalysisError::Singular { trace, .. }) => {
            assert_eq!(trace.analysis, "ac sweep");
            assert!(matches!(
                trace.attempts[0].stage,
                TraceStage::AcPoint { f } if f == 1e6
            ));
        }
        other => panic!("expected Singular with AC trace, got {other:?}"),
    }
}

#[test]
fn tran_step_singular_records_a_tran_step_trace() {
    let c = amp();
    // Each op Newton iteration is exactly one factorization, so the op
    // phase inside transient() consumes this many factor events; the
    // next one is the first transient step.
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    let op_factors = op.trace.total_iterations() as u64;
    let _guard = FaultPlan::singular_pivot().starting_at(op_factors).arm();
    match transient(&c, &TranOptions::new(1e-9, 1e-11)) {
        Err(AnalysisError::Singular { trace, .. }) => {
            assert_eq!(trace.analysis, "transient step");
            assert!(matches!(
                trace.attempts[0].stage,
                TraceStage::TranStep { .. }
            ));
        }
        other => panic!("expected Singular with tran-step trace, got {other:?}"),
    }
}

#[test]
fn one_event_window_fails_exactly_the_third_factorization_of_a_transient() {
    // A linear RC driven below the op's 0.3 V damping limit: the op
    // converges in two undamped Newton iterations (two factorizations),
    // so event 2 is the first Newton iteration of the first timestep.
    // Faults count factorizations, refactorizations included, one
    // event each.
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(0.2));
    c.add_resistor("r1", a, b, 1e3);
    c.add_capacitor("c1", b, Circuit::gnd(), 1e-12);
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    assert_eq!(op.trace.total_iterations(), 2);
    let opts = TranOptions::new(1e-9, 1e-11);
    let _guard = FaultPlan::singular_pivot()
        .starting_at(2)
        .for_events(1)
        .arm();
    match transient(&c, &opts) {
        Err(AnalysisError::Singular { trace, .. }) => {
            assert_eq!(trace.analysis, "transient step");
            assert_eq!(trace.attempts.len(), 1);
            assert_eq!(trace.attempts[0].iterations, 1);
            match trace.attempts[0].stage {
                TraceStage::TranStep { t, h } => {
                    assert_eq!(h, opts.h);
                    assert!((t - opts.h).abs() < 1e-24, "t = {t:e}");
                }
                other => panic!("expected a tran-step trace, got {other:?}"),
            }
        }
        other => panic!("expected Singular at the first timestep, got {other:?}"),
    }
}

#[test]
fn op_recovers_from_a_single_poisoned_eval() {
    // One poisoned MOSFET evaluation fails the direct stage; the gmin
    // ladder then runs un-poisoned and must still find the bias point.
    let c = amp();
    let _guard = FaultPlan::nan_eval().for_events(1).arm();
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    assert_all_finite(&op.solution, "op after transient poison");
    assert!(
        op.trace
            .attempts
            .iter()
            .any(|a| a.outcome == remix_analysis::AttemptOutcome::NotFinite),
        "the poisoned attempt should be on record: {}",
        op.trace.render()
    );
    assert_eq!(
        op.trace.attempts.last().unwrap().outcome,
        remix_analysis::AttemptOutcome::Converged
    );
}

#[test]
fn budget_trip_during_gmin_stepping_traces_both_fault_and_interruption() {
    // One poisoned eval fails the direct stage and forces the gmin
    // ladder; a Newton budget sized past the direct attempt then trips
    // *inside* the ladder. The single trace must tell the whole story:
    // the fault's NotFinite attempt and the interrupted ladder rung.
    use remix_analysis::{AttemptOutcome, StageKind};

    let c = amp();
    let _fault = FaultPlan::nan_eval().for_events(1).arm();
    let token = remix_exec::RunBudget::unlimited()
        .with_newton_iterations(8)
        .token();
    let _budget = token.arm();
    match dc_operating_point(&c, &OpOptions::default()) {
        Err(AnalysisError::BudgetExceeded {
            interruption,
            trace,
            ..
        }) => {
            assert_eq!(
                interruption,
                remix_exec::Interruption::NewtonIterations { limit: 8 }
            );
            assert!(
                trace
                    .attempts
                    .iter()
                    .any(|a| a.outcome == AttemptOutcome::NotFinite),
                "the fault's failed attempt should be on record: {}",
                trace.render()
            );
            let last = trace.attempts.last().unwrap();
            assert!(
                matches!(last.stage, TraceStage::Dc(StageKind::GminLadder { .. })),
                "the budget should trip in the gmin ladder: {}",
                trace.render()
            );
            assert_eq!(last.outcome, AttemptOutcome::Interrupted(interruption));
        }
        other => panic!("expected BudgetExceeded from the gmin ladder, got {other:?}"),
    }
}

/// Compact deterministic random netlist (R/C/V/MOS) for the panic sweep.
fn random_netlist(seed: u64, n_elements: usize) -> Circuit {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut c = Circuit::new();
    let pool = 5usize;
    let node_of = |c: &mut Circuit, r: u64| {
        let k = (r as usize) % (pool + 1);
        if k == 0 {
            Circuit::gnd()
        } else {
            c.node(&format!("n{k}"))
        }
    };
    for i in 0..n_elements {
        let a = node_of(&mut c, next());
        let b = node_of(&mut c, next());
        let v = 1.0 + (next() % 1000) as f64;
        match next() % 5 {
            0 => {
                c.add_vsource(&format!("v{i}"), a, b, Waveform::Dc(v / 1000.0));
            }
            1 => {
                c.add_capacitor(&format!("c{i}"), a, b, v * 1e-15);
            }
            2 => {
                let g = node_of(&mut c, next());
                c.add_mosfet(
                    &format!("m{i}"),
                    MosModel::nmos_65nm(),
                    (1.0 + (v % 50.0)) * 1e-6,
                    65e-9,
                    a,
                    g,
                    b,
                    Circuit::gnd(),
                );
            }
            _ => {
                c.add_resistor(&format!("r{i}"), a, b, v * 1e2);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Robustness property: whatever the netlist and whatever the armed
    // fault plan, the solver never panics and never hands back a
    // non-finite solution — it either converges despite the fault window
    // or fails with a typed, non-empty trace.
    #[test]
    fn any_fault_plan_never_panics_and_never_poisons(
        seed in any::<u64>(), n in 3usize..12
    ) {
        let c = random_netlist(seed, n);
        let plans = [
            FaultPlan::singular_pivot(),
            FaultPlan::singular_pivot().starting_at(3).for_events(2),
            FaultPlan::nan_eval(),
            FaultPlan::nan_eval().for_events(1),
            FaultPlan::newton_cap(1),
        ];
        for plan in plans {
            let guard = plan.arm();
            match dc_operating_point(&c, &OpOptions::default()) {
                Ok(op) => {
                    prop_assert!(
                        op.solution.iter().all(|v| v.is_finite()),
                        "non-finite solution under {plan:?}"
                    );
                }
                Err(AnalysisError::Lint(_)) => {} // generator made a broken netlist
                Err(e) => {
                    prop_assert!(
                        e.trace().is_some_and(|t| !t.is_empty()),
                        "untraced failure under {plan:?}: {e}"
                    );
                }
            }
            drop(guard);
        }
    }
}

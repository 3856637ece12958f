//! A serial DC sweep is one operating-point session: the circuit is
//! linted and laid out once, the stamp plan is compiled once, and every
//! point restarts its solver from the first point's first factorization.
//!
//! None of that may show in the results. Over random lint-clean MOS
//! netlists:
//!
//! * every `dc_sweep` point equals a standalone `dc_operating_point` on
//!   the circuit with that source value, bit for bit (solution,
//!   iterations, every trace attempt, rcond), and a failing point fails
//!   with the standalone error;
//! * the sweep makes as many factorizations as the standalone calls, and
//!   one pivot search fewer per point after the first.
//!
//! A non-finite sweep value still fails with the standalone lint error.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use proptest::prelude::*;
use remix_analysis::{
    dc_operating_point, dc_sweep, dc_sweep_partial, AnalysisError, ConvergencePolicy, OpOptions,
    OperatingPoint, StageKind,
};
use remix_circuit::{Circuit, Element, MosModel, Waveform};
use remix_telemetry::names::{LU_FACTORIZATIONS, LU_PIVOT_SEARCHES, STAMP_PLANS};

mod common;
use common::{lint_clean, random_mos, splitmix};

/// `c` with source `vin` at the DC value `v`.
fn with_vin(c: &Circuit, v: f64) -> Circuit {
    let mut w = c.clone();
    let id = w.find_element("vin").unwrap();
    if let Element::VoltageSource { wave, .. } = w.element_mut(id) {
        *wave = Waveform::Dc(v);
    }
    w
}

/// Factorizations, pivot searches and stamp plans counted while `f` ran.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Counts {
    factors: u64,
    searches: u64,
    plans: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let tel = remix_telemetry::Telemetry::new();
    let r = {
        let _armed = tel.arm();
        f()
    };
    let snap = tel.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    let counts = Counts {
        factors: count(LU_FACTORIZATIONS),
        searches: count(LU_PIVOT_SEARCHES),
        plans: count(STAMP_PLANS),
    };
    (r, counts)
}

/// Bit-level equality of two operating points (solution, iterations,
/// every trace attempt with its rcond, MOS evaluations, layout): `Debug`
/// prints every float in round-trip form, so equal text means equal
/// bits.
fn same_point(a: &OperatingPoint, b: &OperatingPoint) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Whether a result's first Newton attempt got its first factorization
/// through (an attempt records rcond only after a successful one, and
/// ends at the first failed one).
fn first_factorization_succeeded(r: &Result<OperatingPoint, AnalysisError>) -> bool {
    let trace = match r {
        Ok(op) => &op.trace,
        Err(e) => match e.trace() {
            Some(t) => t,
            None => return false,
        },
    };
    trace.attempts.first().is_some_and(|a| a.rcond.is_some())
}

/// Checks a sweep of `c` over `values` under `opts` against standalone
/// operating points. Returns whether the whole sweep converged.
fn check_sweep(c: &Circuit, values: &[f64], opts: &OpOptions) -> Result<bool, String> {
    let (sweep, swept) = counted(|| dc_sweep(c, "vin", values, opts));

    // The standalone calls the sweep stands for, up to its first failure.
    let mut solo = Vec::new();
    let mut solo_counts = Counts::default();
    for &v in values {
        let (r, n) = counted(|| dc_operating_point(&with_vin(c, v), opts));
        solo_counts.factors += n.factors;
        solo_counts.searches += n.searches;
        solo_counts.plans += n.plans;
        let failed = r.is_err();
        solo.push((r, n));
        if failed {
            break;
        }
    }

    match &sweep {
        Ok(res) => {
            if res.points.len() != solo.len() || res.values != values {
                return Err(format!(
                    "sweep has {} points, standalone {}",
                    res.points.len(),
                    solo.len()
                ));
            }
            for (k, (p, (s, _))) in res.points.iter().zip(&solo).enumerate() {
                match s {
                    Ok(s) if same_point(p, s) => {}
                    Ok(s) => {
                        return Err(format!("point {k} differs:\nsweep {p:?}\nstandalone {s:?}"))
                    }
                    Err(e) => return Err(format!("point {k}: sweep solved, standalone {e}")),
                }
            }
        }
        Err(e) => match solo.last() {
            Some((Err(s), _)) if format!("{e:?}") == format!("{s:?}") => {}
            other => {
                return Err(format!(
                    "sweep failed with {e:?}, standalone ended {:?}",
                    other.map(|(r, _)| r)
                ))
            }
        },
    }

    // The same factorizations; with a seed, every point after the first
    // skips exactly the search its standalone call opens with.
    if swept.factors != solo_counts.factors {
        return Err(format!(
            "factorizations: sweep {swept:?}, standalone {solo_counts:?}"
        ));
    }
    let seeded = first_factorization_succeeded(&solo[0].0);
    let skipped = if seeded { solo.len() as u64 - 1 } else { 0 };
    if swept.searches != solo_counts.searches - skipped {
        return Err(format!(
            "pivot searches: sweep {swept:?}, standalone {solo_counts:?}, seeded {seeded}"
        ));
    }
    // Without a pivot fallback or a new stamp sequence anywhere, the
    // whole sweep makes one search and one plan.
    let plain = solo.iter().all(|(_, n)| n.searches == 1 && n.plans == 1);
    if plain && (swept.searches, swept.plans) != (1, 1) {
        return Err(format!("plain sweep made {swept:?}"));
    }

    Ok(sweep.is_ok())
}

/// `n` sweep values in [0, 1.2] V drawn from `seed`, in random order
/// (a repeated value included now and then).
fn sweep_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed ^ 0x5EED;
    (0..n)
        .map(|_| 0.05 * (splitmix(&mut state) % 25) as f64)
        .collect()
}

/// The default options, or (`tight`) a short ladder with two Newton
/// iterations per rung, under which most points fail.
fn options(tight: bool) -> OpOptions {
    if !tight {
        return OpOptions::default();
    }
    OpOptions {
        max_iter: 2,
        policy: ConvergencePolicy {
            stages: vec![StageKind::Direct, StageKind::GminLadder { start: 1e-3 }],
            damping_retries: 1,
        },
        ..OpOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(256))]

    #[test]
    fn sweep_points_equal_standalone_operating_points(
        seed in any::<u64>(),
        n_mos in 1usize..5,
        n_points in 2usize..7,
        tight in any::<bool>(),
    ) {
        let c = random_mos(seed, n_mos);
        if lint_clean(&c) {
            let values = sweep_values(seed, n_points);
            if let Err(why) = check_sweep(&c, &values, &options(tight)) {
                prop_assert!(false, "{why}\n{}", remix_circuit::to_spice(&c, "sweep case"));
            }
        }
    }
}

#[test]
fn the_generator_yields_both_converging_and_failing_sweeps() {
    // The property above is vacuous unless many drawn netlists lint
    // clean, and both outcomes of a sweep occur.
    let (mut converged, mut failed) = (0, 0);
    for seed in 0..40u64 {
        let c = random_mos(seed, 1 + (seed % 4) as usize);
        if !lint_clean(&c) {
            continue;
        }
        for tight in [false, true] {
            match check_sweep(&c, &sweep_values(seed, 4), &options(tight)) {
                Ok(true) => converged += 1,
                Ok(false) => failed += 1,
                Err(why) => panic!("seed {seed}, tight {tight}: {why}"),
            }
        }
    }
    assert!(
        converged >= 20 && failed >= 5,
        "{converged} sweeps converged, {failed} failed"
    );
}

/// A CMOS inverter with its input on `vin`.
fn inverter() -> Circuit {
    let mut c = Circuit::new();
    let gnd = Circuit::gnd();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("vdd", vdd, gnd, Waveform::Dc(1.2));
    c.add_vsource("vin", inp, gnd, Waveform::Dc(0.0));
    c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
    c.add_mosfet("mn", MosModel::nmos_65nm(), 2e-6, 65e-9, out, inp, gnd, gnd);
    c
}

#[test]
fn a_sweep_makes_one_pivot_search_and_one_stamp_plan() {
    let c = inverter();
    let values: Vec<f64> = (0..=12).map(|k| 0.1 * k as f64).collect();
    let opts = OpOptions::default();
    let (res, swept) = counted(|| dc_sweep(&c, "vin", &values, &opts).unwrap());
    assert_eq!(res.points.len(), values.len());
    assert_eq!((swept.searches, swept.plans), (1, 1), "{swept:?}");
    let (_, one) = counted(|| dc_operating_point(&c, &opts).unwrap());
    assert_eq!((one.searches, one.plans), (1, 1), "{one:?}");
    assert!(check_sweep(&c, &values, &opts).unwrap());
}

#[test]
fn a_non_finite_sweep_value_fails_with_the_standalone_lint_error() {
    let c = inverter();
    let opts = OpOptions::default();
    // The second value is non-finite; the first (finite) one opens the
    // session, except in the last case, where no session ever opens.
    for values in [
        [0.3, f64::NAN, 0.9],
        [0.3, f64::INFINITY, 0.9],
        [f64::NAN, f64::NAN, 0.3],
    ] {
        let bad = values.iter().copied().find(|v| !v.is_finite()).unwrap();
        let standalone = match dc_operating_point(&with_vin(&c, bad), &opts) {
            Err(AnalysisError::Lint(report)) => report,
            other => panic!("expected a lint error, got {other:?}"),
        };
        assert!(!standalone.is_clean());
        let expect_lint = |r: Result<(), AnalysisError>, what: &str| match r {
            Err(AnalysisError::Lint(report)) => assert_eq!(report, standalone, "{what} {values:?}"),
            other => panic!("{what} {values:?}: expected the standalone lint error, got {other:?}"),
        };
        expect_lint(dc_sweep(&c, "vin", &values, &opts).map(drop), "dc_sweep");
        expect_lint(
            dc_sweep_partial(&c, "vin", &values, &opts).map(drop),
            "dc_sweep_partial",
        );
    }
}

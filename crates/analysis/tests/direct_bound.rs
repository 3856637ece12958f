//! The Direct stage of the operating-point ladder is bounded: it ends as
//! soon as a node voltage passes ten times the circuit's largest DC
//! voltage-source magnitude, and the ladder goes on.
//!
//! That may only save iterations, never move a result. Every stage starts
//! from the all-zero guess, so a failed Direct stage leaves the stages
//! after it nothing but the solver's pivot order. Over random lint-clean
//! MOS netlists, some with a current pushed into one node, whenever the
//! default ladder's Direct attempt fails, the ladder converges exactly
//! when a ladder with no Direct stage does, and to within `v_tol` of its
//! solution on every node. A circuit whose real solution lies past the
//! bound still solves, through the ladder.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use proptest::prelude::*;
use remix_analysis::{
    dc_operating_point, AttemptOutcome, OpOptions, OperatingPoint, StageKind, TraceStage,
};
use remix_circuit::{Circuit, Waveform};

mod common;
use common::{lint_clean, random_mos};

/// The default options with `StageKind::Direct` taken out of the ladder.
fn without_direct() -> OpOptions {
    let mut opts = OpOptions::default();
    opts.policy.stages.retain(|s| *s != StageKind::Direct);
    opts
}

/// Whether `op`'s first attempt is a Direct stage that did not converge.
fn direct_failed(op: &OperatingPoint) -> bool {
    op.trace.attempts.first().is_some_and(|a| {
        a.stage == TraceStage::Dc(StageKind::Direct) && a.outcome != AttemptOutcome::Converged
    })
}

/// The largest node-voltage difference between two operating points of
/// one circuit.
fn max_node_gap(a: &OperatingPoint, b: &OperatingPoint) -> f64 {
    let nodes = a.layout.node_unknowns();
    a.solution[..nodes]
        .iter()
        .zip(&b.solution[..nodes])
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Checks the invariant on `c`: when the default ladder's Direct stage
/// fails, the default ladder converges exactly when the ladder without
/// Direct does, and to the same node voltages. Returns how the Direct
/// stage ended when it failed and both converged, `None` otherwise.
fn check(c: &Circuit) -> Result<Option<AttemptOutcome>, String> {
    let opts = OpOptions::default();
    let full = dc_operating_point(c, &opts);
    if full.as_ref().is_ok_and(|op| !direct_failed(op)) {
        return Ok(None);
    }
    match (full, dc_operating_point(c, &without_direct())) {
        (Ok(op), Ok(ladder)) => {
            let gap = max_node_gap(&op, &ladder);
            if gap > opts.v_tol {
                return Err(format!(
                    "node voltages differ by {gap:.3e} V\nwith Direct {}\nwithout {}",
                    op.trace.render(),
                    ladder.trace.render()
                ));
            }
            Ok(Some(op.trace.attempts[0].outcome))
        }
        (Err(_), Err(_)) => Ok(None),
        (Ok(op), Err(e)) => Err(format!(
            "only the default ladder converged: {e}\n{}",
            op.trace.render()
        )),
        (Err(e), Ok(ladder)) => Err(format!(
            "only the ladder without Direct converged: {e}\n{}",
            ladder.trace.render()
        )),
    }
}

/// [`random_mos`] with `push_ua` µA driven from ground into one of its
/// internal nodes: a few hundred µA put that node's solution past the
/// bound, so the Direct stage runs away and the ladder must solve it.
fn pushed_mos(seed: u64, n_mos: usize, push_ua: u64) -> Circuit {
    let mut c = random_mos(seed, n_mos);
    let name = ["n1", "n2", "n3"][(seed % 3) as usize];
    let node = c.find_node(name).unwrap();
    let push = Waveform::Dc(push_ua as f64 * 1e-6);
    c.add_isource("ipush", Circuit::gnd(), node, push);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(256))]

    #[test]
    fn a_failed_direct_stage_leaves_the_ladder_s_solution(
        seed in any::<u64>(),
        n_mos in 1usize..7,
        push_ua in 0u64..2000,
    ) {
        let c = pushed_mos(seed, n_mos, push_ua);
        if lint_clean(&c) {
            if let Err(why) = check(&c) {
                prop_assert!(false, "{why}\n{}", remix_circuit::to_spice(&c, "direct case"));
            }
        }
    }
}

#[test]
fn the_generator_yields_both_kinds_of_failed_direct_stage() {
    // The property above is vacuous unless drawn netlists reach the
    // ladder after a Direct stage that ran away, and after one that ran
    // out of iterations on the rails.
    let (mut ran_away, mut max_iterations) = (0, 0);
    for seed in 0..900u64 {
        let n_mos = 1 + (seed % 6) as usize;
        let push_ua = [0, 0, 1000][(seed / 6 % 3) as usize];
        let c = pushed_mos(seed, n_mos, push_ua);
        if !lint_clean(&c) {
            continue;
        }
        match check(&c).unwrap_or_else(|why| panic!("seed {seed}: {why}")) {
            Some(AttemptOutcome::RanAway { .. }) => ran_away += 1,
            Some(AttemptOutcome::MaxIterations) => max_iterations += 1,
            _ => {}
        }
    }
    assert!(
        ran_away >= 100 && max_iterations >= 3,
        "{ran_away} ran away, {max_iterations} ran out of iterations"
    );
}

#[test]
fn a_solution_past_the_bound_still_solves_through_the_ladder() {
    // 1 mA into 15 kΩ puts node `a` at 15 V, past the 12 V bound that the
    // 1.2 V supply beside it sets.
    let mut c = Circuit::new();
    let gnd = Circuit::gnd();
    let vdd = c.node("vdd");
    let a = c.node("a");
    c.add_vsource("vdd", vdd, gnd, Waveform::Dc(1.2));
    c.add_resistor("rload", vdd, gnd, 1e3);
    c.add_isource("iin", gnd, a, Waveform::Dc(1e-3));
    c.add_resistor("rbig", a, gnd, 15e3);
    let opts = OpOptions::default();
    let op = dc_operating_point(&c, &opts).unwrap();

    // Direct ran away after some 40 clamped 0.3 V moves, short of the 50
    // that reach 15 V; the gmin ladder then converged unbounded.
    let direct = &op.trace.attempts[0];
    assert_eq!(direct.stage, TraceStage::Dc(StageKind::Direct));
    assert_eq!(direct.outcome, AttemptOutcome::RanAway { volts: 12.0 });
    assert!(direct.iterations < 50, "{}", op.trace.render());
    let last = op.trace.attempts.last().unwrap();
    assert!(
        matches!(last.stage, TraceStage::Dc(StageKind::GminLadder { .. })),
        "{}",
        op.trace.render()
    );

    let ladder = dc_operating_point(&c, &without_direct()).unwrap();
    assert!(max_node_gap(&op, &ladder) <= opts.v_tol);
    let va = op.voltage(a);
    assert!((va - 15.0).abs() <= opts.v_tol, "v(a) = {va}");
    assert!((op.voltage(vdd) - 1.2).abs() <= opts.v_tol);
}

#[test]
fn a_circuit_without_a_voltage_source_is_not_bounded() {
    // The same 15 V node with no voltage source: Direct runs the 50
    // clamped moves to the solution, unbounded.
    let mut c = Circuit::new();
    let a = c.node("a");
    c.add_isource("iin", Circuit::gnd(), a, Waveform::Dc(1e-3));
    c.add_resistor("rbig", a, Circuit::gnd(), 15e3);
    let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
    assert_eq!(op.trace.attempts.len(), 1, "{}", op.trace.render());
    assert_eq!(op.trace.attempts[0].outcome, AttemptOutcome::Converged);
    assert!((op.voltage(a) - 15.0).abs() < 1e-9);
}

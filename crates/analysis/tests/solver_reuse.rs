//! Solver reuse is scoped to one analysis call.
//!
//! Every analysis keeps one stamp plan (CSR pattern and stamp slots) and
//! one sparse solver (pivot order, fill pattern) for the duration of a
//! call and drops both on return. A serial DC sweep is one call whose
//! points share one operating-point session; `tests/sweep_session.rs`
//! checks that each of its points still equals a standalone operating
//! point.
//! Nothing may carry over to the next call on the same thread: a result
//! must not depend on what the thread solved before, or serial and
//! parallel studies would stop agreeing bit for bit.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix_analysis::{ac_sweep, dc_operating_point, transient, OpOptions, TranOptions};
use remix_circuit::{Circuit, MosModel, Waveform};

/// Circuit A: a CMOS inverter driven by a pulse-like sine, a different
/// dimension and pattern from circuit B.
fn inverter() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
    c.add_vsource(
        "vin",
        inp,
        Circuit::gnd(),
        Waveform::Sin {
            offset: 0.6,
            amplitude: 0.6,
            freq: 1e9,
            phase: 0.0,
            delay: 0.0,
        },
    );
    c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
    c.add_mosfet(
        "mn",
        MosModel::nmos_65nm(),
        2e-6,
        65e-9,
        out,
        inp,
        Circuit::gnd(),
        Circuit::gnd(),
    );
    c.add_capacitor("cl", out, Circuit::gnd(), 20e-15);
    c
}

/// Circuit B: a common-source stage with a load capacitor and an
/// AC-capable gate source.
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

/// Every number circuit B's op, AC and transient analyses produce, as
/// bit patterns.
fn circuit_b_bits() -> Vec<u64> {
    let b = amp();
    let op = dc_operating_point(&b, &OpOptions::default()).unwrap();
    let mut bits: Vec<u64> = op.solution.iter().map(|v| v.to_bits()).collect();
    let ac = ac_sweep(&b, &op, &[1e6, 1e9, 5e9]).unwrap();
    for sol in &ac.solutions {
        bits.extend(sol.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
    }
    let tran = transient(&b, &TranOptions::new(2e-9, 1e-11)).unwrap();
    for sol in &tran.solutions {
        bits.extend(sol.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn results_do_not_depend_on_earlier_calls_on_the_thread() {
    let fresh = circuit_b_bits();

    let a = inverter();
    let op = dc_operating_point(&a, &OpOptions::default()).unwrap();
    assert!(op.solution.iter().all(|v| v.is_finite()));
    transient(&a, &TranOptions::new(2e-9, 1e-11)).unwrap();

    let after_a = circuit_b_bits();
    assert_eq!(fresh.len(), after_a.len());
    assert!(
        fresh == after_a,
        "circuit B's results changed after circuit A ran on the same thread"
    );
    // And B again after B: a second identical call is identical too.
    assert!(fresh == circuit_b_bits());
}

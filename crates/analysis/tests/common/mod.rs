//! Random lint-clean MOS netlists shared by the operating-point
//! property tests.

use remix_circuit::{Circuit, MosModel, Waveform};

/// SplitMix64: cheap, deterministic, well-mixed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random MOS netlist: a supply `vdd`, a resistor ladder from it to
/// ground through three internal nodes, the swept source `vin` tied into
/// the ladder through a resistor, and `n_mos` NMOS or PMOS devices (bulk
/// on the matching rail) between random nodes.
pub fn random_mos(seed: u64, n_mos: usize) -> Circuit {
    let mut state = seed;
    let mut next = move || splitmix(&mut state);
    let mut c = Circuit::new();
    let gnd = Circuit::gnd();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let internal = [c.node("n1"), c.node("n2"), c.node("n3")];
    let pool = [gnd, vdd, inp, internal[0], internal[1], internal[2]];
    let supply = 0.9 + 0.1 * (next() % 4) as f64;
    c.add_vsource("vdd", vdd, gnd, Waveform::Dc(supply));
    c.add_vsource("vin", inp, gnd, Waveform::Dc(0.0));
    let ladder = [vdd, internal[0], internal[1], internal[2], gnd];
    for (k, pair) in ladder.windows(2).enumerate() {
        let r = 1e3 * (1 + next() % 100) as f64;
        c.add_resistor(&format!("r{k}"), pair[0], pair[1], r);
    }
    let tap = internal[(next() % 3) as usize];
    c.add_resistor("rin", inp, tap, 1e3 * (1 + next() % 100) as f64);
    for i in 0..n_mos {
        let mut pick = || pool[(next() % pool.len() as u64) as usize];
        let (d, g, s) = (pick(), pick(), pick());
        let w = (1 + next() % 20) as f64 * 1e-6;
        if next() % 2 == 0 {
            c.add_mosfet(
                &format!("mn{i}"),
                MosModel::nmos_65nm(),
                w,
                65e-9,
                d,
                g,
                s,
                gnd,
            );
        } else {
            c.add_mosfet(
                &format!("mp{i}"),
                MosModel::pmos_65nm(),
                w,
                65e-9,
                d,
                g,
                s,
                vdd,
            );
        }
    }
    c
}

pub fn lint_clean(c: &Circuit) -> bool {
    remix_lint::lint(c, &remix_lint::LintConfig::default()).is_clean()
}

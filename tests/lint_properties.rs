//! Property tests tying the lint engine to the solver: the deny rules
//! exist to predict structural MNA singularity, so a randomly generated
//! netlist that lints clean must actually solve, and one the solver
//! rejects structurally should have been flagged.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
use proptest::prelude::*;
use remix::analysis::{dc_operating_point, AnalysisError, OpOptions};
use remix::circuit::{Circuit, MosModel, Waveform};
use remix::lint::{fix_circuit, lint, LintConfig, RuleId};

/// Deterministically builds a random R/C/V netlist from drawn integers.
/// Nodes are drawn from a small pool so sharing (and the occasional
/// pathological topology) is common.
fn random_rcv(seed: u64, n_elements: usize) -> Circuit {
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step: cheap, deterministic, well-mixed.
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
        match next() % 4 {
            0 => {
                c.add_vsource(&format!("v{i}"), a, b, Waveform::Dc(v / 1000.0));
            }
            1 => {
                c.add_capacitor(&format!("c{i}"), a, b, v * 1e-15);
            }
            _ => {
                c.add_resistor(&format!("r{i}"), a, b, v * 1e2);
            }
        }
    }
    c
}

/// Like [`random_rcv`], but with MOSFET and VCCS arms so the generator
/// exercises the structural-rank pass (control pins, gate/bulk columns)
/// rather than only the two-terminal heuristics.
fn random_mixed(seed: u64, n_elements: usize) -> Circuit {
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
        match next() % 6 {
            0 => {
                c.add_vsource(&format!("v{i}"), a, b, Waveform::Dc(v / 1000.0));
            }
            1 => {
                c.add_capacitor(&format!("c{i}"), a, b, v * 1e-15);
            }
            2 => {
                let cp = node_of(&mut c, next());
                let cn = node_of(&mut c, next());
                c.add_vccs(&format!("g{i}"), a, b, cp, cn, v * 1e-6);
            }
            3 => {
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The acceptance property: lint-clean ⇒ the DC operating point
    // exists (nonsingular MNA after the homotopy ladder).
    #[test]
    fn lint_clean_rcv_netlists_solve(seed in any::<u64>(), n in 3usize..12) {
        let c = random_rcv(seed, n);
        let report = lint(&c, &LintConfig::default());
        if report.is_clean() {
            let op = dc_operating_point(&c, &OpOptions::default());
            prop_assert!(
                op.is_ok(),
                "lint-clean netlist failed to solve: {:?}\n{}",
                op.err(),
                remix::circuit::to_spice(&c, "random rcv netlist")
            );
        }
    }

    // Sanity on the other side: the generator does exercise the deny
    // rules (otherwise the property above would be vacuous) — a tiny
    // hand-rolled broken netlist must never slip through clean.
    #[test]
    fn known_singular_shapes_are_flagged(r in 1.0f64..1e6) {
        // Cap-only node.
        let mut c = Circuit::new();
        let a = c.node("a");
        let mid = c.node("mid");
        c.add_vsource("v", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("rl", a, Circuit::gnd(), r);
        c.add_capacitor("c1", a, mid, 1e-12);
        c.add_capacitor("c2", mid, Circuit::gnd(), 1e-12);
        let report = lint(&c, &LintConfig::default());
        prop_assert!(!report.is_clean());
        prop_assert!(!report.by_rule(RuleId::CapOnlyNode).is_empty());

        // Ideal source loop.
        let mut c2 = Circuit::new();
        let b = c2.node("b");
        c2.add_vsource("v1", b, Circuit::gnd(), Waveform::Dc(1.0));
        c2.add_vsource("v2", b, Circuit::gnd(), Waveform::Dc(2.0));
        c2.add_resistor("rl", b, Circuit::gnd(), r);
        prop_assert!(!lint(&c2, &LintConfig::default()).is_clean());
    }

    // The tentpole property: with MOS and controlled sources in the mix,
    // a lint-clean netlist must never be *structurally* singular. Newton
    // may legitimately fail on a pathological random bias ladder — even
    // with a pivot underflow at some iterate (numerical singularity) —
    // but the structural diagnosis cross-referenced onto the error must
    // agree with the gate: if ERC012 names an empty-row/column defect
    // here, the rank pass missed it when the circuit was linted clean.
    #[test]
    fn lint_clean_mixed_netlists_are_never_structurally_singular(
        seed in any::<u64>(), n in 3usize..14
    ) {
        let c = random_mixed(seed, n);
        let report = lint(&c, &LintConfig::default());
        if report.is_clean() {
            if let Err(AnalysisError::Singular { diagnosis, trace, .. }) =
                dc_operating_point(&c, &OpOptions::default())
            {
                prop_assert!(
                    diagnosis.iter().all(|d| !d.contains("ERC012")),
                    "lint-clean netlist is structurally singular: {diagnosis:?}\n{}",
                    remix::circuit::to_spice(&c, "random mixed netlist")
                );
                // The failure must still be explained: a typed trace
                // records what the ladder tried.
                prop_assert!(!trace.is_empty());
            }
        }
    }

    // `--fix` convergence: the fix engine terminates in bounded rounds on
    // arbitrary generated netlists, and every deny it leaves behind is
    // genuinely unfixable (carries no machine-applicable fix).
    #[test]
    fn fix_engine_converges_and_leaves_only_unfixable_denies(
        seed in any::<u64>(), n in 3usize..14
    ) {
        let mut c = random_mixed(seed, n);
        let outcome = fix_circuit(&mut c, &LintConfig::default());
        prop_assert!(outcome.rounds <= 8, "fix loop ran away: {} rounds", outcome.rounds);
        for d in &outcome.report.diagnostics {
            if d.severity == remix::lint::Severity::Deny {
                prop_assert!(
                    d.fix.is_none(),
                    "fixable deny survived the fixpoint: [{}] {}",
                    d.rule.code(),
                    d.message
                );
            }
        }
    }

    // Structural-rank integration pin: a node touched only by
    // controlled-source *control* pins defeats every per-element
    // heuristic but must still be caught — and the emitted gmin-shunt
    // fix must actually restore solvability.
    #[test]
    fn control_only_nodes_are_caught_and_fixed(gm in 1e-6f64..1e-2) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        let out2 = c.node("out2");
        let ctrl = c.node("ctrl");
        c.add_vcvs("e1", out2, Circuit::gnd(), ctrl, Circuit::gnd(), 2.0);
        c.add_resistor("r_load", out2, Circuit::gnd(), 1e3);
        c.add_vccs("g1", out, Circuit::gnd(), ctrl, Circuit::gnd(), gm);

        let report = lint(&c, &LintConfig::default());
        prop_assert!(!report.by_rule(RuleId::StructuralSingular).is_empty(), "{report}");

        let outcome = fix_circuit(&mut c, &LintConfig::default());
        prop_assert!(outcome.is_clean(), "{}", outcome.report);
        prop_assert!(dc_operating_point(&c, &OpOptions::default()).is_ok());
    }
}

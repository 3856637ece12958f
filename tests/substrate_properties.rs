//! Property-based tests over the simulation substrate, spanning crates.
//!
//! These attack the invariants the reproduction leans on hardest: the
//! sparse solver agreeing with the dense one on random MNA-shaped
//! systems, FFT/Goertzel consistency, Parseval, linearity-metric algebra,
//! and the MOSFET model's gradient/physics invariants under random bias.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
use proptest::prelude::*;
use remix::circuit::{Circuit, Element, MnaLayout, MosCaps, MosEval, MosModel, Node, Waveform};
use remix::dsp::{amplitude_spectrum, goertzel_amplitude};
use remix::numerics::{
    solve_dense, vecops, Complex, CsrMatrix, DenseMatrix, IntegrationMethod, Scalar, SparseLu,
    SparseSolver, TripletMatrix,
};
use remix::rfkit::Poly3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse LU must agree with dense LU on random diagonally dominant
    /// systems (the shape every stamped MNA matrix has after gmin).
    #[test]
    fn sparse_matches_dense(
        n in 2usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            t.push(r, r, 4.0 + next().abs());
            for _ in 0..2 {
                let c = ((next().abs() * n as f64) as usize).min(n - 1);
                t.push(r, c, next());
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let xs = SparseLu::factor(&t.to_csr()).unwrap().solve(&b).unwrap();
        let xd = solve_dense(&t.to_dense(), &b).unwrap();
        for (a, d) in xs.iter().zip(xd.iter()) {
            prop_assert!((a - d).abs() < 1e-8, "sparse {a} vs dense {d}");
        }
    }

    /// Refactoring in a stored pattern must solve like a fresh
    /// factorization: a sequence of same-pattern random systems (real
    /// and complex) through one solver agrees with factoring each from
    /// scratch to 1e-12 relative.
    #[test]
    fn refactor_matches_fresh_factor(
        n in 2usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut coords = Vec::new();
        for r in 0..n {
            coords.push((r, r));
            for _ in 0..2 {
                coords.push((r, ((next().abs() * n as f64) as usize).min(n - 1)));
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 1.0 - v)).collect();
        let mut real = SparseSolver::new();
        let mut complex = SparseSolver::new();
        for _ in 0..4 {
            let mut t = TripletMatrix::new(n, n);
            let mut tc = TripletMatrix::new(n, n);
            for &(r, c) in &coords {
                let (v, w) = (next(), next());
                let bias = if r == c { 4.0 } else { 0.0 };
                t.push(r, c, v + bias);
                tc.push(r, c, Complex::new(v + bias, w));
            }
            let x = real.factor(&t.to_csr()).unwrap().solve(&b).unwrap();
            let y = SparseLu::factor(&t.to_csr()).unwrap().solve(&b).unwrap();
            prop_assert!(rel_diff(&x, &y) < 1e-12, "real: {x:?} vs {y:?}");
            let x = complex.factor(&tc.to_csr()).unwrap().solve(&bc).unwrap();
            let y = SparseLu::factor(&tc.to_csr()).unwrap().solve(&bc).unwrap();
            prop_assert!(rel_diff(&x, &y) < 1e-12, "complex: {x:?} vs {y:?}");
        }
    }

    /// LU solutions must actually satisfy A·x = b.
    #[test]
    fn lu_residual_small(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DenseMatrix::<f64>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += 3.0 * n as f64;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve_dense(&a, &b).unwrap();
        let r = vecops::sub(&a.mat_vec(&x), &b);
        prop_assert!(vecops::norm_inf(&r) < 1e-9);
    }

    /// Goertzel and the FFT must agree on every bin of random signals.
    #[test]
    fn goertzel_matches_fft(
        seed in any::<u64>(),
        k in 0usize..32,
    ) {
        let n = 64usize;
        let mut state = seed | 1;
        let x: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let spec = amplitude_spectrum(&x);
        let g = goertzel_amplitude(&x, k, n);
        prop_assert!((g - spec[k]).abs() < 1e-9, "bin {k}: {g} vs {}", spec[k]);
    }

    /// Parseval: time-domain energy equals spectral energy.
    #[test]
    fn parseval(seed in any::<u64>()) {
        let n = 128usize;
        let mut state = seed | 1;
        let x: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let e_time: f64 = x.iter().map(|v| v * v).sum();
        let spec = remix::dsp::fft_real(&x);
        let e_freq: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-8 * e_time.max(1.0));
    }

    /// IIP3 round-trip: building a polynomial from a target intercept and
    /// reading the intercept back must be exact.
    #[test]
    fn iip3_roundtrip(gain in 0.5f64..100.0, iip3_dbm in -40.0f64..20.0) {
        let p = Poly3::from_gain_and_iip3_dbm(gain, iip3_dbm);
        let back = p.iip3_dbm().unwrap();
        prop_assert!((back - iip3_dbm).abs() < 1e-9);
    }

    /// MOSFET gradient invariants under random bias:
    /// * shift invariance: Σ ∂id/∂v = 0 (KVL consistency);
    /// * passivity-ish: canonical gm, gds, gmbs never negative.
    #[test]
    fn mos_gradient_invariants(
        vd in -1.3f64..1.3,
        vg in -1.3f64..1.3,
        vs in -1.3f64..1.3,
        vb in -1.3f64..0.1,
        nmos in any::<bool>(),
    ) {
        let m = if nmos { MosModel::nmos_65nm() } else { MosModel::pmos_65nm() };
        let e = m.evaluate(vd, vg, vs, vb);
        let sum = e.d_vd + e.d_vg + e.d_vs + e.d_vb;
        let scale = e.d_vd.abs() + e.d_vg.abs() + e.d_vs.abs() + e.d_vb.abs();
        prop_assert!(sum.abs() <= 1e-9 * scale.max(1e-12), "Σgrad = {sum:.3e}");
        prop_assert!(e.gm >= 0.0 && e.gds >= 0.0 && e.gmbs >= 0.0);
        prop_assert!(e.id.is_finite());
    }

    /// MOSFET drain current is monotone in gate drive (fixed vds) — the
    /// property the bias solvers rely on.
    #[test]
    fn mos_monotone_in_vgs(
        vds in 0.05f64..1.2,
        v1 in 0.0f64..1.1,
        dv in 0.01f64..0.1,
    ) {
        let m = MosModel::nmos_65nm();
        let i1 = m.evaluate(vds, v1, 0.0, 0.0).id;
        let i2 = m.evaluate(vds, v1 + dv, 0.0, 0.0).id;
        prop_assert!(i2 >= i1, "id({}) = {i2:.3e} < id({v1}) = {i1:.3e}", v1 + dv);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Waveforms stay inside their defining bounds at all times.
    #[test]
    fn pulse_waveform_bounded(
        v1 in -2.0f64..2.0,
        v2 in -2.0f64..2.0,
        t in 0.0f64..5.0,
    ) {
        use remix::circuit::Waveform;
        let w = Waveform::Pulse {
            v1,
            v2,
            delay: 0.3,
            rise: 0.1,
            fall: 0.2,
            width: 0.8,
            period: 2.0,
        };
        let v = w.eval(t);
        let (lo, hi) = (v1.min(v2), v1.max(v2));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "v = {v} outside [{lo}, {hi}]");
    }

    /// PWL evaluation interpolates within the hull of its points.
    #[test]
    fn pwl_waveform_bounded(
        vals in proptest::collection::vec(-3.0f64..3.0, 2..8),
        t in -1.0f64..10.0,
    ) {
        use remix::circuit::Waveform;
        let pts: Vec<(f64, f64)> = vals.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
        let w = Waveform::Pwl(pts);
        let v = w.eval(t);
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// SPICE round trip preserves random RC ladders exactly enough that
    /// the re-imported circuit solves to the same node voltages.
    #[test]
    fn spice_roundtrip_random_ladder(
        seed in any::<u64>(),
        k in 1usize..6,
    ) {
        use remix::analysis::{dc_operating_point, OpOptions};
        use remix::circuit::{from_spice, to_spice, Circuit, Waveform};
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Circuit::new();
        let top = c.node("top");
        c.add_vsource("v", top, Circuit::gnd(), Waveform::Dc(1.0 + next()));
        let mut prev = top;
        for i in 0..k {
            let n = c.node(&format!("n{i}"));
            c.add_resistor(&format!("ra{i}"), prev, n, 100.0 + 1e4 * next());
            c.add_resistor(&format!("rb{i}"), n, Circuit::gnd(), 100.0 + 1e4 * next());
            if next() > 0.5 {
                c.add_capacitor(&format!("c{i}"), n, Circuit::gnd(), 1e-12 * (1.0 + next()));
            }
            prev = n;
        }
        let deck = to_spice(&c, "fuzz");
        let back = from_spice(&deck).unwrap();
        let op_a = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let op_b = dc_operating_point(&back, &OpOptions::default()).unwrap();
        for i in 0..k {
            let name = format!("n{i}");
            let va = op_a.voltage(c.find_node(&name).unwrap());
            let vb = op_b.voltage(back.find_node(&name).unwrap());
            prop_assert!((va - vb).abs() < 1e-9, "{name}: {va} vs {vb}");
        }
    }

    /// The signed describing-function tone gain of a compressive Poly3
    /// is monotone non-increasing in drive (the magnitude can rebound
    /// past the gain null, but the signed value never increases).
    #[test]
    fn poly3_tone_gain_monotone(
        gain in 1.0f64..50.0,
        iip3_dbm in -30.0f64..10.0,
        a in 1e-6f64..0.3,
    ) {
        let p = Poly3::from_gain_and_iip3_dbm(gain, iip3_dbm);
        let g1 = p.tone_gain(a);
        let g2 = p.tone_gain(a * 1.1);
        prop_assert!(g2 <= g1 + 1e-12, "g({a}) = {g1}, g({}) = {g2}", a * 1.1);
    }
}

/// The operating-point engine on randomized resistive ladders must match
/// the analytic solution (non-proptest: structured sweep).
#[test]
fn op_matches_analytic_ladders() {
    use remix::analysis::{dc_operating_point, OpOptions};
    use remix::circuit::{Circuit, Waveform};
    for k in 1..12usize {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.add_vsource("v", top, Circuit::gnd(), Waveform::Dc(1.0));
        let mut prev = top;
        for i in 0..k {
            let n = c.node(&format!("n{i}"));
            c.add_resistor(&format!("ra{i}"), prev, n, 1e3);
            c.add_resistor(&format!("rb{i}"), n, Circuit::gnd(), 1e3);
            prev = n;
        }
        let op = dc_operating_point(&c, &OpOptions::default()).unwrap();
        // Each stage of the ladder divides by the same factor; check
        // node 0 against the two-resistor Thevenin chain analytically
        // computed by folding from the far end.
        let mut r_eq = 1e3; // last shunt
        for _ in 0..k - 1 {
            r_eq = 1.0 / (1.0 / 1e3 + 1.0 / (1e3 + r_eq));
        }
        let v0_expected = r_eq / (1e3 + r_eq);
        let v0 = op.voltage(c.find_node("n0").unwrap());
        assert!(
            (v0 - v0_expected).abs() < 1e-9,
            "k = {k}: {v0} vs {v0_expected}"
        );
    }
}

/// Largest entry-wise difference of two solutions, relative to the
/// largest entry of the second.
fn rel_diff<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    let scale = y.iter().map(|v| v.magnitude()).fold(0.0, f64::max);
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b).magnitude())
        .fold(0.0, f64::max)
        / scale.max(f64::MIN_POSITIVE)
}

/// A random lint-clean netlist: a resistor ladder over `n` nodes keeps a
/// DC path everywhere, with a voltage and a current source, shunt and
/// bridging capacitors, an inductor, a VCCS and one to three MOSFETs.
fn random_netlist(next: &mut impl FnMut() -> f64) -> Circuit {
    let mut c = Circuit::new();
    let n = 3 + (next().abs() * 4.0) as usize;
    let nodes: Vec<Node> = (0..n).map(|i| c.node(&format!("n{i}"))).collect();
    let pick =
        |next: &mut dyn FnMut() -> f64| nodes[((next().abs() * n as f64) as usize).min(n - 1)];
    c.add_vsource(
        "vs",
        nodes[0],
        Circuit::gnd(),
        Waveform::sine(0.6, 1e9 * (1.0 + next().abs())),
    );
    for i in 1..n {
        c.add_resistor(
            &format!("rl{i}"),
            nodes[i - 1],
            nodes[i],
            1e3 * (1.0 + next().abs()),
        );
        c.add_resistor(
            &format!("rg{i}"),
            nodes[i],
            Circuit::gnd(),
            5e3 * (1.0 + next().abs()),
        );
        if next() > 0.0 {
            c.add_capacitor(
                &format!("cg{i}"),
                nodes[i],
                Circuit::gnd(),
                1e-13 * (1.0 + next().abs()),
            );
        }
    }
    c.add_isource(
        "is",
        Circuit::gnd(),
        nodes[n - 1],
        Waveform::Dc(1e-5 * next()),
    );
    c.add_capacitor("cb", nodes[1], nodes[n - 1], 5e-14);
    c.add_inductor("lb", nodes[n - 1], nodes[n - 2], 1e-9);
    c.add_vccs(
        "gm",
        nodes[1],
        Circuit::gnd(),
        nodes[0],
        Circuit::gnd(),
        1e-4,
    );
    let n_mos = 1 + (next().abs() * 3.0) as usize;
    for k in 0..n_mos {
        let (d, g) = (pick(&mut *next), pick(&mut *next));
        let s = if next() > 0.0 {
            Circuit::gnd()
        } else {
            pick(&mut *next)
        };
        let model = if next() > 0.0 {
            MosModel::nmos_65nm()
        } else {
            MosModel::pmos_65nm()
        };
        c.add_mosfet(
            &format!("m{k}"),
            model,
            2e-6,
            65e-9,
            d,
            g,
            s,
            Circuit::gnd(),
        );
    }
    c
}

/// Asserts `a` has `t`'s CSR pattern and values within 1e-14 relative.
fn assert_plan_matches<T: Scalar>(a: &CsrMatrix<T>, t: &TripletMatrix<T>, what: &str) {
    let r = t.to_csr();
    assert_eq!((a.rows(), a.nnz()), (r.rows(), r.nnz()), "{what}: shape");
    for row in 0..r.rows() {
        for ((ca, va), (cr, vr)) in a.row(row).zip(r.row(row)) {
            assert_eq!(ca, cr, "{what}: pattern of row {row}");
            let tol = 1e-14 * vr.magnitude().max(f64::MIN_POSITIVE);
            assert!(
                (va - vr).magnitude() <= tol,
                "{what}: ({row}, {ca}) {va:?} vs {vr:?}"
            );
        }
    }
}

fn assert_rhs_matches<T: Scalar>(a: &[T], r: &[T], what: &str) {
    for (i, (&x, &y)) in a.iter().zip(r).enumerate() {
        let tol = 1e-14 * y.magnitude().max(f64::MIN_POSITIVE);
        assert!(
            (x - y).magnitude() <= tol,
            "{what}: rhs[{i}] {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan assembly must equal the triplet reference, matrix and rhs, on
    /// every path through it: DC with gmin on at two source scales, a
    /// gmin change and a pseudo-transient diagonal load; transient with
    /// backward Euler then trapezoidal at one step size and trapezoidal
    /// at a second (the matrix base re-stamped on each change, never
    /// recompiled); AC at two frequencies. Only the sequence changes
    /// (diagonal load on, then the transient's MOS capacitors) compile a
    /// new plan.
    #[test]
    fn plan_assembly_matches_triplet_reference(seed in any::<u64>()) {
        use remix::analysis::stamp::{
            assemble_ac, assemble_real, stamp_diag_load, AcAssembler, CapState, ElementState,
            IndState, RealAssembler, RealMode,
        };
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let c = random_netlist(&mut next);
        prop_assert!(remix::lint::lint(&c, &remix::lint::LintConfig::default()).is_clean());
        let layout = MnaLayout::new(&c);
        let (dim, nodes) = (layout.dim(), layout.node_unknowns());
        let guess = |next: &mut dyn FnMut() -> f64| -> Vec<f64> {
            (0..dim).map(|i| if i < nodes { 0.6 + 0.6 * next() } else { 1e-3 * next() }).collect()
        };
        let mut asm = RealAssembler::new(&layout);
        let mut t = TripletMatrix::new(dim, dim);
        let (mut rhs, mut rhs_ref) = (vec![0.0; dim], vec![0.0; dim]);
        let mut evals: Vec<Option<MosEval>> = vec![None; c.element_count()];
        let tel = remix::telemetry::Telemetry::new();
        let guard = tel.arm();

        for (gmin, source_scale, load) in [(1e-12, 1.0, 0.0), (1e-12, 0.5, 0.0), (1e-6, 0.5, 0.0), (1e-12, 1.0, 1e-2)] {
            let mode = RealMode::Dc { gmin, source_scale };
            asm.begin(&c, &layout, &mode, load);
            for it in 0..2 {
                let x = guess(&mut next);
                let a = asm.assemble(&c, &layout, &x, &mut rhs, Some(&mut evals));
                assemble_real(&c, &layout, &x, &mode, &mut t, &mut rhs_ref, None);
                stamp_diag_load(&mut t, &mut rhs_ref, &x, nodes, load);
                let what = format!("dc gmin {gmin} scale {source_scale} load {load} iter {it}");
                assert_plan_matches(a, &t, &what);
                assert_rhs_matches(&rhs, &rhs_ref, &what);
            }
        }

        // Transient: per-element state as the integrator keeps it, MOS
        // capacitances frozen at the last DC guess.
        let mut mos_caps: Vec<Option<MosCaps>> = vec![None; c.element_count()];
        let mut states = Vec::new();
        for (idx, e) in c.elements().iter().enumerate() {
            states.push(match e {
                Element::Capacitor { .. } => ElementState::Cap(CapState { v: next(), i: 1e-6 * next() }),
                Element::Inductor { .. } => ElementState::Ind(IndState { i: 1e-3 * next(), v: next() }),
                Element::Mos { dev, .. } => {
                    mos_caps[idx] = evals[idx].as_ref().map(|ev| dev.capacitances(ev));
                    ElementState::MosCaps([CapState { v: next(), i: 1e-6 * next() }; 5])
                }
                _ => ElementState::None,
            });
        }
        for (k, (method, h)) in [
            (IntegrationMethod::BackwardEuler, 1e-11),
            (IntegrationMethod::Trapezoidal, 1e-11),
            (IntegrationMethod::Trapezoidal, 5e-12),
        ]
        .into_iter()
        .enumerate()
        {
            let mode = RealMode::Tran {
                t: (k + 1) as f64 * 1e-11,
                gmin: 1e-12,
                coeffs: method.coeffs(h),
                states: &states,
                mos_caps: &mos_caps,
            };
            asm.begin(&c, &layout, &mode, 0.0);
            for it in 0..2 {
                let x = guess(&mut next);
                let a = asm.assemble(&c, &layout, &x, &mut rhs, None);
                assemble_real(&c, &layout, &x, &mode, &mut t, &mut rhs_ref, None);
                let what = format!("tran {method:?} h {h} iter {it}");
                assert_plan_matches(a, &t, &what);
                assert_rhs_matches(&rhs, &rhs_ref, &what);
            }
            for st in &mut states {
                if let ElementState::Cap(s) = st {
                    s.v += 0.01;
                }
            }
        }

        let mut ac = AcAssembler::new(&layout);
        let mut tc = TripletMatrix::new(dim, dim);
        let (mut crhs, mut crhs_ref) = (vec![Complex::ZERO; dim], vec![Complex::ZERO; dim]);
        for f in [1e6, 2.4e9] {
            let omega = 2.0 * std::f64::consts::PI * f;
            let a = ac.assemble(&c, &layout, omega, &evals, &mos_caps, &mut crhs);
            assemble_ac(&c, &layout, omega, &evals, &mos_caps, &mut tc, &mut crhs_ref);
            let what = format!("ac {f} Hz");
            assert_plan_matches(a, &tc, &what);
            assert_rhs_matches(&crhs, &crhs_ref, &what);
        }
        drop(guard);
        // Plain DC, the loaded DC, the transient's capacitors, and AC.
        let plans = tel.snapshot().counter(remix::telemetry::names::STAMP_PLANS);
        prop_assert_eq!(plans, Some(4));
    }
}

//! MNA stamping for all analyses.
//!
//! The element types live in `remix-circuit`; this module knows how to
//! linearize and stamp them for:
//!
//! * the **real** system solved by DC and transient (nonlinear elements
//!   contribute their iterated-companion linearization at the current
//!   guess `x`);
//! * the **complex** system solved by AC and noise (linearized at a DC
//!   operating point, reactances as `jωC` / `jωL`).
//!
//! Stamping is written once, generic over a [`StampSink`]. The triplet
//! functions [`assemble_real`] and [`assemble_ac`] are the reference;
//! the analyses assemble through [`RealAssembler`] and [`AcAssembler`],
//! which compile the same stamp sequence into a [`StampPlan`] and then
//! scatter straight into its CSR slots.

use remix_circuit::{
    stamp_conductance, stamp_current, stamp_transconductance, Circuit, Element, MnaLayout, MosCaps,
    MosEval, Node,
};
use remix_numerics::{CompanionCoeffs, Complex, CsrMatrix, StampPlan, StampSink, TripletMatrix};

/// Dynamic state of a capacitor-like branch between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapState {
    /// Branch voltage at the previous accepted time point.
    pub v: f64,
    /// Branch current at the previous accepted time point.
    pub i: f64,
}

/// Dynamic state of an inductor branch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IndState {
    /// Branch current at the previous accepted time point.
    pub i: f64,
    /// Branch voltage at the previous accepted time point.
    pub v: f64,
}

/// Per-element dynamic state for transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementState {
    /// No dynamic state.
    None,
    /// Linear capacitor.
    Cap(CapState),
    /// Inductor.
    Ind(IndState),
    /// MOSFET intrinsic capacitances, ordered
    /// `[cgs, cgd, cgb, cdb, csb]`.
    MosCaps([CapState; 5]),
}

/// The five MOS capacitor branches as `(node_a, node_b, value)` for a
/// device with the given caps (already in the real frame).
pub fn mos_cap_branches(
    d: Node,
    g: Node,
    s: Node,
    b: Node,
    caps: &MosCaps,
) -> [(Node, Node, f64); 5] {
    [
        (g, s, caps.cgs),
        (g, d, caps.cgd),
        (g, b, caps.cgb),
        (d, b, caps.cdb),
        (s, b, caps.csb),
    ]
}

/// Stamping mode for the real (DC / transient) system.
#[derive(Debug, Clone, Copy)]
pub enum RealMode<'a> {
    /// DC operating point: capacitors open, inductors short, sources at
    /// their DC value scaled by `source_scale` (for source stepping).
    Dc {
        /// Minimum conductance added across every MOS channel.
        gmin: f64,
        /// Homotopy scale applied to independent sources (0..=1).
        source_scale: f64,
    },
    /// Transient step ending at time `t` with companion coefficients
    /// `coeffs` (already specialized for the step size).
    Tran {
        /// Time at the *end* of the step being solved.
        t: f64,
        /// gmin across MOS channels.
        gmin: f64,
        /// Integration companion coefficients for this step.
        coeffs: CompanionCoeffs,
        /// Per-element dynamic state at the previous accepted point.
        states: &'a [ElementState],
        /// Frozen MOS capacitances (from the initial operating point).
        mos_caps: &'a [Option<MosCaps>],
    },
}

/// Stamps one linear-capacitor companion model.
fn stamp_cap_companion(
    m: &mut impl StampSink<f64>,
    rhs: &mut [f64],
    a: Node,
    b: Node,
    c: f64,
    state: &CapState,
    coeffs: &CompanionCoeffs,
) {
    let geq = c * coeffs.geq_per_unit;
    // i(v) = geq·v + ieq with ieq collecting history.
    let ieq = -c * coeffs.hist_v * state.v - coeffs.hist_i * state.i;
    stamp_conductance(m, a, b, geq);
    stamp_current(rhs, a, b, ieq);
}

/// Computes the branch current of a capacitor companion after a solve.
pub fn cap_companion_current(
    c: f64,
    coeffs: &CompanionCoeffs,
    v_new: f64,
    state: &CapState,
) -> f64 {
    c * coeffs.geq_per_unit * v_new - c * coeffs.hist_v * state.v - coeffs.hist_i * state.i
}

/// The MOS channel gmin of a real stamping mode.
fn mode_gmin(mode: &RealMode<'_>) -> f64 {
    match mode {
        RealMode::Dc { gmin, .. } | RealMode::Tran { gmin, .. } => *gmin,
    }
}

/// Stamps the part of the real system that does not depend on the
/// guess: into `m` the resistors, source and inductor incidence, the MOS
/// channel gmin and every companion conductance (linear capacitors,
/// inductors, frozen MOS capacitances); into `rhs` the source values and
/// the companion history terms.
fn stamp_linear(
    circuit: &Circuit,
    layout: &MnaLayout,
    mode: &RealMode<'_>,
    m: &mut impl StampSink<f64>,
    rhs: &mut [f64],
) {
    for (idx, e) in circuit.elements().iter().enumerate() {
        let eid = remix_circuit::ElementId::from_index(idx);
        match e {
            Element::Resistor { a, b, r, .. } => {
                stamp_conductance(m, *a, *b, 1.0 / r);
            }
            Element::Capacitor { a, b, c, .. } => match mode {
                RealMode::Dc { .. } => {
                    // Open at DC; tiny conductance keeps truly isolated
                    // internal nodes from going singular.
                    stamp_conductance(m, *a, *b, 1e-12);
                }
                RealMode::Tran { coeffs, states, .. } => {
                    let ElementState::Cap(st) = &states[idx] else {
                        panic!("state mismatch for capacitor"); // audit: allow(AUD002): state vector is built in lockstep with the element list; a mismatch is a solver bug, not bad input
                    };
                    stamp_cap_companion(m, rhs, *a, *b, *c, st, coeffs);
                }
            },
            Element::Inductor { a, b, l, .. } => {
                let br = layout.branch_index(eid).expect("inductor branch"); // audit: allow(AUD001): the layout allocates a branch for every inductor
                                                                             // KCL rows: branch current leaves a, enters b.
                if let Some(ia) = layout.node_index(*a) {
                    m.add(ia, br, 1.0);
                }
                if let Some(ib) = layout.node_index(*b) {
                    m.add(ib, br, -1.0);
                }
                // Branch equation.
                if let Some(ia) = layout.node_index(*a) {
                    m.add(br, ia, 1.0);
                }
                if let Some(ib) = layout.node_index(*b) {
                    m.add(br, ib, -1.0);
                }
                match mode {
                    RealMode::Dc { .. } => {
                        // Short at DC: v(a) − v(b) = 0 (tiny series R for
                        // conditioning).
                        m.add(br, br, -1e-9);
                    }
                    RealMode::Tran { coeffs, states, .. } => {
                        let ElementState::Ind(st) = &states[idx] else {
                            panic!("state mismatch for inductor"); // audit: allow(AUD002): state vector is built in lockstep with the element list; a mismatch is a solver bug, not bad input
                        };
                        // v − L·di/dt = 0 discretized:
                        //   v_{n+1} − (L·geq)·i_{n+1} = −L·hist_v·i_n − hist_i·v_n
                        let lgeq = l * coeffs.geq_per_unit;
                        m.add(br, br, -lgeq);
                        rhs[br] = -l * coeffs.hist_v * st.i - coeffs.hist_i * st.v;
                    }
                }
            }
            Element::VoltageSource { p, n, wave, .. } => {
                let br = layout.branch_index(eid).expect("vsource branch"); // audit: allow(AUD001): the layout allocates a branch for every voltage source
                if let Some(ip) = layout.node_index(*p) {
                    m.add(ip, br, 1.0);
                    m.add(br, ip, 1.0);
                }
                if let Some(inn) = layout.node_index(*n) {
                    m.add(inn, br, -1.0);
                    m.add(br, inn, -1.0);
                }
                let v = match mode {
                    RealMode::Dc { source_scale, .. } => wave.eval(0.0) * source_scale,
                    RealMode::Tran { t, .. } => wave.eval(*t),
                };
                rhs[br] += v;
            }
            Element::CurrentSource { p, n, wave, .. } => {
                let i = match mode {
                    RealMode::Dc { source_scale, .. } => wave.eval(0.0) * source_scale,
                    RealMode::Tran { t, .. } => wave.eval(*t),
                };
                stamp_current(rhs, *p, *n, i);
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                stamp_transconductance(m, *p, *n, *cp, *cn, *gm);
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let br = layout.branch_index(eid).expect("vcvs branch"); // audit: allow(AUD001): the layout allocates a branch for every VCVS
                if let Some(ip) = layout.node_index(*p) {
                    m.add(ip, br, 1.0);
                    m.add(br, ip, 1.0);
                }
                if let Some(inn) = layout.node_index(*n) {
                    m.add(inn, br, -1.0);
                    m.add(br, inn, -1.0);
                }
                if let Some(icp) = layout.node_index(*cp) {
                    m.add(br, icp, -*gain);
                }
                if let Some(icn) = layout.node_index(*cn) {
                    m.add(br, icn, *gain);
                }
            }
            Element::Mos { dev, .. } => {
                let gmin = mode_gmin(mode);
                if gmin > 0.0 {
                    stamp_conductance(m, dev.d, dev.s, gmin);
                }
                // Transient: intrinsic capacitances (frozen values).
                if let RealMode::Tran {
                    coeffs,
                    states,
                    mos_caps,
                    ..
                } = mode
                {
                    if let (ElementState::MosCaps(sts), Some(caps)) = (&states[idx], &mos_caps[idx])
                    {
                        let branches = mos_cap_branches(dev.d, dev.g, dev.s, dev.b, caps);
                        for (k, (a, b, c)) in branches.iter().enumerate() {
                            if *c > 0.0 {
                                stamp_cap_companion(m, rhs, *a, *b, *c, &sts[k], coeffs);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Stamps every MOS channel's iterated-companion linearization at guess
/// `x`: the drain-current gradient on the drain (+) and source (−) rows,
/// and the matching equivalent current on the rhs. When `mos_evals` is
/// provided it receives each device's [`MosEval`].
fn stamp_mos(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    m: &mut impl StampSink<f64>,
    rhs: &mut [f64],
    mut mos_evals: Option<&mut Vec<Option<MosEval>>>,
) {
    let vof = |n: Node| layout.voltage(x, n);
    for (idx, e) in circuit.elements().iter().enumerate() {
        let Element::Mos { dev, .. } = e else {
            continue;
        };
        let (vd, vg, vs, vb) = (vof(dev.d), vof(dev.g), vof(dev.s), vof(dev.b));
        let mut ev = dev.evaluate(vd, vg, vs, vb);
        if crate::fault::poison_eval() {
            ev.id = f64::NAN;
        }
        let grad = [
            (dev.d, ev.d_vd),
            (dev.g, ev.d_vg),
            (dev.s, ev.d_vs),
            (dev.b, ev.d_vb),
        ];
        let ieq = ev.id - (ev.d_vd * vd + ev.d_vg * vg + ev.d_vs * vs + ev.d_vb * vb);
        for (row, sign) in [(dev.d, 1.0), (dev.s, -1.0)] {
            let Some(r) = layout.node_index(row) else {
                continue;
            };
            for (col, g) in grad {
                if let Some(cidx) = layout.node_index(col) {
                    m.add(r, cidx, sign * g);
                }
            }
            rhs[r] -= sign * ieq;
        }
        if let Some(out) = mos_evals.as_deref_mut() {
            out[idx] = Some(ev);
        }
    }
}

/// Stamps a pseudo-transient diagonal load λ on the first `nodes`
/// unknowns, with the matching λ·x on the rhs: one implicit-Euler step of
/// C dv/dt = −f(v) through artificial time (C/h = λ). No-op for λ = 0.
pub fn stamp_diag_load(
    m: &mut impl StampSink<f64>,
    rhs: &mut [f64],
    x: &[f64],
    nodes: usize,
    lambda: f64,
) {
    if lambda > 0.0 {
        for i in 0..nodes {
            m.add(i, i, lambda);
            rhs[i] += lambda * x[i];
        }
    }
}

/// Assembles the real MNA system at guess `x`.
///
/// For nonlinear elements the result is the iterated-companion
/// linearization: solving the assembled system yields the *next* Newton
/// iterate directly. When `mos_evals` is provided it receives the
/// per-element [`MosEval`] used (for operating-point capture).
///
/// The stamps go in two runs: first every guess-independent stamp, then
/// the MOS channel linearizations. [`RealAssembler`] compiles exactly
/// this sequence, so the two produce the same matrix bit for bit; this
/// triplet path is the reference the dense solver path and the tests
/// assemble through.
pub fn assemble_real(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    mode: &RealMode<'_>,
    m: &mut TripletMatrix<f64>,
    rhs: &mut [f64],
    mos_evals: Option<&mut Vec<Option<MosEval>>>,
) {
    m.clear();
    rhs.fill(0.0);
    stamp_linear(circuit, layout, mode, m, rhs);
    stamp_mos(circuit, layout, x, m, rhs, mos_evals);
}

/// A matrix sink that drops every stamp (for rhs-only passes).
struct NoMatrix;

impl StampSink<f64> for NoMatrix {
    #[inline]
    fn add(&mut self, _: usize, _: usize, _: f64) {}
}

/// Compiles a stamp plan from a first assembly, counting it in the armed
/// telemetry.
fn compile<T: remix_numerics::Scalar>(t: &TripletMatrix<T>, base_len: usize) -> StampPlan<T> {
    if remix_telemetry::is_armed() {
        remix_telemetry::counter_add(remix_telemetry::names::STAMP_PLANS, 1);
    }
    StampPlan::compile(t, base_len)
}

/// Everything besides the circuit that decides which stamps a real
/// assembly makes: two modes with equal shapes make the same stamp
/// sequence, so they share a plan.
#[derive(Debug, Clone, PartialEq, Default)]
struct Shape {
    gmin: bool,
    diag_load: bool,
    /// Per MOS capacitor branch in element order, whether its companion
    /// is stamped (transient only).
    caps: Vec<bool>,
}

impl Shape {
    /// Overwrites `self` with the shape of `mode` plus a diagonal load.
    fn set(&mut self, circuit: &Circuit, mode: &RealMode<'_>, diag_load: f64) {
        self.gmin = mode_gmin(mode) > 0.0;
        self.diag_load = diag_load > 0.0;
        self.caps.clear();
        if let RealMode::Tran {
            states, mos_caps, ..
        } = mode
        {
            for (idx, e) in circuit.elements().iter().enumerate() {
                let Element::Mos { dev, .. } = e else {
                    continue;
                };
                match (&states[idx], &mos_caps[idx]) {
                    (ElementState::MosCaps(_), Some(caps)) => self.caps.extend(
                        mos_cap_branches(dev.d, dev.g, dev.s, dev.b, caps)
                            .iter()
                            .map(|&(_, _, c)| c > 0.0),
                    ),
                    _ => self.caps.push(false),
                }
            }
        }
    }
}

/// The scalars the guess-independent matrix stamps depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BaseParams {
    Dc { gmin: f64 },
    Tran { gmin: f64, geq_per_unit: f64 },
}

impl BaseParams {
    fn of(mode: &RealMode<'_>) -> Self {
        match mode {
            RealMode::Dc { gmin, .. } => BaseParams::Dc { gmin: *gmin },
            RealMode::Tran { gmin, coeffs, .. } => BaseParams::Tran {
                gmin: *gmin,
                geq_per_unit: coeffs.geq_per_unit,
            },
        }
    }
}

/// A compiled real stamp sequence and what its base was stamped for.
#[derive(Debug)]
struct RealPlan {
    plan: StampPlan<f64>,
    shape: Shape,
    base: BaseParams,
}

/// One analysis call's real-system assembly through a compiled stamp
/// plan.
///
/// The stamp sequence of [`assemble_real`] (plus an optional diagonal
/// load) is compiled from the call's first assembly into a
/// [`StampPlan`] whose base is the guess-independent matrix stamps.
/// Assembly is then split three ways:
///
/// * the **matrix base** — resistors, source and inductor incidence,
///   gmin and companion conductances — is re-stamped by
///   [`begin`](Self::begin) only when the gmin, the step size or the
///   integration method changes;
/// * the **rhs base** — source values and companion history currents —
///   is re-stamped by every [`begin`](Self::begin), once per timestep or
///   homotopy stage;
/// * each [`assemble`](Self::assemble), once per Newton iteration,
///   copies both bases and adds only the MOS channel stamps (and the
///   diagonal load) into their precompiled slots: no triplets, no sort,
///   no coordinate compare.
///
/// A mode whose stamp sequence differs from the plan's — gmin switched on
/// or off, a diagonal load added or dropped, a different set of MOS
/// capacitors — compiles a new plan from its first assembly; nothing is
/// ever scattered into a plan compiled for another sequence. The result
/// of every assembly equals [`assemble_real`]'s (then
/// [`stamp_diag_load`]'s) bit for bit.
///
/// An assembler serves one circuit topology, layout and set of frozen
/// MOS capacitances (the base holds their companion conductances);
/// create one per analysis call. A serial DC sweep is one call: its
/// points share one operating-point session, and the swept source's
/// value enters only the rhs base, which every [`begin`](Self::begin)
/// rebuilds, so all its points assemble through one plan.
#[derive(Debug)]
pub struct RealAssembler {
    plan: Option<RealPlan>,
    /// The guess-independent stamps of a sequence not yet compiled,
    /// completed and compiled by the next [`assemble`](Self::assemble).
    first: TripletMatrix<f64>,
    rhs_base: Vec<f64>,
    shape: Shape,
    base: BaseParams,
    diag_load: f64,
}

impl RealAssembler {
    /// An assembler for systems of `layout`'s dimension, with nothing
    /// compiled yet.
    pub fn new(layout: &MnaLayout) -> Self {
        let dim = layout.dim();
        RealAssembler {
            plan: None,
            first: TripletMatrix::new(dim, dim),
            rhs_base: vec![0.0; dim],
            shape: Shape::default(),
            base: BaseParams::Dc { gmin: 0.0 },
            diag_load: 0.0,
        }
    }

    /// Starts a Newton solve under `mode`, with a pseudo-transient
    /// diagonal load `diag_load` on every node unknown (0 for none):
    /// stamps the rhs base, and the matrix base if its scalars changed.
    pub fn begin(
        &mut self,
        circuit: &Circuit,
        layout: &MnaLayout,
        mode: &RealMode<'_>,
        diag_load: f64,
    ) {
        self.shape.set(circuit, mode, diag_load);
        self.base = BaseParams::of(mode);
        self.diag_load = diag_load;
        self.rhs_base.fill(0.0);
        match &mut self.plan {
            Some(p) if p.shape == self.shape => {
                if p.base == self.base {
                    stamp_linear(circuit, layout, mode, &mut NoMatrix, &mut self.rhs_base);
                } else {
                    let mut base = p.plan.restamp_base();
                    stamp_linear(circuit, layout, mode, &mut base, &mut self.rhs_base);
                    base.finish();
                    p.base = self.base;
                }
            }
            _ => {
                self.plan = None;
                self.first.clear();
                stamp_linear(circuit, layout, mode, &mut self.first, &mut self.rhs_base);
            }
        }
    }

    /// Assembles the system at guess `x` under the mode of the last
    /// [`begin`](Self::begin): returns the matrix and writes the rhs.
    /// When `mos_evals` is provided it receives each MOS evaluation.
    pub fn assemble(
        &mut self,
        circuit: &Circuit,
        layout: &MnaLayout,
        x: &[f64],
        rhs: &mut [f64],
        mos_evals: Option<&mut Vec<Option<MosEval>>>,
    ) -> &CsrMatrix<f64> {
        rhs.copy_from_slice(&self.rhs_base);
        let nodes = layout.node_unknowns();
        let plan = match self.plan.take() {
            Some(mut p) => {
                let mut tail = p.plan.restamp();
                stamp_mos(circuit, layout, x, &mut tail, rhs, mos_evals);
                stamp_diag_load(&mut tail, rhs, x, nodes, self.diag_load);
                tail.finish();
                p
            }
            None => {
                let base_len = self.first.raw_len();
                stamp_mos(circuit, layout, x, &mut self.first, rhs, mos_evals);
                stamp_diag_load(&mut self.first, rhs, x, nodes, self.diag_load);
                RealPlan {
                    plan: compile(&self.first, base_len),
                    shape: self.shape.clone(),
                    base: self.base,
                }
            }
        };
        self.plan.insert(plan).plan.matrix()
    }
}

/// Assembles the complex AC system at angular frequency `omega`, linearized
/// around the operating point captured in `mos_evals`/`mos_caps`.
///
/// The RHS carries the AC excitations of independent sources.
pub fn assemble_ac(
    circuit: &Circuit,
    layout: &MnaLayout,
    omega: f64,
    mos_evals: &[Option<MosEval>],
    mos_caps: &[Option<MosCaps>],
    m: &mut TripletMatrix<Complex>,
    rhs: &mut [Complex],
) {
    m.clear();
    stamp_ac(circuit, layout, omega, mos_evals, mos_caps, m, rhs);
}

/// The stamps of [`assemble_ac`], into any sink; `rhs` is overwritten.
fn stamp_ac(
    circuit: &Circuit,
    layout: &MnaLayout,
    omega: f64,
    mos_evals: &[Option<MosEval>],
    mos_caps: &[Option<MosCaps>],
    m: &mut impl StampSink<Complex>,
    rhs: &mut [Complex],
) {
    rhs.fill(Complex::ZERO);
    let jw = Complex::new(0.0, omega);

    for (idx, e) in circuit.elements().iter().enumerate() {
        let eid = remix_circuit::ElementId::from_index(idx);
        match e {
            Element::Resistor { a, b, r, .. } => {
                stamp_conductance(m, *a, *b, Complex::from_re(1.0 / r));
            }
            Element::Capacitor { a, b, c, .. } => {
                stamp_conductance(m, *a, *b, jw * *c);
            }
            Element::Inductor { a, b, l, .. } => {
                let br = layout.branch_index(eid).expect("inductor branch"); // audit: allow(AUD001): the layout allocates a branch for every inductor
                if let Some(ia) = layout.node_index(*a) {
                    m.add(ia, br, Complex::ONE);
                    m.add(br, ia, Complex::ONE);
                }
                if let Some(ib) = layout.node_index(*b) {
                    m.add(ib, br, -Complex::ONE);
                    m.add(br, ib, -Complex::ONE);
                }
                m.add(br, br, -(jw * *l));
            }
            Element::VoltageSource {
                p,
                n,
                ac_mag,
                ac_phase,
                ..
            } => {
                let br = layout.branch_index(eid).expect("vsource branch"); // audit: allow(AUD001): the layout allocates a branch for every voltage source
                if let Some(ip) = layout.node_index(*p) {
                    m.add(ip, br, Complex::ONE);
                    m.add(br, ip, Complex::ONE);
                }
                if let Some(inn) = layout.node_index(*n) {
                    m.add(inn, br, -Complex::ONE);
                    m.add(br, inn, -Complex::ONE);
                }
                rhs[br] += Complex::from_polar(*ac_mag, *ac_phase);
            }
            Element::CurrentSource { p, n, ac_mag, .. } => {
                stamp_current(rhs, *p, *n, Complex::from_re(*ac_mag));
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                stamp_transconductance(m, *p, *n, *cp, *cn, Complex::from_re(*gm));
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let br = layout.branch_index(eid).expect("vcvs branch"); // audit: allow(AUD001): the layout allocates a branch for every VCVS
                if let Some(ip) = layout.node_index(*p) {
                    m.add(ip, br, Complex::ONE);
                    m.add(br, ip, Complex::ONE);
                }
                if let Some(inn) = layout.node_index(*n) {
                    m.add(inn, br, -Complex::ONE);
                    m.add(br, inn, -Complex::ONE);
                }
                if let Some(icp) = layout.node_index(*cp) {
                    m.add(br, icp, Complex::from_re(-*gain));
                }
                if let Some(icn) = layout.node_index(*cn) {
                    m.add(br, icn, Complex::from_re(*gain));
                }
            }
            Element::Mos { dev, .. } => {
                let ev = mos_evals[idx].as_ref().expect("mos eval at op"); // audit: allow(AUD001): AC stamping always follows an OP that evaluated every MOS
                let grad = [
                    (dev.d, ev.d_vd),
                    (dev.g, ev.d_vg),
                    (dev.s, ev.d_vs),
                    (dev.b, ev.d_vb),
                ];
                for (row, sign) in [(dev.d, 1.0), (dev.s, -1.0)] {
                    let Some(r) = layout.node_index(row) else {
                        continue;
                    };
                    for (col, g) in grad {
                        if let Some(cidx) = layout.node_index(col) {
                            m.add(r, cidx, Complex::from_re(sign * g));
                        }
                    }
                }
                if let Some(caps) = &mos_caps[idx] {
                    for (a, b, c) in mos_cap_branches(dev.d, dev.g, dev.s, dev.b, caps) {
                        if c > 0.0 {
                            stamp_conductance(m, a, b, jw * c);
                        }
                    }
                }
                // Small conductance for conditioning (matches DC gmin floor).
                stamp_conductance(m, dev.d, dev.s, Complex::from_re(1e-12));
            }
        }
    }
}

/// One AC or noise call's complex-system assembly through a compiled
/// stamp plan.
///
/// Every AC stamp depends on the frequency, so the plan has no base: the
/// first frequency's assembly compiles it, and each later frequency
/// scatters the whole sequence of [`assemble_ac`] through one slot
/// cursor. The sequence depends only on the circuit and the operating
/// point's MOS capacitances, which are fixed for the call; the result
/// equals [`assemble_ac`]'s bit for bit. Create one per analysis call.
#[derive(Debug)]
pub struct AcAssembler {
    plan: Option<StampPlan<Complex>>,
    first: TripletMatrix<Complex>,
}

impl AcAssembler {
    /// An assembler for systems of `layout`'s dimension.
    pub fn new(layout: &MnaLayout) -> Self {
        let dim = layout.dim();
        AcAssembler {
            plan: None,
            first: TripletMatrix::new(dim, dim),
        }
    }

    /// Assembles the system at angular frequency `omega`, linearized
    /// around the operating point in `mos_evals`/`mos_caps`: returns the
    /// matrix and writes the rhs.
    pub fn assemble(
        &mut self,
        circuit: &Circuit,
        layout: &MnaLayout,
        omega: f64,
        mos_evals: &[Option<MosEval>],
        mos_caps: &[Option<MosCaps>],
        rhs: &mut [Complex],
    ) -> &CsrMatrix<Complex> {
        let plan = match self.plan.take() {
            Some(mut plan) => {
                let mut cursor = plan.restamp();
                stamp_ac(
                    circuit,
                    layout,
                    omega,
                    mos_evals,
                    mos_caps,
                    &mut cursor,
                    rhs,
                );
                cursor.finish();
                plan
            }
            None => {
                assemble_ac(
                    circuit,
                    layout,
                    omega,
                    mos_evals,
                    mos_caps,
                    &mut self.first,
                    rhs,
                );
                compile(&self.first, 0)
            }
        };
        self.plan.insert(plan).matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{MosModel, Waveform};

    /// A CMOS inverter with a load capacitor.
    fn inverter() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource("vin", inp, Circuit::gnd(), Waveform::sine(0.6, 1e9));
        c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
        let gnd = Circuit::gnd();
        c.add_mosfet("mn", MosModel::nmos_65nm(), 2e-6, 65e-9, out, inp, gnd, gnd);
        c.add_capacitor("cl", out, gnd, 20e-15);
        c
    }

    #[test]
    fn assembler_tracks_values_and_recompiles_on_a_new_sequence() {
        let c = inverter();
        let layout = MnaLayout::new(&c);
        let dim = layout.dim();
        let mut asm = RealAssembler::new(&layout);
        let mut t = TripletMatrix::new(dim, dim);
        let (mut rhs, mut rhs_ref) = (vec![0.0; dim], vec![0.0; dim]);
        let tel = remix_telemetry::Telemetry::new();
        let _armed = tel.arm();
        let plans = || {
            tel.snapshot()
                .counter(remix_telemetry::names::STAMP_PLANS)
                .unwrap_or(0)
        };
        // (gmin, source scale, diagonal load, plans compiled so far):
        // scale and gmin values only refill; switching gmin off drops the
        // gmin stamps and a diagonal load adds stamps, so each of those
        // compiles a new plan, even where the CSR pattern is unchanged.
        let cases = [
            (1e-12, 1.0, 0.0, 1),
            (1e-12, 0.3, 0.0, 1),
            (1e-3, 0.3, 0.0, 1),
            (0.0, 1.0, 0.0, 2),
            (0.0, 1.0, 0.5, 3),
            (1e-12, 1.0, 0.0, 4),
        ];
        for (k, (gmin, source_scale, load, expect)) in cases.into_iter().enumerate() {
            let mode = RealMode::Dc { gmin, source_scale };
            asm.begin(&c, &layout, &mode, load);
            for it in 0..2 {
                let x: Vec<f64> = (0..dim).map(|i| 0.1 * (i + k + it) as f64).collect();
                let a = asm.assemble(&c, &layout, &x, &mut rhs, None);
                assemble_real(&c, &layout, &x, &mode, &mut t, &mut rhs_ref, None);
                stamp_diag_load(&mut t, &mut rhs_ref, &x, layout.node_unknowns(), load);
                assert_eq!(*a, t.to_csr(), "case {k} iteration {it}");
                assert_eq!(rhs, rhs_ref, "case {k} iteration {it}");
            }
            assert_eq!(plans(), expect, "case {k}");
        }
    }

    #[test]
    fn ac_assembler_matches_the_triplet_reference_at_every_frequency() {
        let c = inverter();
        let layout = MnaLayout::new(&c);
        let dim = layout.dim();
        let mut evals = vec![None; c.element_count()];
        let mut caps = vec![None; c.element_count()];
        for (idx, e) in c.elements().iter().enumerate() {
            if let Element::Mos { dev, .. } = e {
                let ev = dev.evaluate(0.6, 0.6, 0.0, 0.0);
                caps[idx] = Some(dev.capacitances(&ev));
                evals[idx] = Some(ev);
            }
        }
        let mut asm = AcAssembler::new(&layout);
        let mut t = TripletMatrix::new(dim, dim);
        let (mut rhs, mut rhs_ref) = (vec![Complex::ZERO; dim], vec![Complex::ZERO; dim]);
        for f in [1e3, 1e9, 5e9] {
            let omega = 2.0 * std::f64::consts::PI * f;
            let a = asm.assemble(&c, &layout, omega, &evals, &caps, &mut rhs);
            assemble_ac(&c, &layout, omega, &evals, &caps, &mut t, &mut rhs_ref);
            assert_eq!(*a, t.to_csr(), "{f} Hz");
            assert_eq!(rhs, rhs_ref, "{f} Hz");
        }
    }
}

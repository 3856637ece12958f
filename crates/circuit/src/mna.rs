//! Modified nodal analysis layout and generic stamp helpers.
//!
//! The MNA unknown vector is `[v(n1) … v(nK), i(br1) … i(brM)]`: one
//! voltage per non-ground node followed by one branch current per
//! voltage-defined element (voltage sources, inductors, VCVS). The layout
//! is computed once per circuit and shared by every analysis.

use crate::netlist::Circuit;
use crate::node::{ElementId, Node};
use remix_numerics::{Scalar, StampSink};

/// Index map from circuit topology to MNA unknowns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MnaLayout {
    n_node_unknowns: usize,
    /// Per element (by index): absolute index of its branch unknown.
    branch_index: Vec<Option<usize>>,
    dim: usize,
}

impl MnaLayout {
    /// Computes the layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n_node_unknowns = circuit.unknown_node_count();
        let mut branch_index = Vec::with_capacity(circuit.element_count());
        let mut next = n_node_unknowns;
        for e in circuit.elements() {
            if e.needs_branch_current() {
                branch_index.push(Some(next));
                next += 1;
            } else {
                branch_index.push(None);
            }
        }
        MnaLayout {
            n_node_unknowns,
            branch_index,
            dim: next,
        }
    }

    /// Total unknown count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }

    /// Unknown index of a node's voltage (`None` for ground).
    pub fn node_index(&self, n: Node) -> Option<usize> {
        n.unknown_index()
    }

    /// Absolute unknown index of an element's branch current, if it has one.
    pub fn branch_index(&self, id: ElementId) -> Option<usize> {
        self.branch_index[id.index()]
    }

    /// Node voltage from a solution vector (0 for ground).
    pub fn voltage(&self, solution: &[f64], n: Node) -> f64 {
        match n.unknown_index() {
            Some(i) => solution[i],
            None => 0.0,
        }
    }

    /// Branch current of a voltage-defined element from a solution vector.
    ///
    /// Positive current flows from the element's `p`/`a` terminal through
    /// the element to `n`/`b`.
    ///
    /// # Panics
    ///
    /// Panics if the element has no branch unknown.
    pub fn branch_current(&self, solution: &[f64], id: ElementId) -> f64 {
        let idx = self
            .branch_index(id)
            .expect("element has no branch current"); // audit: allow(AUD001): documented caller contract; panics only for elements without branch currents
        solution[idx]
    }
}

/// Stamps a conductance `g` between nodes `a` and `b` (either may be
/// ground).
pub fn stamp_conductance<T: Scalar>(m: &mut impl StampSink<T>, a: Node, b: Node, g: T) {
    let ia = a.unknown_index();
    let ib = b.unknown_index();
    if let Some(i) = ia {
        m.add(i, i, g);
    }
    if let Some(j) = ib {
        m.add(j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        m.add(i, j, -g);
        m.add(j, i, -g);
    }
}

/// Stamps a transconductance: current `gm·(v(cp) − v(cn))` flowing out of
/// node `p` (through the controlled source) into node `n`.
pub fn stamp_transconductance<T: Scalar>(
    m: &mut impl StampSink<T>,
    p: Node,
    n: Node,
    cp: Node,
    cn: Node,
    gm: T,
) {
    for (row, sign_row) in [(p, T::one()), (n, -T::one())] {
        let Some(r) = row.unknown_index() else {
            continue;
        };
        if let Some(c) = cp.unknown_index() {
            m.add(r, c, sign_row * gm);
        }
        if let Some(c) = cn.unknown_index() {
            m.add(r, c, -(sign_row * gm));
        }
    }
}

/// Adds a constant current `i` flowing out of node `p` (through a source)
/// into node `n` to the RHS vector.
pub fn stamp_current<T: Scalar>(rhs: &mut [T], p: Node, n: Node, i: T) {
    if let Some(ip) = p.unknown_index() {
        rhs[ip] -= i;
    }
    if let Some(inn) = n.unknown_index() {
        rhs[inn] += i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use remix_numerics::{solve_dense, TripletMatrix};

    #[test]
    fn layout_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let v1 = c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        let r1 = c.add_resistor("r1", a, b, 1e3);
        let l1 = c.add_inductor("l1", b, Circuit::gnd(), 1e-9);
        let layout = MnaLayout::new(&c);
        assert_eq!(layout.node_unknowns(), 2);
        assert_eq!(layout.dim(), 4); // 2 nodes + vsource + inductor
        assert_eq!(layout.branch_index(v1), Some(2));
        assert_eq!(layout.branch_index(r1), None);
        assert_eq!(layout.branch_index(l1), Some(3));
        assert_eq!(layout.node_index(a), Some(0));
        assert_eq!(layout.node_index(Circuit::gnd()), None);
    }

    #[test]
    fn voltage_and_branch_readback() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let v1 = c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(5.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let layout = MnaLayout::new(&c);
        let sol = vec![5.0, -5e-3];
        assert_eq!(layout.voltage(&sol, a), 5.0);
        assert_eq!(layout.voltage(&sol, Circuit::gnd()), 0.0);
        assert_eq!(layout.branch_current(&sol, v1), -5e-3);
    }

    #[test]
    fn conductance_stamp_solves_divider() {
        // 1 V source modeled as Norton: 1 A into node a, g = 1 S to ground,
        // divider r = 1 Ω (g = 1) from a to b, g = 1 from b to ground.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut m = TripletMatrix::<f64>::new(2, 2);
        let mut rhs = vec![0.0; 2];
        stamp_conductance(&mut m, a, Circuit::gnd(), 1.0);
        stamp_conductance(&mut m, a, b, 1.0);
        stamp_conductance(&mut m, b, Circuit::gnd(), 1.0);
        stamp_current(&mut rhs, Circuit::gnd(), a, 1.0); // inject into a
        let x = solve_dense(&m.to_dense(), &rhs).unwrap();
        // Node a: 1 A into (1 + 0.5) S → v(a) = 0.4? Solve exactly:
        // [2 -1; -1 2] x = [1, 0] → x = (2/3, 1/3).
        assert!((x[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((x[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn transconductance_stamp() {
        // VCCS from control (a) to output (b): i(b→gnd) = gm·v(a).
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut m = TripletMatrix::<f64>::new(2, 2);
        let mut rhs = vec![0.0; 2];
        // Drive a with Norton 1 A / 1 S → v(a) = 1.
        stamp_conductance(&mut m, a, Circuit::gnd(), 1.0);
        stamp_current(&mut rhs, Circuit::gnd(), a, 1.0);
        // Load on b: 2 S. VCCS gm = 3: current out of b = 3·v(a).
        stamp_conductance(&mut m, b, Circuit::gnd(), 2.0);
        stamp_transconductance(&mut m, b, Circuit::gnd(), a, Circuit::gnd(), 3.0);
        let x = solve_dense(&m.to_dense(), &rhs).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        // KCL at b: 2·v(b) + 3·v(a) = 0 → v(b) = −1.5.
        assert!((x[1] + 1.5).abs() < 1e-12);
    }

    #[test]
    fn ground_stamps_ignored() {
        let mut m = TripletMatrix::<f64>::new(1, 1);
        let mut rhs = vec![0.0];
        stamp_conductance(&mut m, Circuit::gnd(), Circuit::gnd(), 5.0);
        stamp_current(&mut rhs, Circuit::gnd(), Circuit::gnd(), 1.0);
        assert_eq!(m.raw_len(), 0);
        assert_eq!(rhs[0], 0.0);
    }
}

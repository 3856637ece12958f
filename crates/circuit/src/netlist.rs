//! The circuit netlist builder.
//!
//! Malformed construction (non-positive resistances, duplicate names, …)
//! never aborts: the offending element is still inserted and a typed
//! [`CircuitError`] is recorded in [`Circuit::defects`], so a broken deck
//! stays inspectable and the `remix-lint` ERC engine can report *every*
//! problem at once (rules `ERC008_INVALID_VALUE` /
//! `ERC009_DUPLICATE_NAME`).

use crate::element::{Element, Mosfet};
use crate::mos::MosModel;
use crate::node::{ElementId, Node};
use crate::waveform::Waveform;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A defect detected while building a [`Circuit`].
///
/// Structural problems (dangling nodes, missing DC paths, source loops …)
/// are the `remix-lint` crate's department; this type covers only what
/// the builder itself can see: element values and naming.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A device was given a value outside its legal domain (zero,
    /// negative, or non-finite where positive-finite is required).
    InvalidValue {
        /// Instance name of the offending element.
        element: String,
        /// Which quantity was invalid (`"resistance"`, `"width"`, …).
        quantity: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An element reused an instance name already present in the circuit.
    DuplicateName {
        /// The reused name.
        name: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidValue {
                element,
                quantity,
                value,
            } => {
                write!(
                    f,
                    "element '{element}': {quantity} must be positive and finite, got {value}"
                )
            }
            CircuitError::DuplicateName { name } => {
                write!(f, "duplicate element name '{name}'")
            }
        }
    }
}

impl Error for CircuitError {}

/// Structural census of a circuit: node/element/branch counts by kind.
///
/// Produced by [`Circuit::stats`] so generated topologies (see the
/// `remix-topo` crate) are inspectable without emitting a deck. The MNA
/// system size of the circuit is `voltage_unknowns + branch_unknowns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Total nodes including ground.
    pub nodes: usize,
    /// Non-ground nodes (MNA voltage unknowns).
    pub voltage_unknowns: usize,
    /// Extra MNA branch-current unknowns (voltage sources, inductors,
    /// VCVS).
    pub branch_unknowns: usize,
    /// Resistors.
    pub resistors: usize,
    /// Capacitors.
    pub capacitors: usize,
    /// Inductors.
    pub inductors: usize,
    /// Independent voltage sources.
    pub vsources: usize,
    /// Independent current sources.
    pub isources: usize,
    /// Voltage-controlled current sources.
    pub vccs: usize,
    /// Voltage-controlled voltage sources.
    pub vcvs: usize,
    /// MOSFETs.
    pub mosfets: usize,
}

impl CircuitStats {
    /// Total element count (all kinds).
    pub fn elements(&self) -> usize {
        self.resistors
            + self.capacitors
            + self.inductors
            + self.vsources
            + self.isources
            + self.vccs
            + self.vcvs
            + self.mosfets
    }

    /// Size of the MNA system the circuit solves
    /// (`voltage_unknowns + branch_unknowns`).
    pub fn unknowns(&self) -> usize {
        self.voltage_unknowns + self.branch_unknowns
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "nodes {} ({} voltage unknowns), elements {}, mna unknowns {}",
            self.nodes,
            self.voltage_unknowns,
            self.elements(),
            self.unknowns()
        )?;
        write!(
            f,
            "  R {}  C {}  L {}  V {}  I {}  VCCS {}  VCVS {}  MOS {}  branches {}",
            self.resistors,
            self.capacitors,
            self.inductors,
            self.vsources,
            self.isources,
            self.vccs,
            self.vcvs,
            self.mosfets,
            self.branch_unknowns
        )
    }
}

/// A circuit under construction: named nodes plus an ordered element list.
///
/// # Examples
///
/// ```
/// use remix_circuit::{Circuit, Waveform};
///
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.add_vsource("vin", vin, Circuit::gnd(), Waveform::Dc(1.0));
/// ckt.add_resistor("r1", vin, vout, 1e3);
/// ckt.add_resistor("r2", vout, Circuit::gnd(), 1e3);
/// assert_eq!(ckt.element_count(), 3);
/// assert!(ckt.defects().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_node: HashMap<String, Node>,
    elements: Vec<Element>,
    element_names: HashMap<String, ElementId>,
    defects: Vec<CircuitError>,
}

impl Circuit {
    /// Creates an empty circuit (ground pre-registered as node 0).
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            name_to_node: HashMap::new(),
            elements: Vec::new(),
            element_names: HashMap::new(),
            defects: Vec::new(),
        };
        c.name_to_node.insert("0".to_string(), Node::GROUND);
        c
    }

    /// The ground node.
    pub const fn gnd() -> Node {
        Node::GROUND
    }

    /// Returns the node with the given name, creating it if needed.
    /// The names `"0"` and `"gnd"` refer to ground.
    pub fn node(&mut self, name: &str) -> Node {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Node::GROUND;
        }
        if let Some(&n) = self.name_to_node.get(name) {
            return n;
        }
        let n = Node(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), n);
        n
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Node::GROUND);
        }
        self.name_to_node.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, n: Node) -> &str {
        &self.node_names[n.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of non-ground nodes (MNA voltage unknowns).
    pub fn unknown_node_count(&self) -> usize {
        self.node_names.len() - 1
    }

    /// The ordered element list.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Element by id.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    /// Mutable element access (for reconfiguring values between analyses,
    /// e.g. flipping a mode-control voltage).
    pub fn element_mut(&mut self, id: ElementId) -> &mut Element {
        &mut self.elements[id.0]
    }

    /// Finds an element id by instance name. With duplicate names (a
    /// recorded defect), the first insertion wins.
    pub fn find_element(&self, name: &str) -> Option<ElementId> {
        self.element_names.get(name).copied()
    }

    /// Structural census: node/element/branch counts by kind, so a
    /// generated topology is inspectable without emitting a deck.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats {
            nodes: self.node_count(),
            voltage_unknowns: self.unknown_node_count(),
            ..CircuitStats::default()
        };
        for e in &self.elements {
            if e.needs_branch_current() {
                s.branch_unknowns += 1;
            }
            match e {
                Element::Resistor { .. } => s.resistors += 1,
                Element::Capacitor { .. } => s.capacitors += 1,
                Element::Inductor { .. } => s.inductors += 1,
                Element::VoltageSource { .. } => s.vsources += 1,
                Element::CurrentSource { .. } => s.isources += 1,
                Element::Vccs { .. } => s.vccs += 1,
                Element::Vcvs { .. } => s.vcvs += 1,
                Element::Mos { .. } => s.mosfets += 1,
            }
        }
        s
    }

    /// Typed defects recorded while building (invalid values, duplicate
    /// names). The offending elements are still present, so diagnostics
    /// can point at them; a defect-free build returns an empty slice.
    pub fn defects(&self) -> &[CircuitError] {
        &self.defects
    }

    /// Renames an element, keeping the name index consistent. Returns
    /// `false` (and changes nothing) if `new_name` is already taken.
    ///
    /// This is the repair path for duplicate instance names: renaming a
    /// later duplicate retires one matching
    /// [`CircuitError::DuplicateName`] defect and, if the old name still
    /// has other bearers, re-points name lookup at the earliest one.
    pub fn rename_element(&mut self, id: ElementId, new_name: &str) -> bool {
        if self.element_names.contains_key(new_name) {
            return false;
        }
        let old = self.elements[id.0].name().to_string();
        self.elements[id.0].set_name(new_name);
        if self.element_names.get(&old) == Some(&id) {
            self.element_names.remove(&old);
            if let Some(j) = self.elements.iter().position(|e| e.name() == old) {
                self.element_names.insert(old.clone(), ElementId(j));
            }
        }
        self.element_names.insert(new_name.to_string(), id);
        if let Some(k) = self
            .defects
            .iter()
            .position(|d| matches!(d, CircuitError::DuplicateName { name } if *name == old))
        {
            self.defects.remove(k);
        }
        true
    }

    /// Checks a quantity that must be positive and finite.
    fn check_positive(
        element: &str,
        quantity: &'static str,
        value: f64,
    ) -> Result<(), CircuitError> {
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(CircuitError::InvalidValue {
                element: element.to_string(),
                quantity,
                value,
            })
        }
    }

    /// Checks a quantity that must be finite (any sign).
    fn check_finite(element: &str, quantity: &'static str, value: f64) -> Result<(), CircuitError> {
        if value.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::InvalidValue {
                element: element.to_string(),
                quantity,
                value,
            })
        }
    }

    fn record(&mut self, check: Result<(), CircuitError>) {
        if let Err(defect) = check {
            self.defects.push(defect);
        }
    }

    /// Inserts an element, recording (not rejecting) a duplicate name.
    fn insert(&mut self, e: Element) -> ElementId {
        let name = e.name().to_string();
        let id = ElementId(self.elements.len());
        match self.element_names.entry(name) {
            Entry::Occupied(slot) => {
                self.defects.push(CircuitError::DuplicateName {
                    name: slot.key().clone(),
                });
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
        self.elements.push(e);
        id
    }

    fn resistor(name: &str, a: Node, b: Node, r: f64) -> Element {
        Element::Resistor {
            name: name.to_string(),
            a,
            b,
            r,
        }
    }

    fn capacitor(name: &str, a: Node, b: Node, c: f64) -> Element {
        Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            c,
        }
    }

    fn inductor(name: &str, a: Node, b: Node, l: f64) -> Element {
        Element::Inductor {
            name: name.to_string(),
            a,
            b,
            l,
        }
    }

    /// Adds a resistor. A non-positive or non-finite `r` is recorded as a
    /// defect (see [`Circuit::defects`]).
    pub fn add_resistor(&mut self, name: &str, a: Node, b: Node, r: f64) -> ElementId {
        self.record(Self::check_positive(name, "resistance", r));
        self.insert(Self::resistor(name, a, b, r))
    }

    /// Adds a capacitor. A non-positive or non-finite `c` is recorded as
    /// a defect.
    pub fn add_capacitor(&mut self, name: &str, a: Node, b: Node, c: f64) -> ElementId {
        self.record(Self::check_positive(name, "capacitance", c));
        self.insert(Self::capacitor(name, a, b, c))
    }

    /// Adds an inductor. A non-positive or non-finite `l` is recorded as
    /// a defect.
    pub fn add_inductor(&mut self, name: &str, a: Node, b: Node, l: f64) -> ElementId {
        self.record(Self::check_positive(name, "inductance", l));
        self.insert(Self::inductor(name, a, b, l))
    }

    /// Adds a voltage source with no AC component.
    pub fn add_vsource(&mut self, name: &str, p: Node, n: Node, wave: Waveform) -> ElementId {
        self.add_vsource_ac(name, p, n, wave, 0.0, 0.0)
    }

    /// Adds a voltage source that also drives small-signal analyses with
    /// the given AC magnitude/phase.
    pub fn add_vsource_ac(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        wave: Waveform,
        ac_mag: f64,
        ac_phase: f64,
    ) -> ElementId {
        self.insert(Element::VoltageSource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac_mag,
            ac_phase,
        })
    }

    /// Adds a current source (current flows `p → n` through the source).
    pub fn add_isource(&mut self, name: &str, p: Node, n: Node, wave: Waveform) -> ElementId {
        self.add_isource_ac(name, p, n, wave, 0.0)
    }

    /// Adds a current source with an AC magnitude (used by noise transfer
    /// solves).
    pub fn add_isource_ac(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        wave: Waveform,
        ac_mag: f64,
    ) -> ElementId {
        self.insert(Element::CurrentSource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac_mag,
        })
    }

    /// Adds a voltage-controlled current source. A non-finite `gm` is
    /// recorded as a defect.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gm: f64,
    ) -> ElementId {
        self.record(Self::check_finite(name, "transconductance", gm));
        self.insert(Element::Vccs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gm,
        })
    }

    /// Adds a voltage-controlled voltage source. A non-finite `gain` is
    /// recorded as a defect.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gain: f64,
    ) -> ElementId {
        self.record(Self::check_finite(name, "gain", gain));
        self.insert(Element::Vcvs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gain,
        })
    }

    /// Adds a MOSFET. Non-positive or non-finite `w`/`l` are recorded as
    /// defects.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        model: MosModel,
        w: f64,
        l: f64,
        d: Node,
        g: Node,
        s: Node,
        b: Node,
    ) -> ElementId {
        self.record(Self::check_positive(name, "width", w));
        self.record(Self::check_positive(name, "length", l));
        self.insert(Element::Mos {
            name: name.to_string(),
            dev: Mosfet {
                model,
                w,
                l,
                d,
                g,
                s,
                b,
            },
        })
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} nodes, {} elements",
            self.node_count(),
            self.element_count()
        )?;
        for e in &self.elements {
            let nodes: Vec<String> = e
                .nodes()
                .iter()
                .map(|n| self.node_name(*n).to_string())
                .collect();
            writeln!(f, "  {} ({})", e.name(), nodes.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_creation_and_lookup() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node("gnd"), Node::GROUND);
        assert_eq!(c.node("0"), Node::GROUND);
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("missing"), None);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.unknown_node_count(), 1);
    }

    #[test]
    fn voltage_divider_builds() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        assert!(c.defects().is_empty());
        assert_eq!(c.element_count(), 3);
        assert!(c.find_element("r1").is_some());
        assert!(c.find_element("zz").is_none());
    }

    #[test]
    fn duplicate_names_recorded_not_fatal() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("r1", a, Circuit::gnd(), 1.0);
        let second = c.add_resistor("r1", a, Circuit::gnd(), 2.0);
        // Both elements exist; the defect names the collision; lookup
        // returns the first.
        assert_eq!(c.element_count(), 2);
        assert_eq!(
            c.defects(),
            &[CircuitError::DuplicateName { name: "r1".into() }]
        );
        assert_ne!(c.find_element("r1"), Some(second));
    }

    #[test]
    fn negative_resistance_recorded_not_fatal() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("r1", a, Circuit::gnd(), -1.0);
        assert_eq!(c.element_count(), 1);
        match &c.defects()[0] {
            CircuitError::InvalidValue {
                element, quantity, ..
            } => {
                assert_eq!(element, "r1");
                assert_eq!(*quantity, "resistance");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn invalid_values_render_legibly() {
        let e = CircuitError::InvalidValue {
            element: "rload".into(),
            quantity: "resistance",
            value: -5.0,
        };
        let s = e.to_string();
        assert!(s.contains("rload") && s.contains("resistance") && s.contains("-5"));
        let d = CircuitError::DuplicateName { name: "m1".into() };
        assert!(d.to_string().contains("m1"));
    }

    #[test]
    fn element_mutation() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let id = c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(0.0));
        if let Element::VoltageSource { wave, .. } = c.element_mut(id) {
            *wave = Waveform::Dc(1.2);
        }
        if let Element::VoltageSource { wave, .. } = c.element(id) {
            assert_eq!(wave.dc_value(), 1.2);
        } else {
            panic!("wrong element type");
        }
    }

    #[test]
    fn display_lists_elements() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("rload", a, Circuit::gnd(), 50.0);
        let s = c.to_string();
        assert!(s.contains("rload"));
        assert!(s.contains("2 nodes"));
    }

    #[test]
    fn stats_census_counts_by_kind() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", a, b, 1e3);
        c.add_capacitor("c1", b, Circuit::gnd(), 1e-12);
        c.add_inductor("l1", a, b, 1e-9);
        c.add_isource("i1", a, Circuit::gnd(), Waveform::Dc(1e-3));
        c.add_vccs("g1", b, Circuit::gnd(), a, Circuit::gnd(), 1e-3);
        c.add_vcvs("e1", b, Circuit::gnd(), a, Circuit::gnd(), 2.0);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            a,
            b,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let s = c.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.voltage_unknowns, 2);
        assert_eq!(s.resistors, 1);
        assert_eq!(s.capacitors, 1);
        assert_eq!(s.inductors, 1);
        assert_eq!(s.vsources, 1);
        assert_eq!(s.isources, 1);
        assert_eq!(s.vccs, 1);
        assert_eq!(s.vcvs, 1);
        assert_eq!(s.mosfets, 1);
        assert_eq!(s.elements(), 8);
        assert_eq!(s.elements(), c.element_count());
        // Branch unknowns: vsource + inductor + vcvs.
        assert_eq!(s.branch_unknowns, 3);
        assert_eq!(s.unknowns(), 5);
        let text = s.to_string();
        assert!(text.contains("MOS 1"), "{text}");
        assert!(text.contains("mna unknowns 5"), "{text}");
    }

    #[test]
    fn mosfet_addition() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        assert_eq!(c.element_count(), 1);
        assert!(c.defects().is_empty());
    }
}

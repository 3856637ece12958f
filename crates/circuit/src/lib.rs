//! # remix-circuit
//!
//! SPICE-class circuit representation for the `remix` analog simulator:
//! netlists, linear elements, independent/controlled sources, a smoothed
//! square-law MOSFET model calibrated for 65 nm, transmission-gate
//! helpers, and the MNA unknown layout shared by every analysis.
//!
//! The analyses themselves (DC operating point, AC, transient, noise) live
//! in `remix-analysis`; this crate is purely the circuit data model plus
//! device physics.
//!
//! # Examples
//!
//! Building the classic resistive divider:
//!
//! ```
//! use remix_circuit::{Circuit, Waveform};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
//! ckt.add_resistor("r1", vin, out, 10e3);
//! ckt.add_resistor("r2", out, Circuit::gnd(), 10e3);
//! assert!(ckt.defects().is_empty());
//! ```
//!
//! Structural electrical-rule checks (dangling nodes, missing DC paths,
//! source loops, …) live in the `remix-lint` crate, which runs a
//! collect-everything diagnostics pass over a finished [`Circuit`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod consts;
pub mod dot;
pub mod element;
pub mod expr;
pub mod include;
pub mod mna;
pub mod mos;
pub mod netlist;
pub mod node;
pub mod spice;
pub mod tgate;
pub mod waveform;

pub use dot::to_dot;
pub use element::{Element, Mosfet};
pub use expr::{eval_expr, expr_idents, parse_value, ExprError};
pub use include::{resolve_includes, INCLUDE_MAX_BYTES, INCLUDE_MAX_DEPTH};
pub use mna::{stamp_conductance, stamp_current, stamp_transconductance, MnaLayout};
pub use mos::{MosCaps, MosEval, MosModel, MosPolarity, MosRegion};
pub use netlist::{Circuit, CircuitError, CircuitStats};
pub use node::{ElementId, Node};
pub use spice::{
    from_spice, parse_spice, to_spice, DeckFinding, DeckFindingKind, SpiceDeck, SpiceParseError,
};
pub use tgate::{size_tg_for_resistance, tg_on_resistance, TgSizing, TransmissionGate};
pub use waveform::Waveform;

//! # remix-lint
//!
//! A clippy-style electrical-rule-check (ERC) engine for `remix`
//! netlists. Where the old `Circuit::validate()` stopped at the first
//! structural problem, `remix-lint` runs **every** rule over the whole
//! circuit and returns a [`LintReport`] of all findings, each tagged
//! with a stable rule id (`ERC001_DANGLING_NODE`, …), a severity, and
//! node/element provenance.
//!
//! Severities follow the clippy model:
//!
//! * **deny** — the circuit's MNA system is structurally singular (or
//!   the deck cannot mean what was written); analyses refuse to run;
//! * **warn** — suspicious but solvable; reported and carried along;
//! * **allow** — rule disabled.
//!
//! Defaults come from [`RuleId::default_severity`] and are overridden
//! per circuit with [`LintConfig`].
//!
//! # Examples
//!
//! ```
//! use remix_circuit::{Circuit, Waveform};
//! use remix_lint::{lint, LintConfig, RuleId};
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! ckt.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
//! ckt.add_resistor("r1", a, Circuit::gnd(), 1e3);
//! // A second ideal source across the same nodes: ERC003.
//! ckt.add_vsource("v2", a, Circuit::gnd(), Waveform::Dc(1.0));
//!
//! let report = lint(&ckt, &LintConfig::default());
//! assert!(!report.is_clean());
//! assert_eq!(report.by_rule(RuleId::VsourceLoop).len(), 1);
//! println!("{}", report.render_text());
//! ```
//!
//! Beyond the shape-based heuristics, the [`rank`](crate::diag::RuleId::StructuralSingular)
//! pass proves structural MNA singularity exactly (`ERC012`) via maximum
//! matching on the incidence bipartite graph, the [`plan`] module lints
//! *simulation plans* (`SIM001`: a timestep that aliases the fastest
//! stimulus into the record), and the [`fix`] module applies machine-applicable repairs to a fixpoint
//! — the engine behind `remix-bench lint --fix`.
//!
//! The rule catalog lives in [`RuleId`]; `DESIGN.md` at the repository
//! root carries the same table with rationale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod diag;
pub mod fix;
mod graph;
pub mod plan;
mod rank;
mod rules;
pub mod spice;

pub use config::LintConfig;
pub use diag::{Diagnostic, LintReport, RuleId, Severity, SCHEMA_VERSION};
pub use fix::{fix_circuit, Fix, FixOutcome};
pub use plan::{lint_plan, SimPlan};
pub use spice::{import_spice, lint_deck, ImportError};

use remix_circuit::Circuit;

/// Runs the full rule set over `circuit` under `config`.
///
/// Never fails and never stops early: the report carries every finding
/// from every enabled rule, ordered by rule code.
pub fn lint(circuit: &Circuit, config: &LintConfig) -> LintReport {
    rules::run(circuit, config)
}

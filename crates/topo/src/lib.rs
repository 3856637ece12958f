//! # remix-topo
//!
//! Parametric topology library: template-driven generator functions
//! over typed parameter structs that compile circuit *families* to
//! [`remix_circuit::Circuit`]s (ROADMAP item 4). Until this crate,
//! every layer of the stack — lint, budgets, telemetry, the parallel
//! pool, the TCP service — exercised exactly one circuit, the paper's
//! reconfigurable mixer. A topology library multiplies every workload.
//!
//! ## Families
//!
//! | family | module | the point |
//! |---|---|---|
//! | (a) passive mixer-first receiver | [`mixer_first`] | N-path high-Q bandpass synthesis; [`zin::input_impedance_vs_lo`] sweeps LO and extracts it |
//! | (b) single-balanced mixer | [`single_balanced`] | a second spec-table family for batch studies |
//! | (c) sub-50 µW MedRadio front-end | [`medradio`] | weak-inversion stress on the MOS model |
//!
//! Every family follows the same contract: a `…Params` struct with
//! documented, validated ranges (typed [`TopoError`] on violation); a
//! `generate()` that compiles to a defect-free, lint-deny-clean
//! circuit; an `emit()` producing a SPICE deck that round-trips through
//! `import_spice`; and registration in the [`study`] drivers so
//! Monte-Carlo and corners run over any family behind the existing
//! `Parallelism` knob, and a bias sweep runs as one serial
//! operating-point session.
//!
//! ## Quick start: generate and sweep
//!
//! ```
//! use remix_topo::{input_impedance_vs_lo, MixerFirstParams, ZinConfig};
//!
//! let params = MixerFirstParams::default();        // 4-phase, f_lo 10 MHz
//! let rx = params.generate()?;                     // lint-deny-clean circuit
//! assert_eq!(rx.circuit.stats().mosfets, 4);
//!
//! // Sweep LO ±2 MHz around a 10 MHz probe: |Zin| peaks at f_lo ≈ f_rf.
//! let cfg = ZinConfig::centered(1e6, 10, 2);
//! let sweep = input_impedance_vs_lo(&params, &cfg, &remix_exec::PoolOptions::default())?;
//! assert_eq!(sweep.points.len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod medradio;
pub mod mixer_first;
pub mod single_balanced;
pub mod study;
pub mod zin;

pub use error::TopoError;
pub use medradio::{MedRadioFrontEnd, MedRadioParams};
pub use mixer_first::{LoMode, MixerFirstParams, MixerFirstRx};
pub use single_balanced::{SingleBalancedMixer, SingleBalancedParams};
pub use study::{
    bias_sweep, corner_study, mc_study, standard_corners, Corner, Family, StudyOutcome,
    TopoMismatch, TopoStudy,
};
pub use zin::{input_impedance_vs_lo, ZinConfig, ZinOutcome, ZinSweep};

/// Family name of the passive mixer-first receiver.
pub const FAMILY_MIXER_FIRST: &str = "mixer_first";
/// Family name of the single-balanced mixer.
pub const FAMILY_SINGLE_BALANCED: &str = "single_balanced";
/// Family name of the MedRadio front-end.
pub const FAMILY_MEDRADIO: &str = "medradio";

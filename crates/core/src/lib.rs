//! # remix-core
//!
//! The paper's contribution: a 1.2 V wide-band **reconfigurable
//! active/passive down-conversion mixer** (Gupta et al., SOCC 2015),
//! rebuilt at transistor level on the `remix` simulation substrate and
//! wrapped in extracted behavioral models that regenerate every figure of
//! the paper's evaluation.
//!
//! ## Architecture (paper Fig. 2–7)
//!
//! * [`tca`] — the fully differential CMOS transconductance amplifier;
//! * [`quad`] — the four-NMOS switching (LO) quad shared by both modes;
//! * [`tia`] — the two-stage Miller OTA and the RF‖CF transimpedance
//!   stage that loads the passive mode (powered down in active mode);
//! * [`tg`] — transmission-gate load sizing (the active-mode load);
//! * [`mixer`] — the complete single-circuitry netlist with all seven
//!   mode switches, buildable in either [`MixerMode`];
//! * [`model`] — behavioral models extracted from the transistor level,
//!   with conversion-gain / NF / IIP3 / P1dB formulas;
//! * [`eval`] — figure-level sweeps (Fig. 8, 9, 10, Table I);
//! * [`baseline`] — dedicated single-mode comparators;
//! * [`bias`], [`config`] — bias solvers and the design parameter set.
//!
//! ## Quick start
//!
//! ```no_run
//! use remix_core::{eval::MixerEvaluator, MixerConfig, MixerMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let eval = MixerEvaluator::new(&MixerConfig::default())?;
//! let active = eval.model(MixerMode::Active);
//! println!("conversion gain: {:.1} dB", active.conv_gain_db(2.45e9, 5e6));
//! println!("noise figure:    {:.1} dB", active.nf_db(5e6));
//! println!("IIP3:            {:.1} dBm", active.iip3_dbm());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod bias;
pub mod checkpoint;
pub mod config;
pub mod corners;
pub mod eval;
pub mod mixer;
pub mod model;
pub mod montecarlo;
pub mod quad;
pub mod sensitivity;
pub mod study;
pub mod tca;
pub mod tg;
pub mod tia;

pub use config::{MixerConfig, MixerMode};
pub use corners::{
    sweep_corners_resumable_with, Corner, CornerOutcome, CornerSweep, ProcessCorner,
};
pub use eval::MixerEvaluator;
pub use mixer::{LoDrive, MixerNodes, ReconfigurableMixer, RfDrive};
pub use model::{ExtractedParams, MixerModel};

//! # remix-rfkit
//!
//! RF measurement and behavioral-modeling toolkit for the `remix`
//! reproduction of the SOCC 2015 reconfigurable mixer:
//!
//! * [`nonlin`] — polynomial nonlinearity ↔ IIP3/IIP2/P1dB algebra;
//! * [`blocks`] — behavioral receiver stages in two cross-validating
//!   forms: analytic [`blocks::Cascade`] specs (gain/NF/IIP3 formulas)
//!   and time-domain [`blocks::SampleProcessor`]s;
//! * [`twotone`] — coherent two-tone stimulus/readout plans;
//! * [`ip3`] — intercept-point extraction with slope validation (the
//!   procedure behind the paper's Fig. 10);
//! * [`p1db`] — 1 dB compression extraction;
//! * [`convgain`] — −3 dB band edges of a conversion-gain curve;
//! * [`specs`] — the published Table I comparison rows and the paper's
//!   "This work" targets.
//!
//! # Examples
//!
//! Analytic receiver cascade:
//!
//! ```
//! use remix_rfkit::blocks::{Cascade, StageSpec};
//!
//! let rx = Cascade::new()
//!     .stage(StageSpec::ideal("gm", 20.0))
//!     .stage(StageSpec::ideal("quad", 2.0 / std::f64::consts::PI));
//! let cg = rx.conv_gain_db(2.45e9, 5e6);
//! assert!((cg - 22.1).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocks;
pub mod budget;
pub mod convgain;
pub mod ip3;
pub mod nonlin;
pub mod p1db;
pub mod specs;
pub mod twotone;
pub mod zsmodel;

pub use blocks::{Cascade, ChainProcessor, SampleProcessor, SignalDomain, StageSpec};
pub use budget::{budget_rows, budget_table, BudgetRow};
pub use convgain::band_edges_3db;
pub use ip3::{extract_ip3, spot_iip3_dbm, Ip3Result, Ip3Sweep};
pub use nonlin::{cascade_a_iip3, Poly3};
pub use p1db::extract_p1db;
pub use specs::{
    table1_literature, topo_family_rows, MixerSpecRow, PaperTargets, ACTIVE_TARGETS,
    PASSIVE_TARGETS,
};
pub use twotone::{TwoTonePlan, TwoToneReadout};
pub use zsmodel::{iip2_factor, iip3_factor, ImpedanceModel, SeriesRc, TiaInput};

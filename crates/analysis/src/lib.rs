//! # remix-analysis
//!
//! Analysis engines of the `remix` analog simulator, operating on
//! `remix-circuit` netlists:
//!
//! * [`op`] — nonlinear DC operating point (iterated companion
//!   linearization, damping, gmin stepping, source stepping);
//! * [`dcsweep`] — transfer-curve sweeps;
//! * [`ac`] — complex small-signal frequency sweeps;
//! * [`tran`] — implicit transient (trapezoidal / backward Euler) with
//!   per-step Newton and local sub-division;
//! * [`acnoise`] — SPICE-style LTI `.NOISE` with per-generator
//!   contributions;
//! * [`trannoise`] — Monte-Carlo sampled-noise transient, the substitute
//!   for PSS/PNOISE on the periodically switched mixer;
//! * [`power`] — supply power accounting.
//!
//! # Examples
//!
//! Operating point of a divider:
//!
//! ```
//! use remix_circuit::{Circuit, Waveform};
//! use remix_analysis::{dc_operating_point, OpOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
//! ckt.add_resistor("r1", vin, out, 1e3);
//! ckt.add_resistor("r2", out, Circuit::gnd(), 3e3);
//! let op = dc_operating_point(&ckt, &OpOptions::default())?;
//! assert!((op.voltage(out) - 0.9).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ac;
pub mod acnoise;
pub mod convergence;
pub mod dcsweep;
pub mod error;
pub mod fault;
pub mod op;
pub mod partial;
mod plan;
pub mod power;
pub mod pss;
pub mod report;
pub mod stamp;
pub mod tran;
pub mod trannoise;

pub use ac::{ac_sweep, log_space, AcResult};
pub use acnoise::{noise_sources, output_noise, NoiseKind, NoiseResult};
pub use convergence::{
    AttemptOutcome, ConvergencePolicy, ConvergenceTrace, StageAttempt, StageKind, TraceStage,
    ILL_CONDITION_RCOND,
};
pub use dcsweep::{dc_sweep, dc_sweep_partial, DcSweepResult};
pub use error::{AnalysisError, PartialProgress};
#[cfg(feature = "fault-inject")]
pub use fault::{active_plan, FaultGuard, FaultKind, FaultPlan};
pub use op::{dc_operating_point, dc_operating_point_dense, OpOptions, OperatingPoint};
pub use partial::{Interrupted, Partial};
pub use power::{supply_power, PowerReport};
pub use pss::{periodic_steady_state, PeriodicSteadyState, PssOptions};
pub use report::{bias_warnings, device_table, node_table};
pub use tran::{transient, transient_partial, TranOptions, TranResult};
pub use trannoise::{noise_transient, NoiseTranConfig};

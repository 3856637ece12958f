//! # remix-numerics
//!
//! Linear-algebra and numerical-methods substrate for the `remix` analog
//! circuit simulator (the from-scratch reproduction of the SOCC 2015
//! reconfigurable active/passive mixer).
//!
//! The crate is dependency-free and provides exactly what the simulation
//! stack above it needs:
//!
//! * [`Complex`] — complex arithmetic (AC/noise analyses solve over ℂ);
//! * [`Scalar`] — the field abstraction that lets one LU implementation
//!   serve both the real (DC/transient) and complex (AC) MNA systems;
//! * [`DenseMatrix`] / [`LuFactor`] — dense storage and LU with partial
//!   pivoting;
//! * [`TripletMatrix`] / [`CsrMatrix`] / [`StampPlan`] / [`SparseLu`] —
//!   sparse stamping (through a [`StampSink`]), compiled stamp plans that
//!   scatter a fixed stamp sequence straight into CSR slots, and a
//!   threshold-pivoting sparse LU;
//! * [`IntegrationMethod`] — companion-model coefficients for the
//!   transient engine;
//! * root finding ([`roots`]), least squares ([`fit`]), interpolation
//!   ([`interp`]) and statistics ([`stats`]) used by the RF measurement
//!   layer.
//!
//! # Examples
//!
//! Solving a small linear system:
//!
//! ```
//! use remix_numerics::{DenseMatrix, solve_dense};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = DenseMatrix::from_rows(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
//! let x = solve_dense(&a, &[2.0, 8.0])?;
//! assert_eq!(x, vec![1.0, 2.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod complex;
pub mod dense;
pub mod fit;
pub mod integrate;
pub mod interp;
pub mod lu;
pub mod roots;
pub mod scalar;
pub mod sparse;
pub mod stats;

pub use complex::Complex;
pub use dense::{vecops, DenseMatrix};
pub use fit::{fit_line, fit_line_fixed_slope, polyfit, Line};
pub use integrate::{CompanionCoeffs, IntegrationMethod};
pub use lu::{solve_dense, FactorError, LuFactor};
pub use roots::{bisect, brent, RootError};
pub use scalar::Scalar;
pub use sparse::{
    CsrMatrix, SlotCursor, SparseLu, SparseSolver, StampPlan, StampSink, TripletMatrix,
};

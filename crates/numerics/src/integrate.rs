//! Numerical integration support for transient analysis.
//!
//! SPICE-style transient analysis does not integrate an explicit ODE; it
//! replaces each reactive element by a *companion model* whose coefficients
//! depend on the integration method and step size. This module provides
//! those coefficients ([`IntegrationMethod::coeffs`]) for the transient
//! engine's fixed-grid stepper.

/// Implicit integration method used by the transient engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Backward Euler: L-stable, first order, damps numerical ringing.
    /// Used for the first step and after discontinuities.
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order, the SPICE default.
    #[default]
    Trapezoidal,
}

/// Companion-model coefficients for a capacitor `i = C·dv/dt`.
///
/// The discretized branch equation is `i_{n+1} = geq·v_{n+1} + ieq`, where
/// `ieq` collects history terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompanionCoeffs {
    /// Equivalent conductance multiplying the new value.
    pub geq_per_unit: f64,
    /// Weight of the previous value in the history current.
    pub hist_v: f64,
    /// Weight of the previous derivative (current) in the history term.
    pub hist_i: f64,
}

impl IntegrationMethod {
    /// Returns companion coefficients for step size `h`.
    ///
    /// For a capacitor `C`: `geq = C·geq_per_unit` and
    /// `ieq = -C·hist_v·v_n - hist_i·i_n`.
    ///
    /// * BE:   `i_{n+1} = (C/h)(v_{n+1} − v_n)`
    ///   → `geq = C/h`, `ieq = −(C/h)·v_n`
    /// * TRAP: `i_{n+1} = (2C/h)(v_{n+1} − v_n) − i_n`
    ///   → `geq = 2C/h`, `ieq = −(2C/h)·v_n − i_n`
    ///
    /// # Panics
    ///
    /// Panics if `h <= 0`.
    pub fn coeffs(self, h: f64) -> CompanionCoeffs {
        assert!(h > 0.0, "step size must be positive, got {h}");
        match self {
            IntegrationMethod::BackwardEuler => CompanionCoeffs {
                geq_per_unit: 1.0 / h,
                hist_v: 1.0 / h,
                hist_i: 0.0,
            },
            IntegrationMethod::Trapezoidal => CompanionCoeffs {
                geq_per_unit: 2.0 / h,
                hist_v: 2.0 / h,
                hist_i: 1.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_coeffs() {
        let c = IntegrationMethod::BackwardEuler.coeffs(0.5);
        assert_eq!(c.geq_per_unit, 2.0);
        assert_eq!(c.hist_v, 2.0);
        assert_eq!(c.hist_i, 0.0);
    }

    #[test]
    fn trap_coeffs() {
        let c = IntegrationMethod::Trapezoidal.coeffs(0.5);
        assert_eq!(c.geq_per_unit, 4.0);
        assert_eq!(c.hist_v, 4.0);
        assert_eq!(c.hist_i, 1.0);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn rejects_nonpositive_step() {
        let _ = IntegrationMethod::Trapezoidal.coeffs(0.0);
    }
}

//! The [`Scalar`] field abstraction.
//!
//! The MNA solver factors real matrices for DC/transient and complex
//! matrices for AC/noise. Instead of duplicating the LU code, the dense and
//! sparse factorizations are generic over this trait, which captures exactly
//! the field operations plus the magnitude used for pivoting.

use crate::complex::Complex;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A field scalar usable by the linear solvers.
///
/// Implemented for `f64` and [`Complex`]. The trait is sealed in spirit —
/// downstream crates have no reason to implement it — but is left open so
/// tests can use wrapper types if needed.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds a real number into the field.
    fn from_f64(x: f64) -> Self;
    /// Magnitude used for pivot selection and convergence tests.
    fn magnitude(self) -> f64;
    /// `true` if all components are finite.
    fn is_finite_scalar(self) -> bool;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex {
    #[inline]
    fn zero() -> Self {
        Complex::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex::from_re(x)
    }
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        let two = T::from_f64(2.0);
        assert_eq!(two + T::zero(), two);
        assert_eq!(two * T::one(), two);
        assert_eq!((two - (T::one() + T::one())).magnitude(), 0.0);
        assert!((two.magnitude() - 2.0).abs() < 1e-15);
        assert!(two.is_finite_scalar());
    }

    #[test]
    fn f64_field() {
        roundtrip::<f64>();
    }

    #[test]
    fn complex_field() {
        roundtrip::<Complex>();
        assert!((Complex::new(3.0, 4.0).magnitude() - 5.0).abs() < 1e-15);
    }
}

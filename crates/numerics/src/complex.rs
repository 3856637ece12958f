//! Complex arithmetic.
//!
//! The offline dependency set has no `num-complex`, so the simulator carries
//! its own minimal-but-complete complex type. It is used pervasively by the
//! AC and noise analyses, where the MNA system is solved over ℂ.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use remix_numerics::Complex;
///
/// let j = Complex::I;
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((j * j).re, -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    ///
    /// ```
    /// use remix_numerics::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude (modulus) `|z|`, computed with `hypot` for robustness.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`; avoids the square root of [`abs`](Self::abs).
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z == 0`, mirroring `1.0 / 0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Complex::new(self.abs().ln(), self.arg())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex::ONE;
        }
        let invert = n < 0;
        if invert {
            n = -n;
        }
        let mut base = self;
        let mut acc = Complex::ONE;
        let mut e = n as u32;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        if invert {
            acc.recip()
        } else {
            acc
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    /// Smith's algorithm: scales to avoid intermediate overflow/underflow.
    fn div(self, rhs: Complex) -> Complex {
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Add<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self + rhs.re, rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(1.5, -2.25);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z + (-z), Complex::ZERO));
        assert!(close(z * z.recip(), Complex::ONE));
        assert!(close(z / z, Complex::ONE));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 4.0);
        // (2+3j)(-1+4j) = -2 + 8j - 3j + 12 j^2 = -14 + 5j
        assert!(close(a * b, Complex::new(-14.0, 5.0)));
    }

    #[test]
    fn division_smith_robustness() {
        // Components near overflow would break the naive formula.
        let big = 1e300;
        let a = Complex::new(big, big);
        let b = Complex::new(big, big);
        let q = a / b;
        assert!(close(q, Complex::ONE));
    }

    #[test]
    fn conj_abs_arg() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
        assert!((Complex::I.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-1.0, 2.0);
        let w = Complex::from_polar(z.abs(), z.arg());
        assert!(close(z, w));
    }

    #[test]
    fn exp_and_ln() {
        // Euler: e^{jπ} = -1
        let e = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!(close(e, Complex::new(-1.0, 0.0)));
        let z = Complex::new(0.5, 1.25);
        assert!(close(z.ln().exp(), z));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (1.0, 1.0), (-3.0, -7.0)] {
            let z = Complex::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z), "sqrt({z}) = {s}");
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(1.1, -0.3);
        let mut acc = Complex::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc), "n = {n}");
            acc *= z;
        }
        assert!(close(z.powi(-3), (z * z * z).recip()));
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert!(close(total, Complex::new(6.0, 4.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn mixed_real_ops() {
        let z = Complex::new(1.0, 1.0);
        assert!(close(z * 2.0, Complex::new(2.0, 2.0)));
        assert!(close(2.0 * z, Complex::new(2.0, 2.0)));
        assert!(close(z + 1.0, Complex::new(2.0, 1.0)));
        assert!(close(1.0 + z, Complex::new(2.0, 1.0)));
        assert!(close(z - 1.0, Complex::new(0.0, 1.0)));
        assert!(close(z / 2.0, Complex::new(0.5, 0.5)));
    }

    #[test]
    fn finiteness() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::INFINITY).is_finite());
    }
}

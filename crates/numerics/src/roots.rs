//! Scalar root finding.
//!
//! Used by the RF measurement layer, e.g. locating the 1 dB compression
//! point (where gain drops exactly 1 dB below its small-signal value) on a
//! swept-power curve.

use std::error::Error;
use std::fmt;

/// Error from the bracketing root finders.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign, so no root is bracketed.
    NotBracketed {
        /// Function value at the left endpoint.
        fa: f64,
        /// Function value at the right endpoint.
        fb: f64,
    },
    /// The iteration budget was exhausted before reaching the tolerance.
    NoConvergence {
        /// Best estimate when iteration stopped.
        best: f64,
    },
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootError::NotBracketed { fa, fb } => {
                write!(f, "root not bracketed: f(a) = {fa:.3e}, f(b) = {fb:.3e}")
            }
            RootError::NoConvergence { best } => {
                write!(
                    f,
                    "root finding did not converge (best estimate {best:.6e})"
                )
            }
        }
    }
}

impl Error for RootError {}

/// Bisection on `[a, b]` to absolute tolerance `xtol`.
///
/// # Errors
///
/// [`RootError::NotBracketed`] if `f(a)·f(b) > 0`.
// audit: allow(AUD010): the reference baseline whose evaluation count `brent_matches_bisect_but_faster` must beat.
pub fn bisect<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, xtol: f64) -> Result<f64, RootError> {
    let (mut lo, mut hi) = (a.min(b), a.max(b));
    let (mut flo, fhi) = (f(lo), f(hi));
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo * fhi > 0.0 {
        return Err(RootError::NotBracketed { fa: flo, fb: fhi });
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid == 0.0 || (hi - lo) * 0.5 < xtol {
            return Ok(mid);
        }
        if flo * fmid < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Brent's method: bisection safety with inverse-quadratic acceleration.
///
/// # Errors
///
/// [`RootError::NotBracketed`] if `f(a)·f(b) > 0`;
/// [`RootError::NoConvergence`] after 100 iterations.
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, xtol: f64) -> Result<f64, RootError> {
    let (mut a, mut b) = (a, b);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(RootError::NotBracketed { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0;

    for _ in 0..100 {
        if fb == 0.0 || (b - a).abs() < xtol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let cond1 = !((lo.min(b) < s) && (s < lo.max(b)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < xtol;
        let cond5 = !mflag && (c - d).abs() < xtol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::NoConvergence { best: b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - 2f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_root() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_not_bracketed() {
        match bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9) {
            Err(RootError::NotBracketed { .. }) => {}
            other => panic!("expected NotBracketed, got {other:?}"),
        }
    }

    #[test]
    fn brent_matches_bisect_but_faster() {
        let mut evals_brent = 0;
        let r1 = brent(
            |x| {
                evals_brent += 1;
                x.cos() - x
            },
            0.0,
            1.0,
            1e-13,
        )
        .unwrap();
        let mut evals_bisect = 0;
        let r2 = bisect(
            |x| {
                evals_bisect += 1;
                x.cos() - x
            },
            0.0,
            1.0,
            1e-13,
        )
        .unwrap();
        assert!((r1 - r2).abs() < 1e-10);
        assert!(
            evals_brent < evals_bisect,
            "brent {evals_brent} vs bisect {evals_bisect}"
        );
    }

    #[test]
    fn brent_high_order_polynomial() {
        let r = brent(|x| (x - 0.3).powi(3), 0.0, 1.0, 1e-12).unwrap();
        assert!((r - 0.3).abs() < 1e-5);
    }

    #[test]
    fn brent_not_bracketed() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9),
            Err(RootError::NotBracketed { .. })
        ));
    }

    #[test]
    fn error_display() {
        assert!(RootError::NotBracketed { fa: 1.0, fb: 2.0 }
            .to_string()
            .contains("not bracketed"));
        assert!(RootError::NoConvergence { best: 0.5 }
            .to_string()
            .contains("did not converge"));
    }
}

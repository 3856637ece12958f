//! Dense LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! One code path factors the real DC/transient Jacobians and the complex AC
//! system matrices. The factorization is separated from the solve so a
//! factored operating-point Jacobian can be reused across right-hand sides
//! (e.g. per-noise-source transfer solves).

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;
use std::error::Error;
use std::fmt;

/// Error produced when a matrix cannot be factored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// A pivot smaller than the singularity threshold was encountered at the
    /// given elimination step; the matrix is singular to working precision.
    Singular {
        /// Elimination step (row/column index) where factorization failed.
        step: usize,
    },
    /// The matrix contained a non-finite entry.
    NotFinite,
    /// The matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            FactorError::NotFinite => write!(f, "matrix contains a non-finite entry"),
            FactorError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
        }
    }
}

impl Error for FactorError {}

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use remix_numerics::{DenseMatrix, LuFactor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
/// let lu = LuFactor::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor<T> {
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above).
    lu: DenseMatrix<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Largest |a_ij| of the factored matrix (for pivot-growth estimates).
    scale: f64,
}

/// Relative pivot threshold below which the matrix is declared singular.
const SINGULARITY_RTOL: f64 = 1e-13;

impl<T: Scalar> LuFactor<T> {
    /// Factors `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotSquare`] for non-square input,
    /// [`FactorError::NotFinite`] if any entry is NaN/∞, and
    /// [`FactorError::Singular`] when a pivot underflows the scaled
    /// singularity threshold.
    pub fn factor(a: &DenseMatrix<T>) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(FactorError::NotFinite);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = lu.max_abs().max(f64::MIN_POSITIVE);

        for k in 0..n {
            // Partial pivoting: pick the row with the largest magnitude in
            // column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].magnitude();
            for r in (k + 1)..n {
                let m = lu[(r, k)].magnitude();
                if m > pivot_mag {
                    pivot_mag = m;
                    pivot_row = r;
                }
            }
            if pivot_mag <= SINGULARITY_RTOL * scale {
                return Err(FactorError::Singular { step: k });
            }
            if pivot_row != k {
                lu.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                if factor == T::zero() {
                    continue;
                }
                for c in (k + 1)..n {
                    let ukc = lu[(k, c)];
                    lu[(r, c)] -= factor * ukc;
                }
            }
        }

        remix_telemetry::counter_add(remix_telemetry::names::LU_FACTORIZATIONS, 1);
        Ok(LuFactor { lu, perm, scale })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotFinite`] if `b` contains non-finite entries.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, FactorError> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        if !b.iter().all(|v| v.is_finite_scalar()) {
            return Err(FactorError::NotFinite);
        }
        // Apply permutation.
        let mut x: Vec<T> = (0..n).map(|i| b[self.perm[i]]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * *xj;
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * *xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Crude reciprocal condition estimate from the pivot magnitudes:
    /// `min |Uᵢᵢ| / max |Uᵢᵢ|`. Cheap and sufficient for detecting
    /// near-singular circuit matrices (floating nodes, broken loops).
    pub fn rcond_estimate(&self) -> f64 {
        let mags: Vec<f64> = (0..self.dim())
            .map(|i| self.lu[(i, i)].magnitude())
            .collect();
        let max = mags.iter().cloned().fold(0.0, f64::max);
        let min = mags.iter().cloned().fold(f64::INFINITY, f64::min);
        if max == 0.0 {
            0.0
        } else {
            min / max
        }
    }

    /// Reciprocal pivot growth `max |aᵢⱼ| / max |uᵢⱼ|`: values far below
    /// one mean elimination amplified entries beyond the original matrix
    /// scale, i.e. the factorization is numerically suspect even though
    /// every pivot cleared the singularity threshold.
    pub fn recip_pivot_growth(&self) -> f64 {
        let n = self.dim();
        let mut umax = 0.0f64;
        for r in 0..n {
            for c in r..n {
                umax = umax.max(self.lu[(r, c)].magnitude());
            }
        }
        if umax == 0.0 {
            0.0
        } else {
            (self.scale / umax).min(1.0)
        }
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates [`FactorError`] from factorization or solve.
pub fn solve_dense<T: Scalar>(a: &DenseMatrix<T>, b: &[T]) -> Result<Vec<T>, FactorError> {
    LuFactor::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::dense::vecops;

    #[test]
    fn solves_known_3x3() {
        let a = DenseMatrix::from_rows(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let b = [8.0, -11.0, -3.0];
        let x = solve_dense(&a, &b).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 forces a row swap.
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_dense(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Deterministic pseudo-random fill (LCG) to avoid dev-dep here.
        let n = 12;
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DenseMatrix::<f64>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += 4.0; // diagonally dominant => well-conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve_dense(&a, &b).unwrap();
        let r = vecops::sub(&a.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-10);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        match LuFactor::factor(&a) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn detects_not_finite() {
        let a = DenseMatrix::from_rows(1, 1, vec![f64::NAN]);
        match LuFactor::factor(&a) {
            Err(FactorError::NotFinite) => {}
            other => panic!("expected NotFinite, got {other:?}"),
        }
    }

    #[test]
    fn detects_not_square() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        match LuFactor::factor(&a) {
            Err(FactorError::NotSquare { rows: 2, cols: 3 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn complex_system() {
        // (1+j)·x = 2 => x = 1 - j
        let mut a = DenseMatrix::<Complex>::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let x = solve_dense(&a, &[Complex::from_re(2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_2x2_with_pivot() {
        let a = DenseMatrix::from_rows(
            2,
            2,
            vec![
                Complex::new(1e-16, 0.0),
                Complex::ONE,
                Complex::ONE,
                Complex::I,
            ],
        );
        let b = [Complex::ONE, Complex::ZERO];
        let x = solve_dense(&a, &b).unwrap();
        let ax = a.mat_vec(&x);
        assert!((ax[0] - b[0]).abs() < 1e-10);
        assert!((ax[1] - b[1]).abs() < 1e-10);
    }

    #[test]
    fn rcond_flags_bad_conditioning() {
        let good = DenseMatrix::<f64>::identity(3);
        assert!(LuFactor::factor(&good).unwrap().rcond_estimate() > 0.9);
        let mut bad = DenseMatrix::<f64>::identity(3);
        bad[(2, 2)] = 1e-12;
        assert!(LuFactor::factor(&bad).unwrap().rcond_estimate() < 1e-10);
    }

    #[test]
    fn pivot_growth_benign_on_dominant_system() {
        let a = DenseMatrix::from_rows(2, 2, vec![4.0, 1.0, 2.0, 3.0]);
        let g = LuFactor::factor(&a).unwrap().recip_pivot_growth();
        assert!(g > 0.5 && g <= 1.0, "growth {g}");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FactorError::Singular { step: 3 }.to_string(),
            "matrix is singular at elimination step 3"
        );
        assert!(FactorError::NotSquare { rows: 2, cols: 3 }
            .to_string()
            .contains("2x3"));
    }
}

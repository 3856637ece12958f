//! Dense row-major matrices over a [`Scalar`] field.
//!
//! Circuit matrices in this project are small (tens of unknowns), so a dense
//! matrix is the workhorse representation; the sparse solver in
//! [`crate::sparse`] is validated against it.

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix.
///
/// # Examples
///
/// ```
/// use remix_numerics::DenseMatrix;
///
/// let mut a = DenseMatrix::<f64>::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// let x = a.mat_vec(&[3.0, 4.0]);
/// assert_eq!(x, vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Sets every entry to zero, retaining the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::zero();
        }
    }

    /// Adds `value` to entry `(r, c)` — the fundamental MNA "stamp" op.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, value: T) {
        self[(r, c)] += value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mat_vec");
        let mut y = vec![T::zero(); self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = T::zero();
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *yr = acc;
        }
        y
    }

    /// Maximum magnitude over all entries (∞-style element norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.magnitude()).fold(0.0, f64::max)
    }

    /// Row-sum norm ‖A‖∞.
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|v| v.magnitude())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite_scalar())
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Display for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Dense vector helpers used throughout the analyses.
pub mod vecops {
    use crate::scalar::Scalar;

    /// Maximum magnitude.
    pub fn norm_inf<T: Scalar>(x: &[T]) -> f64 {
        x.iter().map(|v| v.magnitude()).fold(0.0, f64::max)
    }

    /// Element-wise subtraction `a - b`.
    pub fn sub<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(x, y)| *x - *y).collect()
    }

    /// Inner product `Σ aᵢ·bᵢ` (unconjugated).
    pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
        assert_eq!(a.len(), b.len());
        let mut acc = T::zero();
        for (x, y) in a.iter().zip(b.iter()) {
            acc += *x * *y;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::vecops::*;
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn identity_mat_vec() {
        let i = DenseMatrix::<f64>::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i.mat_vec(&x), x);
    }

    #[test]
    fn swap_rows_permutes() {
        let mut a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.swap_rows(0, 1);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.norm_inf(), 7.0);
    }

    #[test]
    fn complex_mat_vec() {
        let mut a = DenseMatrix::<Complex>::zeros(2, 2);
        a[(0, 0)] = Complex::I;
        a[(1, 1)] = Complex::new(2.0, 0.0);
        let y = a.mat_vec(&[Complex::ONE, Complex::I]);
        assert_eq!(y[0], Complex::I);
        assert_eq!(y[1], Complex::new(0.0, 2.0));
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = DenseMatrix::<f64>::zeros(2, 2);
        a.add_at(0, 0, 1.5);
        a.add_at(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 4.0);
    }

    #[test]
    fn clear_retains_shape() {
        let mut a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.clear();
        assert_eq!(a, DenseMatrix::zeros(2, 2));
    }

    #[test]
    fn vec_helpers() {
        assert_eq!(norm_inf(&[1.0, -7.0, 2.0]), 7.0);
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 1.0]), vec![2.0, 1.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mat_vec_dimension_check() {
        let a = DenseMatrix::<f64>::zeros(2, 2);
        let _ = a.mat_vec(&[1.0]);
    }

    #[test]
    fn finiteness_detection() {
        let mut a = DenseMatrix::<f64>::zeros(1, 1);
        assert!(a.is_finite());
        a[(0, 0)] = f64::NAN;
        assert!(!a.is_finite());
    }
}

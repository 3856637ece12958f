//! Least-squares fitting.
//!
//! IIP3/IIP2 extraction fits lines of fixed or free slope to the
//! fundamental and intermodulation responses (in dB) and intersects them;
//! this module provides those fits plus a general polynomial fit used for
//! curve post-processing.

use crate::dense::DenseMatrix;
use crate::lu::{solve_dense, FactorError};

/// A fitted straight line `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Slope of the fitted line.
    pub slope: f64,
    /// y-intercept of the fitted line.
    pub intercept: f64,
}

impl Line {
    /// Evaluates the line at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// x-coordinate where two lines intersect, or `None` if parallel.
    pub fn intersect_x(&self, other: &Line) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds.abs() < 1e-12 {
            None
        } else {
            Some((other.intercept - self.intercept) / ds)
        }
    }
}

/// Ordinary least-squares line fit.
///
/// # Panics
///
/// Panics if fewer than 2 points or mismatched lengths.
pub fn fit_line(x: &[f64], y: &[f64]) -> Line {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Line { slope, intercept }
}

/// Least-squares fit of a line with *fixed* slope (only the intercept is
/// free). This is how intercept-point extrapolation is done in practice:
/// the fundamental is forced to slope 1 and IM3 to slope 3 in the
/// well-behaved (small-signal) region.
pub fn fit_line_fixed_slope(x: &[f64], y: &[f64], slope: f64) -> Line {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(!x.is_empty(), "need at least one point");
    let n = x.len() as f64;
    let intercept = (y.iter().sum::<f64>() - slope * x.iter().sum::<f64>()) / n;
    Line { slope, intercept }
}

/// Coefficient of determination R² for a fitted line.
pub fn r_squared(x: &[f64], y: &[f64], line: &Line) -> f64 {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(xi, yi)| (yi - line.eval(*xi)).powi(2))
        .sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Least-squares polynomial fit of the given degree via normal equations.
///
/// Returns coefficients `c[0] + c[1]·x + … + c[deg]·x^deg`.
///
/// # Errors
///
/// Returns [`FactorError`] when the normal equations are singular (e.g.
/// duplicate abscissae with degree too high).
///
/// # Panics
///
/// Panics if `x.len() != y.len()` or fewer than `deg + 1` points.
pub fn polyfit(x: &[f64], y: &[f64], deg: usize) -> Result<Vec<f64>, FactorError> {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() > deg, "need more points than the degree");
    let m = deg + 1;
    let mut ata = DenseMatrix::<f64>::zeros(m, m);
    let mut atb = vec![0.0; m];
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        // Row of the Vandermonde matrix for xi.
        let mut pow = vec![1.0; m];
        for k in 1..m {
            pow[k] = pow[k - 1] * xi;
        }
        for r in 0..m {
            atb[r] += pow[r] * yi;
            for c in 0..m {
                ata[(r, c)] += pow[r] * pow[c];
            }
        }
    }
    solve_dense(&ata, &atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v - 1.0).collect();
        let l = fit_line(&x, &y);
        assert!((l.slope - 2.5).abs() < 1e-12);
        assert!((l.intercept + 1.0).abs() < 1e-12);
        assert!((r_squared(&x, &y, &l) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_fit_reasonable() {
        let x: Vec<f64> = (0..20).map(|k| k as f64).collect();
        // y = 3x + 1 with deterministic ±0.1 "noise".
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(k, v)| 3.0 * v + 1.0 + if k % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let l = fit_line(&x, &y);
        assert!((l.slope - 3.0).abs() < 0.01);
        assert!(r_squared(&x, &y, &l) > 0.999);
    }

    #[test]
    fn fixed_slope_fit() {
        // Points on y = 3x + 2 fitted with slope forced to 3.
        let x = [1.0, 2.0, 3.0];
        let y = [5.0, 8.0, 11.0];
        let l = fit_line_fixed_slope(&x, &y, 3.0);
        assert!((l.intercept - 2.0).abs() < 1e-12);
    }

    #[test]
    fn intercept_point_geometry() {
        // Fundamental: slope 1 through (0, -10); IM3: slope 3 through (0, -50).
        // Intersection: x where x - 10 = 3x - 50 → x = 20.
        let fund = Line {
            slope: 1.0,
            intercept: -10.0,
        };
        let im3 = Line {
            slope: 3.0,
            intercept: -50.0,
        };
        let ip = fund.intersect_x(&im3).unwrap();
        assert!((ip - 20.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_lines_no_intersection() {
        let a = Line {
            slope: 1.0,
            intercept: 0.0,
        };
        let b = Line {
            slope: 1.0,
            intercept: 5.0,
        };
        assert!(a.intersect_x(&b).is_none());
    }

    #[test]
    fn polyfit_recovers_cubic() {
        let x: Vec<f64> = (0..10).map(|k| k as f64 * 0.3 - 1.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 - 2.0 * v + 0.5 * v * v * v).collect();
        let c = polyfit(&x, &y, 3).unwrap();
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[1] + 2.0).abs() < 1e-9);
        assert!(c[2].abs() < 1e-9);
        assert!((c[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fit_line_length_check() {
        let _ = fit_line(&[1.0], &[1.0, 2.0]);
    }
}

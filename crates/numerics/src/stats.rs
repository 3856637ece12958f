//! Small statistics helpers used by noise post-processing.

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mean of empty slice");
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn variance(x: &[f64]) -> f64 {
    let m = mean(x);
    x.iter().map(|v| (v - m).powi(2)).sum::<f64>() / x.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert_eq!(variance(&x), 1.25);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_empty_panics() {
        let _ = mean(&[]);
    }
}

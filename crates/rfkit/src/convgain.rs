//! Conversion-gain measurement.
//!
//! Conversion gain of a down-converter is the ratio of the IF output
//! amplitude to the RF input amplitude, in dB. This module finds the
//! −3 dB band edges of a measured gain curve.

/// The −3 dB band edges of a gain curve `(freqs, gain_db)`.
///
/// Returns `(low_edge, high_edge)`; either may be `None` when the curve
/// never drops 3 dB below its peak on that side.
pub fn band_edges_3db(freqs: &[f64], gain_db: &[f64]) -> (Option<f64>, Option<f64>) {
    assert_eq!(freqs.len(), gain_db.len());
    let (peak_idx, peak) = remix_numerics::interp::argmax(gain_db);
    let target = peak - 3.0;
    let low = if peak_idx > 0 {
        remix_numerics::interp::last_crossing(&freqs[..=peak_idx], &gain_db[..=peak_idx], target)
    } else {
        None
    };
    let high = if peak_idx + 1 < freqs.len() {
        remix_numerics::interp::first_crossing(&freqs[peak_idx..], &gain_db[peak_idx..], target)
    } else {
        None
    };
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_edges_of_bandpass_curve() {
        let freqs = [1e9, 2e9, 3e9, 4e9, 5e9, 6e9];
        let gain = [20.0, 28.0, 29.0, 29.0, 26.5, 20.0];
        let (lo, hi) = band_edges_3db(&freqs, &gain);
        let lo = lo.unwrap();
        let hi = hi.unwrap();
        assert!(lo > 1e9 && lo < 2e9, "lo = {lo:.3e}");
        assert!(hi > 5e9 && hi < 6e9, "hi = {hi:.3e}");
    }

    #[test]
    fn band_edges_monotone_curve() {
        // Monotonically falling: no low edge, a high edge.
        let freqs = [1.0, 2.0, 3.0];
        let gain = [10.0, 5.0, 0.0];
        let (lo, hi) = band_edges_3db(&freqs, &gain);
        assert!(lo.is_none());
        assert!((hi.unwrap() - 1.6).abs() < 1e-9);
    }
}

//! RF unit conversions.
//!
//! The measurement layer traffics in dB quantities referenced to different
//! bases (dBm into 50 Ω, plain power and amplitude ratios).

/// Reference impedance for power conversions (Ω).
pub const Z0: f64 = 50.0;

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380649e-23;

/// Standard noise-figure reference temperature (K).
pub const T0: f64 = 290.0;

/// Converts decibels to a power ratio.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts decibels to an amplitude ratio.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Watts → dBm.
#[inline]
pub fn watts_to_dbm(w: f64) -> f64 {
    10.0 * (w / 1e-3).log10()
}

/// dBm → watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    1e-3 * 10f64.powf(dbm / 10.0)
}

/// Peak sinusoid amplitude (V) into `z` ohms → dBm.
///
/// `P = Vpk²/(2·z)`.
#[inline]
pub fn vpeak_to_dbm(vpk: f64, z: f64) -> f64 {
    watts_to_dbm(vpk * vpk / (2.0 * z))
}

/// dBm → peak sinusoid amplitude (V) into `z` ohms.
#[inline]
pub fn dbm_to_vpeak(dbm: f64, z: f64) -> f64 {
    (2.0 * z * dbm_to_watts(dbm)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrips() {
        assert!((db_to_ratio(3.0) - 1.995).abs() < 1e-2);
        assert!((db_to_amplitude(6.0) - 1.995).abs() < 1e-2);
        for db in [-30.0, 0.0, 12.5] {
            assert!((10.0 * db_to_ratio(db).log10() - db).abs() < 1e-12);
            assert!((20.0 * db_to_amplitude(db).log10() - db).abs() < 1e-12);
        }
    }

    #[test]
    fn dbm_watts() {
        assert!((watts_to_dbm(1e-3) - 0.0).abs() < 1e-12);
        assert!((watts_to_dbm(1.0) - 30.0).abs() < 1e-12);
        assert!((dbm_to_watts(0.0) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn dbm_vpeak_50ohm() {
        // 0 dBm into 50 Ω: Vpk = sqrt(2·50·1mW) = 0.3162 V.
        let v = dbm_to_vpeak(0.0, Z0);
        assert!((v - 0.31622776601683794).abs() < 1e-12);
        assert!((vpeak_to_dbm(v, Z0) - 0.0).abs() < 1e-12);
    }
}

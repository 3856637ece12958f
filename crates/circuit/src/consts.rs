//! Physical constants used by device models and noise analyses.

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380649e-23;

/// Default simulation temperature (K).
pub const ROOM_TEMP: f64 = 300.0;

/// Noise-figure reference temperature (K).
pub const T0_NOISE: f64 = 290.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_kt_magnitude() {
        // 4kT at 300 K ≈ 1.657e-20 J — the factor in every thermal PSD.
        let four_kt = 4.0 * BOLTZMANN * ROOM_TEMP;
        assert!((four_kt - 1.6568e-20).abs() < 1e-23);
    }
}

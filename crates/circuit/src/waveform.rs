//! Time-domain source waveforms (SPICE-style).

/// The time-domain behaviour of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Sinusoid `offset + amplitude·sin(2πf(t−delay) + phase)` for
    /// `t ≥ delay`, `offset` before.
    Sin {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Phase in radians applied at `t = delay`.
        phase: f64,
        /// Start delay in seconds.
        delay: f64,
    },
    /// Trapezoidal pulse train (SPICE PULSE).
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Rise time (s), must be > 0.
        rise: f64,
        /// Fall time (s), must be > 0.
        fall: f64,
        /// Pulse width at `v2` (s).
        width: f64,
        /// Repetition period (s); `f64::INFINITY` for single-shot.
        period: f64,
    },
    /// Piece-wise linear: sorted `(t, v)` pairs, clamped outside.
    Pwl(Vec<(f64, f64)>),
    /// Sum of two sinusoids — the two-tone stimulus
    /// `offset + a·sin(2πf₁t) + a·sin(2πf₂t)`.
    TwoTone {
        /// DC offset.
        offset: f64,
        /// Per-tone peak amplitude.
        amplitude: f64,
        /// First tone (Hz).
        f1: f64,
        /// Second tone (Hz).
        f2: f64,
    },
}

impl Waveform {
    /// Sinusoid with zero offset/phase/delay.
    pub fn sine(amplitude: f64, freq: f64) -> Self {
        Waveform::Sin {
            offset: 0.0,
            amplitude,
            freq,
            phase: 0.0,
            delay: 0.0,
        }
    }

    /// Value at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Sin {
                offset,
                amplitude,
                freq,
                phase,
                delay,
            } => {
                if t < delay {
                    offset
                } else {
                    offset
                        + amplitude
                            * (2.0 * std::f64::consts::PI * freq * (t - delay) + phase).sin()
                }
            }
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < delay {
                    return v1;
                }
                let tl = if period.is_finite() {
                    (t - delay) % period
                } else {
                    t - delay
                };
                if tl < rise {
                    v1 + (v2 - v1) * tl / rise
                } else if tl < rise + width {
                    v2
                } else if tl < rise + width + fall {
                    v2 + (v1 - v2) * (tl - rise - width) / fall
                } else {
                    v1
                }
            }
            Waveform::Pwl(ref pts) => {
                if pts.is_empty() {
                    return 0.0;
                }
                if t <= pts[0].0 {
                    return pts[0].1;
                }
                if t >= pts[pts.len() - 1].0 {
                    return pts[pts.len() - 1].1;
                }
                // Binary search for the enclosing segment — PWL noise
                // paths can hold tens of thousands of points and this is
                // evaluated every Newton iteration.
                let i = pts.partition_point(|&(ti, _)| ti < t);
                let (t0, v0) = pts[i - 1];
                let (t1, v1) = pts[i];
                let frac = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
                v0 + frac * (v1 - v0)
            }
            Waveform::TwoTone {
                offset,
                amplitude,
                f1,
                f2,
            } => {
                let w = 2.0 * std::f64::consts::PI;
                offset + amplitude * ((w * f1 * t).sin() + (w * f2 * t).sin())
            }
        }
    }

    /// DC (t → −∞ operating point) value: the value used by the DC and AC
    /// operating-point analyses.
    pub fn dc_value(&self) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Sin { offset, .. } => offset,
            Waveform::Pulse { v1, .. } => v1,
            Waveform::Pwl(ref pts) => pts.first().map_or(0.0, |p| p.1),
            Waveform::TwoTone { offset, .. } => offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_constant() {
        let w = Waveform::Dc(1.2);
        assert_eq!(w.eval(0.0), 1.2);
        assert_eq!(w.eval(1e9), 1.2);
        assert_eq!(w.dc_value(), 1.2);
    }

    #[test]
    fn sine_evaluation() {
        let w = Waveform::sine(2.0, 1.0);
        assert!((w.eval(0.25) - 2.0).abs() < 1e-12); // sin(π/2)
        assert!(w.eval(0.0).abs() < 1e-12);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn sine_with_delay_and_offset() {
        let w = Waveform::Sin {
            offset: 0.6,
            amplitude: 1.0,
            freq: 1.0,
            phase: 0.0,
            delay: 1.0,
        };
        assert_eq!(w.eval(0.5), 0.6); // before delay
        assert!((w.eval(1.25) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.2,
            width: 0.5,
            period: 2.0,
        };
        assert_eq!(w.eval(0.5), 0.0);
        assert!((w.eval(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.eval(1.3), 1.0); // flat top
        assert!((w.eval(1.7) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.eval(1.9), 0.0); // back to v1
        assert_eq!(w.eval(3.3), 1.0); // periodic repeat (t-delay = 2.3 → 0.3)
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn pwl_interpolation() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.5), 1.0);
        assert_eq!(w.eval(1.5), 1.5);
        assert_eq!(w.eval(3.0), 1.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn two_tone_sum() {
        let w = Waveform::TwoTone {
            offset: 0.5,
            amplitude: 0.1,
            f1: 10.0,
            f2: 11.0,
        };
        let t = 0.013;
        let pi2 = 2.0 * std::f64::consts::PI;
        let expect = 0.5 + 0.1 * ((pi2 * 10.0 * t).sin() + (pi2 * 11.0 * t).sin());
        assert!((w.eval(t) - expect).abs() < 1e-12);
        assert_eq!(w.dc_value(), 0.5);
    }

    #[test]
    fn empty_pwl_is_zero() {
        let w = Waveform::Pwl(vec![]);
        assert_eq!(w.eval(1.0), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }
}

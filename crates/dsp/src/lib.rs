//! # remix-dsp
//!
//! Signal-processing substrate for the `remix` analog simulator: FFT,
//! window functions, PSD estimation, single-bin tone measurement, stimulus
//! generation, and RF unit types.
//!
//! Everything an RF measurement flow needs to turn simulated waveforms
//! into numbers:
//!
//! * [`fft`] — iterative radix-2 FFT with real-signal helpers;
//! * [`window`] — Hann / Blackman–Harris / flat-top with coherent gain;
//! * [`psd`] — periodogram and Welch PSD estimation;
//! * [`tone`] — Goertzel single-bin readout and coherent-sampling plans
//!   (every tone lands exactly on a bin, no leakage);
//! * [`signal`] — tones, LO square waves, a white noise process;
//! * [`units`] — dB and dBm conversions.
//!
//! # Examples
//!
//! Measuring a tone that was placed exactly on a bin:
//!
//! ```
//! use remix_dsp::{signal, tone::CoherentPlan, tone::goertzel_amplitude};
//!
//! let plan = CoherentPlan::new(&[5e6], 1024, 1e6).unwrap();
//! let x = signal::tone(0.5, plan.tone_frequency(0), 0.0, plan.fs, plan.n);
//! let a = goertzel_amplitude(&x, plan.bins[0], plan.n);
//! assert!((a - 0.5).abs() < 1e-10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fft;
pub mod psd;
pub mod signal;
pub mod spectrum;
pub mod tone;
pub mod units;
pub mod window;

pub use fft::{amplitude_spectrum, fft_real};
pub use psd::{periodogram, welch, Psd};
pub use spectrum::Spectrum;
pub use tone::{goertzel_amplitude, tone_amplitude, CoherentPlan};
pub use window::Window;

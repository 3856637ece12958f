//! Behavioral receiver blocks.
//!
//! Two complementary views of a receiver chain (see DESIGN.md §1,
//! "Modeling strategy"):
//!
//! 1. **Analytic specs** ([`StageSpec`] / [`Cascade`]): per-stage linear
//!    gain, single pole, input-referred noise (white + 1/f corner) and
//!    IIP3. Friis-style cascade formulas produce gain/NF/IIP3 curves in
//!    microseconds — these drive the paper-figure sweeps.
//! 2. **Sample processors** ([`SampleProcessor`] implementations): the
//!    same stages as time-domain operators (polynomial nonlinearity,
//!    one-pole filters, LO multiplication). Two-tone and compression
//!    measurements run the actual stimulus through these, and their
//!    results must agree with the analytic view — a cross-check the test
//!    suite enforces.
//!
//! Stage parameters are *extracted* from the transistor-level circuits in
//! `remix-core` (gm from the DC operating point, poles from AC sweeps,
//! switch resistance from triode-region evaluation).

use crate::nonlin::{cascade_a_iip3, Poly3};
use remix_circuit::consts::{BOLTZMANN, T0_NOISE};

/// Which frequency a stage's pole acts on in a down-converting chain.
///
/// Stages ahead of the switching quad process the signal at the RF; the
/// quad and everything after it process the IF. A stage's single pole is
/// evaluated at the frequency of its own domain, which is what lets one
/// cascade model produce both the paper's Fig. 8 (gain vs *RF*) and
/// Fig. 9 (gain/NF vs *IF*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalDomain {
    /// Pole acts on the RF carrier frequency.
    Rf,
    /// Pole acts on the IF (post-commutation) frequency.
    If,
}

/// Analytic description of one cascade stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage label for reports.
    pub name: String,
    /// Linear voltage gain (may be < 1 for lossy stages).
    pub gain: f64,
    /// Input-referred IIP3 as peak amplitude (V); `None` = linear.
    pub a_iip3: Option<f64>,
    /// Input-referred white noise PSD (V²/Hz).
    pub en2_white: f64,
    /// Flicker corner (Hz); the noise PSD is `en2_white·(1 + fc/f_if)`.
    /// Set to zero for RF-domain stages whose low-frequency noise is
    /// suppressed by commutation.
    pub flicker_corner: f64,
    /// Single output pole (Hz); `None` = flat.
    pub pole: Option<f64>,
    /// Frequency domain the pole acts on.
    pub domain: SignalDomain,
}

impl StageSpec {
    /// A noiseless, linear, flat stage with the given gain.
    pub fn ideal(name: &str, gain: f64) -> Self {
        StageSpec {
            name: name.to_string(),
            gain,
            a_iip3: None,
            en2_white: 0.0,
            flicker_corner: 0.0,
            pole: None,
            domain: SignalDomain::Rf,
        }
    }

    /// The frequency this stage's pole sees for a given (RF, IF) pair.
    pub fn own_frequency(&self, f_rf: f64, f_if: f64) -> f64 {
        match self.domain {
            SignalDomain::Rf => f_rf,
            SignalDomain::If => f_if,
        }
    }

    /// Gain magnitude at frequency `f` (single-pole roll-off).
    pub fn gain_at(&self, f: f64) -> f64 {
        match self.pole {
            Some(p) => self.gain.abs() / (1.0 + (f / p).powi(2)).sqrt(),
            None => self.gain.abs(),
        }
    }

    /// Input-referred noise PSD at frequency `f` (V²/Hz).
    pub fn en2(&self, f: f64) -> f64 {
        if self.flicker_corner > 0.0 && f > 0.0 {
            self.en2_white * (1.0 + self.flicker_corner / f)
        } else {
            self.en2_white
        }
    }
}

/// An ordered chain of [`StageSpec`]s with Friis-style cascade analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cascade {
    stages: Vec<StageSpec>,
}

impl Cascade {
    /// Creates an empty cascade.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn stage(mut self, s: StageSpec) -> Self {
        self.stages.push(s);
        self
    }

    /// The stages.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Conversion gain magnitude for a signal at `f_rf` down-converted to
    /// `f_if`: each stage's pole is evaluated in its own domain.
    pub fn conv_gain(&self, f_rf: f64, f_if: f64) -> f64 {
        self.stages
            .iter()
            .map(|s| s.gain_at(s.own_frequency(f_rf, f_if)))
            .product()
    }

    /// Conversion gain in dB.
    pub fn conv_gain_db(&self, f_rf: f64, f_if: f64) -> f64 {
        20.0 * self.conv_gain(f_rf, f_if).log10()
    }

    /// Input-referred noise PSD (V²/Hz) for operation at (`f_rf`, `f_if`):
    /// `Σ en_k²(f_if) / (∏_{j<k} g_j)²` with preceding gains evaluated in
    /// their own domains. Flicker corners are evaluated at the IF, where
    /// the noise actually lands in a down-converter.
    pub fn input_noise_psd(&self, f_rf: f64, f_if: f64) -> f64 {
        let mut total = 0.0;
        let mut gain_sq = 1.0;
        for s in &self.stages {
            total += s.en2(f_if) / gain_sq;
            let g = s.gain_at(s.own_frequency(f_rf, f_if));
            gain_sq *= g * g;
        }
        total
    }

    /// Noise figure (dB) at (`f_rf`, `f_if`) for source resistance `rs`:
    /// `NF = 10·log10(1 + en_in²/(4·k·T0·rs))` (DSB convention — the
    /// model's conversion gain already includes both sidebands' signal
    /// handling, matching the paper's DSB NF plots).
    pub fn nf_db(&self, f_rf: f64, f_if: f64, rs: f64) -> f64 {
        let source = 4.0 * BOLTZMANN * T0_NOISE * rs;
        10.0 * (1.0 + self.input_noise_psd(f_rf, f_if) / source).log10()
    }

    /// Cascaded input-referred IIP3 peak amplitude (mid-band gains).
    pub fn a_iip3(&self) -> Option<f64> {
        let stages: Vec<(f64, Option<f64>)> =
            self.stages.iter().map(|s| (s.gain, s.a_iip3)).collect();
        cascade_a_iip3(&stages)
    }

    /// Cascaded IIP3 in dBm into 50 Ω.
    pub fn iip3_dbm(&self) -> Option<f64> {
        self.a_iip3()
            .map(|a| remix_dsp::units::vpeak_to_dbm(a, remix_dsp::units::Z0))
    }
}

/// A time-domain sample operator.
pub trait SampleProcessor {
    /// Processes a buffer sampled at `fs`, in place.
    fn process(&mut self, x: &mut Vec<f64>, fs: f64);

    /// Resets internal state (filter histories, phases).
    fn reset(&mut self);
}

/// One-pole low-pass IIR (backward-Euler discretized RC).
#[derive(Debug, Clone, PartialEq)]
pub struct OnePoleLpf {
    /// Corner frequency (Hz).
    pub fc: f64,
    state: f64,
}

impl OnePoleLpf {
    /// Creates a filter with corner `fc`.
    pub fn new(fc: f64) -> Self {
        assert!(fc > 0.0, "corner must be positive");
        OnePoleLpf { fc, state: 0.0 }
    }

    /// Magnitude response at `f`.
    pub fn gain_at(&self, f: f64) -> f64 {
        1.0 / (1.0 + (f / self.fc).powi(2)).sqrt()
    }
}

impl SampleProcessor for OnePoleLpf {
    fn process(&mut self, x: &mut Vec<f64>, fs: f64) {
        // y[n] = y[n-1] + α(x[n] − y[n-1]), α = 1 − e^{−2πfc/fs}.
        let alpha = 1.0 - (-2.0 * std::f64::consts::PI * self.fc / fs).exp();
        for v in x.iter_mut() {
            self.state += alpha * (*v - self.state);
            *v = self.state;
        }
    }

    fn reset(&mut self) {
        self.state = 0.0;
    }
}

/// One-pole high-pass IIR (the complement of [`OnePoleLpf`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OnePoleHpf {
    /// Corner frequency (Hz).
    pub fc: f64,
    lpf_state: f64,
}

impl OnePoleHpf {
    /// Creates a filter with corner `fc`.
    pub fn new(fc: f64) -> Self {
        assert!(fc > 0.0, "corner must be positive");
        OnePoleHpf { fc, lpf_state: 0.0 }
    }

    /// Magnitude response at `f`.
    pub fn gain_at(&self, f: f64) -> f64 {
        let x = f / self.fc;
        x / (1.0 + x * x).sqrt()
    }
}

impl SampleProcessor for OnePoleHpf {
    fn process(&mut self, x: &mut Vec<f64>, fs: f64) {
        // y[n] = x[n] − lowpass(x)[n].
        let alpha = 1.0 - (-2.0 * std::f64::consts::PI * self.fc / fs).exp();
        for v in x.iter_mut() {
            self.lpf_state += alpha * (*v - self.lpf_state);
            *v -= self.lpf_state;
        }
    }

    fn reset(&mut self) {
        self.lpf_state = 0.0;
    }
}

/// Static polynomial stage (optionally followed by a pole).
#[derive(Debug, Clone, PartialEq)]
pub struct PolyProcessor {
    /// The nonlinearity (a1 = linear gain).
    pub poly: Poly3,
    /// Optional output pole.
    pub lpf: Option<OnePoleLpf>,
}

impl PolyProcessor {
    /// Creates a polynomial stage.
    pub fn new(poly: Poly3) -> Self {
        PolyProcessor { poly, lpf: None }
    }

    /// Adds an output pole.
    #[must_use]
    pub fn with_pole(mut self, fc: f64) -> Self {
        self.lpf = Some(OnePoleLpf::new(fc));
        self
    }
}

impl SampleProcessor for PolyProcessor {
    fn process(&mut self, x: &mut Vec<f64>, fs: f64) {
        for v in x.iter_mut() {
            *v = self.poly.eval(*v);
        }
        if let Some(lpf) = &mut self.lpf {
            lpf.process(x, fs);
        }
    }

    fn reset(&mut self) {
        if let Some(lpf) = &mut self.lpf {
            lpf.reset();
        }
    }
}

/// LO multiplication stage: multiplies the signal by a (soft) square wave,
/// modeling the current-commutating switch quad. The effective conversion
/// gain to the IF for a hard ±1 square is `2/π` per sideband.
#[derive(Debug, Clone, PartialEq)]
pub struct LoMixerProcessor {
    /// LO frequency (Hz).
    pub lo_freq: f64,
    /// LO phase (radians).
    pub phase: f64,
    /// Edge transition as a fraction of the period (0 = ideal).
    pub transition: f64,
    sample_index: usize,
}

impl LoMixerProcessor {
    /// Creates an LO multiplier.
    pub fn new(lo_freq: f64) -> Self {
        assert!(lo_freq > 0.0);
        LoMixerProcessor {
            lo_freq,
            phase: 0.0,
            transition: 0.0,
            sample_index: 0,
        }
    }

    /// Sets a soft-switching transition fraction.
    #[must_use]
    pub fn with_transition(mut self, fraction: f64) -> Self {
        self.transition = fraction;
        self
    }
}

impl SampleProcessor for LoMixerProcessor {
    fn process(&mut self, x: &mut Vec<f64>, fs: f64) {
        for v in x.iter_mut() {
            let t = self.sample_index as f64 / fs;
            let lo = if self.transition > 0.0 {
                remix_dsp::signal::lo_soft_square_at(self.lo_freq, self.phase, self.transition, t)
            } else {
                remix_dsp::signal::lo_square_at(self.lo_freq, self.phase, t)
            };
            *v *= lo;
            self.sample_index += 1;
        }
    }

    fn reset(&mut self) {
        self.sample_index = 0;
    }
}

/// A chain of processors applied in order.
#[derive(Default)]
pub struct ChainProcessor {
    stages: Vec<Box<dyn SampleProcessor>>,
}

impl std::fmt::Debug for ChainProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChainProcessor({} stages)", self.stages.len())
    }
}

impl ChainProcessor {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    #[must_use]
    pub fn then(mut self, p: Box<dyn SampleProcessor>) -> Self {
        self.stages.push(p);
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl SampleProcessor for ChainProcessor {
    fn process(&mut self, x: &mut Vec<f64>, fs: f64) {
        for s in &mut self.stages {
            s.process(x, fs);
        }
    }

    fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_dsp::tone::{goertzel_amplitude, CoherentPlan};

    fn noisy(name: &str, gain: f64, en2: f64) -> StageSpec {
        StageSpec {
            name: name.into(),
            gain,
            a_iip3: None,
            en2_white: en2,
            flicker_corner: 0.0,
            pole: None,
            domain: SignalDomain::Rf,
        }
    }

    #[test]
    fn stage_gain_and_pole() {
        let s = StageSpec {
            name: "gm".into(),
            gain: -10.0,
            a_iip3: None,
            en2_white: 0.0,
            flicker_corner: 0.0,
            pole: Some(1e6),
            domain: SignalDomain::Rf,
        };
        assert_eq!(s.gain_at(0.0), 10.0);
        assert!((s.gain_at(1e6) - 10.0 / 2f64.sqrt()).abs() < 1e-9);
        let flat = StageSpec::ideal("x", 2.0);
        assert_eq!(flat.gain_at(1e12), 2.0);
    }

    #[test]
    fn stage_flicker_noise() {
        let s = StageSpec {
            name: "n".into(),
            gain: 1.0,
            a_iip3: None,
            en2_white: 1e-18,
            flicker_corner: 1e5,
            pole: None,
            domain: SignalDomain::If,
        };
        assert!((s.en2(1e5) - 2e-18).abs() < 1e-24); // corner: doubles
        assert!((s.en2(1e9) - 1e-18).abs() < 1e-21);
        assert!(s.en2(1e3) > 50.0 * 1e-18);
    }

    #[test]
    fn cascade_gain_composition() {
        let c = Cascade::new()
            .stage(StageSpec::ideal("a", 10.0))
            .stage(StageSpec::ideal("b", 0.5))
            .stage(StageSpec::ideal("c", 4.0));
        assert!((c.conv_gain_db(2.4e9, 5e6) - 26.02).abs() < 0.01);
        assert_eq!(c.stages().len(), 3);
    }

    #[test]
    fn domain_separation_of_poles() {
        // RF-domain pole at 3 GHz, IF-domain pole at 10 MHz.
        let rf_stage = StageSpec {
            pole: Some(3e9),
            ..StageSpec::ideal("rf", 10.0)
        };
        let if_stage = StageSpec {
            pole: Some(10e6),
            domain: SignalDomain::If,
            ..StageSpec::ideal("if", 2.0)
        };
        let c = Cascade::new().stage(rf_stage).stage(if_stage);
        // Sweep RF with small IF: only the RF pole moves the gain.
        let g_low = c.conv_gain(0.5e9, 1e6);
        let g_hi = c.conv_gain(6e9, 1e6);
        assert!(g_low > g_hi, "RF pole should roll off");
        // Sweep IF at fixed RF: only the IF pole moves the gain.
        let g_if_low = c.conv_gain(2.4e9, 1e5);
        let g_if_hi = c.conv_gain(2.4e9, 100e6);
        assert!(g_if_low > 3.0 * g_if_hi, "IF pole should roll off");
    }

    #[test]
    fn friis_first_stage_dominates_noise() {
        // Equal per-stage noise: with 10x first-stage gain the second
        // stage contributes 1 % as much input-referred.
        let c = Cascade::new()
            .stage(noisy("s1", 10.0, 1e-18))
            .stage(noisy("s2", 10.0, 1e-18));
        let total = c.input_noise_psd(2.4e9, 1e6);
        assert!((total - 1.01e-18).abs() < 1e-21, "total = {total:.3e}");
    }

    #[test]
    fn nf_of_noiseless_chain_is_zero() {
        let c = Cascade::new().stage(StageSpec::ideal("a", 10.0));
        assert!(c.nf_db(2.4e9, 1e6, 50.0).abs() < 1e-9);
    }

    #[test]
    fn nf_known_value() {
        // en² = 4kT0·50 → F = 2 → NF = 3.01 dB.
        let en2 = 4.0 * BOLTZMANN * T0_NOISE * 50.0;
        let c = Cascade::new().stage(noisy("s", 1.0, en2));
        assert!((c.nf_db(2.4e9, 1e6, 50.0) - 3.0103).abs() < 0.001);
    }

    #[test]
    fn flicker_corner_in_nf_curve() {
        // A stage with an IF flicker corner at 100 kHz: NF at 1 kHz must
        // exceed NF at 10 MHz markedly.
        let mut s = noisy("s", 1.0, 4.0 * BOLTZMANN * T0_NOISE * 50.0);
        s.flicker_corner = 1e5;
        s.domain = SignalDomain::If;
        let c = Cascade::new().stage(s);
        let nf_low = c.nf_db(2.4e9, 1e3, 50.0);
        let nf_high = c.nf_db(2.4e9, 1e7, 50.0);
        assert!(nf_low > nf_high + 10.0, "{nf_low} vs {nf_high}");
    }

    #[test]
    fn one_pole_hpf_response() {
        let mut hpf = OnePoleHpf::new(1e5);
        // DC rejected.
        let mut dc = vec![1.0; 8000];
        hpf.process(&mut dc, 1e7);
        assert!(
            dc[dc.len() - 1].abs() < 1e-2,
            "dc residual = {}",
            dc[dc.len() - 1]
        );
        hpf.reset();
        // Tone at the corner: −3 dB.
        let plan = CoherentPlan::new(&[1e5], 1 << 14, 1e3).unwrap();
        let mut x = remix_dsp::signal::tone(1.0, 1e5, 0.0, plan.fs, plan.n * 2);
        hpf.process(&mut x, plan.fs);
        let settled = x[plan.n..].to_vec();
        let a = goertzel_amplitude(&settled, plan.bins[0], plan.n);
        assert!(
            (a - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.03,
            "corner gain = {a}"
        );
        // Well above the corner: passes.
        assert!((hpf.gain_at(1e8) - 1.0).abs() < 1e-4);
        assert!(hpf.gain_at(1e3) < 0.02);
    }

    #[test]
    fn one_pole_filter_response() {
        let mut lpf = OnePoleLpf::new(1e5);
        // DC gain 1.
        let mut dc = vec![1.0; 4000];
        lpf.process(&mut dc, 1e7);
        assert!((dc[dc.len() - 1] - 1.0).abs() < 1e-3);
        lpf.reset();
        // Tone at the corner: −3 dB.
        let plan = CoherentPlan::new(&[1e5], 1 << 14, 1e3).unwrap();
        let mut x = remix_dsp::signal::tone(1.0, 1e5, 0.0, plan.fs, plan.n * 2);
        lpf.process(&mut x, plan.fs);
        let settled = x[plan.n..].to_vec();
        let a = goertzel_amplitude(&settled, plan.bins[0], plan.n);
        assert!(
            (a - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "corner gain = {a}"
        );
    }

    #[test]
    fn lo_mixer_downconverts() {
        // RF at LO+IF through a ±1 square LO: IF amplitude = (2/π)·A_RF.
        let f_lo = 100e6;
        let f_if = 1e6;
        let plan = CoherentPlan::new(&[f_if], 1 << 12, 0.25e6).unwrap();
        let mut x = remix_dsp::signal::tone(1.0, f_lo + f_if, 0.0, plan.fs, plan.n);
        let mut mixer = LoMixerProcessor::new(f_lo);
        // Align LO fundamental as cosine so the IF lands on the cosine bin.
        mixer.phase = std::f64::consts::FRAC_PI_2;
        mixer.process(&mut x, plan.fs);
        let a_if = goertzel_amplitude(&x, plan.bins[0], plan.n);
        let expected = 2.0 / std::f64::consts::PI;
        assert!(
            (a_if - expected).abs() < 0.02 * expected,
            "IF amp {a_if} vs {expected}"
        );
    }

    #[test]
    fn chain_composition_order() {
        // Gain 2 then square-law mix at DC LO? Simpler: two gains compose.
        let mut chain = ChainProcessor::new()
            .then(Box::new(PolyProcessor::new(Poly3::linear(2.0))))
            .then(Box::new(PolyProcessor::new(Poly3::linear(-3.0))));
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_empty());
        let mut x = vec![1.0, -0.5];
        chain.process(&mut x, 1.0);
        assert_eq!(x, vec![-6.0, 3.0]);
        chain.reset();
    }

    #[test]
    fn behavioral_iip3_matches_analytic() {
        // Run an actual two-tone through a PolyProcessor and check the
        // measured IM3 implies the analytic IIP3.
        let p = Poly3::from_gain_and_iip3(4.0, 0.5);
        let plan = CoherentPlan::new(&[5e6, 6e6, 4e6], 1 << 12, 0.25e6).unwrap();
        let a = 0.02; // well below compression
        let mut x: Vec<f64> = (0..plan.n)
            .map(|i| {
                let t = plan.sample_time(i);
                let w = 2.0 * std::f64::consts::PI;
                a * ((w * 5e6 * t).cos() + (w * 6e6 * t).cos())
            })
            .collect();
        let mut proc = PolyProcessor::new(p);
        proc.process(&mut x, plan.fs);
        let fund = goertzel_amplitude(&x, plan.bins[0], plan.n);
        let im3 = goertzel_amplitude(&x, plan.bins[2], plan.n);
        // A_IIP3 = a·sqrt(fund/im3) in amplitude terms.
        let measured = a * (fund / im3).sqrt();
        let analytic = p.a_iip3().unwrap();
        assert!(
            (measured - analytic).abs() < 0.03 * analytic,
            "measured {measured} vs analytic {analytic}"
        );
    }
}

//! Simulation-plan lint: `SIM001`–`SIM008`.
//!
//! A structurally sound netlist can still produce plausible-but-wrong
//! numbers when the *analysis plan* is numerically unsound — a two-tone
//! IIP3 sweep with non-coherent FFT bins leaks skirt energy onto the IM3
//! bin, a transient step near the LO period aliases the LO into the IF
//! band, and no solver error tells you. [`SimPlan`] is a neutral,
//! engine-independent description of one analysis run; [`lint_plan`]
//! applies the `SIM` rules to it under the same [`LintConfig`] /
//! severity machinery as the circuit rules.
//!
//! Every field is optional: a rule fires only when the data it judges is
//! actually declared, so generic engine entry points lint whatever they
//! know (timestep, stimulus frequency) while the paper's bench binaries
//! attach the full measurement intent ([`PlanTargets::paper`]: 5 MHz IF,
//! 100 kHz flicker corner, 0.5–5.5 GHz RF band).

use crate::config::LintConfig;
use crate::diag::{Diagnostic, LintReport, RuleId, Severity};
use crate::fix::Fix;

/// Paper-level measurement targets a plan is judged against.
///
/// These are intent, not engine parameters: a noise sweep is only wrong
/// about the flicker corner if it *claims* to measure one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanTargets {
    /// IF output frequency the measurement reads (Hz).
    pub if_freq: Option<f64>,
    /// Flicker corner the noise band must reach down to (Hz).
    pub flicker_corner: Option<f64>,
    /// RF band the sweep must cover (Hz, lo ≤ hi).
    pub rf_band: Option<(f64, f64)>,
}

impl PlanTargets {
    /// The source paper's targets: 5 MHz IF, sub-100 kHz flicker corner,
    /// 0.5–5.5 GHz RF band.
    pub fn paper() -> Self {
        PlanTargets {
            if_freq: Some(5e6),
            flicker_corner: Some(100e3),
            rf_band: Some((0.5e9, 5.5e9)),
        }
    }

    /// Targets for the MedRadio front-end family (`remix-topo`):
    /// 401–406 MHz RF band, ~1 MHz IF. No flicker-corner claim — the
    /// family's studies measure power, not noise.
    pub fn medradio() -> Self {
        PlanTargets {
            if_freq: Some(1e6),
            flicker_corner: None,
            rf_band: Some((401e6, 406e6)),
        }
    }
}

/// Engine-independent description of one analysis run.
///
/// Built by the analysis entry points (`remix-analysis` derives what it
/// can from its option structs and the circuit's stimulus) and by the
/// bench binaries (which also know the measurement intent). Only the
/// declared fields are linted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimPlan {
    /// Human-readable plan name (appears in diagnostics).
    pub name: String,
    /// Transient/PSS timestep (s).
    pub timestep: Option<f64>,
    /// Total simulated duration (s).
    pub duration: Option<f64>,
    /// Fastest periodic stimulus the run must resolve (Hz) — the LO for
    /// mixer runs, or the highest source frequency generally.
    pub lo_freq: Option<f64>,
    /// FFT record sample rate (Hz).
    pub sample_rate: Option<f64>,
    /// FFT record length (samples).
    pub fft_len: Option<usize>,
    /// Tones the FFT readout must resolve exactly (Hz) — fundamentals
    /// and intermod products.
    pub tones: Vec<f64>,
    /// Harmonics retained by a PSS/harmonic-balance representation.
    pub pss_harmonics: Option<usize>,
    /// Highest intermod order the measurement reads (3 for IIP3).
    pub intermod_order: Option<usize>,
    /// Noise analysis band (Hz, lo ≤ hi).
    pub noise_band: Option<(f64, f64)>,
    /// Frequency sweep span (Hz, lo ≤ hi).
    pub sweep_band: Option<(f64, f64)>,
    /// Slowest circuit time constant the transient must out-run (s).
    pub slowest_tau: Option<f64>,
    /// Simulated time between checkpoint writes (s), when the driver
    /// persists resumable state. Declaring one tells `SIM007` that an
    /// interrupted run resumes instead of restarting from zero.
    pub checkpoint_interval: Option<f64>,
    /// Path of the JSON-lines event log the driver writes, when one is
    /// declared. Declaring one tells `SIM008` that a stalled or killed
    /// long run leaves a diagnosable trail.
    pub event_log: Option<String>,
    /// Measurement intent the plan is judged against.
    pub targets: PlanTargets,
}

impl SimPlan {
    /// New empty plan with a name; populate with the `with_*` builders.
    pub fn new(name: &str) -> Self {
        SimPlan {
            name: name.to_string(),
            ..SimPlan::default()
        }
    }

    /// Sets the timestep (s).
    pub fn with_timestep(mut self, h: f64) -> Self {
        self.timestep = Some(h);
        self
    }

    /// Sets the duration (s).
    pub fn with_duration(mut self, t: f64) -> Self {
        self.duration = Some(t);
        self
    }

    /// Sets the fastest stimulus frequency (Hz).
    pub fn with_lo(mut self, f: f64) -> Self {
        self.lo_freq = Some(f);
        self
    }

    /// Sets the FFT record (sample rate in Hz, length in samples).
    pub fn with_fft(mut self, fs: f64, n: usize) -> Self {
        self.sample_rate = Some(fs);
        self.fft_len = Some(n);
        self
    }

    /// Sets the readout tones (Hz).
    pub fn with_tones(mut self, tones: &[f64]) -> Self {
        self.tones = tones.to_vec();
        self
    }

    /// Sets the noise band (Hz).
    pub fn with_noise_band(mut self, lo: f64, hi: f64) -> Self {
        self.noise_band = Some((lo, hi));
        self
    }

    /// Sets the sweep span (Hz).
    pub fn with_sweep(mut self, lo: f64, hi: f64) -> Self {
        self.sweep_band = Some((lo, hi));
        self
    }

    /// Attaches measurement targets.
    pub fn with_targets(mut self, targets: PlanTargets) -> Self {
        self.targets = targets;
        self
    }
}

/// Smallest coherent FFT grid that carries every tone: the integer-Hz
/// GCD of the tones as bin spacing, record length grown (power of two)
/// until the highest tone sits at or below Nyquist. `None` when the
/// tones are not integer-Hz commensurate or the record would explode.
pub(crate) fn coherent_fix(tones: &[f64], n: usize) -> Option<(f64, usize)> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut g = 0u64;
    let mut f_max = 0f64;
    for &t in tones {
        let r = t.round();
        if !r.is_finite() || r < 1.0 || (t - r).abs() > 1e-3 {
            return None;
        }
        g = gcd(g, r as u64);
        f_max = f_max.max(t);
    }
    if g == 0 {
        return None;
    }
    let mut n2 = n.max(2).next_power_of_two();
    while f_max / g as f64 > (n2 / 2) as f64 {
        n2 = n2.checked_mul(2)?;
        if n2 > 1 << 24 {
            return None;
        }
    }
    Some((g as f64 * n2 as f64, n2))
}

/// Runs the `SIM` rules over one plan under `config`.
///
/// Like [`crate::lint`], never stops early: the report carries every
/// finding from every enabled rule.
pub fn lint_plan(plan: &SimPlan, config: &LintConfig) -> LintReport {
    let mut out = Vec::new();
    let mut emit = |rule: RuleId, severity: Severity, message: String, fix: Option<Fix>| {
        out.push(Diagnostic {
            rule,
            severity,
            message,
            nodes: vec![],
            elements: vec![plan.name.clone()],
            line: None,
            fix,
        });
    };
    let sev = |rule: RuleId| match config.severity_of(rule) {
        Severity::Allow => None,
        s => Some(s),
    };

    // SIM001: timestep vs stimulus-period Nyquist.
    if let (Some(s), Some(h), Some(f)) = (sev(RuleId::TimestepVsLo), plan.timestep, plan.lo_freq) {
        if h > 0.0 && f > 0.0 {
            let spp = 1.0 / (h * f);
            if spp < 2.0 {
                emit(
                    RuleId::TimestepVsLo,
                    s,
                    format!(
                        "timestep {h:.3e} s gives {spp:.2} samples per period of the \
                         {f:.3e} Hz stimulus (< 2): the drive aliases into the record"
                    ),
                    Some(Fix::SetTimestep {
                        seconds: 1.0 / (16.0 * f),
                    }),
                );
            }
        }
    }

    // SIM002: non-coherent (or aliased) FFT readout.
    if let (Some(s), Some(fs), Some(n)) =
        (sev(RuleId::NoncoherentFft), plan.sample_rate, plan.fft_len)
    {
        if fs > 0.0 && n >= 2 && !plan.tones.is_empty() {
            let f_res = fs / n as f64;
            let mut off_grid = Vec::new();
            let mut aliased = Vec::new();
            for &t in &plan.tones {
                let k = t / f_res;
                if (k - k.round()).abs() > 1e-6 * k.max(1.0) {
                    off_grid.push(t);
                } else if k.round() as usize > n / 2 {
                    aliased.push(t);
                }
            }
            if !off_grid.is_empty() || !aliased.is_empty() {
                let mut parts = Vec::new();
                if !off_grid.is_empty() {
                    parts.push(format!(
                        "tones {} Hz are off the {f_res:.3e} Hz bin grid (spectral \
                         leakage corrupts the product bins)",
                        join_hz(&off_grid)
                    ));
                }
                if !aliased.is_empty() {
                    parts.push(format!(
                        "tones {} Hz lie beyond Nyquist ({:.3e} Hz) and fold onto \
                         wrong bins",
                        join_hz(&aliased),
                        fs / 2.0
                    ));
                }
                let fix = coherent_fix(&plan.tones, n).map(|(fs, n)| Fix::SnapCoherent {
                    sample_rate: fs,
                    fft_len: n,
                });
                emit(RuleId::NoncoherentFft, s, parts.join("; "), fix);
            }
        }
    }

    // SIM003: PSS harmonic truncation below the intermod order.
    if let (Some(s), Some(h), Some(order)) = (
        sev(RuleId::PssHarmonics),
        plan.pss_harmonics,
        plan.intermod_order,
    ) {
        if h < order {
            emit(
                RuleId::PssHarmonics,
                s,
                format!(
                    "{h} PSS harmonics retained but the measurement reads order-{order} \
                     intermod products: the product is absent from the basis"
                ),
                Some(Fix::RaiseHarmonics {
                    harmonics: order + 2,
                }),
            );
        }
    }

    // SIM004: noise band vs IF / flicker-corner targets.
    if let (Some(s), Some((lo, hi))) = (sev(RuleId::NoiseBand), plan.noise_band) {
        let mut need_lo = lo;
        let mut need_hi = hi;
        let mut misses = Vec::new();
        if let Some(corner) = plan.targets.flicker_corner {
            if lo > corner {
                misses.push(format!(
                    "band starts at {lo:.3e} Hz, above the {corner:.3e} Hz flicker-corner \
                     target"
                ));
                need_lo = need_lo.min(corner);
            }
        }
        if let Some(f_if) = plan.targets.if_freq {
            if hi < f_if {
                misses.push(format!(
                    "band stops at {hi:.3e} Hz, below the {f_if:.3e} Hz IF target"
                ));
                need_hi = need_hi.max(f_if);
            }
        }
        if !misses.is_empty() {
            emit(
                RuleId::NoiseBand,
                s,
                misses.join("; "),
                Some(Fix::WidenNoiseBand {
                    min_hz: need_lo,
                    max_hz: need_hi,
                }),
            );
        }
    }

    // SIM005: sweep coverage of the declared RF band.
    if let (Some(s), Some((lo, hi)), Some((b_lo, b_hi))) = (
        sev(RuleId::SweepRange),
        plan.sweep_band,
        plan.targets.rf_band,
    ) {
        if lo > b_lo || hi < b_hi {
            emit(
                RuleId::SweepRange,
                s,
                format!(
                    "sweep {lo:.3e}–{hi:.3e} Hz does not cover the declared \
                     {b_lo:.3e}–{b_hi:.3e} Hz RF band: band-edge numbers cannot be \
                     reproduced from this run"
                ),
                Some(Fix::WidenSweep {
                    min_hz: lo.min(b_lo),
                    max_hz: hi.max(b_hi),
                }),
            );
        }
    }

    // SIM006: duration vs the slowest time constant.
    if let (Some(s), Some(t), Some(tau)) =
        (sev(RuleId::TranDuration), plan.duration, plan.slowest_tau)
    {
        if tau > 0.0 && t < tau {
            emit(
                RuleId::TranDuration,
                s,
                format!(
                    "duration {t:.3e} s is shorter than the slowest time constant \
                     {tau:.3e} s: the record is dominated by settling"
                ),
                Some(Fix::ExtendDuration { seconds: 5.0 * tau }),
            );
        }
    }

    // SIM007: implied step count vs the default run budget.
    if let (Some(s), Some(h), Some(t)) =
        (sev(RuleId::UncheckpointedRun), plan.timestep, plan.duration)
    {
        let budget = remix_exec::DEFAULT_TIMESTEP_BUDGET as f64;
        if h > 0.0 && t / h > budget && plan.checkpoint_interval.is_none() {
            emit(
                RuleId::UncheckpointedRun,
                s,
                format!(
                    "duration {t:.3e} s at timestep {h:.3e} s implies {:.3e} steps, above \
                     the default run budget of {budget:.0e}: an interrupted run restarts \
                     from zero — declare a checkpoint interval or split the sweep",
                    t / h
                ),
                None,
            );
        }
    }

    // SIM008: long run with no observability declared. A run a tenth the
    // size of the default timestep budget is long enough that a stall or
    // kill without an event log (and without an armed observing
    // telemetry sink) leaves nothing to diagnose from.
    if let (Some(s), Some(h), Some(t)) =
        (sev(RuleId::UnobservedLongRun), plan.timestep, plan.duration)
    {
        let threshold = remix_exec::DEFAULT_TIMESTEP_BUDGET as f64 / 10.0;
        if h > 0.0
            && t / h > threshold
            && plan.event_log.is_none()
            && !remix_telemetry::is_observing()
        {
            let log = format!("{}.events.jsonl", slug(&plan.name));
            emit(
                RuleId::UnobservedLongRun,
                s,
                format!(
                    "duration {t:.3e} s at timestep {h:.3e} s implies {:.3e} steps with no \
                     event log declared and no telemetry sink armed: if the run stalls or \
                     dies there is nothing to diagnose from — declare a JSON-lines event \
                     log or arm an observing sink",
                    t / h
                ),
                Some(Fix::DeclareEventLog { path: log }),
            );
        }
    }

    LintReport { diagnostics: out }
}

/// Filesystem-safe slug of a plan name for the suggested event-log path.
fn slug(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        "plan".to_string()
    } else {
        s
    }
}

fn join_hz(v: &[f64]) -> String {
    v.iter()
        .map(|f| format!("{f:.6e}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(plan: &SimPlan, rule: RuleId) -> usize {
        lint_plan(plan, &LintConfig::default()).by_rule(rule).len()
    }

    #[test]
    fn empty_plan_is_clean() {
        let report = lint_plan(&SimPlan::new("nothing declared"), &LintConfig::default());
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn sim007_step_count_vs_default_budget() {
        // 10 ms at 1 ns: 10⁷ steps, an order above the default budget.
        let runaway = SimPlan::new("marathon tran")
            .with_timestep(1e-9)
            .with_duration(10e-3);
        let report = lint_plan(&runaway, &LintConfig::default());
        let diags = report.by_rule(RuleId::UncheckpointedRun);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert!(diags[0].fix.is_none());
        assert!(diags[0].message.contains("checkpoint"));

        // Declaring a checkpoint interval silences the rule: the run
        // resumes instead of restarting.
        let resumable = SimPlan {
            checkpoint_interval: Some(1e-4),
            ..runaway.clone()
        };
        assert_eq!(fired(&resumable, RuleId::UncheckpointedRun), 0);

        // A plan inside the budget never fires.
        let short = SimPlan::new("short tran")
            .with_timestep(1e-9)
            .with_duration(1e-5);
        assert_eq!(fired(&short, RuleId::UncheckpointedRun), 0);
    }

    #[test]
    fn sim008_long_run_without_observability() {
        // 1 ms at 1 ns: 10⁶ steps, an order above a tenth of the default
        // budget — long enough that a silent death is undiagnosable.
        let blind = SimPlan::new("marathon tran")
            .with_timestep(1e-9)
            .with_duration(1e-3);
        let report = lint_plan(&blind, &LintConfig::default());
        let diags = report.by_rule(RuleId::UnobservedLongRun);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
        let fix = diags[0].fix.clone().expect("machine-applicable fix");
        assert_eq!(
            fix,
            Fix::DeclareEventLog {
                path: "marathon_tran.events.jsonl".to_string()
            }
        );

        // Declaring an event log silences the rule.
        let logged = SimPlan {
            event_log: Some("run.events.jsonl".into()),
            ..blind.clone()
        };
        assert_eq!(fired(&logged, RuleId::UnobservedLongRun), 0);

        // As does arming an observing telemetry sink on this thread.
        let t = remix_telemetry::Telemetry::with_sink(std::sync::Arc::new(
            remix_telemetry::MemorySink::new(),
        ));
        let _g = t.arm();
        assert_eq!(fired(&blind, RuleId::UnobservedLongRun), 0);
        drop(_g);

        // A short plan never fires.
        let short = SimPlan::new("short tran")
            .with_timestep(1e-9)
            .with_duration(1e-5);
        assert_eq!(fired(&short, RuleId::UnobservedLongRun), 0);
    }

    #[test]
    fn sim001_timestep_vs_lo() {
        // 2.4 GHz LO sampled at 1 ns: 0.42 samples per period.
        let bad = SimPlan::new("coarse tran")
            .with_timestep(1e-9)
            .with_lo(2.4e9);
        let report = lint_plan(&bad, &LintConfig::default());
        let diags = report.by_rule(RuleId::TimestepVsLo);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert!(matches!(diags[0].fix, Some(Fix::SetTimestep { .. })));

        let ok = SimPlan::new("fine tran")
            .with_timestep(10e-12)
            .with_lo(2.4e9);
        assert_eq!(fired(&ok, RuleId::TimestepVsLo), 0);
    }

    #[test]
    fn sim002_noncoherent_and_aliased_tones() {
        // 5/6 MHz tones on a 0.5 MHz grid: coherent.
        let ok = SimPlan::new("coherent")
            .with_fft(0.5e6 * 32768.0, 32768)
            .with_tones(&[4e6, 5e6, 6e6, 7e6, 1e6]);
        assert_eq!(fired(&ok, RuleId::NoncoherentFft), 0);

        // Off-grid tone.
        let off = SimPlan::new("off-grid")
            .with_fft(0.5e6 * 32768.0, 32768)
            .with_tones(&[5.3e6]);
        let report = lint_plan(&off, &LintConfig::default());
        assert_eq!(report.by_rule(RuleId::NoncoherentFft).len(), 1);
        assert!(!report.is_clean());

        // Aliased: tone beyond fs/2.
        let aliased = SimPlan::new("aliased")
            .with_fft(8e6, 1024)
            .with_tones(&[5e6]);
        let report = lint_plan(&aliased, &LintConfig::default());
        let diags = report.by_rule(RuleId::NoncoherentFft);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("Nyquist"));
        // The snapped plan must be coherent and alias-free.
        let Some(Fix::SnapCoherent {
            sample_rate,
            fft_len,
        }) = diags[0].fix
        else {
            panic!("expected SnapCoherent, got {:?}", diags[0].fix);
        };
        let fixed = SimPlan::new("snapped")
            .with_fft(sample_rate, fft_len)
            .with_tones(&[5e6]);
        assert_eq!(fired(&fixed, RuleId::NoncoherentFft), 0);
    }

    #[test]
    fn sim003_harmonic_truncation() {
        let harmonics = |name: &str, n: usize| SimPlan {
            pss_harmonics: Some(n),
            intermod_order: Some(3),
            ..SimPlan::new(name)
        };
        let bad = harmonics("pss", 2);
        let report = lint_plan(&bad, &LintConfig::default());
        let diags = report.by_rule(RuleId::PssHarmonics);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(fired(&harmonics("ok", 8), RuleId::PssHarmonics), 0);
    }

    #[test]
    fn sim004_noise_band_targets() {
        let bad = SimPlan::new("noise")
            .with_noise_band(1e6, 2e6)
            .with_targets(PlanTargets::paper());
        let report = lint_plan(&bad, &LintConfig::default());
        let diags = report.by_rule(RuleId::NoiseBand);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
        let Some(Fix::WidenNoiseBand { min_hz, max_hz }) = diags[0].fix else {
            panic!("no fix");
        };
        assert!(min_hz <= 100e3 && max_hz >= 5e6);

        // Without targets the same band is fine.
        assert_eq!(
            fired(
                &SimPlan::new("noise").with_noise_band(1e6, 2e6),
                RuleId::NoiseBand
            ),
            0
        );
    }

    #[test]
    fn medradio_targets_judge_band_coverage() {
        // A sweep across the full MedRadio band satisfies SIM005…
        let ok = SimPlan::new("medradio_band")
            .with_sweep(400e6, 410e6)
            .with_targets(PlanTargets::medradio());
        assert_eq!(fired(&ok, RuleId::SweepRange), 0);
        // …while one that stops short of 406 MHz is flagged.
        let bad = SimPlan::new("medradio_narrow")
            .with_sweep(401e6, 403e6)
            .with_targets(PlanTargets::medradio());
        assert_eq!(fired(&bad, RuleId::SweepRange), 1);
        // The preset makes no flicker-corner claim.
        assert_eq!(PlanTargets::medradio().flicker_corner, None);
    }

    #[test]
    fn sim005_sweep_coverage() {
        // Fig. 8 style sweep 0.25–7 GHz covers the 0.5–5.5 GHz band.
        let ok = SimPlan::new("fig8")
            .with_sweep(0.25e9, 7e9)
            .with_targets(PlanTargets::paper());
        assert_eq!(fired(&ok, RuleId::SweepRange), 0);

        let bad = SimPlan::new("narrow")
            .with_sweep(1e9, 3e9)
            .with_targets(PlanTargets::paper());
        let report = lint_plan(&bad, &LintConfig::default());
        assert_eq!(report.by_rule(RuleId::SweepRange).len(), 1);
        assert!(report.is_clean(), "warn level must not block");
    }

    #[test]
    fn sim006_duration_vs_tau() {
        let bad = SimPlan {
            slowest_tau: Some(1e-6),
            ..SimPlan::new("short").with_duration(1e-9)
        };
        let report = lint_plan(&bad, &LintConfig::default());
        let diags = report.by_rule(RuleId::TranDuration);
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].fix,
            Some(Fix::ExtendDuration { seconds }) if seconds >= 4.99e-6
        ));
    }

    #[test]
    fn severity_overrides_apply_to_sim_rules() {
        let bad = SimPlan::new("coarse").with_timestep(1e-9).with_lo(2.4e9);
        let cfg = LintConfig::default().warn(RuleId::TimestepVsLo);
        let report = lint_plan(&bad, &cfg);
        assert!(report.is_clean());
        assert_eq!(report.warn_count(), 1);
        let cfg = LintConfig::default().allow(RuleId::TimestepVsLo);
        assert!(lint_plan(&bad, &cfg).is_empty());
    }

    #[test]
    fn coherent_fix_handles_edge_cases() {
        // Commensurate MHz tones: 1 MHz spacing base.
        let (fs, n) = coherent_fix(&[4e6, 5e6, 6e6, 7e6, 1e6], 1024).unwrap();
        assert_eq!(n, 1024);
        assert!((fs / n as f64 - 1e6).abs() < 1e-6);
        // Incommensurate (irrational ratio) tones: no machine fix.
        assert!(coherent_fix(&[5e6, 5e6 * std::f64::consts::SQRT_2], 1024).is_none());
        // Sub-hertz tone: no fix.
        assert!(coherent_fix(&[0.25], 1024).is_none());
    }
}

//! Simulation-plan lint: `SIM001` (`SIM002`–`SIM008` are retired; their
//! codes are not reused).
//!
//! A structurally sound netlist can still produce plausible-but-wrong
//! numbers when the *analysis plan* is numerically unsound: a transient
//! step near the LO period aliases the LO into the IF band, and no
//! solver error tells you. [`SimPlan`] is a neutral, engine-independent
//! description of one time-domain run; [`lint_plan`] applies the `SIM`
//! rules to it under the same [`LintConfig`] / severity machinery as the
//! circuit rules.
//!
//! Every field is optional: the rule fires only when both the timestep
//! and the stimulus frequency it judges are declared.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, LintReport, RuleId, Severity};
use crate::fix::Fix;

/// Engine-independent description of one time-domain run.
///
/// Built by the analysis entry points: `remix-analysis` derives the
/// timestep from its option structs and the fastest stimulus from the
/// circuit. Only the declared fields are linted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimPlan {
    /// Human-readable plan name (appears in diagnostics).
    pub name: String,
    /// Transient/PSS timestep (s).
    pub timestep: Option<f64>,
    /// Fastest periodic stimulus the run must resolve (Hz) — the LO for
    /// mixer runs, or the highest source frequency generally.
    pub lo_freq: Option<f64>,
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

    /// Sets the fastest stimulus frequency (Hz).
    pub fn with_lo(mut self, f: f64) -> Self {
        self.lo_freq = Some(f);
        self
    }
}

/// Runs the `SIM` rule over one plan under `config`.
pub fn lint_plan(plan: &SimPlan, config: &LintConfig) -> LintReport {
    let mut diagnostics = Vec::new();

    // SIM001: timestep vs stimulus-period Nyquist.
    let severity = config.severity_of(RuleId::TimestepVsLo);
    if let (Some(h), Some(f)) = (plan.timestep, plan.lo_freq) {
        let spp = 1.0 / (h * f);
        if severity != Severity::Allow && h > 0.0 && f > 0.0 && spp < 2.0 {
            diagnostics.push(Diagnostic {
                rule: RuleId::TimestepVsLo,
                severity,
                message: format!(
                    "timestep {h:.3e} s gives {spp:.2} samples per period of the \
                     {f:.3e} Hz stimulus (< 2): the drive aliases into the record"
                ),
                nodes: vec![],
                elements: vec![plan.name.clone()],
                line: None,
                fix: Some(Fix::SetTimestep {
                    seconds: 1.0 / (16.0 * f),
                }),
            });
        }
    }

    LintReport { diagnostics }
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
    fn severity_overrides_apply_to_sim_rules() {
        let bad = SimPlan::new("coarse").with_timestep(1e-9).with_lo(2.4e9);
        let cfg = LintConfig::default().warn(RuleId::TimestepVsLo);
        let report = lint_plan(&bad, &cfg);
        assert!(report.is_clean());
        assert_eq!(report.warn_count(), 1);
        let cfg = LintConfig::default().allow(RuleId::TimestepVsLo);
        assert!(lint_plan(&bad, &cfg).is_empty());
    }
}

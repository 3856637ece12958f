//! Deriving and gating simulation plans.
//!
//! The time-domain entry points — [`transient`], [`transient_partial`],
//! [`periodic_steady_state`] and [`noise_transient`] — describe the run
//! they are about to perform as a [`SimPlan`], the neutral description
//! type `remix-lint` judges with its `SIM` rules, and refuse to run when
//! the plan has deny-level findings, exactly as [`dc_operating_point`]
//! refuses a circuit with deny-level ERC findings. Each gates once, at
//! entry, before any solver work; the transient driver they share does
//! not gate again. The engines declare only what they actually
//! know (the timestep and the fastest stimulus in the netlist), and the
//! one `SIM` rule is `SIM001` (a grid that aliases the LO).
//!
//! [`transient`]: crate::tran::transient
//! [`transient_partial`]: crate::tran::transient_partial
//! [`periodic_steady_state`]: crate::pss::periodic_steady_state
//! [`noise_transient`]: crate::trannoise::noise_transient
//! [`dc_operating_point`]: crate::op::dc_operating_point

use crate::error::AnalysisError;
use crate::pss::PssOptions;
use crate::tran::TranOptions;
use remix_circuit::{Circuit, Element, Waveform};
use remix_lint::{lint_plan, LintConfig, SimPlan};

/// Fastest periodic stimulus frequency (Hz) among the circuit's
/// independent sources — the "LO" a transient grid must resolve.
/// `None` when every source is DC or piecewise-linear.
fn fastest_stimulus(circuit: &Circuit) -> Option<f64> {
    let mut fastest: Option<f64> = None;
    let mut consider = |f: f64| {
        if f.is_finite() && f > 0.0 {
            fastest = Some(fastest.map_or(f, |b: f64| b.max(f)));
        }
    };
    for e in circuit.elements() {
        let wave = match e {
            Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => wave,
            _ => continue,
        };
        match wave {
            Waveform::Sin { freq, .. } => consider(*freq),
            Waveform::Pulse { period, .. } => {
                if *period > 0.0 {
                    consider(1.0 / period);
                }
            }
            Waveform::TwoTone { f1, f2, .. } => {
                consider(*f1);
                consider(*f2);
            }
            Waveform::Dc(_) | Waveform::Pwl(_) => {}
        }
    }
    fastest
}

/// The plan a transient run over `circuit` with `opts` implies.
pub(crate) fn tran_plan(circuit: &Circuit, opts: &TranOptions) -> SimPlan {
    let mut plan = SimPlan::new("transient").with_timestep(opts.h);
    if let Some(f) = fastest_stimulus(circuit) {
        plan = plan.with_lo(f);
    }
    plan
}

/// The plan a periodic-steady-state run implies: the shooting grid must
/// resolve the fundamental it is locking to.
pub(crate) fn pss_plan(circuit: &Circuit, opts: &PssOptions) -> SimPlan {
    let h = opts.period / opts.steps_per_period as f64;
    let mut plan = SimPlan::new("periodic steady state")
        .with_timestep(h)
        .with_lo(1.0 / opts.period);
    if let Some(f) = fastest_stimulus(circuit) {
        if f > 1.0 / opts.period {
            plan = plan.with_lo(f);
        }
    }
    plan
}

/// Lints `plan` under the default configuration and refuses deny-level
/// findings.
///
/// # Errors
///
/// [`AnalysisError::Lint`] carrying the full plan report when any
/// deny-level `SIM` rule fires.
pub(crate) fn gate(plan: &SimPlan) -> Result<(), AnalysisError> {
    let report = lint_plan(plan, &LintConfig::default());
    if !report.is_clean() {
        return Err(AnalysisError::Lint(report));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_lint::RuleId;

    fn lo_circuit(freq: f64) -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        c.add_vsource(
            "vlo",
            vin,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.0,
                amplitude: 0.6,
                freq,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_resistor("rl", vin, Circuit::gnd(), 50.0);
        c
    }

    #[test]
    fn fastest_stimulus_scans_all_waveforms() {
        let mut c = lo_circuit(2.4e9);
        let n = c.node("n2");
        c.add_isource(
            "i_rf",
            n,
            Circuit::gnd(),
            Waveform::TwoTone {
                offset: 0.0,
                amplitude: 1e-3,
                f1: 2.405e9,
                f2: 2.406e9,
            },
        );
        c.add_resistor("r2", n, Circuit::gnd(), 50.0);
        assert_eq!(fastest_stimulus(&c), Some(2.406e9));
        assert_eq!(fastest_stimulus(&Circuit::new()), None);
    }

    #[test]
    fn aliasing_transient_is_refused() {
        let c = lo_circuit(2.4e9);
        // 1 ns step against a 2.4 GHz LO: 0.42 samples per period.
        let opts = TranOptions::new(100e-9, 1e-9);
        let plan = tran_plan(&c, &opts);
        let err = gate(&plan).unwrap_err();
        let AnalysisError::Lint(report) = err else {
            panic!("expected a lint error");
        };
        assert_eq!(report.by_rule(RuleId::TimestepVsLo).len(), 1);

        // A resolving step passes.
        let opts = TranOptions::new(100e-9, 10e-12);
        assert!(gate(&tran_plan(&c, &opts)).is_ok());
    }

    #[test]
    fn pss_grid_resolves_its_fundamental_by_construction() {
        let c = lo_circuit(2.4e9);
        let opts = PssOptions::new(1.0 / 2.4e9);
        assert!(gate(&pss_plan(&c, &opts)).is_ok());
    }

    #[test]
    fn time_domain_entry_points_refuse_an_aliasing_grid() {
        let c = lo_circuit(2.4e9);
        let only_sim001 = |err: Option<AnalysisError>| {
            let Some(AnalysisError::Lint(report)) = err else {
                panic!("expected a lint error, got {err:?}");
            };
            assert_eq!(report.diagnostics.len(), 1, "{report}");
            assert_eq!(report.by_rule(RuleId::TimestepVsLo).len(), 1);
        };
        // A zero deadline trips the first budget hook, so a lint error
        // shows the plan was refused before any solver work.
        let token = remix_exec::RunBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .token();
        let _guard = token.arm();
        // 1 ns step against a 2.4 GHz LO: 0.42 samples per period.
        let opts = TranOptions::new(100e-9, 1e-9);
        only_sim001(crate::tran::transient(&c, &opts).err());
        only_sim001(
            crate::trannoise::noise_transient(&c, &opts, &crate::NoiseTranConfig::default()).err(),
        );
        // One shooting step per LO period: one sample per period.
        let mut pss = PssOptions::new(1.0 / 2.4e9);
        pss.steps_per_period = 1;
        only_sim001(crate::pss::periodic_steady_state(&c, &pss).err());
    }

    #[test]
    fn frequency_domain_entry_points_run_on_any_grid() {
        let mut c = lo_circuit(2.4e9);
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        let op = crate::op::dc_operating_point(&c, &crate::OpOptions::default()).unwrap();
        let grids: [&[f64]; 4] = [&[], &[5e6], &[5.5e9, 1e-3, 1e12], &[1e3, 1e3]];
        for freqs in grids {
            let ac = crate::ac::ac_sweep(&c, &op, freqs).unwrap();
            assert_eq!(ac.freqs, freqs);
            let noise = crate::acnoise::output_noise(&c, &op, out, Circuit::gnd(), freqs).unwrap();
            assert_eq!(noise.total.len(), freqs.len());
        }
    }
}

//! Machine-applicable fixes and the `--fix` fixpoint engine.
//!
//! A [`Fix`] is the lint pass's counterpart of clippy's
//! `MachineApplicable` suggestion: a concrete, semantics-preserving-ish
//! repair attached to a [`Diagnostic`] that a tool can apply without
//! human judgement. Circuit fixes rewrite the in-memory netlist (a
//! ground-tie resistor for a floating subnet, a gmin shunt for a
//! structurally singular block, a rename for a duplicate instance);
//! plan fixes carry the replacement values for a
//! [`SimPlan`](crate::plan::SimPlan) (snap an FFT record coherent,
//! refine a timestep, widen a band) and are reported, not applied.
//!
//! [`fix_circuit`] drives the loop clippy users know as
//! `cargo clippy --fix`: lint, apply every attached fix once, re-lint,
//! repeat until a fixpoint (no new applicable fix) or a small round
//! cap. Findings that survive with no fix are *unfixable* and left for
//! the human; the engine never masks them.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, LintReport};
use remix_circuit::{Circuit, ElementId};
use remix_telemetry::json_str;

/// Upper bound on lint→apply rounds. Each round must apply at least one
/// *new* fix to continue, so this only guards against a pathological
/// rule/fix pair that keeps inventing distinct repairs.
const MAX_ROUNDS: usize = 8;

/// One machine-applicable repair.
///
/// Circuit-side fixes name nodes/elements by their string names (stable
/// across the rewrite); plan-side fixes carry the replacement values.
#[derive(Debug, Clone, PartialEq)]
pub enum Fix {
    /// Tie `node` to ground through a resistor of `ohms` — gives a
    /// floating or capacitively-isolated subnet a DC reference without
    /// disturbing the signal path (large `ohms`).
    GroundTie {
        /// Node to tie.
        node: String,
        /// Tie resistance (Ω).
        ohms: f64,
    },
    /// Shunt `node` to ground with a very large resistor (conductance
    /// `1/ohms` ≈ gmin) — the classical cure for a structurally singular
    /// KCL row.
    GminShunt {
        /// Node to shunt.
        node: String,
        /// Shunt resistance (Ω).
        ohms: f64,
    },
    /// Rename every element after the first that bears `name` to a fresh
    /// unique name, so name-based lookups become unambiguous.
    RenameDuplicates {
        /// The contested instance name.
        name: String,
    },
    /// Replace the plan's transient timestep.
    SetTimestep {
        /// New timestep (s).
        seconds: f64,
    },
    /// Replace the FFT record with a coherent one: every readout tone an
    /// integer number of bins, all below Nyquist.
    SnapCoherent {
        /// New record sample rate (Hz).
        sample_rate: f64,
        /// New record length (samples, power of two).
        fft_len: usize,
    },
    /// Raise the PSS harmonic count.
    RaiseHarmonics {
        /// New harmonic count.
        harmonics: usize,
    },
    /// Widen the noise analysis band.
    WidenNoiseBand {
        /// New band start (Hz).
        min_hz: f64,
        /// New band stop (Hz).
        max_hz: f64,
    },
    /// Widen the frequency sweep.
    WidenSweep {
        /// New sweep start (Hz).
        min_hz: f64,
        /// New sweep stop (Hz).
        max_hz: f64,
    },
    /// Extend the transient duration.
    ExtendDuration {
        /// New duration (s).
        seconds: f64,
    },
    /// Declare a JSON-lines event log so a long run leaves a
    /// diagnosable trail.
    DeclareEventLog {
        /// Suggested log file path.
        path: String,
    },
}

impl Fix {
    /// Human-readable suggestion text, rendered after `help:` in
    /// diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Fix::GroundTie { node, ohms } => {
                format!("tie node '{node}' to ground through a {ohms:.1e} Ω resistor")
            }
            Fix::GminShunt { node, ohms } => {
                format!("shunt node '{node}' to ground with a {ohms:.1e} Ω gmin resistor")
            }
            Fix::RenameDuplicates { name } => {
                format!("rename the later elements sharing the name '{name}'")
            }
            Fix::SetTimestep { seconds } => format!("set the timestep to {seconds:.3e} s"),
            Fix::SnapCoherent {
                sample_rate,
                fft_len,
            } => format!(
                "snap the FFT record to fs = {sample_rate:.6e} Hz, N = {fft_len} \
                 (coherent bins)"
            ),
            Fix::RaiseHarmonics { harmonics } => {
                format!("retain at least {harmonics} PSS harmonics")
            }
            Fix::WidenNoiseBand { min_hz, max_hz } => {
                format!("widen the noise band to {min_hz:.3e}–{max_hz:.3e} Hz")
            }
            Fix::WidenSweep { min_hz, max_hz } => {
                format!("widen the sweep to {min_hz:.3e}–{max_hz:.3e} Hz")
            }
            Fix::ExtendDuration { seconds } => {
                format!("extend the transient to {seconds:.3e} s")
            }
            Fix::DeclareEventLog { path } => {
                format!("declare the JSON-lines event log '{path}'")
            }
        }
    }

    /// JSON object form, embedded under the diagnostic's `"fix"` key.
    pub(crate) fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            format!("{v:e}")
        }
        match self {
            Fix::GroundTie { node, ohms } => format!(
                "{{\"action\":\"ground_tie\",\"node\":{},\"ohms\":{}}}",
                json_str(node),
                num(*ohms)
            ),
            Fix::GminShunt { node, ohms } => format!(
                "{{\"action\":\"gmin_shunt\",\"node\":{},\"ohms\":{}}}",
                json_str(node),
                num(*ohms)
            ),
            Fix::RenameDuplicates { name } => format!(
                "{{\"action\":\"rename_duplicates\",\"name\":{}}}",
                json_str(name)
            ),
            Fix::SetTimestep { seconds } => {
                format!(
                    "{{\"action\":\"set_timestep\",\"seconds\":{}}}",
                    num(*seconds)
                )
            }
            Fix::SnapCoherent {
                sample_rate,
                fft_len,
            } => format!(
                "{{\"action\":\"snap_coherent\",\"sample_rate\":{},\"fft_len\":{fft_len}}}",
                num(*sample_rate)
            ),
            Fix::RaiseHarmonics { harmonics } => {
                format!("{{\"action\":\"raise_harmonics\",\"harmonics\":{harmonics}}}")
            }
            Fix::WidenNoiseBand { min_hz, max_hz } => format!(
                "{{\"action\":\"widen_noise_band\",\"min_hz\":{},\"max_hz\":{}}}",
                num(*min_hz),
                num(*max_hz)
            ),
            Fix::WidenSweep { min_hz, max_hz } => format!(
                "{{\"action\":\"widen_sweep\",\"min_hz\":{},\"max_hz\":{}}}",
                num(*min_hz),
                num(*max_hz)
            ),
            Fix::ExtendDuration { seconds } => format!(
                "{{\"action\":\"extend_duration\",\"seconds\":{}}}",
                num(*seconds)
            ),
            Fix::DeclareEventLog { path } => format!(
                "{{\"action\":\"declare_event_log\",\"path\":{}}}",
                json_str(path)
            ),
        }
    }

    /// Applies a circuit-side fix to `circuit`. Returns `false` for
    /// plan-side fixes and for fixes whose target no longer exists.
    pub fn apply_to_circuit(&self, circuit: &mut Circuit) -> bool {
        match self {
            Fix::GroundTie { node, ohms } | Fix::GminShunt { node, ohms } => {
                let Some(n) = circuit.find_node(node) else {
                    return false;
                };
                if n.is_ground() {
                    return false;
                }
                let name = unique_name(circuit, &format!("rfix_{}", sanitize(node)));
                circuit.add_resistor(&name, n, Circuit::gnd(), *ohms);
                true
            }
            Fix::RenameDuplicates { name } => {
                let bearers: Vec<usize> = circuit
                    .elements()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.name() == name.as_str())
                    .map(|(i, _)| i)
                    .collect();
                if bearers.len() < 2 {
                    return false;
                }
                let mut changed = false;
                // The first bearer keeps the name (matching the lookup
                // rule: name-based lookups resolve to the first).
                for (k, &idx) in bearers.iter().enumerate().skip(1) {
                    let fresh = unique_name(circuit, &format!("{name}_dup{}", k + 1));
                    changed |= circuit.rename_element(ElementId::from_index(idx), &fresh);
                }
                changed
            }
            _ => false,
        }
    }
}

/// Keeps letters, digits and `_`; everything else becomes `_`. Node
/// names flow into generated element names, which the SPICE exporter
/// writes as bare tokens.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `base`, or `base_2`, `base_3`, … — first name no element bears yet.
fn unique_name(circuit: &Circuit, base: &str) -> String {
    if circuit.find_element(base).is_none() {
        return base.to_string();
    }
    for k in 2.. {
        let cand = format!("{base}_{k}");
        if circuit.find_element(&cand).is_none() {
            return cand;
        }
    }
    unreachable!() // audit: allow(AUD002): the numbered-suffix candidate generator always yields a fresh name
}

/// Result of a [`fix_circuit`] run.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// The lint report of the *final* state, after all fixes.
    pub report: LintReport,
    /// Every fix applied, in application order.
    pub applied: Vec<Fix>,
    /// Lint→apply rounds executed (1 = already at fixpoint).
    pub rounds: usize,
}

impl FixOutcome {
    /// Findings that survived fixing and carry no machine-applicable
    /// repair — the human's remaining to-do list.
    pub fn unfixable(&self) -> Vec<&Diagnostic> {
        self.report
            .diagnostics
            .iter()
            .filter(|d| d.fix.is_none())
            .collect()
    }

    /// `true` when the final report has no deny-level findings.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Runs the lint→apply loop over a circuit until fixpoint.
///
/// Every diagnostic fix (deny *and* warn level — like `clippy --fix`,
/// which applies machine-applicable suggestions at any lint level) is
/// applied at most once; a fix equal to one already applied is skipped,
/// which guarantees termination even if a rule keeps firing.
pub fn fix_circuit(circuit: &mut Circuit, config: &LintConfig) -> FixOutcome {
    let mut applied: Vec<Fix> = Vec::new();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let report = crate::lint(circuit, config);
        let mut progressed = false;
        for d in &report.diagnostics {
            let Some(fix) = &d.fix else { continue };
            if applied.contains(fix) {
                continue;
            }
            if fix.apply_to_circuit(circuit) {
                applied.push(fix.clone());
                progressed = true;
            }
        }
        if !progressed || rounds >= MAX_ROUNDS {
            let report = if progressed {
                crate::lint(circuit, config)
            } else {
                report
            };
            return FixOutcome {
                report,
                applied,
                rounds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::RuleId;
    use remix_circuit::{Circuit, Waveform};

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        c
    }

    #[test]
    fn ground_tie_adds_a_uniquely_named_resistor() {
        let mut c = divider();
        let mid = c.node("mid");
        let out = c.find_node("out").unwrap();
        c.add_capacitor("ca", out, mid, 1e-12);
        c.add_capacitor("cb", mid, Circuit::gnd(), 1e-12);
        // Occupy the natural fix name to force the uniquifier.
        c.add_resistor("rfix_mid", out, Circuit::gnd(), 1e6);

        let fix = Fix::GroundTie {
            node: "mid".into(),
            ohms: 1e9,
        };
        assert!(fix.apply_to_circuit(&mut c));
        assert!(c.find_element("rfix_mid_2").is_some());
        // Unknown node: refused.
        assert!(!Fix::GroundTie {
            node: "nope".into(),
            ohms: 1e9
        }
        .apply_to_circuit(&mut c));
    }

    #[test]
    fn rename_duplicates_keeps_the_first_bearer() {
        let mut c = divider();
        let out = c.find_node("out").unwrap();
        c.add_resistor("r1", out, Circuit::gnd(), 2e3);
        c.add_resistor("r1", out, Circuit::gnd(), 3e3);
        let fix = Fix::RenameDuplicates { name: "r1".into() };
        assert!(fix.apply_to_circuit(&mut c));
        let names: Vec<&str> = c.elements().iter().map(|e| e.name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "r1").count(), 1);
        assert!(names.contains(&"r1_dup2"));
        assert!(names.contains(&"r1_dup3"));
        // Already unique: nothing to do.
        assert!(!fix.apply_to_circuit(&mut c));
    }

    #[test]
    fn fix_circuit_reaches_a_deny_clean_fixpoint() {
        let mut c = divider();
        let mid = c.node("mid");
        let out = c.find_node("out").unwrap();
        c.add_capacitor("ca", out, mid, 1e-12);
        c.add_capacitor("cb", mid, Circuit::gnd(), 1e-12);
        c.add_resistor("r1", out, Circuit::gnd(), 2e3); // duplicate name

        let outcome = fix_circuit(&mut c, &LintConfig::default());
        assert!(outcome.is_clean(), "{}", outcome.report);
        assert!(outcome
            .applied
            .iter()
            .any(|f| matches!(f, Fix::GroundTie { node, .. } if node == "mid")));
        assert!(outcome
            .applied
            .iter()
            .any(|f| matches!(f, Fix::RenameDuplicates { name } if name == "r1")));
        assert!(outcome.rounds >= 2, "second round must verify the fixpoint");
    }

    #[test]
    fn unfixable_findings_survive_and_are_listed() {
        let mut c = divider();
        c.node("orphan"); // ERC001, no machine fix
        let outcome = fix_circuit(&mut c, &LintConfig::default());
        assert!(!outcome.is_clean());
        assert_eq!(outcome.applied, vec![]);
        assert_eq!(outcome.unfixable().len(), 1);
        assert_eq!(outcome.unfixable()[0].rule, RuleId::DanglingNode);
    }

    #[test]
    fn fix_json_shapes_are_stable() {
        let j = Fix::GroundTie {
            node: "mid".into(),
            ohms: 1e9,
        }
        .to_json();
        assert_eq!(
            j,
            "{\"action\":\"ground_tie\",\"node\":\"mid\",\"ohms\":1e9}"
        );
        let j = Fix::SnapCoherent {
            sample_rate: 1.6384e10,
            fft_len: 32768,
        }
        .to_json();
        assert!(j.contains("\"action\":\"snap_coherent\""));
        assert!(j.contains("\"fft_len\":32768"));
        for f in [
            Fix::GminShunt {
                node: "x".into(),
                ohms: 1e12,
            },
            Fix::RenameDuplicates { name: "r1".into() },
            Fix::SetTimestep { seconds: 1e-12 },
            Fix::RaiseHarmonics { harmonics: 5 },
            Fix::WidenNoiseBand {
                min_hz: 1e3,
                max_hz: 1e7,
            },
            Fix::WidenSweep {
                min_hz: 5e8,
                max_hz: 5.5e9,
            },
            Fix::ExtendDuration { seconds: 1e-6 },
        ] {
            let j = f.to_json();
            assert!(j.starts_with("{\"action\":\""), "{j}");
            assert!(!f.describe().is_empty());
        }
    }
}

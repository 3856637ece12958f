//! Diagnostic types: rule identifiers, severities, findings, reports.

use crate::fix::Fix;
use remix_telemetry::json_str;
use std::fmt;

/// Version of the JSON report layout produced by
/// [`LintReport::render_json`]. Bumped whenever the shape of the emitted
/// object changes so downstream consumers of `remix-bench lint --json`
/// can detect drift. History: 1 = PR 1 (`deny`/`warn`/`diagnostics`),
/// 2 = this field plus per-diagnostic `fix` objects, 3 = optional
/// per-diagnostic `line` (deck source line for frontend rules
/// ERC014–ERC016).
pub const SCHEMA_VERSION: u32 = 3;

/// How seriously a finding is treated.
///
/// Mirrors the clippy lint levels: `Deny` findings make analyses refuse
/// the circuit, `Warn` findings are reported but non-fatal, `Allow`
/// disables the rule entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Rule disabled; no diagnostics are emitted.
    Allow,
    /// Reported, but does not block analyses.
    Warn,
    /// Reported and blocks analyses (structural MNA singularity or a
    /// deck that cannot mean what was written).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable identifier of an electrical-rule check.
///
/// The `ERCnnn_*` codes are part of the public interface: they appear in
/// rendered diagnostics, JSON output, and [`LintConfig`] overrides, and
/// existing codes are never renumbered. A retired code (`SIM002`–`SIM008`)
/// is never reused.
///
/// [`LintConfig`]: crate::LintConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `ERC001` — a non-ground node touched by fewer than two element
    /// terminals.
    DanglingNode,
    /// `ERC002` — a node with no DC-conducting path to ground.
    NoDcPath,
    /// `ERC003` — a loop of ideal voltage-defined branches (V, E, L):
    /// the MNA branch equations become linearly dependent.
    VsourceLoop,
    /// `ERC004` — a current source bridging parts of the circuit that no
    /// DC-current-carrying branch connects: KCL cannot absorb the forced
    /// current.
    IsourceCutset,
    /// `ERC005` — a node whose every connection is a capacitor: no DC
    /// conductance, structurally singular operating point.
    CapOnlyNode,
    /// `ERC006` — a MOS gate with no DC drive path to ground (gates
    /// conduct nothing, so a gate reachable only through other gates or
    /// capacitors floats).
    FloatingGate,
    /// `ERC007` — a MOS bulk not tied to a supply-rail node (a node
    /// pinned to ground through ideal voltage sources).
    BulkNotRail,
    /// `ERC008` — a device value outside its legal domain (zero,
    /// negative, or non-finite where positive-finite is required).
    InvalidValue,
    /// `ERC009` — an instance name used by more than one element.
    DuplicateName,
    /// `ERC010` — a circuit with no elements.
    EmptyCircuit,
    /// `ERC011` — an element that cannot affect any analysis as
    /// configured (zero-valued stimulus, or all terminals shorted to one
    /// node); usually a leftover from mode switching.
    DeadUnderMode,
    /// `ERC012` — the MNA system is *provably* structurally singular in
    /// some regime: maximum matching on the incidence bipartite graph
    /// leaves equations unmatched (Dulmage–Mendelsohn under-determined
    /// block). Exact where `ERC001`–`ERC006` are heuristic.
    StructuralSingular,
    /// `ERC013` — element values span enough decades that LU pivots of
    /// the assembled MNA matrix risk catastrophic cancellation.
    IllScaled,
    /// `ERC014` — a `.param` in the source deck that is defined but never
    /// referenced, or whose definition references a name that is never
    /// defined (deck-frontend hygiene; reported via `lint_deck`).
    ParamHygiene,
    /// `ERC015` — an `X` card referencing an undefined subckt, or one
    /// whose node count does not match the subckt's declared port arity
    /// (the parser skips the instance; this rule decides whether the deck
    /// is still acceptable).
    SubcktInstance,
    /// `ERC016` — `.param` definitions forming (or depending on) a
    /// dependency cycle: the members can never resolve to values.
    ParamCycle,
    /// `SIM001` — transient timestep at or beyond the Nyquist limit of
    /// the fastest declared stimulus (LO aliases into the record).
    TimestepVsLo,
}

impl RuleId {
    /// Every rule, in code order (`ERC` first, then `SIM`).
    pub const ALL: [RuleId; 17] = [
        RuleId::DanglingNode,
        RuleId::NoDcPath,
        RuleId::VsourceLoop,
        RuleId::IsourceCutset,
        RuleId::CapOnlyNode,
        RuleId::FloatingGate,
        RuleId::BulkNotRail,
        RuleId::InvalidValue,
        RuleId::DuplicateName,
        RuleId::EmptyCircuit,
        RuleId::DeadUnderMode,
        RuleId::StructuralSingular,
        RuleId::IllScaled,
        RuleId::ParamHygiene,
        RuleId::SubcktInstance,
        RuleId::ParamCycle,
        RuleId::TimestepVsLo,
    ];

    /// The stable textual code (`ERC001_DANGLING_NODE`, …).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::DanglingNode => "ERC001_DANGLING_NODE",
            RuleId::NoDcPath => "ERC002_NO_DC_PATH",
            RuleId::VsourceLoop => "ERC003_VSOURCE_LOOP",
            RuleId::IsourceCutset => "ERC004_ISOURCE_CUTSET",
            RuleId::CapOnlyNode => "ERC005_CAP_ONLY_NODE",
            RuleId::FloatingGate => "ERC006_FLOATING_GATE",
            RuleId::BulkNotRail => "ERC007_BULK_NOT_RAIL",
            RuleId::InvalidValue => "ERC008_INVALID_VALUE",
            RuleId::DuplicateName => "ERC009_DUPLICATE_NAME",
            RuleId::EmptyCircuit => "ERC010_EMPTY_CIRCUIT",
            RuleId::DeadUnderMode => "ERC011_DEAD_UNDER_MODE",
            RuleId::StructuralSingular => "ERC012_STRUCTURAL_SINGULAR",
            RuleId::IllScaled => "ERC013_ILL_SCALED",
            RuleId::ParamHygiene => "ERC014_PARAM_HYGIENE",
            RuleId::SubcktInstance => "ERC015_SUBCKT_INSTANCE",
            RuleId::ParamCycle => "ERC016_PARAM_CYCLE",
            RuleId::TimestepVsLo => "SIM001_TIMESTEP_VS_LO",
        }
    }

    /// Parses a stable code back into a rule id.
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// The built-in severity, used unless a [`LintConfig`] overrides it.
    ///
    /// Every structural-singularity rule denies; style-level findings
    /// warn.
    ///
    /// [`LintConfig`]: crate::LintConfig
    pub fn default_severity(self) -> Severity {
        match self {
            RuleId::BulkNotRail
            | RuleId::DeadUnderMode
            | RuleId::IllScaled
            | RuleId::ParamHygiene => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// One-line description for catalogs and `--help` output.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::DanglingNode => "node touched by fewer than two element terminals",
            RuleId::NoDcPath => "node with no DC-conducting path to ground",
            RuleId::VsourceLoop => "loop of ideal voltage-defined branches (V/E/L)",
            RuleId::IsourceCutset => "current source with no DC return path for its current",
            RuleId::CapOnlyNode => "node connected only through capacitors",
            RuleId::FloatingGate => "MOS gate with no DC drive path",
            RuleId::BulkNotRail => "MOS bulk not tied to a supply rail",
            RuleId::InvalidValue => "device value outside its legal domain",
            RuleId::DuplicateName => "instance name used more than once",
            RuleId::EmptyCircuit => "circuit contains no elements",
            RuleId::DeadUnderMode => "element with no effect as configured",
            RuleId::StructuralSingular => "MNA equations provably lack a structural full rank",
            RuleId::IllScaled => "element values span enough decades to threaten LU pivots",
            RuleId::ParamHygiene => "unused or undefined `.param` in the source deck",
            RuleId::SubcktInstance => "subckt instantiation dangling or with mismatched arity",
            RuleId::ParamCycle => "`.param` definitions form a dependency cycle",
            RuleId::TimestepVsLo => "transient timestep at/beyond the stimulus Nyquist limit",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a rule violation with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Effective severity (after configuration overrides).
    pub severity: Severity,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// Names of the nodes involved (may be empty).
    pub nodes: Vec<String>,
    /// Names of the elements involved (may be empty).
    pub elements: Vec<String>,
    /// 1-based source-deck line, for rules that fire on deck text rather
    /// than on the built circuit (ERC014–ERC016 via `lint_deck`).
    pub line: Option<usize>,
    /// Machine-applicable repair, when one exists (clippy's
    /// `MachineApplicable` suggestions). Applied by the `--fix` engine in
    /// [`crate::fix`].
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// Renders the single-line clippy-style form:
    /// `deny[ERC001_DANGLING_NODE]: message (nodes: x; elements: r1)`,
    /// with a trailing `help:` when a machine-applicable fix exists.
    pub fn render(&self) -> String {
        let mut s = format!("{}[{}]: {}", self.severity, self.rule, self.message);
        let mut prov = Vec::new();
        if let Some(line) = self.line {
            prov.push(format!("line {line}"));
        }
        if !self.nodes.is_empty() {
            prov.push(format!("nodes: {}", self.nodes.join(", ")));
        }
        if !self.elements.is_empty() {
            prov.push(format!("elements: {}", self.elements.join(", ")));
        }
        if !prov.is_empty() {
            s.push_str(&format!(" ({})", prov.join("; ")));
        }
        if let Some(fix) = &self.fix {
            s.push_str(&format!(" help: {}", fix.describe()));
        }
        s
    }

    fn to_json(&self) -> String {
        let fix = match &self.fix {
            Some(f) => format!(",\"fix\":{}", f.to_json()),
            None => String::new(),
        };
        let line = match self.line {
            Some(n) => format!(",\"line\":{n}"),
            None => String::new(),
        };
        format!(
            "{{\"rule\":{},\"severity\":{}{},\"message\":{},\"nodes\":[{}],\"elements\":[{}]{}}}",
            json_str(self.rule.code()),
            json_str(&self.severity.to_string()),
            line,
            json_str(&self.message),
            self.nodes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(","),
            self.elements
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(","),
            fix,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The result of a lint pass: every finding, ordered by rule code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings (severity `Allow` rules emit none).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when nothing blocks analysis (no deny findings).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// `true` when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings for one rule.
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Multi-line text rendering: one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} deny, {} warn\n",
            self.deny_count(),
            self.warn_count()
        ));
        out
    }

    /// JSON rendering (no external dependencies):
    /// `{"schema_version":2,"deny":1,"warn":0,"diagnostics":[…]}`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"deny\":{},\"warn\":{},\"diagnostics\":[{}]}}",
            SCHEMA_VERSION,
            self.deny_count(),
            self.warn_count(),
            self.diagnostics
                .iter()
                .map(Diagnostic::to_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_reversible() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_code(r.code()), Some(r));
            assert!(r.code().starts_with("ERC") || r.code().starts_with("SIM"));
            assert!(!r.summary().is_empty());
        }
        assert_eq!(RuleId::from_code("ERC999_NOPE"), None);
        assert_eq!(RuleId::DanglingNode.code(), "ERC001_DANGLING_NODE");
        assert_eq!(
            RuleId::StructuralSingular.code(),
            "ERC012_STRUCTURAL_SINGULAR"
        );
        assert_eq!(RuleId::TimestepVsLo.code(), "SIM001_TIMESTEP_VS_LO");
        // Retired codes are never reused: neither by full code nor by
        // number prefix.
        for retired in [
            "SIM002_NONCOHERENT_FFT",
            "SIM003_PSS_HARMONICS",
            "SIM004_NOISE_BAND",
            "SIM005_SWEEP_RANGE",
            "SIM006_TRAN_DURATION",
            "SIM007_UNCHECKPOINTED_RUN",
            "SIM008_UNOBSERVED_LONG_RUN",
        ] {
            assert_eq!(RuleId::from_code(retired), None, "{retired} was reused");
        }
        for r in RuleId::ALL {
            for n in 2..=8 {
                let prefix = format!("SIM{n:03}");
                assert!(!r.code().starts_with(&prefix), "{r} reuses {prefix}");
            }
        }
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Allow);
        assert_eq!(Severity::Deny.to_string(), "deny");
    }

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    rule: RuleId::DanglingNode,
                    severity: Severity::Deny,
                    message: "node 'x' is dangling".into(),
                    nodes: vec!["x".into()],
                    elements: vec!["r1".into()],
                    line: None,
                    fix: None,
                },
                Diagnostic {
                    rule: RuleId::BulkNotRail,
                    severity: Severity::Warn,
                    message: "bulk of 'm1' floats".into(),
                    nodes: vec![],
                    elements: vec!["m1".into()],
                    line: None,
                    fix: None,
                },
            ],
        }
    }

    #[test]
    fn counting_and_cleanliness() {
        let r = sample();
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.by_rule(RuleId::DanglingNode).len(), 1);
        assert!(LintReport::default().is_clean());
        assert!(LintReport::default().is_empty());
    }

    #[test]
    fn text_rendering() {
        let text = sample().render_text();
        assert!(text.contains("deny[ERC001_DANGLING_NODE]: node 'x' is dangling"));
        assert!(text.contains("(nodes: x; elements: r1)"));
        assert!(text.contains("1 deny, 1 warn"));
    }

    #[test]
    fn json_rendering_escapes() {
        let r = LintReport {
            diagnostics: vec![Diagnostic {
                rule: RuleId::InvalidValue,
                severity: Severity::Deny,
                message: "bad \"quote\"\nline".into(),
                nodes: vec![],
                elements: vec!["r\\1".into()],
                line: None,
                fix: None,
            }],
        };
        let json = r.render_json();
        assert!(json.contains("\\\"quote\\\"\\nline"));
        assert!(json.contains("r\\\\1"));
        assert!(json.starts_with(&format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"deny\":1,\"warn\":0,"
        )));
        assert!(json.contains("\"rule\":\"ERC008_INVALID_VALUE\""));
        // No fix → no "fix" key for this diagnostic.
        assert!(!json.contains("\"fix\""));
    }

    #[test]
    fn fixes_render_in_text_and_json() {
        let d = Diagnostic {
            rule: RuleId::CapOnlyNode,
            severity: Severity::Deny,
            message: "node 'mid' connects only to capacitors".into(),
            nodes: vec!["mid".into()],
            elements: vec![],
            line: None,
            fix: Some(Fix::GroundTie {
                node: "mid".into(),
                ohms: 1e9,
            }),
        };
        let text = d.render();
        assert!(text.contains("help:"), "{text}");
        assert!(text.contains("mid"), "{text}");
        let json = LintReport {
            diagnostics: vec![d],
        }
        .render_json();
        assert!(
            json.contains("\"fix\":{\"action\":\"ground_tie\""),
            "{json}"
        );
    }

    #[test]
    fn deck_lines_render_in_text_and_json() {
        let d = Diagnostic {
            rule: RuleId::ParamHygiene,
            severity: Severity::Warn,
            message: ".param 'lonely' is defined but never referenced".into(),
            nodes: vec![],
            elements: vec!["lonely".into()],
            line: Some(3),
            fix: None,
        };
        let text = d.render();
        assert!(text.contains("(line 3;"), "{text}");
        let json = LintReport {
            diagnostics: vec![d],
        }
        .render_json();
        assert!(
            json.contains("\"severity\":\"warn\",\"line\":3,\"message\""),
            "{json}"
        );
    }
}

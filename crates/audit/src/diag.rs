//! Audit diagnostics: rule identifiers, severities, findings, reports.
//!
//! Deliberately parallel to `remix-lint`'s diagnostic layer — same
//! deny/warn/allow model, same stable-code discipline, same hand-rolled
//! versioned JSON — so one mental model covers netlist lints and
//! workspace audits alike.

use std::fmt;

/// Version of the JSON report layout produced by
/// [`AuditReport::render_json`]. Bumped whenever the emitted shape
/// changes so CI artifact consumers can detect drift. History: 1 =
/// PR 6 (first release).
pub const AUDIT_SCHEMA_VERSION: u32 = 1;

/// How seriously a finding is treated. Mirrors `remix-lint`:
/// `Deny` findings fail the audit (non-zero CLI exit), `Warn` findings
/// are reported but non-fatal, `Allow` disables the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Rule disabled; no findings are emitted.
    Allow,
    /// Reported, but does not fail the audit.
    Warn,
    /// Reported and fails the audit.
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

/// Stable identifier of a workspace-audit rule.
///
/// The `AUDnnn_*` codes are public interface: they appear in rendered
/// findings, JSON output, [`AuditConfig`] overrides and the inline
/// suppression protocol (`// audit: allow(AUD001): <why>`). Existing
/// codes are never renumbered.
///
/// [`AuditConfig`]: crate::AuditConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditRule {
    /// `AUD001` — `.unwrap()` / `.expect(..)` in non-test library code
    /// without an inline justification. A panic in lib code tears down
    /// the worker thread that runs it; under the parallel supervisor
    /// that converts one bad sample into a lost worker.
    UnwrapInLib,
    /// `AUD002` — `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test library code without an inline
    /// justification.
    PanicInLib,
    /// `AUD003` — `process::exit` outside `remix_bench::run_bin`'s
    /// module. Exiting the process skips every RAII guard on every
    /// other thread: checkpoints are not flushed, sinks are not
    /// drained.
    ProcessExit,
    /// `AUD004` — `Instant::now` / `SystemTime::now` outside the
    /// telemetry and exec crates. Ad-hoc clocks bypass the budget /
    /// span machinery and make `without_timings()` determinism claims
    /// unauditable.
    AdHocTiming,
    /// `AUD005` — `static mut` anywhere, test code included. Mutable
    /// statics are unsynchronized shared state the parallel pool
    /// cannot certify; no suppression is honoured.
    StaticMut,
    /// `AUD006` — `thread::spawn` outside the exec crate. All
    /// parallelism must flow through the supervised pool so budgets,
    /// telemetry and fault plans are re-armed per worker.
    ThreadSpawn,
    /// `AUD007` — a `thread_local!` not declared in the central
    /// registry ([`crate::catalog::THREAD_LOCALS`]). The catalog is the
    /// exact inventory of per-thread RAII state the parallel
    /// supervisor must re-arm on every worker; an unlisted
    /// thread-local is state a worker would silently run without.
    UnregisteredThreadLocal,
    /// `AUD008` — a `"remix.*"` metric/span/event name literal outside
    /// the central `remix_telemetry::names` catalog. Typo'd names fork
    /// metrics into never-read twins; call sites must use the
    /// constants.
    UnknownMetricName,
    /// `AUD009` — `Ordering::Relaxed` without an adjacent
    /// `// audit: relaxed-ok: <why>` justification. Every relaxed
    /// atomic the pool will share must argue why it needs no
    /// happens-before edge — or be upgraded.
    UnjustifiedRelaxed,
    /// `AUD010` — a `pub` fn, struct, enum, trait, type, const or
    /// static nothing names: no non-test code in its own file and no
    /// other file (tests, examples and the benchmark harness included)
    /// names it, in code, in a doctest or as an inline format argument.
    /// rustc's `dead_code` lint never fires on `pub` items, so without
    /// this rule dead public surface stays compiled and tested forever.
    /// The variant and its code keep their original `PUB_FN` names so
    /// existing markers and configurations stay valid.
    /// Checked by [`audit_workspace`](crate::audit_workspace) only: it
    /// needs the whole workspace to see every caller.
    UnreferencedPubFn,
}

impl AuditRule {
    /// Every rule, in code order.
    pub const ALL: [AuditRule; 10] = [
        AuditRule::UnwrapInLib,
        AuditRule::PanicInLib,
        AuditRule::ProcessExit,
        AuditRule::AdHocTiming,
        AuditRule::StaticMut,
        AuditRule::ThreadSpawn,
        AuditRule::UnregisteredThreadLocal,
        AuditRule::UnknownMetricName,
        AuditRule::UnjustifiedRelaxed,
        AuditRule::UnreferencedPubFn,
    ];

    /// The stable textual code (`AUD001_UNWRAP_IN_LIB`, …).
    pub fn code(self) -> &'static str {
        match self {
            AuditRule::UnwrapInLib => "AUD001_UNWRAP_IN_LIB",
            AuditRule::PanicInLib => "AUD002_PANIC_IN_LIB",
            AuditRule::ProcessExit => "AUD003_PROCESS_EXIT",
            AuditRule::AdHocTiming => "AUD004_AD_HOC_TIMING",
            AuditRule::StaticMut => "AUD005_STATIC_MUT",
            AuditRule::ThreadSpawn => "AUD006_THREAD_SPAWN",
            AuditRule::UnregisteredThreadLocal => "AUD007_UNREGISTERED_THREAD_LOCAL",
            AuditRule::UnknownMetricName => "AUD008_UNKNOWN_METRIC_NAME",
            AuditRule::UnjustifiedRelaxed => "AUD009_UNJUSTIFIED_RELAXED",
            AuditRule::UnreferencedPubFn => "AUD010_UNREFERENCED_PUB_FN",
        }
    }

    /// Parses a stable code back into a rule id.
    pub fn from_code(code: &str) -> Option<AuditRule> {
        AuditRule::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// The built-in severity. Everything the parallel pool depends on
    /// denies; there are no warn-by-default audit rules today.
    pub fn default_severity(self) -> Severity {
        Severity::Deny
    }

    /// `true` when an inline `// audit: allow(AUDnnn): <why>`
    /// suppression is honoured. `static mut` is beyond justification.
    pub fn suppressible(self) -> bool {
        !matches!(self, AuditRule::StaticMut)
    }

    /// One-line description for catalogs and `--help` output.
    pub fn summary(self) -> &'static str {
        match self {
            AuditRule::UnwrapInLib => "unwrap/expect in lib code without justification",
            AuditRule::PanicInLib => "panic-family macro in lib code without justification",
            AuditRule::ProcessExit => "process::exit outside remix_bench::run_bin",
            AuditRule::AdHocTiming => "Instant/SystemTime::now outside telemetry/exec",
            AuditRule::StaticMut => "static mut anywhere (unsynchronized shared state)",
            AuditRule::ThreadSpawn => "thread::spawn outside the exec crate",
            AuditRule::UnregisteredThreadLocal => "thread_local! missing from the RAII catalog",
            AuditRule::UnknownMetricName => "metric name literal outside telemetry::names",
            AuditRule::UnjustifiedRelaxed => "Ordering::Relaxed without a relaxed-ok justification",
            AuditRule::UnreferencedPubFn => "pub item that no code, test, example or doctest names",
        }
    }
}

impl fmt::Display for AuditRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Per-run configuration: severity overrides, mirroring `LintConfig`.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    overrides: Vec<(AuditRule, Severity)>,
}

impl AuditConfig {
    /// The built-in severities with no overrides.
    pub fn new() -> Self {
        AuditConfig::default()
    }

    /// Overrides one rule's severity (`Allow` disables it).
    pub fn with_severity(mut self, rule: AuditRule, severity: Severity) -> Self {
        self.overrides.retain(|(r, _)| *r != rule);
        self.overrides.push((rule, severity));
        self
    }

    /// The effective severity of a rule under this configuration.
    pub fn severity(&self, rule: AuditRule) -> Severity {
        self.overrides
            .iter()
            .find(|(r, _)| *r == rule)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| rule.default_severity())
    }
}

/// One audit finding: a rule violation with file/line provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: AuditRule,
    /// Effective severity (after configuration overrides).
    pub severity: Severity,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    /// Single-line clippy-style rendering:
    /// `deny[AUD001_UNWRAP_IN_LIB] crates/x/src/y.rs:12: message`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"message\":{},\"snippet\":{}}}",
            json_str(self.rule.code()),
            json_str(&self.severity.to_string()),
            json_str(&self.file),
            self.line,
            json_str(&self.message),
            json_str(&self.snippet),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// JSON string literal with the escapes JSON requires. Hand-rolled —
/// the audit engine is dependency-free like the rest of the stack.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result of one audit pass: every finding, ordered by
/// (file, line, rule code).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All findings (severity `Allow` rules emit none).
    pub findings: Vec<Finding>,
    /// Files scanned, for the summary line.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when nothing fails the audit (no deny findings).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Findings for one rule.
    pub fn by_rule(&self, rule: AuditRule) -> Vec<&Finding> {
        self.findings.iter().filter(|d| d.rule == rule).collect()
    }

    /// Canonical ordering: by file, then line, then rule code.
    pub(crate) fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.code()).cmp(&(b.file.as_str(), b.line, b.rule.code()))
        });
    }

    /// Multi-line text rendering: one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "audit: {} files scanned, {} deny, {} warn\n",
            self.files_scanned,
            self.deny_count(),
            self.warn_count()
        ));
        out
    }

    /// JSON rendering, one finding per line (greppable by CI smoke
    /// checks, like the bench records):
    /// `{"schema_version":1,"tool":"remix-audit", …}`.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {AUDIT_SCHEMA_VERSION},\n  \"tool\": \"remix-audit\",\n"
        ));
        s.push_str(&format!(
            "  \"files_scanned\": {},\n  \"deny\": {},\n  \"warn\": {},\n",
            self.files_scanned,
            self.deny_count(),
            self.warn_count()
        ));
        s.push_str("  \"findings\": [");
        for (i, d) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            s.push_str(&d.to_json());
        }
        s.push_str(if self.findings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_reversible() {
        for r in AuditRule::ALL {
            assert_eq!(AuditRule::from_code(r.code()), Some(r));
            assert!(r.code().starts_with("AUD"));
            assert!(!r.summary().is_empty());
        }
        assert_eq!(AuditRule::from_code("AUD999_NOPE"), None);
        assert_eq!(AuditRule::UnwrapInLib.code(), "AUD001_UNWRAP_IN_LIB");
        assert_eq!(
            AuditRule::UnjustifiedRelaxed.code(),
            "AUD009_UNJUSTIFIED_RELAXED"
        );
    }

    #[test]
    fn static_mut_is_beyond_justification() {
        for r in AuditRule::ALL {
            assert_eq!(r.suppressible(), r != AuditRule::StaticMut, "{r}");
        }
    }

    #[test]
    fn config_overrides_severity() {
        let cfg = AuditConfig::new().with_severity(AuditRule::UnwrapInLib, Severity::Warn);
        assert_eq!(cfg.severity(AuditRule::UnwrapInLib), Severity::Warn);
        assert_eq!(cfg.severity(AuditRule::PanicInLib), Severity::Deny);
        let cfg = cfg.with_severity(AuditRule::UnwrapInLib, Severity::Allow);
        assert_eq!(cfg.severity(AuditRule::UnwrapInLib), Severity::Allow);
    }

    fn sample() -> AuditReport {
        let mut r = AuditReport {
            findings: vec![
                Finding {
                    rule: AuditRule::UnjustifiedRelaxed,
                    severity: Severity::Deny,
                    file: "crates/x/src/b.rs".into(),
                    line: 7,
                    message: "Ordering::Relaxed without a relaxed-ok justification".into(),
                    snippet: "cell.load(Ordering::Relaxed)".into(),
                },
                Finding {
                    rule: AuditRule::UnwrapInLib,
                    severity: Severity::Warn,
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    message: "`.unwrap()` in library code".into(),
                    snippet: "foo.unwrap()".into(),
                },
            ],
            files_scanned: 2,
        };
        r.sort();
        r
    }

    #[test]
    fn report_counts_and_ordering() {
        let r = sample();
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        // Sorted by file first.
        assert_eq!(r.findings[0].file, "crates/x/src/a.rs");
        assert_eq!(r.by_rule(AuditRule::UnwrapInLib).len(), 1);
        assert!(AuditReport::default().is_clean());
    }

    #[test]
    fn text_and_json_render() {
        let r = sample();
        let text = r.render_text();
        assert!(text.contains("warn[AUD001_UNWRAP_IN_LIB] crates/x/src/a.rs:3:"));
        assert!(text.contains("2 files scanned, 1 deny, 1 warn"));
        let json = r.render_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"tool\": \"remix-audit\""));
        assert!(json.contains("\"rule\":\"AUD009_UNJUSTIFIED_RELAXED\""));
        assert!(json.contains("\"line\":7"));
    }

    #[test]
    fn json_escapes_hostile_snippets() {
        let r = AuditReport {
            findings: vec![Finding {
                rule: AuditRule::UnknownMetricName,
                severity: Severity::Deny,
                file: "crates/x/src/a.rs".into(),
                line: 1,
                message: "bad \"name\"".into(),
                snippet: "tab\there".into(),
            }],
            files_scanned: 1,
        };
        let json = r.render_json();
        assert!(json.contains("bad \\\"name\\\""));
        assert!(json.contains("tab\\there"));
    }
}

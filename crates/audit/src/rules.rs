//! The audit rules: pattern checks over [`ScannedFile`]s.
//!
//! Every rule matches against [`ScannedLine::masked`] (comments
//! stripped, literal contents blanked), so the patterns below cannot
//! be triggered by their own spelling inside strings or docs. The
//! inline escape hatch is the justification protocol:
//!
//! * `// audit: allow(AUDnnn): <why>` — suppresses that rule on the
//!   line it trails (or the line(s) directly below a comment block);
//! * `// audit: relaxed-ok: <why>` — the AUD009-specific marker for
//!   `Ordering::Relaxed` sites.
//!
//! `AUD005_STATIC_MUT` honours no marker: there is no justification
//! for unsynchronized shared mutable state in a stack being certified
//! for parallel scale-out.
//!
//! [`ScannedLine::masked`]: crate::scan::ScannedLine::masked

use crate::catalog;
use crate::diag::{AuditReport, AuditRule, Finding};
use crate::reach::unreferenced_pub_items;
use crate::scan::{scan_source, ScannedFile};
use crate::workspace::{reference_sources, workspace_sources};
use std::fs;
use std::io;
use std::path::Path;

/// Module allowed to call `process::exit`: `remix_bench::run_bin`'s
/// home, where a CLI's exit status is the contract.
const PROCESS_EXIT_ALLOW: &[&str] = &["crates/bench/src/lib.rs"];

/// Crates allowed to read wall clocks directly: the budget machinery
/// (deadlines), the telemetry span layer, and the serve frontier (frame
/// deadlines, admission latency, load-shed estimates are wall-clock by
/// nature); everything else is required to go through them.
const TIMING_ALLOW_PREFIXES: &[&str] = &[
    "crates/telemetry/src/",
    "crates/exec/src/",
    "crates/serve/src/",
];

/// Crates allowed to spawn threads: the study pool's scoped workers,
/// and the serve crate's accept/connection/worker loops (each worker
/// arms a fresh budget and runs the job inside `remix_exec::contain`,
/// so budgets and telemetry are re-armed per job).
const SPAWN_ALLOW_PREFIXES: &[&str] = &["crates/exec/src/", "crates/serve/src/"];

/// The metric-name catalog module (`remix_telemetry::names`), the one
/// place `"remix.*"` literals are the point.
const NAMES_CATALOG: &str = "crates/telemetry/src/names.rs";

/// Audits one scanned file.
pub fn audit_file(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut emit = |rule: AuditRule, index: usize, message: String, f: &ScannedFile| {
        findings.extend(finding(rule, f, index, message));
    };

    for (i, line) in file.lines.iter().enumerate() {
        let m = line.masked.as_str();

        // AUD005 applies everywhere, test code included.
        if find_token(m, "static mut").is_some() {
            emit(
                AuditRule::StaticMut,
                i,
                "`static mut` is unsynchronized shared state; use an atomic, \
                 a `Mutex`, or a `thread_local!` registered in the catalog"
                    .to_string(),
                file,
            );
        }

        if line.in_test {
            continue; // every remaining rule certifies lib code only
        }

        if find_token(m, ".unwrap()").is_some() || find_token(m, ".expect(").is_some() {
            emit(
                AuditRule::UnwrapInLib,
                i,
                "`.unwrap()`/`.expect(..)` in library code panics the worker \
                 thread that hits it; return an error, or justify with \
                 `// audit: allow(AUD001): <why>`"
                    .to_string(),
                file,
            );
        }

        for pat in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            if find_token(m, pat).is_some() {
                emit(
                    AuditRule::PanicInLib,
                    i,
                    format!(
                        "`{}` in library code tears down the calling worker; return \
                         an error, or justify with `// audit: allow(AUD002): <why>`",
                        pat.trim_end_matches('(')
                    ),
                    file,
                );
                break; // one finding per line is enough
            }
        }

        if find_token(m, "process::exit").is_some()
            && !PROCESS_EXIT_ALLOW.contains(&file.path.as_str())
        {
            emit(
                AuditRule::ProcessExit,
                i,
                "`process::exit` skips every RAII guard on every other thread \
                 (checkpoints unflushed, sinks undrained); only \
                 `remix_bench::run_bin` may translate results into an exit status"
                    .to_string(),
                file,
            );
        }

        if (find_token(m, "Instant::now").is_some() || find_token(m, "SystemTime::now").is_some())
            && !TIMING_ALLOW_PREFIXES
                .iter()
                .any(|p| file.path.starts_with(p))
        {
            emit(
                AuditRule::AdHocTiming,
                i,
                "ad-hoc wall-clock reads bypass the budget/span machinery; time \
                 through `remix_telemetry::span` or `remix-exec` budgets instead"
                    .to_string(),
                file,
            );
        }

        if find_token(m, "thread::spawn").is_some()
            && !SPAWN_ALLOW_PREFIXES
                .iter()
                .any(|p| file.path.starts_with(p))
        {
            emit(
                AuditRule::ThreadSpawn,
                i,
                "raw `thread::spawn` escapes the supervised pool: no budget, \
                 telemetry or fault plan is armed on the new thread; go through \
                 `remix-exec`"
                    .to_string(),
                file,
            );
        }

        if find_token(m, "thread_local!").is_some() {
            match find_thread_local_static(file, i) {
                Some(name) => {
                    if catalog::lookup(&file.path, &name).is_none() {
                        emit(
                            AuditRule::UnregisteredThreadLocal,
                            i,
                            format!(
                                "thread-local `{name}` is not in \
                                 `remix_audit::catalog::THREAD_LOCALS`; register it \
                                 with its RAII guard and re-arm method so pool \
                                 workers know to arm it"
                            ),
                            file,
                        );
                    }
                }
                None => emit(
                    AuditRule::UnregisteredThreadLocal,
                    i,
                    "`thread_local!` whose static the audit could not name; \
                     declare it as `static NAME: ...` and register it in the \
                     catalog"
                        .to_string(),
                    file,
                ),
            }
        }

        if file.path != NAMES_CATALOG {
            for s in &line.strings {
                if s.starts_with("remix.") && s.len() > "remix.".len() {
                    emit(
                        AuditRule::UnknownMetricName,
                        i,
                        format!(
                            "metric/span name literal \"{s}\" outside the catalog; \
                             use the `remix_telemetry::names` constant so typos \
                             cannot fork metrics into never-read twins"
                        ),
                        file,
                    );
                }
            }
        }

        if m.contains("Ordering::Relaxed") && !file.has_marker(i, "audit: relaxed-ok:") {
            emit(
                AuditRule::UnjustifiedRelaxed,
                i,
                "`Ordering::Relaxed` without a `// audit: relaxed-ok: <why>` \
                 justification; argue why no happens-before edge is needed, or \
                 upgrade the ordering"
                    .to_string(),
                file,
            );
        }
    }

    findings
}

/// The finding `rule` makes at line `index` of `file`, at the rule's
/// default severity, unless an inline `// audit: allow(AUDnnn): <why>`
/// marker justifies the line.
pub(crate) fn finding(
    rule: AuditRule,
    file: &ScannedFile,
    index: usize,
    message: String,
) -> Option<Finding> {
    if rule.suppressible()
        && file.has_marker(index, &format!("audit: allow({}):", short_code(rule)))
    {
        return None;
    }
    Some(Finding {
        rule,
        severity: rule.default_severity(),
        file: file.path.clone(),
        line: file.lines[index].number,
        message,
        snippet: file.lines[index].raw.trim().to_string(),
    })
}

/// Audits in-memory sources: `(workspace-relative path, text)` pairs.
pub fn audit_sources<'a, I>(sources: I) -> AuditReport
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut report = AuditReport::default();
    for (path, text) in sources {
        let scanned = scan_source(path, text);
        report.findings.extend(audit_file(&scanned));
        report.files_scanned += 1;
    }
    report.sort();
    report
}

/// Audits the workspace rooted at `root`: walks the covered sources
/// (see [`workspace_sources`]) and runs every rule, including the
/// cross-file `AUD010_UNREFERENCED_PUB_FN`, whose users may also live
/// in files the audit does not itself check: `tests/`, `examples/`,
/// each crate's `tests/` and `examples/`, and `perfbench/src/`.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let scan_all = |paths: Vec<String>| -> io::Result<Vec<ScannedFile>> {
        paths
            .iter()
            .map(|rel| Ok(scan_source(rel, &fs::read_to_string(root.join(rel))?)))
            .collect()
    };
    let audited = scan_all(workspace_sources(root)?)?;
    let mut report = AuditReport::default();
    for scanned in &audited {
        report.findings.extend(audit_file(scanned));
    }
    report.files_scanned = audited.len();
    let corpus = scan_all(reference_sources(root)?)?;
    report
        .findings
        .extend(unreferenced_pub_items(&audited, &corpus));
    report.sort();
    Ok(report)
}

/// The short `AUDnnn` prefix of a rule code, used by the suppression
/// marker syntax.
fn short_code(rule: AuditRule) -> &'static str {
    &rule.code()[..6]
}

/// Finds `pat` in `haystack` requiring the preceding character to not
/// be part of an identifier, so `my_panic!(` does not match `panic!(`.
fn find_token(haystack: &str, pat: &str) -> Option<usize> {
    // A leading-ident boundary only matters when the pattern itself
    // starts with an identifier char (`panic!(` yes, `.unwrap()` no —
    // the dot is its own boundary).
    let needs_boundary = pat
        .chars()
        .next()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    let mut from = 0;
    while let Some(off) = haystack[from..].find(pat) {
        let at = from + off;
        let boundary = !needs_boundary
            || haystack[..at]
                .chars()
                .next_back()
                .map(|c| !c.is_alphanumeric() && c != '_')
                .unwrap_or(true);
        if boundary {
            return Some(at);
        }
        from = at + pat.len();
    }
    None
}

/// Extracts the static's name from a `thread_local!` block starting at
/// line `start`: the first `static <ident>` within the next few lines.
fn find_thread_local_static(file: &ScannedFile, start: usize) -> Option<String> {
    for line in file.lines.iter().skip(start).take(8) {
        let m = &line.masked;
        if let Some(at) = find_token(m, "static ") {
            let rest = &m[at + "static ".len()..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn audit_one(path: &str, src: &str) -> Vec<Finding> {
        audit_file(&scan_source(path, src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<AuditRule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_fires_in_lib_not_in_tests() {
        let src = "\
fn lib() { value.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { value.unwrap(); }
}
";
        let f = audit_one("crates/x/src/a.rs", src);
        assert_eq!(rules_of(&f), vec![AuditRule::UnwrapInLib]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_suppressed_by_justification() {
        let src = "fn lib() { value.unwrap(); } // audit: allow(AUD001): infallible here\n";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn a_marker_without_a_reason_suppresses_nothing() {
        for src in [
            "fn lib() { value.unwrap(); } // audit: allow(AUD001)\n",
            "fn lib() { value.unwrap(); } // audit: allow(AUD001):\n",
            "// audit: allow(AUD001):\nfn lib() { value.unwrap(); }\n",
        ] {
            let f = audit_one("crates/x/src/a.rs", src);
            assert_eq!(rules_of(&f), vec![AuditRule::UnwrapInLib], "{src}");
            assert_eq!(f[0].severity, Severity::Deny, "{src}");
        }
        let bare =
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } // audit: relaxed-ok:\n";
        let f = audit_one("crates/x/src/a.rs", bare);
        assert_eq!(rules_of(&f), vec![AuditRule::UnjustifiedRelaxed]);
        assert_eq!(f[0].severity, Severity::Deny);
    }

    #[test]
    fn expect_fires_but_expect_err_does_not() {
        let f = audit_one("crates/x/src/a.rs", "fn lib() { v.expect(\"m\"); }\n");
        assert_eq!(rules_of(&f), vec![AuditRule::UnwrapInLib]);
        let f = audit_one("crates/x/src/a.rs", "fn lib() { let _ = v.expect_err; }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn panic_family_fires_once_per_line() {
        let f = audit_one("crates/x/src/a.rs", "fn lib() { panic!(\"x\"); todo!() }\n");
        assert_eq!(rules_of(&f), vec![AuditRule::PanicInLib]);
        let f = audit_one("crates/x/src/a.rs", "fn lib() { unreachable!() }\n");
        assert_eq!(rules_of(&f), vec![AuditRule::PanicInLib]);
    }

    #[test]
    fn panic_in_doc_comment_is_fine() {
        let f = audit_one(
            "crates/x/src/a.rs",
            "/// This would panic!(boom) if…\nfn lib() {}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn process_exit_allowed_only_in_bench_lib() {
        let src = "fn die() { std::process::exit(1); }\n";
        assert_eq!(
            rules_of(&audit_one("crates/x/src/a.rs", src)),
            vec![AuditRule::ProcessExit]
        );
        assert!(audit_one("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn timing_allowed_in_telemetry_and_exec() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&audit_one("crates/numerics/src/lu.rs", src)),
            vec![AuditRule::AdHocTiming]
        );
        assert!(audit_one("crates/exec/src/budget.rs", src).is_empty());
        assert!(audit_one("crates/telemetry/src/span.rs", src).is_empty());
    }

    #[test]
    fn static_mut_fires_even_in_tests_and_cannot_be_suppressed() {
        let src = "\
#[cfg(test)]
mod tests {
    // audit: allow(AUD005): please?
    static mut COUNTER: u32 = 0;
}
";
        let f = audit_one("crates/x/src/a.rs", src);
        assert_eq!(rules_of(&f), vec![AuditRule::StaticMut]);
    }

    #[test]
    fn thread_spawn_allowed_only_in_exec() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_of(&audit_one("crates/core/src/montecarlo.rs", src)),
            vec![AuditRule::ThreadSpawn]
        );
        assert!(audit_one("crates/exec/src/pool.rs", src).is_empty());
    }

    #[test]
    fn unregistered_thread_local_fires() {
        let src = "\
thread_local! {
    static ROGUE: std::cell::RefCell<u32> = const { std::cell::RefCell::new(0) };
}
";
        let f = audit_one("crates/x/src/a.rs", src);
        assert_eq!(rules_of(&f), vec![AuditRule::UnregisteredThreadLocal]);
        assert!(f[0].message.contains("ROGUE"));
    }

    #[test]
    fn registered_thread_local_is_clean() {
        let src = "\
thread_local! {
    static ACTIVE: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}
";
        assert!(audit_one("crates/telemetry/src/lib.rs", src).is_empty());
    }

    #[test]
    fn metric_name_literal_fires_outside_catalog() {
        let src = "fn f() { remix_telemetry::counter_add(\"remix.x.widgets\", 1); }\n";
        let f = audit_one("crates/x/src/a.rs", src);
        assert_eq!(rules_of(&f), vec![AuditRule::UnknownMetricName]);
        assert!(f[0].message.contains("remix.x.widgets"));
        // The catalog module itself is the one place they belong.
        assert!(audit_one("crates/telemetry/src/names.rs", src).is_empty());
        // The bare prefix used for validation is not a name.
        let src = "fn f(n: &str) -> bool { n.starts_with(\"remix.\") }\n";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(
            rules_of(&audit_one("crates/x/src/a.rs", src)),
            vec![AuditRule::UnjustifiedRelaxed]
        );
        let src = "\
// audit: relaxed-ok: single monotonic cell, exactness only post-join.
fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }
";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
        let src =
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } // audit: relaxed-ok: why\n";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_flagged() {
        let src = "fn f(a: i32, b: i32) -> std::cmp::Ordering { a.cmp(&b) }\n";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        let src = "fn f() -> &'static str { \".unwrap() panic!( thread::spawn static mut\" }\n";
        assert!(audit_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn audit_sources_aggregates_and_sorts() {
        let report = audit_sources(vec![
            ("crates/b/src/z.rs", "fn l() { v.unwrap(); }\n"),
            ("crates/a/src/a.rs", "fn l() { panic!(\"x\"); }\n"),
        ]);
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.deny_count(), 2);
        assert_eq!(report.findings[0].file, "crates/a/src/a.rs");
    }
}

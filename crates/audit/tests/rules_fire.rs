//! Every AUD rule fires on its seeded violation fixture.
//!
//! The fixtures under `tests/fixtures/` are one-violation-each `.rs`
//! sources; this test proves the engine convicts each of them with
//! exactly the intended rule, and that the conviction is at deny
//! severity. A fixture that stops
//! firing means a rule regressed — the workspace-clean test alone
//! cannot distinguish "no violations" from "rule gone blind".

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix_audit::{audit_sources, AuditRule, Severity};

/// Audits one fixture under a path that triggers no allowlist.
fn convict(fixture: &str) -> Vec<(AuditRule, Severity)> {
    let path = format!("crates/audit/tests/fixtures/{fixture}");
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{fixture}")),
    )
    .expect("fixture readable");
    // Present the fixture to the engine as if it were lib code.
    let lib_path = path.replace("tests/fixtures/", "src/");
    let report = audit_sources(vec![(lib_path.as_str(), text.as_str())]);
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.severity))
        .collect()
}

#[test]
fn each_fixture_is_convicted_by_its_rule() {
    let cases = [
        ("aud001_unwrap.rs", AuditRule::UnwrapInLib),
        ("aud002_panic.rs", AuditRule::PanicInLib),
        ("aud003_exit.rs", AuditRule::ProcessExit),
        ("aud004_timing.rs", AuditRule::AdHocTiming),
        ("aud005_static_mut.rs", AuditRule::StaticMut),
        ("aud006_spawn.rs", AuditRule::ThreadSpawn),
        ("aud007_thread_local.rs", AuditRule::UnregisteredThreadLocal),
        (
            "aud007_pool_thread_local.rs",
            AuditRule::UnregisteredThreadLocal,
        ),
        ("aud008_metric_name.rs", AuditRule::UnknownMetricName),
        ("aud009_relaxed.rs", AuditRule::UnjustifiedRelaxed),
    ];
    for (fixture, rule) in cases {
        let verdicts = convict(fixture);
        assert_eq!(
            verdicts,
            vec![(rule, Severity::Deny)],
            "fixture {fixture} must be convicted by exactly {rule}"
        );
    }
}

#[test]
fn every_rule_has_a_fixture() {
    // The case table above must stay in sync with the rule catalog:
    // every rule has at least one fixture (keyed by its `aud00N_`
    // file-name prefix) and every fixture names a real rule — a rule
    // may have several fixtures (AUD007 proves both the generic and
    // the pool-lookalike conviction). AUD010 is the exception: it
    // judges a public item by the other files that name it, so it runs
    // only over a whole workspace and its unit tests build in-memory
    // corpora instead of a one-file fixture.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut covered = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir).expect("fixtures dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        let prefix = name.split('_').next().expect("fixture prefix").to_string();
        assert!(
            prefix.starts_with("aud") && prefix.len() == 6,
            "fixture {name} must be named aud00N_<what>.rs"
        );
        covered.insert(prefix);
    }
    let per_file_rules = AuditRule::ALL
        .iter()
        .filter(|r| **r != AuditRule::UnreferencedPubFn)
        .count();
    assert_eq!(
        covered.len(),
        per_file_rules,
        "one fixture prefix per rule, no orphans: {covered:?}"
    );
}

//! Golden-file test for the machine-readable audit report: CI uploads
//! this JSON as an artifact next to the lint report, so its shape —
//! `schema_version`, key names, finding fields, ordering — is a
//! compatibility contract. Any change must bump
//! `AUDIT_SCHEMA_VERSION` and regenerate
//! `tests/golden/audit_report.json`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix::audit::{audit_sources, AUDIT_SCHEMA_VERSION};

const GOLDEN: &str = include_str!("golden/audit_report.json");

/// Two tiny sources chosen to exercise the JSON shape end to end:
/// multiple rules, multiple files, snippet escaping, sorted output.
const BAD_LIB: &str = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
const BAD_ATOMIC: &str = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                          pub fn read(c: &AtomicU64) -> u64 {\n\
                          \tc.load(Ordering::Relaxed)\n\
                          }\n";

#[test]
fn json_report_matches_the_golden_file() {
    let report = audit_sources(vec![
        ("crates/demo/src/lib.rs", BAD_LIB),
        ("crates/demo/src/atomic.rs", BAD_ATOMIC),
    ]);
    let actual = report.render_json();
    assert_eq!(
        actual.trim(),
        GOLDEN.trim(),
        "audit JSON drifted from the golden file; if intentional, bump \
         AUDIT_SCHEMA_VERSION and regenerate tests/golden/audit_report.json"
    );
    assert!(actual.contains(&format!("\"schema_version\": {AUDIT_SCHEMA_VERSION}")));
}

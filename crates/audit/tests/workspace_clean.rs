//! The real workspace passes its own audit.
//!
//! This is the same check CI's `cargo run --bin audit` gate performs,
//! run through the library API so `cargo test` alone certifies the
//! tree. A deny here means a banned pattern landed without its
//! justification — fix the code or argue the justification inline.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix_audit::audit_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_deny_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&root).expect("workspace walk");
    assert!(
        report.files_scanned > 100,
        "the walk found the real workspace ({} files)",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace audit found deny-level violations:\n{}",
        report.render_text()
    );
}

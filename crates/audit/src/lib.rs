//! # remix-audit
//!
//! Concurrency-soundness and workspace-conformance static analysis
//! for the remix stack — the compile-adjacent half of certifying the
//! solver pipeline for parallel scale-out (ROADMAP item 1).
//!
//! Where `remix-lint` audits *netlists and simulation plans* before a
//! run, `remix-audit` audits the *workspace source itself* before a
//! merge: a dependency-free rule engine over a line/token scanner (no
//! full Rust parser) that denies the patterns a thread pool cannot
//! tolerate and enforces the catalogs the pool depends on.
//!
//! ## Rule catalog
//!
//! | Code | Denies |
//! |------|--------|
//! | `AUD001_UNWRAP_IN_LIB` | `.unwrap()`/`.expect(..)` in non-test lib code without `// audit: allow(AUD001): <why>` |
//! | `AUD002_PANIC_IN_LIB` | `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test lib code without justification |
//! | `AUD003_PROCESS_EXIT` | `process::exit` outside `remix_bench::run_bin`'s module |
//! | `AUD004_AD_HOC_TIMING` | `Instant::now`/`SystemTime::now` outside `crates/telemetry`, `crates/exec` |
//! | `AUD005_STATIC_MUT` | `static mut` anywhere, tests included; no suppression |
//! | `AUD006_THREAD_SPAWN` | `thread::spawn` outside `crates/exec` |
//! | `AUD007_UNREGISTERED_THREAD_LOCAL` | a `thread_local!` missing from [`catalog::THREAD_LOCALS`] |
//! | `AUD008_UNKNOWN_METRIC_NAME` | a `"remix.*"` name literal outside `remix_telemetry::names` |
//! | `AUD009_UNJUSTIFIED_RELAXED` | `Ordering::Relaxed` without `// audit: relaxed-ok: <why>` |
//! | `AUD010_UNREFERENCED_PUB_FN` | a `pub` fn, struct, enum, trait, type, const or static no non-test code in its file and no other file (tests, examples, perfbench, doctests, inline format arguments) names, without `// audit: allow(AUD010): <why>`; workspace audit only |
//!
//! ## Example
//!
//! ```
//! use remix_audit::{audit_sources, AuditRule};
//!
//! let report = audit_sources(vec![(
//!     "crates/demo/src/lib.rs",
//!     "fn f() { value.unwrap(); }\n",
//! )]);
//! assert!(!report.is_clean());
//! assert_eq!(report.findings[0].rule, AuditRule::UnwrapInLib);
//! ```
//!
//! The `audit` binary (root package) walks the real workspace and
//! exits non-zero on any deny finding; CI runs it next to the netlist
//! lint gate and uploads the versioned JSON report as an artifact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
mod diag;
mod reach;
mod rules;
pub mod scan;
mod workspace;

pub use diag::{AuditReport, AuditRule, Finding, Severity, AUDIT_SCHEMA_VERSION};
pub use rules::{audit_file, audit_sources, audit_workspace};
pub use workspace::workspace_sources;

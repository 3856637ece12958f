//! Workspace audit gate: runs the `remix-audit` rule engine over the
//! workspace sources and exits non-zero on any deny finding.
//!
//! ```text
//! cargo run --bin audit                # human-readable report
//! cargo run --bin audit -- --json     # versioned JSON (CI artifact)
//! cargo run --bin audit -- --root DIR # audit another workspace root
//! cargo run --bin audit -- FILE...    # audit specific .rs files
//! ```
//!
//! The default root is the workspace this binary was built from
//! (`CARGO_MANIFEST_DIR`), so the gate works from any cwd.

use remix_audit::{audit_sources, audit_workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("audit: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: audit [--json] [--root DIR] [FILE...]");
                println!("Audits workspace sources against the AUD rule catalog;");
                println!("exits non-zero when any deny-level finding is present.");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("audit: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    let report = if files.is_empty() {
        let root = root.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf());
        match audit_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("audit: failed to walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        let mut sources = Vec::new();
        for path in &files {
            match std::fs::read_to_string(path) {
                Ok(text) => sources.push((path.to_string_lossy().replace('\\', "/"), text)),
                Err(e) => {
                    eprintln!("audit: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        audit_sources(sources.iter().map(|(p, t)| (p.as_str(), t.as_str())))
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Workspace source discovery: which files the audit covers.
//!
//! The audit certifies *library* code — the code pool workers execute.
//! It walks `src/` and `crates/*/src/` recursively and skips:
//!
//! * `shims/` — offline stand-ins for external crates, not our code;
//! * `tests/`, `benches/`, `examples/` — not shipped to workers
//!   (in-file `#[cfg(test)]` modules are instead exempted per-line by
//!   the scanner);
//! * `target/` and hidden directories.
//!
//! Paths come back workspace-relative with forward slashes, sorted, so
//! reports are deterministic across machines.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collects the `.rs` files under `root` that the audit
/// covers, as sorted workspace-relative forward-slash paths.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut found = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect(&src, &mut found)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let member_src = member.join("src");
            if member_src.is_dir() {
                collect(&member_src, &mut found)?;
            }
        }
    }
    Ok(relative_sorted(root, &found))
}

/// The files that may call library code without being audited
/// themselves — integration tests, examples and the benchmark harness —
/// as sorted workspace-relative paths. `AUD010_UNREFERENCED_PUB_FN`
/// counts their references so nothing they compile against is dead.
pub(crate) fn reference_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = vec![
        root.join("tests"),
        root.join("examples"),
        root.join("perfbench/src"),
    ];
    let crates = root.join("crates");
    if crates.is_dir() {
        for member in fs::read_dir(&crates)?.filter_map(|e| e.ok()) {
            dirs.push(member.path().join("tests"));
            dirs.push(member.path().join("examples"));
        }
    }
    let mut found = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect(dir, &mut found)?;
    }
    Ok(relative_sorted(root, &found))
}

fn relative_sorted(root: &Path, found: &[PathBuf]) -> Vec<String> {
    let mut rel: Vec<String> = found
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    rel.dedup();
    rel
}

const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "target", "shims", "fixtures",
];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_sources(&root).expect("walk");
        assert!(files.iter().any(|f| f == "src/lib.rs"), "root lib");
        assert!(
            files.iter().any(|f| f == "crates/audit/src/workspace.rs"),
            "this very file"
        );
        assert!(
            files.iter().all(|f| !f.starts_with("shims/")),
            "shims excluded"
        );
        assert!(
            files.iter().all(|f| !f.contains("/tests/")),
            "tests dirs excluded"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "deterministic order");
    }

    #[test]
    fn reference_corpus_covers_callers_outside_the_audit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = reference_sources(&root).expect("walk");
        for expected in [
            "tests/audit_gate.rs",
            "examples/quickstart.rs",
            "crates/audit/tests/workspace_clean.rs",
            "perfbench/src/main.rs",
        ] {
            assert!(files.iter().any(|f| f == expected), "{expected} missing");
        }
        assert!(
            files.iter().all(|f| !f.contains("/fixtures/")),
            "violation fixtures are not callers"
        );
    }
}

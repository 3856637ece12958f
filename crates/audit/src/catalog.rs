//! Central registry of every `thread_local!` in the workspace.
//!
//! The parallel supervisor (ROADMAP item 1) runs solver work on pool
//! threads. Every piece of per-thread RAII state — budget tokens,
//! telemetry contexts, fault plans — must be re-armed on each worker,
//! or the worker silently runs unbudgeted, unobserved and unfaulted.
//! This catalog is that inventory, machine-checked by rule
//! `AUD007_UNREGISTERED_THREAD_LOCAL`: a `thread_local!` static that
//! is not listed here fails the audit, so the inventory cannot rot.

/// One registered thread-local: where it lives and how a worker
/// thread arms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadLocalEntry {
    /// Workspace-relative file (forward slashes) declaring the static.
    pub file: &'static str,
    /// The `thread_local!` static's name.
    pub static_name: &'static str,
    /// The RAII guard type that arms/disarms it.
    pub guard: &'static str,
    /// The method a pool worker calls to re-arm it.
    pub rearm: &'static str,
}

/// Every known `thread_local!` in the workspace. Adding a new
/// thread-local requires adding it here — that is the point: the
/// supervisor's per-worker arming sequence is derived from this list.
pub const THREAD_LOCALS: &[ThreadLocalEntry] = &[
    ThreadLocalEntry {
        file: "crates/exec/src/budget.rs",
        static_name: "ACTIVE",
        guard: "BudgetGuard",
        rearm: "CancelToken::arm",
    },
    ThreadLocalEntry {
        file: "crates/telemetry/src/lib.rs",
        static_name: "ACTIVE",
        guard: "TelemetryGuard",
        rearm: "Telemetry::arm",
    },
    ThreadLocalEntry {
        file: "crates/analysis/src/fault.rs",
        static_name: "ACTIVE",
        guard: "FaultGuard",
        rearm: "FaultPlan::arm",
    },
];

/// Looks up the catalog entry for a static declared in `file`.
pub fn lookup(file: &str, static_name: &str) -> Option<&'static ThreadLocalEntry> {
    THREAD_LOCALS
        .iter()
        .find(|e| e.file == file && e.static_name == static_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_unique_and_well_formed() {
        for (i, a) in THREAD_LOCALS.iter().enumerate() {
            assert!(a.file.ends_with(".rs"));
            assert!(!a.file.contains('\\'), "forward slashes only: {}", a.file);
            assert!(!a.static_name.is_empty());
            assert!(!a.guard.is_empty());
            assert!(a.rearm.contains("::arm"), "rearm is an arm method");
            for b in &THREAD_LOCALS[i + 1..] {
                assert!(
                    (a.file, a.static_name) != (b.file, b.static_name),
                    "duplicate catalog entry {}:{}",
                    a.file,
                    a.static_name
                );
            }
        }
    }

    #[test]
    fn lookup_finds_registered_entries() {
        let e = lookup("crates/exec/src/budget.rs", "ACTIVE").expect("registered");
        assert_eq!(e.guard, "BudgetGuard");
        assert!(lookup("crates/exec/src/budget.rs", "OTHER").is_none());
        assert!(lookup("crates/nope/src/x.rs", "ACTIVE").is_none());
    }
}

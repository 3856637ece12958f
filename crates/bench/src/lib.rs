//! # remix-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section (see DESIGN.md §3 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig8_cg_vs_rf` | Fig. 8 — conversion gain vs RF frequency |
//! | `fig9_nf_vs_if` | Fig. 9 — NF and CG vs IF frequency |
//! | `fig10_iip3` | Fig. 10(a)/(b) — two-tone IIP3, both modes |
//! | `table1` | Table I — full comparison incl. literature rows |
//! | `switch_r` | Fig. 5 — transmission-gate / switch resistance curves |
//! | `spot_transient` | transistor-level validation spot checks |
//!
//! Criterion benches (`cargo bench`) measure the substrate's performance
//! on the workloads behind those artifacts.

use remix_core::{eval::MixerEvaluator, MixerConfig};
use remix_exec::{contain, RunBudget};
use remix_lint::{lint_plan, LintConfig, SimPlan};
use remix_telemetry::{BenchRecord, JsonLinesSink, Telemetry, TelemetryGuard};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Environment variable capping a bench run's wall clock in
/// milliseconds (see [`run_bin`]). Unset or unparsable means unlimited.
pub const DEADLINE_ENV: &str = "REMIX_BENCH_DEADLINE_MS";

/// Environment variable disabling the bench perf record (and the event
/// log with it): set `REMIX_BENCH_RECORD=0` to run a binary without
/// touching the filesystem. Any other value — or unset — records.
pub const RECORD_ENV: &str = "REMIX_BENCH_RECORD";

/// Environment variable overriding the JSON-lines event-log path. Set
/// `REMIX_TELEMETRY_EVENTS=0` to keep the metrics record but skip the
/// event log; any other value replaces the default
/// `BENCH_<bin>.events.jsonl`.
pub const EVENTS_ENV: &str = "REMIX_TELEMETRY_EVENTS";

fn bin_budget() -> RunBudget {
    // Typed env read: a malformed REMIX_BENCH_DEADLINE_MS warns on the
    // `remix.exec.env.malformed` counter/event and falls back to
    // unlimited, instead of being silently ignored.
    match remix_exec::env_u64_or_warn(DEADLINE_ENV, None) {
        Some(ms) => RunBudget::unlimited().with_deadline(Duration::from_millis(ms)),
        None => RunBudget::unlimited(),
    }
}

/// Shared driver for the bench binaries: runs `body` once on the main
/// thread and turns its outcome into the process exit status, replacing
/// the per-bin `if let Err(e) = run()` / `exit(1)` boilerplate.
///
/// * The body executes with a fresh budget token armed on the thread.
///   Set [`DEADLINE_ENV`] (`REMIX_BENCH_DEADLINE_MS`) to cap the wall
///   clock: past the deadline every budget hook reports it, so each
///   budget-hooked analysis returns `AnalysisError::BudgetExceeded` —
///   with its convergence trace — instead of running long. A failed
///   run would fail again, so nothing is retried.
/// * Errors print as `<label> failed: <error>` and exit with status 1
///   (analysis errors render their attempt table through `Display`).
/// * Panics are caught by [`remix_exec::contain`] and print as
///   `<label> panicked: <payload>`, exiting with status 101 like an
///   uncaught panic would.
/// * Unless [`RECORD_ENV`] (`REMIX_BENCH_RECORD`) is `0`, the run
///   executes under an armed telemetry context: spans and counters from
///   every instrumented layer accumulate in a fresh registry, lifecycle
///   events stream to `BENCH_<bin>.events.jsonl` ([`EVENTS_ENV`]
///   overrides the path, `0` disables just the log), and the frozen
///   snapshot is written as a versioned [`BenchRecord`] to
///   `BENCH_<bin>.json` — pass or fail, so a failed run still leaves
///   its perf trail.
pub fn run_bin(label: &str, body: impl FnOnce() -> Result<(), Box<dyn std::error::Error>>) -> ! {
    let recorder = BenchRecorder::arm(label);
    let outcome = {
        let _budget = bin_budget().token().arm();
        contain(|| body().map_err(|e| e.to_string()))
    };
    recorder.finish(matches!(outcome, Ok(Ok(()))));
    match outcome {
        Ok(Ok(())) => std::process::exit(0),
        Ok(Err(msg)) => {
            eprintln!("{label} failed: {msg}");
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("{label} panicked: {msg}");
            std::process::exit(101);
        }
    }
}

/// Telemetry capture for one bench process: arms a context on
/// construction (unless [`RECORD_ENV`] is `0`), streams lifecycle
/// events to `BENCH_<bin>.events.jsonl` (see [`EVENTS_ENV`]), and
/// writes the frozen snapshot as a versioned [`BenchRecord`] to
/// `BENCH_<bin>.json` on [`finish`](BenchRecorder::finish).
///
/// [`run_bin`] uses it around the bench body; binaries with their
/// own exit semantics (the `lint` CLI) wrap their body in one directly.
pub struct BenchRecorder {
    telemetry: Telemetry,
    guard: Option<TelemetryGuard>,
    bin: String,
    label: String,
    enabled: bool,
}

impl BenchRecorder {
    /// Builds the sink, arms the thread-local context, and starts
    /// capturing. Observability must not fail the run: an unwritable
    /// event log degrades to metrics-only with a note on stderr.
    pub fn arm(label: &str) -> BenchRecorder {
        BenchRecorder::arm_with_bin(label, &bin_name(label))
    }

    /// Like [`arm`](BenchRecorder::arm) but with an explicit record
    /// stem: `arm_with_bin("serve load", "serve")` writes
    /// `BENCH_serve.json` regardless of the executable's file name.
    pub fn arm_with_bin(label: &str, bin: &str) -> BenchRecorder {
        let bin = slug(bin);
        let enabled = std::env::var(RECORD_ENV).map_or(true, |v| v != "0");
        let telemetry = match event_log_path(&bin) {
            Some(path) if enabled => match JsonLinesSink::create(path.as_ref()) {
                Ok(sink) => Telemetry::with_sink(Arc::new(sink)),
                Err(e) => {
                    eprintln!("{label}: cannot create event log {path}: {e}");
                    Telemetry::new()
                }
            },
            _ => Telemetry::new(),
        };
        let guard = enabled.then(|| telemetry.arm());
        BenchRecorder {
            telemetry,
            guard,
            bin,
            label: label.to_string(),
            enabled,
        }
    }

    /// Disarms, flushes the event log, and writes `BENCH_<bin>.json` —
    /// pass or fail, so a failed run still leaves its perf trail.
    pub fn finish(mut self, pass: bool) {
        self.guard.take();
        if !self.enabled {
            return;
        }
        self.telemetry.sink().flush();
        let record = BenchRecord::new(
            self.bin.clone(),
            self.label.clone(),
            pass,
            config_fingerprint(&self.label),
            self.telemetry.snapshot(),
        );
        let path = format!("BENCH_{}.json", self.bin);
        if let Err(e) = std::fs::write(&path, record.render_json()) {
            eprintln!("{}: cannot write bench record {path}: {e}", self.label);
        }
    }
}

/// The record file stem: the executable name when available (matches
/// the `[[bin]]` name in CI artifacts), otherwise a slug of the label.
fn bin_name(label: &str) -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| slug(label))
}

/// Filesystem-safe lowercase slug (`fig8 gain sweep` → `fig8_gain_sweep`).
fn slug(label: &str) -> String {
    let s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        "bench".to_string()
    } else {
        s
    }
}

/// Resolves the event-log path: [`EVENTS_ENV`] override, `0` meaning
/// "no event log", default `BENCH_<bin>.events.jsonl`.
fn event_log_path(bin: &str) -> Option<String> {
    match std::env::var(EVENTS_ENV) {
        Ok(v) if v == "0" => None,
        Ok(v) if !v.is_empty() => Some(v),
        _ => Some(format!("BENCH_{bin}.events.jsonl")),
    }
}

/// Fingerprint (FNV-1a 64, hex) of the configuration a bench record
/// measured: the default [`MixerConfig`] debug rendering plus the run
/// label. Records with different fingerprints are not comparable
/// point-to-point.
fn config_fingerprint(label: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{:?}|{label}", MixerConfig::default()).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Shared evaluator for all binaries/benches (extraction is seconds),
/// propagating extraction failure — including a tripped run budget —
/// as an error instead of panicking. The first outcome (pass or fail)
/// is cached for the life of the process.
pub fn try_shared_evaluator() -> Result<&'static MixerEvaluator, remix_analysis::AnalysisError> {
    static CACHE: OnceLock<Result<MixerEvaluator, remix_analysis::AnalysisError>> = OnceLock::new();
    CACHE
        .get_or_init(|| MixerEvaluator::new(&MixerConfig::default()))
        .as_ref()
        .map_err(Clone::clone)
}

/// Shared evaluator for all binaries/benches (extraction is seconds).
///
/// # Panics
///
/// If the extraction fails; fallible callers should prefer
/// [`try_shared_evaluator`].
pub fn shared_evaluator() -> &'static MixerEvaluator {
    match try_shared_evaluator() {
        Ok(eval) => eval,
        Err(e) => panic!("mixer extraction failed: {e}"), // audit: allow(AUD002): bench CLI entry: aborting with the extraction error is the contract
    }
}

/// Looks up the shipped measurement plan `label` (see
/// [`remix_core::plans`]), lints it, and aborts with the full report if
/// it has deny-level findings. Figure/table binaries call this before
/// spending seconds on extraction, so a mis-parameterized sweep dies in
/// milliseconds instead of producing a silently aliased artifact.
///
/// # Panics
///
/// If no shipped plan carries `label`, or its lint report has denies.
pub fn checked_plan(label: &str) -> SimPlan {
    let (_, plan) = remix_core::plans::shipped_plans()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no shipped plan named {label:?}")); // audit: allow(AUD002): bench CLI entry: a misnamed shipped plan is a build bug
    let report = lint_plan(&plan, &LintConfig::default());
    if !report.is_clean() {
        panic!("{label} plan fails simulation-plan lint:\n{report}"); // audit: allow(AUD002): bench CLI entry: shipped plans must pass their own lint gate
    }
    if report.warn_count() > 0 {
        eprint!("{label} plan lint warnings:\n{report}");
    }
    plan
}

/// Pool options for the study binaries (`mc_iip2`, `corners`,
/// `pnoise_mc`): honors `REMIX_EXEC_WORKERS` and
/// `REMIX_EXEC_POOL_CHAOS` via [`remix_exec::PoolOptions::from_env`]
/// and prints the resolved policy, so a bench log always says how
/// parallel the run actually was.
pub fn study_pool() -> remix_exec::PoolOptions {
    let pool = remix_exec::PoolOptions::from_env();
    println!(
        "parallelism: {} worker(s){}",
        pool.parallelism.worker_count(),
        if pool.chaos.is_active() {
            " [pool chaos active]"
        } else {
            ""
        }
    );
    pool
}

/// Renders a crude ASCII plot of `(x, y)` series for terminal inspection.
pub fn ascii_plot(
    series: &[(&str, &[(f64, f64)])],
    y_label: &str,
    x_div: f64,
    x_unit: &str,
) -> String {
    let mut out = String::new();
    let ymin = series
        .iter()
        .flat_map(|(_, s)| s.iter().map(|p| p.1))
        .fold(f64::MAX, f64::min);
    let ymax = series
        .iter()
        .flat_map(|(_, s)| s.iter().map(|p| p.1))
        .fold(f64::MIN, f64::max);
    let span = (ymax - ymin).max(1e-9);
    out.push_str(&format!(
        "{y_label}: {ymin:.1} .. {ymax:.1}  (each column = one sweep point)\n"
    ));
    for (name, s) in series {
        out.push_str(&format!("{name:>10} |"));
        for &(_, y) in s.iter() {
            let lvl = ((y - ymin) / span * 9.0).round() as usize;
            out.push(char::from_digit(lvl.min(9) as u32, 10).unwrap_or('9'));
        }
        out.push('\n');
    }
    if let Some((_, s)) = series.first() {
        out.push_str(&format!(
            "{:>10}  {:.2}..{:.2} {x_unit}\n",
            "x:",
            s.first().map(|p| p.0 / x_div).unwrap_or(0.0),
            s.last().map(|p| p.0 / x_div).unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_plan_passes_the_gate() {
        for label in ["fig8", "fig9", "fig10", "table1"] {
            let plan = checked_plan(label);
            assert!(!plan.name.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "no shipped plan named")]
    fn unknown_plan_label_panics() {
        checked_plan("fig99");
    }

    #[test]
    fn label_slugs_are_filesystem_safe() {
        assert_eq!(slug("fig8 gain sweep"), "fig8_gain_sweep");
        assert_eq!(slug("Table I"), "table_i");
        assert_eq!(slug(""), "bench");
    }

    #[test]
    fn config_fingerprint_is_deterministic_and_label_sensitive() {
        assert_eq!(config_fingerprint("fig8"), config_fingerprint("fig8"));
        assert_ne!(config_fingerprint("fig8"), config_fingerprint("fig9"));
        assert_eq!(config_fingerprint("fig8").len(), 16);
    }

    #[test]
    fn ascii_plot_renders() {
        let s: Vec<(f64, f64)> = (0..10).map(|k| (k as f64, k as f64)).collect();
        let plot = ascii_plot(&[("ramp", &s)], "y", 1.0, "u");
        assert!(plot.contains("ramp"));
        assert!(plot.contains("0123456789"));
    }
}

//! The central catalog of every production metric, span and event name.
//!
//! Telemetry names are part of the stack's observable interface: CI
//! smoke checks grep bench records for them, perf guard-rails compare
//! snapshots by them, and a typo'd name silently forks a metric into a
//! never-read twin. Every string handed to the registry or the sink
//! from production code therefore lives here, and the workspace audit
//! (`remix-audit`, rule `AUD008_UNKNOWN_METRIC_NAME`) denies any
//! `"remix.*"` string literal that appears outside this module in
//! non-test code — call sites must name the constant instead.
//!
//! Naming convention: `remix.<crate>.<subsystem>.<quantity>`, with
//! timing-derived metrics suffixed `_ns`/`_ms`/`_seconds` so
//! [`MetricsSnapshot::without_timings`](crate::MetricsSnapshot::without_timings)
//! can mask them deterministically.

/// Counter: matrix factorizations performed (dense and sparse LU; a
/// sparse refactorization in a stored pattern counts as one).
pub const LU_FACTORIZATIONS: &str = "remix.numerics.lu.factorizations";
/// Counter: sparse LU factorizations that searched for a fresh pivot
/// order (the rest reused a stored order and fill pattern).
pub const LU_PIVOT_SEARCHES: &str = "remix.numerics.lu.pivot_searches";
/// Gauge: entries stored in the most recent sparse LU's filled factors
/// (its structural fill pattern, kept even where values cancel to zero).
pub const LU_FILL_NNZ: &str = "remix.numerics.lu.fill_nnz";
/// Gauge: cheap `min|Uii|/max|Uii|` condition estimate of the most
/// recent factorization.
pub const LU_RCOND: &str = "remix.numerics.lu.rcond";

/// Span: one operating-point analysis.
pub const ANALYSIS_OP: &str = "remix.analysis.op";
/// Gauge: rcond estimate of the final operating-point factorization.
pub const ANALYSIS_OP_RCOND: &str = "remix.analysis.op.rcond";
/// Span: one DC sweep.
pub const ANALYSIS_DCSWEEP: &str = "remix.analysis.dcsweep";
/// Span: one transient analysis.
pub const ANALYSIS_TRAN: &str = "remix.analysis.tran";
/// Span: one small-signal AC analysis.
pub const ANALYSIS_AC: &str = "remix.analysis.ac";
/// Span: one periodic steady-state analysis.
pub const ANALYSIS_PSS: &str = "remix.analysis.pss";
/// Counter: stamp plans compiled (one per analysis call, a whole serial
/// DC sweep being one call, plus one per homotopy stage whose stamp
/// sequence differs from the last plan's).
pub const STAMP_PLANS: &str = "remix.analysis.stamp.plans";
/// Span: one AC noise analysis.
pub const ANALYSIS_ACNOISE: &str = "remix.analysis.acnoise";
/// Span: one transient noise analysis.
pub const ANALYSIS_TRANNOISE: &str = "remix.analysis.trannoise";

/// Counter: cumulative Newton iterations burned by the homotopy ladder.
pub const CONVERGENCE_ITERATIONS: &str = "remix.analysis.convergence.iterations";
/// Counter: direct-Newton attempts in the homotopy ladder.
pub const CONVERGENCE_ATTEMPTS_DIRECT: &str = "remix.analysis.convergence.attempts.direct";
/// Counter: gmin-stepping attempts in the homotopy ladder.
pub const CONVERGENCE_ATTEMPTS_GMIN_LADDER: &str =
    "remix.analysis.convergence.attempts.gmin_ladder";
/// Counter: source-ramp attempts in the homotopy ladder.
pub const CONVERGENCE_ATTEMPTS_SOURCE_RAMP: &str =
    "remix.analysis.convergence.attempts.source_ramp";
/// Counter: pseudo-transient attempts in the homotopy ladder.
pub const CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT: &str =
    "remix.analysis.convergence.attempts.pseudo_transient";
/// Counter: per-timestep Newton attempts in transient analyses.
pub const CONVERGENCE_ATTEMPTS_TRAN_STEP: &str = "remix.analysis.convergence.attempts.tran_step";
/// Counter: per-frequency-point solve attempts in AC analyses.
pub const CONVERGENCE_ATTEMPTS_AC_POINT: &str = "remix.analysis.convergence.attempts.ac_point";
/// Counter: PSS boundary-condition solve attempts.
pub const CONVERGENCE_ATTEMPTS_PSS_BOUNDARY: &str =
    "remix.analysis.convergence.attempts.pss_boundary";

/// Counter: server-side job retries. Nothing writes it — jobs run
/// once and retrying is the client's policy — so it reads 0 (the
/// benchmark's `serve.retries` reports it).
pub const EXEC_RETRIES: &str = "remix.exec.retries";

/// Counter: admission-queue rejections (queue full or hopeless
/// deadline); the typed `Shed` response rides back to the caller.
pub const EXEC_ADMISSION_SHEDS: &str = "remix.exec.admission.sheds";
/// Gauge: current admission-queue depth.
pub const EXEC_ADMISSION_DEPTH: &str = "remix.exec.admission.depth";
/// Event: environment-variable parse outcome worth surfacing (a set
/// but unparsable value, with the fallback applied).
pub const EXEC_ENV: &str = "remix.exec.env";
/// Counter: environment variables that were set but failed to parse
/// (the run falls back explicitly instead of silently ignoring them).
pub const EXEC_ENV_MALFORMED: &str = "remix.exec.env.malformed";

/// Event: work-stealing-pool lifecycle transition (started / worker
/// up / task panicked / chaos injected / finished). Lifecycle rides on events only — the pool writes nothing
/// into the registry, so serial and parallel runs snapshot
/// byte-identically.
pub const EXEC_POOL: &str = "remix.exec.pool";
/// Span: one whole pool run (dispatch to last join), recorded on the
/// caller's registry. Its `total_ns` is the study's wall clock — the
/// number the parallel-soak speedup gate compares across worker
/// counts; `without_timings()` zeroes it like every span total.
pub const EXEC_POOL_RUN: &str = "remix.exec.pool.run";

/// Event: service connection lifecycle (accepted/rejected/closed).
pub const SERVE_CONN: &str = "remix.serve.conn";
/// Counter: connections accepted by the service.
pub const SERVE_CONNECTIONS: &str = "remix.serve.connections";
/// Counter: request frames read (valid or not).
pub const SERVE_FRAMES: &str = "remix.serve.frames";
/// Counter: frames rejected with a typed protocol error.
pub const SERVE_PROTOCOL_ERRORS: &str = "remix.serve.protocol_errors";
/// Span: one admitted service job, admission to terminal response.
pub const SERVE_JOB: &str = "remix.serve.job";
/// Counter: jobs that completed with a full result.
pub const SERVE_JOBS_OK: &str = "remix.serve.jobs_ok";
/// Counter: jobs that completed with a budget-tripped partial prefix.
pub const SERVE_JOBS_PARTIAL: &str = "remix.serve.jobs_partial";
/// Counter: jobs that failed (lint rejection, analysis error, panic).
pub const SERVE_JOBS_FAILED: &str = "remix.serve.jobs_failed";
/// Counter: admissions refused with a typed shed response.
pub const SERVE_SHEDS: &str = "remix.serve.sheds";
/// Counter: results served straight from the fingerprint cache.
pub const SERVE_CACHE_HITS: &str = "remix.serve.cache.hits";
/// Counter: cache misses that computed (and possibly populated) fresh.
pub const SERVE_CACHE_MISSES: &str = "remix.serve.cache.misses";
/// Counter: requests that joined an identical in-flight job
/// (single-flight dedup) instead of recomputing.
pub const SERVE_CACHE_JOINS: &str = "remix.serve.cache.joins";
/// Counter: cache entries restored from the persisted cache file on
/// startup.
pub const SERVE_CACHE_PERSIST_LOADED: &str = "remix.serve.cache.persist.loaded";
/// Counter: cache entries written to the persisted cache file on
/// graceful shutdown.
pub const SERVE_CACHE_PERSIST_SAVED: &str = "remix.serve.cache.persist.saved";
/// Counter: persisted cache files rejected wholesale (unreadable,
/// malformed, wrong version, or fingerprint mismatch) — the service
/// starts cold instead of serving stale bodies.
pub const SERVE_CACHE_PERSIST_REJECTED: &str = "remix.serve.cache.persist.rejected";
/// Gauge: admission-queue depth as seen by the service.
pub const SERVE_QUEUE_DEPTH: &str = "remix.serve.queue_depth";
/// Counter: chaos faults injected (dropped connections, torn frames,
/// delayed reads, worker panics).
pub const SERVE_CHAOS_INJECTED: &str = "remix.serve.chaos.injected";
/// Gauge: load-generator sustained throughput (jobs per second).
pub const SERVE_LOAD_JOBS_PER_SEC: &str = "remix.serve.load.jobs_per_sec";
/// Gauge: load-generator p99 latency of *accepted* jobs (ms; masked by
/// `without_timings()` like every timing-derived metric).
pub const SERVE_LOAD_P99_MS: &str = "remix.serve.load.p99_ms";
/// Gauge: load-generator cache hit rate over completed jobs (0..=1).
pub const SERVE_LOAD_CACHE_HIT_RATE: &str = "remix.serve.load.cache_hit_rate";
/// Counter: typed shed responses observed by the load generator.
pub const SERVE_LOAD_SHEDS: &str = "remix.serve.load.sheds";

/// Event: study checkpoint written or restored.
pub const CORE_CHECKPOINT: &str = "remix.core.checkpoint";
/// Counter: successfully computed samples recorded in checkpoints.
pub const CORE_CHECKPOINT_OPS_OK: &str = "remix.core.checkpoint.ops_ok";
/// Counter: failed samples recorded in checkpoints.
pub const CORE_CHECKPOINT_OPS_FAILED: &str = "remix.core.checkpoint.ops_failed";
/// Span: one Monte-Carlo sample extraction.
pub const CORE_MONTECARLO_SAMPLE: &str = "remix.core.montecarlo.sample";
/// Counter: Monte-Carlo samples that converged.
pub const CORE_MONTECARLO_SAMPLES_OK: &str = "remix.core.montecarlo.samples_ok";
/// Counter: Monte-Carlo samples that failed with a trace.
pub const CORE_MONTECARLO_SAMPLES_FAILED: &str = "remix.core.montecarlo.samples_failed";
/// Span: one process corner evaluation.
pub const CORE_CORNERS_CORNER: &str = "remix.core.corners.corner";

/// Span: one LO point of an N-path input-impedance sweep.
pub const TOPO_ZIN_POINT: &str = "remix.topo.zin.point";
/// Span: one topology-study sample (Monte-Carlo or corner).
pub const TOPO_STUDY_SAMPLE: &str = "remix.topo.study.sample";
/// Counter: topology-study samples that solved.
pub const TOPO_STUDY_SAMPLES_OK: &str = "remix.topo.study.samples_ok";
/// Counter: topology-study samples that failed.
pub const TOPO_STUDY_SAMPLES_FAILED: &str = "remix.topo.study.samples_failed";

/// Every production name, for conformance checks and documentation.
/// Sorted; [`names_are_canonical`](self) below pins uniqueness.
pub const ALL: &[&str] = &[
    ANALYSIS_AC,
    ANALYSIS_ACNOISE,
    CONVERGENCE_ATTEMPTS_AC_POINT,
    CONVERGENCE_ATTEMPTS_DIRECT,
    CONVERGENCE_ATTEMPTS_GMIN_LADDER,
    CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT,
    CONVERGENCE_ATTEMPTS_PSS_BOUNDARY,
    CONVERGENCE_ATTEMPTS_SOURCE_RAMP,
    CONVERGENCE_ATTEMPTS_TRAN_STEP,
    CONVERGENCE_ITERATIONS,
    ANALYSIS_DCSWEEP,
    ANALYSIS_OP,
    ANALYSIS_OP_RCOND,
    ANALYSIS_PSS,
    STAMP_PLANS,
    ANALYSIS_TRAN,
    ANALYSIS_TRANNOISE,
    CORE_CHECKPOINT,
    CORE_CHECKPOINT_OPS_FAILED,
    CORE_CHECKPOINT_OPS_OK,
    CORE_CORNERS_CORNER,
    CORE_MONTECARLO_SAMPLE,
    CORE_MONTECARLO_SAMPLES_FAILED,
    CORE_MONTECARLO_SAMPLES_OK,
    EXEC_ADMISSION_DEPTH,
    EXEC_ADMISSION_SHEDS,
    EXEC_ENV,
    EXEC_ENV_MALFORMED,
    EXEC_POOL,
    EXEC_POOL_RUN,
    EXEC_RETRIES,
    LU_FACTORIZATIONS,
    LU_FILL_NNZ,
    LU_PIVOT_SEARCHES,
    LU_RCOND,
    SERVE_CACHE_HITS,
    SERVE_CACHE_JOINS,
    SERVE_CACHE_MISSES,
    SERVE_CACHE_PERSIST_LOADED,
    SERVE_CACHE_PERSIST_REJECTED,
    SERVE_CACHE_PERSIST_SAVED,
    SERVE_CHAOS_INJECTED,
    SERVE_CONN,
    SERVE_CONNECTIONS,
    SERVE_FRAMES,
    SERVE_JOB,
    SERVE_JOBS_FAILED,
    SERVE_JOBS_OK,
    SERVE_JOBS_PARTIAL,
    SERVE_LOAD_CACHE_HIT_RATE,
    SERVE_LOAD_JOBS_PER_SEC,
    SERVE_LOAD_P99_MS,
    SERVE_LOAD_SHEDS,
    SERVE_PROTOCOL_ERRORS,
    SERVE_QUEUE_DEPTH,
    SERVE_SHEDS,
    TOPO_STUDY_SAMPLE,
    TOPO_STUDY_SAMPLES_FAILED,
    TOPO_STUDY_SAMPLES_OK,
    TOPO_ZIN_POINT,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_canonical() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(
                name.starts_with("remix."),
                "'{name}' must use the remix.<crate>.<name> convention"
            );
            assert!(
                name.split('.').all(|seg| {
                    !seg.is_empty()
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                }),
                "'{name}' must be dotted lowercase snake_case"
            );
            assert!(seen.insert(*name), "'{name}' listed twice");
        }
    }

    #[test]
    fn timing_suffix_convention_is_respected() {
        // Nothing in the catalog accidentally looks like a timing
        // metric unless it is one; without_timings() masks by suffix,
        // so every timing-suffixed name must be deliberate.
        const EXPECTED_TIMINGS: &[&str] = &[super::SERVE_LOAD_P99_MS];
        for name in ALL {
            if name.ends_with("_ns") || name.ends_with("_ms") || name.ends_with("_seconds") {
                assert!(
                    EXPECTED_TIMINGS.contains(name),
                    "'{name}' would be masked by without_timings(); add it to \
                     EXPECTED_TIMINGS only if it really measures time"
                );
            }
        }
    }
}

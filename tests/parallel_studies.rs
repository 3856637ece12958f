//! Determinism and crash-safety certification for the parallel study
//! engine (ROADMAP item 1): the work-stealing pool must be invisible
//! in the results.
//!
//! * **Equality**: `iip2_study_with` and `sweep_corners_resumable_with` produce identical
//!   outcomes AND identical `without_timings()` telemetry snapshots
//!   for any worker count — parallelism may only change wall-clock.
//! * **Resume**: a study killed mid-flight (chaos-cancelled between
//!   bitmap checkpoint writes, with completions landing out of order)
//!   resumes computing exactly the samples it had not finished.
//! * **Torn checkpoint**: a truncated bitmap file is rejected
//!   wholesale and the study recomputes from scratch — never trusts a
//!   half-written document.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use proptest::prelude::*;
use remix::core::corners::{Corner, ProcessCorner};
use remix::core::montecarlo::{iip2_study_with, McStudy, MismatchConfig};
use remix::core::MixerConfig;
use remix::telemetry::{MetricsSnapshot, Telemetry};
use remix_exec::{Parallelism, PoolChaos, PoolOptions};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Runs `body` under a fresh telemetry registry and returns its result
/// with the de-timed snapshot (the byte-identity the CI gate compares).
fn with_registry<T>(body: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let telemetry = Telemetry::new();
    let guard = telemetry.arm();
    let out = body();
    drop(guard);
    (out, telemetry.snapshot().without_timings())
}

fn pool(workers: usize) -> PoolOptions {
    PoolOptions::with_parallelism(Parallelism::Workers(workers))
}

fn small_mm(seed: u64) -> MismatchConfig {
    MismatchConfig {
        n_runs: 6,
        seed,
        ..MismatchConfig::default()
    }
}

/// Serial baseline for one seed, shared across the proptest cases that
/// reuse it (the study is deterministic, so computing it once is
/// sound and keeps the property affordable).
fn serial_iip2(seed: u64) -> &'static (McStudy, MetricsSnapshot) {
    static BASE: OnceLock<(McStudy, MetricsSnapshot)> = OnceLock::new();
    assert_eq!(seed, 0xD1E5, "baseline cache is keyed to the default seed");
    BASE.get_or_init(|| {
        with_registry(|| {
            iip2_study_with(
                &MixerConfig::default(),
                &small_mm(0xD1E5),
                None,
                &PoolOptions::default(),
            )
        })
    })
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "remix_parallel_studies_{}_{tag}.json",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The pool is invisible: outcomes and de-timed telemetry are
    /// byte-identical to the serial run for any worker count.
    #[test]
    fn iip2_parallel_equals_serial_for_any_worker_count(workers in 1usize..7) {
        let (serial, serial_snap) = serial_iip2(0xD1E5);
        let (parallel, parallel_snap) = with_registry(|| {
            iip2_study_with(&MixerConfig::default(), &small_mm(0xD1E5), None, &pool(workers))
        });
        prop_assert_eq!(&parallel, serial);
        prop_assert_eq!(&parallel_snap, serial_snap);
    }

    /// Even with deterministically injected worker panics and steal
    /// delays, the convicted sample set is keyed by index — identical
    /// outcomes for every worker count.
    #[test]
    fn chaos_convictions_are_worker_count_independent(workers in 1usize..7) {
        let chaos = PoolChaos::parse("panic:3,steal:2:1").unwrap();
        let run = |w: usize| {
            with_registry(|| {
                let mut opts = pool(w);
                opts.chaos = chaos.clone();
                iip2_study_with(&MixerConfig::default(), &small_mm(0xBEEF), None, &opts)
            })
        };
        let (reference, reference_snap) = run(1);
        // Samples 2 and 5 (indices where (i+1) % 3 == 0) must be the
        // typed panic failures — the study survives them.
        for (i, outcome) in reference.outcomes.iter().enumerate() {
            let convicted = (i + 1) % 3 == 0;
            let failed = matches!(outcome, remix::core::montecarlo::SampleOutcome::Failed(_));
            prop_assert!(failed == convicted, "sample {} conviction mismatch", i);
        }
        let (studied, snap) = run(workers);
        prop_assert_eq!(&studied, &reference);
        prop_assert_eq!(&snap, &reference_snap);
    }
}

#[test]
fn corners_parallel_equals_serial_snapshots() {
    let base = MixerConfig::default();
    let corners: Vec<Corner> = [ProcessCorner::Tt, ProcessCorner::Ff, ProcessCorner::Ss]
        .into_iter()
        .map(|process| Corner {
            process,
            temp_c: 27.0,
            vdd: None,
        })
        .collect();
    let (serial, serial_snap) = with_registry(|| {
        remix::core::corners::sweep_corners_resumable_with(
            &base,
            &corners,
            None,
            &PoolOptions::default(),
        )
    });
    assert!(serial.is_complete());
    for workers in [2usize, 3, 5] {
        let (parallel, parallel_snap) = with_registry(|| {
            remix::core::corners::sweep_corners_resumable_with(
                &base,
                &corners,
                None,
                &pool(workers),
            )
        });
        assert!(parallel.is_complete(), "workers={workers}");
        assert_eq!(
            parallel.value.results.len(),
            serial.value.results.len(),
            "workers={workers}"
        );
        for ((ca, oa), (cb, ob)) in parallel.value.results.iter().zip(&serial.value.results) {
            assert_eq!(ca, cb);
            match (oa.params(), ob.params()) {
                (Some(a), Some(b)) => assert_eq!(a, b, "corner {ca:?} diverged"),
                (None, None) => {}
                _ => panic!("corner {ca:?}: pass/fail diverged across worker counts"),
            }
        }
        assert_eq!(parallel_snap, serial_snap, "workers={workers}");
    }
}

/// A chaos-cancelled study (killed between bitmap writes, completions
/// out of order at 4 workers) resumes computing exactly the samples it
/// had not finished — and the finished study equals an uninterrupted
/// serial run.
#[test]
fn killed_study_resumes_only_uncomputed_samples() {
    let path = tmp_path("resume");
    let _ = std::fs::remove_file(&path);
    let mm = small_mm(0xD1E5);
    let killed = {
        let mut opts = pool(2);
        opts.chaos = PoolChaos::parse("cancel:2").unwrap();
        iip2_study_with(&MixerConfig::default(), &mm, Some(&path), &opts)
    };
    assert!(killed.interrupted.is_some(), "cancel chaos must interrupt");
    // At least the chaos threshold landed; in-flight stragglers may add
    // a few more before every worker observes the stop flag, but the
    // study must die short of done for the resume to mean anything.
    assert!(
        killed.computed >= 2 && killed.computed < mm.n_runs,
        "{}",
        killed.computed
    );
    // The bitmap checkpoint retains every completed sample, contiguous
    // or not; the resume computes precisely the rest.
    let resumed = iip2_study_with(&MixerConfig::default(), &mm, Some(&path), &pool(2));
    assert!(resumed.interrupted.is_none());
    assert_eq!(
        resumed.resumed, killed.computed,
        "every pre-kill sample restored"
    );
    assert_eq!(
        resumed.computed,
        mm.n_runs - killed.computed,
        "only the rest recomputed"
    );
    let (serial, _) = serial_iip2(0xD1E5);
    assert_eq!(resumed.outcomes, serial.outcomes);
    let _ = std::fs::remove_file(&path);
}

/// A torn (truncated) bitmap checkpoint is rejected wholesale: the
/// study trusts nothing and recomputes every sample, still landing on
/// the serial result.
#[test]
fn torn_checkpoint_is_rejected_and_study_recomputes() {
    let path = tmp_path("torn");
    let _ = std::fs::remove_file(&path);
    let mm = small_mm(0xD1E5);
    let full = iip2_study_with(&MixerConfig::default(), &mm, Some(&path), &pool(2));
    assert_eq!(full.computed, mm.n_runs);
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    std::fs::write(&path, &text[..text.len() / 2]).expect("tear");
    let recomputed = iip2_study_with(&MixerConfig::default(), &mm, Some(&path), &pool(2));
    assert_eq!(recomputed.resumed, 0, "torn checkpoint must not seed");
    assert_eq!(recomputed.computed, mm.n_runs);
    assert_eq!(recomputed.outcomes, full.outcomes);
    let _ = std::fs::remove_file(&path);
}

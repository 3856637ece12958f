//! Seeded multi-thread stress tests for the metrics registry — the
//! runtime half of the parallel-scale-out certification (the
//! compile-time half is `tests/concurrency_certification.rs` at the
//! workspace root).
//!
//! Every workload is a deterministic xorshift stream seeded per
//! worker, so the expected totals are computable exactly on the main
//! thread: if any atomic increment were lost or any snapshot torn in
//! a way that violates the registry's contracts, the assertions fail.
//! These are also the tests CI's ThreadSanitizer job runs.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix_telemetry::{
    counter_add, gauge_set, histogram_observe, HistogramSnapshot, MetricValue, Telemetry,
};
use std::thread;

const WORKERS: u64 = 8;
const OPS: u64 = 2_000;

/// The named histogram's frozen state out of a snapshot.
fn histogram_of(snap: &remix_telemetry::MetricsSnapshot, name: &str) -> HistogramSnapshot {
    snap.metrics
        .iter()
        .find_map(|m| match &m.value {
            MetricValue::Histogram(h) if m.name == name => Some(h.clone()),
            _ => None,
        })
        .expect("histogram present")
}

/// Deterministic xorshift64* stream; the same seed always yields the
/// same workload, on any thread, in any interleaving.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn counter_totals_are_exact_across_workers() {
    let t = Telemetry::new();
    let mut expected = 0u64;
    for w in 0..WORKERS {
        let mut rng = xorshift(w + 1);
        for _ in 0..OPS {
            expected += rng() % 7;
        }
    }
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let t = t.clone();
            thread::spawn(move || {
                let _g = t.arm();
                let mut rng = xorshift(w + 1);
                for _ in 0..OPS {
                    counter_add("remix.stress.ops", rng() % 7);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_eq!(
        t.snapshot().counter("remix.stress.ops"),
        Some(expected),
        "no increment may be lost across {WORKERS} workers x {OPS} ops"
    );
}

#[test]
fn histogram_observations_are_lossless() {
    let t = Telemetry::new();
    let mut expected_sum = 0.0f64;
    for w in 0..WORKERS {
        let mut rng = xorshift(w + 11);
        for _ in 0..OPS {
            expected_sum += (rng() % 1_000) as f64;
        }
    }
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let t = t.clone();
            thread::spawn(move || {
                let _g = t.arm();
                let mut rng = xorshift(w + 11);
                for _ in 0..OPS {
                    histogram_observe("remix.stress.latency", (rng() % 1_000) as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    let snap = t.snapshot();
    let hist = histogram_of(&snap, "remix.stress.latency");
    assert_eq!(hist.count, WORKERS * OPS, "every observation lands");
    assert!(
        hist.buckets.iter().map(|(_, n)| n).sum::<u64>() <= hist.count,
        "bucket counts cannot exceed the total"
    );
    // The CAS-accumulated f64 sum is order-dependent only through
    // rounding; integer-valued observations below 2^53 add exactly.
    assert_eq!(hist.sum, expected_sum, "integer-valued sums are exact");
}

#[test]
fn snapshots_are_deterministic_across_interleavings() {
    // Two runs of the same seeded workload under different thread
    // schedules must produce byte-identical snapshots (timings are
    // already excluded: counters and histograms only).
    let render = || {
        let t = Telemetry::new();
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let t = t.clone();
                thread::spawn(move || {
                    let _g = t.arm();
                    let mut rng = xorshift(w + 101);
                    for _ in 0..OPS {
                        let x = rng();
                        counter_add("remix.stress.det_ops", x % 3);
                        histogram_observe("remix.stress.det_lat", (x % 50) as f64);
                        if x.is_multiple_of(5) {
                            counter_add("remix.stress.det_rare", 1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        t.snapshot()
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "snapshot must not depend on interleaving");
}

#[test]
fn arming_is_per_thread_isolated() {
    // Two workers arm two different registries; a third runs disarmed.
    // Writes must segregate perfectly — the thread-local catalog
    // (AUD007) exists precisely so this property survives refactors.
    let a = Telemetry::new();
    let b = Telemetry::new();
    let ha = {
        let a = a.clone();
        thread::spawn(move || {
            let _g = a.arm();
            for _ in 0..OPS {
                counter_add("remix.stress.who", 1);
            }
        })
    };
    let hb = {
        let b = b.clone();
        thread::spawn(move || {
            let _g = b.arm();
            for _ in 0..OPS {
                counter_add("remix.stress.who", 2);
            }
        })
    };
    let hc = thread::spawn(move || {
        // No guard: these hooks must be inert, not cross-talk.
        for _ in 0..OPS {
            counter_add("remix.stress.who", 1_000_000);
        }
    });
    ha.join().expect("a");
    hb.join().expect("b");
    hc.join().expect("c");
    assert_eq!(a.snapshot().counter("remix.stress.who"), Some(OPS));
    assert_eq!(b.snapshot().counter("remix.stress.who"), Some(2 * OPS));
}

#[test]
fn snapshot_while_writing_observes_monotonic_counters() {
    // A reader snapshotting mid-flight must see values that only grow:
    // the registry's contract is per-cell monotonicity, not a frozen
    // cross-metric cut.
    let t = Telemetry::new();
    let writer = {
        let t = t.clone();
        thread::spawn(move || {
            let _g = t.arm();
            for i in 0..(WORKERS * OPS) {
                counter_add("remix.stress.mono", 1);
                if i % 64 == 0 {
                    gauge_set("remix.stress.level", i as f64);
                }
            }
        })
    };
    let mut last = 0u64;
    let mut last_gauge = -1.0f64;
    for _ in 0..200 {
        let snap = t.snapshot();
        let now = snap.counter("remix.stress.mono").unwrap_or(0);
        assert!(now >= last, "counter went backwards: {last} -> {now}");
        last = now;
        if let Some(g) = snap.gauge("remix.stress.level") {
            // Gauge::set is release, snapshot load is acquire: each
            // observed level must be no older than the previous one.
            assert!(g >= last_gauge, "gauge went backwards: {last_gauge} -> {g}");
            last_gauge = g;
        }
        thread::yield_now();
    }
    writer.join().expect("writer");
    assert_eq!(
        t.snapshot().counter("remix.stress.mono"),
        Some(WORKERS * OPS)
    );
}

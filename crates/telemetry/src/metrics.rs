//! The process-wide metric registry: counters, gauges, fixed-bucket
//! histograms and span roll-ups, with deterministically ordered
//! snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Default histogram buckets for residual norms and other
/// positive-and-tiny quantities: half-decade-ish log spacing from
/// 1e-12 to 1e2, values above the last bound land in the overflow.
pub const DEFAULT_RESIDUAL_BUCKETS: [f64; 8] = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2];

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metric maps hold plain data; a panic mid-insert cannot leave them
    // logically torn, so recover instead of cascading the poison.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to one monotonic counter. Detached (default) handles are
/// inert: `add` does nothing, `value` reads zero. Clone freely; all
/// clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`. One relaxed atomic increment when attached.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            // audit: relaxed-ok: single-cell monotonic RMW; cross-thread
            // exactness is only claimed after a join, which supplies the
            // happens-before edge.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (zero when detached).
    pub fn value(&self) -> u64 {
        // audit: relaxed-ok: single-cell read of a monotonic total;
        // mid-run reads are advisory, exact totals are read post-join.
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to one last-value gauge (stored as `f64` bits). Detached
/// handles are inert.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Replaces the gauge value.
    ///
    /// Gauges *publish* derived results (an rcond after a
    /// factorization, a fill count after a symbolic pass): a
    /// release-store paired with the acquire-load in
    /// [`Gauge::value`]/snapshotting gives cross-thread readers — a
    /// watchdog sampling mid-run, the parallel supervisor's aggregator
    /// — a happens-before edge to the work that produced the value,
    /// not just the bits themselves.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Release);
        }
    }

    /// Current value (`NaN` when detached or never set). Acquire-load:
    /// see [`Gauge::set`].
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(f64::NAN, |c| f64::from_bits(c.load(Ordering::Acquire)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds, ascending; observations above the last bound are
    /// counted only in `count`/`sum` (implicit overflow bucket).
    bounds: Vec<f64>,
    bucket_counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        HistogramCore {
            bounds: bounds.to_vec(),
            bucket_counts: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        if let Some(k) = self.bounds.iter().position(|&b| value <= b) {
            // audit: relaxed-ok: independent monotonic cells; a snapshot
            // racing an observe may see bucket/count momentarily skewed
            // by one, which the post-join determinism contract permits.
            self.bucket_counts[k].fetch_add(1, Ordering::Relaxed);
        }
        // audit: relaxed-ok: same single-cell monotonic argument.
        self.count.fetch_add(1, Ordering::Relaxed);
        // The CAS retry loop publishes nothing beyond the sum cell
        // itself: read-modify-write atomicity alone keeps it lossless.
        // audit: relaxed-ok: CAS retry loop over one cell.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed, // audit: relaxed-ok: success order, single cell.
                Ordering::Relaxed, // audit: relaxed-ok: failure order, retry only.
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds a frozen histogram's buckets and totals into this one
    /// (bucket-by-position; used by [`MetricsRegistry::absorb`]).
    fn absorb(&self, hs: &HistogramSnapshot) {
        for (k, (_, c)) in hs.buckets.iter().enumerate() {
            if let Some(cell) = self.bucket_counts.get(k) {
                // audit: relaxed-ok: absorb runs post-join; single-cell
                // monotonic RMW.
                cell.fetch_add(*c, Ordering::Relaxed);
            }
        }
        // audit: relaxed-ok: post-join monotonic RMW, as buckets.
        self.count.fetch_add(hs.count, Ordering::Relaxed);
        // audit: relaxed-ok: CAS retry loop over one cell.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + hs.sum).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed, // audit: relaxed-ok: success order, single cell.
                Ordering::Relaxed, // audit: relaxed-ok: failure order, retry only.
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .bounds
                .iter()
                .zip(&self.bucket_counts)
                // audit: relaxed-ok: snapshot exactness is only promised
                // once writer threads are joined (happens-before via
                // join); mid-run snapshots are explicitly advisory.
                .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
                .collect(),
            // audit: relaxed-ok: see bucket loads above.
            count: self.count.load(Ordering::Relaxed),
            // audit: relaxed-ok: see bucket loads above.
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Handle to one fixed-bucket histogram. Detached handles are inert.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation: bumps the first bucket whose upper
    /// bound admits `value` (or only the total, past the last bound).
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }
}

/// Registry of every metric one [`Telemetry`](crate::Telemetry) context
/// accumulates. All handles stay valid for the registry's lifetime;
/// snapshots are ordered by metric name so two identical runs render
/// byte-identical.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
    /// Span roll-up: name → (exit count, total duration ns).
    spans: Mutex<BTreeMap<&'static str, (u64, u64)>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get-or-create the named counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = lock_or_recover(&self.counters);
        Counter(Some(Arc::clone(map.entry(name).or_default())))
    }

    /// Get-or-create the named gauge. A never-set gauge snapshots as
    /// `0.0`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut map = lock_or_recover(&self.gauges);
        Gauge(Some(Arc::clone(map.entry(name).or_default())))
    }

    /// Get-or-create the named histogram with
    /// [`DEFAULT_RESIDUAL_BUCKETS`].
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with_buckets(name, &DEFAULT_RESIDUAL_BUCKETS)
    }

    /// Get-or-create the named histogram with explicit bucket upper
    /// bounds (ascending). Bounds are fixed by the first touch;
    /// subsequent calls reuse the existing buckets.
    pub fn histogram_with_buckets(&self, name: &'static str, bounds: &[f64]) -> Histogram {
        let mut map = lock_or_recover(&self.histograms);
        let core = map
            .entry(name)
            .or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
        Histogram(Some(Arc::clone(core)))
    }

    /// Folds one exited span into the per-name roll-up. Public so
    /// deterministic tests (and replay tooling) can inject known
    /// durations.
    pub fn record_span(&self, name: &'static str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let mut map = lock_or_recover(&self.spans);
        let slot = map.entry(name).or_insert((0, 0));
        slot.0 += 1;
        slot.1 = slot.1.saturating_add(ns);
    }

    /// Folds `other`'s contents into this registry: counters, histogram
    /// buckets/totals and span roll-ups *add*; gauges *overwrite* (the
    /// last absorbed value wins, a never-set-but-touched gauge carries
    /// its `0.0` across). Metric names keyed in `other` but absent here
    /// are created, so snapshot shape is preserved.
    ///
    /// This is how a parallel driver keeps last-value gauges
    /// deterministic: each task runs against a fresh forked registry,
    /// and after the workers join the caller absorbs the task
    /// registries in ascending task order — the final gauge values are
    /// then exactly what a serial run would have left behind.
    pub fn absorb(&self, other: &MetricsRegistry) {
        let counters: Vec<(&'static str, u64)> = lock_or_recover(&other.counters)
            .iter()
            // audit: relaxed-ok: absorb runs after the writers joined;
            // the join supplies the happens-before edge.
            .map(|(name, cell)| (*name, cell.load(Ordering::Relaxed)))
            .collect();
        for (name, v) in counters {
            self.counter(name).add(v);
        }
        let gauges: Vec<(&'static str, u64)> = lock_or_recover(&other.gauges)
            .iter()
            .map(|(name, cell)| (*name, cell.load(Ordering::Acquire)))
            .collect();
        for (name, bits) in gauges {
            self.gauge(name).set(f64::from_bits(bits));
        }
        let histograms: Vec<(&'static str, Arc<HistogramCore>)> =
            lock_or_recover(&other.histograms)
                .iter()
                .map(|(name, core)| (*name, Arc::clone(core)))
                .collect();
        for (name, core) in histograms {
            let mine = {
                let mut map = lock_or_recover(&self.histograms);
                Arc::clone(
                    map.entry(name)
                        .or_insert_with(|| Arc::new(HistogramCore::new(&core.bounds))),
                )
            };
            mine.absorb(&core.snapshot());
        }
        let spans: Vec<(&'static str, (u64, u64))> = lock_or_recover(&other.spans)
            .iter()
            .map(|(name, &stats)| (*name, stats))
            .collect();
        let mut map = lock_or_recover(&self.spans);
        for (name, (count, total_ns)) in spans {
            let slot = map.entry(name).or_insert((0, 0));
            slot.0 += count;
            slot.1 = slot.1.saturating_add(total_ns);
        }
    }

    /// Snapshot of every metric and span roll-up, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics: Vec<MetricEntry> = Vec::new();
        for (name, cell) in lock_or_recover(&self.counters).iter() {
            metrics.push(MetricEntry {
                name: (*name).to_string(),
                // audit: relaxed-ok: monotonic totals are exact after
                // writer joins; mid-run snapshots are advisory.
                value: MetricValue::Counter(cell.load(Ordering::Relaxed)),
            });
        }
        for (name, cell) in lock_or_recover(&self.gauges).iter() {
            metrics.push(MetricEntry {
                name: (*name).to_string(),
                // Acquire pairs with the release-store in `Gauge::set`.
                value: MetricValue::Gauge(f64::from_bits(cell.load(Ordering::Acquire))),
            });
        }
        for (name, core) in lock_or_recover(&self.histograms).iter() {
            metrics.push(MetricEntry {
                name: (*name).to_string(),
                value: MetricValue::Histogram(core.snapshot()),
            });
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        let spans = lock_or_recover(&self.spans)
            .iter()
            .map(|(name, &(count, total_ns))| SpanRollup {
                name: (*name).to_string(),
                count,
                total_ns,
            })
            .collect();
        MetricsSnapshot { metrics, spans }
    }
}

/// One snapshot entry: a metric name with its frozen value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Metric name (`remix.<crate>.<name>`).
    pub name: String,
    /// Frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last gauge value (`0.0` when never set).
    Gauge(f64),
    /// Fixed-bucket histogram state.
    Histogram(HistogramSnapshot),
}

/// Frozen fixed-bucket histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper bound, observations at or below it and above the
    /// previous bound)` in ascending bound order.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations, including those above the last bound.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRollup {
    /// Span name.
    pub name: String,
    /// Completed (exited) spans.
    pub count: u64,
    /// Total monotonic duration across those spans (ns).
    pub total_ns: u64,
}

/// A frozen, deterministically ordered view of one registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters, gauges and histograms, sorted by name.
    pub metrics: Vec<MetricEntry>,
    /// Span roll-ups, sorted by name.
    pub spans: Vec<SpanRollup>,
}

impl MetricsSnapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.spans.is_empty()
    }

    /// Value of the named counter, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m.value {
            MetricValue::Counter(v) if m.name == name => Some(v),
            _ => None,
        })
    }

    /// Value of the named gauge, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find_map(|m| match m.value {
            MetricValue::Gauge(v) if m.name == name => Some(v),
            _ => None,
        })
    }

    /// Roll-up of the named span, when present.
    pub fn span(&self, name: &str) -> Option<&SpanRollup> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The snapshot with everything wall-clock-dependent removed:
    /// metrics whose name marks them as timings (`*_ns`, `*_ms`,
    /// `*_seconds`) are dropped and span durations are zeroed (the
    /// span *counts* stay). Two same-seed runs of a deterministic
    /// workload must produce equal de-timed snapshots.
    pub fn without_timings(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|m| {
                    !(m.name.ends_with("_ns")
                        || m.name.ends_with("_ms")
                        || m.name.ends_with("_seconds"))
                })
                .cloned()
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|s| SpanRollup {
                    name: s.name.clone(),
                    count: s.count,
                    total_ns: 0,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("remix.test.hits");
        let b = reg.counter("remix.test.hits");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(reg.snapshot().counter("remix.test.hits"), Some(5));
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("remix.test.rcond");
        g.set(1e-3);
        g.set(1e-9);
        assert_eq!(reg.snapshot().gauge("remix.test.rcond"), Some(1e-9));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with_buckets("remix.test.resid", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(500.0); // overflow: only count/sum
        let snap = reg.snapshot();
        let MetricValue::Histogram(hs) = &snap.metrics[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(hs.buckets, vec![(1.0, 1), (10.0, 1)]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 505.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("remix.z.last").add(1);
        reg.gauge("remix.a.first").set(2.0);
        reg.counter("remix.m.middle").add(1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["remix.a.first", "remix.m.middle", "remix.z.last"]
        );
    }

    #[test]
    fn span_rollup_accumulates_and_detimes() {
        let reg = MetricsRegistry::new();
        reg.record_span("remix.test.work", Duration::from_nanos(100));
        reg.record_span("remix.test.work", Duration::from_nanos(50));
        let snap = reg.snapshot();
        let s = snap.span("remix.test.work").expect("rollup");
        assert_eq!((s.count, s.total_ns), (2, 150));
        let detimed = snap.without_timings();
        assert_eq!(detimed.span("remix.test.work").map(|s| s.total_ns), Some(0));
        assert_eq!(detimed.span("remix.test.work").map(|s| s.count), Some(2));
    }

    #[test]
    fn absorb_adds_counters_histograms_spans_and_overwrites_gauges() {
        let a = MetricsRegistry::new();
        a.counter("remix.test.hits").add(2);
        a.gauge("remix.test.rcond").set(1e-3);
        a.histogram_with_buckets("remix.test.resid", &[1.0, 10.0])
            .observe(0.5);
        a.record_span("remix.test.work", Duration::from_nanos(100));

        let b = MetricsRegistry::new();
        b.counter("remix.test.hits").add(3);
        b.counter("remix.test.only_b").add(1);
        b.gauge("remix.test.rcond").set(1e-9);
        b.histogram_with_buckets("remix.test.resid", &[1.0, 10.0])
            .observe(5.0);
        b.record_span("remix.test.work", Duration::from_nanos(50));

        a.absorb(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("remix.test.hits"), Some(5));
        assert_eq!(snap.counter("remix.test.only_b"), Some(1));
        assert_eq!(snap.gauge("remix.test.rcond"), Some(1e-9));
        let MetricValue::Histogram(hs) = &snap
            .metrics
            .iter()
            .find(|m| m.name == "remix.test.resid")
            .expect("histogram present")
            .value
        else {
            panic!("expected histogram");
        };
        assert_eq!(hs.buckets, vec![(1.0, 1), (10.0, 1)]);
        assert_eq!(hs.count, 2);
        assert!((hs.sum - 5.5).abs() < 1e-12);
        let s = snap.span("remix.test.work").expect("rollup");
        assert_eq!((s.count, s.total_ns), (2, 150));
    }

    #[test]
    fn ordered_absorb_reproduces_serial_gauge_history() {
        // Three "tasks" each set the same gauge; absorbing their
        // registries in ascending task order must leave the highest
        // task's value, exactly as a serial loop would.
        let caller = MetricsRegistry::new();
        let tasks: Vec<MetricsRegistry> = (0..3)
            .map(|i| {
                let r = MetricsRegistry::new();
                r.gauge("remix.test.last").set(f64::from(i) * 10.0);
                r
            })
            .collect();
        for t in &tasks {
            caller.absorb(t);
        }
        assert_eq!(caller.snapshot().gauge("remix.test.last"), Some(20.0));
    }

    #[test]
    fn absorb_carries_touched_but_never_set_entries() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        b.gauge("remix.test.touched");
        b.counter("remix.test.zero");
        a.absorb(&b);
        let snap = a.snapshot();
        assert_eq!(snap.gauge("remix.test.touched"), Some(0.0));
        assert_eq!(snap.counter("remix.test.zero"), Some(0));
    }

    #[test]
    fn without_timings_drops_timing_named_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("remix.test.ok").add(1);
        reg.gauge("remix.test.elapsed_ms").set(12.0);
        let snap = reg.snapshot().without_timings();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.metrics[0].name, "remix.test.ok");
    }
}

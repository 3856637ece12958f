//! # remix-telemetry
//!
//! Dependency-free observability for the remix solver stack, in the
//! style of [`remix-exec`]'s budget tokens: a telemetry context is
//! *armed on a thread* through an RAII guard, and free hook functions
//! sprinkled through the hot paths (`factor()`, the Newton loop, the
//! analysis entry points, the statistical drivers) charge it — or fall
//! through at near-zero cost when nothing is armed.
//!
//! Three layers:
//!
//! * **Metrics** ([`MetricsRegistry`]): monotonic counters, last-value
//!   gauges and fixed-bucket histograms, named by the
//!   `remix.<crate>.<name>` convention. [`MetricsRegistry::snapshot`]
//!   renders them in deterministic (name-sorted) order.
//! * **Spans** ([`SpanGuard`]): RAII scopes with a static name,
//!   key/value fields and a monotonic duration. Exited spans roll up
//!   into per-name `(count, total_ns)` statistics in the registry and
//!   emit [`Event`]s to the sink.
//! * **Sinks** ([`Sink`]): where events go. [`NoopSink`] (the default)
//!   discards everything without even constructing the event,
//!   [`MemorySink`] collects for tests, [`JsonLinesSink`] appends one
//!   JSON object per event for offline analysis.
//!
//! A bench binary caps a run by serializing the registry snapshot into
//! a versioned [`BenchRecord`] (`BENCH_<bin>.json`), the machine-readable
//! perf trajectory optimisation PRs are judged against.
//!
//! ## Arming
//!
//! ```
//! use remix_telemetry::{Telemetry, counter_add};
//!
//! let telemetry = Telemetry::new(); // no-op sink, fresh registry
//! {
//!     let _guard = telemetry.arm();
//!     counter_add("remix.example.widgets", 3);
//! } // disarmed again here
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("remix.example.widgets"), Some(3));
//! ```
//!
//! Hooks called on a thread with no armed context do nothing; the cost
//! is one thread-local read. Contexts nest like budget guards: arming
//! inside an armed scope shadows the outer context until the inner
//! guard drops.
//!
//! [`remix-exec`]: https://example.com/remix

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod json;
mod metrics;
pub mod names;
mod record;
mod sink;
mod span;

pub use json::{json_str, parse_json, JsonError, JsonValue};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry,
    MetricsSnapshot, SpanRollup, DEFAULT_RESIDUAL_BUCKETS,
};
pub use record::{BenchRecord, RecordError, BENCH_RECORD_SCHEMA_VERSION};
pub use sink::{Event, EventKind, FieldValue, JsonLinesSink, MemorySink, NoopSink, Sink};
pub use span::{span, SpanGuard};

use std::cell::RefCell;
use std::sync::Arc;

/// One observability context: a metrics registry plus an event sink.
///
/// Cheap to clone (two `Arc`s); arm it on the current thread with
/// [`Telemetry::arm`] so the free hooks ([`counter_add`], [`span`], …)
/// find it.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    sink: Arc<dyn Sink>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("observing", &self.sink.is_observing())
            .finish()
    }
}

impl Telemetry {
    /// Fresh registry, no-op sink: metrics accumulate, events vanish.
    pub fn new() -> Self {
        Telemetry::with_sink(Arc::new(NoopSink))
    }

    /// Fresh registry writing events to `sink`.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Telemetry {
            registry: Arc::new(MetricsRegistry::new()),
            sink,
        }
    }

    /// The metric registry backing this context.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The event sink backing this context.
    pub fn sink(&self) -> &Arc<dyn Sink> {
        &self.sink
    }

    /// Snapshot of every metric and span roll-up, deterministically
    /// ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Arms this context on the current thread until the guard drops.
    /// Nested arms shadow (and on drop restore) the outer context.
    #[must_use = "the context is disarmed when the guard drops"]
    pub fn arm(&self) -> TelemetryGuard {
        let previous = ACTIVE.with(|a| a.borrow_mut().replace(self.clone()));
        TelemetryGuard { previous }
    }

    /// The context armed on this thread, if any (a cheap clone). A pool
    /// captures it before spawning workers so tasks observe the
    /// caller's context instead of running dark.
    pub fn current() -> Option<Telemetry> {
        with_active(Telemetry::clone)
    }

    /// A context sharing this one's sink but with a fresh, empty
    /// registry. Pool tasks arm one fork per task: live events still
    /// stream to the shared sink, while metrics accumulate privately so
    /// the caller can [`MetricsRegistry::absorb`] the task registries
    /// in deterministic task order after the workers join.
    pub fn fork(&self) -> Telemetry {
        Telemetry {
            registry: Arc::new(MetricsRegistry::new()),
            sink: Arc::clone(&self.sink),
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// RAII guard returned by [`Telemetry::arm`]; restores the previously
/// armed context (if any) on drop.
#[derive(Debug)]
pub struct TelemetryGuard {
    previous: Option<Telemetry>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE.with(|a| *a.borrow_mut() = previous);
    }
}

/// Runs `f` with the armed context, or returns `None` when disarmed.
pub(crate) fn with_active<R>(f: impl FnOnce(&Telemetry) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow().as_ref().map(f))
}

/// `true` when a telemetry context is armed on this thread.
pub fn is_armed() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// `true` when the armed context's sink actually records events —
/// i.e. the run is *observed* rather than running against the no-op
/// default. Plan lints (`SIM008`) use this to warn about long runs
/// nobody is watching.
pub fn is_observing() -> bool {
    with_active(|t| t.sink.is_observing()).unwrap_or(false)
}

/// Handle to the named counter of the armed registry (detached no-op
/// handle when disarmed). Fetch once outside a hot loop; `add` is then
/// a single atomic increment.
pub fn counter(name: &'static str) -> Counter {
    with_active(|t| t.registry.counter(name)).unwrap_or_default()
}

/// Adds `n` to the named counter of the armed registry, if any.
pub fn counter_add(name: &'static str, n: u64) {
    if let Some(c) = with_active(|t| t.registry.counter(name)) {
        c.add(n);
    }
}

/// Sets the named gauge of the armed registry, if any.
pub fn gauge_set(name: &'static str, value: f64) {
    if let Some(g) = with_active(|t| t.registry.gauge(name)) {
        g.set(value);
    }
}

/// Records `value` into the named histogram of the armed registry, if
/// any (created with [`DEFAULT_RESIDUAL_BUCKETS`] on first touch).
pub fn histogram_observe(name: &'static str, value: f64) {
    if let Some(h) = with_active(|t| t.registry.histogram(name)) {
        h.observe(value);
    }
}

/// Emits a point-in-time event (job lifecycle transition, checkpoint
/// write, …) to the armed sink. The field vector is only built by the
/// caller; when no observing sink is armed the event is dropped here.
pub fn event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if let Some(sink) = with_active(|t| Arc::clone(&t.sink)) {
        if sink.is_observing() {
            sink.record(&Event::point(name, fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_when_disarmed() {
        assert!(!is_armed());
        assert!(!is_observing());
        counter_add("remix.test.inert", 5);
        gauge_set("remix.test.inert_gauge", 1.0);
        histogram_observe("remix.test.inert_hist", 1.0);
        event("remix.test.inert_event", vec![]);
        let c = counter("remix.test.inert");
        c.add(3);
        assert_eq!(c.value(), 0, "detached counter handles read zero");
    }

    #[test]
    fn arming_routes_hooks_and_nesting_restores() {
        let outer = Telemetry::new();
        let inner = Telemetry::new();
        {
            let _g = outer.arm();
            assert!(is_armed());
            counter_add("remix.test.routed", 1);
            {
                let _g2 = inner.arm();
                counter_add("remix.test.routed", 10);
            }
            counter_add("remix.test.routed", 1);
        }
        assert!(!is_armed());
        assert_eq!(outer.snapshot().counter("remix.test.routed"), Some(2));
        assert_eq!(inner.snapshot().counter("remix.test.routed"), Some(10));
    }

    #[test]
    fn observing_reflects_the_sink() {
        let noop = Telemetry::new();
        let _g = noop.arm();
        assert!(!is_observing());
        drop(_g);
        let observed = Telemetry::with_sink(Arc::new(MemorySink::new()));
        let _g = observed.arm();
        assert!(is_observing());
    }

    #[test]
    fn current_clones_the_armed_context_and_fork_shares_the_sink() {
        assert!(Telemetry::current().is_none());
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        let _g = t.arm();
        let current = Telemetry::current().expect("armed");
        let fork = current.fork();
        {
            let _fg = fork.arm();
            counter_add("remix.test.forked", 7);
            event("remix.test.forked_event", vec![]);
        }
        // Fork's metrics are private until absorbed…
        assert_eq!(t.snapshot().counter("remix.test.forked"), None);
        assert_eq!(fork.snapshot().counter("remix.test.forked"), Some(7));
        t.registry().absorb(fork.registry());
        assert_eq!(t.snapshot().counter("remix.test.forked"), Some(7));
        // …but its events stream straight to the shared sink.
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn events_reach_a_memory_sink() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(sink.clone());
        let _g = t.arm();
        event(
            "remix.test.lifecycle",
            vec![("state", FieldValue::from("started"))],
        );
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "remix.test.lifecycle");
    }
}

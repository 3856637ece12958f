//! Compile-time certification that every type the parallel study
//! engine (ROADMAP item 1) will share across pool threads is `Send`
//! and/or `Sync`.
//!
//! These are static assertions: if a refactor slips an `Rc`, a
//! `RefCell` or a raw pointer into one of these types, this file stops
//! compiling — the cheapest possible failure mode, long before a data
//! race could exist at runtime.
//!
//! The taxonomy mirrors how the supervisor will use each type:
//!
//! * **shared read-only** (`Sync + Send`): circuit descriptions,
//!   configs, plans, the metrics registry, sinks — one instance,
//!   many worker threads;
//! * **moved into workers** (`Send`): job payloads, budgets, tokens,
//!   records, reports — constructed on one thread, consumed on
//!   another.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use remix::analysis::{AcResult, OperatingPoint};
use remix::audit::{AuditConfig, AuditReport, Finding};
use remix::circuit::{Circuit, Element, MnaLayout, MosModel, Waveform};
use remix::core::montecarlo::SampleOutcome;
use remix::core::{ExtractedParams, MixerConfig, MixerEvaluator, MixerMode, MixerModel};
use remix::lint::{LintConfig, LintReport, PlanTargets, SimPlan};
use remix::telemetry::{
    BenchRecord, Counter, Gauge, Histogram, JsonLinesSink, MemorySink, MetricsRegistry,
    MetricsSnapshot, NoopSink, Telemetry,
};
use remix_exec::{CancelToken, Interruption, RunBudget};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_read_only_types_are_send_and_sync() {
    // Circuit descriptions and device models: built once, stamped by
    // every worker solving a corner/sample in parallel.
    assert_send_sync::<Circuit>();
    assert_send_sync::<Element>();
    assert_send_sync::<Waveform>();
    assert_send_sync::<MosModel>();
    assert_send_sync::<MnaLayout>();

    // Mixer configuration and extracted behavioral models.
    assert_send_sync::<MixerConfig>();
    assert_send_sync::<MixerMode>();
    assert_send_sync::<MixerModel>();
    assert_send_sync::<ExtractedParams>();
    assert_send_sync::<MixerEvaluator>();

    // Plans and their lint layer: one plan, audited then fanned out.
    assert_send_sync::<SimPlan>();
    assert_send_sync::<PlanTargets>();
    assert_send_sync::<LintConfig>();
    assert_send_sync::<LintReport>();

    // Telemetry: one registry + sink shared by every worker.
    assert_send_sync::<Telemetry>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<NoopSink>();
    assert_send_sync::<MemorySink>();
    assert_send_sync::<JsonLinesSink>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();

    // The audit engine itself (CI may shard it across threads).
    assert_send_sync::<AuditConfig>();
    assert_send_sync::<AuditReport>();
    assert_send_sync::<Finding>();
}

#[test]
fn worker_payload_types_are_send() {
    // Budgets and tokens cross the spawn boundary into workers; the
    // token is also shared back for cancellation, so it must be Sync.
    assert_send_sync::<RunBudget>();
    assert_send_sync::<CancelToken>();
    assert_send::<Interruption>();

    // Results hauled back from workers to the aggregator.
    assert_send::<MetricsSnapshot>();
    assert_send_sync::<BenchRecord>();
    assert_send::<SampleOutcome>();
    assert_send::<OperatingPoint>();
    assert_send::<AcResult>();
}

#[test]
fn snapshots_are_also_sync_for_caching() {
    // An aggregator may park a snapshot in an Arc and share it with
    // report renderers running concurrently.
    assert_sync::<MetricsSnapshot>();
    assert_sync::<BenchRecord>();
    assert_sync::<SampleOutcome>();
}

//! Load generator for `remix-serve`: boots an in-process server, fires
//! a mixed job workload (repeats for cache hits, unique decks for real
//! work, a hopeless flood segment for sheds) through the serve client's
//! retry path, and records throughput, tail latency, cache hit rate,
//! and shed counts to `BENCH_serve.json`.
//!
//! Knobs (all typed-env, malformed values warn and fall back):
//!
//! * `REMIX_SERVE_LOAD_JOBS`     — total jobs (default 120)
//! * `REMIX_SERVE_LOAD_CLIENTS` — concurrent client workers (default 8)
//! * `REMIX_SERVE_CHAOS`        — chaos spec injected into the server
//!
//! Under chaos or a 2× overload the pass criterion is unchanged: every
//! job ends in a typed terminal state (ok / partial / error / shed /
//! retries-exhausted) and the server drains cleanly. A panic or a
//! wedge is the only failure.

use remix_exec::{env_u64_or_warn, run_tasks, Parallelism, PoolOptions, TaskResult};
use remix_serve::protocol::{JobKind, JobRequest};
use remix_serve::{call_with_retry, ClientError, RetryPolicy, ServeConfig, Server, Status};
use remix_telemetry::names;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One client-side observation.
struct Observation {
    latency_ms: f64,
    status: Option<Status>,
    shed_or_exhausted: bool,
}

fn deck(resistance_k: u64) -> String {
    format!("* load\nv1 in 0 1\nr2 in out {resistance_k}k\nr3 out 0 1k\n.end\n")
}

/// The workload: ~40% repeated op jobs (cache fodder), ~30% unique dc
/// sweeps, ~30% unique transients with a real deadline. Deterministic:
/// job `i` always builds the same request.
fn build_job(i: u64) -> JobRequest {
    let (kind, deck) = match i % 10 {
        0..=3 => (JobKind::Op, deck(1 + i % 4)),
        4..=6 => (
            JobKind::DcSweep {
                source: "1".to_string(),
                start: 0.0,
                stop: 1.0,
                points: 11,
            },
            deck(100 + i),
        ),
        _ => (
            JobKind::Tran {
                t_stop: 2e-4,
                dt: 1e-6,
            },
            deck(200 + i),
        ),
    };
    JobRequest {
        id: format!("load-{i}"),
        kind,
        deck,
        deadline_ms: Some(5_000),
        newton_budget: None,
        timestep_budget: None,
        events: false,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn run() -> Result<bool, String> {
    let total_jobs = env_u64_or_warn("REMIX_SERVE_LOAD_JOBS", Some(120))
        .unwrap_or(120)
        .max(1);
    let clients = env_u64_or_warn("REMIX_SERVE_LOAD_CLIENTS", Some(8))
        .unwrap_or(8)
        .clamp(1, 64) as usize;
    let mut config = ServeConfig::from_env();
    config.addr = "127.0.0.1:0".to_string();
    let chaos_active = config.chaos.is_active();
    let server = Server::start(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    let policy = RetryPolicy {
        retries: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(100),
    };
    let indices: Vec<usize> = (0..total_jobs as usize).collect();
    // audit: allow(AUD004): wall-clock window for the jobs/sec figure.
    let started = Instant::now();
    let run = run_tasks(
        &indices,
        &PoolOptions::with_parallelism(Parallelism::Workers(clients)),
        |index| {
            let request = build_job(index as u64);
            // audit: allow(AUD004): client-observed latency is the
            // measurand here; server-side budgets still govern the work.
            let started = Instant::now();
            let outcome = call_with_retry(addr, &request, &policy);
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(response) => TaskResult::Done(Observation {
                    latency_ms,
                    status: Some(response.status),
                    shed_or_exhausted: response.status == Status::Shed,
                }),
                Err(ClientError::RetriesExhausted(_)) => TaskResult::Done(Observation {
                    latency_ms,
                    status: None,
                    shed_or_exhausted: true,
                }),
                Err(e) => TaskResult::Failed(format!("client failure: {e}")),
            }
        },
        |_, _| {},
    );
    let wall_s = started.elapsed().as_secs_f64();

    // Outcomes come back in index order; a failed client (or a
    // contained panic, traced `panic: …`) fails the run.
    let mut observations = Vec::new();
    for (i, outcome) in run.outcomes.into_iter().enumerate() {
        match outcome {
            Some(Ok(obs)) => observations.push(obs),
            Some(Err(msg)) => return Err(format!("load-{i}: {msg}")),
            None => {}
        }
    }
    let snapshot = server.shutdown();

    let mut latencies: Vec<f64> = observations.iter().map(|o| o.latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = percentile(&latencies, 0.99);
    let jobs_per_sec = if wall_s > 0.0 {
        observations.len() as f64 / wall_s
    } else {
        0.0
    };
    let client_sheds = observations.iter().filter(|o| o.shed_or_exhausted).count();
    let hits = snapshot.counter(names::SERVE_CACHE_HITS).unwrap_or(0);
    let misses = snapshot.counter(names::SERVE_CACHE_MISSES).unwrap_or(0);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let server_sheds = snapshot.counter(names::SERVE_SHEDS).unwrap_or(0);
    let chaos_injected = snapshot.counter(names::SERVE_CHAOS_INJECTED).unwrap_or(0);

    remix_telemetry::gauge_set(names::SERVE_LOAD_JOBS_PER_SEC, jobs_per_sec);
    remix_telemetry::gauge_set(names::SERVE_LOAD_P99_MS, p99);
    remix_telemetry::gauge_set(names::SERVE_LOAD_CACHE_HIT_RATE, hit_rate);
    remix_telemetry::counter_add(names::SERVE_LOAD_SHEDS, client_sheds as u64);
    remix_telemetry::counter_add(names::SERVE_SHEDS, server_sheds);
    remix_telemetry::counter_add(names::SERVE_CHAOS_INJECTED, chaos_injected);
    for (name, status) in [
        (names::SERVE_JOBS_OK, Status::Ok),
        (names::SERVE_JOBS_PARTIAL, Status::Partial),
        (names::SERVE_JOBS_FAILED, Status::Error),
    ] {
        let n = observations
            .iter()
            .filter(|o| o.status == Some(status))
            .count() as u64;
        remix_telemetry::counter_add(name, n);
    }

    let hit_pct = hit_rate * 100.0;
    println!(
        "serve_load: {} jobs in {wall_s:.2}s = {jobs_per_sec:.1} jobs/s; \
         p99 {p99:.1} ms; cache hit rate {hit_pct:.0}%; \
         sheds {client_sheds} (server {server_sheds}); \
         chaos injections {chaos_injected}",
        observations.len()
    );
    // Pass: everything terminated in a typed state (enforced above by
    // the Err paths) and, without chaos, most jobs actually succeeded.
    let ok_jobs = observations
        .iter()
        .filter(|o| o.status == Some(Status::Ok))
        .count();
    Ok(chaos_active || ok_jobs * 2 >= observations.len())
}

fn main() -> ExitCode {
    // Explicit record stem: this binary's record is the service's
    // benchmark, so it writes BENCH_serve.json (not BENCH_serve_load).
    let recorder = remix_bench::BenchRecorder::arm_with_bin("serve load", "serve");
    let result = run();
    match result {
        Ok(pass) => {
            recorder.finish(pass);
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("serve load failed: {message}");
            recorder.finish(false);
            ExitCode::FAILURE
        }
    }
}

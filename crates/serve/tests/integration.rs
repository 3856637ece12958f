//! End-to-end service tests over real loopback sockets: happy path,
//! lint gating, budget partials, cache behavior, overload shedding,
//! and chaos survival. Every test boots its own server on an
//! ephemeral port and shuts it down; nothing here may panic or wedge.

use remix_serve::protocol::{JobKind, JobRequest};
use remix_serve::{call_with_retry, Client, ClientError, RetryPolicy, ServeConfig, Server, Status};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const GOOD_DECK: &str = "* divider\nv1 in 0 1\nr2 in out 1k\nr3 out 0 1k\n.end\n";

fn job(id: &str, kind: JobKind, deck: &str) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        kind,
        deck: deck.to_string(),
        deadline_ms: None,
        newton_budget: None,
        timestep_budget: None,
        events: false,
    }
}

fn boot(config: ServeConfig) -> Server {
    Server::start(config).unwrap_or_else(|e| panic!("bind ephemeral port: {e}"))
}

fn client(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(1))
        .unwrap_or_else(|e| panic!("connect: {e}"))
}

#[test]
fn op_job_round_trips_ok() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let response = c
        .submit(&job("op-1", JobKind::Op, GOOD_DECK))
        .expect("submit");
    assert_eq!(response.status, Status::Ok, "raw: {}", response.raw);
    assert!(!response.cached);
    assert!(response.result.contains("\"kind\":\"op\""));
    server.shutdown();
}

#[test]
fn ping_and_stats_work() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    c.ping().expect("ping");
    server.shutdown();
}

#[test]
fn identical_jobs_hit_the_cache() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let first = c.submit(&job("a", JobKind::Op, GOOD_DECK)).expect("first");
    assert!(!first.cached);
    // Different id, same work: must be served from cache.
    let second = c.submit(&job("b", JobKind::Op, GOOD_DECK)).expect("second");
    assert_eq!(second.status, Status::Ok);
    assert!(second.cached, "raw: {}", second.raw);
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.counter(remix_telemetry::names::SERVE_CACHE_HITS),
        Some(1)
    );
}

#[test]
fn lint_denied_deck_is_refused_with_typed_code() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    // A floating node: lint denies it before any solver time is spent.
    let bad = "* floating\nv1 in 0 1\nr2 in out 1k\n.end\n";
    let response = c.submit(&job("bad", JobKind::Op, bad)).expect("submit");
    assert_eq!(response.status, Status::Error, "raw: {}", response.raw);
    assert_eq!(response.code.as_deref(), Some("lint_deny"));
    server.shutdown();
}

#[test]
fn unparseable_deck_is_refused_with_typed_code() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let response = c
        .submit(&job("junk", JobKind::Op, "r1 only two\n.end\n"))
        .expect("submit");
    assert_eq!(response.status, Status::Error);
    assert_eq!(response.code.as_deref(), Some("parse"));
    server.shutdown();
}

#[test]
fn network_decks_cannot_include_files() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let sneaky = "* sneaky\n.include /etc/hostname\nv1 in 0 1\n.end\n";
    let response = c.submit(&job("inc", JobKind::Op, sneaky)).expect("submit");
    assert_eq!(response.status, Status::Error);
    assert_eq!(response.code.as_deref(), Some("parse"));
    server.shutdown();
}

#[test]
fn tran_with_tiny_timestep_budget_returns_partial() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let mut request = job(
        "tran-budget",
        JobKind::Tran {
            t_stop: 1e-3,
            dt: 1e-6,
        },
        GOOD_DECK,
    );
    request.timestep_budget = Some(5);
    let response = c.submit(&request).expect("submit");
    assert_eq!(response.status, Status::Partial, "raw: {}", response.raw);
    assert!(response.raw.contains("interruption"));
    // The partial must NOT be cached: a full-budget rerun completes.
    let mut full = job(
        "tran-full",
        JobKind::Tran {
            t_stop: 1e-3,
            dt: 1e-6,
        },
        GOOD_DECK,
    );
    full.deadline_ms = Some(10_000);
    let full_response = c.submit(&full).expect("full");
    assert_eq!(
        full_response.status,
        Status::Ok,
        "raw: {}",
        full_response.raw
    );
    assert!(!full_response.cached);
    server.shutdown();
}

#[test]
fn events_stream_before_terminal_line() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let mut request = job("observed", JobKind::Op, GOOD_DECK);
    request.events = true;
    let response = c.submit(&request).expect("submit");
    assert_eq!(response.status, Status::Ok);
    assert!(
        !response.events.is_empty(),
        "events:true must stream at least one event line"
    );
    assert!(response
        .events
        .iter()
        .any(|e| e.contains("remix.serve.job")));
    server.shutdown();
}

#[test]
fn dc_sweep_completes() {
    let server = boot(ServeConfig::default());
    let mut c = client(&server);
    let response = c
        .submit(&job(
            "sweep",
            JobKind::DcSweep {
                source: "1".to_string(),
                start: 0.0,
                stop: 1.0,
                points: 5,
            },
            GOOD_DECK,
        ))
        .expect("submit");
    assert_eq!(response.status, Status::Ok, "raw: {}", response.raw);
    assert!(response.result.contains("\"completed\":5"));
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_response_and_server_survives() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = boot(config);
    // Slow jobs (distinct decks defeat the cache) from many threads:
    // with depth 1, most must shed. Shed responses are typed and the
    // server keeps answering afterwards.
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut request = job(
                    &format!("flood-{i}"),
                    JobKind::Tran {
                        t_stop: 1e-3,
                        dt: 1e-6,
                    },
                    // Unique resistance per job: no cache dedup.
                    &format!("* f\nv1 in 0 1\nr2 in out {}k\nr3 out 0 1k\n.end\n", i + 1),
                );
                request.deadline_ms = Some(2_000);
                let mut c = Client::connect(addr, Duration::from_secs(1)).expect("connect");
                c.submit(&request).expect("submit")
            })
        })
        .collect();
    let responses: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no client panics"))
        .collect();
    let sheds = responses
        .iter()
        .filter(|r| r.status == Status::Shed)
        .count();
    assert!(sheds > 0, "1-deep queue under 8 jobs must shed");
    for r in responses.iter().filter(|r| r.status == Status::Shed) {
        assert!(r.code.is_some(), "shed must carry a reason: {}", r.raw);
    }
    // Server still serves after the flood.
    let mut c = client(&server);
    let after = c
        .submit(&job("after", JobKind::Op, GOOD_DECK))
        .expect("after");
    assert_eq!(after.status, Status::Ok);
    let snapshot = server.shutdown();
    let counted = snapshot
        .counter(remix_telemetry::names::SERVE_SHEDS)
        .unwrap_or(0);
    assert!(counted >= sheds as u64);
}

#[test]
fn retry_helper_rides_through_sheds() {
    let config = ServeConfig {
        workers: 2,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = boot(config);
    let addr = server.addr();
    let policy = RetryPolicy {
        retries: 8,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
    };
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let policy = policy.clone();
            std::thread::spawn(move || {
                let request = job(
                    &format!("retry-{i}"),
                    JobKind::Op,
                    &format!("* r\nv1 in 0 1\nr2 in out {}k\nr3 out 0 1k\n.end\n", i + 1),
                );
                call_with_retry(addr, &request, &policy)
            })
        })
        .collect();
    let mut ok = 0;
    for h in handles {
        match h.join().expect("no client panics") {
            Ok(response) => {
                assert_eq!(response.status, Status::Ok, "raw: {}", response.raw);
                ok += 1;
            }
            Err(ClientError::RetriesExhausted(_)) => {}
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert!(ok >= 4, "retries must land most jobs ({ok}/6 succeeded)");
    server.shutdown();
}

#[test]
fn chaos_panics_are_contained_and_typed() {
    let config = ServeConfig {
        chaos: remix_serve::ChaosConfig::parse("panic:2").expect("spec"),
        ..ServeConfig::default()
    };
    let server = boot(config);
    let mut failures = 0;
    let mut successes = 0;
    for i in 0..6 {
        let mut c = client(&server);
        let response = c
            .submit(&job(
                &format!("chaos-{i}"),
                JobKind::Op,
                &format!("* c\nv1 in 0 1\nr2 in out {}k\nr3 out 0 1k\n.end\n", i + 1),
            ))
            .expect("server must answer even when the job panicked");
        match response.status {
            Status::Ok => successes += 1,
            Status::Error => {
                assert_eq!(
                    response.code.as_deref(),
                    Some("panic"),
                    "raw: {}",
                    response.raw
                );
                failures += 1;
            }
            other => panic!("unexpected status {other:?}: {}", response.raw),
        }
    }
    assert!(successes > 0 && failures > 0, "panic:2 must split outcomes");
    // The server is intact: one more clean job.
    let mut c = client(&server);
    let after = c
        .submit(&job("after-chaos", JobKind::Op, GOOD_DECK))
        .expect("post-chaos submit");
    assert!(matches!(after.status, Status::Ok | Status::Error));
    server.shutdown();
}

#[test]
fn chaos_torn_frames_surface_as_transport_errors_not_hangs() {
    let config = ServeConfig {
        chaos: remix_serve::ChaosConfig::parse("torn:2").expect("spec"),
        ..ServeConfig::default()
    };
    let server = boot(config);
    let mut torn = 0;
    for i in 0..6 {
        let mut c = client(&server);
        match c.submit(&job(
            &format!("torn-{i}"),
            JobKind::Op,
            &format!("* t\nv1 in 0 1\nr2 in out {}k\nr3 out 0 1k\n.end\n", i + 1),
        )) {
            Ok(_) => {}
            Err(ClientError::Transport(_) | ClientError::BadResponse(_)) => torn += 1,
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(torn > 0, "torn:2 must tear some responses");
    server.shutdown();
}

#[test]
fn raw_socket_garbage_gets_typed_protocol_errors() {
    let server = boot(ServeConfig::default());
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(b"this is not json\n").expect("write");
    let mut buf = [0u8; 4096];
    let n = s.read(&mut buf).expect("read");
    let line = String::from_utf8_lossy(&buf[..n]);
    assert!(line.contains("\"status\":\"error\""), "got: {line}");
    assert!(line.contains("invalid_json"), "got: {line}");
    // Connection survives one malformed request: a valid ping works.
    s.write_all(b"{\"op\":\"ping\"}\n").expect("write ping");
    let n = s.read(&mut buf).expect("read pong");
    assert!(String::from_utf8_lossy(&buf[..n]).contains("pong"));
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_with_idle_connections_open() {
    let server = boot(ServeConfig::default());
    // Park two idle connections; shutdown must not wait out the idle
    // timeout (30 s) — the stop flag unblocks the poll loop.
    let _idle1 = TcpStream::connect(server.addr()).expect("idle 1");
    let _idle2 = TcpStream::connect(server.addr()).expect("idle 2");
    std::thread::sleep(Duration::from_millis(50));
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn cache_persists_across_a_restart_and_rejects_foreign_snapshots() {
    let dir = std::env::temp_dir().join(format!("remix_serve_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cache.json");
    let config = || ServeConfig {
        cache_file: Some(path.clone()),
        ..ServeConfig::default()
    };
    // First life: compute once, shut down gracefully.
    let server = boot(config());
    let first = c_submit(&server, "life1");
    assert!(!first.cached);
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.counter(remix_telemetry::names::SERVE_CACHE_PERSIST_SAVED),
        Some(1)
    );
    assert!(path.exists(), "snapshot must be written");
    // Second life: the very first submission is already a hit.
    let server = boot(config());
    let revived = c_submit(&server, "life2");
    assert!(revived.cached, "raw: {}", revived.raw);
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.counter(remix_telemetry::names::SERVE_CACHE_PERSIST_LOADED),
        Some(1)
    );
    // Third life with a corrupted snapshot: rejected wholesale, cold start.
    std::fs::write(
        &path,
        "{\"version\":1,\"fingerprint\":\"beef\",\"entries\":[]}",
    )
    .expect("corrupt");
    let server = boot(config());
    let cold = c_submit(&server, "life3");
    assert!(!cold.cached, "foreign snapshot must not seed the cache");
    let snapshot = server.shutdown();
    assert_eq!(
        snapshot.counter(remix_telemetry::names::SERVE_CACHE_PERSIST_REJECTED),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn c_submit(server: &Server, id: &str) -> remix_serve::JobResponse {
    let mut c = client(server);
    c.submit(&job(id, JobKind::Op, GOOD_DECK))
        .unwrap_or_else(|e| panic!("submit: {e}"))
}

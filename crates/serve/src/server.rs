//! The service: accept loop, bounded connection handlers, admission-
//! controlled worker pool, single-flight cache, chaos injection.
//!
//! Threading model (all spawns live here). A worker runs each job on
//! the worker thread itself, with the job's budget armed and the body
//! inside `remix_exec::contain`, the same panic containment every pool
//! task gets; the budget hooks in the analyses enforce the deadline, so
//! no per-job watchdog thread exists:
//!
//! ```text
//! accept thread ──▶ connection threads (≤ max_connections)
//!                        │  frame → decode → cache lookup
//!                        │  miss → AdmissionQueue::try_submit ── shed? ──▶ typed refusal
//!                        ▼
//!                   worker threads (workers) ── arm budget, contain ──▶ reply channel
//! ```
//!
//! Overload sheds at two doors: the accept path refuses connections
//! beyond `max_connections` with a `shed` line, and `try_submit`
//! refuses jobs when the queue is full or the declared deadline cannot
//! survive the EWMA-estimated wait. Nothing queues unboundedly; the
//! p99 of *accepted* jobs stays bounded because hopeless work is
//! refused at the door instead of timing out in line.

use crate::cache::{job_fingerprint, FlightGuard, Lookup, ResultCache};
use crate::chaos::{Chaos, ChaosConfig};
use crate::framing::{FrameLimits, FrameReader};
use crate::protocol::{
    decode_request, render, JobKind, JobRequest, RequestFrame, DEFAULT_MAX_DECK_BYTES,
    DEFAULT_MAX_LINE_BYTES,
};
use remix_analysis::{
    dc_operating_point, dc_sweep_partial, transient_partial, AnalysisError, OpOptions, TranOptions,
};
use remix_exec::{contain, env_u64_or_warn, AdmissionQueue, RunBudget};
use remix_lint::{lint_deck, LintConfig, LintReport};
use remix_telemetry::names;
use remix_telemetry::{FieldValue, MemorySink, MetricValue, Telemetry};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server tunables. Every knob has a `REMIX_SERVE_*` environment
/// override read through the typed env layer (malformed values warn
/// and fall back, never silently zero).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Connection handlers; further connections shed at accept.
    pub max_connections: usize,
    /// Admission queue depth bound.
    pub queue_depth: usize,
    /// Request line byte cap.
    pub max_line_bytes: usize,
    /// Deck byte cap inside a job.
    pub max_deck_bytes: usize,
    /// A started frame must complete within this (ms).
    pub frame_deadline_ms: u64,
    /// Idle connections are closed after this (ms).
    pub idle_timeout_ms: u64,
    /// Deadline applied to jobs that declare none (ms).
    pub default_deadline_ms: u64,
    /// Clamp on any declared job deadline (ms).
    pub max_deadline_ms: u64,
    /// Result-cache capacity (rendered bodies).
    pub cache_capacity: usize,
    /// Persist the result cache here: loaded (fingerprint-checked) on
    /// startup, written crash-safely on graceful shutdown. `None`
    /// keeps the cache purely in-memory.
    pub cache_file: Option<std::path::PathBuf>,
    /// Deterministic fault schedule.
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_connections: 64,
            queue_depth: 32,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_deck_bytes: DEFAULT_MAX_DECK_BYTES,
            frame_deadline_ms: 5_000,
            idle_timeout_ms: 30_000,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            cache_capacity: 256,
            cache_file: None,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Defaults with every `REMIX_SERVE_*` environment override
    /// applied. A malformed value emits a typed
    /// `remix.exec.env.malformed` warning and keeps the default.
    pub fn from_env() -> Self {
        let mut c = ServeConfig::default();
        let get = |var: &str, default: u64| env_u64_or_warn(var, Some(default)).unwrap_or(default);
        c.workers = get("REMIX_SERVE_WORKERS", c.workers as u64).max(1) as usize;
        c.max_connections = get("REMIX_SERVE_MAX_CONNS", c.max_connections as u64).max(1) as usize;
        c.queue_depth = get("REMIX_SERVE_QUEUE_DEPTH", c.queue_depth as u64).max(1) as usize;
        c.max_line_bytes =
            get("REMIX_SERVE_MAX_LINE_BYTES", c.max_line_bytes as u64).max(64) as usize;
        c.frame_deadline_ms = get("REMIX_SERVE_FRAME_DEADLINE_MS", c.frame_deadline_ms).max(10);
        c.default_deadline_ms =
            get("REMIX_SERVE_DEFAULT_DEADLINE_MS", c.default_deadline_ms).max(1);
        c.max_deadline_ms = get("REMIX_SERVE_MAX_DEADLINE_MS", c.max_deadline_ms).max(1);
        if let Some(path) = std::env::var_os("REMIX_SERVE_CACHE_FILE") {
            if !path.is_empty() {
                c.cache_file = Some(std::path::PathBuf::from(path));
            }
        }
        if let Ok(spec) = std::env::var("REMIX_SERVE_CHAOS") {
            match ChaosConfig::parse(&spec) {
                Ok(chaos) => c.chaos = chaos,
                Err(e) => eprintln!("warning: REMIX_SERVE_CHAOS ignored: {e}"),
            }
        }
        c
    }
}

/// What a job execution produced (before rendering).
enum ExecOutcome {
    /// Complete result body (cacheable).
    Complete(String),
    /// Budget-tripped prefix body plus which budget tripped.
    Partial(String, String),
    /// Typed failure.
    Failed { code: &'static str, message: String },
}

struct QueuedJob {
    job: JobRequest,
    guard: Option<FlightGuard>,
    reply: mpsc::Sender<WorkerReply>,
}

struct WorkerReply {
    event_lines: Vec<String>,
    terminal: String,
}

struct Shared {
    config: ServeConfig,
    queue: AdmissionQueue<QueuedJob>,
    cache: ResultCache,
    chaos: Chaos,
    stop: Arc<AtomicBool>,
    active_conns: AtomicUsize,
    telemetry: Telemetry,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// background threads until process exit; call `shutdown` in tests.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts accept + worker threads.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let max_deadline = Duration::from_millis(config.max_deadline_ms);
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_depth),
            cache: ResultCache::new(config.cache_capacity, max_deadline),
            chaos: Chaos::new(config.chaos.clone()),
            stop: Arc::new(AtomicBool::new(false)),
            active_conns: AtomicUsize::new(0),
            telemetry: Telemetry::new(),
            config,
        });
        load_cache_file(&shared);
        let mut workers = Vec::new();
        for i in 0..shared.config.workers {
            let shared2 = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared2))?,
            );
        }
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let shared2 = Arc::clone(&shared);
        let conns2 = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared2, &conns2))?;
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            conns,
        })
    }

    /// The bound address (real port, even when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot of the server's own registry.
    pub fn snapshot(&self) -> remix_telemetry::MetricsSnapshot {
        self.shared.telemetry.snapshot()
    }

    /// Graceful stop: refuse new work, drain, join every thread, and
    /// (when configured) persist the result cache crash-safely.
    pub fn shutdown(mut self) -> remix_telemetry::MetricsSnapshot {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = {
            let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        save_cache_file(&self.shared);
        self.shared.telemetry.snapshot()
    }
}

/// Seeds the result cache from [`ServeConfig::cache_file`] on startup.
/// A missing file is a cold start; a malformed, differently-versioned,
/// or foreign-fingerprint snapshot is rejected wholesale (counted and
/// logged on `remix.serve.cache.persist.rejected`) — a stale body
/// replayed as a hit would be silently wrong.
fn load_cache_file(shared: &Arc<Shared>) {
    let Some(path) = shared.config.cache_file.as_deref() else {
        return;
    };
    let _guard = shared.telemetry.arm();
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // cold start: nothing persisted yet
    };
    match shared
        .cache
        .load_persist(&text, &crate::cache::persist_fingerprint())
    {
        Ok(n) => {
            remix_telemetry::counter_add(names::SERVE_CACHE_PERSIST_LOADED, n as u64);
            remix_telemetry::event(
                names::SERVE_CACHE_PERSIST_LOADED,
                vec![
                    ("entries", FieldValue::from(n as u64)),
                    ("path", FieldValue::from(path.display().to_string())),
                ],
            );
        }
        Err(why) => {
            remix_telemetry::counter_add(names::SERVE_CACHE_PERSIST_REJECTED, 1);
            remix_telemetry::event(
                names::SERVE_CACHE_PERSIST_REJECTED,
                vec![
                    ("reason", FieldValue::from(why.clone())),
                    ("path", FieldValue::from(path.display().to_string())),
                ],
            );
            eprintln!("serve: persisted cache {} rejected: {why}", path.display());
        }
    }
}

/// Writes the result cache to [`ServeConfig::cache_file`] through
/// `remix_exec::atomic_write` (tmp + rename), so a crash mid-shutdown
/// leaves the previous snapshot intact instead of a torn one.
fn save_cache_file(shared: &Arc<Shared>) {
    let Some(path) = shared.config.cache_file.as_deref() else {
        return;
    };
    let _guard = shared.telemetry.arm();
    let doc = shared
        .cache
        .render_persist(&crate::cache::persist_fingerprint());
    match remix_exec::atomic_write(path, &doc) {
        Ok(()) => {
            remix_telemetry::counter_add(
                names::SERVE_CACHE_PERSIST_SAVED,
                shared.cache.len() as u64,
            );
            remix_telemetry::event(
                names::SERVE_CACHE_PERSIST_SAVED,
                vec![
                    ("entries", FieldValue::from(shared.cache.len() as u64)),
                    ("path", FieldValue::from(path.display().to_string())),
                ],
            );
        }
        Err(e) => eprintln!("serve: cannot persist cache {}: {e}", path.display()),
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let telemetry_guard = shared.telemetry.arm();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        remix_telemetry::counter_add(names::SERVE_CONNECTIONS, 1);
        if shared.chaos.drop_connection() {
            drop(stream); // injected fault: connection vanishes unserved
            continue;
        }
        if shared.active_conns.load(Ordering::Acquire) >= shared.config.max_connections {
            remix_telemetry::counter_add(names::SERVE_SHEDS, 1);
            let mut s = stream;
            let _ = s.write_all(format!("{}\n", render::shed("", "connections", 0, 0)).as_bytes());
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::AcqRel);
        let shared2 = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let _guard = shared2.telemetry.arm();
                connection_loop(stream, &shared2);
                shared2.active_conns.fetch_sub(1, Ordering::AcqRel);
            });
        match spawned {
            Ok(handle) => {
                let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                // Reap finished handlers so the vec stays bounded.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(_) => {
                shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    drop(telemetry_guard);
}

/// Writes one response line; under chaos, tears the frame mid-write.
/// Returns `false` when the connection should close.
fn write_line(stream: &mut TcpStream, shared: &Shared, line: &str) -> bool {
    if shared.chaos.tear_frame() {
        let half = line.len() / 2;
        let _ = stream.write_all(&line.as_bytes()[..half]);
        let _ = stream.flush();
        return false; // injected fault: torn frame, drop the peer
    }
    // One write per frame: the line and its newline never straddle a
    // flush boundary, so a reader's first recv sees a whole frame.
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream
        .write_all(framed.as_bytes())
        .and_then(|()| stream.flush())
        .is_ok()
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    remix_telemetry::counter_add(names::SERVE_CONN, 1);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.frame_deadline_ms)));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let limits = FrameLimits {
        max_line_bytes: shared.config.max_line_bytes,
        frame_deadline: Duration::from_millis(shared.config.frame_deadline_ms),
        idle_timeout: Duration::from_millis(shared.config.idle_timeout_ms),
    };
    // The shared stop flag reaches straight into the reader, so
    // shutdown unblocks a handler parked mid-poll.
    let mut reader = FrameReader::new(read_half, limits).with_stop(Arc::clone(&shared.stop));
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        if let Some(delay) = shared.chaos.read_delay() {
            std::thread::sleep(delay); // injected fault: slow reader
        }
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                remix_telemetry::counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                if let Some(pe) = e.to_protocol() {
                    let _ = write_line(&mut stream, shared, &render::protocol_error(&pe));
                }
                return;
            }
        };
        remix_telemetry::counter_add(names::SERVE_FRAMES, 1);
        match decode_request(&frame, shared.config.max_deck_bytes) {
            Err(pe) => {
                remix_telemetry::counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                // The frame was well-delimited: answer and keep the
                // connection — one malformed request is not a torn peer.
                if !write_line(&mut stream, shared, &render::protocol_error(&pe)) {
                    return;
                }
            }
            Ok(RequestFrame::Ping) => {
                if !write_line(&mut stream, shared, &render::pong()) {
                    return;
                }
            }
            Ok(RequestFrame::Stats) => {
                if !write_line(&mut stream, shared, &render_stats(shared)) {
                    return;
                }
            }
            Ok(RequestFrame::Job(job)) => {
                if !handle_job(&mut stream, shared, *job) {
                    return;
                }
            }
        }
    }
}

fn render_stats(shared: &Shared) -> String {
    let snapshot = shared.telemetry.snapshot();
    let mut counters = String::new();
    for m in &snapshot.metrics {
        if let MetricValue::Counter(v) = m.value {
            if !counters.is_empty() {
                counters.push(',');
            }
            counters.push_str(&format!("{}:{v}", crate::protocol::json_escape(&m.name)));
        }
    }
    format!(
        "{{\"status\":\"ok\",\"result\":{{\"counters\":{{{counters}}},\"cache_entries\":{},\"queue_depth\":{}}}}}",
        shared.cache.len(),
        shared.queue.depth(),
    )
}

/// Full job path on the connection thread: cache, admission, waiting
/// on the worker, streaming events, writing the terminal line.
/// Returns `false` when the connection should close.
fn handle_job(stream: &mut TcpStream, shared: &Arc<Shared>, job: JobRequest) -> bool {
    let started = Instant::now();
    let elapsed_ms = |s: Instant| s.elapsed().as_millis() as u64;
    let fingerprint = job_fingerprint(&job);
    let guard = match shared.cache.lookup(fingerprint) {
        Lookup::Hit(body) | Lookup::Joined(body) => {
            remix_telemetry::counter_add(names::SERVE_JOBS_OK, 1);
            return write_line(
                stream,
                shared,
                &render::result(&job.id, "ok", &body, true, elapsed_ms(started)),
            );
        }
        Lookup::Lead(guard) => Some(guard),
        Lookup::JoinFailed => None,
    };
    let deadline_ms = job
        .deadline_ms
        .unwrap_or(shared.config.default_deadline_ms)
        .min(shared.config.max_deadline_ms);
    let (tx, rx) = mpsc::channel();
    let id = job.id.clone();
    let queued = QueuedJob {
        job,
        guard,
        reply: tx,
    };
    match shared.queue.try_submit(queued, Some(deadline_ms)) {
        Ok(depth) => {
            remix_telemetry::gauge_set(names::SERVE_QUEUE_DEPTH, depth as f64);
        }
        Err(shed) => {
            remix_telemetry::counter_add(names::SERVE_SHEDS, 1);
            let line = render::shed(
                &id,
                shed.reason(),
                shed.depth(),
                shared.queue.estimated_wait_ms(),
            );
            return write_line(stream, shared, &line);
        }
    }
    // Wait for the worker; poll the stop flag so shutdown can't wedge
    // a handler on a reply that will never come.
    let wait_cap = Duration::from_millis(deadline_ms.saturating_mul(4).max(10_000));
    let waiting_since = Instant::now();
    let reply = loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(reply) => break reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if waiting_since.elapsed() > wait_cap {
                    remix_telemetry::counter_add(names::SERVE_JOBS_FAILED, 1);
                    let line = render::job_error(&id, "internal", "worker reply timed out");
                    return write_line(stream, shared, &line);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Queue closed mid-flight (shutdown): typed refusal.
                remix_telemetry::counter_add(names::SERVE_SHEDS, 1);
                let line = render::shed(&id, "closed", 0, 0);
                return write_line(stream, shared, &line);
            }
        }
    };
    for event_line in &reply.event_lines {
        if !write_line(stream, shared, event_line) {
            return false;
        }
    }
    write_line(stream, shared, &reply.terminal)
}

fn worker_loop(shared: &Arc<Shared>) {
    let _guard = shared.telemetry.arm();
    loop {
        let Some(item) = shared.queue.pop_timeout(Duration::from_millis(50)) else {
            if shared.stop.load(Ordering::Acquire) || shared.queue.is_closed() {
                return;
            }
            continue;
        };
        remix_telemetry::gauge_set(names::SERVE_QUEUE_DEPTH, shared.queue.depth() as f64);
        let started = Instant::now();
        run_job(shared, item);
        shared
            .queue
            .record_service_ms(started.elapsed().as_secs_f64() * 1e3);
    }
}

/// Executes one queued job under its budget, with panics contained,
/// and replies.
fn run_job(shared: &Arc<Shared>, item: QueuedJob) {
    let QueuedJob { job, guard, reply } = item;
    let started = Instant::now();
    let deadline_ms = job
        .deadline_ms
        .unwrap_or(shared.config.default_deadline_ms)
        .min(shared.config.max_deadline_ms);
    let mut budget = RunBudget::unlimited().with_deadline(Duration::from_millis(deadline_ms));
    if let Some(n) = job.newton_budget {
        budget = budget.with_newton_iterations(n);
    }
    if let Some(n) = job.timestep_budget {
        budget = budget.with_timesteps(n);
    }
    let events_sink = job.events.then(|| Arc::new(MemorySink::new()));
    // Run once: retries are the client's policy, not the server's.
    let result = {
        let _budget = budget.token().arm();
        contain(|| {
            let nested = events_sink
                .as_ref()
                .map(|s| Telemetry::with_sink(Arc::clone(s) as Arc<dyn remix_telemetry::Sink>));
            let _nested_guard = nested.as_ref().map(Telemetry::arm);
            if shared.chaos.panic_job() {
                // audit: allow(AUD002): deterministic chaos injection — the
                // job's panic containment is the subject under test.
                panic!("chaos: injected worker panic");
            }
            let outcome = execute(&job);
            if nested.is_some() {
                remix_telemetry::event(
                    names::SERVE_JOB,
                    vec![
                        ("job", FieldValue::from(job.id.clone())),
                        ("kind", FieldValue::from(job.kind.name())),
                        (
                            "status",
                            FieldValue::from(match &outcome {
                                ExecOutcome::Complete(_) => "ok",
                                ExecOutcome::Partial(..) => "partial",
                                ExecOutcome::Failed { .. } => "error",
                            }),
                        ),
                    ],
                );
            }
            outcome
        })
    };
    let event_lines = events_sink
        .map(|sink| {
            sink.events()
                .iter()
                .map(|e| render::event(&job.id, &e.render_json()))
                .collect()
        })
        .unwrap_or_default();
    let elapsed = started.elapsed().as_millis() as u64;
    let terminal = match result {
        Ok(ExecOutcome::Complete(body)) => {
            remix_telemetry::counter_add(names::SERVE_JOBS_OK, 1);
            if let Some(g) = guard {
                shared.cache.publish(g, body.clone());
            }
            render::result(&job.id, "ok", &body, false, elapsed)
        }
        Ok(ExecOutcome::Partial(body, interruption)) => {
            remix_telemetry::counter_add(names::SERVE_JOBS_PARTIAL, 1);
            if let Some(g) = guard {
                shared.cache.abandon(g); // a prefix must never poison the cache
            }
            render::partial(&job.id, &body, &interruption, elapsed)
        }
        Ok(ExecOutcome::Failed { code, message }) => {
            remix_telemetry::counter_add(names::SERVE_JOBS_FAILED, 1);
            if let Some(g) = guard {
                shared.cache.abandon(g);
            }
            render::job_error(&job.id, code, &message)
        }
        Err(message) => {
            remix_telemetry::counter_add(names::SERVE_JOBS_FAILED, 1);
            if let Some(g) = guard {
                shared.cache.abandon(g);
            }
            render::job_error(&job.id, "panic", &message)
        }
    };
    let _ = reply.send(WorkerReply {
        event_lines,
        terminal,
    });
}

fn lint_deny_summary(report: &LintReport) -> String {
    let denies: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == remix_lint::Severity::Deny)
        .map(|d| format!("[{}] {}", d.rule.code(), d.message))
        .collect();
    format!("{} deny finding(s): {}", denies.len(), denies.join("; "))
}

/// Parses, lint-gates, and runs one job on the worker thread (budget
/// already armed by [`run_job`]).
fn execute(job: &JobRequest) -> ExecOutcome {
    // The string parser refuses `.include`: a deck that arrived over
    // the socket can never cause a server filesystem read.
    let deck = match remix_circuit::parse_spice(&job.deck) {
        Ok(deck) => deck,
        Err(e) => {
            return ExecOutcome::Failed {
                code: "parse",
                message: e.to_string(),
            }
        }
    };
    let report = lint_deck(&deck, &LintConfig::default());
    if report.deny_count() > 0 {
        return ExecOutcome::Failed {
            code: "lint_deny",
            message: lint_deny_summary(&report),
        };
    }
    let circuit = &deck.circuit;
    let result = match &job.kind {
        JobKind::Op => dc_operating_point(circuit, &OpOptions::default()).map(|op| {
            let (v_min, v_max) = op
                .solution
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let body = format!(
                "{{\"kind\":\"op\",\"unknowns\":{},\"v_min\":{v_min:e},\"v_max\":{v_max:e}}}",
                op.solution.len(),
            );
            ExecOutcome::Complete(body)
        }),
        JobKind::DcSweep {
            source,
            start,
            stop,
            points,
        } => {
            let n = *points;
            let values: Vec<f64> = (0..n)
                .map(|i| {
                    if n == 1 {
                        *start
                    } else {
                        start + (stop - start) * i as f64 / (n - 1) as f64
                    }
                })
                .collect();
            dc_sweep_partial(circuit, source, &values, &OpOptions::default()).map(|partial| {
                let body = format!(
                    "{{\"kind\":\"dc_sweep\",\"requested\":{n},\"completed\":{}}}",
                    partial.value.points.len(),
                );
                match partial.interruption {
                    None => ExecOutcome::Complete(body),
                    Some(i) => ExecOutcome::Partial(body, i.interruption.to_string()),
                }
            })
        }
        JobKind::Tran { t_stop, dt } => transient_partial(circuit, &TranOptions::new(*t_stop, *dt))
            .map(|partial| {
                let t_end = partial.value.times.last().copied().unwrap_or(0.0);
                let body = format!(
                    "{{\"kind\":\"tran\",\"steps\":{},\"t_end\":{t_end:e}}}",
                    partial.value.times.len(),
                );
                match partial.interruption {
                    None => ExecOutcome::Complete(body),
                    Some(i) => ExecOutcome::Partial(body, i.interruption.to_string()),
                }
            }),
    };
    match result {
        Ok(outcome) => outcome,
        Err(AnalysisError::Lint(report)) => ExecOutcome::Failed {
            code: "lint_deny",
            message: lint_deny_summary(&report),
        },
        Err(AnalysisError::BudgetExceeded { interruption, .. }) => ExecOutcome::Failed {
            code: "budget",
            message: interruption.to_string(),
        },
        Err(e) => ExecOutcome::Failed {
            code: "analysis",
            message: format!("{e:?}"),
        },
    }
}

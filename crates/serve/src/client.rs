//! Client helper: connect, frame requests, parse responses, and retry
//! shed / transport failures with a deterministic jittered backoff.
//! The `serve_load` generator drives the server through this same code
//! path, so the retry policy the bench measures is the retry policy
//! real callers get.

use crate::framing::{FrameError, FrameLimits, FrameReader};
use crate::protocol::{encode_job, JobRequest, Status};
use remix_telemetry::{parse_json, JsonValue};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure. `Shed` carries the server's typed refusal so
/// callers can distinguish overload from breakage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not connect.
    Connect(std::io::ErrorKind),
    /// Transport or framing failure mid-exchange.
    Transport(String),
    /// The server answered, but not with parseable response JSON.
    BadResponse(String),
    /// The server shed the request (reason from the wire).
    Shed(String),
    /// Retries exhausted; the last error is boxed inside.
    RetriesExhausted(Box<ClientError>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(kind) => write!(f, "connect failed: {kind:?}"),
            ClientError::Transport(m) => write!(f, "transport failed: {m}"),
            ClientError::BadResponse(m) => write!(f, "unparseable response: {m}"),
            ClientError::Shed(reason) => write!(f, "request shed: {reason}"),
            ClientError::RetriesExhausted(inner) => write!(f, "retries exhausted: {inner}"),
        }
    }
}

/// A parsed terminal response plus any event lines streamed before it.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// Terminal status.
    pub status: Status,
    /// `result` body rendered back to JSON text (empty when absent).
    pub result: String,
    /// Error/shed code or reason, when the status carries one.
    pub code: Option<String>,
    /// Served from the result cache?
    pub cached: bool,
    /// Server-side wall time (ms).
    pub elapsed_ms: u64,
    /// Raw event frames received before the terminal line.
    pub events: Vec<String>,
    /// The raw terminal line.
    pub raw: String,
}

/// Retry policy for [`call_with_retry`]. Backoff is deterministically
/// jittered: same job id + attempt → same delay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first.
    pub retries: u32,
    /// First backoff step.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

/// One connection to a serve instance.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Num(x) => format!("{x:e}"),
        JsonValue::Str(s) => crate::protocol::json_escape(s),
        JsonValue::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}:{}", crate::protocol::json_escape(k), render_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

impl Client {
    /// Connects with `timeout`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the server is unreachable.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| ClientError::Connect(e.kind()))?;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| ClientError::Connect(e.kind()))?;
        Ok(Client {
            stream,
            reader: FrameReader::new(reader, FrameLimits::default()),
        })
    }

    fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush())
            .map_err(|e| ClientError::Transport(format!("write: {:?}", e.kind())))
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        match self.reader.read_frame() {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err(ClientError::Transport("server closed".to_string())),
            Err(FrameError::Torn { partial_bytes }) => Err(ClientError::Transport(format!(
                "torn response ({partial_bytes} bytes)"
            ))),
            Err(e) => Err(ClientError::Transport(e.to_string())),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Transport failure or a non-pong answer.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_line("{\"op\":\"ping\"}")?;
        let line = self.read_line()?;
        if line.contains("\"pong\"") {
            Ok(())
        } else {
            Err(ClientError::BadResponse(line))
        }
    }

    /// Submits `job` and reads frames until the terminal line.
    ///
    /// # Errors
    ///
    /// Transport failure or unparseable response. A shed **is** a
    /// parsed response here; [`call_with_retry`] turns it into
    /// [`ClientError::Shed`] for its retry loop.
    pub fn submit(&mut self, job: &JobRequest) -> Result<JobResponse, ClientError> {
        self.send_line(&encode_job(job))?;
        let mut events = Vec::new();
        loop {
            let line = self.read_line()?;
            let value = parse_json(&line)
                .map_err(|e| ClientError::BadResponse(format!("{e:?}: {line}")))?;
            if value.get("event").is_some() {
                events.push(line);
                continue;
            }
            let status = value
                .get("status")
                .and_then(JsonValue::as_str)
                .and_then(Status::parse)
                .ok_or_else(|| ClientError::BadResponse(line.clone()))?;
            let code = value
                .get("error")
                .and_then(|e| e.get("code"))
                .or_else(|| value.get("code"))
                .or_else(|| value.get("reason"))
                .and_then(JsonValue::as_str)
                .map(str::to_string);
            return Ok(JobResponse {
                status,
                result: value.get("result").map(render_value).unwrap_or_default(),
                code,
                cached: value
                    .get("cached")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                elapsed_ms: value
                    .get("elapsed_ms")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                events,
                raw: line,
            });
        }
    }
}

/// SplitMix64 — the same deterministic mixer the Monte-Carlo seeding
/// uses, so retry jitter is reproducible per (job, attempt).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a; only mixes the jitter stream, no cryptographic needs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Jittered exponential backoff before retry `attempt` (0-based) of the
/// named job: `base · 2^attempt · u`, `u ∈ [0.5, 1.0)` seeded from
/// `(name, attempt)`, capped at `cap`. Deterministic, so retried runs
/// replay exactly.
fn retry_backoff(name: &str, attempt: u32, base: Duration, cap: Duration) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let u = splitmix64(name_hash(name) ^ u64::from(attempt)) as f64 / u64::MAX as f64;
    let jittered = exp.mul_f64(0.5 + 0.5 * u);
    jittered.min(cap)
}

/// Submits `job` on a fresh connection per attempt, retrying sheds and
/// transport failures under `policy`'s deterministic jittered backoff.
/// Protocol-level rejections (`error` status) are NOT retried — a deck
/// the linter denied will be denied again.
///
/// # Errors
///
/// [`ClientError::RetriesExhausted`] wrapping the last failure.
pub fn call_with_retry(
    addr: SocketAddr,
    job: &JobRequest,
    policy: &RetryPolicy,
) -> Result<JobResponse, ClientError> {
    let mut last: Option<ClientError> = None;
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            std::thread::sleep(retry_backoff(
                &job.id,
                attempt - 1,
                policy.backoff_base,
                policy.backoff_cap,
            ));
        }
        let outcome = Client::connect(addr, Duration::from_millis(500))
            .and_then(|mut client| client.submit(job));
        match outcome {
            Ok(response) if response.status == Status::Shed => {
                last = Some(ClientError::Shed(
                    response.code.unwrap_or_else(|| "unknown".to_string()),
                ));
            }
            Ok(response) => return Ok(response),
            Err(e) => last = Some(e),
        }
    }
    Err(ClientError::RetriesExhausted(Box::new(last.unwrap_or(
        ClientError::Transport("no attempts".to_string()),
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_job() {
        let p = RetryPolicy::default();
        let backoff =
            |name: &str, attempt| retry_backoff(name, attempt, p.backoff_base, p.backoff_cap);
        let a = backoff("job-1", 0);
        assert_eq!(a, backoff("job-1", 0), "jitter must be deterministic");
        assert!(backoff("job-1", 4) >= a, "backoff must grow");
        assert!(backoff("job-1", 30) <= p.backoff_cap);
        // Different jobs jitter differently (with overwhelming odds).
        assert_ne!(backoff("alpha", 2), backoff("beta", 2));
    }

    #[test]
    fn render_value_round_trips_nested_result() {
        let v = parse_json("{\"a\":[1,true,\"x\"],\"b\":{\"c\":null}}").expect("parse");
        let rendered = render_value(&v);
        let back = parse_json(&rendered).expect("reparse");
        assert_eq!(
            back.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(3)
        );
    }
}

//! Wire protocol: JSON-lines requests and responses, with a typed
//! error for every way a frame can be malformed.
//!
//! One request per line, one terminal response per request; a job that
//! asked for `"events": true` receives zero or more event lines (each
//! `{"id": …, "event": …}`) *before* its terminal response. The
//! grammar is documented in `DESIGN.md` §12; everything here is
//! hand-rolled over `remix_telemetry::parse_json` — the environment
//! has no serde, and the telemetry JSON kernel is already fuzzed.
//!
//! Decoding never panics: every malformed frame maps to a
//! [`ProtocolError`] variant with a stable `code()` the server can
//! serialize back, so a client always learns *which* rule it broke.

use remix_telemetry::{parse_json, JsonValue};

/// Hard cap on request line length (bytes) unless configured lower.
pub const DEFAULT_MAX_LINE_BYTES: usize = 256 * 1024;

/// Hard cap on deck size inside a job (bytes).
pub const DEFAULT_MAX_DECK_BYTES: usize = 128 * 1024;

/// Every way a frame can be malformed, each with a stable wire code.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line exceeded the configured byte cap before a newline.
    LineTooLong {
        /// The configured cap (bytes).
        limit: usize,
    },
    /// The peer stopped mid-line longer than the read deadline allows
    /// (slow-loris defense) or never completed the frame.
    Timeout {
        /// The configured deadline (ms).
        deadline_ms: u64,
    },
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line is not valid JSON.
    InvalidJson {
        /// Parser message with byte offset.
        message: String,
    },
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A field is present with the wrong type or an invalid value.
    BadField {
        /// The field name.
        field: &'static str,
        /// What the protocol expects there.
        expected: &'static str,
    },
    /// `kind` names no known analysis.
    UnknownKind {
        /// The offending kind string.
        kind: String,
    },
    /// `op` names no known control operation.
    UnknownOp {
        /// The offending op string.
        op: String,
    },
    /// The deck exceeds the configured byte cap.
    DeckTooLarge {
        /// Actual deck size (bytes).
        bytes: usize,
        /// The configured cap (bytes).
        limit: usize,
    },
}

impl ProtocolError {
    /// Stable lowercase code for the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::LineTooLong { .. } => "line_too_long",
            ProtocolError::Timeout { .. } => "timeout",
            ProtocolError::InvalidUtf8 => "invalid_utf8",
            ProtocolError::InvalidJson { .. } => "invalid_json",
            ProtocolError::NotAnObject => "not_an_object",
            ProtocolError::MissingField { .. } => "missing_field",
            ProtocolError::BadField { .. } => "bad_field",
            ProtocolError::UnknownKind { .. } => "unknown_kind",
            ProtocolError::UnknownOp { .. } => "unknown_op",
            ProtocolError::DeckTooLarge { .. } => "deck_too_large",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::LineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ProtocolError::Timeout { deadline_ms } => {
                write!(f, "frame not completed within {deadline_ms} ms")
            }
            ProtocolError::InvalidUtf8 => write!(f, "request line is not valid UTF-8"),
            ProtocolError::InvalidJson { message } => write!(f, "invalid JSON: {message}"),
            ProtocolError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtocolError::MissingField { field } => write!(f, "missing field '{field}'"),
            ProtocolError::BadField { field, expected } => {
                write!(f, "field '{field}' must be {expected}")
            }
            ProtocolError::UnknownKind { kind } => write!(f, "unknown job kind '{kind}'"),
            ProtocolError::UnknownOp { op } => write!(f, "unknown op '{op}'"),
            ProtocolError::DeckTooLarge { bytes, limit } => {
                write!(f, "deck is {bytes} bytes (cap {limit})")
            }
        }
    }
}

/// The analysis a job requests, with its kind-specific parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// DC operating point.
    Op,
    /// DC sweep of one named source over a linear grid.
    DcSweep {
        /// Source element name to sweep.
        source: String,
        /// First swept value (V).
        start: f64,
        /// Last swept value (V).
        stop: f64,
        /// Number of grid points (≥ 1).
        points: usize,
    },
    /// Transient with fixed base step.
    Tran {
        /// Stop time (s).
        t_stop: f64,
        /// Base timestep (s).
        dt: f64,
    },
}

impl JobKind {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Op => "op",
            JobKind::DcSweep { .. } => "dc_sweep",
            JobKind::Tran { .. } => "tran",
        }
    }
}

/// One simulation job, as decoded from a request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed on every line this job produces.
    pub id: String,
    /// The analysis and its parameters.
    pub kind: JobKind,
    /// Self-contained SPICE deck (`.include` is refused by the parser:
    /// network decks never touch the server's filesystem).
    pub deck: String,
    /// Wall-clock budget (ms); also the admission-control deadline.
    pub deadline_ms: Option<u64>,
    /// Newton-iteration budget.
    pub newton_budget: Option<u64>,
    /// Timestep budget.
    pub timestep_budget: Option<u64>,
    /// Stream job telemetry events back before the terminal response.
    pub events: bool,
}

/// A decoded request frame: a job, or a control operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// Run a simulation job.
    Job(Box<JobRequest>),
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Server counter snapshot; answered inline, never queued.
    Stats,
}

fn get_str(obj: &JsonValue, field: &'static str) -> Result<Option<String>, ProtocolError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtocolError::BadField {
            field,
            expected: "a string",
        }),
    }
}

fn get_u64(obj: &JsonValue, field: &'static str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ProtocolError::BadField {
            field,
            expected: "a non-negative integer",
        }),
    }
}

fn get_f64(obj: &JsonValue, field: &'static str) -> Result<Option<f64>, ProtocolError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(ProtocolError::BadField {
                field,
                expected: "a finite number",
            }),
        },
    }
}

fn req_f64(obj: &JsonValue, field: &'static str) -> Result<f64, ProtocolError> {
    get_f64(obj, field)?.ok_or(ProtocolError::MissingField { field })
}

/// Decodes one request line. `max_deck_bytes` caps the embedded deck.
///
/// # Errors
///
/// A [`ProtocolError`] naming exactly which rule the frame broke.
pub fn decode_request(line: &str, max_deck_bytes: usize) -> Result<RequestFrame, ProtocolError> {
    let value = parse_json(line).map_err(|e| ProtocolError::InvalidJson {
        message: e.to_string(),
    })?;
    if !matches!(value, JsonValue::Obj(_)) {
        return Err(ProtocolError::NotAnObject);
    }
    if let Some(op) = get_str(&value, "op")? {
        match op.as_str() {
            "ping" => return Ok(RequestFrame::Ping),
            "stats" => return Ok(RequestFrame::Stats),
            "job" => {}
            other => {
                return Err(ProtocolError::UnknownOp {
                    op: other.to_string(),
                })
            }
        }
    }
    let id = get_str(&value, "id")?.ok_or(ProtocolError::MissingField { field: "id" })?;
    let deck = get_str(&value, "deck")?.ok_or(ProtocolError::MissingField { field: "deck" })?;
    if deck.len() > max_deck_bytes {
        return Err(ProtocolError::DeckTooLarge {
            bytes: deck.len(),
            limit: max_deck_bytes,
        });
    }
    let kind_name =
        get_str(&value, "kind")?.ok_or(ProtocolError::MissingField { field: "kind" })?;
    let params = value.get("params").cloned().unwrap_or(JsonValue::Null);
    let kind = match kind_name.as_str() {
        "op" => JobKind::Op,
        "dc_sweep" => {
            let source = get_str(&params, "source")?
                .ok_or(ProtocolError::MissingField { field: "source" })?;
            let points = get_u64(&params, "points")?
                .ok_or(ProtocolError::MissingField { field: "points" })?;
            if points == 0 || points > 100_000 {
                return Err(ProtocolError::BadField {
                    field: "points",
                    expected: "between 1 and 100000",
                });
            }
            JobKind::DcSweep {
                source,
                start: req_f64(&params, "start")?,
                stop: req_f64(&params, "stop")?,
                points: points as usize,
            }
        }
        "tran" => {
            let t_stop = req_f64(&params, "t_stop")?;
            let dt = req_f64(&params, "dt")?;
            if t_stop <= 0.0 || dt <= 0.0 || dt >= t_stop {
                return Err(ProtocolError::BadField {
                    field: "params",
                    expected: "positive t_stop and dt with dt < t_stop",
                });
            }
            JobKind::Tran { t_stop, dt }
        }
        other => {
            return Err(ProtocolError::UnknownKind {
                kind: other.to_string(),
            })
        }
    };
    Ok(RequestFrame::Job(Box::new(JobRequest {
        id,
        kind,
        deck,
        deadline_ms: get_u64(&value, "deadline_ms")?,
        newton_budget: get_u64(&value, "newton_budget")?,
        timestep_budget: get_u64(&value, "timestep_budget")?,
        events: value
            .get("events")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    })))
}

/// JSON string literal with required escapes: telemetry's renderer, so
/// server output stays parseable by its own reader.
pub use remix_telemetry::json_str as json_escape;

/// Encodes the request a client sends for `job` (the only frame
/// clients build programmatically; ping/stats are literals).
pub fn encode_job(job: &JobRequest) -> String {
    let mut out = String::from("{\"op\":\"job\"");
    out.push_str(&format!(",\"id\":{}", json_escape(&job.id)));
    out.push_str(&format!(",\"kind\":{}", json_escape(job.kind.name())));
    out.push_str(&format!(",\"deck\":{}", json_escape(&job.deck)));
    match &job.kind {
        JobKind::Op => {}
        JobKind::DcSweep {
            source,
            start,
            stop,
            points,
        } => {
            out.push_str(&format!(
                ",\"params\":{{\"source\":{},\"start\":{start:e},\"stop\":{stop:e},\"points\":{points}}}",
                json_escape(source)
            ));
        }
        JobKind::Tran { t_stop, dt } => {
            out.push_str(&format!(
                ",\"params\":{{\"t_stop\":{t_stop:e},\"dt\":{dt:e}}}"
            ));
        }
    }
    if let Some(ms) = job.deadline_ms {
        out.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    if let Some(n) = job.newton_budget {
        out.push_str(&format!(",\"newton_budget\":{n}"));
    }
    if let Some(n) = job.timestep_budget {
        out.push_str(&format!(",\"timestep_budget\":{n}"));
    }
    if job.events {
        out.push_str(",\"events\":true");
    }
    out.push('}');
    out
}

/// Terminal status of a response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Complete result.
    Ok,
    /// Budget tripped; `result` holds the completed prefix.
    Partial,
    /// The job ran and failed (lint deny, parse error, solver failure,
    /// or a caught panic).
    Error,
    /// Admission control refused the job.
    Shed,
}

impl Status {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Partial => "partial",
            Status::Error => "error",
            Status::Shed => "shed",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Status> {
        match s {
            "ok" => Some(Status::Ok),
            "partial" => Some(Status::Partial),
            "error" => Some(Status::Error),
            "shed" => Some(Status::Shed),
            _ => None,
        }
    }
}

/// Server-side response rendering. `result` and `error` bodies are
/// pre-rendered JSON fragments.
pub mod render {
    use super::{json_escape, ProtocolError};

    /// `ok` / `partial` terminal line.
    pub fn result(id: &str, status: &str, body: &str, cached: bool, elapsed_ms: u64) -> String {
        format!(
            "{{\"id\":{},\"status\":{},\"result\":{body},\"cached\":{cached},\"elapsed_ms\":{elapsed_ms}}}",
            json_escape(id),
            json_escape(status),
        )
    }

    /// `partial` terminal line: a budget tripped, `body` holds the
    /// completed prefix and `interruption` says which budget.
    pub fn partial(id: &str, body: &str, interruption: &str, elapsed_ms: u64) -> String {
        format!(
            "{{\"id\":{},\"status\":\"partial\",\"result\":{body},\"interruption\":{},\"cached\":false,\"elapsed_ms\":{elapsed_ms}}}",
            json_escape(id),
            json_escape(interruption),
        )
    }

    /// `error` terminal line for a job that ran and failed.
    pub fn job_error(id: &str, code: &str, message: &str) -> String {
        format!(
            "{{\"id\":{},\"status\":\"error\",\"error\":{{\"code\":{},\"message\":{}}}}}",
            json_escape(id),
            json_escape(code),
            json_escape(message),
        )
    }

    /// `shed` terminal line (admission refusal).
    pub fn shed(id: &str, reason: &str, depth: usize, estimated_wait_ms: u64) -> String {
        format!(
            "{{\"id\":{},\"status\":\"shed\",\"reason\":{},\"depth\":{depth},\"estimated_wait_ms\":{estimated_wait_ms}}}",
            json_escape(id),
            json_escape(reason),
        )
    }

    /// Protocol-error line for a malformed frame (no job id exists).
    pub fn protocol_error(err: &ProtocolError) -> String {
        format!(
            "{{\"status\":\"error\",\"error\":{{\"code\":{},\"message\":{}}}}}",
            json_escape(err.code()),
            json_escape(&err.to_string()),
        )
    }

    /// Event line streamed before a terminal response.
    pub fn event(id: &str, event_json: &str) -> String {
        format!("{{\"id\":{},\"event\":{event_json}}}", json_escape(id))
    }

    /// `pong` line.
    pub fn pong() -> String {
        "{\"status\":\"ok\",\"result\":\"pong\"}".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_encode_decode() {
        let job = JobRequest {
            id: "j-1".to_string(),
            kind: JobKind::DcSweep {
                source: "v1".to_string(),
                start: 0.0,
                stop: 1.2,
                points: 5,
            },
            deck: "v1 in 0 1.2\nr1 in 0 10k\n.end\n".to_string(),
            deadline_ms: Some(250),
            newton_budget: Some(10_000),
            timestep_budget: None,
            events: true,
        };
        let line = encode_job(&job);
        match decode_request(&line, DEFAULT_MAX_DECK_BYTES).expect("decode") {
            RequestFrame::Job(decoded) => assert_eq!(*decoded, job),
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn control_ops_decode() {
        assert_eq!(
            decode_request("{\"op\":\"ping\"}", 1024),
            Ok(RequestFrame::Ping)
        );
        assert_eq!(
            decode_request("{\"op\":\"stats\"}", 1024),
            Ok(RequestFrame::Stats)
        );
    }

    #[test]
    fn every_malformed_shape_gets_a_typed_code() {
        let cases: &[(&str, &str)] = &[
            ("not json at all", "invalid_json"),
            ("[1,2,3]", "not_an_object"),
            ("{\"op\":\"launch_missiles\"}", "unknown_op"),
            ("{\"id\":\"a\"}", "missing_field"),
            ("{\"id\":1,\"deck\":\"x\",\"kind\":\"op\"}", "bad_field"),
            ("{\"id\":\"a\",\"deck\":\"x\",\"kind\":\"psychic\"}", "unknown_kind"),
            (
                "{\"id\":\"a\",\"deck\":\"x\",\"kind\":\"tran\",\"params\":{\"t_stop\":-1,\"dt\":1}}",
                "bad_field",
            ),
            (
                "{\"id\":\"a\",\"deck\":\"x\",\"kind\":\"dc_sweep\",\"params\":{\"source\":\"v1\",\"start\":0,\"stop\":1,\"points\":0}}",
                "bad_field",
            ),
        ];
        for (line, code) in cases {
            let err = decode_request(line, 4096).expect_err(line);
            assert_eq!(err.code(), *code, "line: {line}, got {err}");
        }
    }

    #[test]
    fn oversized_deck_is_refused() {
        let line = format!(
            "{{\"id\":\"a\",\"kind\":\"op\",\"deck\":{}}}",
            json_escape(&"x".repeat(64))
        );
        let err = decode_request(&line, 32).expect_err("must refuse");
        assert_eq!(err.code(), "deck_too_large");
    }

    #[test]
    fn rendered_responses_parse_back() {
        for line in [
            render::result("j", "ok", "{\"kind\":\"op\"}", true, 3),
            render::job_error("j", "lint_deny", "ERC001: floating node"),
            render::shed("j", "queue_full", 64, 1200),
            render::protocol_error(&ProtocolError::NotAnObject),
            render::event("j", "{\"name\":\"remix.exec.job\"}"),
            render::pong(),
        ] {
            parse_json(&line).expect(&line);
        }
    }
}

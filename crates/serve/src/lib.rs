//! remix-serve: an overload-safe batch simulation service.
//!
//! JSON-lines over TCP: one request per line, one terminal response
//! per request (optionally preceded by streamed event lines). Every
//! job is lint-gated through `remix-lint` and executed under a per-job
//! `remix-exec` `RunBudget` with its panics contained, so a hostile
//! or hopeless deck costs a bounded slice of server time and gets a
//! typed refusal — never a hung worker.
//!
//! Robustness posture, layer by layer:
//!
//! - **Framing** ([`framing`]): byte-capped, deadline-bounded frame
//!   reads; slow-loris peers time out, oversized frames are refused
//!   with the limit echoed back.
//! - **Protocol** ([`protocol`]): every way a frame can be malformed
//!   maps to a stable machine-readable error code.
//! - **Admission** ([`server`]): a bounded queue sheds by depth and by
//!   deadline-feasibility (EWMA service-time estimate), answering
//!   `shed` with reason + depth + estimated wait instead of queueing
//!   doomed work.
//! - **Caching** ([`cache`]): identical jobs dedupe through a
//!   single-flight FNV-1a-keyed result cache; only complete results
//!   publish.
//! - **Chaos** ([`chaos`]): deterministic injected faults (dropped
//!   connections, torn frames, delayed reads, worker panics) prove
//!   the above under fire — in-process, replayable, no tooling.
//! - **Client** ([`client`]): reconnect-and-retry with deterministic
//!   jittered backoff, shared by tests and the `serve_load` bench.
//!
//! Quick start:
//!
//! ```text
//! $ cargo run --release --bin serve -- --addr 127.0.0.1:7878
//! $ printf '%s\n' '{"op":"job","id":"j1","kind":"op","deck":"v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n.end"}' | nc 127.0.0.1 7878
//! {"id":"j1","status":"ok","result":{...},"cached":false,"elapsed_ms":0}
//! ```

pub mod cache;
pub mod chaos;
pub mod client;
pub mod framing;
pub mod protocol;
pub mod server;

pub use cache::{job_fingerprint, Lookup, ResultCache};
pub use chaos::{Chaos, ChaosConfig};
pub use client::{call_with_retry, Client, ClientError, JobResponse, RetryPolicy};
pub use framing::{FrameError, FrameLimits, FrameReader};
pub use protocol::{
    decode_request, encode_job, JobKind, JobRequest, ProtocolError, RequestFrame, Status,
};
pub use server::{ServeConfig, Server};

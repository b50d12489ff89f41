//! `bayonet-serve`: a concurrent inference service for Bayonet programs.
//!
//! The service exposes the reproduction's inference engines over a
//! hand-rolled HTTP/1.1 + JSON protocol (no external dependencies):
//!
//! * `POST /v1/check` — parse + integrity-check a program,
//! * `POST /v1/run` — exact, SMC, or rejection inference,
//! * `POST /v1/synthesize` — parameter synthesis,
//! * `POST /v1/batch` — many inference items in one request, streamed back
//!   as NDJSON frames over chunked transfer encoding as they complete,
//!   with parse/check/compile amortized across items sharing a source,
//! * `POST /v1/sweep` — one program across a parameter grid, streamed back
//!   as per-point NDJSON frames; the exact engine shares exploration work
//!   across grid points (symbolic cells or a replayed prefix) while staying
//!   bit-identical to pointwise runs,
//! * `GET /healthz` — liveness probe,
//! * `GET /metrics` — Prometheus text exposition.
//!
//! Inference requests are JSON objects
//! `{source, engine, query, bindings, particles, seed, timeout_ms}`;
//! responses carry structured JSON plus a `text` field rendered
//! byte-for-byte identically to the `bayonet` CLI output, so the two can
//! be diffed directly. A fixed worker pool pulls jobs from a bounded queue
//! (overload is answered with `503` + `Retry-After`), per-request
//! `timeout_ms` budgets are enforced cooperatively inside the engines via
//! [`bayonet_net::Deadline`], and successful results are cached in an LRU
//! keyed by the canonicalized program and engine options. With
//! [`ServerConfig::cache_dir`] set, cached results are also persisted to a
//! crash-safe append-only segment file and warm-loaded on restart (see
//! the `persist` module docs for the format and corruption semantics).
//!
//! # Examples
//!
//! ```
//! use bayonet_serve::{start, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let handle = start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })?;
//! let mut conn = std::net::TcpStream::connect(handle.addr())?;
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")?;
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply)?;
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod evloop;
pub mod fuzz;
mod http;
mod json;
mod metrics;
mod persist;
mod server;
mod service;

pub use cache::LruCache;
pub use http::{
    ChunkedWriter, ParseStatus, Request, RequestError, RequestParser, Response, MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
};
pub use json::{parse as parse_json, Json, ParseError as JsonParseError};
pub use metrics::Metrics;
pub use persist::{
    PersistConfig, PersistCounters, PersistentStore, DEFAULT_CACHE_MAX_BYTES, SEGMENT_FILE,
};
pub use server::{start, ServerConfig, ServerHandle, DEFAULT_MAX_CONNECTIONS};
pub use service::{
    Service, ServiceOptions, DEFAULT_CACHE_ENTRIES, MAX_BATCH_ITEMS, MAX_PARTICLES,
    MAX_SWEEP_POINTS,
};

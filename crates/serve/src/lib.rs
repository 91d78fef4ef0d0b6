//! # muri-serve
//!
//! The always-on scheduler daemon. Where `muri-sim` pumps the shared
//! scheduler core (`muri_sim::EngineCore`) from a pre-loaded trace under
//! a virtual clock, this crate pumps the *same core* from a wire
//! listener under the wall clock:
//!
//! * [`realtime`] — the real-time event source: a [`WallClock`] mapping
//!   host time to scheduler time (the crate's one sanctioned wall-clock
//!   read), and [`RealTimeQueue`], the `muri_engine::EventQueue`
//!   implementation that releases events only once they are due;
//! * [`tenant`] — multi-tenant virtual clusters: per-tenant GPU quotas
//!   enforced by admission control *before* jobs reach grouping;
//! * [`proto`] — the JSON wire types of the HTTP API;
//! * [`http`] — a dependency-free HTTP/1.1 reader/writer on
//!   `std::net::TcpStream`, plus the keep-alive client used by the CLI,
//!   the tests, and the benches;
//! * [`core`] — [`ServeCore`]: admission (quotas + backpressure
//!   bounds), submission, status, cancel, rolling config, op-log
//!   recording, metrics/journal rendering, shutdown checkpointing, and
//!   the deterministic replay mode the sim/serve equivalence test
//!   drives;
//! * [`journal`] — the durable operation log: versioned JSONL records
//!   of every state-changing input, group-committed with one fsync per
//!   command burst, periodically compacted into snapshots (the crate's
//!   one sanctioned home for filesystem writes);
//! * [`recover`] — crash recovery: merge snapshot + live log, validate,
//!   and replay through the live apply paths back to the exact
//!   pre-crash scheduler state;
//! * [`server`] — the daemon itself: a `TcpListener` with a scoped
//!   worker-thread pool, a single scheduler thread owning the core
//!   (sleeping until the next due event — no idle busy-poll), a bounded
//!   command channel that refuses with `503` + `Retry-After` when full,
//!   and graceful shutdown (drain → checkpoint → journal → exit 0).
//!
//! Endpoints: `POST /v1/jobs`, `GET /v1/jobs/{id}`,
//! `POST /v1/jobs/{id}/cancel`, `POST /v1/config`, `GET /v1/cluster`,
//! `GET /metrics` (Prometheus text), `GET /v1/journal` (JSONL),
//! `POST /v1/shutdown`, `GET /v1/healthz`. Overload refusals are `429`
//! (per-tenant depth cap) or `503` (daemon-wide saturation), both with
//! `Retry-After`; permanent admission refusals stay `409`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod core;
pub mod http;
pub mod journal;
pub mod proto;
pub mod realtime;
pub mod recover;
pub mod server;
pub mod tenant;

pub use crate::core::{deterministic_run, sim_signature, ServeCore, ServeLimits};
pub use http::HttpClient;
pub use journal::{DurableLog, OpRecord};
pub use proto::{parse_model, ConfigRequest, ConfigResponse, SubmitRequest, SubmitResponse};
pub use realtime::{RealTimeQueue, WallClock};
pub use recover::{recover_from_dir, MergeError, RecoverBoot, RecoverySummary};
pub use server::{bind, serve, BoundServer, ServerConfig};
pub use tenant::{TenantConfig, TenantRegistry};

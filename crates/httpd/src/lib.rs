//! std-only HTTP/1.1 front-end and shard router for city-scale serving.
//!
//! This crate puts a network edge in front of the embeddable
//! [`d2stgnn_serve::Server`] engine so many cities' worth of traffic can be
//! partitioned across independent serving shards:
//!
//! - [`HttpServer`] — a blocking HTTP/1.1 server over a bounded worker
//!   pool: incremental request parsing ([`RequestParser`]), keep-alive with
//!   per-connection caps and socket timeouts, and strictly bounded memory
//!   (head/body limits, pending-connection cap, tenant-bucket cap).
//! - [`ShardRouter`] — partitions `POST /v1/forecast` requests across N
//!   serve shards by rendezvous hashing of the sensor id (or city name),
//!   with an operator pin table; adding or removing a shard only moves the
//!   keys that hashed to it.
//! - Admission control — requests to an overloaded shard are shed with
//!   `503` + `Retry-After` *before* touching the serve queue, and
//!   per-tenant token buckets ([`TenantQuotas`]) answer `429` when a tenant
//!   exceeds its rate.
//!
//! Routes: `POST /v1/forecast`, `GET /healthz`, `GET /models`,
//! `GET /metrics` (Prometheus text: this server's counters and each
//! shard's serve counters in every build, plus the workspace telemetry
//! registry when the `obsv` feature is on), `GET /debug/traces`
//! (tail-sampled request traces with per-stage durations), and `GET /slo`
//! (availability/latency burn rates).
//!
//! Every response carries an `X-Request-Id` header: the inbound header is
//! echoed when present (after sanitization), otherwise an id is minted at
//! the door. The id doubles as the trace id propagated through the router
//! and serve queue — explicitly inside the request envelope, never via
//! thread-locals, because requests cross thread boundaries at the queue.
//!
//! Everything is `std`-only: no async runtime, no HTTP dependency — the
//! parser and serializer live in this crate and are fuzzed in
//! `tests/parser_fuzz.rs`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
mod error;
pub mod http;
mod parser;
mod quota;
mod router;
mod server;

pub use error::{HttpdError, ParseError};
pub use http::{HttpVersion, Request, Response};
pub use parser::{ParserLimits, RequestParser};
pub use quota::{retry_after_header_secs, QuotaConfig, QuotaDecision, TenantQuotas};
pub use router::{RouteKey, ShardRouter};
pub use server::{HttpServer, HttpdConfig, HttpdStatsSnapshot, HTTPD_SHUTDOWN_GRACE};

//! The HTTP front-end: listener, bounded worker pool, request handling.
//!
//! Thread model (this crate and the serve request loop are the workspace's
//! sanctioned thread owners, see `xlint.allow`):
//!
//! - One **accept thread** polls a nonblocking listener. Fresh connections
//!   go into a bounded queue; when it is full the connection is answered
//!   `503` + `Retry-After` and closed immediately, so the backlog can never
//!   grow past [`HttpdConfig::max_pending_connections`].
//! - [`HttpdConfig::workers`] **connection workers** pop from that queue and
//!   own one connection at a time for its whole keep-alive lifetime: read
//!   with a socket timeout, parse incrementally, answer, repeat up to
//!   [`HttpdConfig::keep_alive_requests`] exchanges.
//!
//! Every resource is bounded: pending connections, header/body bytes
//! ([`ParserLimits`]), per-connection exchanges, read/write stall time,
//! tenant buckets, and the downstream serve queue (admission control
//! answers `503` from [`d2stgnn_serve::Server::is_overloaded`] before
//! enqueueing).

use crate::api::{ForecastBody, ForecastReply, HealthReply, ModelsReply, QuotaErrorReply};
use crate::error::HttpdError;
use crate::http::{Request, Response};
use crate::parser::{ParserLimits, RequestParser};
use crate::quota::{retry_after_header_secs, QuotaConfig, QuotaDecision, TenantQuotas};
use crate::router::{RouteKey, ShardRouter};
use d2stgnn_obsv::{write_sample, write_type, Counter, TraceHandle};
use d2stgnn_serve::lockorder::{self, OrderedMutex};
use d2stgnn_serve::{InferRequest, ServeError, ServerStats};
use d2stgnn_tensor::{pool, Array};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grace period [`HttpServer::shutdown`] (and `Drop`) gives threads to exit.
pub const HTTPD_SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Bound on distinct tenant label values kept for the per-tenant
/// request/shed counters exposed at `/metrics`. Tenants beyond the cap
/// collapse into the [`OVERFLOW_TENANT`] bucket so label cardinality stays
/// bounded no matter how many tenant names a client invents.
const MAX_TENANT_LABELS: usize = 64;

/// Label value that absorbs counts once [`MAX_TENANT_LABELS`] is reached.
const OVERFLOW_TENANT: &str = "_other";

/// Front-end knobs. Defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct HttpdConfig {
    /// Connection-worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bound on accepted-but-unclaimed connections; beyond it new
    /// connections are answered `503` and closed by the accept thread.
    pub max_pending_connections: usize,
    /// Maximum request/response exchanges per connection before the server
    /// closes it (`Connection: close` on the last response).
    pub keep_alive_requests: usize,
    /// Socket read timeout: an idle keep-alive connection is closed after
    /// this long; a stalled mid-request read is answered `408`.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Parser head/body byte limits.
    pub limits: ParserLimits,
    /// Per-tenant token-bucket quotas; `None` disables quota checks.
    pub quota: Option<QuotaConfig>,
    /// How long a worker waits for the shard to produce a forecast before
    /// answering `504`.
    pub forecast_wait: Duration,
    /// `Retry-After` seconds attached to shed (`503`) responses.
    pub retry_after_secs: u64,
}

impl Default for HttpdConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_pending_connections: 64,
            keep_alive_requests: 100,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            limits: ParserLimits::default(),
            quota: None,
            forecast_wait: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

/// Monotonic front-end counters (lock-free; see [`HttpdStatsSnapshot`]).
/// This server's `/metrics` is their only exporter.
#[derive(Debug, Default)]
struct HttpdStats {
    connections_accepted: Counter,
    connections_dropped: Counter,
    requests: Counter,
    responses_2xx: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    quota_denied: Counter,
    shed: Counter,
    parse_errors: Counter,
    read_timeouts: Counter,
}

/// Point-in-time copy of the front-end counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpdStatsSnapshot {
    /// Connections the accept thread handed to workers.
    pub connections_accepted: u64,
    /// Connections refused with `503` because the pending queue was full.
    pub connections_dropped: u64,
    /// Requests fully parsed and dispatched to a route.
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_2xx: u64,
    /// Responses with a 4xx status.
    pub responses_4xx: u64,
    /// Responses with a 5xx status.
    pub responses_5xx: u64,
    /// Requests denied by a tenant quota (`429`).
    pub quota_denied: u64,
    /// Requests shed by admission control (`503`, shard queue full).
    pub shed: u64,
    /// Connections closed after a malformed request.
    pub parse_errors: u64,
    /// Reads that hit the socket timeout (idle close or `408`).
    pub read_timeouts: u64,
}

impl HttpdStats {
    fn snapshot(&self) -> HttpdStatsSnapshot {
        HttpdStatsSnapshot {
            connections_accepted: self.connections_accepted.get(),
            connections_dropped: self.connections_dropped.get(),
            requests: self.requests.get(),
            responses_2xx: self.responses_2xx.get(),
            responses_4xx: self.responses_4xx.get(),
            responses_5xx: self.responses_5xx.get(),
            quota_denied: self.quota_denied.get(),
            shed: self.shed.get(),
            parse_errors: self.parse_errors.get(),
            read_timeouts: self.read_timeouts.get(),
        }
    }
}

/// Per-tenant request/shed tallies behind the `/metrics` labeled counters.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    requests: u64,
    shed: u64,
}

struct Shared {
    config: HttpdConfig,
    router: Arc<ShardRouter>,
    quotas: Option<TenantQuotas>,
    /// Accepted connections waiting for a worker (bounded by config).
    conns: OrderedMutex<VecDeque<TcpStream>>,
    /// Tenant → forecast request/shed counts (bounded, leaf-only lock;
    /// name-ordered, so `/metrics` lists tenants in a stable order).
    tenants: OrderedMutex<BTreeMap<String, TenantCounters>>,
    notify: Condvar,
    shutdown: AtomicBool,
    stats: HttpdStats,
}

/// The HTTP/1.1 front-end. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the listener and joins the threads, up
/// to a grace period.
pub struct HttpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the accept thread plus
    /// worker pool, fronting the shards registered in `router`.
    pub fn bind(
        addr: &str,
        router: Arc<ShardRouter>,
        config: HttpdConfig,
    ) -> Result<Self, HttpdError> {
        if config.workers == 0 {
            return Err(HttpdError::Config("workers must be at least 1".into()));
        }
        if config.max_pending_connections == 0 {
            return Err(HttpdError::Config(
                "max_pending_connections must be at least 1".into(),
            ));
        }
        if config.keep_alive_requests == 0 {
            return Err(HttpdError::Config(
                "keep_alive_requests must be at least 1".into(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            quotas: config.quota.map(TenantQuotas::new),
            config,
            router,
            conns: OrderedMutex::new("httpd.conns", VecDeque::new()),
            tenants: OrderedMutex::new("httpd.tenant.counters", BTreeMap::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: HttpdStats::default(),
        });
        let mut server = Self {
            shared: Arc::clone(&shared),
            local_addr,
            threads: Vec::with_capacity(shared.config.workers + 1),
        };

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("d2stgnn-httpd-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener));
        match accept {
            Ok(handle) => server.threads.push(handle),
            Err(e) => {
                let _ = server.stop(HTTPD_SHUTDOWN_GRACE);
                return Err(HttpdError::Io(e));
            }
        }
        for i in 0..shared.config.workers {
            let worker_shared = Arc::clone(&shared);
            let worker = std::thread::Builder::new()
                .name(format!("d2stgnn-httpd-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match worker {
                Ok(handle) => server.threads.push(handle),
                Err(e) => {
                    let _ = server.stop(HTTPD_SHUTDOWN_GRACE);
                    return Err(HttpdError::Io(e));
                }
            }
        }
        Ok(server)
    }

    /// The bound socket address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shard router this front-end serves from.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.shared.router
    }

    /// Snapshot the front-end counters.
    pub fn stats(&self) -> HttpdStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stop accepting, finish in-flight exchanges, and join all threads.
    pub fn shutdown(mut self) -> Result<(), HttpdError> {
        self.stop(HTTPD_SHUTDOWN_GRACE)
    }

    fn stop(&mut self, grace: Duration) -> Result<(), HttpdError> {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify.notify_all();
        let deadline = Instant::now() + grace;
        while self.threads.iter().any(|t| !t.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut hung = false;
        for handle in self.threads.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                // Detach: the thread exits on its next timeout tick, but the
                // caller regains control now.
                hung = true;
            }
        }
        if hung {
            Err(HttpdError::WorkerHung)
        } else {
            Ok(())
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.stop(HTTPD_SHUTDOWN_GRACE);
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let rejected = {
                    let mut conns = shared.conns.lock();
                    if conns.len() < shared.config.max_pending_connections {
                        conns.push_back(stream);
                        None
                    } else {
                        Some(stream)
                    }
                };
                match rejected {
                    None => {
                        shared.stats.connections_accepted.add(1);
                        shared.notify.notify_one();
                    }
                    Some(mut rejected) => {
                        // Queue full: shed at the door with an honest 503 so
                        // the client backs off instead of waiting on an
                        // unclaimed socket.
                        shared.stats.connections_dropped.add(1);
                        let _ = rejected.set_write_timeout(Some(shared.config.write_timeout));
                        // Even a door-shed reply gets a (minted) request id,
                        // and the shed trace is retained for `/debug/traces`.
                        let rid = d2stgnn_obsv::make_request_id(None);
                        let trace = TraceHandle::start(&rid);
                        trace.mark_shed();
                        let _ = Response::error(503, "connection backlog full")
                            .with_header("Retry-After", shared.config.retry_after_secs)
                            .with_header("X-Request-Id", &rid)
                            .write_to(&mut rejected, false);
                        trace.finish(503);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nonblocking poll: nothing to accept right now.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off briefly.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut conns = shared.conns.lock();
            loop {
                if let Some(stream) = conns.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _timed_out) =
                    lockorder::wait_timeout(&shared.notify, conns, Duration::from_millis(100));
                conns = guard;
            }
        };
        match stream {
            Some(stream) => handle_connection(shared, stream),
            None => return,
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let mut span = d2stgnn_obsv::span!("d2stgnn_httpd_connection");
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut parser = RequestParser::new(shared.config.limits);
    let mut served: usize = 0;
    let mut buf = [0u8; 8192];
    loop {
        // Pull one request out of the parser, reading as needed. The parse
        // stage is clocked from the first byte read for this request (a
        // fully pipelined request parses in ~zero), so keep-alive idle time
        // never pollutes the trace's `parse` attribution.
        let mut parse_start: Option<Instant> = None;
        let next = loop {
            match parser.next_request() {
                Ok(Some(request)) => break Ok(request),
                Err(e) => break Err(e),
                Ok(None) => {}
            }
            if shared.shutdown.load(Ordering::Acquire) {
                d2stgnn_obsv::record!(span, requests = served);
                return;
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    // Peer closed.
                    d2stgnn_obsv::record!(span, requests = served);
                    return;
                }
                Ok(n) => {
                    if parse_start.is_none() {
                        parse_start = Some(Instant::now());
                    }
                    parser.feed(&buf[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    shared.stats.read_timeouts.add(1);
                    if parser.buffered() > 0 {
                        // Stalled mid-request: tell the peer before closing.
                        // No request line means no inbound id; mint one so
                        // even this reply is quotable, and retain the
                        // errored trace with its parse time.
                        let rid = d2stgnn_obsv::make_request_id(None);
                        let trace = TraceHandle::start(&rid);
                        trace.stage("parse", elapsed_since(parse_start));
                        let _ = Response::error(408, "timed out reading request")
                            .with_header("X-Request-Id", &rid)
                            .write_to(&mut stream, false);
                        trace.finish(408);
                    }
                    d2stgnn_obsv::record!(span, requests = served);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    d2stgnn_obsv::record!(span, requests = served);
                    return;
                }
            }
        };

        match next {
            Ok(request) => {
                served += 1;
                // The request's identity: echo the client's X-Request-Id
                // (sanitized) or mint one. From here on the id rides the
                // trace handle through router and serve envelope.
                let rid = d2stgnn_obsv::make_request_id(request.header("x-request-id"));
                let trace = TraceHandle::start(&rid);
                trace.stage("parse", elapsed_since(parse_start));
                let keep_alive = request.wants_keep_alive()
                    && served < shared.config.keep_alive_requests
                    && !shared.shutdown.load(Ordering::Acquire);
                let response = handle_request(shared, &request, &rid, &trace);
                count_status(shared, response.status);
                let status = response.status;
                let write_ok = response
                    .with_header("X-Request-Id", &rid)
                    .write_to(&mut stream, keep_alive)
                    .is_ok();
                trace.finish(status);
                if !write_ok || !keep_alive {
                    d2stgnn_obsv::record!(span, requests = served);
                    return;
                }
            }
            Err(parse) => {
                shared.stats.parse_errors.add(1);
                count_status(shared, parse.status);
                // A malformed head may hide the inbound id; mint one so the
                // 4xx still carries an echoable identity.
                let rid = d2stgnn_obsv::make_request_id(None);
                let trace = TraceHandle::start(&rid);
                trace.stage("parse", elapsed_since(parse_start));
                let _ = Response::error(parse.status, &parse.message)
                    .with_header("X-Request-Id", &rid)
                    .write_to(&mut stream, false);
                trace.finish(parse.status);
                d2stgnn_obsv::record!(span, requests = served);
                return;
            }
        }
    }
}

/// Elapsed time since an optional start mark (zero when never started).
fn elapsed_since(start: Option<Instant>) -> Duration {
    start.map(|s| s.elapsed()).unwrap_or_default()
}

fn count_status(shared: &Arc<Shared>, status: u16) {
    let counter = match status {
        200..=299 => &shared.stats.responses_2xx,
        400..=499 => &shared.stats.responses_4xx,
        _ => &shared.stats.responses_5xx,
    };
    counter.add(1);
}

fn handle_request(
    shared: &Arc<Shared>,
    request: &Request,
    rid: &str,
    trace: &TraceHandle,
) -> Response {
    let started = Instant::now();
    // The span's `d2stgnn_httpd_request_seconds` histogram times the
    // exchange and keeps the slowest request's id as its exemplar.
    let mut span = d2stgnn_obsv::span!("d2stgnn_httpd_request");
    d2stgnn_obsv::record!(span, trace_id = rid);
    d2stgnn_obsv::record!(span, method = request.method.as_str());
    d2stgnn_obsv::record!(span, path = request.path());
    shared.stats.requests.add(1);

    let response = match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => health(shared),
        ("GET", "/models") => models(shared),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/debug/traces") => Response::json(200, d2stgnn_obsv::render_traces_json()),
        ("GET", "/slo") => Response::json(200, d2stgnn_obsv::render_slo_json()),
        ("POST", "/v1/forecast") => forecast(shared, request, rid, trace),
        (_, "/healthz" | "/models" | "/metrics" | "/debug/traces" | "/slo" | "/v1/forecast") => {
            Response::error(405, "method not allowed on this route")
        }
        _ => Response::error(404, "no such route"),
    };
    d2stgnn_obsv::record!(span, status = u64::from(response.status));
    // Every exchange feeds the availability/latency SLO windows.
    d2stgnn_obsv::slo_record(response.status, started.elapsed());
    response
}

fn json_or_500<T: serde::Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("response serialization failed: {e}")),
    }
}

fn health(shared: &Arc<Shared>) -> Response {
    json_or_500(&HealthReply {
        status: "ok".to_string(),
        shards: shared.router.shard_count() as u64,
        queue_depth: shared.router.total_queue_depth() as u64,
    })
}

fn models(shared: &Arc<Shared>) -> Response {
    json_or_500(&ModelsReply {
        models: shared.router.model_names(),
    })
}

/// Bump the per-tenant forecast counters: every quota-checked request, plus
/// the shed tally when admission control turned it away. Tenants beyond
/// [`MAX_TENANT_LABELS`] collapse into [`OVERFLOW_TENANT`] so the `/metrics`
/// label space stays bounded. Leaf-only lock: nothing else is held here.
fn tenant_tally(shared: &Arc<Shared>, tenant: &str, shed: bool) {
    let mut tenants = shared.tenants.lock();
    let slot = if tenants.contains_key(tenant) || tenants.len() < MAX_TENANT_LABELS {
        tenants.entry(tenant.to_string()).or_default()
    } else {
        tenants.entry(OVERFLOW_TENANT.to_string()).or_default()
    };
    if shed {
        slot.shed = slot.shed.saturating_add(1);
    } else {
        slot.requests = slot.requests.saturating_add(1);
    }
}

/// `GET /metrics`: this server's counters and gauges, the tensor compute
/// pool's series, each router shard's serve series labelled
/// `shard="<id>"`, the per-tenant tallies, then the process-wide obsv
/// registry and SLO gauges (empty when the `obsv` feature is off). Each
/// value is read from the instance that owns it as the scrape is written,
/// and every line goes through obsv's two line writers.
fn metrics(shared: &Arc<Shared>) -> Response {
    let mut out = String::with_capacity(2048);
    let snap = shared.stats.snapshot();
    for (name, value) in [
        (
            "d2stgnn_httpd_connections_accepted_total",
            snap.connections_accepted,
        ),
        (
            "d2stgnn_httpd_connections_dropped_total",
            snap.connections_dropped,
        ),
        ("d2stgnn_httpd_requests_total", snap.requests),
        ("d2stgnn_httpd_responses_2xx_total", snap.responses_2xx),
        ("d2stgnn_httpd_responses_4xx_total", snap.responses_4xx),
        ("d2stgnn_httpd_responses_5xx_total", snap.responses_5xx),
        ("d2stgnn_httpd_quota_denied_total", snap.quota_denied),
        ("d2stgnn_httpd_shed_total", snap.shed),
        ("d2stgnn_httpd_parse_errors_total", snap.parse_errors),
        ("d2stgnn_httpd_read_timeouts_total", snap.read_timeouts),
    ] {
        write_type(&mut out, name, "counter");
        write_sample(&mut out, name, &[], value as f64);
    }
    let pending = shared.conns.lock().len() as u64;
    let shards = shared.router.shard_stats();
    let gauges = [
        ("d2stgnn_httpd_pending_connections", "gauge", pending),
        ("d2stgnn_httpd_shards", "gauge", shards.len() as u64),
    ];
    for (name, kind, value) in gauges.into_iter().chain(pool::stats().series()) {
        write_type(&mut out, name, kind);
        write_sample(&mut out, name, &[], value as f64);
    }
    let serve: [Family<ServerStats>; 9] = [
        ("d2stgnn_serve_requests_total", "counter", |s| s.requests),
        ("d2stgnn_serve_completed_total", "counter", |s| s.completed),
        ("d2stgnn_serve_sheds_total", "counter", |s| s.sheds),
        ("d2stgnn_serve_fallback_total", "counter", |s| {
            s.fallback_served
        }),
        ("d2stgnn_serve_deadline_misses_total", "counter", |s| {
            s.deadline_misses
        }),
        ("d2stgnn_serve_forward_failures_total", "counter", |s| {
            s.forward_failures
        }),
        ("d2stgnn_serve_batches_total", "counter", |s| s.batches),
        ("d2stgnn_serve_queue_depth", "gauge", |s| s.queue_depth),
        ("d2stgnn_serve_in_flight", "gauge", |s| s.in_flight),
    ];
    for family in serve {
        write_family(&mut out, family, "shard", &shards);
    }
    let tenants: Vec<_> = shared.tenants.lock().clone().into_iter().collect();
    let per_tenant: [Family<TenantCounters>; 2] = [
        ("d2stgnn_httpd_tenant_requests_total", "counter", |c| {
            c.requests
        }),
        ("d2stgnn_httpd_tenant_shed_total", "counter", |c| c.shed),
    ];
    for family in per_tenant {
        write_family(&mut out, family, "tenant", &tenants);
    }
    out.push_str(&d2stgnn_obsv::render_prometheus());
    Response::text(200, out)
}

/// A labelled `/metrics` family: its name, its Prometheus type, and the
/// row field it reports.
type Family<T> = (&'static str, &'static str, fn(&T) -> u64);

/// Write one labelled family: its type line, then one sample per row
/// labelled `<label>="<row key>"`. A family with no rows is left out.
fn write_family<K: ToString, T>(
    out: &mut String,
    (name, kind, pick): Family<T>,
    label: &str,
    rows: &[(K, T)],
) {
    if rows.is_empty() {
        return;
    }
    write_type(out, name, kind);
    for (key, row) in rows {
        write_sample(out, name, &[(label, &key.to_string())], pick(row) as f64);
    }
}

fn forecast(shared: &Arc<Shared>, request: &Request, rid: &str, trace: &TraceHandle) -> Response {
    let tenant = request.header("x-tenant").unwrap_or("anonymous");
    tenant_tally(shared, tenant, false);
    if let Some(quotas) = &shared.quotas {
        if let QuotaDecision::Denied { retry_after } = quotas.check(tenant) {
            shared.stats.quota_denied.add(1);
            // Header: the bucket's actual next-refill time, rounded up to
            // whole seconds. Body: the same figure precisely, plus the
            // request id so the throttled client can quote it.
            let reply = QuotaErrorReply {
                error: format!("tenant {tenant:?} quota exhausted"),
                request_id: rid.to_string(),
                retry_after_ms: retry_after.as_millis().min(u64::MAX as u128) as u64,
            };
            let body = serde_json::to_string(&reply)
                .unwrap_or_else(|_| "{\"error\":\"quota exhausted\"}".to_string());
            return Response::json(429, body)
                .with_header("Retry-After", retry_after_header_secs(retry_after));
        }
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let body: ForecastBody = match serde_json::from_str(text) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &format!("bad forecast body: {e}")),
    };

    let key = RouteKey::from_hints(body.sensor, body.city.as_deref());
    let Some((shard_id, server)) = shared.router.route_traced(key, trace) else {
        return Response::error(503, "no shards registered")
            .with_header("Retry-After", shared.config.retry_after_secs);
    };

    // Admission control: shed before enqueueing when the shard queue is at
    // capacity, so the bounded serve queue never sees the overflow.
    if server.is_overloaded() {
        shared.stats.shed.add(1);
        tenant_tally(shared, tenant, true);
        trace.mark_shed();
        return Response::error(503, "shard queue full, request shed")
            .with_header("Retry-After", shared.config.retry_after_secs);
    }

    let steps = body.window.len();
    if steps == 0 {
        return Response::error(400, "window must have at least one step");
    }
    let nodes = body.window[0].len();
    if nodes == 0 || body.window.iter().any(|row| row.len() != nodes) {
        return Response::error(400, "window rows must be non-empty and equal length");
    }
    let mut data = Vec::with_capacity(steps * nodes);
    for row in &body.window {
        data.extend_from_slice(row);
    }
    let window = match Array::from_vec(&[steps, nodes, 1], data) {
        Ok(a) => a,
        Err(e) => return Response::error(400, &format!("bad window: {e}")),
    };
    let deadline = body
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let infer = InferRequest {
        model: body.model.clone(),
        window,
        tod: body.tod.clone(),
        dow: body.dow.clone(),
        deadline,
        // The trace crosses the queue boundary inside the envelope: the
        // micro-batch worker attributes queue-wait/batch-fuse/forward/
        // postprocess stages to it and links it to its batch span.
        trace: trace.clone(),
    };

    let handle = match server.submit(infer) {
        Ok(h) => h,
        Err(e) => return serve_error_response(shared, tenant, &e),
    };
    match handle.wait_timeout(shared.config.forecast_wait) {
        None => Response::error(504, "forecast did not complete within the gateway budget"),
        Some(Err(e)) => serve_error_response(shared, tenant, &e),
        Some(Ok(forecast)) => {
            let width = forecast.values.shape().last().copied().unwrap_or(1).max(1);
            let values: Vec<Vec<f32>> = forecast
                .values
                .data()
                .chunks(width)
                .map(<[f32]>::to_vec)
                .collect();
            json_or_500(&ForecastReply {
                model: forecast.model,
                generation: forecast.generation,
                fallback: forecast.fallback,
                shard: shard_id,
                values,
            })
        }
    }
}

fn serve_error_response(shared: &Arc<Shared>, tenant: &str, e: &ServeError) -> Response {
    match e {
        ServeError::Overloaded => {
            shared.stats.shed.add(1);
            tenant_tally(shared, tenant, true);
            Response::error(503, "shard queue full, request shed")
                .with_header("Retry-After", shared.config.retry_after_secs)
        }
        ServeError::DeadlineExceeded => Response::error(504, &e.to_string()),
        ServeError::UnknownModel(_) => Response::error(404, &e.to_string()),
        ServeError::BadRequest(_) => Response::error(400, &e.to_string()),
        ServeError::ShuttingDown => Response::error(503, &e.to_string())
            .with_header("Retry-After", shared.config.retry_after_secs),
        _ => Response::error(500, &e.to_string()),
    }
}

//! The load generator: at most `conns` threads, each owning one keep-alive
//! connection, driving a closed loop (send the next request when the last
//! reply arrives) or an open loop (requests fall due on one shared fixed
//! schedule and go out on whichever connection is free).
//!
//! Open-loop latency is timed from each request's due time, so a stall
//! also charges the requests queued behind it; how late the generator sent
//! each request is recorded separately.

use crate::client::{Conn, Failure, Response};
use crate::spans::Recorder;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where requests go and how long a reply may take.
#[derive(Clone, Copy)]
pub struct Target {
    /// Server address.
    pub addr: SocketAddr,
    /// Client timeout per request.
    pub timeout: Duration,
}

/// What a workload supplies per request of a phase.
pub trait Requests: Sync {
    /// JSON body of the phase's request `i`.
    fn body(&self, i: usize) -> String;
    /// Validate the reply to request `i`; returns the absolute-error sum and
    /// the count of scored cells against the window's truth.
    fn check(&self, i: usize, reply: &Response) -> Result<(f64, usize), Failure>;
}

/// How a phase issues requests.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Back-to-back on every connection until `seconds` pass or
    /// `max_requests` have been issued.
    Closed {
        /// Phase length.
        seconds: f64,
        /// Request budget (the distinct windows available).
        max_requests: usize,
    },
    /// `count` requests due every `1 / rate` seconds.
    Open {
        /// Requests per second.
        rate: f64,
        /// Requests in the phase.
        count: usize,
    },
}

/// One request's outcome; times are seconds since the phase started.
#[derive(Clone, Debug)]
pub struct Record {
    /// Phase-local request index.
    pub index: usize,
    /// When it fell due (closed loop: when it was sent).
    pub due_s: f64,
    /// When its first byte was written.
    pub sent_s: f64,
    /// When its reply was read (or the failure was seen).
    pub done_s: f64,
    /// Absolute-error sum and scored cells, or why it failed.
    pub result: Result<(f64, usize), Failure>,
}

impl Record {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// Round trip from send to reply, in ms.
    pub fn rtt_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Every record of one phase.
#[derive(Default)]
pub struct Phase {
    /// Records in index order.
    pub records: Vec<Record>,
    /// From phase start to the last reply (summed over appended blocks).
    pub elapsed_s: f64,
}

impl Phase {
    /// Records that passed validation.
    pub fn ok(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.result.is_ok())
    }

    /// Number of failed requests.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_err()).count()
    }

    /// Append a later block of the same phase: its records follow these
    /// (times stay block-local, which latencies and lateness only
    /// difference) and its duration adds to this phase's.
    pub fn append(&mut self, block: Phase) {
        let offset = self.records.len();
        self.records
            .extend(block.records.into_iter().map(|r| Record {
                index: r.index + offset,
                ..r
            }));
        self.elapsed_s += block.elapsed_s;
    }
}

/// Delay before the first open-loop request falls due, so every generator
/// thread is connected and has its first body ready.
const OPEN_LEAD: Duration = Duration::from_millis(100);

/// Run one phase over `conns` connections. Client spans (`client.prepare`,
/// `client.request`, `client.check`) go to `rec` under `parent`, tagged
/// with the request id `"{id_prefix}-{i}"` that is also sent as
/// `X-Request-Id`.
pub fn run(
    target: Target,
    conns: usize,
    mode: Mode,
    requests: &dyn Requests,
    id_prefix: &str,
    rec: &Recorder,
    parent: Option<usize>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now()
        + match mode {
            Mode::Open { .. } => OPEN_LEAD,
            Mode::Closed { .. } => Duration::ZERO,
        };
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut conn: Option<Conn> = None;
                let mut mine = Vec::new();
                loop {
                    // relaxed: the counter only hands out distinct indices
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let due = match mode {
                        Mode::Closed {
                            seconds,
                            max_requests,
                        } => {
                            if i >= max_requests || start.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            None
                        }
                        Mode::Open { rate, count } => {
                            if i >= count {
                                break;
                            }
                            Some(start + Duration::from_secs_f64(i as f64 / rate))
                        }
                    };
                    let request_id = format!("{id_prefix}-{i}");
                    let prepare = rec.open("client.prepare", parent, Some(request_id.clone()));
                    let body = requests.body(i);
                    rec.close(prepare);
                    if let Some(due) = due {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    let sent = Instant::now();
                    let reply = send(&mut conn, target, &request_id, &body);
                    let done = Instant::now();
                    rec.record(
                        "client.request",
                        parent,
                        Some(request_id.clone()),
                        sent,
                        done,
                    );
                    let result = match reply {
                        Ok(reply) => {
                            let check = rec.open("client.check", parent, Some(request_id));
                            let result = requests.check(i, &reply);
                            rec.close(check);
                            result
                        }
                        Err(failure) => {
                            // The connection's state is unknown; start over.
                            conn = None;
                            Err(failure)
                        }
                    };
                    let offset = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                    mine.push(Record {
                        index: i,
                        due_s: offset(due.unwrap_or(sent)),
                        sent_s: offset(sent),
                        done_s: offset(done),
                        result,
                    });
                }
                records
                    .lock()
                    .expect("record store poisoned by a panic")
                    .extend(mine);
            });
        }
    });
    let mut records = records
        .into_inner()
        .expect("record store poisoned by a panic");
    records.sort_by_key(|r| r.index);
    let elapsed_s = records.iter().map(|r| r.done_s).fold(0.0, f64::max);
    Phase { records, elapsed_s }
}

/// Post on the thread's connection, connecting first if it has none.
fn send(
    conn: &mut Option<Conn>,
    target: Target,
    id: &str,
    body: &str,
) -> Result<Response, Failure> {
    if conn.is_none() {
        let c =
            Conn::connect(target.addr, target.timeout).map_err(|e| Failure::Io(e.to_string()))?;
        *conn = Some(c);
    }
    conn.as_mut()
        .expect("connected above")
        .post("/v1/forecast", id, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A deliberately slow server: every request takes `service` to answer.
    fn slow_server(
        service: Duration,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for _ in 0..requests {
                let total = loop {
                    if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..end]).to_lowercase();
                        let len: usize = head
                            .split("content-length:")
                            .nth(1)
                            .and_then(|v| v.lines().next())
                            .and_then(|v| v.trim().parse().ok())
                            .unwrap_or(0);
                        if buf.len() >= end + 4 + len {
                            break end + 4 + len;
                        }
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up early");
                    buf.extend_from_slice(&chunk[..n]);
                };
                buf.drain(..total);
                std::thread::sleep(service);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    struct Echo;
    impl Requests for Echo {
        fn body(&self, _i: usize) -> String {
            "{}".to_string()
        }
        fn check(&self, _i: usize, reply: &Response) -> Result<(f64, usize), Failure> {
            if reply.status == 200 {
                Ok((0.0, 0))
            } else {
                Err(Failure::Status(reply.status))
            }
        }
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness() {
        // One connection, a request due every 10 ms, 40 ms to serve each:
        // request i is sent when request i-1 returns, ~30·i ms late, and its
        // latency from the due time grows by ~30 ms per request.
        let service = Duration::from_millis(40);
        let count = 8;
        let (addr, server) = slow_server(service, count);
        let target = Target {
            addr,
            timeout: Duration::from_secs(10),
        };
        let rec = Recorder::new(false);
        let phase = run(
            target,
            1,
            Mode::Open { rate: 100.0, count },
            &Echo,
            "t",
            &rec,
            None,
        );
        server.join().unwrap();
        assert_eq!(phase.records.len(), count);
        assert_eq!(phase.failed(), 0);
        let first = &phase.records[0];
        let last = &phase.records[count - 1];
        assert!(first.lateness_ms() < 20.0, "{first:?}");
        for r in &phase.records {
            assert!(r.rtt_ms() >= 39.0, "{r:?}");
            assert!(
                r.latency_ms() >= r.rtt_ms() + r.lateness_ms() - 1e-6,
                "{r:?}"
            );
        }
        // (count-1) · (40 - 10) ms = 210 ms behind by the last request.
        assert!(last.lateness_ms() >= 180.0, "{last:?}");
        assert!(last.latency_ms() >= 220.0, "{last:?}");
    }

    #[test]
    fn appended_blocks_keep_their_latencies_and_add_durations() {
        let record = |index: usize, due_s: f64, done_s: f64| Record {
            index,
            due_s,
            sent_s: due_s,
            done_s,
            result: Ok((0.0, 0)),
        };
        let mut phase = Phase::default();
        phase.append(Phase {
            records: vec![record(0, 0.0, 0.1), record(1, 0.5, 0.7)],
            elapsed_s: 0.7,
        });
        phase.append(Phase {
            records: vec![record(0, 0.0, 0.3)],
            elapsed_s: 0.3,
        });
        let indices: Vec<usize> = phase.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, [0, 1, 2]);
        let latencies: Vec<f64> = phase.records.iter().map(Record::latency_ms).collect();
        assert!((latencies[1] - 200.0).abs() < 1e-9 && (latencies[2] - 300.0).abs() < 1e-9);
        assert!((phase.elapsed_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_below_capacity_is_on_time() {
        let count = 5;
        let (addr, server) = slow_server(Duration::from_millis(5), count);
        let target = Target {
            addr,
            timeout: Duration::from_secs(10),
        };
        let rec = Recorder::new(false);
        let phase = run(
            target,
            1,
            Mode::Open { rate: 20.0, count },
            &Echo,
            "t",
            &rec,
            None,
        );
        server.join().unwrap();
        for r in &phase.records {
            assert!(r.lateness_ms() < 20.0, "{r:?}");
            assert!(r.latency_ms() < 45.0, "{r:?}");
        }
        // The last request fell due 200 ms after the first.
        assert!(phase.elapsed_s >= 0.2);
    }
}

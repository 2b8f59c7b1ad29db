//! In-memory spans recorded by the benchmark's own code around calls into
//! each layer (traced build only), written out when the run ends.
//!
//! A span has a name, start and end, the span that caused it, and an
//! optional request id shared by every span of one request. A layer's
//! self time is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// Parent span id.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `core.forward`.
    pub name: &'static str,
    /// Request id shared by one request's spans.
    pub request: Option<String>,
    /// Start, in seconds since the recorder was created.
    pub start_s: f64,
    /// End, in seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span; close it with [`Recorder::close`].
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    request: Option<String>,
    start: Instant,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Thread-safe span store. Disabled recorders cost one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicUsize,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(1),
        }
    }

    /// Open a span now.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: Option<String>) -> Open {
        // relaxed: ids only need to be distinct; no other data is published
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Close an open span now; returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        self.push(open, end)
    }

    /// Record a span whose start and end were measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<String>,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let open = Open {
            start,
            ..self.open(name, parent, request)
        };
        self.push(open, end)
    }

    fn push(&self, open: Open, end: Instant) -> f64 {
        let seconds = end.saturating_duration_since(open.start).as_secs_f64();
        if self.enabled {
            let start_s = open
                .start
                .saturating_duration_since(self.epoch)
                .as_secs_f64();
            self.spans
                .lock()
                .expect("span store poisoned by a panic")
                .push(Span {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    request: open.request,
                    start_s,
                    end_s: start_s + seconds,
                });
        }
        seconds
    }

    /// A copy of every closed span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s
                .request
                .as_ref()
                .map_or("null".to_string(), |r| format!("{r:?}"));
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","request":{request},"start_s":{:.9},"end_s":{:.9}}}"#,
                s.id, s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// Total and self seconds per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their durations minus their children's.
    pub self_s: f64,
}

/// Aggregate spans by name; a span's self time subtracts its direct
/// children's durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_s: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.seconds();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.seconds();
        t.self_s += s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = Recorder::new(true);
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let root = rec.open("step", None, Some("r1".into()));
        let root_id = root.id();
        rec.record("a", Some(root_id), None, ms(0), ms(30));
        rec.record("b", Some(root_id), None, ms(30), ms(80));
        rec.push(
            Open {
                start: ms(0),
                ..root
            },
            ms(100),
        );
        let t = totals(&rec.spans());
        assert_eq!(t["step"].count, 1);
        assert!((t["step"].total_s - 0.100).abs() < 1e-9);
        assert!((t["step"].self_s - 0.020).abs() < 1e-9);
        assert!((t["a"].self_s - 0.030).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let s = rec.open("x", None, None);
        rec.close(s);
        assert!(rec.spans().is_empty());
    }
}

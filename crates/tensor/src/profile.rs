//! Optional tape profiler (cargo feature `obsv`).
//!
//! When profiling is armed via [`Tape::start_profiling`], every tensor op
//! records its kind, call count, and cumulative wall time, and every graph
//! node charges its value's buffer against a live/peak tape-memory account,
//! once per buffer: the buffer discharges itself when it drops, so the
//! account counts what the graph actually holds — values that handles or
//! backward closures keep alive, not every node's output.
//! [`Tape::profile_report`] surfaces the result. Nested ops (a loss calling
//! `sub`/`abs`) each count under their own kind, so cumulative times overlap
//! and do not sum to wall time.
//!
//! All state is thread-local (the tape itself is single-threaded) and the
//! whole API exists without the feature — calls just do nothing and reports
//! come back empty — so downstream code compiles identically either way.

#[cfg(feature = "obsv")]
use std::{
    cell::{Cell, RefCell},
    collections::BTreeMap,
    sync::atomic::{AtomicUsize, Ordering},
    sync::{Arc, OnceLock},
    time::Instant,
};

/// Per-op-kind aggregate in a [`ProfileReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct OpStat {
    /// Op kind (the tensor method name, or `"backward"` for the sweep).
    pub kind: &'static str,
    /// Number of calls while profiling was active.
    pub calls: u64,
    /// Cumulative wall time across those calls. Pool execution is included:
    /// the caller participates in (and blocks on) its pooled chunks, so a
    /// pooled op's wall time covers the whole parallel kernel.
    pub seconds: f64,
    /// Calls that dispatched at least one kernel to the compute pool.
    pub pooled_calls: u64,
    /// Deliberately-serial reductions (`sum_all`/`mean_all`) performed
    /// during those calls. These never pool — chunked partial sums would
    /// reorder f32 accumulation and break bit-determinism — so this column
    /// keeps their cost attributed instead of silently unattributed.
    pub serial_reductions: u64,
}

/// Snapshot of the profiler, from [`Tape::profile_report`]. Empty (no ops,
/// zero bytes) when the `obsv` feature is off or profiling never ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-op aggregates, sorted by kind.
    pub ops: Vec<OpStat>,
    /// Graph nodes created while profiling was active.
    pub nodes_created: u64,
    /// Bytes of the value buffers charged while profiling that are still
    /// alive, held by a tensor handle or a backward closure.
    pub live_tape_bytes: usize,
    /// High-water mark of [`Self::live_tape_bytes`].
    pub peak_tape_bytes: usize,
}

impl ProfileReport {
    /// Render as an aligned text table, ops sorted by cumulative time.
    pub fn format_table(&self) -> String {
        let mut rows = self.ops.clone();
        rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>8} {:>8}\n",
            "op", "calls", "seconds", "pooled", "serial"
        ));
        for r in &rows {
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.6} {:>8} {:>8}\n",
                r.kind, r.calls, r.seconds, r.pooled_calls, r.serial_reductions
            ));
        }
        out.push_str(&format!(
            "nodes created: {}   tape bytes: {} live / {} peak\n",
            self.nodes_created, self.live_tape_bytes, self.peak_tape_bytes
        ));
        out
    }
}

/// Handle to the (thread-local) autograd tape's profiler. A unit struct:
/// all methods are associated functions so call sites read
/// `Tape::start_profiling()`.
pub struct Tape;

#[cfg(feature = "obsv")]
#[derive(Default)]
struct ProfState {
    // kind -> (calls, nanos, pooled_calls, serial_reductions)
    per_op: BTreeMap<&'static str, (u64, u64, u64, u64)>,
    nodes_created: u64,
    /// The live-bytes account. Shared with every buffer charged to it, so a
    /// buffer discharges here even after a reset or from another thread.
    live: Arc<AtomicUsize>,
    peak_bytes: usize,
}

#[cfg(feature = "obsv")]
thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ProfState> = RefCell::new(ProfState::default());
    /// Monotonic count of pool dispatches from this thread; `OpScope`
    /// diffs it to attribute pool usage to the op that was open.
    static POOL_DISPATCHES: Cell<u64> = const { Cell::new(0) };
    /// Monotonic count of deliberately-serial reductions from this thread;
    /// `OpScope` diffs it, mirroring [`POOL_DISPATCHES`].
    static SERIAL_REDUCTIONS: Cell<u64> = const { Cell::new(0) };
}

impl Tape {
    /// Reset counters and start profiling ops on this thread.
    pub fn start_profiling() {
        #[cfg(feature = "obsv")]
        {
            Self::reset_profile();
            ACTIVE.with(|a| a.set(true));
        }
    }

    /// Stop profiling; accumulated counters remain readable.
    pub fn stop_profiling() {
        #[cfg(feature = "obsv")]
        ACTIVE.with(|a| a.set(false));
    }

    /// Whether profiling is currently active on this thread. Always `false`
    /// without the `obsv` feature.
    pub fn is_profiling() -> bool {
        #[cfg(feature = "obsv")]
        {
            ACTIVE.with(Cell::get)
        }
        #[cfg(not(feature = "obsv"))]
        {
            false
        }
    }

    /// Zero all counters (does not change whether profiling is active).
    pub fn reset_profile() {
        #[cfg(feature = "obsv")]
        STATE.with(|s| *s.borrow_mut() = ProfState::default());
    }

    /// Snapshot the profiler state. Empty without the `obsv` feature.
    pub fn profile_report() -> ProfileReport {
        #[cfg(feature = "obsv")]
        {
            STATE.with(|s| {
                let s = s.borrow();
                ProfileReport {
                    ops: s
                        .per_op
                        .iter()
                        .map(|(kind, (calls, nanos, pooled, serial))| OpStat {
                            kind,
                            calls: *calls,
                            seconds: *nanos as f64 * 1e-9,
                            pooled_calls: *pooled,
                            serial_reductions: *serial,
                        })
                        .collect(),
                    nodes_created: s.nodes_created,
                    // relaxed: a point-in-time read of a byte counter
                    live_tape_bytes: s.live.load(Ordering::Relaxed),
                    peak_tape_bytes: s.peak_bytes,
                }
            })
        }
        #[cfg(not(feature = "obsv"))]
        {
            ProfileReport::default()
        }
    }
}

/// RAII timing scope for one op call; see [`op_scope`].
pub(crate) struct OpScope {
    #[cfg(feature = "obsv")]
    timed: Option<(&'static str, Instant, u64, u64)>,
}

/// Open a timing scope for op `kind`. Ops call this first thing; the scope
/// closes (and records) when the returned guard drops at the end of the op.
/// Free when profiling is inactive or the feature is off.
#[inline]
pub(crate) fn op_scope(kind: &'static str) -> OpScope {
    #[cfg(feature = "obsv")]
    {
        OpScope {
            timed: ACTIVE.with(Cell::get).then(|| {
                (
                    kind,
                    Instant::now(),
                    POOL_DISPATCHES.with(Cell::get),
                    SERIAL_REDUCTIONS.with(Cell::get),
                )
            }),
        }
    }
    #[cfg(not(feature = "obsv"))]
    {
        let _ = kind;
        OpScope {}
    }
}

/// Called by the compute pool on every pooled dispatch so `OpScope` can
/// attribute pool usage to the op whose scope is open. No-op without the
/// `obsv` feature.
#[inline]
pub(crate) fn note_pooled_dispatch() {
    #[cfg(feature = "obsv")]
    POOL_DISPATCHES.with(|c| c.set(c.get() + 1));
}

/// Called by reductions that deliberately stay serial (`sum_all` and
/// friends) so `OpScope` can surface them in their own report column.
/// No-op without the `obsv` feature.
#[inline]
pub(crate) fn note_serial_reduction() {
    #[cfg(feature = "obsv")]
    SERIAL_REDUCTIONS.with(|c| c.set(c.get() + 1));
}

#[cfg(feature = "obsv")]
impl Drop for OpScope {
    fn drop(&mut self) {
        let Some((kind, start, dispatches_at_open, serial_at_open)) = self.timed.take() else {
            return;
        };
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let pooled = POOL_DISPATCHES.with(Cell::get) > dispatches_at_open;
        let serial = SERIAL_REDUCTIONS
            .with(Cell::get)
            .saturating_sub(serial_at_open);
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let entry = s.per_op.entry(kind).or_insert((0, 0, 0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(nanos);
            entry.2 += u64::from(pooled);
            entry.3 += serial;
        });
    }
}

/// Count a new graph node and charge its value's buffer to this thread's
/// live/peak account, unless the buffer is already charged (a `reshape`
/// shares its input's buffer). No-op when profiling is inactive or the
/// feature is off.
#[inline]
pub(crate) fn charge_node(value: &crate::array::Array) {
    #[cfg(feature = "obsv")]
    if ACTIVE.with(Cell::get) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.nodes_created += 1;
            let bytes = value.numel() * 4;
            if value.buffer().charge.0.set((s.live.clone(), bytes)).is_ok() {
                // relaxed: the account is a byte counter; it publishes no other memory
                let live = s.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
                s.peak_bytes = s.peak_bytes.max(live);
            }
        });
    }
    #[cfg(not(feature = "obsv"))]
    let _ = value;
}

/// A buffer's charge: empty until [`charge_node`] fills it with the account
/// and the bytes charged, which it discharges when the buffer drops. That
/// can happen on another thread (a pool worker can drop the last reference
/// to an input its chunk read), hence the shared atomic account.
#[cfg(feature = "obsv")]
#[derive(Default)]
pub(crate) struct BufferCharge(OnceLock<(Arc<AtomicUsize>, usize)>);

#[cfg(feature = "obsv")]
impl Drop for BufferCharge {
    fn drop(&mut self) {
        if let Some((live, bytes)) = self.0.get() {
            // relaxed: the account is a byte counter; it publishes no other memory
            live.fetch_sub(*bytes, Ordering::Relaxed);
        }
    }
}

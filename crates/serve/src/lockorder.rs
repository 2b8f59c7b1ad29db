//! Lock-order sanitizer: an instrumented mutex that records the global
//! acquisition-order graph and panics on a cycle (deadlock potential).
//!
//! Every [`OrderedMutex`] has a stable id and a human-readable name. When a
//! thread acquires lock `B` while holding lock `A`, the edge `A -> B` is
//! recorded in a process-wide graph. If the acquisition would close a cycle
//! (some other thread previously acquired `A` while holding `B`), the checker
//! panics immediately with both names — turning a once-in-a-blue-moon
//! deadlock hang into a deterministic test failure.
//!
//! The checker is active in debug builds and under `--features sanitize`; in
//! plain release builds [`OrderedMutex`] is a zero-bookkeeping wrapper that
//! only adds poison recovery (a panicking worker must not take the whole
//! server down with a poisoned lock).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Whether acquisition-order tracking is compiled in and active.
pub const fn check_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "sanitize"))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct OrderGraph {
    /// `edges[a]` contains `b` when some thread acquired `b` while holding `a`.
    edges: HashMap<u64, HashSet<u64>>,
    names: HashMap<u64, &'static str>,
}

static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();

fn graph() -> &'static Mutex<OrderGraph> {
    GRAPH.get_or_init(|| {
        Mutex::new(OrderGraph {
            edges: HashMap::new(),
            names: HashMap::new(),
        })
    })
}

thread_local! {
    /// Ids of OrderedMutexes this thread currently holds, oldest first.
    static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Recover a guard from a poisoned lock: the protected state is plain data
/// (queues, maps, counters) that stays structurally valid even if the thread
/// that panicked left it mid-update, and the server must keep serving.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True when `from` can reach `to` along recorded acquisition edges.
fn reaches(edges: &HashMap<u64, HashSet<u64>>, from: u64, to: u64) -> bool {
    let mut stack = vec![from];
    let mut seen = HashSet::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(next) = edges.get(&node) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// A mutex that participates in lock-order checking. Drop-in replacement for
/// `std::sync::Mutex` within this crate (poison-recovering `lock`).
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
    id: u64,
    name: &'static str,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value`; `name` appears in cycle panics and must be unique-ish.
    pub fn new(name: &'static str, value: T) -> Self {
        // relaxed: id allocation only needs fetch_add's atomicity, not ordering
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        if check_enabled() {
            lock_recover(graph()).names.insert(id, name);
        }
        Self {
            inner: Mutex::new(value),
            id,
            name,
        }
    }

    /// Name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock, recording (and checking) the acquisition order.
    ///
    /// # Panics
    /// In debug/sanitize builds: if this acquisition closes a cycle in the
    /// global acquisition-order graph, or if the thread already holds this
    /// very lock (guaranteed self-deadlock).
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        if check_enabled() {
            self.before_acquire();
        }
        let guard = lock_recover(&self.inner);
        if check_enabled() {
            HELD.with(|held| held.borrow_mut().push(self.id));
        }
        OrderedGuard {
            guard: Some(guard),
            id: self.id,
        }
    }

    fn before_acquire(&self) {
        let held: Vec<u64> = HELD.with(|held| held.borrow().clone());
        if held.is_empty() {
            return;
        }
        let mut g = lock_recover(graph());
        if held.contains(&self.id) {
            // The panic funnel for the sanitizer: deliberate, loud, and only
            // reachable when the lock discipline is already broken.
            panic!(
                "lock-order violation: thread re-acquiring '{}' it already holds",
                self.name
            );
        }
        // Would an edge held -> self close a cycle? That happens exactly when
        // self already reaches one of the held locks.
        for &h in &held {
            if reaches(&g.edges, self.id, h) {
                let other = g.names.get(&h).copied().unwrap_or("<unnamed>");
                panic!(
                    "lock-order inversion (deadlock potential): acquiring '{}' while \
                     holding '{}', but '{}' has previously been acquired while '{}' was held",
                    self.name, other, other, self.name
                );
            }
        }
        for &h in &held {
            g.edges.entry(h).or_default().insert(self.id);
        }
    }
}

impl<T> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`]; releases the lock (and pops the held
/// stack) on drop.
pub struct OrderedGuard<'a, T> {
    /// Always `Some` while the guard is alive; taken transiently by the
    /// condvar helpers.
    guard: Option<MutexGuard<'a, T>>,
    id: u64,
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        if check_enabled() {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&h| h == self.id) {
                    held.remove(pos);
                }
            });
        }
    }
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("guard is only vacated inside the condvar helpers"),
        }
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("guard is only vacated inside the condvar helpers"),
        }
    }
}

/// `Condvar::wait` for [`OrderedGuard`]s. The lock identity stays on the
/// thread's held stack across the wait, which is sound: a thread blocked in
/// `wait` acquires nothing else, and it reclaims the same lock on wakeup.
pub fn wait<'a, T>(cvar: &Condvar, mut guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
    let Some(inner) = guard.guard.take() else {
        unreachable!("guard is always occupied on entry")
    };
    let inner = match cvar.wait(inner) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.guard = Some(inner);
    guard
}

/// `Condvar::wait_timeout` for [`OrderedGuard`]s; the bool is "timed out".
pub fn wait_timeout<'a, T>(
    cvar: &Condvar,
    mut guard: OrderedGuard<'a, T>,
    timeout: Duration,
) -> (OrderedGuard<'a, T>, bool) {
    let Some(inner) = guard.guard.take() else {
        unreachable!("guard is always occupied on entry")
    };
    let (inner, result) = match cvar.wait_timeout(inner, timeout) {
        Ok((g, r)) => (g, r),
        Err(poisoned) => {
            let (g, r) = poisoned.into_inner();
            (g, r)
        }
    };
    guard.guard = Some(inner);
    (guard, result.timed_out())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn consistent_order_is_fine() {
        let a = Arc::new(OrderedMutex::new("unit.consistent.a", 0u32));
        let b = Arc::new(OrderedMutex::new("unit.consistent.b", 0u32));
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
        // Same order from another thread: still fine.
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let ga = a2.lock();
            let _gb = b2.lock();
            drop(ga);
        })
        .join()
        .expect("consistent order must not panic");
    }

    #[test]
    #[cfg_attr(
        not(any(debug_assertions, feature = "sanitize")),
        ignore = "lock-order checker is compiled out of plain release builds"
    )]
    fn relocking_panics() {
        let m = Arc::new(OrderedMutex::new("unit.relock", 0u32));
        let m2 = Arc::clone(&m);
        let result = std::thread::spawn(move || {
            let g1 = m2.lock();
            let _g2 = m2.lock(); // self-deadlock without the checker
            drop(g1);
        })
        .join();
        assert!(result.is_err(), "re-acquiring a held lock must panic");
    }

    #[test]
    fn guard_pops_held_stack() {
        let a = OrderedMutex::new("unit.pop.a", 1u32);
        {
            let g = a.lock();
            assert_eq!(*g, 1);
        }
        // After release, acquiring in any order relative to a fresh lock is
        // not an inversion.
        let b = OrderedMutex::new("unit.pop.b", 2u32);
        let gb = b.lock();
        let ga = a.lock();
        assert_eq!(*ga + *gb, 3);
    }
}

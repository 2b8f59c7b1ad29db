//! Thread-safe, size-bucketed free lists for `f32` buffers.
//!
//! Every [`crate::Array`] owns its elements through a [`Buffer`], and every
//! kernel temporary (packed GEMM panels, pooled-chunk scratch) draws from
//! the same global pool, so the hot training/serving loops stop hammering
//! the system allocator: a dropped buffer parks its `Vec` on a free list
//! keyed by capacity class and the next op of a similar size reuses it.
//!
//! Buckets are power-of-two capacity classes, and a miss allocates its
//! class's whole capacity, so a buffer goes back to the bucket it came from
//! and serves the next request of the same size. Only allocations of at
//! least [`MIN_POOLED_LEN`] elements participate — tiny vectors are cheaper to
//! malloc than to funnel through a shared lock — and each bucket keeps at
//! most [`MAX_PER_BUCKET`] vectors so idle memory stays bounded. The
//! hit/miss/recycle counters are stored here only; [`crate::pool::stats`]
//! reads them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Smallest element count that goes through the pooled free lists (4 KiB).
const MIN_POOLED_LEN: usize = 1024;
/// Largest capacity class kept on a free list (2^26 elements = 256 MiB).
const MAX_CLASS: u32 = 26;
/// Capacity class of [`MIN_POOLED_LEN`].
const MIN_CLASS: u32 = MIN_POOLED_LEN.trailing_zeros();
/// Vectors retained per capacity class.
const MAX_PER_BUCKET: usize = 16;

const NUM_BUCKETS: usize = (MAX_CLASS - MIN_CLASS + 1) as usize;

struct FreeLists {
    buckets: Vec<Vec<Vec<f32>>>,
}

static FREE: OnceLock<Mutex<FreeLists>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

fn free_lists() -> &'static Mutex<FreeLists> {
    FREE.get_or_init(|| {
        Mutex::new(FreeLists {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
        })
    })
}

/// Bucket index a request of `len` elements acquires from: the class whose
/// capacity (2^class) is the smallest that covers `len`.
fn acquire_class(len: usize) -> Option<usize> {
    if !(MIN_POOLED_LEN..=(1usize << MAX_CLASS)).contains(&len) {
        return None;
    }
    let class = usize::BITS - (len - 1).leading_zeros();
    Some((class.max(MIN_CLASS) - MIN_CLASS) as usize)
}

/// Bucket index a vector of `capacity` is released into: the largest class
/// whose requests it can always serve.
fn release_class(capacity: usize) -> Option<usize> {
    if capacity < MIN_POOLED_LEN {
        return None;
    }
    let class = (usize::BITS - 1 - capacity.leading_zeros()).min(MAX_CLASS);
    Some((class - MIN_CLASS) as usize)
}

/// The vector a miss in bucket `class` allocates: the class's whole
/// capacity (2^class elements), so that on release it files back into the
/// class it was requested from. Capacity that is never written is never
/// resident.
fn allocate_class(class: usize) -> Vec<f32> {
    Vec::with_capacity(1 << (class as u32 + MIN_CLASS))
}

/// Fetch a zero-filled vector of exactly `len` elements, reusing pooled
/// storage when a large-enough vector is parked.
pub(crate) fn acquire_zeroed(len: usize) -> Vec<f32> {
    let mut v = acquire_with_capacity(len);
    v.resize(len, 0.0);
    v
}

/// Fetch an empty vector with capacity for at least `len` elements, for
/// build-by-push construction (`concat`, `slice`, `map` collects). A vector
/// parked in class `c` holds at least `2^c` elements, and a miss allocates
/// the whole class, so the capacity always covers `len`.
pub(crate) fn acquire_with_capacity(len: usize) -> Vec<f32> {
    let Some(class) = acquire_class(len) else {
        return Vec::with_capacity(len);
    };
    let popped = {
        let mut lists = free_lists().lock().unwrap_or_else(PoisonError::into_inner);
        lists.buckets[class].pop()
    };
    match popped {
        Some(mut v) => {
            // relaxed: monotonic pool counter; the free lists themselves are mutex-guarded
            HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            // relaxed: monotonic pool counter; the free lists themselves are mutex-guarded
            MISSES.fetch_add(1, Ordering::Relaxed);
            allocate_class(class)
        }
    }
}

/// Park a vector's storage for reuse. Vectors below the pooling floor, or
/// arriving when their bucket is full, fall through to the allocator.
pub(crate) fn release(v: Vec<f32>) {
    let Some(class) = release_class(v.capacity()) else {
        return;
    };
    let mut lists = free_lists().lock().unwrap_or_else(PoisonError::into_inner);
    if lists.buckets[class].len() < MAX_PER_BUCKET {
        lists.buckets[class].push(v);
        // relaxed: monotonic pool counter; the free lists themselves are mutex-guarded
        RECYCLED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pool counters since process start: `(hits, misses, recycled)`.
pub(crate) fn counters() -> (u64, u64, u64) {
    (
        // relaxed: point-in-time counter reads; tearing across them only blurs one report
        HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
        RECYCLED.load(Ordering::Relaxed),
    )
}

/// Owned element storage for [`crate::Array`], returning its `Vec` to the
/// global free lists when dropped. `Deref`s to `[f32]`; cloning acquires
/// fresh (possibly recycled) storage and copies, which is what makes
/// `Arc::make_mut` copy-on-write work for shared arrays.
pub(crate) struct Buffer {
    data: Vec<f32>,
    /// This buffer's charge to the tape profiler, discharged on drop.
    #[cfg(feature = "obsv")]
    pub(crate) charge: crate::profile::BufferCharge,
}

impl Buffer {
    /// Wrap an existing vector (no pool round-trip on the way in; the
    /// storage still recycles on drop).
    pub(crate) fn from_vec(data: Vec<f32>) -> Self {
        Buffer {
            data,
            #[cfg(feature = "obsv")]
            charge: Default::default(),
        }
    }

    /// A zero-filled buffer of `len` elements from the pool.
    pub(crate) fn zeroed(len: usize) -> Self {
        Buffer::from_vec(acquire_zeroed(len))
    }

    /// Take the storage out as a plain `Vec` (nothing returns to the pool).
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.data.capacity() > 0 {
            release(std::mem::take(&mut self.data));
        }
    }
}

impl std::ops::Deref for Buffer {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        let mut v = acquire_with_capacity(self.data.len());
        v.extend_from_slice(&self.data);
        Buffer::from_vec(v)
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_and_round_trip() {
        assert_eq!(acquire_class(1), None);
        assert_eq!(acquire_class(MIN_POOLED_LEN), Some(0));
        assert_eq!(acquire_class(MIN_POOLED_LEN + 1), Some(1));
        assert_eq!(acquire_class(usize::MAX), None);
        assert_eq!(release_class(MIN_POOLED_LEN - 1), None);
        // A vector released into a class can serve any request that maps
        // to the same class or below.
        for len in [1024, 1500, 2048, 4096, 100_000, 1 << 20] {
            let a = acquire_class(len).unwrap();
            let cap = 1usize << (a as u32 + MIN_CLASS);
            assert!(cap >= len, "class capacity {cap} must cover {len}");
            assert_eq!(release_class(cap), Some(a));
        }
        // What a miss allocates files back into the class it was requested
        // from, so the next request of the same size hits: the reuse test's
        // odd length, then the model's `[828,207]`, `[9936,32]` and
        // `[48,207,207]`.
        for len in [3089, 171_396, 317_952, 2_056_752] {
            let a = acquire_class(len).unwrap();
            let v = allocate_class(a);
            assert!(v.capacity() >= len, "a miss must cover {len}");
            assert_eq!(release_class(v.capacity()), Some(a), "len {len}");
        }
    }

    #[test]
    fn acquire_after_release_reuses_storage() {
        // Use an odd size unlikely to collide with other tests' buckets.
        let len = 3 * 1024 + 17;
        let v = acquire_zeroed(len);
        assert_eq!(v.len(), len);
        assert!(v.iter().all(|&x| x == 0.0));
        let cap = v.capacity();
        release(v);
        let (h0, _, _) = counters();
        let v2 = acquire_zeroed(len);
        assert!(v2.capacity() >= cap.min(len));
        let (h1, _, _) = counters();
        assert!(h1 > h0, "second acquire should hit the free list");
        assert!(v2.iter().all(|&x| x == 0.0), "reused storage is re-zeroed");
    }

    #[test]
    fn buffer_drop_recycles_and_clone_is_deep() {
        let mut b = Buffer::zeroed(2048);
        b[0] = 7.0;
        let c = b.clone();
        assert_eq!(c[0], 7.0);
        assert_eq!(&b[..], &c[..]);
        let v = b.into_vec();
        assert_eq!(v.len(), 2048);
        let (_, _, r0) = counters();
        drop(c);
        let (_, _, r1) = counters();
        assert!(r1 > r0, "dropping a pooled-size Buffer recycles its Vec");
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let (h0, m0, _) = counters();
        let v = acquire_zeroed(8);
        assert_eq!(v.len(), 8);
        release(v);
        let (h1, m1, _) = counters();
        assert_eq!((h0, m0), (h1, m1), "sub-floor sizes never touch counters");
    }
}

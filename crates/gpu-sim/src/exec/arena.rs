//! Reusable per-launch buffer arena, and the device memories retained
//! across calls.
//!
//! Every block context needs a shared-memory image, a readiness shadow and
//! per-thread timing state. Allocating those three `Vec`s per context made
//! repeated launches (batch drivers, sweeps, proptests) hit the allocator
//! once per worker per launch; the pool keeps retired buffers on the `Gpu`
//! so steady-state launches allocate nothing. Buffers are handed out
//! cleared — `checkout` resizes and zero-fills, so a pooled buffer is
//! indistinguishable from a fresh one and the fast and slow paths stay
//! bit-identical.
//!
//! [`MemPool`] keeps a whole device memory the same way, as a CUDA
//! program `cudaMalloc`s its batch once: a call checks a
//! [`GlobalMemory`] out, and returns it when it ends. Unlike a block
//! buffer, a checked-out memory is not cleared (see
//! [`Gpu::checkout_memory`](crate::Gpu::checkout_memory)).

use crate::exec::thread::ThreadTiming;
use crate::mem::GlobalMemory;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cap on retired buffer sets kept alive. Bounds worst-case memory at
/// roughly one buffer set per replay worker of the widest launch seen.
const MAX_POOLED: usize = 64;

/// One block context's worth of reusable storage.
#[derive(Debug, Default)]
pub(crate) struct BlockBufs {
    pub shared: Vec<f32>,
    pub shared_ready: Vec<u64>,
    pub threads: Vec<ThreadTiming>,
}

/// A mutex-guarded free list of retired [`BlockBufs`]. One per [`Gpu`],
/// shared by every launch; the lock is taken once per worker per launch
/// (contexts are reused across replay blocks), so contention is nil.
///
/// [`Gpu`]: crate::exec::Gpu
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    slots: Mutex<Vec<BlockBufs>>,
}

impl BufPool {
    /// Take a cleared buffer set sized for `shared_words` / `nthreads`,
    /// reusing a retired one when available.
    pub(crate) fn checkout(&self, shared_words: usize, nthreads: usize) -> BlockBufs {
        let mut b = self
            .slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        // clear + resize rewrites every slot with the default value while
        // keeping whatever capacity the buffer already has.
        b.shared.clear();
        b.shared.resize(shared_words, 0.0);
        b.shared_ready.clear();
        b.shared_ready.resize(shared_words, 0);
        b.threads.clear();
        b.threads.resize(nthreads, ThreadTiming::default());
        b
    }

    /// Return a buffer set to the free list (dropped if the pool is full).
    pub(crate) fn restore(&self, bufs: BlockBufs) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if slots.len() < MAX_POOLED {
            slots.push(bufs);
        }
    }

    /// Number of retired buffer sets currently pooled (tests).
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// The device memory a [`Gpu`] keeps between calls: one slot, shared by
/// the `Gpu`'s clones. A caller making one call at a time keeps one
/// memory, as large as its largest call; a call that starts while
/// another holds the memory gets a fresh one of its own, and the larger
/// of the two stays when both end.
///
/// Retention costs resident memory, not allocations: the retained memory
/// keeps every page a call touched until the `Gpu` and its clones drop.
/// A `Full` run touches its whole batch, so a `Gpu` that ran one keeps
/// that batch's pages; a sweep whose calls execute a few problems each
/// touches only their slabs.
///
/// [`Gpu`]: crate::exec::Gpu
#[derive(Default)]
pub(crate) struct MemPool {
    slot: Mutex<Option<GlobalMemory>>,
    /// Fresh memories allocated for checkouts so far.
    fresh: AtomicU64,
}

impl std::fmt::Debug for MemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPool")
            .field(
                "retained",
                &self.lock().as_ref().map(GlobalMemory::capacity),
            )
            .field("fresh", &self.fresh.load(Ordering::Relaxed))
            .finish()
    }
}

impl MemPool {
    fn lock(&self) -> MutexGuard<'_, Option<GlobalMemory>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take the retained memory if it holds at least `words` words, its
    /// allocator reset and (`sanitized`) its initialization bitmap
    /// cleared. Otherwise free it, if any, and allocate a fresh memory of
    /// exactly `words` words.
    pub(crate) fn checkout(&self, words: usize, sanitized: bool) -> GlobalMemory {
        let retained = self.lock().take();
        match retained {
            Some(mut mem) if mem.capacity() >= words => {
                mem.reset_allocator();
                if sanitized {
                    mem.clear_init();
                }
                mem
            }
            outgrown => {
                drop(outgrown);
                self.fresh.fetch_add(1, Ordering::Relaxed);
                GlobalMemory::new(words)
            }
        }
    }

    /// Keep `mem` for the next checkout unless the slot already holds a
    /// memory at least as large.
    pub(crate) fn restore(&self, mem: GlobalMemory) {
        let mut slot = self.lock();
        if slot
            .as_ref()
            .is_none_or(|kept| kept.capacity() < mem.capacity())
        {
            *slot = Some(mem);
        }
    }

    /// Fresh memories allocated for checkouts so far.
    pub(crate) fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Words of the retained memory, if any (tests).
    #[cfg(test)]
    pub(crate) fn retained(&self) -> Option<usize> {
        self.lock().as_ref().map(GlobalMemory::capacity)
    }
}

/// A device memory checked out of a [`Gpu`]'s pool with
/// [`Gpu::checkout_memory`]: a [`GlobalMemory`] (through `Deref`) that
/// goes back to the pool when dropped.
///
/// [`Gpu`]: crate::Gpu
/// [`Gpu::checkout_memory`]: crate::Gpu::checkout_memory
pub struct PooledMemory<'g> {
    mem: GlobalMemory,
    pool: &'g MemPool,
}

impl<'g> PooledMemory<'g> {
    pub(crate) fn new(pool: &'g MemPool, words: usize, sanitized: bool) -> Self {
        PooledMemory {
            mem: pool.checkout(words, sanitized),
            pool,
        }
    }
}

impl Deref for PooledMemory<'_> {
    type Target = GlobalMemory;

    fn deref(&self) -> &GlobalMemory {
        &self.mem
    }
}

impl DerefMut for PooledMemory<'_> {
    fn deref_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }
}

impl Drop for PooledMemory<'_> {
    fn drop(&mut self) {
        // An empty memory holds no allocation, so the swap costs nothing.
        self.pool
            .restore(std::mem::replace(&mut self.mem, GlobalMemory::new(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_and_clears() {
        let pool = BufPool::default();
        let mut b = pool.checkout(8, 4);
        assert_eq!(b.shared.len(), 8);
        assert_eq!(b.threads.len(), 4);
        b.shared[3] = 7.0;
        b.shared_ready[3] = 9;
        b.threads[1].clock = 42;
        pool.restore(b);
        assert_eq!(pool.pooled(), 1);
        // Re-checkout at a different shape: cleared and resized.
        let b2 = pool.checkout(6, 2);
        assert_eq!(pool.pooled(), 0);
        assert_eq!(b2.shared, vec![0.0; 6]);
        assert_eq!(b2.shared_ready, vec![0; 6]);
        assert_eq!(b2.threads.len(), 2);
        assert_eq!(b2.threads[1].clock, 0);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufPool::default();
        for _ in 0..(MAX_POOLED + 8) {
            pool.restore(BlockBufs::default());
        }
        assert_eq!(pool.pooled(), MAX_POOLED);
    }

    use crate::mem::DPtr;
    use crate::{Gpu, SanitizerMode};

    /// Whether word `w` counts as initialized for the sanitizer.
    fn initialized(mem: &mut GlobalMemory, w: usize) -> bool {
        mem.alloc(w + 1);
        let init = mem.init_snapshot()[w / 64] >> (w % 64) & 1 == 1;
        mem.reset_allocator();
        init
    }

    #[test]
    fn a_restored_memory_is_reused_with_its_allocator_reset() {
        let pool = MemPool::default();
        let mut mem = pool.checkout(100, false);
        let p = mem.alloc(100);
        mem.write(p, 7, 3.5);
        pool.restore(mem);
        let mut mem = pool.checkout(50, false);
        assert_eq!((pool.fresh(), pool.retained()), (1, None));
        assert_eq!(mem.capacity(), 100);
        assert_eq!(mem.allocated_words(), 0);
        let p = mem.alloc(50);
        assert_eq!(p.word(), 0, "offsets are a fresh memory's");
        assert_eq!(mem.read(p, 7), 3.5, "an earlier call's words stay");
        assert!(
            initialized(&mut mem, 7),
            "an unsanitized checkout keeps the bitmap"
        );
        pool.restore(mem);
        let mut mem = pool.checkout(50, true);
        assert!(!initialized(&mut mem, 7), "a sanitized checkout clears it");
        assert_eq!(mem.read(DPtr::new(7), 0), 3.5);
    }

    #[test]
    fn a_request_past_the_retained_memory_frees_it_and_allocates_exactly() {
        let pool = MemPool::default();
        pool.restore(pool.checkout(64, false));
        let big = pool.checkout(1000, false);
        assert_eq!(big.capacity(), 1000);
        assert_eq!(
            (pool.fresh(), pool.retained()),
            (2, None),
            "the outgrown memory is freed"
        );
        pool.restore(big);
        let mem = pool.checkout(10, false);
        assert_eq!((mem.capacity(), pool.fresh()), (1000, 2));
    }

    #[test]
    fn the_larger_of_two_returned_memories_stays() {
        let pool = MemPool::default();
        let (small, big) = (pool.checkout(64, false), pool.checkout(128, false));
        pool.restore(big);
        pool.restore(small);
        assert_eq!(pool.retained(), Some(128));
        let (big, small) = (pool.checkout(8, false), pool.checkout(8, false));
        assert_eq!((big.capacity(), small.capacity()), (128, 8));
        pool.restore(small);
        pool.restore(big);
        assert_eq!(pool.retained(), Some(128));
    }

    #[test]
    fn clones_of_a_gpu_share_one_memory_pool() {
        let gpu = Gpu::quadro_6000();
        let clone = gpu.clone();
        {
            let mut mem = gpu.checkout_memory(256, SanitizerMode::Off);
            let p = mem.alloc(256);
            mem.write(p, 0, 9.0);
        }
        let mem = clone.checkout_memory(128, SanitizerMode::Off);
        assert_eq!(mem.read(DPtr::new(0), 0), 9.0);
        assert_eq!(
            (gpu.memories_allocated(), clone.memories_allocated()),
            (1, 1)
        );
    }

    #[test]
    fn concurrent_checkouts_get_distinct_memories() {
        let gpu = Gpu::quadro_6000();
        drop(gpu.checkout_memory(64, SanitizerMode::Off));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for id in [1.0f32, 2.0] {
                let (gpu, barrier) = (gpu.clone(), &barrier);
                s.spawn(move || {
                    let mut mem = gpu.checkout_memory(64, SanitizerMode::Off);
                    let p = mem.alloc(64);
                    barrier.wait();
                    mem.write(p, 0, id);
                    barrier.wait();
                    assert_eq!(mem.read(p, 0), id);
                });
            }
        });
        assert_eq!(gpu.memories_allocated(), 2);
    }
}

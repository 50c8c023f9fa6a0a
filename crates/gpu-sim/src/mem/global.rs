//! Simulated device global memory (DRAM).
//!
//! Global memory is a flat, word-addressed (32-bit) array with a bump
//! allocator. Functional accesses simply read/write the backing vector;
//! timing is accounted separately by the launch machinery, which asks each
//! traced block for the set of distinct 128-byte lines it touched per phase
//! (in-flight request coalescing plus the 768 kB L2 make intra-block line
//! reuse effectively free on GF100, which is how the paper's 2D-cyclic
//! gather sustains >90 GB/s despite non-contiguous accesses).

/// An opaque device pointer: a word offset into [`GlobalMemory`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DPtr(pub(crate) usize);

impl DPtr {
    /// A pointer to an absolute word offset (mostly for tests; real code
    /// gets pointers from [`GlobalMemory::alloc`]).
    pub fn new(word: usize) -> DPtr {
        DPtr(word)
    }

    /// Pointer arithmetic in 32-bit words, like `d_A + offset` in CUDA.
    pub fn offset(self, words: usize) -> DPtr {
        DPtr(self.0 + words)
    }

    /// Byte address of the first word (for coalescing analysis).
    pub fn byte_addr(self) -> u64 {
        (self.0 as u64) * 4
    }

    /// Word index inside the flat device memory.
    pub fn word(self) -> usize {
        self.0
    }
}

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Flat simulated DRAM with a bump allocator.
pub struct GlobalMemory {
    data: Vec<f32>,
    next: usize,
    /// One bit per word: has the word ever been written (by the host or a
    /// kernel)? Seeds the sanitizer's initcheck; never read otherwise.
    init: Vec<AtomicU64>,
    /// Bump-allocation extents `(start, len)`, in allocation order. The
    /// sanitizer uses these for alignment/straddle checks on complex
    /// accesses.
    allocs: Vec<(usize, usize)>,
}

/// How a block context reaches device memory: exclusively (block 0,
/// sequential replay) or through a shared worker view (parallel replay),
/// plus an undo log of the stores made while it is on (a lane group's, or
/// block 0's keyed run) and, while block 0 records its schedule-cache
/// key, the allocations it touches.
///
/// Kernels never see this type; they go through `ThreadCtx::gload` /
/// `gstore`, which delegate here. Keeping it `pub(crate)` is what lets the
/// parallel path exist without any `unsafe` or raw-pointer type leaking
/// into the public API: `Gpu::launch` still takes `&mut GlobalMemory`,
/// and every aliased access is confined to [`WorkerGmem`] below.
pub(crate) struct GmemAccess<'m> {
    view: GmemView<'m>,
    /// The block the context executes (the first lane's in a group).
    block: usize,
    /// `(word, previous value, storing block)` of every store made while
    /// logging, in store order; rolled back when the logged run is
    /// abandoned, or one block's part of it when that block's run is. The
    /// block tag fills the padding after the value, so an entry stays 16
    /// bytes: every store of a lane group is logged.
    undo: Vec<(usize, f32, u32)>,
    logging: bool,
    /// One flag per allocation: touched since
    /// [`track_allocations`](Self::track_allocations) (`None` = not
    /// tracking). In a lane group only lane 0's accesses count: the group
    /// that records a key holds block 0 in lane 0.
    touched: Option<Vec<bool>>,
}

enum GmemView<'m> {
    /// Exclusive access through the normal borrow-checked path.
    Excl(&'m mut GlobalMemory),
    /// One replay worker's handle onto memory shared across workers.
    Worker(WorkerGmem<'m>),
}

impl GmemView<'_> {
    /// The bump-allocation extents `(start, len)` of the memory viewed.
    fn allocs(&self) -> &[(usize, usize)] {
        match self {
            GmemView::Excl(g) => &g.allocs,
            GmemView::Worker(w) => w.allocs,
        }
    }
}

/// Word `off` of every lane's per-block slab: lane `l` addresses
/// `p + blocks[l] * stride + off`.
#[inline]
fn lane_words<const W: usize>(
    p: DPtr,
    stride: usize,
    off: usize,
    blocks: &[usize; W],
) -> [usize; W] {
    std::array::from_fn(|l| p.0 + blocks[l] * stride + off)
}

impl<'m> GmemAccess<'m> {
    pub(crate) fn excl(g: &'m mut GlobalMemory) -> Self {
        Self::from_view(GmemView::Excl(g))
    }

    pub(crate) fn worker(w: WorkerGmem<'m>) -> Self {
        Self::from_view(GmemView::Worker(w))
    }

    fn from_view(view: GmemView<'m>) -> Self {
        GmemAccess {
            view,
            block: 0,
            undo: Vec::new(),
            logging: false,
            touched: None,
        }
    }

    /// Start noting which allocations the accesses through this handle
    /// touch (block 0's keyed run, alone or as lane 0 of a group).
    pub(crate) fn track_allocations(&mut self) {
        self.touched = Some(vec![false; self.view.allocs().len()]);
    }

    /// Stop tracking; return `(index, start % line_words)` of every
    /// allocation touched since [`track_allocations`], in allocation order.
    ///
    /// [`track_allocations`]: Self::track_allocations
    pub(crate) fn take_line_offsets(&mut self, line_words: usize) -> Vec<(usize, usize)> {
        let Some(touched) = self.touched.take() else {
            return Vec::new();
        };
        self.view
            .allocs()
            .iter()
            .zip(touched)
            .enumerate()
            .filter(|(_, (_, hit))| *hit)
            .map(|(i, (&(start, _), _))| (i, start % line_words))
            .collect()
    }

    /// Note the allocation holding `word`, when tracking.
    #[inline]
    fn touch(&mut self, word: usize) {
        if let Some(touched) = &mut self.touched {
            let i = self.view.allocs().partition_point(|&(start, _)| start <= word);
            if i > 0 {
                touched[i - 1] = true;
            }
        }
    }

    #[inline]
    fn read_word(&self, word: usize) -> f32 {
        match &self.view {
            GmemView::Excl(g) => g.data[word],
            GmemView::Worker(w) => w.read(word),
        }
    }

    /// Log the current value of words `word..word + len`, stored to by
    /// `block`, for undo.
    #[inline]
    fn log_old(&mut self, word: usize, len: usize, block: usize) {
        if self.logging {
            for w in word..word + len {
                let old = self.read_word(w);
                self.undo.push((w, old, block as u32));
            }
        }
    }

    /// Store `v` at `word` on behalf of `block` (the disjoint-write
    /// checker's owner tag).
    #[inline]
    fn write_word(&mut self, word: usize, v: f32, block: usize) {
        self.log_old(word, 1, block);
        match &mut self.view {
            GmemView::Excl(g) => g.write(DPtr(word), 0, v),
            GmemView::Worker(w) => w.write_as(word, v, block as u32 + 1),
        }
    }

    #[inline]
    pub(crate) fn read(&mut self, p: DPtr, idx: usize) -> f32 {
        self.touch(p.0 + idx);
        self.read_word(p.0 + idx)
    }

    #[inline]
    pub(crate) fn write(&mut self, p: DPtr, idx: usize, v: f32) {
        self.touch(p.0 + idx);
        self.log_old(p.0 + idx, 1, self.block);
        match &mut self.view {
            GmemView::Excl(g) => g.write(p, idx, v),
            GmemView::Worker(w) => w.write(p.0 + idx, v),
        }
    }

    /// Note which block now executes through this context (the undo
    /// log's and the disjoint-write checker's owner).
    pub(crate) fn set_block(&mut self, block_id: usize) {
        self.block = block_id;
        if let GmemView::Worker(w) = &mut self.view {
            w.block_id = block_id as u32 + 1;
        }
    }

    /// Start logging stores for undo.
    pub(crate) fn begin_undo_log(&mut self) {
        self.undo.clear();
        self.logging = true;
    }

    /// Stop logging: keep the logged stores, or (`abandon`) restore every
    /// word they stored to, newest first.
    pub(crate) fn end_undo_log(&mut self, abandon: bool) {
        if abandon {
            self.undo_stores(|_| true);
        }
        self.logging = false;
        self.undo.clear();
    }

    /// Restore, newest first, every word the logged stores of `block`
    /// wrote; the other blocks' stores stand. Logging goes on.
    pub(crate) fn undo_block(&mut self, block: usize) {
        self.undo_stores(|b| b == block);
    }

    fn undo_stores(&mut self, of: impl Fn(usize) -> bool) {
        for &(word, old, _) in self.undo.iter().rev().filter(|e| of(e.2 as usize)) {
            match &mut self.view {
                GmemView::Excl(g) => g.data[word] = old,
                GmemView::Worker(w) => w.restore(word, old),
            }
        }
    }

    /// Read `len` consecutive words starting at `p + idx`, handing each
    /// `(offset, value)` to `f`. One access-path dispatch and one bounds
    /// check cover the whole span, instead of one of each per word.
    #[inline]
    pub(crate) fn read_span(&mut self, p: DPtr, idx: usize, len: usize, f: impl FnMut(usize, f32)) {
        self.touch(p.0 + idx);
        self.span(p, idx, len, f);
    }

    /// [`read_span`](Self::read_span) without noting the allocation.
    #[inline]
    fn span(&self, p: DPtr, idx: usize, len: usize, mut f: impl FnMut(usize, f32)) {
        match &self.view {
            GmemView::Excl(g) => {
                for (k, &v) in g.slice(p.offset(idx), len).iter().enumerate() {
                    f(k, v);
                }
            }
            GmemView::Worker(w) => {
                let base = p.0 + idx;
                let words = &w.words[base..base + len];
                for (k, word) in words.iter().enumerate() {
                    f(k, f32::from_bits(word.load(Ordering::Relaxed)));
                }
            }
        }
    }

    /// Write `len` consecutive words starting at `p + idx`, pulling word
    /// `k` from `f(k)`. Keeps the disjoint-write checker and the
    /// initialization bitmap exactly as word-at-a-time stores would.
    #[inline]
    pub(crate) fn write_span(
        &mut self,
        p: DPtr,
        idx: usize,
        len: usize,
        mut f: impl FnMut(usize) -> f32,
    ) {
        self.touch(p.0 + idx);
        self.log_old(p.0 + idx, len, self.block);
        match &mut self.view {
            GmemView::Excl(g) => {
                for (k, d) in g.slice_mut(p.offset(idx), len).iter_mut().enumerate() {
                    *d = f(k);
                }
            }
            GmemView::Worker(w) => {
                let base = p.0 + idx;
                for k in 0..len {
                    w.write(base + k, f(k));
                }
            }
        }
    }

    /// Read word `off` of every lane's slab (see [`lane_words`]).
    #[inline]
    pub(crate) fn read_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        blocks: &[usize; W],
    ) -> [f32; W] {
        let words = lane_words(p, stride, off, blocks);
        self.touch(words[0]);
        words.map(|w| self.read_word(w))
    }

    /// Store lane `l`'s value to word `off` of its slab.
    #[inline]
    pub(crate) fn write_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        blocks: &[usize; W],
        v: [f32; W],
    ) {
        let words = lane_words(p, stride, off, blocks);
        self.touch(words[0]);
        for (l, w) in words.into_iter().enumerate() {
            self.write_word(w, v[l], blocks[l]);
        }
    }

    /// Read words `off..off + len` of every lane's slab, handing each
    /// `(offset, lane, value)` to `f`.
    #[inline]
    pub(crate) fn read_span_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        len: usize,
        blocks: &[usize; W],
        mut f: impl FnMut(usize, usize, f32),
    ) {
        let bases = lane_words(p, stride, off, blocks);
        self.touch(bases[0]);
        for (l, base) in bases.into_iter().enumerate() {
            self.span(DPtr(base), 0, len, |k, v| f(k, l, v));
        }
    }

    /// Store `f(offset, lane)` to words `off..off + len` of every lane's
    /// slab.
    #[inline]
    pub(crate) fn write_span_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        len: usize,
        blocks: &[usize; W],
        mut f: impl FnMut(usize, usize) -> f32,
    ) {
        let bases = lane_words(p, stride, off, blocks);
        self.touch(bases[0]);
        for (l, base) in bases.into_iter().enumerate() {
            for k in 0..len {
                self.write_word(base + k, f(k, l), blocks[l]);
            }
        }
    }
}

/// Device memory re-viewed as shared atomic words for the parallel
/// functional replay, plus the optional disjoint-write checker state.
///
/// Constructed from `&mut GlobalMemory` by [`GlobalMemory::share`], so for
/// its whole lifetime no other alias of the backing storage exists; every
/// access from every worker goes through the `AtomicU32` slice below.
pub(crate) struct SharedGmem<'m> {
    words: &'m [AtomicU32],
    /// Disjoint-write checker: `owners[w]` holds `block_id + 1` of the
    /// first block that stored to word `w` during this replay (0 = clean).
    owners: Option<Vec<AtomicU32>>,
    /// Initialization bitmap to stamp on kernel stores (sanitized launches
    /// only, so later launches see this launch's writes as initialized).
    init: Option<&'m [AtomicU64]>,
    /// The bump-allocation extents, read-only during the replay.
    allocs: &'m [(usize, usize)],
}

impl GlobalMemory {
    /// Re-view the device memory for a parallel replay section. With
    /// `check_writes`, a full-size owner table is allocated and every
    /// store is checked for cross-block overlap (debug builds and
    /// `REGLA_SIM_CHECK=1` runs).
    pub(crate) fn share(&mut self, check_writes: bool, track_init: bool) -> SharedGmem<'_> {
        let owners = check_writes
            .then(|| (0..self.data.len()).map(|_| AtomicU32::new(0)).collect());
        let init = track_init.then_some(self.init.as_slice());
        let allocs = self.allocs.as_slice();
        // SAFETY: `AtomicU32` has the same size and alignment as `f32`
        // (both 4-byte plain words), and we hold `&mut self`, so re-typing
        // the unique slice as shared atomics is sound. All aliased access
        // for the lifetime of the returned view goes through these atomics
        // (relaxed loads/stores — plain MOVs on x86), so even a kernel
        // that violated the per-problem write discipline could cause a
        // wrong *value*, never undefined behaviour.
        let words = unsafe {
            &*(self.data.as_mut_slice() as *mut [f32] as *const [AtomicU32])
        };
        SharedGmem {
            words,
            owners,
            init,
            allocs,
        }
    }
}

impl<'m> SharedGmem<'m> {
    /// Hand out one worker's view, initially owned by `block_id`.
    pub(crate) fn worker(&'m self, block_id: usize) -> WorkerGmem<'m> {
        WorkerGmem {
            words: self.words,
            owners: self.owners.as_deref(),
            init: self.init,
            allocs: self.allocs,
            block_id: block_id as u32 + 1,
        }
    }
}

/// One replay worker's view of device memory: shared reads, per-block
/// disjoint writes.
///
/// # Safety argument
///
/// Workers replay *functional* blocks of a batched kernel. Each simulated
/// block reads its own per-problem input slab (written before the launch
/// or by the same block) plus launch-constant data, and writes only its
/// own per-problem output slab — the same invariant the real GPU kernels
/// rely on for correctness, since CUDA blocks run concurrently without
/// ordering. Because all access goes through relaxed atomics, a kernel
/// that broke the invariant could produce a nondeterministic value but
/// not a data race in the UB sense; the owner-table checker (debug builds,
/// `REGLA_SIM_CHECK=1`) additionally panics on any cross-block write
/// overlap, turning silent nondeterminism into a loud failure.
pub(crate) struct WorkerGmem<'m> {
    words: &'m [AtomicU32],
    owners: Option<&'m [AtomicU32]>,
    init: Option<&'m [AtomicU64]>,
    allocs: &'m [(usize, usize)],
    /// Owner tag (`block_id + 1`) stamped on every word this view writes.
    pub(crate) block_id: u32,
}

impl WorkerGmem<'_> {
    #[inline]
    pub(crate) fn read(&self, word: usize) -> f32 {
        f32::from_bits(self.words[word].load(Ordering::Relaxed))
    }

    #[inline]
    pub(crate) fn write(&mut self, word: usize, v: f32) {
        self.write_as(word, v, self.block_id);
    }

    /// Store on behalf of the block tagged `tag` (`block_id + 1`): a lane
    /// group's stores each carry their own lane's block.
    #[inline]
    fn write_as(&mut self, word: usize, v: f32, tag: u32) {
        if let Some(owners) = self.owners {
            let prev = owners[word].swap(tag, Ordering::Relaxed);
            assert!(
                prev == 0 || prev == tag,
                "cross-block write overlap at device word {word}: block {} \
                 stored over block {}'s output — batched kernels must write \
                 disjoint per-problem slabs for the parallel replay to be \
                 deterministic",
                tag - 1,
                prev - 1,
            );
        }
        if let Some(init) = self.init {
            init[word / 64].fetch_or(1 << (word % 64), Ordering::Relaxed);
        }
        self.words[word].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Put back a word an abandoned lane group overwrote. The owner tag
    /// stays: the same block stores the word again when it replays alone.
    fn restore(&mut self, word: usize, old: f32) {
        self.words[word].store(old.to_bits(), Ordering::Relaxed);
    }
}

impl GlobalMemory {
    /// Create a device memory of `words` 32-bit words (zero initialised —
    /// though the sanitizer's initcheck still treats never-written words
    /// as uninitialized, matching real `cudaMalloc` semantics).
    pub fn new(words: usize) -> Self {
        GlobalMemory {
            data: vec![0.0; words],
            next: 0,
            init: (0..words.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            allocs: Vec::new(),
        }
    }

    /// Create a device with the given capacity in bytes.
    pub fn with_bytes(bytes: usize) -> Self {
        Self::new(bytes / 4)
    }

    /// Allocate `words` words; panics when the device is out of memory
    /// (allocation failures are programming errors in this simulator).
    pub fn alloc(&mut self, words: usize) -> DPtr {
        assert!(
            self.next + words <= self.data.len(),
            "device out of memory: requested {words} words, {} free",
            self.data.len() - self.next
        );
        let p = DPtr(self.next);
        self.allocs.push((self.next, words));
        self.next += words;
        p
    }

    /// Release everything allocated so far (contents are kept, and so are
    /// the initialization bits — the words still hold their old values).
    pub fn reset_allocator(&mut self) {
        self.next = 0;
        self.allocs.clear();
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> usize {
        self.next
    }

    /// Functional word read.
    #[inline]
    pub fn read(&self, p: DPtr, idx: usize) -> f32 {
        self.data[p.0 + idx]
    }

    /// Functional word write.
    #[inline]
    pub fn write(&mut self, p: DPtr, idx: usize, v: f32) {
        let w = p.0 + idx;
        self.data[w] = v;
        *self.init[w / 64].get_mut() |= 1 << (w % 64);
    }

    /// Host-to-device copy (functional; PCIe timing is modelled in `host`).
    pub fn h2d(&mut self, p: DPtr, src: &[f32]) {
        self.data[p.0..p.0 + src.len()].copy_from_slice(src);
        self.mark_init(p.0, src.len());
    }

    /// Device-to-host copy.
    pub fn d2h(&self, p: DPtr, dst: &mut [f32]) {
        dst.copy_from_slice(&self.data[p.0..p.0 + dst.len()]);
    }

    /// Borrow a device range as a slice (a host read, like `d2h` without
    /// the copy).
    pub fn slice(&self, p: DPtr, len: usize) -> &[f32] {
        &self.data[p.0..p.0 + len]
    }

    /// Borrow a device range mutably (a host write, like `h2d` without
    /// the copy). The whole range counts as host-initialized for the
    /// sanitizer.
    pub fn slice_mut(&mut self, p: DPtr, len: usize) -> &mut [f32] {
        self.mark_init(p.0, len);
        &mut self.data[p.0..p.0 + len]
    }

    /// Mark words `start..start + len` initialized, one bitmap word at a
    /// time: a whole `u64` for the interior of the range, a mask at its
    /// ends.
    fn mark_init(&mut self, start: usize, len: usize) {
        let end = start + len;
        let mut w = start;
        while w < end {
            let lo = w % 64;
            let bits = (64 - lo).min(end - w);
            *self.init[w / 64].get_mut() |= (u64::MAX >> (64 - bits)) << lo;
            w += bits;
        }
    }

    /// Snapshot of the initialization bitmap (one bit per word), taken by
    /// the sanitizer at launch start.
    pub(crate) fn init_snapshot(&self) -> Vec<u64> {
        self.init.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Copy of the bump-allocation extents `(start, len)`.
    pub(crate) fn alloc_table(&self) -> Vec<(usize, usize)> {
        self.allocs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_bump_and_word_addressed() {
        let mut m = GlobalMemory::with_bytes(4096);
        let a = m.alloc(16);
        let b = m.alloc(8);
        assert_eq!(a.word(), 0);
        assert_eq!(b.word(), 16);
        assert_eq!(b.byte_addr(), 64);
        assert_eq!(m.allocated_words(), 24);
    }

    #[test]
    fn h2d_d2h_round_trip() {
        let mut m = GlobalMemory::new(64);
        let p = m.alloc(4);
        m.h2d(p, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0f32; 4];
        m.d2h(p, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pointer_offset_reads_through() {
        let mut m = GlobalMemory::new(64);
        let p = m.alloc(8);
        m.write(p, 5, 9.5);
        assert_eq!(m.read(p.offset(5), 0), 9.5);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn alloc_past_capacity_panics() {
        let mut m = GlobalMemory::new(8);
        m.alloc(9);
    }

    #[test]
    fn mark_init_matches_the_per_word_bitmap() {
        let sizes = [0, 1, 63, 64, 65, 130];
        for start in sizes {
            for len in sizes {
                let words = 5 * 64;
                let mut filled = GlobalMemory::new(words);
                filled.mark_init(start, len);
                let mut per_word = GlobalMemory::new(words);
                for w in start..start + len {
                    per_word.write(DPtr(w), 0, 0.0);
                }
                assert_eq!(
                    filled.init_snapshot(),
                    per_word.init_snapshot(),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn reset_allocator_reuses_space() {
        let mut m = GlobalMemory::new(8);
        m.alloc(8);
        m.reset_allocator();
        let p = m.alloc(8);
        assert_eq!(p.word(), 0);
    }
}

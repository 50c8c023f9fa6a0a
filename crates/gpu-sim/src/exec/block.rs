//! Block-level execution context.
//!
//! A kernel runs once per thread block and is written from the block's
//! perspective: `for_each` executes a closure for every thread (the SIMT
//! lanes), `sync()` is `__syncthreads()`, and `phase_label` names the
//! current section for the per-phase breakdowns of Table V and Figure 8.
//! Phases are delimited by synchronizations; at each boundary the context
//! performs the warp-level analyses (bank conflicts, coalescing, distinct
//! DRAM lines) and folds them into a [`PhaseRecord`].

use crate::config::GpuConfig;
use crate::exec::arena::{BlockBufs, BufPool};
use crate::exec::schedule::{BlockKey, Outcomes};
use crate::exec::thread::{AccessRec, PhaseAccum, SpillInfo, ThreadCtx};
use crate::exec::{uniform, LaunchConfig, MAX_LANES};
use crate::fault::{FaultMap, FaultRecord, FaultState};
use crate::mem::global::GmemAccess;
use crate::mem::shared::{bank_conflict_replays, coalesced_transactions, distinct_lines};
use crate::mem::MemHier;
use crate::sanitize::{ContextFindings, LaunchShadow, SanitizerState};
use crate::timing::PhaseRecord;

/// What every block context of one launch shares, built once by the
/// launch's set-up stage: the launch configuration (grid and block size,
/// shared words, math mode, watchdog budget), the device and what set-up
/// derives from them.
pub(crate) struct BlockSpec<'a> {
    pub(crate) lc: &'a LaunchConfig,
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) spill: SpillInfo,
    /// Materialised fault plan for the whole launch (None = no campaign).
    pub(crate) fault_map: Option<FaultMap>,
    /// Launch-level global shadow, `Some` exactly when the sanitizer's
    /// checks run.
    pub(crate) shadow: Option<LaunchShadow>,
    /// The per-`Gpu` arena block contexts check their buffers out of.
    pub(crate) pool: &'a BufPool,
}

/// What a block context runs its blocks as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Block 0 under the scoreboard: its phase records time the launch.
    Traced,
    /// Functional replay with per-op bookkeeping.
    Replay,
    /// Functional replay on an observer-free launch: every block no fault
    /// arms runs on the fast path.
    FastReplay,
}

/// Execution context for one thread block.
pub struct BlockCtx<'a> {
    /// The executing block (the first lane's block in a lane group).
    pub block_id: usize,
    spec: &'a BlockSpec<'a>,
    role: Role,
    /// True when this context executes a replay block of an observer-free
    /// launch that no fault is armed in: threads expose the raw fast
    /// primitives.
    fast: bool,
    /// The blocks being executed: the first `width` entries, the
    /// executing block alone outside a lane group.
    group: [usize; MAX_LANES],
    width: usize,
    /// Shared memory, readiness shadow and per-thread timing, checked out
    /// of the per-`Gpu` arena and returned on drop.
    bufs: BlockBufs,
    phase: PhaseAccum,
    phase_start: u64,
    label: String,
    records: Vec<PhaseRecord>,
    gmem: GmemAccess<'a>,
    memhier: &'a mut MemHier,
    /// This context's armed/applied fault state (re-armed per block).
    fault: FaultState,
    /// This context's sanitizer/watchdog state (re-armed per block).
    san: SanitizerState,
    /// Branch-outcome log (`Some` while recording; see
    /// [`record_key`](Self::record_key)).
    outcomes: Option<Outcomes>,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        spec: &'a BlockSpec<'a>,
        block_id: usize,
        role: Role,
        gmem: GmemAccess<'a>,
        memhier: &'a mut MemHier,
    ) -> Self {
        let mut fault = FaultState::default();
        fault.arm(spec.fault_map.as_ref(), block_id);
        let lc = spec.lc;
        let mut san = SanitizerState::new(
            spec.shadow.is_some(),
            lc.watchdog.unwrap_or(0),
            lc.shared_words,
            lc.threads_per_block,
        );
        san.arm(block_id);
        BlockCtx {
            block_id,
            spec,
            role,
            fast: role == Role::FastReplay && !fault.armed(),
            group: [block_id; MAX_LANES],
            width: 1,
            bufs: spec.pool.checkout(lc.shared_words, lc.threads_per_block),
            phase: PhaseAccum::default(),
            phase_start: 0,
            label: String::new(),
            records: Vec::new(),
            gmem,
            memhier,
            fault,
            san,
            outcomes: None,
        }
    }

    /// Record the outcome of every branch the block takes through
    /// `ThreadCtx::is_zero`/`gt` (and their plain twins) and the block-id
    /// guards of `uniform`, and the buffers it touches: its part of a
    /// keyed launch's schedule-cache key.
    pub(crate) fn record_key(&mut self) {
        self.outcomes = Some(Outcomes::default());
        self.gmem.track_allocations();
    }

    /// Stop recording and return what was recorded since
    /// [`record_key`](Self::record_key).
    pub(crate) fn take_key(&mut self) -> BlockKey {
        BlockKey {
            outcomes: self.outcomes.take().unwrap_or_default(),
            line_offsets: self
                .gmem
                .take_line_offsets(self.spec.cfg.dram_line_bytes / 4),
        }
    }

    /// Log the block's global stores until
    /// [`end_undo_log`](Self::end_undo_log).
    pub(crate) fn begin_undo_log(&mut self) {
        self.gmem.begin_undo_log();
    }

    /// Keep the global stores made since the log began, or undo them
    /// (`abandon`): an abandoned lane group, or block 0's keyed run alone
    /// that missed the schedule cache.
    pub(crate) fn end_undo_log(&mut self, abandon: bool) {
        self.gmem.end_undo_log(abandon);
    }

    /// Undo the logged global stores of `block` alone, keeping the other
    /// lanes': block 0's lane of a completed group whose key missed.
    pub(crate) fn undo_block(&mut self, block: usize) {
        self.gmem.undo_block(block);
    }

    /// Drain the fault records applied by, and the sanitizer findings (and
    /// uncapped per-check totals) from, every block this context ran,
    /// flushing the final block's barrier check.
    pub(crate) fn take_observed(&mut self) -> (Vec<FaultRecord>, ContextFindings) {
        (std::mem::take(&mut self.fault.applied), self.san.take())
    }

    /// The label the kernel last set (watchdog error provenance; labels
    /// are maintained on every block whenever the sanitizer or watchdog
    /// is active).
    pub(crate) fn current_label(&self) -> &str {
        &self.label
    }

    /// Reuse this context for another (untraced) block without reallocating.
    pub(crate) fn reset_for_block(&mut self, block_id: usize) {
        self.group[0] = block_id;
        self.width = 1;
        self.reset(block_id, self.spec.lc.shared_words);
        self.fast = self.role == Role::FastReplay && !self.fault.armed();
    }

    /// Reuse this context for a lane group: `group`'s 2 to [`MAX_LANES`]
    /// blocks (none of them armed by a fault plan) execute at once over
    /// values as wide as the group, with word-major shared memory as wide
    /// too and their global stores logged until [`end_undo_log`].
    ///
    /// [`end_undo_log`]: Self::end_undo_log
    pub(crate) fn reset_for_group(&mut self, group: &[usize]) {
        debug_assert_eq!(
            self.role,
            Role::FastReplay,
            "lane groups replay observer-free"
        );
        let width = group.len();
        debug_assert!((2..=MAX_LANES).contains(&width), "a {width}-block lane group");
        self.group[..width].copy_from_slice(group);
        self.width = width;
        self.reset(group[0], self.spec.lc.shared_words * width);
        debug_assert!(!self.fault.armed(), "lane groups hold unarmed blocks");
        self.fast = true;
        self.gmem.begin_undo_log();
    }

    fn reset(&mut self, block_id: usize, shared_len: usize) {
        self.block_id = block_id;
        self.gmem.set_block(block_id);
        self.bufs.shared.clear();
        self.bufs.shared.resize(shared_len, 0.0);
        self.bufs.shared_ready.fill(0);
        for t in &mut self.bufs.threads {
            t.reset_phase(0);
            t.regctr = 0;
        }
        self.phase.clear();
        self.phase_start = 0;
        self.label.clear();
        self.records.clear();
        self.fault.arm(self.spec.fault_map.as_ref(), block_id);
        self.san.arm(block_id);
    }

    pub fn num_threads(&self) -> usize {
        self.spec.lc.threads_per_block
    }

    /// Whether this block runs on the fast path: a replay block of a
    /// launch with no observers attached (no trace sink, sanitizer or
    /// watchdog, and no slow-path opt-out) that its fault plan, if any,
    /// does not arm. Kernels may then compute on plain values with the raw
    /// `sget`/`sset`/`gget`/`gset` primitives (or their `_lanes` forms in
    /// a lane group), skipping per-op bookkeeping entirely; results are
    /// bit-identical as long as the same `f32` operations run in the same
    /// order.
    #[inline]
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Size of the shared-memory allocation in 32-bit words.
    pub fn shared_words(&self) -> usize {
        self.spec.lc.shared_words
    }

    /// How many blocks this context executes at once: 1, or the width W
    /// (2, 4, 8, 16 or 64) of a lane group of a lane-capable kernel
    /// ([`crate::BlockKernel::lane_capable`]). In a group, kernels compute
    /// on W-wide plain values through the `ThreadCtx::*_lanes::<W>`
    /// primitives, lane `l` belonging to the group's `l`-th block.
    #[inline]
    pub fn lane_width(&self) -> usize {
        self.width
    }

    /// The blocks this context executes: its own block, or the blocks of
    /// a lane group.
    #[inline]
    fn lane_blocks(&self) -> &[usize] {
        &self.group[..self.width]
    }

    /// `pred` of the executing block, for a branch on the block id (such
    /// as `block_id >= count`). In a lane group every lane must agree (see
    /// [`uniform`]).
    #[inline]
    pub fn uniform(&mut self, pred: impl Fn(usize) -> bool) -> bool {
        let taken = uniform(self.lane_blocks().iter().map(|&b| pred(b)));
        if let Some(log) = &mut self.outcomes {
            log.push(taken);
        }
        taken
    }

    /// Whether labels are being kept (traced block, sanitizer or watchdog
    /// active). Kernels use this to skip building `format!`ed labels on
    /// replay blocks.
    #[inline]
    pub fn wants_labels(&self) -> bool {
        self.role == Role::Traced || self.san.on || self.san.wd_limit != 0
    }

    /// Name the current phase (applies when the phase closes). Labels are
    /// also kept on untraced blocks when the sanitizer or watchdog is
    /// active, so findings and `LaunchError::Watchdog` carry phase
    /// provenance for every block.
    pub fn phase_label(&mut self, label: impl Into<String>) {
        if self.wants_labels() {
            self.label = label.into();
            self.san.set_phase(&self.label);
        }
    }

    /// Lazily-built variant of [`phase_label`](Self::phase_label): the
    /// closure runs only when labels are kept, so fast replay blocks never
    /// pay for a `format!`.
    pub fn phase_label_with(&mut self, label: impl FnOnce() -> String) {
        if self.wants_labels() {
            self.label = label();
            self.san.set_phase(&self.label);
        }
    }

    /// Execute `f` once per thread, in SIMT order.
    pub fn for_each(&mut self, mut f: impl FnMut(&mut ThreadCtx)) {
        let spec = self.spec;
        for tid in 0..spec.lc.threads_per_block {
            let mut t = ThreadCtx {
                tid,
                block_id: self.block_id,
                group: &self.group,
                width: self.width,
                traced: self.role == Role::Traced,
                fast: self.fast,
                cfg: spec.cfg,
                math: spec.lc.math,
                tt: &mut self.bufs.threads[tid],
                shared: &mut self.bufs.shared,
                shared_ready: &mut self.bufs.shared_ready,
                gmem: &mut self.gmem,
                phase: &mut self.phase,
                memhier: self.memhier,
                spill: spec.spill,
                fault: &mut self.fault,
                san: &mut self.san,
                shadow: spec.shadow.as_ref(),
                outcomes: &mut self.outcomes,
            };
            f(&mut t);
        }
    }

    /// `__syncthreads()`: barrier plus phase boundary.
    pub fn sync(&mut self) {
        self.san.on_sync();
        self.close_phase(true);
    }

    fn close_phase(&mut self, with_sync: bool) {
        if self.role != Role::Traced {
            return;
        }
        let cfg = self.spec.cfg;
        let raw_end = self
            .bufs
            .threads
            .iter()
            .map(|t| t.clock.max(t.horizon))
            .max()
            .unwrap_or(self.phase_start);
        let mut critical = raw_end - self.phase_start;

        // ---- bank-conflict analysis: group shared accesses by (warp, seq).
        let shared_accesses = self.phase.shared_rec.len() as u64;
        let (conflict_replays, max_warp_replays) = self.analyze_shared();
        let replay_interval = cfg.ldst_issue_interval;
        critical += max_warp_replays * replay_interval;

        // ---- global coalescing and distinct-line DRAM traffic.
        let (transactions, line_bytes) = self.analyze_global();

        // ---- warp-level instruction totals.
        let ws = cfg.warp_size;
        let mut fp_instrs = 0u64;
        let mut ldst_instrs = 0u64;
        let mut sfu_instrs = 0u64;
        let mut block_issue = 0u64;
        for warp in self.bufs.threads.chunks(ws) {
            let wfp = warp.iter().map(|t| t.fp).max().unwrap_or(0);
            let wldst = warp.iter().map(|t| t.ldst).max().unwrap_or(0);
            let wsfu = warp.iter().map(|t| t.sfu).max().unwrap_or(0);
            fp_instrs += wfp;
            ldst_instrs += wldst;
            sfu_instrs += wsfu;
            let fp_cyc = wfp * cfg.fp_issue_interval;
            let ld_cyc = (wldst as f64 * cfg.ldst_issue_interval as f64 * cfg.ldst_sustained_factor)
                .round() as u64;
            block_issue += if cfg.dual_issue {
                fp_cyc.max(ld_cyc)
            } else {
                fp_cyc + ld_cyc
            } + wsfu * cfg.sfu_issue_interval;
        }
        block_issue += conflict_replays * replay_interval;

        let flops: u64 = self.bufs.threads.iter().map(|t| t.flops).sum();

        let sync_cycles = if with_sync {
            cfg.sync_cycles(self.spec.lc.threads_per_block)
        } else {
            0
        };
        critical += sync_cycles;

        self.records.push(PhaseRecord {
            // The label persists across syncs until the kernel changes it,
            // so multi-phase sections aggregate under one name.
            label: self.label.clone(),
            critical_cycles: critical,
            sync_cycles,
            block_issue_cycles: block_issue,
            fp_instrs,
            ldst_instrs,
            sfu_instrs,
            flops,
            shared_accesses,
            conflict_replays,
            global_transactions: transactions,
            global_line_bytes: line_bytes,
            spill_dram_bytes: (self.phase.spill_words as f64 * 4.0 * self.spec.spill.dram_frac)
                .round() as u64,
            had_sync: with_sync,
        });

        let new_start = self.phase_start + critical;
        for t in &mut self.bufs.threads {
            t.reset_phase(new_start);
        }
        self.phase_start = new_start;
        self.phase.clear();
    }

    /// Group the phase's shared accesses by (warp, static-instruction seq)
    /// and count bank-conflict replays. Returns (total, worst-warp).
    fn analyze_shared(&mut self) -> (u64, u64) {
        if self.phase.shared_rec.is_empty() {
            return (0, 0);
        }
        let mut recs = std::mem::take(&mut self.phase.shared_rec);
        recs.sort_unstable_by_key(|r| (r.warp, r.seq));
        let mut total = 0u64;
        let mut per_warp = std::collections::HashMap::new();
        let cfg = self.spec.cfg;
        let mut addrs: Vec<u32> = Vec::with_capacity(cfg.warp_size);
        let mut i = 0;
        while i < recs.len() {
            let key = (recs[i].warp, recs[i].seq);
            addrs.clear();
            while i < recs.len() && (recs[i].warp, recs[i].seq) == key {
                addrs.push(recs[i].addr as u32);
                i += 1;
            }
            let r = u64::from(bank_conflict_replays(cfg.shared_banks, &addrs));
            total += r;
            *per_warp.entry(key.0).or_insert(0u64) += r;
        }
        let worst = per_warp.values().copied().max().unwrap_or(0);
        self.phase.shared_rec = recs;
        self.phase.shared_rec.clear();
        (total, worst)
    }

    /// Coalesce the phase's global accesses into transactions and compute
    /// the distinct-line DRAM footprint.
    fn analyze_global(&mut self) -> (u64, u64) {
        if self.phase.global_rec.is_empty() {
            return (0, 0);
        }
        let recs: Vec<AccessRec> = std::mem::take(&mut self.phase.global_rec);
        let mut sorted = recs;
        sorted.sort_unstable_by_key(|r| (r.warp, r.seq));
        let cfg = self.spec.cfg;
        let line = cfg.dram_line_bytes;
        let mut transactions = 0u64;
        let mut addrs: Vec<u64> = Vec::with_capacity(cfg.warp_size);
        let mut i = 0;
        while i < sorted.len() {
            let key = (sorted[i].warp, sorted[i].seq);
            addrs.clear();
            while i < sorted.len() && (sorted[i].warp, sorted[i].seq) == key {
                addrs.push(sorted[i].addr);
                i += 1;
            }
            transactions += u64::from(coalesced_transactions(line, &addrs));
        }
        // Loads and stores are separate DRAM traffic even when they touch
        // the same lines (read + write-back of an in-place factorization).
        let load_lines = distinct_lines(
            line,
            sorted.iter().filter(|r| !r.store).map(|r| r.addr),
        );
        let store_lines = distinct_lines(
            line,
            sorted.iter().filter(|r| r.store).map(|r| r.addr),
        );
        let bytes = ((load_lines.len() + store_lines.len()) * line) as u64;
        (transactions, bytes)
    }

    /// Close the final phase and return the records (traced block only).
    pub(crate) fn finish(mut self) -> Vec<PhaseRecord> {
        self.close_phase(false);
        std::mem::take(&mut self.records)
    }
}

impl Drop for BlockCtx<'_> {
    fn drop(&mut self) {
        // Retire the buffers to the per-`Gpu` arena so the next launch's
        // contexts allocate nothing.
        self.spec.pool.restore(std::mem::take(&mut self.bufs));
    }
}

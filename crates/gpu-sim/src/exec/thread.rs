//! Per-thread execution context with an in-order scoreboard.
//!
//! Kernels perform arithmetic through [`ThreadCtx`] helper methods that both
//! compute the value and account its cost. Every value is an [`Rv`]
//! ("register value") carrying the cycle at which it becomes available; an
//! instruction issues when its operands are ready and its functional unit's
//! issue slot is free, and completes after the unit's pipeline latency.
//! This reproduces the latency-bound behaviour the paper measures for the
//! one-problem-per-block factorizations (Table V) while still letting
//! high-occupancy streaming kernels reach the throughput bounds.

use crate::config::{GpuConfig, MathMode};
use crate::exec::occupancy::Occupancy;
use crate::exec::schedule::Outcomes;
use crate::exec::{uniform, LaunchConfig, MAX_LANES};
use crate::fault::FaultState;
use crate::mem::global::GmemAccess;
use crate::mem::{DPtr, MemHier};
use crate::sanitize::{LaunchShadow, SanitizerState, WatchdogTrip};

/// Functional-unit classes with distinct issue ports/intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// CUDA cores: FP32 and integer ALU. One warp instruction per cycle.
    Fp = 0,
    /// Load/store units (shared, global, local). One per two cycles.
    LdSt = 1,
    /// Special function units (reciprocal, sqrt). One per eight cycles.
    Sfu = 2,
}

/// A tracked register value: an `f32` plus the cycle it becomes readable.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rv {
    pub v: f32,
    pub(crate) ready: u64,
}

impl Rv {
    /// An immediate/compile-time constant (always ready).
    pub fn imm(v: f32) -> Rv {
        Rv { v, ready: 0 }
    }

    pub fn val(self) -> f32 {
        self.v
    }
}

/// A tracked complex value built from two register values.
#[derive(Clone, Copy, Debug, Default)]
pub struct CRv {
    pub re: Rv,
    pub im: Rv,
}

impl CRv {
    pub fn imm(re: f32, im: f32) -> CRv {
        CRv {
            re: Rv::imm(re),
            im: Rv::imm(im),
        }
    }

    pub fn val(self) -> (f32, f32) {
        (self.re.v, self.im.v)
    }
}

/// Emulate the 22-mantissa-bit accuracy of the GF100 SFU fast paths by
/// truncating the low bits of the correctly-rounded result.
#[inline]
pub fn trunc22(x: f32) -> f32 {
    if x.is_finite() {
        f32::from_bits(x.to_bits() & !0x3)
    } else {
        x
    }
}

/// Per-thread timing state, persisted across phases by the block context.
#[derive(Clone, Debug, Default)]
pub(crate) struct ThreadTiming {
    pub clock: u64,
    pub horizon: u64,
    pub next_free: [u64; 3],
    pub last_issue: u64,
    pub dual_used: bool,
    // per-phase instruction counts (reset at each phase boundary)
    pub fp: u64,
    pub ldst: u64,
    pub sfu: u64,
    pub flops: u64,
    pub sseq: u32,
    pub gseq: u32,
    pub regctr: u64,
}

impl ThreadTiming {
    pub fn reset_phase(&mut self, at: u64) {
        self.clock = at;
        self.horizon = at;
        self.next_free = [at; 3];
        self.last_issue = at;
        self.dual_used = false;
        self.fp = 0;
        self.ldst = 0;
        self.sfu = 0;
        self.flops = 0;
        self.sseq = 0;
        self.gseq = 0;
    }
}

/// One recorded memory access (traced block only).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessRec {
    pub warp: u32,
    pub seq: u32,
    pub addr: u64,
    pub store: bool,
}

/// Accumulator for the current phase of the traced block.
#[derive(Default)]
pub(crate) struct PhaseAccum {
    pub shared_rec: Vec<AccessRec>,
    pub global_rec: Vec<AccessRec>,
    pub spill_words: u64,
}

impl PhaseAccum {
    pub fn clear(&mut self) {
        self.shared_rec.clear();
        self.global_rec.clear();
        self.spill_words = 0;
    }
}

/// Register-spill parameters derived from the launch configuration.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SpillInfo {
    /// Every `every`-th register-array access touches a spilled register
    /// (0 = no spilling). nvcc spills the coldest registers, so the hit
    /// probability is quadratic in the spilled fraction.
    pub every: u64,
    /// Blended latency of a spilled access (L1 hit / DRAM mix).
    pub latency: u64,
    /// Fraction of spilled accesses that overflow the L1 into DRAM.
    pub dram_frac: f64,
}

impl SpillInfo {
    /// The spill parameters of a launch at occupancy `occ`. nvcc spills the
    /// least-used registers, so the probability that a given access
    /// touches a spilled value is roughly quadratic in the spilled
    /// fraction; spills land in the L1 (48 kB when the kernel's shared
    /// footprint allows the prefer-L1 split) and overflow to DRAM beyond
    /// its capacity.
    pub(crate) fn new(cfg: &GpuConfig, occ: &Occupancy, lc: &LaunchConfig) -> Self {
        if occ.regs_spilled == 0 {
            return SpillInfo::default();
        }
        let rho = occ.regs_spilled as f64 / lc.regs_per_thread as f64;
        let every = (1.0 / (rho * rho)).round().max(1.0) as u64;
        let footprint = (occ.regs_spilled * 4 * lc.threads_per_block * occ.blocks_per_sm) as f64;
        let l1_eff = if lc.shared_words * 4 <= cfg.l1_bytes_per_sm {
            cfg.prefer_l1_bytes_per_sm.max(cfg.l1_bytes_per_sm)
        } else {
            cfg.l1_bytes_per_sm
        } as f64;
        let hit_frac = (l1_eff / footprint).min(1.0);
        let latency =
            hit_frac * cfg.l1_latency as f64 + (1.0 - hit_frac) * cfg.dram_row_hit_latency as f64;
        SpillInfo {
            every,
            latency: latency.round() as u64,
            dram_frac: 1.0 - hit_frac,
        }
    }
}

/// The device-side view of one thread.
///
/// The second lifetime `'m` is the device-memory borrow carried by the
/// simulator's internal device-memory handle; it outlives the per-`for_each` borrow `'a`, which
/// is what lets replay workers reuse one block context across many blocks
/// while sharing the memory view. Elision hides both from kernels, which
/// only ever see `&mut ThreadCtx`.
pub struct ThreadCtx<'a, 'm> {
    pub tid: usize,
    /// The executing block (the first lane's block in a lane group).
    pub block_id: usize,
    /// The blocks of the lane group (see [`crate::BlockCtx::lane_width`]):
    /// the first `width` entries, `[block_id]` outside a group.
    pub(crate) group: &'a [usize; MAX_LANES],
    /// Blocks this thread executes at once (1 outside a lane group).
    pub(crate) width: usize,
    pub(crate) traced: bool,
    /// Fast-path flag (see [`crate::BlockCtx::fast`]); only checked by the
    /// debug assertions guarding the raw primitives.
    pub(crate) fast: bool,
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) math: MathMode,
    pub(crate) tt: &'a mut ThreadTiming,
    pub(crate) shared: &'a mut [f32],
    pub(crate) shared_ready: &'a mut [u64],
    pub(crate) gmem: &'a mut GmemAccess<'m>,
    pub(crate) phase: &'a mut PhaseAccum,
    pub(crate) memhier: &'a mut MemHier,
    pub(crate) spill: SpillInfo,
    /// Block-shared fault-injection state (no-op unless a plan armed it).
    pub(crate) fault: &'a mut FaultState,
    /// Block-shared sanitizer/watchdog state (inert unless the launch
    /// enabled either).
    pub(crate) san: &'a mut SanitizerState,
    /// Launch-level global-memory shadow (`Some` iff the sanitizer is on).
    pub(crate) shadow: Option<&'a LaunchShadow>,
    /// Block-shared branch-outcome log (`Some` while a keyed launch runs
    /// block 0; see the schedule cache).
    pub(crate) outcomes: &'a mut Option<Outcomes>,
}

impl<'a> ThreadCtx<'a, '_> {
    /// Record a branch outcome in the block's log (when on) and return it.
    #[inline]
    fn branch(&mut self, taken: bool) -> bool {
        if let Some(log) = self.outcomes {
            log.push(taken);
        }
        taken
    }

    /// The blocks this thread executes: its own block, or the blocks of a
    /// lane group.
    #[inline]
    fn lane_blocks(&self) -> &[usize] {
        &self.group[..self.width]
    }

    /// The blocks of this `W`-wide lane group.
    #[inline]
    fn lanes<const W: usize>(&self) -> &'a [usize; W] {
        debug_assert!(W > 1 && W == self.width, "a {W}-lane access in a group of {}", self.width);
        self.group.first_chunk().expect("lane groups are at most MAX_LANES wide")
    }

    /// `pred` of the executing block, for a branch on the block id (a
    /// per-block problem guard such as `pid >= count`). In a lane group
    /// every lane must agree (see [`uniform`]).
    #[inline]
    pub fn uniform(&mut self, pred: impl Fn(usize) -> bool) -> bool {
        let taken = uniform(self.lane_blocks().iter().map(|&b| pred(b)));
        self.branch(taken)
    }

    /// Watchdog tick: every scoreboarded op counts against the per-block
    /// budget, traced or not, so a livelocked replay block trips too. The
    /// trip unwinds as a typed payload that `Gpu::launch` converts into
    /// `LaunchError::Watchdog`.
    #[inline]
    fn step(&mut self) {
        if self.san.wd_limit != 0 {
            self.san.wd_ops += 1;
            if self.san.wd_ops > self.san.wd_limit {
                std::panic::panic_any(WatchdogTrip {
                    ops: self.san.wd_ops,
                    limit: self.san.wd_limit,
                });
            }
        }
    }

    /// Announce this thread's arrival at a barrier for the sanitizer's
    /// synccheck. Call once per thread immediately before the block-level
    /// `sync()`; threads that skip it (divergent control flow) are
    /// reported. A no-op unless the sanitizer is on.
    pub fn barrier(&mut self) {
        self.san.barrier(self.tid);
    }

    #[inline]
    fn interval(&self, c: Class) -> u64 {
        match c {
            Class::Fp => self.cfg.fp_issue_interval,
            Class::LdSt => self.cfg.ldst_issue_interval,
            Class::Sfu => self.cfg.sfu_issue_interval,
        }
    }

    /// Issue one warp instruction of class `c` whose operands are ready at
    /// `ready`; returns the issue cycle.
    #[inline]
    fn issue(&mut self, c: Class, ready: u64) -> u64 {
        let interval = self.interval(c);
        let t = &mut *self.tt;
        let mut start = ready.max(t.next_free[c as usize]).max(t.last_issue);
        if start == t.last_issue {
            if self.cfg.dual_issue && !t.dual_used {
                t.dual_used = true;
            } else {
                start += 1;
                t.dual_used = false;
            }
        } else {
            t.dual_used = false;
        }
        t.next_free[c as usize] = start + interval;
        t.last_issue = start;
        t.clock = t.clock.max(start);
        match c {
            Class::Fp => t.fp += 1,
            Class::LdSt => t.ldst += 1,
            Class::Sfu => t.sfu += 1,
        }
        start
    }

    #[inline]
    fn complete(&mut self, start: u64, latency: u64) -> u64 {
        let ready = start + latency;
        self.tt.horizon = self.tt.horizon.max(ready);
        ready
    }

    #[inline]
    fn alu(&mut self, v: f32, ready: u64, flops: u64) -> Rv {
        self.step();
        if !self.traced {
            return Rv { v, ready: 0 };
        }
        let start = self.issue(Class::Fp, ready);
        self.tt.flops += flops;
        let ready = self.complete(start, self.cfg.alu_latency);
        Rv { v, ready }
    }

    /// An always-ready literal.
    #[inline]
    pub fn lit(&mut self, v: f32) -> Rv {
        Rv::imm(v)
    }

    /// Current thread-local cycle counter (the CUDA `clock()` analogue).
    pub fn now(&self) -> u64 {
        self.tt.clock.max(self.tt.horizon)
    }

    // ---- real arithmetic ----

    #[inline]
    pub fn add(&mut self, a: Rv, b: Rv) -> Rv {
        self.alu(a.v + b.v, a.ready.max(b.ready), 1)
    }

    #[inline]
    pub fn sub(&mut self, a: Rv, b: Rv) -> Rv {
        self.alu(a.v - b.v, a.ready.max(b.ready), 1)
    }

    #[inline]
    pub fn mul(&mut self, a: Rv, b: Rv) -> Rv {
        self.alu(a.v * b.v, a.ready.max(b.ready), 1)
    }

    /// Fused multiply-add `a*b + c` (one issue slot, two FLOPs).
    #[inline]
    pub fn fma(&mut self, a: Rv, b: Rv, c: Rv) -> Rv {
        self.alu(a.v * b.v + c.v, a.ready.max(b.ready).max(c.ready), 2)
    }

    /// Fused negate-multiply-add `c - a*b` (one issue slot, two FLOPs).
    #[inline]
    pub fn fnma(&mut self, a: Rv, b: Rv, c: Rv) -> Rv {
        self.alu(c.v - a.v * b.v, a.ready.max(b.ready).max(c.ready), 2)
    }

    /// Negation is a source modifier on GF100: free.
    #[inline]
    pub fn neg(&mut self, a: Rv) -> Rv {
        Rv {
            v: -a.v,
            ready: a.ready,
        }
    }

    /// Absolute value is a source modifier: free.
    #[inline]
    pub fn abs(&mut self, a: Rv) -> Rv {
        Rv {
            v: a.v.abs(),
            ready: a.ready,
        }
    }

    /// An untracked integer ALU operation (address arithmetic, loop
    /// counters); occupies an FP-class issue slot but is not a FLOP.
    #[inline]
    pub fn int_op(&mut self) -> u64 {
        self.step();
        if !self.traced {
            return 0;
        }
        let start = self.issue(Class::Fp, self.tt.clock);
        self.complete(start, self.cfg.alu_latency)
    }

    /// Integer op whose result feeds an address: returns a readiness token.
    #[inline]
    pub fn int_dep(&mut self, dep: u64) -> u64 {
        self.step();
        if !self.traced {
            return 0;
        }
        let start = self.issue(Class::Fp, dep);
        self.complete(start, self.cfg.alu_latency)
    }

    /// Readiness cycle of a value (for explicit address dependencies).
    #[inline]
    pub fn ready_of(&self, a: Rv) -> u64 {
        a.ready
    }

    /// Integer op consuming `a` (e.g. the SHL.W scaling an index to a byte
    /// address); returns the completion cycle.
    #[inline]
    pub fn int_dep_of(&mut self, a: Rv) -> u64 {
        self.int_dep(a.ready)
    }

    /// A dependent integer op that produces a value (chained shifts in the
    /// pipeline-latency calibration).
    #[inline]
    pub fn int_chain(&mut self, a: Rv) -> Rv {
        self.step();
        if !self.traced {
            return a;
        }
        let start = self.issue(Class::Fp, a.ready);
        let ready = self.complete(start, self.cfg.alu_latency);
        Rv { v: a.v, ready }
    }

    // ---- comparisons / control (charge one ALU op, return host bool) ----
    //
    // A kernel takes every data-dependent branch through `is_zero`/`gt`
    // (or their value-only twins on plain values): the schedule cache keys
    // a launch on the outcomes these record.

    /// Charge one comparison whose operands are ready at `ready`.
    #[inline]
    fn compare(&mut self, ready: u64) {
        self.step();
        if self.traced {
            let start = self.issue(Class::Fp, ready);
            self.complete(start, self.cfg.alu_latency);
        }
    }

    #[inline]
    pub fn is_zero(&mut self, a: Rv) -> bool {
        self.compare(a.ready);
        self.branch(a.v == 0.0)
    }

    #[inline]
    pub fn gt(&mut self, a: Rv, b: Rv) -> bool {
        self.compare(a.ready.max(b.ready));
        self.branch(a.v > b.v)
    }

    /// `-v` when `a > b`, else `v`: one comparison and a free negation,
    /// a select rather than a branch, so no outcome is recorded (the op
    /// sequence is the same either way).
    #[inline]
    pub fn neg_if_gt(&mut self, v: Rv, a: Rv, b: Rv) -> Rv {
        self.compare(a.ready.max(b.ready));
        if a.v > b.v {
            self.neg(v)
        } else {
            v
        }
    }

    /// Value-only `a == 0.0` on a plain value, recorded like [`is_zero`].
    ///
    /// [`is_zero`]: Self::is_zero
    #[inline]
    pub fn v_is_zero(&mut self, a: f32) -> bool {
        self.branch(a == 0.0)
    }

    /// Value-only `a > b` on plain values, recorded like [`gt`].
    ///
    /// [`gt`]: Self::gt
    #[inline]
    pub fn v_gt(&mut self, a: f32, b: f32) -> bool {
        self.branch(a > b)
    }

    // ---- special functions ----

    /// Reciprocal. Fast mode uses the SFU (22-bit accurate); precise mode
    /// the correctly-rounded software sequence.
    pub fn recip(&mut self, a: Rv) -> Rv {
        self.step();
        match self.math {
            MathMode::Fast => {
                let v = trunc22(1.0 / a.v);
                if !self.traced {
                    return Rv { v, ready: 0 };
                }
                let start = self.issue(Class::Sfu, a.ready);
                let ready = self.complete(start, self.cfg.fast_recip_latency);
                self.tt.flops += 1;
                Rv { v, ready }
            }
            MathMode::Precise => {
                let v = 1.0 / a.v;
                if !self.traced {
                    return Rv { v, ready: 0 };
                }
                let mut start = self.issue(Class::Sfu, a.ready);
                for _ in 0..self.cfg.precise_extra_issue {
                    start = self.issue(Class::Fp, start);
                }
                let ready = self.complete(start, self.cfg.precise_div_latency);
                self.tt.flops += 1;
                Rv { v, ready }
            }
        }
    }

    /// Square root.
    pub fn sqrt(&mut self, a: Rv) -> Rv {
        self.step();
        match self.math {
            MathMode::Fast => {
                let v = trunc22(a.v.sqrt());
                if !self.traced {
                    return Rv { v, ready: 0 };
                }
                let start = self.issue(Class::Sfu, a.ready);
                let ready = self.complete(start, self.cfg.fast_sqrt_latency);
                self.tt.flops += 1;
                Rv { v, ready }
            }
            MathMode::Precise => {
                let v = a.v.sqrt();
                if !self.traced {
                    return Rv { v, ready: 0 };
                }
                let mut start = self.issue(Class::Sfu, a.ready);
                for _ in 0..self.cfg.precise_extra_issue {
                    start = self.issue(Class::Fp, start);
                }
                let ready = self.complete(start, self.cfg.precise_sqrt_latency);
                self.tt.flops += 1;
                Rv { v, ready }
            }
        }
    }

    // ---- shared memory ----

    #[inline]
    fn record_shared(&mut self, word: usize) {
        let warp = (self.tid / self.cfg.warp_size) as u32;
        let seq = self.tt.sseq;
        self.tt.sseq += 1;
        self.phase.shared_rec.push(AccessRec {
            warp,
            seq,
            addr: word as u64,
            store: false,
        });
    }

    /// Load a word from block shared memory.
    pub fn shared_load(&mut self, word: usize) -> Rv {
        self.step();
        if self.san.on && !self.san.shared_load(self.tid, word) {
            return Rv { v: 0.0, ready: 0 };
        }
        let v = self.shared[word];
        if !self.traced {
            return Rv { v, ready: 0 };
        }
        self.record_shared(word);
        let dep = self.shared_ready[word];
        let start = self.issue(Class::LdSt, dep);
        let ready = self.complete(start, self.cfg.shared_latency);
        Rv { v, ready }
    }

    /// Load whose address depends on a previous result (pointer chasing).
    pub fn shared_load_dep(&mut self, word: usize, addr_ready: u64) -> Rv {
        self.step();
        if self.san.on && !self.san.shared_load(self.tid, word) {
            return Rv { v: 0.0, ready: 0 };
        }
        let v = self.shared[word];
        if !self.traced {
            return Rv { v, ready: 0 };
        }
        self.record_shared(word);
        let dep = addr_ready.max(self.shared_ready[word]);
        let start = self.issue(Class::LdSt, dep);
        let ready = self.complete(start, self.cfg.shared_latency);
        Rv { v, ready }
    }

    /// Store a word to block shared memory.
    pub fn shared_store(&mut self, word: usize, x: Rv) {
        self.step();
        let stored = self.fault.on_shared_store(x.v);
        if self.san.on && !self.san.shared_store(self.tid, word, stored.is_some()) {
            return;
        }
        if let Some(v) = stored {
            self.shared[word] = v;
        }
        if !self.traced {
            return;
        }
        self.record_shared(word);
        let start = self.issue(Class::LdSt, x.ready);
        let done = self.complete(start, self.cfg.shared_latency);
        self.shared_ready[word] = self.shared_ready[word].max(done);
    }

    // ---- global memory ----

    #[inline]
    fn record_global(&mut self, byte_addr: u64, store: bool) {
        let warp = (self.tid / self.cfg.warp_size) as u32;
        let seq = self.tt.gseq;
        self.tt.gseq += 1;
        self.phase.global_rec.push(AccessRec {
            warp,
            seq,
            addr: byte_addr,
            store,
        });
    }

    /// Load a word from global memory (bandwidth-accounted path).
    pub fn gload(&mut self, p: DPtr, idx: usize) -> Rv {
        self.step();
        if self.san.on {
            let shadow = self.shadow.expect("sanitized launch has a shadow");
            if !self.san.global_load(self.tid, p.0 + idx, shadow) {
                return Rv { v: 0.0, ready: 0 };
            }
        }
        let v = self.gmem.read(p, idx);
        if !self.traced {
            return Rv { v, ready: 0 };
        }
        self.record_global(p.offset(idx).byte_addr(), false);
        let start = self.issue(Class::LdSt, self.tt.clock);
        let ready = self.complete(start, self.cfg.dram_row_miss_latency);
        Rv { v, ready }
    }

    /// Dependent global load routed through the latency hierarchy
    /// (pointer-chasing microbenchmarks).
    pub fn gload_dep(&mut self, p: DPtr, idx: usize, addr_ready: u64) -> Rv {
        self.step();
        if self.san.on {
            let shadow = self.shadow.expect("sanitized launch has a shadow");
            if !self.san.global_load(self.tid, p.0 + idx, shadow) {
                return Rv { v: 0.0, ready: 0 };
            }
        }
        let v = self.gmem.read(p, idx);
        if !self.traced {
            return Rv { v, ready: 0 };
        }
        self.record_global(p.offset(idx).byte_addr(), false);
        let start = self.issue(Class::LdSt, addr_ready);
        let lat = self.memhier.load_latency(p.offset(idx).byte_addr());
        let ready = self.complete(start, lat);
        Rv { v, ready }
    }

    /// Store a word to global memory. An armed fault plan may flip a bit
    /// of the stored value or drop the store entirely (aborted block);
    /// timing is charged either way — a faulted device still issues the
    /// instruction.
    pub fn gstore(&mut self, p: DPtr, idx: usize, x: Rv) {
        self.step();
        let stored = self.fault.on_global_store(x.v);
        if self.san.on {
            let shadow = self.shadow.expect("sanitized launch has a shadow");
            if !self
                .san
                .global_store(self.tid, p.0 + idx, stored.is_some(), shadow)
            {
                return;
            }
        }
        if let Some(v) = stored {
            self.gmem.write(p, idx, v);
        }
        if !self.traced {
            return;
        }
        self.record_global(p.offset(idx).byte_addr(), true);
        let start = self.issue(Class::LdSt, x.ready);
        self.complete(start, 1);
    }

    // ---- register-array spill accounting ----

    /// Called on each register-array access; returns the ready cycle of a
    /// spilled (local-memory) access, or `None` when the access stays in
    /// the register file.
    #[inline]
    pub(crate) fn reg_access(&mut self, words: u64, _store: bool) -> Option<u64> {
        self.step();
        // The spill counter feeds nothing but the traced block's spill
        // accounting, so untraced (replay) threads skip the divisions
        // entirely — on heavily-spilled kernels they dominate replay cost.
        if self.spill.every == 0 || !self.traced {
            return None;
        }
        self.tt.regctr += words;
        // Deterministic sampling: every `every`-th word is spilled.
        let prev = self.tt.regctr - words;
        let hits = self.tt.regctr / self.spill.every - prev / self.spill.every;
        if hits == 0 {
            return None;
        }
        self.phase.spill_words += hits;
        let mut ready = 0;
        for _ in 0..hits {
            let start = self.issue(Class::LdSt, self.tt.clock);
            ready = self.complete(start, self.spill.latency);
        }
        Some(ready)
    }

    /// Scoreboarded read of register `i` of a register array held as a
    /// plain slice: charges spill traffic like [`RegArray::get`].
    #[inline]
    pub fn reg_get<T: RegVal>(&mut self, regs: &[T], i: usize) -> T {
        match self.reg_access(T::REG_WORDS, false) {
            Some(ready) => regs[i].with_ready(ready),
            None => regs[i],
        }
    }

    /// Scoreboarded write of register `i` (spill traffic and the fault
    /// plan's register hook, like [`RegArray::set`]).
    #[inline]
    pub fn reg_set<T: RegVal>(&mut self, regs: &mut [T], i: usize, x: T) {
        self.reg_access(T::REG_WORDS, true);
        regs[i] = match self.fault.on_reg_store() {
            Some(bit) => x.flip_bit(bit),
            None => x,
        };
    }

    // ---- fast-path raw primitives ----
    //
    // Available only on fast blocks (`BlockCtx::fast`: replay block, no
    // observers) outside lane groups. They perform exactly the same
    // memory/`f32` operations as the scoreboarded equivalents but skip
    // all per-op bookkeeping: no watchdog tick, no access records, no
    // readiness tracking. Because a block is only fast with the sanitizer
    // off and no fault armed in it, skipping those hooks cannot change
    // behaviour.

    /// Raw shared-memory load (fast path only).
    #[inline]
    pub fn sget(&self, word: usize) -> f32 {
        debug_assert!(self.fast && self.width == 1, "sget is a fast-path primitive");
        self.shared[word]
    }

    /// Raw shared-memory store (fast path only).
    #[inline]
    pub fn sset(&mut self, word: usize, v: f32) {
        debug_assert!(self.fast && self.width == 1, "sset is a fast-path primitive");
        self.shared[word] = v;
    }

    /// Raw global-memory load (fast path only). Still routed through the
    /// `GmemAccess` handle so the `REGLA_SIM_CHECK` disjoint-write checker
    /// keeps seeing every access.
    #[inline]
    pub fn gget(&mut self, p: DPtr, idx: usize) -> f32 {
        debug_assert!(self.fast && self.width == 1, "gget is a fast-path primitive");
        self.gmem.read(p, idx)
    }

    /// Raw global-memory store (fast path only).
    #[inline]
    pub fn gset(&mut self, p: DPtr, idx: usize, v: f32) {
        debug_assert!(self.fast && self.width == 1, "gset is a fast-path primitive");
        self.gmem.write(p, idx, v);
    }

    /// Bulk raw load of `len` consecutive words (fast path only): the
    /// access-path dispatch and bounds check are hoisted out of the loop,
    /// which matters when a kernel streams whole problems to registers.
    #[inline]
    pub fn gget_span(&mut self, p: DPtr, idx: usize, len: usize, f: impl FnMut(usize, f32)) {
        debug_assert!(self.fast && self.width == 1, "gget_span is a fast-path primitive");
        self.gmem.read_span(p, idx, len, f);
    }

    /// Bulk raw store of `len` consecutive words (fast path only).
    #[inline]
    pub fn gset_span(&mut self, p: DPtr, idx: usize, len: usize, f: impl FnMut(usize) -> f32) {
        debug_assert!(self.fast && self.width == 1, "gset_span is a fast-path primitive");
        self.gmem.write_span(p, idx, len, f);
    }

    // ---- lane-group primitives ----
    //
    // Available only in a lane group of `W` blocks (`BlockCtx::lane_width`
    // is `W`): lane `l` of every value belongs to the group's `l`-th block
    // `b_l`. Shared memory is `W` wide and word-major (word `w` of lane
    // `l` at `w * W + l`), and global accesses name the per-block slab —
    // lane `l` reaches word `p + b_l * stride + off` — so one access
    // serves every lane's own problem. Global stores are logged so an
    // abandoned group can be undone.

    /// Lane-wide raw shared-memory load.
    #[inline]
    pub fn sget_lanes<const W: usize>(&self, word: usize) -> [f32; W] {
        debug_assert_eq!(W, self.width, "sget_lanes is a lane-group primitive");
        *self.shared[word * W..]
            .first_chunk()
            .expect("shared word in range")
    }

    /// Lane-wide raw shared-memory store.
    #[inline]
    pub fn sset_lanes<const W: usize>(&mut self, word: usize, v: [f32; W]) {
        debug_assert_eq!(W, self.width, "sset_lanes is a lane-group primitive");
        self.shared[word * W..][..W].copy_from_slice(&v);
    }

    /// Lane-wide raw global load of word `off` of each lane's slab.
    #[inline]
    pub fn gget_lanes<const W: usize>(&mut self, p: DPtr, stride: usize, off: usize) -> [f32; W] {
        let blocks = self.lanes();
        self.gmem.read_lanes(p, stride, off, blocks)
    }

    /// Lane-wide raw global store to word `off` of each lane's slab.
    #[inline]
    pub fn gset_lanes<const W: usize>(&mut self, p: DPtr, stride: usize, off: usize, v: [f32; W]) {
        let blocks = self.lanes();
        self.gmem.write_lanes(p, stride, off, blocks, v);
    }

    /// Lane-wide bulk load of words `off..off + len` of each lane's slab,
    /// handing `(offset, lane, value)` to `f`.
    #[inline]
    pub fn gget_span_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        len: usize,
        f: impl FnMut(usize, usize, f32),
    ) {
        let blocks = self.lanes::<W>();
        self.gmem.read_span_lanes(p, stride, off, len, blocks, f);
    }

    /// Lane-wide bulk store of `f(offset, lane)` to words `off..off + len`
    /// of each lane's slab.
    #[inline]
    pub fn gset_span_lanes<const W: usize>(
        &mut self,
        p: DPtr,
        stride: usize,
        off: usize,
        len: usize,
        f: impl FnMut(usize, usize) -> f32,
    ) {
        let blocks = self.lanes::<W>();
        self.gmem.write_span_lanes(p, stride, off, len, blocks, f);
    }

    /// Value-only reciprocal with the launch's math-mode semantics
    /// (bit-identical to `recip`).
    #[inline]
    pub fn v_recip(&self, a: f32) -> f32 {
        match self.math {
            MathMode::Fast => trunc22(1.0 / a),
            MathMode::Precise => 1.0 / a,
        }
    }

    /// Value-only square root (bit-identical to `sqrt`).
    #[inline]
    pub fn v_sqrt(&self, a: f32) -> f32 {
        match self.math {
            MathMode::Fast => trunc22(a.sqrt()),
            MathMode::Precise => a.sqrt(),
        }
    }

    // ---- complex arithmetic (built from counted real ops) ----

    pub fn cadd(&mut self, a: CRv, b: CRv) -> CRv {
        CRv {
            re: self.add(a.re, b.re),
            im: self.add(a.im, b.im),
        }
    }

    pub fn csub(&mut self, a: CRv, b: CRv) -> CRv {
        CRv {
            re: self.sub(a.re, b.re),
            im: self.sub(a.im, b.im),
        }
    }

    /// Complex multiply: 2 MUL + 2 FMA (6 FLOPs).
    pub fn cmul(&mut self, a: CRv, b: CRv) -> CRv {
        let t1 = self.mul(a.re, b.re);
        let re = self.fnma(a.im, b.im, t1);
        let t2 = self.mul(a.re, b.im);
        let im = self.fma(a.im, b.re, t2);
        CRv { re, im }
    }

    /// Complex fused multiply-add `acc + a*b`: 4 FMA (8 FLOPs).
    pub fn cfma(&mut self, a: CRv, b: CRv, acc: CRv) -> CRv {
        let t1 = self.fma(a.re, b.re, acc.re);
        let re = self.fnma(a.im, b.im, t1);
        let t2 = self.fma(a.re, b.im, acc.im);
        let im = self.fma(a.im, b.re, t2);
        CRv { re, im }
    }

    /// `acc - a*b`: 4 FMA-class ops.
    pub fn cfnma(&mut self, a: CRv, b: CRv, acc: CRv) -> CRv {
        let t1 = self.fnma(a.re, b.re, acc.re);
        let re = self.fma(a.im, b.im, t1);
        let t2 = self.fnma(a.re, b.im, acc.im);
        let im = self.fnma(a.im, b.re, t2);
        CRv { re, im }
    }

    /// Complex value scaled by a real.
    pub fn cscale(&mut self, a: CRv, s: Rv) -> CRv {
        CRv {
            re: self.mul(a.re, s),
            im: self.mul(a.im, s),
        }
    }

    /// Conjugation is a sign flip: free.
    pub fn conj(&mut self, a: CRv) -> CRv {
        CRv {
            re: a.re,
            im: self.neg(a.im),
        }
    }

    /// Squared magnitude `re^2 + im^2` (MUL + FMA).
    pub fn cnorm_sq(&mut self, a: CRv) -> Rv {
        let t = self.mul(a.re, a.re);
        self.fma(a.im, a.im, t)
    }

    /// Complex reciprocal via `conj(z) / |z|^2`.
    pub fn crecip(&mut self, a: CRv) -> CRv {
        let n = self.cnorm_sq(a);
        let r = self.recip(n);
        let c = self.conj(a);
        self.cscale(c, r)
    }

    /// Load a complex (two consecutive words) from shared memory.
    pub fn cshared_load(&mut self, word: usize) -> CRv {
        CRv {
            re: self.shared_load(word),
            im: self.shared_load(word + 1),
        }
    }

    /// Store a complex to shared memory.
    pub fn cshared_store(&mut self, word: usize, x: CRv) {
        self.shared_store(word, x.re);
        self.shared_store(word + 1, x.im);
    }

    /// Load a complex (two consecutive words) from global memory.
    pub fn cgload(&mut self, p: DPtr, idx: usize) -> CRv {
        if self.san.on {
            let shadow = self.shadow.expect("sanitized launch has a shadow");
            self.san.complex_global(self.tid, p.0 + 2 * idx, shadow);
        }
        CRv {
            re: self.gload(p, 2 * idx),
            im: self.gload(p, 2 * idx + 1),
        }
    }

    /// Store a complex to global memory.
    pub fn cgstore(&mut self, p: DPtr, idx: usize, x: CRv) {
        if self.san.on {
            let shadow = self.shadow.expect("sanitized launch has a shadow");
            self.san.complex_global(self.tid, p.0 + 2 * idx, shadow);
        }
        self.gstore(p, 2 * idx, x.re);
        self.gstore(p, 2 * idx + 1, x.im);
    }
}

/// Trait for values storable in a register array.
pub trait RegVal: Copy + Default {
    const REG_WORDS: u64;
    fn with_ready(self, ready: u64) -> Self;
    /// Flip one bit of the stored word (fault injection; complex values
    /// flip the real component).
    fn flip_bit(self, bit: u32) -> Self;
}

impl RegVal for Rv {
    const REG_WORDS: u64 = 1;
    fn with_ready(self, ready: u64) -> Self {
        Rv {
            v: self.v,
            ready: self.ready.max(ready),
        }
    }

    fn flip_bit(self, bit: u32) -> Self {
        Rv {
            v: f32::from_bits(self.v.to_bits() ^ (1 << (bit % 32))),
            ready: self.ready,
        }
    }
}

impl RegVal for CRv {
    const REG_WORDS: u64 = 2;
    fn with_ready(self, ready: u64) -> Self {
        CRv {
            re: self.re.with_ready(ready),
            im: self.im.with_ready(ready),
        }
    }

    fn flip_bit(self, bit: u32) -> Self {
        CRv {
            re: self.re.flip_bit(bit),
            im: self.im,
        }
    }
}

/// A per-thread register array. When the launch declares more registers
/// than the architecture provides, a deterministic fraction of accesses is
/// charged as local-memory (spill) traffic — this is what produces the
/// performance cliffs at n >= 8 in Figure 4 and at n = 64 / n > 112 in
/// Figure 9.
#[derive(Clone, Debug)]
pub struct RegArray<T: RegVal> {
    v: Vec<T>,
}

impl<T: RegVal> RegArray<T> {
    pub fn zeroed(len: usize) -> Self {
        RegArray {
            v: vec![T::default(); len],
        }
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    #[inline]
    pub fn get(&self, t: &mut ThreadCtx, i: usize) -> T {
        t.reg_get(&self.v, i)
    }

    #[inline]
    pub fn set(&mut self, t: &mut ThreadCtx, i: usize, x: T) {
        t.reg_set(&mut self.v, i, x)
    }
}

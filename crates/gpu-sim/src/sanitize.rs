//! Opt-in compute-sanitizer pass over the simulator's scoreboarded ops.
//!
//! The checks mirror NVIDIA's `compute-sanitizer` tools, applied to the
//! simulator's functional execution:
//!
//! * **memcheck** — out-of-bounds shared/global accesses (including reads
//!   past the end of the launch's bump allocations), complex accesses that
//!   are misaligned within their allocation or straddle two allocations.
//! * **racecheck** — shared-memory read-write / write-write hazards between
//!   barrier epochs, via shadow words stamped `(thread, epoch, access
//!   kind)`, plus cross-block global hazards from launch-level shadow
//!   stamps.
//! * **synccheck** — divergent barrier participation: threads that reach a
//!   different number of [`ThreadCtx::barrier`] annotations than their
//!   block-mates before a `sync()` (or kernel end).
//! * **initcheck** — reads of never-written shared words, and of global
//!   words neither host-initialized before the launch nor written earlier
//!   by the reading block.
//!
//! The pass is strictly observational: it never changes values, issue
//! order, or timing, so a sanitized launch is bit-identical to an
//! unsanitized one. Everything is off (and free) unless
//! `LaunchConfig::sanitizer(SanitizerMode::Full)` is set; the kernel
//! watchdog (`LaunchConfig::watchdog`) can be enabled independently.
//!
//! [`ThreadCtx::barrier`]: crate::exec::thread::ThreadCtx::barrier

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::fault::FaultRecord;
use crate::mem::GlobalMemory;

/// Whether the dynamic-analysis pass runs for a launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SanitizerMode {
    /// No checking, no overhead (the default).
    #[default]
    Off,
    /// All four checks: memcheck, racecheck, synccheck, initcheck.
    Full,
}

impl SanitizerMode {
    /// True when any checking is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, SanitizerMode::Full)
    }
}

/// Which check produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SanitizerCheck {
    /// Out-of-bounds or misaligned access.
    Memcheck,
    /// Unsynchronized conflicting accesses.
    Racecheck,
    /// Divergent barrier participation.
    Synccheck,
    /// Read of never-written memory.
    Initcheck,
}

impl SanitizerCheck {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            SanitizerCheck::Memcheck => "memcheck",
            SanitizerCheck::Racecheck => "racecheck",
            SanitizerCheck::Synccheck => "synccheck",
            SanitizerCheck::Initcheck => "initcheck",
        }
    }

    fn index(self) -> usize {
        match self {
            SanitizerCheck::Memcheck => 0,
            SanitizerCheck::Racecheck => 1,
            SanitizerCheck::Synccheck => 2,
            SanitizerCheck::Initcheck => 3,
        }
    }

    const ALL: [SanitizerCheck; 4] = [
        SanitizerCheck::Memcheck,
        SanitizerCheck::Racecheck,
        SanitizerCheck::Synccheck,
        SanitizerCheck::Initcheck,
    ];
}

/// Memory space a finding refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemSpace {
    /// Per-block shared memory (word-addressed).
    Shared,
    /// Device global memory (word-addressed).
    Global,
}

impl MemSpace {
    fn name(self) -> &'static str {
        match self {
            MemSpace::Shared => "shared",
            MemSpace::Global => "global",
        }
    }
}

/// One sanitizer finding, with as much provenance as the check can attach.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// The check that fired.
    pub check: SanitizerCheck,
    /// Block the access ran in (`None` for cross-block classifications
    /// where the writing block could not be pinned down).
    pub block: Option<usize>,
    /// Thread within the block, when the access is thread-attributable.
    pub thread: Option<usize>,
    /// The phase label active at the access (`LaunchConfig`-named kernels
    /// keep labels on every sanitized block, traced or not).
    pub phase: String,
    /// Barrier epoch (number of `sync()`s the block had executed).
    pub epoch: u32,
    /// Memory space, when the finding is about an access.
    pub space: Option<MemSpace>,
    /// Word address, when the finding is about an access.
    pub addr: Option<usize>,
    /// Human-readable description of the hazard.
    pub detail: String,
    /// True when the finding is explained by a deliberately injected fault
    /// recorded in `LaunchStats::faults` (it is then excluded from
    /// [`SanitizerReport::is_clean`]).
    pub fault_attributed: bool,
}

/// Structured result of a sanitized launch (or a merge over several).
///
/// Detailed findings are capped per block and per check so a
/// pathologically buggy kernel cannot blow up memory; `counts` always
/// holds the uncapped totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SanitizerReport {
    /// The mode the launch ran under.
    pub mode: SanitizerMode,
    /// Detailed findings, sorted by (block, check, address, thread).
    pub findings: Vec<Finding>,
    /// Total finding counts per check — `[memcheck, racecheck, synccheck,
    /// initcheck]` — including findings suppressed by the detail cap.
    pub counts: [u64; 4],
    /// How many detailed findings were attributed to injected faults.
    pub fault_attributed: u64,
}

impl SanitizerReport {
    /// Total findings across all checks (capped and suppressed alike).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Findings for one check.
    pub fn count(&self, check: SanitizerCheck) -> u64 {
        self.counts[check.index()]
    }

    /// True when every finding (if any) is attributed to an injected
    /// fault — i.e. the kernel itself is clean. Counts cap-suppressed
    /// findings too: attribution is computed from uncapped per-block
    /// totals, not just the detailed records.
    pub fn is_clean(&self) -> bool {
        self.total() == self.fault_attributed
    }

    /// Fold another report into this one (used to aggregate the launches
    /// of a batched run).
    pub fn merge(&mut self, other: &SanitizerReport) {
        if other.mode.is_on() {
            self.mode = other.mode;
        }
        self.findings.extend(other.findings.iter().cloned());
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.fault_attributed += other.fault_attributed;
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.total() == 0 {
            return "sanitizer: clean (0 findings)".into();
        }
        let per: Vec<String> = SanitizerCheck::ALL
            .iter()
            .filter(|c| self.count(**c) > 0)
            .map(|c| format!("{} {}", c.name(), self.count(*c)))
            .collect();
        format!(
            "sanitizer: {} finding(s) ({}){}",
            self.total(),
            per.join(", "),
            if self.fault_attributed > 0 {
                format!(", {} attributed to injected faults", self.fault_attributed)
            } else {
                String::new()
            }
        )
    }

    /// Export the report as a standalone JSON document (hand-rolled, like
    /// the Chrome-trace exporter — no serialization dependency).
    pub fn to_json(&self) -> String {
        fn opt(v: Option<usize>) -> String {
            v.map_or_else(|| "null".into(), |x| x.to_string())
        }
        let mut s = String::with_capacity(256 + 160 * self.findings.len());
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            match self.mode {
                SanitizerMode::Off => "off",
                SanitizerMode::Full => "full",
            }
        ));
        s.push_str("  \"counts\": {");
        for (i, c) in SanitizerCheck::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", c.name(), self.count(*c)));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"fault_attributed\": {},\n  \"clean\": {},\n  \"findings\": [",
            self.fault_attributed,
            self.is_clean()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"check\": \"{}\", \"block\": {}, \"thread\": {}, \
                 \"phase\": \"{}\", \"epoch\": {}, \"space\": {}, \"addr\": {}, \
                 \"fault_attributed\": {}, \"detail\": \"{}\"}}",
                f.check.name(),
                opt(f.block),
                opt(f.thread),
                json_escape(&f.phase),
                f.epoch,
                f.space
                    .map_or_else(|| "null".into(), |sp| format!("\"{}\"", sp.name())),
                opt(f.addr),
                f.fault_attributed,
                json_escape(&f.detail),
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Panic payload thrown by the per-block watchdog; `Gpu::launch` converts
/// it into `LaunchError::Watchdog` with block/phase provenance.
pub(crate) struct WatchdogTrip {
    pub(crate) ops: u64,
    pub(crate) limit: u64,
}

/// A watchdog trip is control flow, not a bug: suppress the default panic
/// hook's message/backtrace for `WatchdogTrip` payloads (every other panic
/// still reaches the previous hook). Installed once, the first time a
/// launch arms a watchdog.
pub(crate) fn install_quiet_watchdog_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<WatchdogTrip>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Everything one block context accumulated for the launch report:
/// detailed findings, uncapped per-check totals, and per-block totals
/// (the latter drive exact fault attribution even past the detail cap).
#[derive(Default)]
pub(crate) struct ContextFindings {
    pub(crate) findings: Vec<Finding>,
    pub(crate) totals: [u64; 4],
    pub(crate) per_block: Vec<(usize, [u64; 4])>,
}

impl ContextFindings {
    /// Fold another context's accumulation into this one.
    pub(crate) fn absorb(&mut self, other: ContextFindings) {
        self.findings.extend(other.findings);
        for (t, o) in self.totals.iter_mut().zip(other.totals) {
            *t += o;
        }
        self.per_block.extend(other.per_block);
    }

    /// The launch's report: `shadow`'s cross-block hazards join the
    /// per-block findings, findings from blocks where a fault in `applied`
    /// landed are the fault's doing rather than a kernel bug, and the
    /// order is fixed regardless of which host thread replayed which block.
    pub(crate) fn into_report(
        mut self,
        mode: SanitizerMode,
        shadow: &LaunchShadow,
        applied: &[FaultRecord],
    ) -> SanitizerReport {
        shadow.classify(&mut self.findings, &mut self.totals);
        // Attribution uses the uncapped per-block totals so it stays exact
        // past the detail cap.
        let faulted: HashSet<usize> = applied.iter().map(|f| f.block).collect();
        let fault_attributed = self
            .per_block
            .iter()
            .filter(|(b, _)| faulted.contains(b))
            .map(|(_, tot)| tot.iter().sum::<u64>())
            .sum();
        for f in &mut self.findings {
            f.fault_attributed = f.block.is_some_and(|b| faulted.contains(&b));
        }
        self.findings
            .sort_by_key(|f| (f.block, f.check, f.addr, f.thread));
        SanitizerReport {
            mode,
            findings: self.findings,
            counts: self.totals,
            fault_attributed,
        }
    }
}

/// Per-word shared-memory shadow: who touched the word in which barrier
/// epoch, and whether it was ever written.
#[derive(Clone, Copy)]
struct ShWord {
    init: bool,
    write_epoch: u32,
    writer: u32,
    multi_writer: bool,
    read_epoch: u32,
    reader: u32,
    multi_reader: bool,
}

const NEVER: u32 = u32::MAX;

impl Default for ShWord {
    fn default() -> Self {
        ShWord {
            init: false,
            write_epoch: NEVER,
            writer: 0,
            multi_writer: false,
            read_epoch: NEVER,
            reader: 0,
            multi_reader: false,
        }
    }
}

/// Detailed findings kept per (block, check); overflow is still counted.
const BLOCK_DETAIL_CAP: u32 = 8;
/// Detailed findings kept per check by the cross-block classifier.
const CLASSIFY_DETAIL_CAP: u64 = 32;

/// Per-`BlockCtx` sanitizer state: the shared-memory shadow, the block's
/// global written-set, barrier-arrival counters, the watchdog budget, and
/// the findings accumulated so far. Inert (and allocation-free) when both
/// the sanitizer and the watchdog are off.
pub(crate) struct SanitizerState {
    /// Checks enabled.
    pub(crate) on: bool,
    /// Watchdog op budget per block (0 = off). Independent of `on`.
    pub(crate) wd_limit: u64,
    /// Ops this block has issued against the watchdog budget.
    pub(crate) wd_ops: u64,
    block: usize,
    epoch: u32,
    phase: String,
    sh: Vec<ShWord>,
    gwritten: HashSet<usize>,
    arrivals: Vec<u32>,
    counts: [u32; 4],
    block_totals: [u64; 4],
    per_block: Vec<(usize, [u64; 4])>,
    findings: Vec<Finding>,
    totals: [u64; 4],
}

impl SanitizerState {
    pub(crate) fn new(on: bool, wd_limit: u64, shared_words: usize, nthreads: usize) -> Self {
        SanitizerState {
            on,
            wd_limit,
            wd_ops: 0,
            block: 0,
            epoch: 0,
            phase: String::new(),
            sh: if on {
                vec![ShWord::default(); shared_words]
            } else {
                Vec::new()
            },
            gwritten: HashSet::new(),
            arrivals: if on { vec![0; nthreads] } else { Vec::new() },
            counts: [0; 4],
            block_totals: [0; 4],
            per_block: Vec::new(),
            findings: Vec::new(),
            totals: [0; 4],
        }
    }

    /// Re-arm for a new block: flush the previous block's barrier check and
    /// reset every per-block structure. Accumulated findings survive until
    /// [`SanitizerState::take`].
    pub(crate) fn arm(&mut self, block: usize) {
        self.wd_ops = 0;
        if !self.on {
            return;
        }
        self.flush_barriers("kernel end");
        self.roll_block();
        self.block = block;
        self.epoch = 0;
        self.phase.clear();
        self.sh.fill(ShWord::default());
        self.gwritten.clear();
        self.counts = [0; 4];
    }

    /// Close the per-block total accounting for the current block.
    fn roll_block(&mut self) {
        if self.block_totals != [0; 4] {
            self.per_block.push((self.block, self.block_totals));
            self.block_totals = [0; 4];
        }
    }

    pub(crate) fn set_phase(&mut self, label: &str) {
        if self.on {
            self.phase.clear();
            self.phase.push_str(label);
        }
    }

    /// Drain everything this context accumulated (flushing the final
    /// block's barrier check first).
    pub(crate) fn take(&mut self) -> ContextFindings {
        if self.on {
            self.flush_barriers("kernel end");
            self.roll_block();
        }
        let totals = self.totals;
        self.totals = [0; 4];
        ContextFindings {
            findings: std::mem::take(&mut self.findings),
            totals,
            per_block: std::mem::take(&mut self.per_block),
        }
    }

    fn push(
        &mut self,
        check: SanitizerCheck,
        thread: Option<usize>,
        space: Option<MemSpace>,
        addr: Option<usize>,
        detail: String,
    ) {
        let i = check.index();
        self.totals[i] += 1;
        self.block_totals[i] += 1;
        if self.counts[i] >= BLOCK_DETAIL_CAP {
            return;
        }
        self.counts[i] += 1;
        self.findings.push(Finding {
            check,
            block: Some(self.block),
            thread,
            phase: self.phase.clone(),
            epoch: self.epoch,
            space,
            addr,
            detail,
            fault_attributed: false,
        });
    }

    /// A thread announced barrier participation (`ThreadCtx::barrier`).
    pub(crate) fn barrier(&mut self, tid: usize) {
        if self.on {
            self.arrivals[tid] += 1;
        }
    }

    /// A block-wide `sync()`: run the synccheck and open a new epoch.
    pub(crate) fn on_sync(&mut self) {
        if !self.on {
            return;
        }
        self.flush_barriers("sync()");
        self.epoch += 1;
    }

    /// Synccheck: all threads must have announced the same number of
    /// barrier arrivals by each boundary (a `sync()` or kernel end).
    fn flush_barriers(&mut self, at: &str) {
        let max = self.arrivals.iter().copied().max().unwrap_or(0);
        if max > 0 {
            for tid in 0..self.arrivals.len() {
                let got = self.arrivals[tid];
                if got < max {
                    self.push(
                        SanitizerCheck::Synccheck,
                        Some(tid),
                        None,
                        None,
                        format!(
                            "divergent barrier: thread {tid} reached {got} of {max} \
                             barrier arrivals before {at}"
                        ),
                    );
                }
            }
        }
        self.arrivals.fill(0);
    }

    /// Shared-memory load. Returns false when the access is out of bounds
    /// and must be skipped (the caller substitutes 0.0).
    pub(crate) fn shared_load(&mut self, tid: usize, word: usize) -> bool {
        if word >= self.sh.len() {
            self.push(
                SanitizerCheck::Memcheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!(
                    "shared load out of bounds: word {word} >= {} shared words",
                    self.sh.len()
                ),
            );
            return false;
        }
        let w = self.sh[word];
        let t = tid as u32;
        if !w.init {
            self.push(
                SanitizerCheck::Initcheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!("read of uninitialized shared word {word}"),
            );
        }
        if w.write_epoch == self.epoch && (w.writer != t || w.multi_writer) {
            self.push(
                SanitizerCheck::Racecheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!(
                    "shared word {word} written by thread {} and read by thread {tid} \
                     with no sync() in between",
                    w.writer
                ),
            );
        }
        let w = &mut self.sh[word];
        if w.read_epoch == self.epoch {
            if w.reader != t {
                w.multi_reader = true;
            }
        } else {
            w.read_epoch = self.epoch;
            w.reader = t;
            w.multi_reader = false;
        }
        true
    }

    /// Shared-memory store. `landed` is false when fault injection dropped
    /// the store (the word then stays uninitialized). Returns false when
    /// out of bounds and the store must be skipped.
    pub(crate) fn shared_store(&mut self, tid: usize, word: usize, landed: bool) -> bool {
        if word >= self.sh.len() {
            self.push(
                SanitizerCheck::Memcheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!(
                    "shared store out of bounds: word {word} >= {} shared words",
                    self.sh.len()
                ),
            );
            return false;
        }
        let w = self.sh[word];
        let t = tid as u32;
        if w.write_epoch == self.epoch && (w.writer != t || w.multi_writer) {
            self.push(
                SanitizerCheck::Racecheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!(
                    "write-write hazard: shared word {word} written by thread {} and \
                     thread {tid} in the same barrier epoch",
                    w.writer
                ),
            );
        }
        if w.read_epoch == self.epoch && (w.reader != t || w.multi_reader) {
            self.push(
                SanitizerCheck::Racecheck,
                Some(tid),
                Some(MemSpace::Shared),
                Some(word),
                format!(
                    "read-write hazard: shared word {word} read by thread {} and \
                     written by thread {tid} in the same barrier epoch",
                    w.reader
                ),
            );
        }
        let w = &mut self.sh[word];
        if w.write_epoch == self.epoch {
            if w.writer != t {
                w.multi_writer = true;
            }
        } else {
            w.write_epoch = self.epoch;
            w.writer = t;
            w.multi_writer = false;
        }
        if landed {
            w.init = true;
        }
        true
    }

    /// Global load. Returns false when out of bounds (skip, read 0.0).
    pub(crate) fn global_load(&mut self, tid: usize, word: usize, shadow: &LaunchShadow) -> bool {
        if word >= shadow.gwords {
            self.push(
                SanitizerCheck::Memcheck,
                Some(tid),
                Some(MemSpace::Global),
                Some(word),
                format!(
                    "global load out of bounds: word {word} beyond the \
                     {}-word device allocation",
                    shadow.gwords
                ),
            );
            return false;
        }
        LaunchShadow::stamp(&shadow.reader[word], self.block as u32 + 1);
        if !shadow.host_init(word) && !self.gwritten.contains(&word) {
            self.push(
                SanitizerCheck::Initcheck,
                Some(tid),
                Some(MemSpace::Global),
                Some(word),
                format!("read of never-written global word {word}"),
            );
        }
        true
    }

    /// Global store. `landed` is false when fault injection dropped the
    /// store. Returns false when out of bounds (skip).
    pub(crate) fn global_store(
        &mut self,
        tid: usize,
        word: usize,
        landed: bool,
        shadow: &LaunchShadow,
    ) -> bool {
        if word >= shadow.gwords {
            self.push(
                SanitizerCheck::Memcheck,
                Some(tid),
                Some(MemSpace::Global),
                Some(word),
                format!(
                    "global store out of bounds: word {word} beyond the \
                     {}-word device allocation",
                    shadow.gwords
                ),
            );
            return false;
        }
        if landed {
            LaunchShadow::stamp(&shadow.writer[word], self.block as u32 + 1);
            self.gwritten.insert(word);
        }
        true
    }

    /// Alignment/straddle check for two-word (complex) global accesses at
    /// `word, word + 1`.
    pub(crate) fn complex_global(&mut self, tid: usize, word: usize, shadow: &LaunchShadow) {
        if let Some((start, len)) = shadow.alloc_of(word) {
            if !(word - start).is_multiple_of(2) {
                self.push(
                    SanitizerCheck::Memcheck,
                    Some(tid),
                    Some(MemSpace::Global),
                    Some(word),
                    format!(
                        "misaligned complex access: word {word} is at odd offset \
                         {} within its allocation",
                        word - start
                    ),
                );
            } else if word + 1 >= start + len {
                self.push(
                    SanitizerCheck::Memcheck,
                    Some(tid),
                    Some(MemSpace::Global),
                    Some(word),
                    format!(
                        "complex access at word {word} straddles the end of its \
                         {len}-word allocation"
                    ),
                );
            }
        }
    }
}

/// Launch-level shadow for global memory, shared (read-only plus atomic
/// stamp slots) across the replay worker threads.
///
/// `writer[w]` / `reader[w]` record which block touched word `w`:
/// 0 = none, `b + 1` = exactly block `b`, `u32::MAX` = more than one
/// block. The CAS discipline makes the final value independent of worker
/// scheduling, so classification is deterministic.
pub(crate) struct LaunchShadow {
    gwords: usize,
    host_init: Vec<u64>,
    allocs: Vec<(usize, usize)>,
    writer: Vec<AtomicU32>,
    reader: Vec<AtomicU32>,
}

const MULTI: u32 = u32::MAX;

impl LaunchShadow {
    /// Snapshot the allocator and host-initialization state at launch.
    pub(crate) fn new(gmem: &GlobalMemory) -> Self {
        let gwords = gmem.allocated_words();
        LaunchShadow {
            gwords,
            host_init: gmem.init_snapshot(),
            allocs: gmem.alloc_table(),
            writer: (0..gwords).map(|_| AtomicU32::new(0)).collect(),
            reader: (0..gwords).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn host_init(&self, word: usize) -> bool {
        self.host_init
            .get(word / 64)
            .is_some_and(|bits| bits & (1 << (word % 64)) != 0)
    }

    /// The bump allocation containing `word`, as `(start, len)`.
    fn alloc_of(&self, word: usize) -> Option<(usize, usize)> {
        let i = self.allocs.partition_point(|&(start, _)| start <= word);
        let (start, len) = *self.allocs.get(i.checked_sub(1)?)?;
        (word < start + len).then_some((start, len))
    }

    fn stamp(slot: &AtomicU32, tag: u32) {
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            if cur == tag || cur == MULTI {
                return;
            }
            let next = if cur == 0 { tag } else { MULTI };
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Post-launch classification of cross-block global hazards.
    pub(crate) fn classify(&self, findings: &mut Vec<Finding>, totals: &mut [u64; 4]) {
        let mut detailed = 0u64;
        for w in 0..self.gwords {
            let wr = self.writer[w].load(Ordering::Relaxed);
            if wr == 0 {
                continue;
            }
            let rd = self.reader[w].load(Ordering::Relaxed);
            let (block, detail) = if wr == MULTI {
                (
                    None,
                    format!("global word {w} written by more than one block in one launch"),
                )
            } else if rd != 0 && rd != wr {
                let by = if rd == MULTI {
                    "several other blocks".to_string()
                } else {
                    format!("block {}", rd - 1)
                };
                (
                    Some((wr - 1) as usize),
                    format!(
                        "global word {w} written by block {} and read by {by} \
                         with no ordering between them",
                        wr - 1
                    ),
                )
            } else {
                continue;
            };
            totals[SanitizerCheck::Racecheck.index()] += 1;
            if detailed < CLASSIFY_DETAIL_CAP {
                detailed += 1;
                findings.push(Finding {
                    check: SanitizerCheck::Racecheck,
                    block,
                    thread: None,
                    phase: String::new(),
                    epoch: 0,
                    space: Some(MemSpace::Global),
                    addr: Some(w),
                    detail,
                    fault_attributed: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips_basics() {
        let mut r = SanitizerReport {
            mode: SanitizerMode::Full,
            ..Default::default()
        };
        assert!(r.is_clean());
        r.counts[SanitizerCheck::Racecheck.index()] = 2;
        r.findings.push(Finding {
            check: SanitizerCheck::Racecheck,
            block: Some(3),
            thread: Some(5),
            phase: "qr.column \"x\"".into(),
            epoch: 2,
            space: Some(MemSpace::Shared),
            addr: Some(17),
            detail: "write-write hazard".into(),
            fault_attributed: false,
        });
        r.findings.push(Finding {
            check: SanitizerCheck::Racecheck,
            block: None,
            thread: None,
            phase: String::new(),
            epoch: 0,
            space: Some(MemSpace::Global),
            addr: Some(9),
            detail: "cross-block".into(),
            fault_attributed: false,
        });
        assert!(!r.is_clean());
        let json = r.to_json();
        assert!(json.contains("\"racecheck\": 2"));
        assert!(json.contains("\"block\": null"));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"clean\": false"));
        assert!(r.summary().contains("racecheck 2"));
    }

    #[test]
    fn merge_accumulates_counts_and_findings() {
        let mut a = SanitizerReport::default();
        let mut b = SanitizerReport {
            mode: SanitizerMode::Full,
            ..Default::default()
        };
        b.counts = [1, 0, 0, 2];
        b.fault_attributed = 1;
        b.findings.push(Finding {
            check: SanitizerCheck::Memcheck,
            block: Some(0),
            thread: Some(1),
            phase: "p".into(),
            epoch: 0,
            space: Some(MemSpace::Global),
            addr: Some(4),
            detail: "oob".into(),
            fault_attributed: true,
        });
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.findings.len(), 2);
        assert_eq!(a.fault_attributed, 2);
        assert_eq!(a.mode, SanitizerMode::Full);
        // Not clean: only 2 of the 6 total findings are fault-attributed.
        assert!(!a.is_clean());

        // A report whose every finding is attributed is clean.
        let all_attributed = SanitizerReport {
            mode: SanitizerMode::Full,
            counts: [0, 0, 0, 3],
            fault_attributed: 3,
            ..Default::default()
        };
        assert!(all_attributed.is_clean());
    }

    #[test]
    fn shared_shadow_flags_the_canonical_hazards() {
        let mut s = SanitizerState::new(true, 0, 4, 8);
        s.arm(0);
        // Uninitialized read.
        assert!(s.shared_load(0, 1));
        // Write then same-epoch read by another thread.
        assert!(s.shared_store(0, 2, true));
        assert!(s.shared_load(1, 2));
        // Same-epoch write-write — and the word was also read by thread 1
        // this epoch, so the store is simultaneously a read-write hazard.
        assert!(s.shared_store(3, 2, true));
        // After a sync, a read of the same word is ordered: no new hazard.
        s.on_sync();
        assert!(s.shared_load(4, 2));
        // OOB is flagged and skipped.
        assert!(!s.shared_load(0, 9));
        let ContextFindings { findings, totals, .. } = s.take();
        assert_eq!(totals[SanitizerCheck::Initcheck.index()], 1);
        assert_eq!(totals[SanitizerCheck::Racecheck.index()], 3);
        assert_eq!(totals[SanitizerCheck::Memcheck.index()], 1);
        assert_eq!(totals[SanitizerCheck::Synccheck.index()], 0);
        assert_eq!(findings.len(), 5);
        assert!(findings.iter().all(|f| f.block == Some(0)));
    }

    #[test]
    fn same_thread_access_and_epoch_separation_are_clean() {
        let mut s = SanitizerState::new(true, 0, 4, 8);
        s.arm(7);
        assert!(s.shared_store(2, 0, true));
        assert!(s.shared_load(2, 0)); // own write, same epoch: fine
        s.on_sync();
        assert!(s.shared_load(5, 0)); // other thread after barrier: fine
        s.on_sync();
        assert!(s.shared_store(6, 0, true)); // write after everyone read: fine
        let ContextFindings { findings, totals, .. } = s.take();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(totals, [0; 4]);
    }

    #[test]
    fn barrier_divergence_is_flagged_at_the_boundary() {
        let mut s = SanitizerState::new(true, 0, 1, 4);
        s.arm(2);
        for tid in 0..4 {
            if tid != 3 {
                s.barrier(tid);
            }
        }
        s.on_sync();
        let ContextFindings { findings, totals, .. } = s.take();
        assert_eq!(totals[SanitizerCheck::Synccheck.index()], 1);
        assert_eq!(findings[0].thread, Some(3));
        assert_eq!(findings[0].block, Some(2));
    }

    #[test]
    fn detail_cap_suppresses_but_still_counts() {
        let mut s = SanitizerState::new(true, 0, 1, 2);
        s.arm(0);
        for _ in 0..20 {
            s.shared_load(0, 5); // OOB every time
        }
        let ContextFindings { findings, totals, .. } = s.take();
        assert_eq!(totals[SanitizerCheck::Memcheck.index()], 20);
        assert_eq!(findings.len(), BLOCK_DETAIL_CAP as usize);
    }

    #[test]
    fn shadow_stamp_classifies_cross_block_traffic() {
        let mut g = GlobalMemory::new(8);
        let p = g.alloc(8);
        // Host initializes the first half only.
        g.h2d(p, &[1.0; 4]);
        let shadow = LaunchShadow::new(&g);

        let mut s = SanitizerState::new(true, 0, 0, 1);
        s.arm(0);
        assert!(s.global_store(0, 2, true, &shadow));
        s.arm(1);
        assert!(s.global_load(0, 2, &shadow)); // block 1 reads block 0's word
        assert!(s.global_load(0, 6, &shadow)); // never written anywhere
        assert!(!s.global_load(0, 99, &shadow)); // OOB
        let ContextFindings { findings, mut totals, .. } = s.take();
        assert_eq!(totals[SanitizerCheck::Initcheck.index()], 1);
        assert_eq!(totals[SanitizerCheck::Memcheck.index()], 1);
        assert!(findings
            .iter()
            .any(|f| f.check == SanitizerCheck::Initcheck && f.addr == Some(6)));

        let mut cross = Vec::new();
        shadow.classify(&mut cross, &mut totals);
        assert_eq!(totals[SanitizerCheck::Racecheck.index()], 1);
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].addr, Some(2));
        assert_eq!(cross[0].block, Some(0));
    }

    #[test]
    fn alloc_table_alignment_checks() {
        let mut g = GlobalMemory::new(16);
        let _a = g.alloc(3); // odd-sized first allocation
        let b = g.alloc(9); // complex buffer starts at word 3, odd length
        let shadow = LaunchShadow::new(&g);
        let mut s = SanitizerState::new(true, 0, 0, 1);
        s.arm(0);
        // Offset 0 within the complex buffer: aligned, no finding.
        s.complex_global(0, b.word(), &shadow);
        // Odd offset within the allocation: misaligned.
        s.complex_global(0, b.word() + 1, &shadow);
        // Even offset whose pair runs past the odd-length allocation end.
        s.complex_global(0, b.word() + 8, &shadow);
        let ContextFindings { findings, totals, .. } = s.take();
        assert_eq!(totals[SanitizerCheck::Memcheck.index()], 2);
        assert!(findings[0].detail.contains("misaligned"));
        assert!(findings[1].detail.contains("straddles"));
    }
}

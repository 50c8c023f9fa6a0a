//! Block execution plans: how a problem maps onto threads and registers —
//! and the dispatch-[`Plan`] API: the single decision object every layer
//! (core, fleet, serve, bench, tune) prices and dispatches through.
//!
//! The kernels in `regla-core` and the analytic model must agree on the
//! mapping (thread count, 2D-cyclic tile shape, register usage), so it is
//! computed here once. The rules follow Section V: threads are laid out in
//! a √p x √p grid, 64 threads are used while the per-thread sub-matrix fits
//! the register budget, and the kernel switches to 256 threads at n = 80
//! (the occupancy drop visible in Figure 9).
//!
//! On top of the raw mapping rules this module defines:
//!
//! * [`Plan`] — one concrete dispatch decision (approach, layout, thread
//!   override, tiled panel width, pipeline chunk/stream hints);
//! * [`PlanKey`] — the problem coordinates a decision is indexed by
//!   (algorithm, shape, rhs width, element width, batch bucket, math mode);
//! * [`Planner`] — how a decision is produced: the paper's hand rules
//!   (`Heuristic`) or a tuned [`DecisionTable`] (`Table`);
//! * [`DecisionTable`] — a serializable key → plan map emitted by
//!   `regla-tune`, with derived thresholds replacing the hard-coded
//!   64/256 rule.

use crate::params::ModelParams;
use regla_gpu_sim::{GpuConfig, MathMode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Register overhead per thread beyond the matrix tile (indices, scale
/// factors, accumulators) — roughly what nvcc used for the paper's kernels.
pub const REG_OVERHEAD: usize = 14;

/// Per-thread sub-matrix words above which a 64-thread block switches to
/// 256 threads (n = 72 -> 9x9 = 81 words still runs with 64 threads; n = 80
/// switches, as in the paper).
pub const TILE_WORDS_64T_MAX: usize = 81;

/// Largest declared register count per thread for which the per-block
/// approach is still dispatched automatically.
///
/// The GF100 register file allows 64 registers per thread; beyond that nvcc
/// spills to local memory. The paper's Figure 9 shows the per-block kernels
/// tolerating moderate spill (the dip at n = 64, where an 8x8 tile plus
/// [`REG_OVERHEAD`] just exceeds the budget, still beats the alternatives),
/// but past ~110 declared registers the spill traffic overwhelms the
/// register-resident advantage and the tiled approach wins. This is the
/// dispatch ceiling, not an architectural limit.
pub const PER_BLOCK_MAX_DECLARED_REGS: usize = 110;

/// The three classic distributed register layouts of Figure 6 (Section
/// V-A). The per-block kernels in `regla-core` are generic over a layout
/// map built from this tag; the model and the decision table index plans
/// by it. Lives here (rather than in `regla-core`) so a [`Plan`] is
/// self-contained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Layout {
    /// Elements (i, j) are owned by thread (i mod √p, j mod √p).
    #[default]
    TwoDCyclic,
    /// Thread t owns the rows {i : i ≡ t (mod p)}.
    RowCyclic,
    /// Thread t owns the columns {j : j ≡ t (mod p)}.
    ColCyclic,
}

impl Layout {
    pub const ALL: [Layout; 3] = [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic];

    pub fn name(self) -> &'static str {
        match self {
            Layout::TwoDCyclic => "2D cyclic",
            Layout::RowCyclic => "1D row cyclic",
            Layout::ColCyclic => "1D column cyclic",
        }
    }

    /// Short stable token used by the decision-table text format.
    pub fn code(self) -> &'static str {
        match self {
            Layout::TwoDCyclic => "2d",
            Layout::RowCyclic => "row",
            Layout::ColCyclic => "col",
        }
    }

    /// Inverse of [`Layout::code`].
    pub fn from_code(s: &str) -> Option<Layout> {
        Layout::ALL.into_iter().find(|l| l.code() == s)
    }
}

/// The paper's 64/256 thread rule applied directly to a full (possibly
/// augmented, possibly wider-than-tall) `rows x cols` shape: 64 threads
/// while the per-thread 2D-cyclic tile fits [`TILE_WORDS_64T_MAX`] words,
/// 256 beyond. This is the hand-entered threshold a tuned
/// [`DecisionTable`] replaces with a derived one.
pub fn block_threads(rows: usize, cols: usize, elem_words: usize) -> usize {
    let tile64 = rows.div_ceil(8) * cols.div_ceil(8) * elem_words;
    if tile64 <= TILE_WORDS_64T_MAX {
        64
    } else {
        256
    }
}

/// How one batched problem executes on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Approach {
    /// One problem per thread, matrix in that thread's registers (§IV).
    PerThread,
    /// One problem per thread block, 2D-cyclic register layout (§V).
    PerBlock,
    /// Sequential tiled factorization inside one block (§VII, PLASMA-like).
    Tiled,
    /// Hybrid CPU+GPU blocked library (§VI-A, MAGMA/CULA style).
    Hybrid,
}

impl Approach {
    pub const ALL: [Approach; 4] = [
        Approach::PerThread,
        Approach::PerBlock,
        Approach::Tiled,
        Approach::Hybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Approach::PerThread => "one-problem-per-thread",
            Approach::PerBlock => "one-problem-per-block",
            Approach::Tiled => "tiled-within-block",
            Approach::Hybrid => "hybrid CPU+GPU blocked",
        }
    }

    /// Short stable token used by the decision-table text format.
    pub fn code(self) -> &'static str {
        match self {
            Approach::PerThread => "pt",
            Approach::PerBlock => "pb",
            Approach::Tiled => "tiled",
            Approach::Hybrid => "hybrid",
        }
    }

    /// Inverse of [`Approach::code`].
    pub fn from_code(s: &str) -> Option<Approach> {
        Approach::ALL.into_iter().find(|a| a.code() == s)
    }
}

/// Mapping of one `m x (n + rhs_cols)` problem onto a thread block.
#[derive(Clone, Copy, Debug)]
pub struct BlockPlan {
    pub m: usize,
    pub n: usize,
    pub rhs_cols: usize,
    /// Words per element (1 = f32, 2 = complex32).
    pub elem_words: usize,
    pub threads: usize,
    /// √p: the thread grid is `rdim x rdim`.
    pub rdim: usize,
    /// Per-thread register tile height (rows of the distributed matrix).
    pub hreg: usize,
    /// Per-thread register tile width.
    pub wreg: usize,
    /// Declared registers per thread (tile + overhead); beyond the
    /// architectural 64 the excess spills.
    pub regs_per_thread: usize,
    /// Shared memory words the kernel needs (column + row vectors,
    /// reduction scratch, scale factor and flags).
    pub shared_words: usize,
}

impl BlockPlan {
    /// Total columns including appended right-hand sides.
    pub fn cols(&self) -> usize {
        self.n + self.rhs_cols
    }

    /// Number of panels the factorization walks through (Figure 8's x-axis:
    /// 7 panels for a 56x56 matrix on 64 threads).
    pub fn panels(&self) -> usize {
        self.n.div_ceil(self.rdim)
    }

    /// Whether the tile spills registers.
    pub fn spills(&self) -> bool {
        self.regs_per_thread > 64
    }
}

/// Plan a one-problem-per-block execution with the paper's automatic
/// thread rule ([`block_threads`]).
pub fn block_plan(m: usize, n: usize, rhs_cols: usize, elem_words: usize) -> BlockPlan {
    block_plan_with_threads(
        m,
        n,
        rhs_cols,
        elem_words,
        block_threads(m, n + rhs_cols, elem_words),
    )
}

/// Plan a one-problem-per-block execution with an explicit 2D-cyclic
/// thread count (a perfect square) — the knob a tuned [`Plan`] turns.
pub fn block_plan_with_threads(
    m: usize,
    n: usize,
    rhs_cols: usize,
    elem_words: usize,
    threads: usize,
) -> BlockPlan {
    assert!(m >= n, "per-block kernels require m >= n (got {m} x {n})");
    let cols = n + rhs_cols;
    let rdim = threads.isqrt();
    assert!(
        rdim * rdim == threads && threads > 0,
        "per-block thread count must be a positive perfect square, got {threads}"
    );
    let hreg = m.div_ceil(rdim);
    let wreg = cols.div_ceil(rdim);
    let regs_per_thread = hreg * wreg * elem_words + REG_OVERHEAD;
    // Shared scratch: a column (m), a row (cols), per-thread reduction
    // partials (threads), and a few control words.
    let shared_words = (m + cols + threads + 16) * elem_words;
    BlockPlan {
        m,
        n,
        rhs_cols,
        elem_words,
        threads,
        rdim,
        hreg,
        wreg,
        regs_per_thread,
        shared_words,
    }
}

/// Mapping of one problem onto a single thread (§IV).
#[derive(Clone, Copy, Debug)]
pub struct ThreadPlan {
    pub n: usize,
    pub rhs_cols: usize,
    pub elem_words: usize,
    pub threads_per_block: usize,
    pub regs_per_thread: usize,
}

/// Plan a one-problem-per-thread execution of `n x (n + rhs)` problems.
pub fn thread_plan(n: usize, rhs_cols: usize, elem_words: usize) -> ThreadPlan {
    let regs = n * (n + rhs_cols) * elem_words + 12;
    ThreadPlan {
        n,
        rhs_cols,
        elem_words,
        threads_per_block: 64,
        regs_per_thread: regs,
    }
}

impl ThreadPlan {
    /// Whether the whole matrix fits the 64-register budget (n < 8 for f32,
    /// the boundary in Figure 4).
    pub fn fits_registers(&self) -> bool {
        self.regs_per_thread <= 64
    }
}

/// Default panel width for the sequential tiled path (the paper's choice).
pub const DEFAULT_PANEL: usize = 16;

/// One concrete dispatch decision: everything the launch layer needs to
/// map a batch onto the device. Produced by a [`Planner`] (or supplied
/// verbatim by the caller as an override); consumed by `regla-core`'s
/// dispatch, priced by `regla-tune`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct Plan {
    /// The execution mapping (per-thread / per-block / tiled).
    pub approach: Approach,
    /// Register-file data layout for the per-block kernels. The 1D
    /// layouts always run with the paper's 64 threads (Figure 7);
    /// `threads` only applies to the 2D-cyclic layout.
    pub layout: Layout,
    /// Forced per-block thread count (must be a perfect square for the 2D
    /// layout); `None` defers to the 64/256 rule — or to whatever derived
    /// threshold the planner baked into this plan.
    pub threads: Option<usize>,
    /// Panel width for the tiled path.
    pub panel: usize,
    /// Advisory pipeline hint: chunks per batch for chunked/pipelined
    /// drivers (1 = a single synchronous dispatch).
    pub chunks: usize,
    /// Advisory pipeline hint: streams to round-robin chunks over.
    pub streams: usize,
}

impl Plan {
    /// A plan for `approach` with the paper's defaults everywhere else.
    pub fn new(approach: Approach) -> Self {
        Plan {
            approach,
            layout: Layout::TwoDCyclic,
            threads: None,
            panel: DEFAULT_PANEL,
            chunks: 1,
            streams: 1,
        }
    }

    pub fn with_layout(mut self, l: Layout) -> Self {
        self.layout = l;
        self
    }

    pub fn with_threads(mut self, t: impl Into<Option<usize>>) -> Self {
        self.threads = t.into();
        self
    }

    pub fn with_panel(mut self, panel: usize) -> Self {
        self.panel = panel;
        self
    }

    pub fn with_pipeline(mut self, chunks: usize, streams: usize) -> Self {
        self.chunks = chunks;
        self.streams = streams;
        self
    }

    /// Thread count of a per-block launch of the full `rows x cols`
    /// (augmented) shape under this plan: the forced count when set, the
    /// 64/256 rule otherwise; the 1D layouts pin the paper's 64 threads.
    pub fn block_threads_for(&self, rows: usize, cols: usize, elem_words: usize) -> usize {
        match self.layout {
            Layout::TwoDCyclic => self
                .threads
                .unwrap_or_else(|| block_threads(rows, cols, elem_words)),
            _ => 64,
        }
    }
}

/// The problem coordinates a dispatch decision is indexed by. Batch sizes
/// are bucketed by floor-log2 so a table tuned at one batch size serves
/// the whole occupancy regime around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub struct PlanKey {
    pub alg: crate::intensity::Algorithm,
    pub m: usize,
    pub n: usize,
    /// Carried right-hand-side columns (not factored).
    pub rhs: usize,
    /// Words per element (1 = f32, 2 = complex32).
    pub elem_words: usize,
    /// `floor(log2(batch))`; 0 for a single problem.
    pub batch_log2: u8,
    pub math: MathMode,
}

impl PlanKey {
    pub fn new(
        alg: crate::intensity::Algorithm,
        m: usize,
        n: usize,
        rhs: usize,
        elem_words: usize,
        batch: usize,
        math: MathMode,
    ) -> Self {
        PlanKey {
            alg,
            m,
            n,
            rhs,
            elem_words,
            batch_log2: (usize::BITS - 1 - batch.max(1).leading_zeros()) as u8,
            math,
        }
    }

    /// A representative batch size for this key's bucket.
    pub fn batch(&self) -> usize {
        1usize << self.batch_log2.min(62)
    }
}

/// The paper's hand rules as a plan: per-thread for square
/// register-resident sizes, per-block while the declared registers stay
/// under the spill ceiling, tiled beyond — with the default 2D-cyclic
/// layout and panel width. This is bit-for-bit the dispatch the repo
/// shipped before the planner existed.
pub fn heuristic_plan(key: &PlanKey) -> Plan {
    let PlanKey {
        m, n, rhs, elem_words, ..
    } = *key;
    let approach = if m == n && thread_plan(n, rhs, elem_words).fits_registers() {
        Approach::PerThread
    } else if m >= n
        && block_plan(m, n, rhs, elem_words).regs_per_thread <= PER_BLOCK_MAX_DECLARED_REGS
    {
        Approach::PerBlock
    } else {
        Approach::Tiled
    };
    Plan::new(approach)
}

/// One tuned decision: the plan plus the cycle estimates that justified
/// it (model-predicted, and fast-path-simulated when the tuner validated
/// the candidate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableEntry {
    pub plan: Plan,
    /// Model-predicted cycles for the key's representative batch.
    pub predicted_cycles: f64,
    /// Simulated cycles from the tuner's validation probe (`None` when
    /// the entry was ranked by the model alone).
    pub simulated_cycles: Option<f64>,
}

/// Why a decision-table text document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for TableParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decision table line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TableParseError {}

/// A serializable [`PlanKey`] → [`TableEntry`] map: the output of
/// `regla-tune`, consulted at dispatch time by `Planner::Table`.
///
/// The text format is line-oriented and dependency-free (the workspace
/// has no serde): a `regla-decision-table v1` header, a `device` line,
/// then one whitespace-separated `entry` line per decision. Round-trips
/// bit-exactly: cycle estimates are stored as IEEE-754 bit patterns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionTable {
    /// Device config name the table was tuned for.
    pub device: String,
    entries: BTreeMap<PlanKey, TableEntry>,
}

impl DecisionTable {
    pub fn new(device: impl Into<String>) -> Self {
        DecisionTable {
            device: device.into(),
            entries: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, key: PlanKey, entry: TableEntry) {
        self.entries.insert(key, entry);
    }

    /// The tuned entry for `key`, if the table has one (exact key match —
    /// batch sizes were already bucketed by [`PlanKey::new`]).
    pub fn lookup(&self, key: &PlanKey) -> Option<&TableEntry> {
        self.entries.get(key)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&PlanKey, &TableEntry)> {
        self.entries.iter()
    }

    /// Render the table as its text document.
    pub fn to_text(&self) -> String {
        let mut s = String::from("regla-decision-table v1\n");
        s.push_str(&format!("device {}\n", self.device));
        for (k, e) in &self.entries {
            let math = match k.math {
                MathMode::Fast => "fast",
                MathMode::Precise => "precise",
            };
            let threads = e
                .plan
                .threads
                .map_or_else(|| "-".into(), |t| t.to_string());
            let sim = e
                .simulated_cycles
                .map_or_else(|| "-".into(), |c| format!("{:016x}", c.to_bits()));
            s.push_str(&format!(
                "entry {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x} {}\n",
                k.alg.code(),
                k.m,
                k.n,
                k.rhs,
                k.elem_words,
                k.batch_log2,
                math,
                e.plan.approach.code(),
                e.plan.layout.code(),
                threads,
                e.plan.panel,
                e.plan.chunks,
                e.plan.streams,
                e.predicted_cycles.to_bits(),
                sim,
            ));
        }
        s
    }

    /// Parse a text document produced by [`DecisionTable::to_text`].
    pub fn from_text(text: &str) -> Result<Self, TableParseError> {
        let err = |line: usize, msg: &str| TableParseError {
            line,
            msg: msg.into(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == "regla-decision-table v1" => {}
            _ => return Err(err(1, "missing `regla-decision-table v1` header")),
        }
        let device = match lines.next() {
            Some((_, l)) if l.starts_with("device ") => l["device ".len()..].trim().to_string(),
            _ => return Err(err(2, "missing `device <name>` line")),
        };
        let mut table = DecisionTable::new(device);
        for (i, line) in lines {
            let ln = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 16 || f[0] != "entry" {
                return Err(err(ln, "expected `entry` with 15 fields"));
            }
            let usize_at = |idx: usize| -> Result<usize, TableParseError> {
                f[idx]
                    .parse()
                    .map_err(|_| err(ln, &format!("bad integer `{}`", f[idx])))
            };
            let alg = crate::intensity::Algorithm::from_code(f[1])
                .ok_or_else(|| err(ln, &format!("unknown algorithm `{}`", f[1])))?;
            let math = match f[7] {
                "fast" => MathMode::Fast,
                "precise" => MathMode::Precise,
                other => return Err(err(ln, &format!("unknown math mode `{other}`"))),
            };
            let key = PlanKey {
                alg,
                m: usize_at(2)?,
                n: usize_at(3)?,
                rhs: usize_at(4)?,
                elem_words: usize_at(5)?,
                batch_log2: usize_at(6)? as u8,
                math,
            };
            let approach = Approach::from_code(f[8])
                .ok_or_else(|| err(ln, &format!("unknown approach `{}`", f[8])))?;
            let layout = Layout::from_code(f[9])
                .ok_or_else(|| err(ln, &format!("unknown layout `{}`", f[9])))?;
            let threads = if f[10] == "-" {
                None
            } else {
                Some(usize_at(10)?)
            };
            let bits_at = |idx: usize| -> Result<f64, TableParseError> {
                u64::from_str_radix(f[idx], 16)
                    .map(f64::from_bits)
                    .map_err(|_| err(ln, &format!("bad cycle bits `{}`", f[idx])))
            };
            let entry = TableEntry {
                plan: Plan {
                    approach,
                    layout,
                    threads,
                    panel: usize_at(11)?,
                    chunks: usize_at(12)?,
                    streams: usize_at(13)?,
                },
                predicted_cycles: bits_at(14)?,
                simulated_cycles: if f[15] == "-" { None } else { Some(bits_at(15)?) },
            };
            table.insert(key, entry);
        }
        Ok(table)
    }
}

/// How the dispatch layer produces a [`Plan`] for a [`PlanKey`]. Selected
/// per run via `RunOpts::builder().planner(..)` in `regla-core`; every
/// variant goes through the same resolution path, so core, fleet, serve
/// and bench dispatch identically for a given planner.
#[derive(Clone, Debug, Default)]
pub enum Planner {
    /// The paper's hand rules (the 64/256 thresholds) — the default, and
    /// bit-identical to the pre-planner dispatch.
    #[default]
    Heuristic,
    /// Consult a tuned [`DecisionTable`]; keys the table does not cover
    /// fall back to the heuristic rules.
    Table(Arc<DecisionTable>),
}

impl Planner {
    /// Produce the dispatch plan for `key`. Neither planner reads the
    /// model parameters or the device config; the arguments stay for
    /// perfbench, which calls this with them.
    pub fn plan(&self, _params: &ModelParams, _cfg: &GpuConfig, key: &PlanKey) -> Plan {
        match self {
            Planner::Heuristic => heuristic_plan(key),
            Planner::Table(t) => t
                .lookup(key)
                .map(|e| e.plan)
                .unwrap_or_else(|| heuristic_plan(key)),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Planner::Heuristic => "heuristic",
            Planner::Table(_) => "table",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_six_uses_64_threads_7x7_tiles() {
        let p = block_plan(56, 56, 0, 1);
        assert_eq!(p.threads, 64);
        assert_eq!(p.rdim, 8);
        assert_eq!((p.hreg, p.wreg), (7, 7));
        assert_eq!(p.panels(), 7);
        assert!(!p.spills());
        assert!(p.regs_per_thread <= 64);
    }

    #[test]
    fn switch_to_256_threads_at_80() {
        let p72 = block_plan(72, 72, 0, 1);
        assert_eq!(p72.threads, 64, "72 still runs on 64 threads");
        let p80 = block_plan(80, 80, 0, 1);
        assert_eq!(p80.threads, 256, "80 switches to 256 threads");
        assert_eq!(p80.rdim, 16);
        assert_eq!((p80.hreg, p80.wreg), (5, 5));
    }

    #[test]
    fn sixty_four_spills() {
        // Figure 9's dip at n = 64: an 8x8 tile plus overhead exceeds 64.
        let p = block_plan(64, 64, 0, 1);
        assert_eq!(p.threads, 64);
        assert!(p.spills());
    }

    #[test]
    fn spills_again_above_112_with_256_threads() {
        let p112 = block_plan(112, 112, 0, 1);
        assert!(!p112.spills(), "112 = 7x7 tiles on 256 threads fits");
        let p120 = block_plan(120, 120, 0, 1);
        assert!(p120.spills(), "beyond 112 the 256-thread tiles spill");
    }

    #[test]
    fn complex_tiles_cost_double() {
        let r = block_plan(56, 56, 0, 1);
        let c = block_plan(56, 56, 0, 2);
        assert_eq!(c.threads, 256, "complex 56x56 exceeds the 64-thread tile");
        assert!(c.regs_per_thread < r.regs_per_thread * 2);
    }

    #[test]
    fn stap_80x16_complex_fits_one_block() {
        // Section VII: "the 80x16 problem fits in a single thread block".
        let p = block_plan(80, 16, 0, 2);
        assert_eq!(p.threads, 64);
        assert!(!p.spills(), "regs = {}", p.regs_per_thread);
    }

    #[test]
    fn rhs_column_is_carried() {
        let p = block_plan(48, 48, 1, 1);
        assert_eq!(p.cols(), 49);
        assert_eq!(p.wreg, 7);
    }

    #[test]
    fn thread_plan_boundary_matches_figure_4() {
        assert!(thread_plan(7, 0, 1).fits_registers());
        assert!(!thread_plan(8, 0, 1).fits_registers());
    }

    #[test]
    fn heuristic_plan_follows_the_paper_rules() {
        use crate::intensity::Algorithm;
        let key = |m, n, rhs, ew| PlanKey::new(Algorithm::Qr, m, n, rhs, ew, 1024, MathMode::Fast);
        assert_eq!(heuristic_plan(&key(6, 6, 0, 1)).approach, Approach::PerThread);
        assert_eq!(heuristic_plan(&key(56, 56, 0, 1)).approach, Approach::PerBlock);
        assert_eq!(heuristic_plan(&key(240, 66, 0, 2)).approach, Approach::Tiled);
        // Wider than tall can't run per-block.
        assert_eq!(heuristic_plan(&key(16, 32, 0, 1)).approach, Approach::Tiled);
    }

    #[test]
    fn plan_key_buckets_batches_by_log2() {
        use crate::intensity::Algorithm;
        let k = |b| PlanKey::new(Algorithm::Lu, 8, 8, 0, 1, b, MathMode::Fast);
        assert_eq!(k(1).batch_log2, 0);
        assert_eq!(k(1000), k(1023), "same power-of-two bucket");
        assert_ne!(k(1023), k(1024));
        assert_eq!(k(4096).batch(), 4096);
        assert_eq!(k(0).batch(), 1, "batch 0 clamps to 1");
    }

    #[test]
    fn block_threads_for_honors_layout_and_override() {
        let p = Plan::new(Approach::PerBlock);
        assert_eq!(p.block_threads_for(56, 56, 1), 64);
        assert_eq!(p.block_threads_for(80, 80, 1), 256);
        assert_eq!(p.with_threads(256).block_threads_for(56, 56, 1), 256);
        // 1D layouts pin the paper's 64 threads regardless.
        let row = p.with_layout(Layout::RowCyclic).with_threads(256);
        assert_eq!(row.block_threads_for(80, 80, 1), 64);
    }

    #[test]
    fn decision_table_round_trips_bit_exactly() {
        use crate::intensity::Algorithm;
        let mut t = DecisionTable::new("quadro_6000");
        t.insert(
            PlanKey::new(Algorithm::Qr, 56, 56, 0, 1, 8000, MathMode::Fast),
            TableEntry {
                plan: Plan::new(Approach::PerBlock).with_threads(256),
                predicted_cycles: 123456.789,
                simulated_cycles: Some(0.1 + 0.2), // deliberately non-round bits
            },
        );
        t.insert(
            PlanKey::new(Algorithm::LeastSquares, 240, 66, 1, 2, 128, MathMode::Precise),
            TableEntry {
                plan: Plan::new(Approach::Tiled).with_panel(8).with_pipeline(4, 2),
                predicted_cycles: f64::MIN_POSITIVE,
                simulated_cycles: None,
            },
        );
        let text = t.to_text();
        let back = DecisionTable::from_text(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn decision_table_parse_errors_carry_line_numbers() {
        assert_eq!(DecisionTable::from_text("nope").unwrap_err().line, 1);
        let no_device = "regla-decision-table v1\nentry";
        assert_eq!(DecisionTable::from_text(no_device).unwrap_err().line, 2);
        let bad_entry = "regla-decision-table v1\ndevice x\n\n# comment\nentry bogus";
        let e = DecisionTable::from_text(bad_entry).unwrap_err();
        assert_eq!(e.line, 5);
        let bad_alg = "regla-decision-table v1\ndevice x\nentry zz 8 8 0 1 0 fast pt 2d - 16 1 1 0000000000000000 -";
        let e = DecisionTable::from_text(bad_alg).unwrap_err();
        assert!(e.msg.contains("zz"), "{e}");
    }

    /// Negative paths the round-trip test cannot reach: corrupted cycle
    /// bits, truncated documents, and a future format version must all
    /// come back as structured `TableParseError`s, never as a panic or a
    /// silently half-loaded table.
    #[test]
    fn decision_table_rejects_corrupt_and_truncated_documents() {
        // Non-hex predicted-cycle bits (field 14).
        let bad_hex = "regla-decision-table v1\ndevice x\n\
                       entry qr 8 8 0 1 0 fast pt 2d - 16 1 1 zzzznothex000000 -";
        let e = DecisionTable::from_text(bad_hex).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("bad cycle bits"), "{e}");
        assert!(e.to_string().contains("line 3"), "{e}");

        // Non-hex simulated-cycle bits (field 15, optional but validated).
        let bad_sim = "regla-decision-table v1\ndevice x\n\
                       entry qr 8 8 0 1 0 fast pt 2d - 16 1 1 0000000000000000 nope";
        let e = DecisionTable::from_text(bad_sim).unwrap_err();
        assert!(e.msg.contains("bad cycle bits `nope`"), "{e}");

        // Truncated documents: empty, header-only, and an entry cut off
        // mid-line (as a partial write would leave behind).
        assert_eq!(DecisionTable::from_text("").unwrap_err().line, 1);
        let header_only = "regla-decision-table v1";
        let e = DecisionTable::from_text(header_only).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("missing `device"), "{e}");
        let cut = "regla-decision-table v1\ndevice x\n\
                   entry qr 8 8 0 1 0 fast pt 2d - 16";
        let e = DecisionTable::from_text(cut).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("15 fields"), "{e}");

        // A future header version is a line-1 header error, not a guess.
        let v2 = "regla-decision-table v2\ndevice x";
        let e = DecisionTable::from_text(v2).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("regla-decision-table v1"), "{e}");

        // Bad integer fields still name the offending token.
        let bad_int = "regla-decision-table v1\ndevice x\n\
                       entry qr 8 eight 0 1 0 fast pt 2d - 16 1 1 0000000000000000 -";
        let e = DecisionTable::from_text(bad_int).unwrap_err();
        assert!(e.msg.contains("bad integer `eight`"), "{e}");
    }

    #[test]
    fn table_planner_falls_back_to_heuristic_on_miss() {
        use crate::intensity::Algorithm;
        let params = ModelParams::table_iv();
        let cfg = regla_gpu_sim::GpuConfig::quadro_6000();
        let hit = PlanKey::new(Algorithm::Qr, 56, 56, 0, 1, 8000, MathMode::Fast);
        let miss = PlanKey::new(Algorithm::Lu, 8, 8, 0, 1, 8000, MathMode::Fast);
        let mut t = DecisionTable::new("quadro_6000");
        let tuned = Plan::new(Approach::PerBlock).with_threads(256);
        t.insert(
            hit,
            TableEntry {
                plan: tuned,
                predicted_cycles: 1.0,
                simulated_cycles: None,
            },
        );
        let planner = Planner::Table(Arc::new(t));
        assert_eq!(planner.plan(&params, &cfg, &hit), tuned);
        assert_eq!(planner.plan(&params, &cfg, &miss), heuristic_plan(&miss));
    }
}

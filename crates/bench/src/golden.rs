//! The golden bit-identity cases behind `results/golden_sim.txt`.
//!
//! A fixed table of small runs spans ops × approaches (per-thread,
//! per-block in all three layouts, tiled, GEMM, TSQR) × math modes ×
//! f32/C32 × exec modes (`Full`, `Sampled(k)`, `Representative`) ×
//! observers (trace sink, sanitizer, a mixed fault plan with recovery, a
//! `SilentFlip` plan with verification on). Each case reduces to three
//! FNV-1a hashes:
//!
//! * `out` — the outputs, taus and solutions of the problems whose blocks
//!   executed (the others hold no computed result);
//! * `status` — the full per-problem status vector and the recovery
//!   counters;
//! * `timing` — every launch's grid, modeled cycles and phase records.
//!
//! The `golden_sim` bin writes [`render`] to `results/golden_sim.txt`;
//! the root test `tests/golden_sim.rs` recomputes it at one and at two
//! replay threads and compares case by case. A change that moves
//! simulated results on purpose regenerates the file and names the
//! changed lines.

use crate::workloads::{c32_batch, f32_batch};
use regla_core::{
    BatchRun, DeviceScalar, Layout, MatBatch, Op, RunOpts, Scalar, Session, VerifyMode,
};
use regla_gpu_sim::{
    ExecMode, FaultKind, FaultPlan, LaunchConfig, LaunchStats, MathMode, Profiler, SanitizerMode,
};
use regla_model::Approach;

/// First line of the golden file.
pub const HEADER: &str = "regla-golden-sim v1";

/// What a case calls.
#[derive(Clone, Copy, Debug)]
enum Call {
    Op(Op),
    Tsqr,
}

/// What observes the case's launches.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Observer {
    None,
    Trace,
    Sanitizer,
    /// A mixed-kind fault plan, recovered by the default policy.
    Faults,
    /// Silent mantissa flips with every verification screen on.
    SilentFlip,
}

/// One golden case. `m x n` is the system (GEMM: A); `rhs` counts the
/// right-hand-side columns (GEMM: the columns of B).
#[derive(Clone, Copy, Debug)]
pub struct Case {
    call: Call,
    m: usize,
    n: usize,
    rhs: usize,
    count: usize,
    complex: bool,
    approach: Option<Approach>,
    layout: Option<Layout>,
    math: MathMode,
    exec: ExecMode,
    observer: Observer,
}

/// Per-thread batches span three blocks of 64 problems, the last partial.
const PT_COUNT: usize = 150;
/// Per-block, tiled and GEMM batches: one problem per block.
const PB_COUNT: usize = 7;

impl Case {
    fn new(op: Op, m: usize, n: usize, count: usize, approach: Option<Approach>) -> Self {
        let rhs = match op {
            Op::GjSolve => 2,
            Op::QrSolve | Op::LeastSquares => 1,
            Op::Gemm => 5,
            _ => 0,
        };
        Case {
            call: Call::Op(op),
            m,
            n,
            rhs,
            count,
            complex: false,
            approach,
            layout: None,
            math: MathMode::Fast,
            exec: ExecMode::Full,
            observer: Observer::None,
        }
    }

    fn pt(op: Op) -> Self {
        Case::new(op, 6, 6, PT_COUNT, Some(Approach::PerThread))
    }

    fn pb(op: Op) -> Self {
        Case::new(op, 10, 10, PB_COUNT, Some(Approach::PerBlock))
    }

    fn tiled(op: Op) -> Self {
        Case::new(op, 24, 12, PB_COUNT, Some(Approach::Tiled))
    }

    fn complex(self) -> Self {
        Case {
            complex: true,
            ..self
        }
    }

    fn layout(self, l: Layout) -> Self {
        Case {
            layout: Some(l),
            ..self
        }
    }

    fn precise(self) -> Self {
        Case {
            math: MathMode::Precise,
            ..self
        }
    }

    fn exec(self, exec: ExecMode) -> Self {
        Case { exec, ..self }
    }

    fn observed(self, observer: Observer) -> Self {
        Case { observer, ..self }
    }

    /// The case's line key: every field that shapes the run.
    pub fn name(&self) -> String {
        let call = match self.call {
            Call::Op(op) => op.name(),
            Call::Tsqr => "tsqr",
        };
        let rhs = if self.rhs > 0 {
            format!("+{}", self.rhs)
        } else {
            String::new()
        };
        let elem = if self.complex { "c32" } else { "f32" };
        let approach = match self.approach {
            None => "auto",
            Some(Approach::PerThread) => "pt",
            Some(Approach::PerBlock) => "pb",
            Some(Approach::Tiled) => "tiled",
            Some(Approach::Hybrid) => "hybrid",
        };
        let layout = match self.layout {
            None => "",
            Some(Layout::TwoDCyclic) => "-2d",
            Some(Layout::RowCyclic) => "-row",
            Some(Layout::ColCyclic) => "-col",
        };
        let math = match self.math {
            MathMode::Fast => "fast",
            MathMode::Precise => "precise",
        };
        let exec = match self.exec {
            ExecMode::Full => "full".to_string(),
            ExecMode::Sampled(k) => format!("sampled{k}"),
            ExecMode::Representative => "repr".to_string(),
        };
        let observer = match self.observer {
            Observer::None => "",
            Observer::Trace => ".trace",
            Observer::Sanitizer => ".sanitizer",
            Observer::Faults => ".faults",
            Observer::SilentFlip => ".silentflip",
        };
        format!(
            "{call}.{}x{}{rhs}.x{}.{elem}.{approach}{layout}.{math}.{exec}{observer}",
            self.m, self.n, self.count
        )
    }

    fn opts(&self, seed: u64, host_threads: usize) -> RunOpts {
        let mut b = RunOpts::builder()
            .host_threads(host_threads)
            .approach(self.approach)
            .layout(self.layout)
            .math(self.math)
            .exec(self.exec);
        if self.approach == Some(Approach::Tiled) {
            b = b.panel(4);
        }
        b = match self.observer {
            Observer::None => b,
            Observer::Trace => b.trace(Profiler::new()),
            Observer::Sanitizer => b.sanitizer(SanitizerMode::Full),
            Observer::Faults => b.fault(FaultPlan::new(seed, 2)),
            Observer::SilentFlip => b
                .fault(FaultPlan::new(seed, 3).kind(FaultKind::SilentFlip))
                .verify(VerifyMode::Full),
        };
        b.build().expect("golden case options are valid")
    }

    /// Inputs: diagonally dominant for the pivot-free eliminations,
    /// Hermitian positive definite for Cholesky, plain random otherwise.
    fn inputs<T: Scalar>(
        &self,
        seed: u64,
        gen: impl Fn(usize, usize, bool, u64) -> MatBatch<T>,
    ) -> (MatBatch<T>, Option<MatBatch<T>>) {
        let op = match self.call {
            Call::Op(op) => op,
            Call::Tsqr => Op::LeastSquares,
        };
        let dd = matches!(op, Op::Lu | Op::GjSolve | Op::Invert);
        let mut a = gen(self.m, self.n, dd, seed);
        if op == Op::Cholesky {
            let n = self.n;
            a = MatBatch::from_fn(n, n, self.count, |k, i, j| {
                let s = (a.get(k, i, j) + a.get(k, j, i).conj()).scale(0.5);
                if i == j {
                    T::from_f64(s.real() + n as f64)
                } else {
                    s
                }
            });
        }
        let b_rows = if op == Op::Gemm { self.n } else { self.m };
        let b = (self.rhs > 0).then(|| gen(b_rows, self.rhs, false, seed ^ 0xB));
        (a, b)
    }

    /// The case's line of the golden file, replayed on `host_threads`
    /// host threads.
    pub fn line(&self, host_threads: usize) -> String {
        let name = self.name();
        let seed = {
            let mut h = Fnv::new();
            h.bytes(name.as_bytes());
            h.0
        };
        let count = self.count;
        let [out, status, timing] = if self.complex {
            let (a, b) = self.inputs(seed, |m, n, dd, s| c32_batch(m, n, count, dd, s));
            self.digest(&name, seed, host_threads, &a, b.as_ref())
        } else {
            let (a, b) = self.inputs(seed, |m, n, dd, s| f32_batch(m, n, count, dd, s));
            self.digest(&name, seed, host_threads, &a, b.as_ref())
        };
        format!("case {name} {out:016x} {status:016x} {timing:016x}")
    }

    fn digest<T: DeviceScalar>(
        &self,
        name: &str,
        seed: u64,
        host_threads: usize,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
    ) -> [u64; 3] {
        let session = Session::builder().opts(self.opts(seed, host_threads)).build();
        let (mut out, mut status, mut timing) = (Fnv::new(), Fnv::new(), Fnv::new());
        match self.call {
            Call::Tsqr => {
                let b = b.expect("tsqr carries a right-hand side");
                let (x, ml) = session
                    .tsqr_least_squares(a, b)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                out.problems(&x, 0..x.count());
                timing.launches(&ml.launches);
            }
            Call::Op(op) => {
                let o = session
                    .run(op, a, b)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let run = &o.run;
                let executed = executed_problems(run, self.exec);
                out.problems(&run.out, executed.iter().copied());
                if let Some(t) = &run.taus {
                    out.problems(t, executed.iter().copied());
                }
                if let Some(x) = &o.solution {
                    out.problems(x, executed.iter().copied());
                }
                for s in &run.status {
                    status.bytes(format!("{s:?};").as_bytes());
                }
                status.bytes(format!("{:?}", run.recovery).as_bytes());
                timing.launches(&run.stats.launches);
            }
        }
        [out.0, status.0, timing.0]
    }
}

/// Problems whose blocks executed: a per-thread block carries one problem
/// per thread, every other block one problem.
fn executed_problems<T>(run: &BatchRun<T>, exec: ExecMode) -> Vec<usize> {
    let count = run.status.len();
    let l0 = &run.stats.launches[0];
    let per_block = if run.approach == Approach::PerThread {
        l0.threads_per_block
    } else {
        1
    };
    LaunchConfig::new(l0.grid_blocks, 1)
        .exec(exec)
        .executed_blocks()
        .into_iter()
        .flat_map(|b| (b * per_block)..((b + 1) * per_block).min(count))
        .collect()
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn problems<T: Scalar>(&mut self, b: &MatBatch<T>, problems: impl Iterator<Item = usize>) {
        for p in problems {
            for j in 0..b.cols() {
                for i in 0..b.rows() {
                    for w in &b.get(p, i, j).to_words()[..T::WORDS] {
                        self.bytes(&w.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }

    fn launches(&mut self, launches: &[LaunchStats]) {
        for l in launches {
            self.bytes(&(l.grid_blocks as u64).to_le_bytes());
            self.bytes(&(l.threads_per_block as u64).to_le_bytes());
            self.bytes(&l.cycles.to_bits().to_le_bytes());
            self.bytes(format!("{:?}", l.phases).as_bytes());
        }
    }
}

/// The case table.
pub fn cases() -> Vec<Case> {
    let pt_ops = [
        Op::Qr,
        Op::Lu,
        Op::GjSolve,
        Op::QrSolve,
        Op::Cholesky,
        Op::Invert,
    ];
    let pb_ops = [Op::Lu, Op::Qr, Op::QrSolve, Op::GjSolve, Op::Cholesky];
    let sampled = [
        ExecMode::Sampled(2),
        ExecMode::Sampled(3),
        ExecMode::Representative,
    ];
    let mut c = Vec::new();
    // Per-thread: every op, the exec modes (150 problems: Sampled(2) runs
    // the two full blocks, Sampled(3) also the partial last one), C32 and
    // precise math.
    c.extend(pt_ops.map(Case::pt));
    for op in [Op::Qr, Op::Lu, Op::GjSolve] {
        c.extend(sampled.map(|e| Case::pt(op).exec(e)));
        c.push(Case::pt(op).precise());
    }
    for op in [Op::Qr, Op::Lu, Op::QrSolve] {
        c.push(Case::pt(op).complex());
    }
    c.push(Case::pt(Op::Qr).complex().exec(ExecMode::Sampled(2)));
    // Per-block: every op in every layout, then the exec modes, C32 and
    // precise math on the default 2D layout.
    for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
        c.extend(pb_ops.map(|op| Case::pb(op).layout(layout)));
    }
    for op in [Op::Qr, Op::Lu, Op::GjSolve] {
        c.extend(sampled[1..].iter().map(|&e| Case::pb(op).exec(e)));
        c.push(Case::pb(op).precise());
        c.push(Case::pb(op).complex());
    }
    c.push(Case::pb(Op::Qr).complex().exec(ExecMode::Sampled(3)));
    c.push(Case::pb(Op::Invert));
    c.push(Case::new(
        Op::LeastSquares,
        16,
        8,
        PB_COUNT,
        Some(Approach::PerBlock),
    ));
    // Larger shapes: the per-thread spill regime, per-block panel
    // recursion at 64 and 256 threads, the STAP shape, planner choices.
    let (pt, pb) = (Some(Approach::PerThread), Some(Approach::PerBlock));
    for op in [Op::Qr, Op::Lu] {
        c.push(Case::new(op, 12, 12, PT_COUNT, pt));
        c.push(Case::new(op, 32, 32, 3, pb));
        c.push(Case::new(op, 48, 48, 2, pb));
    }
    c.push(Case::new(Op::Qr, 80, 16, 3, pb).complex());
    c.push(Case::new(Op::Qr, 8, 8, PT_COUNT, None));
    c.push(Case::new(Op::Lu, 24, 24, PB_COUNT, None));
    // Tiled QR and least squares, the GEMM kernel and TSQR.
    c.push(Case::tiled(Op::Qr));
    c.push(Case::tiled(Op::Qr).complex());
    c.extend(sampled[1..].iter().map(|&e| Case::tiled(Op::Qr).exec(e)));
    c.push(Case::tiled(Op::LeastSquares));
    c.push(Case::tiled(Op::LeastSquares).exec(ExecMode::Sampled(3)));
    let gemm = Case::new(Op::Gemm, 9, 7, PB_COUNT, None);
    c.push(gemm);
    c.push(gemm.complex());
    c.push(gemm.exec(ExecMode::Sampled(3)));
    let tsqr = Case {
        call: Call::Tsqr,
        m: 48,
        n: 6,
        rhs: 1,
        ..Case::new(Op::Qr, 48, 6, PB_COUNT, None)
    };
    c.push(tsqr);
    c.push(tsqr.complex());
    // Observers on each approach.
    for obs in [Observer::Trace, Observer::Sanitizer, Observer::Faults] {
        c.push(Case::pt(Op::Lu).observed(obs));
        c.push(Case::pb(Op::Qr).observed(obs));
        c.push(Case::tiled(Op::Qr).observed(obs));
    }
    c.push(Case::pt(Op::Qr).observed(Observer::SilentFlip));
    c.push(
        Case::pt(Op::Qr)
            .exec(ExecMode::Sampled(2))
            .observed(Observer::SilentFlip),
    );
    c.push(Case::pb(Op::QrSolve).observed(Observer::SilentFlip));
    c.push(Case::pb(Op::Lu).complex().observed(Observer::SilentFlip));
    c
}

/// The golden file's text: the header and one line per case, every
/// launch replayed on `host_threads` host threads. One thread replays
/// single-shard launches through the exclusive borrow of device memory
/// (when the disjoint-write checker is off), more replay multi-unit
/// launches through the worker pool; both must render the same file.
pub fn render(host_threads: usize) -> String {
    let mut text = format!("{HEADER}\n");
    for case in cases() {
        text.push_str(&case.line(host_threads));
        text.push('\n');
    }
    text
}

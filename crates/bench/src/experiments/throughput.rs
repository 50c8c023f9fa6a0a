//! `sim_throughput` — simulator throughput of the fast (observer-free)
//! execution path against the fully instrumented slow path.
//!
//! Three workload families, all timed on `sim_wall_s` (the simulator's
//! own share — host transfers excluded) over identical launch sequences:
//!
//! * `fig10_pt` — full-execution per-thread solves at the Figure 10 sweep
//!   shapes (the gate workload: the PR targets >= 10x here in full mode);
//! * `fig10_pb` — full-execution per-block solves;
//! * `sched_sweep` — the re-run regime: the same launch repeated in one
//!   session, where the fast path's schedule cache elides re-tracing.
//!
//! Every row also re-checks the engine contract: both legs must produce
//! bit-identical outputs, statuses and modeled cycle totals (the
//! `fast_slow_identity` proptests pin the same invariant more broadly).
//!
//! Each leg runs one untimed warm-up launch first: it touches the batch
//! pages and primes the fast leg's schedule cache, so the timed runs
//! measure the steady state of each engine rather than first-touch costs.

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::{f, Table};
use crate::workloads::f32_batch;
use regla_core::{MatBatch, Op, OpOutput, ProblemStatus, RunOpts, Session};
use regla_gpu_sim::ExecMode;
use regla_model::Approach;

/// One (workload, solver, shape) row: simulator throughput of the fast
/// path against the slow path over an identical launch sequence.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Workload family (`fig10_pt`, `fig10_pb`, `sched_sweep`, ...).
    pub workload: String,
    pub op: String,
    pub shape: String,
    /// Functional blocks each leg replayed (equal by construction).
    pub sim_blocks: usize,
    /// Simulator seconds per leg (`sim_wall_s`, transfers excluded).
    pub fast_sim_s: f64,
    pub slow_sim_s: f64,
    /// Blocks per second per leg.
    pub fast_blocks_per_sec: f64,
    pub slow_blocks_per_sec: f64,
    /// `slow_sim_s / fast_sim_s`.
    pub speedup: f64,
    /// Whether the two legs produced bit-identical device results.
    pub bit_identical: bool,
}

impl ThroughputRow {
    /// The row's `sim_throughput` entry in `BENCH_sim.json`.
    pub fn row(&self) -> Row {
        vec![
            ("workload", self.workload.as_str().into()),
            ("op", self.op.as_str().into()),
            ("shape", self.shape.as_str().into()),
            ("sim_blocks", self.sim_blocks.into()),
            ("fast_sim_s", Val::Num(self.fast_sim_s, 6)),
            ("slow_sim_s", Val::Num(self.slow_sim_s, 6)),
            ("fast_blocks_per_sec", Val::Num(self.fast_blocks_per_sec, 1)),
            ("slow_blocks_per_sec", Val::Num(self.slow_blocks_per_sec, 1)),
            ("speedup", Val::Num(self.speedup, 2)),
            ("bit_identical", self.bit_identical.into()),
        ]
    }
}

/// Everything a leg produced, as exact bits.
#[derive(PartialEq)]
struct Fingerprint {
    out: Vec<u32>,
    taus: Option<Vec<u32>>,
    solution: Option<Vec<u32>>,
    status: Vec<ProblemStatus>,
    cycles: Vec<u64>,
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|x| x.to_bits()).collect()
}

fn fingerprint(o: &OpOutput<f32>) -> Fingerprint {
    Fingerprint {
        out: bits(&o.run.out),
        taus: o.run.taus.as_ref().map(bits),
        solution: o.solution.as_ref().map(bits),
        status: o.run.status.clone(),
        cycles: o
            .run
            .stats
            .launches
            .iter()
            .map(|l| l.cycles.to_bits())
            .collect(),
    }
}

struct Leg {
    sim_s: f64,
    /// Grid blocks across all timed launches (identical for both legs by
    /// construction — unlike `sim_blocks`, which is host telemetry and
    /// legitimately differs by one when a schedule-cache hit demotes the
    /// traced block to a functional one).
    blocks: usize,
    fp: Fingerprint,
}

/// One warm-up launch (untimed), then `iters` timed launches.
fn run_leg(
    op: Op,
    a: &MatBatch<f32>,
    b: Option<&MatBatch<f32>>,
    opts: &RunOpts,
    iters: usize,
) -> Leg {
    let s = Session::builder().opts(opts.clone()).build();
    let _ = s.run(op, a, b).expect("warm-up run");
    let (mut sim_s, mut blocks) = (0.0, 0usize);
    let mut fp = None;
    for _ in 0..iters {
        let o = s.run(op, a, b).expect("timed run");
        sim_s += o.run.stats.launches.iter().map(|l| l.sim_wall_s).sum::<f64>();
        blocks += o.run.stats.launches.iter().map(|l| l.grid_blocks).sum::<usize>();
        fp.get_or_insert_with(|| fingerprint(&o));
    }
    Leg { sim_s, blocks, fp: fp.unwrap() }
}

struct Case {
    workload: &'static str,
    op: Op,
    approach: Approach,
    n: usize,
    count: usize,
    iters: usize,
    exec: ExecMode,
}

fn cases(fast: bool) -> Vec<Case> {
    let mut v = Vec::new();
    let pt_shapes: &[(usize, usize, usize)] = if fast {
        &[(8, 8000, 64000), (32, 1600, 6400), (64, 400, 1600)]
    } else {
        &[(8, 64000, 64000), (32, 6400, 6400), (64, 1600, 1600)]
    };
    for &(n, count, _) in pt_shapes {
        for op in [Op::Lu, Op::QrSolve, Op::GjSolve, Op::Cholesky] {
            v.push(Case {
                workload: "fig10_pt",
                op,
                approach: Approach::PerThread,
                n,
                count,
                iters: 1,
                exec: ExecMode::Full,
            });
        }
    }
    let pb_shapes: &[(usize, usize)] =
        if fast { &[(32, 800), (56, 300)] } else { &[(32, 4000), (56, 2000)] };
    for &(n, count) in pb_shapes {
        for op in [Op::Lu, Op::QrSolve] {
            v.push(Case {
                workload: "fig10_pb",
                op,
                approach: Approach::PerBlock,
                n,
                count,
                iters: 1,
                exec: ExecMode::Full,
            });
        }
    }
    v.push(Case {
        workload: "sched_sweep",
        op: Op::QrSolve,
        approach: Approach::PerBlock,
        n: 56,
        count: if fast { 500 } else { 2000 },
        iters: if fast { 4 } else { 8 },
        exec: ExecMode::Representative,
    });
    v
}

fn opts(c: &Case, slow: bool) -> RunOpts {
    RunOpts::builder()
        .exec(c.exec)
        .approach(c.approach)
        .slow_path(slow)
        .build().unwrap()
}

/// Run the experiment and return (rendered report, per-case rows).
pub fn sim_throughput_rows(fast: bool) -> (String, Vec<ThroughputRow>) {
    let mut t = Table::new(
        "Simulator throughput — fast path vs instrumented slow path \
         (sim seconds, transfers excluded)",
        &[
            "workload", "op", "shape", "blocks", "fast blk/s", "slow blk/s", "speedup",
            "identical",
        ],
    );
    let mut rows = Vec::new();
    for c in cases(fast) {
        let a = f32_batch(c.n, c.n, c.count, true, 0x7D00 + c.n as u64);
        let b = c
            .op
            .needs_rhs()
            .then(|| f32_batch(c.n, 1, c.count, false, 0x7E00 + c.n as u64));
        let fl = run_leg(c.op, &a, b.as_ref(), &opts(&c, false), c.iters);
        let sl = run_leg(c.op, &a, b.as_ref(), &opts(&c, true), c.iters);
        let shape = format!("{0}x{0}x{1}", c.n, c.count);
        let row = ThroughputRow {
            workload: c.workload.into(),
            op: format!("{:?}", c.op),
            shape: shape.clone(),
            sim_blocks: fl.blocks,
            fast_sim_s: fl.sim_s,
            slow_sim_s: sl.sim_s,
            fast_blocks_per_sec: fl.blocks as f64 / fl.sim_s.max(1e-12),
            slow_blocks_per_sec: sl.blocks as f64 / sl.sim_s.max(1e-12),
            speedup: sl.sim_s / fl.sim_s.max(1e-12),
            bit_identical: fl.fp == sl.fp,
        };
        t.row(&[
            row.workload.clone(),
            row.op.clone(),
            shape,
            row.sim_blocks.to_string(),
            f(row.fast_blocks_per_sec),
            f(row.slow_blocks_per_sec),
            format!("{:.1}x", row.speedup),
            row.bit_identical.to_string(),
        ]);
        rows.push(row);
    }
    for wl in ["fig10_pt", "fig10_pb", "sched_sweep"] {
        let (fs, ss, blocks, ident) = rows
            .iter()
            .filter(|r| r.workload == wl)
            .fold((0.0, 0.0, 0, true), |(fs, ss, bl, id), r| {
                (fs + r.fast_sim_s, ss + r.slow_sim_s, bl + r.sim_blocks, id && r.bit_identical)
            });
        let row = ThroughputRow {
            workload: wl.into(),
            op: "all".into(),
            shape: "aggregate".into(),
            sim_blocks: blocks,
            fast_sim_s: fs,
            slow_sim_s: ss,
            fast_blocks_per_sec: blocks as f64 / fs.max(1e-12),
            slow_blocks_per_sec: blocks as f64 / ss.max(1e-12),
            speedup: ss / fs.max(1e-12),
            bit_identical: ident,
        };
        t.row(&[
            wl.into(),
            "all".into(),
            "aggregate".into(),
            blocks.to_string(),
            f(row.fast_blocks_per_sec),
            f(row.slow_blocks_per_sec),
            format!("{:.1}x", row.speedup),
            ident.to_string(),
        ]);
        rows.push(row);
    }
    t.note(
        "fast = observer-free path (replay blocks in the plain value domain, arena state, \
         schedule cache); slow = every block in the tracked domain, the path every observed \
         run takes. Both legs run the same kernel bodies over identical launch sequences \
         and must agree bit for bit.",
    );
    (t.render(), rows)
}

/// Harness entry point (see `experiments::ALL`).
pub fn sim_throughput(fast: bool, c: &mut Collector) -> String {
    let (report, rows) = sim_throughput_rows(fast);
    c.add(Section::SimThroughput, rows.iter().map(ThroughputRow::row));
    report
}

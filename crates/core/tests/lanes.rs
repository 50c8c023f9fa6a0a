//! Lane-group replay.
//!
//! On a fast launch, a lane-capable kernel replays a lane group of 2, 4, 8
//! or 16 blocks per pass of its body over lane values, as wide as the
//! block's working set allows. Every group must be bit-identical to the
//! instrumented path — outputs, taus, statuses and per-launch cycles — and
//! a group whose lanes disagree on a branch (one zero pivot, one non-SPD
//! diagonal, one zero column) must be undone and replayed one block at a
//! time. The lane counts in `LaunchStats` show the groups really ran, so a
//! silent all-scalar replay cannot pass for lanes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regla_core::elem::{run_in_domain, DomainKernel, Slab};
use regla_core::{
    DeviceScalar, Elem, Layout, MatBatch, Op, OpOutput, ProblemStatus, RunOpts, RunOptsBuilder,
    Session, C32,
};
use regla_gpu_sim::{
    BlockCtx, BlockKernel, DPtr, ExecMode, FaultKind, FaultPlan, GlobalMemory, Gpu, LaunchConfig,
    MathMode, Rv,
};
use regla_model::Approach;

/// Problems per per-thread block (`regla_core`'s per-thread launch width).
const TPB: usize = 64;

/// Random `[-1, 1)` entries (both parts for complex scalars).
fn draw<T: DeviceScalar>(r: &mut StdRng) -> T {
    T::from_words([r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0)])
}

/// `op`'s inputs: Hermitian strictly diagonally dominant (so SPD) for
/// Cholesky, plain random for the QR family (the reflector sign then
/// differs from lane to lane), diagonally dominant otherwise.
fn inputs<T: DeviceScalar>(
    op: Op,
    n: usize,
    count: usize,
    seed: u64,
) -> (MatBatch<T>, Option<MatBatch<T>>) {
    let mut r = StdRng::seed_from_u64(seed);
    let b = MatBatch::from_fn(n, n, count, |_, _, _| draw::<T>(&mut r));
    let dominant = T::from_f64(4.0 * n as f64);
    let a = match op {
        Op::Cholesky => MatBatch::from_fn(n, n, count, |k, i, j| {
            if i == j {
                dominant
            } else {
                b.get(k, i, j) + b.get(k, j, i).conj()
            }
        }),
        Op::Qr | Op::QrSolve => b,
        _ => MatBatch::from_fn(n, n, count, |k, i, j| {
            b.get(k, i, j) + if i == j { dominant } else { T::zero() }
        }),
    };
    let rhs = matches!(op, Op::GjSolve | Op::QrSolve)
        .then(|| MatBatch::from_fn(n, 1, count, |_, _, _| draw::<T>(&mut r)));
    (a, rhs)
}

/// Everything the simulated device produced, as exact bits.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    out: Vec<u32>,
    taus: Option<Vec<u32>>,
    solution: Option<Vec<u32>>,
    status: Vec<ProblemStatus>,
    cycles: Vec<u64>,
}

fn bits<T: DeviceScalar>(b: &MatBatch<T>) -> Vec<u32> {
    b.data()
        .iter()
        .flat_map(|x| x.to_words()[..T::WORDS].to_vec())
        .map(f32::to_bits)
        .collect()
}

fn fingerprint<T: DeviceScalar>(o: &OpOutput<T>) -> Fingerprint {
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

/// Blocks replayed in completed lane groups, and groups abandoned.
fn lane_counts<T>(o: &OpOutput<T>) -> (usize, usize) {
    o.run.stats.launches.iter().fold((0, 0), |(b, g), l| {
        (b + l.sim_lane_blocks, g + l.sim_lane_groups_abandoned)
    })
}

fn run<T: DeviceScalar>(
    op: Op,
    a: &MatBatch<T>,
    rhs: Option<&MatBatch<T>>,
    opts: RunOpts,
) -> OpOutput<T> {
    Session::builder()
        .opts(opts)
        .build()
        .run(op, a, rhs)
        .unwrap_or_else(|e| panic!("{op:?} runs: {e:?}"))
}

/// Options forcing `approach` under `exec`.
fn forced(approach: Approach, exec: ExecMode) -> impl Fn() -> RunOptsBuilder {
    move || RunOpts::builder().approach(approach).exec(exec)
}

/// Run `op` on the lane path at 1 and 2 host threads and on the
/// instrumented path; assert bit identity and return the lane counts
/// (identical at both thread counts: grouping ignores sharding).
fn lanes_match_slow<T: DeviceScalar>(
    op: Op,
    opts: impl Fn() -> RunOptsBuilder,
    a: &MatBatch<T>,
    rhs: Option<&MatBatch<T>>,
) -> (usize, usize, Fingerprint) {
    let build = |threads: usize, slow: bool| {
        opts()
            .host_threads(threads)
            .slow_path(slow)
            .build()
            .expect("valid options")
    };
    let slow = fingerprint(&run(op, a, rhs, build(1, true)));
    let mut counts = None;
    for threads in [1, 2] {
        let out = run(op, a, rhs, build(threads, false));
        assert_eq!(
            fingerprint(&out),
            slow,
            "{op:?} {:?} at {threads} host threads",
            opts().build()
        );
        let c = lane_counts(&out);
        assert_eq!(
            *counts.get_or_insert(c),
            c,
            "{op:?}: grouping depends on threads"
        );
    }
    let (blocks, abandoned) = counts.expect("ran");
    (blocks, abandoned, slow)
}

fn per_block_case<T: DeviceScalar>(op: Op) {
    // 13 blocks: block 0 is traced, blocks 1..=8 form a group of 8, 9..=10
    // one of 2, 11 is left over and 12 is the grid's last block.
    let (a, rhs) = inputs::<T>(op, 12, 13, 7);
    let counts = lanes_match_slow(
        op,
        forced(Approach::PerBlock, ExecMode::Full),
        &a,
        rhs.as_ref(),
    );
    assert_eq!(
        (counts.0, counts.1),
        (10, 0),
        "{op:?} per-block complex={}",
        T::IS_COMPLEX
    );
}

fn per_thread_case<T: DeviceScalar>(op: Op) {
    // 10 full blocks and a partial last one: blocks 1..=8 form a group,
    // block 9 is left over and the partial block 10 replays alone.
    let (a, rhs) = inputs::<T>(op, 4, 10 * TPB + 5, 11);
    let counts = lanes_match_slow(
        op,
        forced(Approach::PerThread, ExecMode::Full),
        &a,
        rhs.as_ref(),
    );
    assert_eq!(
        (counts.0, counts.1),
        (8, 0),
        "{op:?} per-thread complex={}",
        T::IS_COMPLEX
    );
}

#[test]
fn per_block_lane_groups_are_bit_identical() {
    for op in [Op::Lu, Op::GjSolve, Op::Qr, Op::QrSolve, Op::Cholesky] {
        per_block_case::<f32>(op);
        per_block_case::<C32>(op);
    }
}

/// 33 blocks: block 0 is traced, blocks 1..=31 replay as groups of 16, 8,
/// 4 and 2 and one single block, and 32 is the grid's last block — every
/// lane width in one launch.
#[test]
fn every_lane_width_is_bit_identical() {
    fn case<T: DeviceScalar>(op: Op) {
        let (a, rhs) = inputs::<T>(op, 8, 33, 73);
        let per_block = forced(Approach::PerBlock, ExecMode::Full);
        let (blocks, abandoned, _) = lanes_match_slow(op, &per_block, &a, rhs.as_ref());
        assert_eq!(
            (blocks, abandoned),
            (16 + 8 + 4 + 2, 0),
            "{op:?} complex={}",
            T::IS_COMPLEX
        );
        let out = run(op, &a, rhs.as_ref(), per_block().build().expect("valid options"));
        let widths: Vec<usize> = out.run.stats.launches.iter().map(|l| l.sim_lane_width).collect();
        assert_eq!(widths, [16], "{op:?}");
    }
    for op in [Op::Lu, Op::QrSolve, Op::Cholesky] {
        case::<f32>(op);
        case::<C32>(op);
    }
}

#[test]
fn per_thread_lane_groups_are_bit_identical() {
    for op in [Op::Lu, Op::GjSolve, Op::Qr, Op::Cholesky] {
        per_thread_case::<f32>(op);
        per_thread_case::<C32>(op);
    }
}

/// The kernel variants the default plan rarely picks run in lane groups
/// too: forced layouts, tree reductions, the Listing-7 LU update, precise
/// math, tiled QR with its reflector-apply kernel, GEMM, and complex QR at
/// the STAP shape.
#[test]
fn kernel_variants_run_in_lane_groups() {
    fn grouped<T: DeviceScalar>(
        what: &str,
        op: Op,
        a: &MatBatch<T>,
        rhs: Option<&MatBatch<T>>,
        opts: impl Fn() -> RunOptsBuilder,
    ) {
        let (blocks, abandoned, _) = lanes_match_slow(op, opts, a, rhs);
        assert!(
            blocks >= 8 && abandoned == 0,
            "{what}: {blocks} lane blocks, {abandoned} abandoned"
        );
    }
    let per_block = forced(Approach::PerBlock, ExecMode::Full);
    for layout in [Layout::RowCyclic, Layout::ColCyclic] {
        for op in [Op::Lu, Op::QrSolve, Op::GjSolve, Op::Cholesky] {
            let (a, rhs) = inputs::<f32>(op, 10, 13, 29);
            grouped(&format!("{op:?} {layout:?}"), op, &a, rhs.as_ref(), || {
                per_block().layout(layout)
            });
        }
    }
    let (a, rhs) = inputs::<f32>(Op::QrSolve, 12, 13, 31);
    grouped("QrSolve tree", Op::QrSolve, &a, rhs.as_ref(), || {
        per_block().layout(Layout::TwoDCyclic).tree_reduction(true)
    });
    let (a, _) = inputs::<f32>(Op::Lu, 12, 13, 37);
    grouped("Lu listing7", Op::Lu, &a, None, || {
        per_block().lu_listing7(true)
    });
    for approach in [Approach::PerBlock, Approach::PerThread] {
        let count = if approach == Approach::PerThread {
            10 * TPB
        } else {
            13
        };
        for op in [Op::QrSolve, Op::Cholesky] {
            let (a, rhs) = inputs::<f32>(op, 6, count, 41);
            grouped(
                &format!("{op:?} {approach:?} precise"),
                op,
                &a,
                rhs.as_ref(),
                || forced(approach, ExecMode::Full)().math(MathMode::Precise),
            );
        }
    }
    let tiled = || forced(Approach::Tiled, ExecMode::Full)().panel(4);
    let (a, _) = inputs::<f32>(Op::Qr, 24, 13, 43);
    let a = a.sub(0, 0, 24, 12);
    grouped("tiled Qr", Op::Qr, &a, None, tiled);
    let (b, _) = inputs::<f32>(Op::Qr, 24, 13, 47);
    let b = b.column(0);
    grouped("tiled LeastSquares", Op::LeastSquares, &a, Some(&b), tiled);
    let (x, _) = inputs::<f32>(Op::Qr, 9, 13, 53);
    let (y, _) = inputs::<f32>(Op::Qr, 11, 13, 59);
    let (x, y) = (x.sub(0, 0, 9, 7), y.sub(0, 0, 7, 11));
    grouped("Gemm", Op::Gemm, &x, Some(&y), RunOpts::builder);
    let (a, _) = inputs::<C32>(Op::Qr, 80, 10, 61);
    let a = a.sub(0, 0, 80, 16);
    grouped("complex Qr 80x16", Op::Qr, &a, None, per_block);

    // TSQR's row-block factorizations are per-block QR launches.
    let (a, _) = inputs::<f32>(Op::Qr, 48, 10, 67);
    let (b, _) = inputs::<f32>(Op::Qr, 48, 10, 71);
    let (a, b) = (a.sub(0, 0, 48, 6), b.column(0));
    let tsqr = |slow: bool| {
        let opts = RunOpts::builder()
            .slow_path(slow)
            .build()
            .expect("valid options");
        let (x, ml) = Session::builder()
            .opts(opts)
            .build()
            .tsqr_least_squares(&a, &b)
            .expect("tsqr runs");
        let cycles: Vec<u64> = ml.launches.iter().map(|l| l.cycles.to_bits()).collect();
        let lanes: usize = ml.launches.iter().map(|l| l.sim_lane_blocks).sum();
        (bits(&x), cycles, lanes)
    };
    let (fast, slow) = (tsqr(false), tsqr(true));
    assert_eq!((&fast.0, &fast.1), (&slow.0, &slow.1), "tsqr");
    assert!(fast.2 >= 8, "tsqr: {} lane blocks", fast.2);
}

/// Plain random QR inputs put both reflector signs inside one group: the
/// branch-free sign choice keeps the group together.
#[test]
fn reflector_sign_differs_per_lane_without_divergence() {
    fn case<T: DeviceScalar>() {
        let (a, _) = inputs::<T>(Op::Qr, 12, 13, 7);
        let signs: Vec<bool> = (1..=8).map(|k| a.get(k, 0, 0).real() > 0.0).collect();
        assert!(
            signs.contains(&true) && signs.contains(&false),
            "the group must mix reflector signs: {signs:?}"
        );
        let (blocks, abandoned, _) =
            lanes_match_slow(Op::Qr, forced(Approach::PerBlock, ExecMode::Full), &a, None);
        assert_eq!((blocks, abandoned), (10, 0));
    }
    case::<f32>();
    case::<C32>();
}

/// How the one divergent problem of a group is broken.
#[derive(Clone, Copy, Debug)]
enum Break {
    /// A zero first pivot (LU, GJ).
    ZeroPivot,
    /// A negative first diagonal (Cholesky).
    NotSpd,
    /// An all-zero first column (QR: no reflector).
    ZeroColumn,
}

impl Break {
    fn apply<T: DeviceScalar>(self, a: &mut MatBatch<T>, k: usize) {
        match self {
            Break::ZeroPivot => a.set(k, 0, 0, T::zero()),
            Break::NotSpd => {
                let v = a.get(k, 0, 0);
                a.set(k, 0, 0, -v);
            }
            Break::ZeroColumn => {
                for i in 0..a.rows() {
                    a.set(k, i, 0, T::zero());
                }
            }
        }
    }
}

/// Exactly one lane of the group breaks a branch the others take: its
/// group is abandoned, undone and replayed block by block — still bit for
/// bit the instrumented result, failure status included.
#[test]
fn a_lone_divergent_lane_abandons_its_group() {
    fn case<T: DeviceScalar>(op: Op, approach: Approach, how: Break) {
        // The victim's group of 8 is abandoned; a per-block launch's group
        // of 2 (blocks 9 and 10) still runs.
        let (n, count, victim, grouped) = match approach {
            Approach::PerThread => (4, 10 * TPB + 5, 3 * TPB + 17, 0),
            _ => (12, 13, 5, 2),
        };
        let (mut a, rhs) = inputs::<T>(op, n, count, 13);
        how.apply(&mut a, victim);
        let (blocks, abandoned, fp) =
            lanes_match_slow(op, forced(approach, ExecMode::Full), &a, rhs.as_ref());
        assert_eq!((blocks, abandoned), (grouped, 1), "{op:?} {approach:?} {how:?}");
        if op != Op::Qr {
            assert_eq!(
                fp.status[victim],
                ProblemStatus::ZeroPivot { col: 0 },
                "{op:?}"
            );
        }
        assert!(
            fp.status
                .iter()
                .enumerate()
                .all(|(k, s)| k == victim || *s == ProblemStatus::Ok),
            "{op:?} {approach:?}: only the victim fails"
        );
    }
    for approach in [Approach::PerBlock, Approach::PerThread] {
        case::<f32>(Op::Lu, approach, Break::ZeroPivot);
        case::<C32>(Op::Lu, approach, Break::ZeroPivot);
        case::<f32>(Op::GjSolve, approach, Break::ZeroPivot);
        case::<f32>(Op::Cholesky, approach, Break::NotSpd);
        case::<C32>(Op::Cholesky, approach, Break::NotSpd);
        case::<f32>(Op::Qr, approach, Break::ZeroColumn);
        case::<C32>(Op::Qr, approach, Break::ZeroColumn);
    }
}

/// `Sampled(k)` groups evenly spaced blocks; `Representative` replays
/// nothing, so it forms no group.
#[test]
fn sampled_and_representative_launches() {
    // 40 blocks sampled 20 ways: blocks 2, 4, .., 38 replay, the grid's
    // last block (39) is not among them — groups of 16 and 2 and a
    // leftover of 1.
    let (a, _) = inputs::<f32>(Op::Qr, 8, 40, 17);
    let counts = lanes_match_slow(
        Op::Qr,
        forced(Approach::PerBlock, ExecMode::Sampled(20)),
        &a,
        None,
    );
    assert_eq!((counts.0, counts.1), (18, 0));
    let (a, _) = inputs::<C32>(Op::Lu, 4, 20 * TPB, 19);
    let counts = lanes_match_slow(
        Op::Lu,
        forced(Approach::PerThread, ExecMode::Sampled(10)),
        &a,
        None,
    );
    assert_eq!((counts.0, counts.1), (8, 0));
    let representative = forced(Approach::PerThread, ExecMode::Representative);
    let counts = lanes_match_slow(Op::Lu, representative, &a, None);
    assert_eq!((counts.0, counts.1), (0, 0));
}

/// A fault plan arms a few blocks; every other block replays in lanes, and
/// the applied faults (reported and silent) match the instrumented path.
#[test]
fn fault_plans_replay_unarmed_blocks_in_lanes() {
    for kind in [None, Some(FaultKind::SilentFlip)] {
        let (a, _) = inputs::<f32>(Op::Qr, 4, 30 * TPB, 23);
        let mut plan = FaultPlan::new(5, 3);
        if let Some(k) = kind {
            plan = plan.kind(k);
        }
        let with_plan = |slow: bool| {
            let o = forced(Approach::PerThread, ExecMode::Full)()
                .host_threads(2)
                .slow_path(slow)
                .fault(plan)
                .build()
                .expect("valid options");
            run(Op::Qr, &a, None, o)
        };
        let (fast, slow) = (with_plan(false), with_plan(true));
        assert_eq!(fingerprint(&fast), fingerprint(&slow), "{kind:?}");
        let faults = |o: &OpOutput<f32>| {
            let l = &o.run.stats.launches;
            (
                l.iter().flat_map(|l| l.faults.clone()).collect::<Vec<_>>(),
                l.iter()
                    .flat_map(|l| l.silent_faults.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(faults(&fast), faults(&slow), "{kind:?}");
        let (f, s) = faults(&fast);
        assert!(!f.is_empty() || !s.is_empty(), "{kind:?}: the plan fired");
        let (blocks, _) = lane_counts(&fast);
        assert!(blocks >= 16, "{kind:?}: unarmed blocks ran in lanes");
    }
}

/// In place, per block: `x ← 2x`, then a branch on the original `x`.
/// A group whose lanes disagree on the branch has already stored `2x` for
/// every lane; its one-block replay must start from the original `x`,
/// which only the undo log can give back.
struct DoubleThenBranch {
    x: DPtr,
}

impl BlockKernel for DoubleThenBranch {
    fn run(&self, blk: &mut BlockCtx) {
        run_in_domain(self, blk)
    }

    fn lane_capable(&self) -> bool {
        true
    }
}

impl DomainKernel for DoubleThenBranch {
    type Elem = Rv;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        let x = Slab::new(self.x, 1);
        blk.for_each(|t| {
            if t.tid != 0 {
                return;
            }
            let v = D::gload(t, x, 0);
            let doubled = D::add(t, v, v);
            D::gstore(t, x, 0, doubled);
            if D::is_zero(t, v) {
                D::gstore(t, x, 0, D::imm(-1.0));
            }
        });
    }
}

#[test]
fn abandoned_groups_restore_their_stores() {
    let grid = 10;
    let run = |slow: bool| {
        let mut mem = GlobalMemory::new(grid);
        let x = mem.alloc(grid);
        for b in 0..grid {
            // One zero lane in the group of blocks 1..=8.
            mem.write(x, b, if b == 4 { 0.0 } else { b as f32 + 0.5 });
        }
        let lc = LaunchConfig::new(grid, 32)
            .shared_words(0)
            .host_threads(1)
            .slow_path(slow);
        let stats = Gpu::quadro_6000()
            .launch(&DoubleThenBranch { x }, &lc, &mut mem)
            .expect("launch");
        let out: Vec<u32> = (0..grid).map(|b| mem.read(x, b).to_bits()).collect();
        (out, stats.sim_lane_blocks, stats.sim_lane_groups_abandoned)
    };
    let (slow, _, _) = run(true);
    let (fast, lane_blocks, abandoned) = run(false);
    assert_eq!((lane_blocks, abandoned), (0, 1));
    assert_eq!(fast, slow, "the abandoned group's stores were not undone");
}

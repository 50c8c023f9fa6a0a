//! Lane-group replay.
//!
//! On a fast launch, a lane-capable kernel replays a lane group of 2, 4,
//! 8, 16 or 64 blocks per pass of its body over lane values, as wide as
//! the block's working set allows. Every group must be bit-identical to
//! the instrumented path — outputs, taus, statuses and per-launch cycles —
//! and a group whose lanes disagree on a branch (one zero pivot, one
//! non-SPD diagonal, one zero column) must be undone and replayed one
//! block at a time. The lane counts in `LaunchStats` show the groups
//! really ran, so a silent all-scalar replay cannot pass for lanes. Once a
//! session's schedule cache knows a launch, block 0 replays as lane 0 of
//! the first group and records its schedule-cache key there.

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

/// Host thread counts every lane-path run is checked at.
const THREADS: [usize; 3] = [1, 2, 3];

/// Run `op` on the lane path at 1, 2 and 3 host threads and on the
/// instrumented path; assert bit identity and return the lane counts
/// (identical at every thread count: grouping ignores who claims what).
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
    for threads in THREADS {
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
    // 13 blocks: block 0 is traced, blocks 1..=8 form a group of 8 and
    // 9..=12 one of 4: a per-block grid groups its last block.
    let (a, rhs) = inputs::<T>(op, 12, 13, 7);
    let counts = lanes_match_slow(
        op,
        forced(Approach::PerBlock, ExecMode::Full),
        &a,
        rhs.as_ref(),
    );
    assert_eq!(
        (counts.0, counts.1),
        (12, 0),
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

/// 160 blocks: block 0 is traced, and blocks 1..=159 replay as groups of
/// 64, 64, 16, 8, 4 and 2 and one single block (the grid's last) — every
/// lane width in one launch.
#[test]
fn every_lane_width_is_bit_identical() {
    fn case<T: DeviceScalar>(op: Op) {
        let (a, rhs) = inputs::<T>(op, 8, 160, 73);
        let per_block = forced(Approach::PerBlock, ExecMode::Full);
        let (blocks, abandoned, _) = lanes_match_slow(op, &per_block, &a, rhs.as_ref());
        assert_eq!(
            (blocks, abandoned),
            (64 + 64 + 16 + 8 + 4 + 2, 0),
            "{op:?} complex={}",
            T::IS_COMPLEX
        );
        let out = run(op, &a, rhs.as_ref(), per_block().build().expect("valid options"));
        let widths: Vec<usize> = out.run.stats.launches.iter().map(|l| l.sim_lane_width).collect();
        assert_eq!(widths, [64], "{op:?}");
    }
    for op in [Op::Lu, Op::QrSolve, Op::Cholesky] {
        case::<f32>(op);
        case::<C32>(op);
    }
}

/// A per-thread grid's partial last block replays alone, so no group is
/// abandoned for it: 8 005 LU 8×8 problems fill 125 blocks and 5 threads
/// of the last. Block 0 is traced, and blocks 1..=124 replay in groups of
/// 16 (seven of them), 8 and 4.
#[test]
fn a_partial_per_thread_last_block_abandons_no_group() {
    let (a, _) = inputs::<f32>(Op::Lu, 8, 125 * TPB + 5, 101);
    let per_thread = forced(Approach::PerThread, ExecMode::Full);
    let (blocks, abandoned, _) = lanes_match_slow(Op::Lu, per_thread, &a, None);
    assert_eq!((blocks, abandoned), (124, 0));
}

/// Inputs and right-hand sides of one run.
type Data<T> = (MatBatch<T>, Option<MatBatch<T>>);

/// Warm a session on `warm_up` at each of [`THREADS`], then run `data` in
/// it: that run must be bit-identical to the instrumented path in a fresh
/// session, phase records included. Returns, launch by launch, its blocks
/// outside completed lane groups (block 0 included) and its
/// schedule-cache hits, identical at every thread count.
fn warm_match_slow<T: DeviceScalar>(
    op: Op,
    opts: impl Fn() -> RunOptsBuilder,
    warm_up: &Data<T>,
    (a, rhs): &Data<T>,
) -> (Vec<usize>, Vec<bool>) {
    let build = |threads: usize, slow: bool| {
        opts()
            .host_threads(threads)
            .slow_path(slow)
            .build()
            .expect("valid options")
    };
    let slow = run(op, a, rhs.as_ref(), build(1, true));
    let phases = |o: &OpOutput<T>| -> Vec<_> {
        o.run.stats.launches.iter().map(|l| l.phases.clone()).collect()
    };
    let mut seen = None;
    for threads in THREADS {
        let session = Session::builder().opts(build(threads, false)).build();
        session
            .run(op, &warm_up.0, warm_up.1.as_ref())
            .unwrap_or_else(|e| panic!("{op:?} warm-up runs: {e:?}"));
        let hot = session
            .run(op, a, rhs.as_ref())
            .unwrap_or_else(|e| panic!("{op:?} runs warm: {e:?}"));
        let what = format!("{op:?} complex={} warm at {threads} host threads", T::IS_COMPLEX);
        assert_eq!(fingerprint(&hot), fingerprint(&slow), "{what}");
        assert_eq!(phases(&hot), phases(&slow), "{what}");
        let launches = &hot.run.stats.launches;
        let counts = (
            launches
                .iter()
                .map(|l| l.sim_blocks + usize::from(!l.sim_sched_cache_hit) - l.sim_lane_blocks)
                .collect::<Vec<_>>(),
            launches.iter().map(|l| l.sim_sched_cache_hit).collect::<Vec<_>>(),
        );
        assert_eq!(*seen.get_or_insert(counts.clone()), counts, "{what}: grouping depends on threads");
    }
    seen.expect("ran")
}

/// A warm per-block launch of 130 blocks replays all of them in lane
/// groups of 64, 64 and 2, block 0 included.
#[test]
fn a_warm_per_block_launch_leaves_no_block_outside_groups() {
    let per_block = forced(Approach::PerBlock, ExecMode::Full);
    let warm_up = inputs::<f32>(Op::Lu, 8, 130, 103);
    let data = inputs::<f32>(Op::Lu, 8, 130, 107);
    let (outside, hits) = warm_match_slow(Op::Lu, per_block, &warm_up, &data);
    assert_eq!((outside, hits), (vec![0], vec![true]));
}

/// Once a session has traced a launch, block 0 replays as lane 0 of the
/// first group and records its key there, and that key must be the one
/// its solo trace recorded: fresh clean data hits with every block in
/// groups of 16 and 2. When every problem takes a new branch alike (the
/// same planted failure in all of them), the group completes and misses:
/// block 0's lane alone is undone and traced, and the other 17 blocks
/// keep their group's results.
#[test]
fn block_zero_records_its_solo_key_in_a_lane_group() {
    fn case<T: DeviceScalar>(op: Op, how: Break) {
        let per_block = forced(Approach::PerBlock, ExecMode::Full);
        let warm_up = inputs::<T>(op, 8, 18, 83);
        let clean = inputs::<T>(op, 8, 18, 89);
        let what = format!("{op:?} complex={}", T::IS_COMPLEX);
        let hit = warm_match_slow(op, &per_block, &warm_up, &clean);
        assert_eq!(hit, (vec![0], vec![true]), "{what}: clean data");
        let (mut broken, rhs) = inputs::<T>(op, 8, 18, 97);
        for k in 0..18 {
            how.apply(&mut broken, k);
        }
        let miss = warm_match_slow(op, &per_block, &warm_up, &(broken, rhs));
        assert_eq!(miss, (vec![1], vec![false]), "{what}: every problem broken alike");
    }
    for (op, how) in [
        (Op::Lu, Break::ZeroPivot),
        (Op::GjSolve, Break::ZeroPivot),
        (Op::Qr, Break::ZeroColumn),
        (Op::QrSolve, Break::ZeroColumn),
        (Op::Cholesky, Break::NotSpd),
    ] {
        case::<f32>(op, how);
        case::<C32>(op, how);
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
        assert_eq!((blocks, abandoned), (12, 0));
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
        // of 4 (blocks 9..=12) still runs.
        let (n, count, victim, grouped) = match approach {
            Approach::PerThread => (4, 10 * TPB + 5, 3 * TPB + 17, 0),
            _ => (12, 13, 5, 4),
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

//! Fast-path / slow-path bit identity.
//!
//! The simulator's fast (observer-free) execution path elides all per-op
//! scoreboard and shadow bookkeeping on replay blocks, runs fused
//! macro-op loops, reuses arena-pooled block state and caches traced
//! schedules across launches. None of that may be observable in the
//! outputs: results, taus, per-problem statuses and modeled cycle totals
//! must be *bit-identical* to the fully-instrumented slow path, at every
//! host thread count, for every shipped solver. These tests pin that
//! contract, plus the path-selection rule: attaching any observer (trace,
//! sanitizer, fault plan, watchdog) transparently falls back to the slow
//! path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regla_core::{C32, DeviceScalar, MatBatch, Op, OpOutput, RunOpts, RunOptsBuilder, Session};
use regla_gpu_sim::{FaultPlan, PhaseRecord, Profiler, SanitizerMode};
use regla_model::Approach;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn rand_batch(r: &mut StdRng, m: usize, n: usize, count: usize) -> MatBatch<f32> {
    MatBatch::from_fn(m, n, count, |_, _, _| r.random_range(-1.0f32..1.0))
}

/// SPD batch for Cholesky: A = MᵀM + n·I.
fn spd_batch(r: &mut StdRng, n: usize, count: usize) -> MatBatch<f32> {
    let m = rand_batch(r, n, n, count);
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let dot: f32 = (0..n).map(|t| m.get(k, t, i) * m.get(k, t, j)).sum();
        dot + if i == j { n as f32 } else { 0.0 }
    })
}

/// Everything the simulated device produced, as exact bits: output batch,
/// taus, solution, statuses, and the modeled cycle total of every launch.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    out: Vec<u32>,
    taus: Option<Vec<u32>>,
    solution: Option<Vec<u32>>,
    status: Vec<regla_core::ProblemStatus>,
    cycles: Vec<u64>,
}

fn bits<T: DeviceScalar>(b: &MatBatch<T>) -> Vec<u32> {
    b.data()
        .iter()
        .flat_map(|x| {
            let w = x.to_words();
            w[..T::WORDS].to_vec()
        })
        .map(|f| f.to_bits())
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

/// Build op-appropriate inputs from a seed and run `op` under `opts`.
fn run_op(op: Op, seed: u64, n: usize, count: usize, opts: &RunOpts) -> Fingerprint {
    let mut r = rng(seed);
    let s = Session::builder().opts(opts.clone()).build();
    let (a, b) = match op {
        Op::Cholesky => (spd_batch(&mut r, n, count), None),
        Op::LeastSquares => (
            rand_batch(&mut r, n + 4, n, count),
            Some(rand_batch(&mut r, n + 4, 1, count)),
        ),
        Op::GjSolve => (
            rand_batch(&mut r, n, n, count),
            Some(rand_batch(&mut r, n, 2, count)),
        ),
        Op::QrSolve => (
            rand_batch(&mut r, n, n, count),
            Some(rand_batch(&mut r, n, 1, count)),
        ),
        Op::Gemm => (
            rand_batch(&mut r, n, n + 1, count),
            Some(rand_batch(&mut r, n + 1, n, count)),
        ),
        _ => (rand_batch(&mut r, n, n, count), None),
    };
    let out = s.run(op, &a, b.as_ref()).expect("op runs");
    fingerprint(&out)
}

fn opts_fast(host_threads: Option<usize>) -> RunOpts {
    RunOpts::builder().host_threads(host_threads).build().unwrap()
}

fn opts_slow(host_threads: Option<usize>) -> RunOpts {
    RunOpts::builder()
        .host_threads(host_threads)
        .slow_path(true)
        .build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: for every op, shape, batch size and host
    /// thread count, the fast path is bit-identical to the slow path.
    #[test]
    fn fast_path_is_bit_identical_to_slow(
        op in prop::sample::select(Op::ALL.to_vec()),
        n in 3usize..9,
        count in 1usize..24,
        ht in prop::sample::select(vec![Some(1), Some(4), None]),
        seed in 0u64..1 << 48,
    ) {
        let fast = run_op(op, seed, n, count, &opts_fast(ht));
        let slow = run_op(op, seed, n, count, &opts_slow(ht));
        prop_assert_eq!(&fast, &slow);
        // Host thread count must not change anything either.
        let fast1 = run_op(op, seed, n, count, &opts_fast(Some(1)));
        prop_assert_eq!(&fast, &fast1);
    }

    /// Same contract on the forced per-thread and per-block paths (the
    /// planner may otherwise never pick one of them at these sizes), and
    /// with batches large enough to span several per-thread blocks.
    #[test]
    fn forced_approaches_are_bit_identical(
        approach in prop::sample::select(vec![Approach::PerThread, Approach::PerBlock]),
        n in 3usize..8,
        count in 60usize..80,
        seed in 0u64..1 << 48,
    ) {
        let base = RunOpts::builder().approach(approach);
        let fast = run_op(Op::QrSolve, seed, n, count, &base.clone().build().unwrap());
        let slow = run_op(Op::QrSolve, seed, n, count, &base.slow_path(true).build().unwrap());
        prop_assert_eq!(&fast, &slow);
    }
}

/// Complex scalars go through the same macro-ops with two words per
/// element; one deterministic case pins them.
#[test]
fn complex_fast_slow_identity() {
    let mut r = rng(7);
    let mut gen = |m: usize, n: usize| {
        MatBatch::from_fn(m, n, 9, |_, _, _| {
            C32::new(r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0))
        })
    };
    let a = gen(6, 6);
    let b = gen(6, 1);
    let fast = Session::new().run(Op::QrSolve, &a, Some(&b)).unwrap();
    let slow = Session::builder()
        .opts(RunOpts::builder().slow_path(true).build().unwrap())
        .build()
        .run(Op::QrSolve, &a, Some(&b))
        .unwrap();
    assert_eq!(fingerprint(&fast), fingerprint(&slow));
}

/// Attaching any observer must transparently select the instrumented slow
/// path; a bare run must take the fast path.
#[test]
fn observers_select_the_slow_path() {
    let mut r = rng(11);
    let a = rand_batch(&mut r, 6, 6, 8);
    let paths = |opts: RunOpts| -> Vec<bool> {
        let s = Session::builder().opts(opts).build();
        let run = s.run(Op::Lu, &a, None).expect("lu runs");
        run.run.stats.launches.iter().map(|l| l.sim_fast).collect()
    };

    for fast in paths(RunOpts::default()) {
        assert!(fast, "a bare run must take the fast path");
    }
    let observed = [
        RunOpts::builder().trace(Profiler::new()).build().unwrap(),
        RunOpts::builder().sanitizer(SanitizerMode::Full).build().unwrap(),
        RunOpts::builder().fault(FaultPlan::new(3, 1)).build().unwrap(),
        RunOpts::builder().watchdog(1_000_000).build().unwrap(),
        RunOpts::builder().slow_path(true).build().unwrap(),
    ];
    for opts in observed {
        for fast in paths(opts) {
            assert!(!fast, "an observed run must take the slow path");
        }
    }
}

// ---- schedule cache -------------------------------------------------
//
// The cache keys a launch on its kernel and shape, where block 0's buffers
// sit within a DRAM line, and the outcomes of block 0's data-dependent
// branches. Fresh data with the same outcomes hits; a planted failure in
// block 0 misses; and a warm `Session` is bit-identical to a fresh one,
// whose empty cache traces every launch.

/// Problems per per-thread block (`regla_core`'s per-thread launch width).
const TPB: usize = 64;

/// Random `[-1, 1)` entries (both parts for complex scalars).
fn draw<T: DeviceScalar>(r: &mut StdRng) -> T {
    T::from_words([r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0)])
}

/// `op`'s inputs: Hermitian diagonally dominant (so SPD) for Cholesky,
/// plain random for the QR family, diagonally dominant otherwise.
fn inputs<T: DeviceScalar>(
    op: Op,
    n: usize,
    count: usize,
    seed: u64,
) -> (MatBatch<T>, Option<MatBatch<T>>) {
    let mut r = rng(seed);
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

fn forced(approach: Approach) -> RunOptsBuilder {
    RunOpts::builder().approach(approach).panel(2)
}

/// A fresh session (empty schedule cache) with `opts`.
fn session(opts: &RunOptsBuilder) -> Session {
    Session::builder()
        .opts(opts.clone().build().expect("valid options"))
        .build()
}

fn run_on<T: DeviceScalar>(
    s: &Session,
    op: Op,
    (a, rhs): &(MatBatch<T>, Option<MatBatch<T>>),
) -> OpOutput<T> {
    s.run(op, a, rhs.as_ref())
        .unwrap_or_else(|e| panic!("{op:?} runs: {e:?}"))
}

/// Every launch's traced-block phase records: a cached schedule must be
/// the one a fresh trace would record, down to its line counts.
fn records<T>(o: &OpOutput<T>) -> Vec<Vec<PhaseRecord>> {
    o.run.stats.launches.iter().map(|l| l.phases.clone()).collect()
}

fn hits<T>(o: &OpOutput<T>) -> Vec<bool> {
    o.run
        .stats
        .launches
        .iter()
        .map(|l| l.sim_sched_cache_hit)
        .collect()
}

/// Every op and approach the cached in-place kernels run.
const ROUTES: [(Op, Approach); 12] = [
    (Op::Lu, Approach::PerThread),
    (Op::GjSolve, Approach::PerThread),
    (Op::Qr, Approach::PerThread),
    (Op::QrSolve, Approach::PerThread),
    (Op::Cholesky, Approach::PerThread),
    (Op::Lu, Approach::PerBlock),
    (Op::GjSolve, Approach::PerBlock),
    (Op::Qr, Approach::PerBlock),
    (Op::QrSolve, Approach::PerBlock),
    (Op::Cholesky, Approach::PerBlock),
    (Op::Qr, Approach::Tiled),
    (Op::QrSolve, Approach::Tiled),
];

/// Warm a session on `op` at two batch sizes, then run fresh data at the
/// second: every launch hits, and the result equals a fresh session's bit
/// for bit.
fn warm_matches_fresh<T: DeviceScalar>(
    (op, approach): (Op, Approach),
    n: usize,
    (warm_count, count): (usize, usize),
    seed: u64,
) -> Result<(), String> {
    let opts = forced(approach);
    let warm = session(&opts);
    run_on(&warm, op, &inputs::<T>(op, n, warm_count, seed ^ 1));
    run_on(&warm, op, &inputs::<T>(op, n, count, seed ^ 2));
    let data = inputs::<T>(op, n, count, seed);
    let hot = run_on(&warm, op, &data);
    let cold = run_on(&session(&opts), op, &data);
    prop_assert!(
        hits(&hot).iter().all(|&h| h),
        "{op:?} {approach:?}: every launch hits the warm session"
    );
    prop_assert!(hits(&cold).iter().all(|&h| !h), "a fresh session traces");
    prop_assert_eq!(fingerprint(&hot), fingerprint(&cold));
    prop_assert_eq!(records(&hot), records(&cold));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A warm session's outputs, statuses and per-launch cycles equal a
    /// fresh session's over random inputs and batch sizes. A `small` count
    /// (one in four) stays under 68: per-thread batches under 64 problems
    /// leave block 0 partial. The others move the tau and flag buffers
    /// through every line offset.
    #[test]
    fn warm_sessions_match_fresh_sessions(
        route in prop::sample::select(ROUTES.to_vec()),
        complex in prop::sample::select(vec![false, true]),
        n in 3usize..9,
        (warm_count, count) in (1usize..600, 1usize..600),
        small in (
            prop::sample::select(vec![false, false, false, true]),
            prop::sample::select(vec![false, false, false, true]),
        ),
        seed in 0u64..1 << 48,
    ) {
        let under = |c: usize, small: bool| if small { c % (TPB + 4) + 1 } else { c };
        let (warm_count, count) = (under(warm_count, small.0), under(count, small.1));
        if complex {
            warm_matches_fresh::<C32>(route, n, (warm_count, count), seed)?;
        } else {
            warm_matches_fresh::<f32>(route, n, (warm_count, count), seed)?;
        }
    }
}

/// Relaunching a kernel shape hits the schedule cache with the same data
/// and with fresh data that takes the same branches; the modeled cycles
/// stay bit-identical to a fresh session's.
#[test]
fn schedule_cache_hits_preserve_cycles() {
    let mut r = rng(23);
    let a = rand_batch(&mut r, 8, 8, 6);
    let s = Session::new();

    let first = s.run(Op::Lu, &a, None).unwrap();
    assert!(!first.run.stats.launches[0].sim_sched_cache_hit);
    let second = s.run(Op::Lu, &a, None).unwrap();
    assert!(
        second.run.stats.launches[0].sim_sched_cache_hit,
        "identical relaunch must hit the schedule cache"
    );
    assert_eq!(fingerprint(&first), fingerprint(&second));

    // Same shape, different data, no zero pivot: the branch outcomes are
    // the same, so the schedule is too.
    let b = rand_batch(&mut r, 8, 8, 6);
    let third = s.run(Op::Lu, &b, None).unwrap();
    assert!(third.run.stats.launches[0].sim_sched_cache_hit);
    let fresh = Session::new().run(Op::Lu, &b, None).unwrap();
    assert_eq!(fingerprint(&third), fingerprint(&fresh));
}

/// A failure planted in block 0 changes its branch outcomes, so a session
/// warmed on clean data misses and traces, bit for bit like a fresh one.
#[test]
fn planted_failures_in_block_zero_miss() {
    fn case<T: DeviceScalar>(op: Op, approach: Approach) {
        let count = if approach == Approach::PerThread { 2 * TPB + 3 } else { 11 };
        let opts = forced(approach);
        let warm = session(&opts);
        run_on(&warm, op, &inputs::<T>(op, 6, count, 5));
        let (mut a, rhs) = inputs::<T>(op, 6, count, 6);
        match op {
            // A zero first pivot.
            Op::Lu | Op::GjSolve => a.set(0, 0, 0, T::zero()),
            // A non-positive first diagonal.
            Op::Cholesky => a.set(0, 0, 0, T::from_f64(-1.0)),
            // An all-zero first column: no reflector.
            _ => (0..a.rows()).for_each(|i| a.set(0, i, 0, T::zero())),
        }
        let data = (a, rhs);
        let hot = run_on(&warm, op, &data);
        let what = format!("{op:?} {approach:?} complex={}", T::IS_COMPLEX);
        assert!(!hits(&hot)[0], "{what}: the planted failure must miss");
        let cold = run_on(&session(&opts), op, &data);
        assert_eq!(fingerprint(&hot), fingerprint(&cold), "{what}");
        assert_eq!(records(&hot), records(&cold), "{what}");
        if op != Op::Qr {
            assert_eq!(
                hot.run.status[0],
                regla_core::ProblemStatus::ZeroPivot { col: 0 },
                "{what}"
            );
        }
    }
    for approach in [Approach::PerThread, Approach::PerBlock] {
        for op in [Op::Lu, Op::GjSolve, Op::Qr, Op::Cholesky] {
            case::<f32>(op, approach);
            case::<C32>(op, approach);
        }
    }
}

/// Where block 0's buffers start within a DRAM line joins the key: the
/// per-thread QR tau buffer follows the matrices, so one more problem moves
/// it to a new line offset and misses, while a batch that puts it back on
/// the same offset hits, with a fresh trace's records either way.
#[test]
fn buffer_line_offsets_join_the_key() {
    let opts = forced(Approach::PerThread);
    let warm = session(&opts);
    // 5 x 5 f32 problems put the tau buffer 25 * count words in; a DRAM
    // line holds 32 words.
    run_on(&warm, Op::Qr, &inputs::<f32>(Op::Qr, 5, 128, 1));
    for (count, hit) in [(129, false), (160, true)] {
        let data = inputs::<f32>(Op::Qr, 5, count, 2);
        let hot = run_on(&warm, Op::Qr, &data);
        assert_eq!(hits(&hot), [hit], "{count} problems");
        let cold = run_on(&session(&opts), Op::Qr, &data);
        assert_eq!(fingerprint(&hot), fingerprint(&cold), "{count} problems");
        assert_eq!(records(&hot), records(&cold), "{count} problems");
    }
}

/// Fresh clean data hits, including QR inputs whose reflector signs all
/// differ from the warm-up's: the sign choice is a select, not a branch.
#[test]
fn fresh_clean_data_hits() {
    fn case<T: DeviceScalar>(op: Op, approach: Approach) {
        let count = if approach == Approach::PerThread { 3 * TPB } else { 13 };
        let opts = forced(approach);
        let warm = session(&opts);
        let warm_data = inputs::<T>(op, 7, count, 8);
        run_on(&warm, op, &warm_data);
        let w = &warm_data.0;
        let (mut a, rhs) = inputs::<T>(op, 7, count, 9);
        if matches!(op, Op::Qr | Op::QrSolve) {
            // Give every problem's first entry the opposite sign of the
            // warm-up's.
            for k in 0..count {
                let (was, is) = (w.get(k, 0, 0).real(), a.get(k, 0, 0));
                if (was > 0.0) == (is.real() > 0.0) {
                    a.set(k, 0, 0, -is);
                }
            }
        }
        let data = (a, rhs);
        let hot = run_on(&warm, op, &data);
        let what = format!("{op:?} {approach:?} complex={}", T::IS_COMPLEX);
        assert!(hits(&hot).iter().all(|&h| h), "{what}: fresh clean data hits");
        let cold = run_on(&session(&opts), op, &data);
        assert_eq!(fingerprint(&hot), fingerprint(&cold), "{what}");
        assert_eq!(records(&hot), records(&cold), "{what}");
    }
    for (op, approach) in ROUTES {
        case::<f32>(op, approach);
        case::<C32>(op, approach);
    }
}

//! The staging contract of sampled execution.
//!
//! Under `ExecMode::Sampled(k)` and `ExecMode::Representative` a run
//! stages, computes and downloads only the problems of its executed
//! blocks. Those problems must come back bit-identical to the same
//! problems under `ExecMode::Full` — outputs, taus and statuses — while
//! every other problem reads as zeros with status `Ok`, and the status
//! vector keeps one entry per problem.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regla_core::{BatchRun, DeviceScalar, MatBatch, Op, RunOpts, Session, C32};
use regla_gpu_sim::{ExecMode, LaunchConfig};
use regla_model::Approach;

/// Random entries, plus `m` on the diagonal when `dd` (the pivot-free
/// eliminations need diagonal dominance).
fn batch<T: DeviceScalar>(
    m: usize,
    n: usize,
    count: usize,
    dd: bool,
    seed: u64,
    mut entry: impl FnMut(&mut StdRng) -> T,
) -> MatBatch<T> {
    let mut r = StdRng::seed_from_u64(seed);
    MatBatch::from_fn(m, n, count, |_, i, j| {
        let v = entry(&mut r);
        if dd && i == j {
            v + T::from_f64(m as f64)
        } else {
            v
        }
    })
}

fn f32_entry(r: &mut StdRng) -> f32 {
    r.random_range(-1.0f32..1.0)
}

fn c32_entry(r: &mut StdRng) -> C32 {
    C32::new(r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0))
}

/// Problem `p`'s words, as bits.
fn bits<T: DeviceScalar>(b: &MatBatch<T>, p: usize) -> Vec<u32> {
    b.mat(p)
        .data()
        .iter()
        .flat_map(|x| x.to_words()[..T::WORDS].to_vec())
        .map(f32::to_bits)
        .collect()
}

/// Problems whose blocks executed, derived from the first launch: a
/// per-thread block carries one problem per thread, every other block one.
fn executed<T>(run: &BatchRun<T>, exec: ExecMode) -> Vec<usize> {
    let l0 = &run.stats.launches[0];
    let per_block = if run.approach == Approach::PerThread {
        l0.threads_per_block
    } else {
        1
    };
    let count = run.status.len();
    LaunchConfig::new(l0.grid_blocks, 1)
        .exec(exec)
        .executed_blocks()
        .into_iter()
        .flat_map(|b| (b * per_block)..((b + 1) * per_block).min(count))
        .collect()
}

fn check<T: DeviceScalar>(
    what: &str,
    op: Op,
    approach: Approach,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
) {
    let run = |exec: ExecMode| {
        let opts = RunOpts::builder()
            .approach(approach)
            .exec(exec)
            .build()
            .unwrap();
        Session::builder()
            .opts(opts)
            .build()
            .run(op, a, b)
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .run
    };
    let full = run(ExecMode::Full);
    assert_eq!(full.approach, approach, "{what}: approach");
    let count = a.count();
    for exec in [ExecMode::Sampled(3), ExecMode::Representative] {
        let r = run(exec);
        let ran = executed(&r, exec);
        assert!(
            !ran.is_empty() && ran.len() < count,
            "{what} {exec:?}: {} of {count} problems executed",
            ran.len()
        );
        assert_eq!(r.status.len(), count, "{what} {exec:?}: status length");
        assert_eq!(r.taus.is_some(), full.taus.is_some());
        for p in 0..count {
            let taus = |run: &BatchRun<T>| run.taus.as_ref().map(|t| bits(t, p));
            if ran.contains(&p) {
                assert_eq!(
                    bits(&r.out, p),
                    bits(&full.out, p),
                    "{what} {exec:?} out {p}"
                );
                assert_eq!(taus(&r), taus(&full), "{what} {exec:?} taus {p}");
                assert_eq!(r.status[p], full.status[p], "{what} {exec:?} status {p}");
            } else {
                let zero = |w: Vec<u32>| w.iter().all(|&x| x == 0);
                assert!(zero(bits(&r.out, p)), "{what} {exec:?}: out {p} not zero");
                assert!(
                    taus(&r).is_none_or(zero),
                    "{what} {exec:?}: taus {p} not zero"
                );
                assert!(r.status[p].is_ok(), "{what} {exec:?}: status {p}");
            }
        }
    }
}

/// QR, LU and GJ-solve under `approach`, in f32 and C32.
fn check_ops(approach: Approach, m: usize, n: usize, count: usize) {
    let ops: &[Op] = if approach == Approach::Tiled {
        &[Op::Qr]
    } else {
        &[Op::Qr, Op::Lu, Op::GjSolve]
    };
    for (i, &op) in ops.iter().enumerate() {
        let dd = op != Op::Qr;
        let seed = 10 * i as u64;
        let what = format!("{op:?} {approach:?}");
        let a = batch(m, n, count, dd, seed, f32_entry);
        let b = batch(m, 2, count, false, seed + 1, f32_entry);
        let b = (op == Op::GjSolve).then_some(&b);
        check(&format!("{what} f32"), op, approach, &a, b);
        let a = batch(m, n, count, dd, seed + 2, c32_entry);
        let b = batch(m, 2, count, false, seed + 3, c32_entry);
        let b = (op == Op::GjSolve).then_some(&b);
        check(&format!("{what} c32"), op, approach, &a, b);
    }
}

#[test]
fn per_thread_runs_stage_only_executed_blocks() {
    // Four blocks of 64 problems, the last partial: Sampled(3) runs 0-2.
    check_ops(Approach::PerThread, 6, 6, 200);
}

#[test]
fn per_block_runs_stage_only_executed_blocks() {
    // Sampled(3) over 7 blocks runs blocks 0, 2 and 4.
    check_ops(Approach::PerBlock, 10, 10, 7);
}

#[test]
fn tiled_runs_stage_only_executed_blocks() {
    check_ops(Approach::Tiled, 24, 12, 5);
}

//! The compute-sanitizer layer, end to end: each check catches its
//! canonical kernel bug with full provenance, the watchdog converts a hung
//! kernel into a structured error, injected faults are attributed to the
//! fault plan (not blamed on the kernel), and — the flip side — every
//! shipped solver is sanitizer-clean and bit-identical with checking on.

use proptest::prelude::*;
use regla::core::{MatBatch, Op, RunOpts, Session};
use regla::gpu_sim::{
    BlockCtx, ExecMode, FaultPlan, GlobalMemory, Gpu, LaunchConfig, LaunchError, MemSpace,
    SanitizerCheck, SanitizerMode,
};
use regla::model::Approach;

const THREADS: usize = 64;

fn sanitized(shared_words: usize) -> LaunchConfig {
    LaunchConfig::new(1, THREADS)
        .regs(12)
        .shared_words(shared_words)
        .exec(ExecMode::Full)
        .sanitizer(SanitizerMode::Full)
}

fn launch(
    kernel: impl Fn(&mut BlockCtx) + Sync,
    lc: &LaunchConfig,
) -> regla::gpu_sim::SanitizerReport {
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let out = mem.alloc(THREADS);
    mem.h2d(out, &vec![0.0; THREADS]);
    let stats = Gpu::quadro_6000()
        .launch(
            &move |blk: &mut BlockCtx| {
                kernel(blk);
                // Keep the launch's write-set nonempty and deterministic.
                blk.for_each(|t| {
                    let v = t.lit(1.0);
                    t.gstore(out, t.tid, v);
                });
            },
            lc,
            &mut mem,
        )
        .unwrap();
    stats.sanitizer.expect("sanitized launch must carry a report")
}

/// memcheck: a read past the end of the shared-memory allocation is
/// reported with block, thread, space, and address.
#[test]
fn memcheck_flags_out_of_bounds_shared_read() {
    let report = launch(
        |blk| {
            blk.phase_label("oob read");
            blk.for_each(|t| {
                if t.tid == 0 {
                    t.shared_load(8); // one past the 8-word allocation
                }
            });
        },
        &sanitized(8),
    );
    assert_eq!(report.count(SanitizerCheck::Memcheck), 1, "{}", report.summary());
    let f = report
        .findings
        .iter()
        .find(|f| f.check == SanitizerCheck::Memcheck)
        .unwrap();
    assert_eq!(f.block, Some(0));
    assert_eq!(f.thread, Some(0));
    assert_eq!(f.space, Some(MemSpace::Shared));
    assert_eq!(f.addr, Some(8));
    assert_eq!(f.phase, "oob read");
    assert!(f.detail.contains("out of bounds"), "{}", f.detail);
    assert!(!report.is_clean());
}

/// memcheck: a global read beyond every device allocation is flagged too.
#[test]
fn memcheck_flags_out_of_bounds_global_read() {
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let buf = mem.alloc(THREADS);
    mem.h2d(buf, &vec![0.0; THREADS]);
    let lc = sanitized(0);
    let stats = Gpu::quadro_6000()
        .launch(
            &move |blk: &mut BlockCtx| {
                blk.for_each(|t| {
                    if t.tid == 1 {
                        t.gload(buf, 1 << 20); // far past every allocation
                    }
                    let v = t.lit(1.0);
                    t.gstore(buf, t.tid, v);
                });
            },
            &lc,
            &mut mem,
        )
        .unwrap();
    let report = stats.sanitizer.unwrap();
    assert_eq!(report.count(SanitizerCheck::Memcheck), 1, "{}", report.summary());
    let f = &report.findings[0];
    assert_eq!(f.thread, Some(1));
    assert_eq!(f.space, Some(MemSpace::Global));
    assert!(f.detail.contains("out of bounds"), "{}", f.detail);
}

/// racecheck: threads that exchange shared words with no sync between the
/// write and the read are reported as hazards; the properly synchronized
/// warm-up phase produces none.
#[test]
fn racecheck_flags_missing_sync_between_write_and_read() {
    let report = launch(
        |blk| {
            blk.phase_label("warm up");
            blk.for_each(|t| {
                let v = t.lit(t.tid as f32);
                t.shared_store(t.tid, v);
            });
            blk.sync(); // publishes the warm-up writes: no hazard so far
            blk.phase_label("exchange");
            blk.for_each(|t| {
                // Read the neighbour's word, then overwrite our own — with
                // no sync splitting the two, every store races the read of
                // the same word (and the last read races the first store).
                let v = t.shared_load((t.tid + 1) % THREADS);
                let v2 = t.add(v, v);
                t.shared_store(t.tid, v2);
            });
        },
        &sanitized(THREADS),
    );
    assert_eq!(
        report.count(SanitizerCheck::Racecheck),
        THREADS as u64,
        "{}",
        report.summary()
    );
    // The warm-up was properly initialized and synchronized.
    assert_eq!(report.count(SanitizerCheck::Initcheck), 0);
    assert_eq!(report.count(SanitizerCheck::Memcheck), 0);
    let f = report
        .findings
        .iter()
        .find(|f| f.check == SanitizerCheck::Racecheck)
        .unwrap();
    assert_eq!(f.space, Some(MemSpace::Shared));
    assert_eq!(f.phase, "exchange");
    assert!(f.detail.contains("hazard"), "{}", f.detail);
}

/// synccheck: a thread that skips a barrier every other thread reaches is
/// named in the report.
#[test]
fn synccheck_names_the_thread_that_missed_the_barrier() {
    let report = launch(
        |blk| {
            blk.phase_label("divergent barrier");
            blk.for_each(|t| {
                if t.tid != 3 {
                    t.barrier();
                }
            });
            blk.sync();
        },
        &sanitized(0),
    );
    assert_eq!(report.count(SanitizerCheck::Synccheck), 1, "{}", report.summary());
    let f = &report.findings[0];
    assert_eq!(f.check, SanitizerCheck::Synccheck);
    assert_eq!(f.thread, Some(3));
    assert_eq!(f.phase, "divergent barrier");
    assert!(f.detail.contains("divergent barrier"), "{}", f.detail);
}

/// initcheck: reading a device allocation the host never filled and the
/// kernel never wrote is reported per read; reading it after writing it
/// is not.
#[test]
fn initcheck_flags_reads_of_never_written_global_memory() {
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let cold = mem.alloc(THREADS); // allocated, never h2d'd
    let out = mem.alloc(THREADS);
    mem.h2d(out, &vec![0.0; THREADS]);
    let lc = sanitized(0);
    let stats = Gpu::quadro_6000()
        .launch(
            &move |blk: &mut BlockCtx| {
                blk.phase_label("cold read");
                blk.for_each(|t| {
                    let v = t.gload(cold, t.tid); // uninitialized: flagged
                    t.gstore(cold, t.tid, v); // now written...
                    let v2 = t.gload(cold, t.tid); // ...so this one is fine
                    t.gstore(out, t.tid, v2);
                });
            },
            &lc,
            &mut mem,
        )
        .unwrap();
    let report = stats.sanitizer.unwrap();
    assert_eq!(
        report.count(SanitizerCheck::Initcheck),
        THREADS as u64,
        "{}",
        report.summary()
    );
    let f = &report.findings[0];
    assert_eq!(f.space, Some(MemSpace::Global));
    assert!(f.detail.contains("never-written"), "{}", f.detail);
    // Detailed findings are capped per block, the count above is not.
    assert!(report.findings.len() < THREADS);
}

/// initcheck on a pooled memory: a clean call through a session leaves
/// the words of its `Gpu`'s retained memory written, and a sanitized
/// checkout of that memory still flags the fixture's read-before-write.
#[test]
fn initcheck_flags_reads_of_never_written_words_in_a_warm_pooled_memory() {
    let session = Session::new();
    let a = MatBatch::from_fn(16, 16, 64, |k, i, j| {
        ((k + i * 3 + j * 5) % 11) as f32 + if i == j { 16.0 } else { 0.0 }
    });
    let clean = RunOpts::builder().exec(ExecMode::Full).build().unwrap();
    session.run_with(Op::Lu, &a, None, &clean).unwrap();
    let gpu = session.gpu();
    assert_eq!(gpu.memories_allocated(), 1);

    let mut mem = gpu.checkout_memory(2 * THREADS, SanitizerMode::Full);
    assert_eq!(
        gpu.memories_allocated(),
        1,
        "the sanitized checkout reuses the warm memory"
    );
    let cold = mem.alloc(THREADS); // written by the clean call, not by this one
    let out = mem.alloc(THREADS);
    mem.h2d(out, &vec![0.0; THREADS]);
    let stats = gpu
        .launch(
            &move |blk: &mut BlockCtx| {
                blk.phase_label("cold read");
                blk.for_each(|t| {
                    let v = t.gload(cold, t.tid); // stale, never written here: flagged
                    t.gstore(cold, t.tid, v);
                    let v2 = t.gload(cold, t.tid);
                    t.gstore(out, t.tid, v2);
                });
            },
            &sanitized(0),
            &mut mem,
        )
        .unwrap();
    let report = stats.sanitizer.unwrap();
    assert_eq!(
        report.count(SanitizerCheck::Initcheck),
        THREADS as u64,
        "{}",
        report.summary()
    );
}

/// watchdog: an op-counting infinite loop becomes a structured
/// `LaunchError::Watchdog` with block and phase provenance, in bounded
/// time — no sanitizer required.
#[test]
fn watchdog_converts_a_hung_kernel_into_a_structured_error() {
    let mut mem = GlobalMemory::with_bytes(1 << 12);
    let lc = LaunchConfig::new(1, THREADS)
        .regs(8)
        .shared_words(0)
        .exec(ExecMode::Full)
        .watchdog(10_000);
    let err = Gpu::quadro_6000()
        .launch(
            &|blk: &mut BlockCtx| {
                blk.phase_label("spin");
                blk.for_each(|t| {
                    let one = t.lit(1.0);
                    let mut acc = t.lit(0.0);
                    loop {
                        acc = t.add(acc, one);
                    }
                });
            },
            &lc,
            &mut mem,
        )
        .unwrap_err();
    match err {
        LaunchError::Watchdog { block, phase, ops, limit } => {
            assert_eq!(block, 0);
            assert_eq!(phase, "spin");
            assert_eq!(limit, 10_000);
            assert!(ops > limit);
        }
        other => panic!("expected a watchdog trip, got {other:?}"),
    }
}

/// Fault-injection integration: sanitizer findings in blocks a seeded
/// fault plan hit are attributed to the plan (cross-referenced against
/// `LaunchStats::faults`), so the report stays clean — the kernel is not
/// blamed for deliberately injected damage.
#[test]
fn injected_faults_are_attributed_not_blamed_on_the_kernel() {
    let session = Session::new();
    let n = 10;
    let count = 192;
    let a = MatBatch::from_fn(n, n, count, |k, i, j| {
        let h = ((k * 131 + i * 37 + j * 101 + 77) % 97) as f32 / 97.0;
        h + if i == j { n as f32 } else { 0.0 }
    });
    let opts = RunOpts::builder()
        .approach(Approach::PerBlock)
        .fault(FaultPlan::new(0xFEED_BEEF, 24))
        .sanitizer(SanitizerMode::Full)
        .build().unwrap();
    let run = session.run_with(Op::Lu, &a, None, &opts).unwrap().run;
    let report = run.sanitizer.as_ref().expect("sanitized run carries a report");

    let faulted: std::collections::HashSet<usize> = run
        .stats
        .launches
        .iter()
        .flat_map(|l| l.faults.iter().map(|f| f.block))
        .collect();
    assert!(!faulted.is_empty(), "the campaign must land faults");

    // Every detailed finding sits in a faulted block and is marked as such.
    for f in &report.findings {
        assert!(f.fault_attributed, "unattributed finding: {f:?}");
        assert!(
            f.block.is_some_and(|b| faulted.contains(&b)),
            "finding outside the faulted blocks: {f:?}"
        );
    }
    // With full attribution the kernel itself is judged clean.
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.fault_attributed, report.total());
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Device runs are slower; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shipped solver, across the paper's shapes and both grid
    /// mappings, reports zero findings under the full sanitizer — and the
    /// observational guarantee holds: output bits are identical with the
    /// sanitizer on and off.
    #[test]
    fn shipped_kernels_are_sanitizer_clean_and_bit_identical(
        op in prop::sample::select(vec![Op::Qr, Op::Lu, Op::GjSolve, Op::Cholesky]),
        n in prop::sample::select(vec![4usize, 8, 13, 16]),
        count in prop::sample::select(vec![3usize, 17]),
        approach in prop::sample::select(vec![Approach::PerThread, Approach::PerBlock]),
        seed in 0usize..50,
    ) {
        let session = Session::new();
        let mut a = MatBatch::from_fn(n, n, count, |k, i, j| {
            ((seed + k * 41 + i * 13 + j * 7) % 27) as f32 / 27.0 - 0.45
        });
        for k in 0..count {
            let mut m = a.mat(k);
            if op == Op::Cholesky {
                // SPD input: diagonally dominant symmetric.
                for i in 0..n {
                    for j in 0..i {
                        let v = m[(i, j)];
                        m[(j, i)] = v;
                    }
                }
            }
            m.make_diagonally_dominant();
            a.set_mat(k, &m);
        }
        let b = MatBatch::from_fn(n, 1, count, |k, i, _| ((k + i) % 9) as f32 - 4.0);
        let rhs = op.needs_rhs().then_some(&b);

        let plain = RunOpts::builder().approach(approach).build().unwrap();
        let checked = RunOpts::builder()
            .approach(approach)
            .sanitizer(SanitizerMode::Full)
            .watchdog(Some(200_000_000))
            .build().unwrap();
        let base = session.run_with(op, &a, rhs, &plain).unwrap().run;
        let run = session.run_with(op, &a, rhs, &checked).unwrap().run;

        let report = run.sanitizer.as_ref().expect("sanitized run carries a report");
        prop_assert!(
            report.total() == 0,
            "{op:?} n={n} {approach:?}: {}",
            report.summary()
        );
        prop_assert!(report.is_clean());
        prop_assert!(base.sanitizer.is_none());
        prop_assert_eq!(bits(&run.out), bits(&base.out));
        prop_assert_eq!(&run.status, &base.status);
    }
}

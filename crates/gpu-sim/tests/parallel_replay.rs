//! Tests of the parallel functional replay: determinism across host thread
//! counts, the `Sampled(k)` execution mode, the disjoint-write checker, and
//! the host-side telemetry attached to `LaunchStats`.

use proptest::prelude::*;
use regla_gpu_sim::{BlockCtx, DPtr, ExecMode, GlobalMemory, Gpu, LaunchConfig};

/// A compute kernel whose output depends on the block id, so a block that
/// is skipped, re-ordered, or run twice would corrupt a distinguishable
/// slab of device memory.
fn block_stamp_kernel(n_fma: usize, out: DPtr) -> impl Fn(&mut BlockCtx) + Sync {
    move |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            let x = t.lit(1.0 + (t.block_id % 7) as f32 * 1e-3);
            let mut acc = t.lit(0.25 + t.tid as f32 * 1e-4);
            for _ in 0..n_fma {
                acc = t.fma(acc, x, x);
            }
            t.gstore(out, t.block_id * nthreads + t.tid, acc);
        });
    }
}

/// A strided copy kernel: each block moves its own slab of `src` to `dst`.
fn copy_kernel(words_per_thread: usize, src: DPtr, dst: DPtr) -> impl Fn(&mut BlockCtx) + Sync {
    move |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            let base = t.block_id * nthreads * words_per_thread;
            for i in 0..words_per_thread {
                let idx = base + i * nthreads + t.tid;
                let v = t.gload(src, idx);
                t.gstore(dst, idx, v);
            }
        });
    }
}

/// Run `kernel` at a given host thread count and return the final device
/// memory (bit-patterns) plus the simulated timing essentials.
fn run_at<K: Fn(&mut BlockCtx) + Sync>(
    threads: usize,
    grid: usize,
    tpb: usize,
    setup: impl Fn(&mut GlobalMemory),
    kernel: impl Fn(&mut GlobalMemory) -> K,
    out_words: usize,
) -> (Vec<u32>, f64, f64, f64) {
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 22);
    let k = kernel(&mut mem);
    setup(&mut mem);
    let base = DPtr::new(0);
    let lc = LaunchConfig::new(grid, tpb)
        .regs(16)
        .shared_words(0)
        .exec(ExecMode::Full)
        .host_threads(threads);
    let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
    let bits: Vec<u32> = mem
        .slice(base, out_words)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (bits, stats.cycles, stats.flops, stats.dram_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: bit-identical device memory and identical
    /// simulated timing at every host thread count.
    #[test]
    fn compute_replay_is_deterministic_across_thread_counts(
        grid in 2usize..40,
        n_fma in 1usize..40,
        tpb in prop::sample::select(vec![32usize, 64, 128]),
    ) {
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                run_at(
                    threads,
                    grid,
                    tpb,
                    |_| {},
                    |mem| block_stamp_kernel(n_fma, mem.alloc(grid * tpb)),
                    grid * tpb,
                )
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1], "1 vs 2 host threads");
        prop_assert_eq!(&runs[0], &runs[2], "1 vs 8 host threads");
    }

    #[test]
    fn copy_replay_is_deterministic_across_thread_counts(
        grid in 2usize..24,
        wpt in 1usize..6,
        seed in 0u32..1000,
    ) {
        let tpb = 64usize;
        let n = grid * tpb * wpt;
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                run_at(
                    threads,
                    grid,
                    tpb,
                    move |mem| {
                        let src = DPtr::new(0);
                        for i in 0..n {
                            mem.write(src, i, (seed + i as u32) as f32 * 0.125);
                        }
                    },
                    |mem| {
                        let src = mem.alloc(n);
                        let dst = mem.alloc(n);
                        copy_kernel(wpt, src, dst)
                    },
                    2 * n,
                )
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1], "1 vs 2 host threads");
        prop_assert_eq!(&runs[0], &runs[2], "1 vs 8 host threads");
    }
}

#[test]
fn sampled_executes_evenly_spaced_blocks_only() {
    let gpu = Gpu::quadro_6000();
    let grid = 10usize;
    let tpb = 32usize;
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let out = mem.alloc(grid * tpb);
    let k = |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            let one = t.lit(1.0);
            t.gstore(out, t.block_id * nthreads + t.tid, one);
        });
    };
    let lc = LaunchConfig::new(grid, tpb)
        .regs(8)
        .shared_words(0)
        .exec(ExecMode::Sampled(3));
    let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
    // i * 10 / 3 for i in 0..3 = blocks {0, 3, 6}; block 0 is the traced one.
    let executed = [0usize, 3, 6];
    for b in 0..grid {
        let slab = mem.slice(out, grid * tpb);
        let written = slab[b * tpb..(b + 1) * tpb].iter().all(|&v| v == 1.0);
        let zero = slab[b * tpb..(b + 1) * tpb].iter().all(|&v| v == 0.0);
        if executed.contains(&b) {
            assert!(written, "sampled block {b} must have run functionally");
        } else {
            assert!(zero, "unsampled block {b} must not have run");
        }
    }
    // Timing still covers the whole grid: Sampled changes fidelity of the
    // functional outputs, never the simulated clock.
    assert_eq!(stats.grid_blocks, grid);
    assert_eq!(stats.sim_blocks, 2, "two non-traced blocks replayed");
}

#[test]
fn sampled_k_at_least_grid_matches_full() {
    let gpu = Gpu::quadro_6000();
    let run = |mode: ExecMode| {
        let mut mem = GlobalMemory::with_bytes(1 << 16);
        let out = mem.alloc(5 * 32);
        let k = |blk: &mut BlockCtx| {
            let nthreads = blk.num_threads();
            blk.for_each(|t| {
                let v = t.lit(2.0 + t.block_id as f32);
                t.gstore(out, t.block_id * nthreads + t.tid, v);
            });
        };
        let lc = LaunchConfig::new(5, 32).regs(8).shared_words(0).exec(mode);
        let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
        let bits: Vec<u32> = mem.slice(out, 5 * 32).iter().map(|v| v.to_bits()).collect();
        (bits, stats.cycles, stats.sim_blocks)
    };
    let full = run(ExecMode::Full);
    let sampled = run(ExecMode::Sampled(100));
    assert_eq!(full, sampled, "Sampled(k >= grid) must behave like Full");
}

#[test]
fn sampled_zero_is_a_structured_error() {
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 12);
    let out = mem.alloc(64);
    let k = move |blk: &mut BlockCtx| {
        blk.for_each(|t| {
            let v = t.lit(1.0);
            t.gstore(out, t.tid, v);
        });
    };
    let lc = LaunchConfig::new(4, 32)
        .regs(8)
        .shared_words(0)
        .exec(ExecMode::Sampled(0));
    let err = gpu.launch(&k, &lc, &mut mem).unwrap_err();
    assert!(
        matches!(err, regla_gpu_sim::LaunchError::InvalidExecMode(_)),
        "expected InvalidExecMode, got {err:?}"
    );
    assert!(err.to_string().contains("Sampled(0)"));
}

/// The debug-build disjoint-write checker must reject kernels whose blocks
/// write overlapping device words — such kernels would race under the
/// parallel replay. The checker's panic is contained by the launch and
/// surfaced as `LaunchError::KernelPanic`. (Release builds skip the checker
/// unless `REGLA_SIM_CHECK=1`, so this test only asserts in debug.)
#[test]
#[cfg_attr(not(debug_assertions), ignore = "checker is a debug-build feature")]
fn overlapping_block_writes_are_rejected_in_debug() {
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 12);
    let out = mem.alloc(64);
    let k = move |blk: &mut BlockCtx| {
        blk.for_each(|t| {
            // Every block writes the same 32 words: blocks 1..4 collide.
            let v = t.lit(t.block_id as f32);
            t.gstore(out, t.tid, v);
        });
    };
    let lc = LaunchConfig::new(4, 32)
        .regs(8)
        .shared_words(0)
        .exec(ExecMode::Full)
        .host_threads(2);
    let err = gpu.launch(&k, &lc, &mut mem).unwrap_err();
    match err {
        regla_gpu_sim::LaunchError::KernelPanic { message, .. } => {
            assert!(
                message.contains("cross-block write overlap"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected KernelPanic, got {other:?}"),
    }
}

#[test]
fn stats_expose_host_replay_telemetry() {
    let gpu = Gpu::quadro_6000();
    let run = |mode: ExecMode, threads: usize| {
        let mut mem = GlobalMemory::with_bytes(1 << 16);
        let out = mem.alloc(16 * 32);
        let k = move |blk: &mut BlockCtx| {
            let nthreads = blk.num_threads();
            blk.for_each(|t| {
                let v = t.lit(1.0);
                t.gstore(out, t.block_id * nthreads + t.tid, v);
            });
        };
        let lc = LaunchConfig::new(16, 32)
            .regs(8)
            .shared_words(0)
            .exec(mode)
            .host_threads(threads);
        gpu.launch(&k, &lc, &mut mem).unwrap()
    };

    let before = regla_gpu_sim::telemetry::snapshot();
    let full = run(ExecMode::Full, 3);
    assert_eq!(full.sim_blocks, 15);
    assert_eq!(full.sim_host_threads, 3, "explicit host_threads wins");
    assert!(full.sim_wall_s > 0.0);
    assert!(full.sim_worker_utilization > 0.0 && full.sim_worker_utilization <= 1.0);
    assert!(full.sim_blocks_per_sec() > 0.0);

    let rep = run(ExecMode::Representative, 3);
    assert_eq!(rep.sim_blocks, 0, "Representative replays nothing");
    assert_eq!(rep.sim_host_threads, 1);

    // Process-wide counters move monotonically with each launch.
    let after = regla_gpu_sim::telemetry::snapshot();
    assert!(after.launches >= before.launches + 2);
    assert!(after.functional_blocks >= before.functional_blocks + 15);
    assert!(after.max_host_threads >= 3);
}

#[test]
fn host_threads_never_exceed_replay_blocks() {
    // 3 replay blocks but 8 requested workers: the launch must report the
    // clamped count it actually used.
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 14);
    let out = mem.alloc(4 * 32);
    let k = move |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            let v = t.lit(1.0);
            t.gstore(out, t.block_id * nthreads + t.tid, v);
        });
    };
    let lc = LaunchConfig::new(4, 32)
        .regs(8)
        .shared_words(0)
        .exec(ExecMode::Full)
        .host_threads(8);
    let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
    assert_eq!(stats.sim_blocks, 3);
    assert_eq!(stats.sim_host_threads, 3);
}

/// A panic in a block of the last shard comes back as that block's
/// `KernelPanic`, and the replay workers that ran it stay healthy: the
/// next launch matches a one-thread launch bit for bit.
#[test]
fn panic_in_the_last_shard_leaves_the_workers_healthy() {
    let grid = 24usize;
    let tpb = 32usize;
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let out = mem.alloc(grid * tpb);
    let k = move |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            assert!(t.block_id + 1 < grid, "boom in the last block");
            let v = t.lit(1.0);
            t.gstore(out, t.block_id * nthreads + t.tid, v);
        });
    };
    let lc = LaunchConfig::new(grid, tpb)
        .regs(8)
        .shared_words(0)
        .host_threads(4);
    match gpu.launch(&k, &lc, &mut mem).unwrap_err() {
        regla_gpu_sim::LaunchError::KernelPanic { block, message } => {
            assert_eq!(block, grid - 1);
            assert!(message.contains("boom"), "unexpected message: {message}");
        }
        other => panic!("expected KernelPanic, got {other:?}"),
    }
    let stamp = |threads| {
        run_at(
            threads,
            grid,
            tpb,
            |_| {},
            |mem| block_stamp_kernel(9, mem.alloc(grid * tpb)),
            grid * tpb,
        )
    };
    assert_eq!(stamp(4), stamp(1));
}

/// One launch of a concurrent-launch workload: its own device memory and
/// a kernel whose output depends on the launch index.
fn indexed_launch(gpu: &Gpu, threads: usize, index: usize) -> (Vec<u32>, u64) {
    let grid = 10 + index % 13;
    let tpb = 32;
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let out = mem.alloc(grid * tpb);
    let k = block_stamp_kernel(1 + index % 5, out);
    let lc = LaunchConfig::new(grid, tpb)
        .regs(16)
        .shared_words(0)
        .host_threads(threads);
    let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
    let bits = mem
        .slice(out, grid * tpb)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (bits, stats.cycles.to_bits())
}

/// Four host threads launch at once, so their launches compete for the
/// replay workers and each launching thread replays the shards no worker
/// has claimed. Every launch must still equal the same launch run alone.
#[test]
fn concurrent_launches_match_sequential_ones() {
    const LAUNCHERS: usize = 4;
    const PER_LAUNCHER: usize = 12;
    for threads in [2usize, 8] {
        let shared = Gpu::quadro_6000();
        let alone = Gpu::quadro_6000();
        let expected: Vec<_> = (0..LAUNCHERS * PER_LAUNCHER)
            .map(|i| indexed_launch(&alone, threads, i))
            .collect();
        for clones in [true, false] {
            let start = std::sync::Barrier::new(LAUNCHERS);
            let got: Vec<Vec<_>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..LAUNCHERS)
                    .map(|l| {
                        let gpu = if clones {
                            shared.clone()
                        } else {
                            Gpu::quadro_6000()
                        };
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            (0..PER_LAUNCHER)
                                .map(|j| indexed_launch(&gpu, threads, l * PER_LAUNCHER + j))
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, got) in got.into_iter().flatten().enumerate() {
                assert_eq!(
                    got, expected[i],
                    "launch {i} at host_threads {threads} (clones of one Gpu: {clones})"
                );
            }
        }
    }
}

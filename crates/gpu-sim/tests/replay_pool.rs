//! The replay workers persist across launches. This is its own test
//! binary so that no other test's threads are counted.
#![cfg(target_os = "linux")]

use regla_gpu_sim::{BlockCtx, GlobalMemory, Gpu, LaunchConfig};

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn launches_reuse_the_replay_workers() {
    let gpu = Gpu::quadro_6000();
    let mut mem = GlobalMemory::with_bytes(1 << 16);
    let grid = 32usize;
    let out = mem.alloc(grid * 32);
    let k = move |blk: &mut BlockCtx| {
        let nthreads = blk.num_threads();
        blk.for_each(|t| {
            let v = t.lit(t.block_id as f32);
            t.gstore(out, t.block_id * nthreads + t.tid, v);
        });
    };
    let launch = |threads: usize, mem: &mut GlobalMemory| {
        let lc = LaunchConfig::new(grid, 32)
            .regs(8)
            .shared_words(0)
            .host_threads(threads);
        let stats = gpu.launch(&k, &lc, mem).unwrap();
        assert_eq!(stats.sim_host_threads, threads);
    };
    let before = task_count();
    launch(4, &mut mem);
    let warm = task_count();
    assert_eq!(warm, before + 3, "a 4-thread launch starts three workers");
    for i in 0..200 {
        launch(2 + 2 * (i % 2), &mut mem);
    }
    assert_eq!(task_count(), warm, "launches spawned threads");
}

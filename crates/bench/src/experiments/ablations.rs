//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's figures, but each anchored to a claim the paper makes in prose.

use crate::report::{f, Table};
use crate::workloads::{f32_batch, sweep_count};
use regla_core::{Op, RunOpts, Session};
use regla_gpu_sim::{ExecMode, MathMode};
use regla_model::Approach;

fn base(approach: Approach) -> RunOpts {
    RunOpts::builder()
        .exec(ExecMode::Representative)
        .approach(approach)
        .build().unwrap()
}

/// Fast-math (22-bit SFU) vs full-precision division/sqrt. The paper:
/// "the median performance penalty for not using these hardware functions
/// is 5.6%" (per-thread) and "30%" (per-block).
pub fn ablation_fastmath(fast: bool) -> String {
    let session = Session::new();
    let full = if fast { 1120 } else { 8000 };
    let mut t = Table::new(
        "Ablation — hardware (fast) vs software (precise) division & sqrt",
        &["approach", "n", "fast GFLOPS", "precise GFLOPS", "penalty %"],
    );
    let mut penalties_pt = Vec::new();
    let mut penalties_pb = Vec::new();
    for n in [4usize, 5, 6, 7] {
        let a = f32_batch(n, n, sweep_count(n, 64_000.min(full * 8)), true, 0xF0 + n as u64);
        let mut o = base(Approach::PerThread);
        let fast_g = session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops();
        o.math = MathMode::Precise;
        let prec_g = session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops();
        let pen = 100.0 * (1.0 - prec_g / fast_g);
        penalties_pt.push(pen);
        t.row(&["per-thread".into(), n.to_string(), f(fast_g), f(prec_g), f(pen)]);
    }
    for n in [24usize, 40, 56, 72] {
        let a = f32_batch(n, n, sweep_count(n, full), true, 0xF8 + n as u64);
        let mut o = base(Approach::PerBlock);
        let fast_g = session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops();
        o.math = MathMode::Precise;
        let prec_g = session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops();
        let pen = 100.0 * (1.0 - prec_g / fast_g);
        penalties_pb.push(pen);
        t.row(&["per-block".into(), n.to_string(), f(fast_g), f(prec_g), f(pen)]);
    }
    let med = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    t.note(format!(
        "Median penalties: per-thread {}% (paper: 5.6%), per-block {}% (paper: 30%). \
         Per-thread stays bandwidth-bound so the SFU barely matters; the per-block \
         kernels pay the software sequences on every column's critical path.",
        f(med(penalties_pt)),
        f(med(penalties_pb))
    ));
    t.render()
}

/// Serial vs tree reductions in the per-block QR (Section V-D: "we choose
/// to do serial reductions instead of parallel").
pub fn ablation_reduction(fast: bool) -> String {
    let session = Session::new();
    let full = if fast { 1120 } else { 8000 };
    let mut t = Table::new(
        "Ablation — serial vs tree reductions in per-block QR (GFLOPS)",
        &["n", "serial (paper's choice)", "tree", "serial advantage %"],
    );
    for n in [16usize, 32, 48, 64, 96, 128] {
        let a = f32_batch(n, n, sweep_count(n, full), true, 0xE0 + n as u64);
        let serial = session.run_with(Op::Qr, &a, None, &base(Approach::PerBlock)).unwrap().run.gflops();
        let mut o = base(Approach::PerBlock);
        o.tree_reduction = true;
        let tree = session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops();
        t.row(&[
            n.to_string(),
            f(serial),
            f(tree),
            f(100.0 * (serial / tree - 1.0)),
        ]);
    }
    t.note(
        "A tree reduction saves dependent shared loads but pays log2(sqrt(p)) extra \
         barriers per column; at these reduction widths (8-16 partials) the barriers \
         cost more than they save — the quantitative basis for the paper's choice.",
    );
    t.render()
}

/// 64 vs 256 threads per block across sizes (the occupancy trade behind
/// Figure 9's drop at n = 80).
pub fn ablation_threads(fast: bool) -> String {
    let session = Session::new();
    let full = if fast { 1120 } else { 8000 };
    let mut t = Table::new(
        "Ablation — threads per block for per-block QR (GFLOPS)",
        &["n", "64 threads", "256 threads", "default rule picks"],
    );
    for n in [32usize, 48, 64, 72, 80, 96, 112] {
        let count = sweep_count(n, full);
        let a = f32_batch(n, n, count, true, 0xD0 + n as u64);
        let g = |threads: usize| {
            let mut o = base(Approach::PerBlock);
            o.force_threads = Some(threads);
            session.run_with(Op::Qr, &a, None, &o).unwrap().run.gflops()
        };
        let g64 = g(64);
        let g256 = g(256);
        let default = regla_model::block_plan(n, n, 0, 1).threads;
        t.row(&[
            n.to_string(),
            f(g64),
            f(g256),
            format!("{default}"),
        ]);
    }
    t.note(
        "64 threads keep 8 blocks per SM resident (better latency hiding, more \
         problems in flight) but only 64 registers x 64 threads of tile space; 256 \
         threads quadruple the tile at 2-3 blocks per SM. The crossover drives the \
         paper's switch at n = 80 — visible here as the point where the 256-thread \
         column overtakes the spilling 64-thread one.",
    );
    t.render()
}

/// Batch-size saturation at the paper's flagship size: how many problems
/// are needed to saturate the chip (the premise of batching).
pub fn ablation_batch(fast: bool) -> String {
    let session = Session::new();
    let mut t = Table::new(
        "Ablation — throughput vs batch size (56x56 per-block QR)",
        &["problems", "waves", "GFLOPS", "% of saturated"],
    );
    let counts: &[usize] = if fast {
        &[1, 14, 112, 448, 2016]
    } else {
        &[1, 14, 56, 112, 224, 448, 1120, 2016, 8064]
    };
    let sat = {
        let a = f32_batch(56, 56, 8064, true, 0xB5);
        session.run_with(Op::Qr, &a, None, &base(Approach::PerBlock)).unwrap().run.gflops()
    };
    for &c in counts {
        let a = f32_batch(56, 56, c, true, 0xB6);
        let run = session.run_with(Op::Qr, &a, None, &base(Approach::PerBlock)).unwrap().run;
        let waves = run.stats.launches[0].waves;
        let g = run.gflops();
        t.row(&[
            c.to_string(),
            waves.to_string(),
            f(g),
            f(100.0 * g / sat),
        ]);
    }
    t.note(
        "One problem uses one block of one SM (~1/112 of the chip); throughput \
         saturates once the batch fills a wave (112 problems) and stays flat — the \
         paper's case for batching thousands of small problems.",
    );
    t.render()
}

/// Hoisted vs Listing-7-literal LU trailing update, against the paper's
/// measured Table V cycles.
pub fn ablation_lu_style(fast: bool) -> String {
    let session = Session::new();
    let count = if fast { 1120 } else { 8000 };
    let a = f32_batch(56, 56, count, true, 0xB7);
    let mut t = Table::new(
        "Ablation — LU trailing-update style, 56x56 (per-block compute cycles)",
        &["variant", "compute cycles", "GFLOPS", "paper measured"],
    );
    let run_style = |listing7: bool| {
        let mut o = base(Approach::PerBlock);
        o.lu_listing7 = listing7;
        let run = session.run_with(Op::Lu, &a, None, &o).unwrap().run;
        let s = &run.stats.launches[0];
        let compute = s.wave_cycles() - s.cycles_for("load") - s.cycles_for("store");
        (compute, run.gflops())
    };
    let (c_h, g_h) = run_style(false);
    let (c_7, g_7) = run_style(true);
    t.row(&["hoisted (this library)".into(), f(c_h), f(g_h), "—".into()]);
    t.row(&["Listing 7 literal".into(), f(c_7), f(g_7), "68250".into()]);
    t.note(
        "The paper's published LU kernel indexes shared memory inside the rank-1 \
         update loop; re-reading u per FMA puts its cycle count near the paper's \
         measured 68k, while hoisting both vectors into registers (what this \
         library ships) cuts the trailing update cost substantially.",
    );
    t.render()
}

/// Sequential tiled QR vs TSQR on the tall radar shapes: the
/// communication-avoiding tree (the paper's reference \[6\]) fills the chip
/// even when the batch alone cannot.
pub fn ablation_tsqr(fast: bool) -> String {
    use crate::workloads::c32_batch;
    let session = Session::new();
    let mut t = Table::new(
        "Ablation — sequential tiled QR vs TSQR (complex least squares, GFLOPS)",
        &["shape", "batch", "tiled (paper's path)", "TSQR (ref [6])", "TSQR speedup"],
    );
    let shapes: &[(usize, usize)] = &[(240, 66), (192, 96)];
    let batches: &[usize] = if fast { &[4, 28] } else { &[4, 28, 128] };
    for &(m, n) in shapes {
        for &count in batches {
            let a = c32_batch(m, n, count, false, 0x500 + m as u64);
            let b = c32_batch(m, 1, count, false, 0x501 + m as u64);
            let flops = regla_model::Algorithm::Qr.flops_complex(m, n) * count as f64;
            let o = RunOpts::builder()
                .exec(ExecMode::Representative)
                .approach(Approach::Tiled)
                .build().unwrap();
            let tiled_run = session.run_with(Op::LeastSquares, &a, Some(&b), &o).unwrap().run;
            let tiled_g = flops / tiled_run.time_s() / 1e9;
            let ot = RunOpts::builder().exec(ExecMode::Representative).build().unwrap();
            let (_, tsqr_stats) = session.tsqr_least_squares_with(&a, &b, &ot).unwrap();
            let tsqr_g = flops / tsqr_stats.time_s / 1e9;
            t.row(&[
                format!("{m}x{n}"),
                count.to_string(),
                f(tiled_g),
                f(tsqr_g),
                format!("{}x", f(tsqr_g / tiled_g)),
            ]);
        }
    }
    t.note(
        "The sequential tiled path keeps one block per problem, so small batches \
         leave most SMs idle; TSQR factors the row blocks of every problem \
         independently (count x blocks grid) and pays only a log-depth combine \
         tree. As the batch itself fills the chip the advantage shrinks.",
    );
    t.render()
}

/// Section VI-C: the global-level "CUBLAS + streams" approach against the
/// per-block kernels and the sequential CPU.
pub fn ablation_streams(fast: bool) -> String {
    use regla_core::global_level::{global_level_qr, GlobalLevelOpts};
    use regla_core::per_block::SubMat;
    use regla_gpu_sim::{GlobalMemory, Gpu};
    let session = Session::new();
    let gpu = Gpu::quadro_6000();
    let mut t = Table::new(
        "Section VI-C — QR via global-level CUBLAS-style calls (GFLOPS)",
        &[
            "n", "batch", "per-block", "CUBLAS 1 stream", "CUBLAS 4 streams", "CPU sequential",
        ],
    );
    let sizes: &[usize] = if fast { &[16, 32] } else { &[16, 32, 56] };
    for &n in sizes {
        let count = if fast { 112 } else { 448 };
        let a = f32_batch(n, n, count, true, 0x600 + n as u64);
        let flops = regla_model::Algorithm::Qr.flops(n, n) * count as f64;
        let pb = session.run_with(Op::Qr, &a, None, &base(Approach::PerBlock)).unwrap().run.gflops();
        let cublas = |streams: usize| {
            let mut gmem = GlobalMemory::new(a.words_per_mat() * count + count * (n + 8) + 4096);
            let ptr = a.to_device(&mut gmem, std::slice::from_ref(&(0..count)));
            let opts = GlobalLevelOpts {
                streams,
                ..Default::default()
            };
            let stats = global_level_qr::<regla_gpu_sim::Rv>(
                &gpu,
                &mut gmem,
                SubMat::whole(ptr, n, n),
                n,
                n,
                count,
                opts,
            )
            .unwrap();
            flops / stats.time_s / 1e9
        };
        let c1 = cublas(1);
        let c4 = cublas(4);
        let cpu = regla_cpu::timed_batch(regla_cpu::CpuAlg::Qr, &a, n, 1);
        t.row(&[
            n.to_string(),
            count.to_string(),
            f(pb),
            f(c1),
            f(c4),
            f(cpu.gflops()),
        ]);
    }
    t.note(
        "The paper: the global-level approach \"does not take advantage of the \
         memory hierarchy\", fine-grained CUBLAS calls cannot be overlapped with \
         streams on this hardware, and \"we could achieve better performance \
         solving the problems sequentially on the CPU\" — all three visible here: \
         launch overhead + full DRAM re-streaming per call crush the CUBLAS rows, \
         streams change nothing, and even the plain CPU baseline beats them.",
    );
    t.render()
}

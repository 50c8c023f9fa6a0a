//! The global-level ("CUBLAS") approach of Section VI-C.
//!
//! Instead of mapping a problem to a thread or a block, solve it "at the
//! global level": every Householder step becomes a *sequence of
//! grid-wide kernel launches* — a column-norm kernel, a scale kernel, a
//! matrix-vector-multiply kernel, and a rank-1-update kernel — the way a
//! BLAS-call-per-operation implementation over CUBLAS works. The matrix
//! stays in DRAM between calls, so every operation re-streams it, and
//! each call pays the driver's launch overhead.
//!
//! The paper's finding, reproduced by `ablation_streams`: this approach is
//! dominated by launch overhead and DRAM traffic for small problems, and
//! running the per-problem call sequences in multiple CUDA *streams* does
//! not help, because fine-grained kernels from different streams serialize
//! in the driver ("it is practically difficult to get the current GPU to
//! do small CUBLAS routines in parallel in a fine-grained manner"). "We
//! could achieve better performance solving the problems sequentially on
//! the CPU."

use crate::elem::{Elem, Slab};
use crate::per_block::SubMat;
use crate::tiled::MultiLaunch;
use regla_gpu_sim::{
    BlockCtx, BlockKernel, DPtr, ExecMode, GlobalMemory, Gpu, LaunchConfig, MathMode, Rv,
};
use std::marker::PhantomData;

/// Options for the global-level QR.
#[derive(Clone, Copy, Debug)]
pub struct GlobalLevelOpts {
    /// CUDA streams the call sequences are distributed over (>= 1).
    pub streams: usize,
    pub math: MathMode,
    pub exec: ExecMode,
    /// Host worker threads for the simulator's functional replay.
    pub host_threads: Option<usize>,
}

impl Default for GlobalLevelOpts {
    fn default() -> Self {
        GlobalLevelOpts {
            streams: 1,
            math: MathMode::Fast,
            exec: ExecMode::Representative,
            host_threads: None,
        }
    }
}

/// Column norm of column `k` of every problem, written to `d_out[bid]`
/// alongside alpha; one block per problem (a CUBLAS `snrm2`).
struct NormKernel<E: Elem<Re = Rv>> {
    a: SubMat,
    m: usize,
    k: usize,
    d_norm: DPtr,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem<Re = Rv>> BlockKernel for NormKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let bid = blk.block_id;
        if bid >= self.count {
            return;
        }
        let nthreads = blk.num_threads();
        let (a, m, k, d_norm) = (self.a, self.m, self.k, self.d_norm);
        blk.phase_label("cublas: nrm2 partial");
        blk.for_each(|t| {
            let mut acc = t.lit(0.0);
            let mut i = k + t.tid;
            while i < m {
                let v = E::gload(t, a.slab(), a.at(i, k));
                let v2 = E::abs2(t, v);
                acc = t.add(acc, v2);
                i += nthreads;
            }
            t.shared_store(t.tid, acc);
        });
        blk.sync();
        blk.phase_label("cublas: nrm2 reduce");
        blk.for_each(|t| {
            if t.tid != 0 {
                return;
            }
            let mut acc = t.lit(0.0);
            for r in 0..nthreads {
                let p = t.shared_load(r);
                acc = t.add(acc, p);
            }
            let norm = t.sqrt(acc);
            t.gstore(d_norm, bid, norm);
        });
    }
}

/// Form the reflector for column k in place and stash tau/beta (a fused
/// `sscal` + housekeeping call; one block per problem).
struct ReflectKernel<E: Elem<Re = Rv>> {
    a: SubMat,
    m: usize,
    k: usize,
    d_norm: DPtr,
    d_tau: DPtr,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem<Re = Rv>> BlockKernel for ReflectKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let bid = blk.block_id;
        if bid >= self.count {
            return;
        }
        let nthreads = blk.num_threads();
        let (a, m, k) = (self.a, self.m, self.k);
        let (d_norm, d_tau) = (self.d_norm, self.d_tau);
        // Thread 0 computes beta/tau/inv and publishes inv via shared.
        blk.for_each(|t| {
            if t.tid != 0 {
                return;
            }
            let norm = t.gload(d_norm, bid);
            let alpha = E::gload(t, a.slab(), a.at(k, k));
            if t.is_zero(norm) {
                E::gstore(t, Slab::new(d_tau, 1), 0, E::imm(0.0));
                E::sstore(t, 0, E::imm(0.0));
                return;
            }
            let zero = t.lit(0.0);
            let beta = if t.gt(alpha.re(), zero) {
                t.neg(norm)
            } else {
                norm
            };
            let beta_e = E::from_re(beta);
            let num = E::sub(t, beta_e, alpha);
            let binv = E::recip(t, beta_e);
            let tau = E::mul(t, num, binv);
            let den = E::sub(t, alpha, beta_e);
            let inv = E::recip(t, den);
            E::gstore(t, Slab::new(d_tau, 1), 0, tau);
            E::gstore(t, a.slab(), a.at(k, k), beta_e);
            E::sstore(t, 0, inv);
        });
        blk.sync();
        blk.phase_label("cublas: scal");
        blk.for_each(|t| {
            let inv = E::sload(t, 0);
            let mut i = k + 1 + t.tid;
            while i < m {
                let v = E::gload(t, a.slab(), a.at(i, k));
                let s = E::mul(t, v, inv);
                E::gstore(t, a.slab(), a.at(i, k), s);
                i += nthreads;
            }
        });
    }
}

/// w = vᴴ A over the trailing columns (a CUBLAS `sgemv`), writing w to
/// scratch; one block per problem.
struct GemvKernel<E: Elem> {
    a: SubMat,
    m: usize,
    n: usize,
    k: usize,
    d_tau: DPtr,
    d_w: DPtr,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem> BlockKernel for GemvKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let bid = blk.block_id;
        if bid >= self.count {
            return;
        }
        let nthreads = blk.num_threads();
        let (a, m, n, k) = (self.a, self.m, self.n, self.k);
        let (d_tau, d_w) = (self.d_tau, self.d_w);
        blk.phase_label("cublas: gemv");
        blk.for_each(|t| {
            let tau = E::gload(t, Slab::new(d_tau, 1), 0);
            let tch = E::conj(t, tau);
            let mut j = k + 1 + t.tid;
            while j < n {
                let mut acc = E::gload(t, a.slab(), a.at(k, j));
                for i in k + 1..m {
                    let v = E::gload(t, a.slab(), a.at(i, k));
                    let x = E::gload(t, a.slab(), a.at(i, j));
                    acc = E::conj_fma(t, v, x, acc);
                }
                let tw = E::mul(t, tch, acc);
                E::gstore(t, Slab::new(d_w, n), j, tw);
                j += nthreads;
            }
        });
    }
}

/// Rank-1 update A -= v wᵀ over the trailing matrix (a CUBLAS `sger`).
struct GerKernel<E: Elem> {
    a: SubMat,
    m: usize,
    n: usize,
    k: usize,
    d_w: DPtr,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem> BlockKernel for GerKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let bid = blk.block_id;
        if bid >= self.count {
            return;
        }
        let nthreads = blk.num_threads();
        let (a, m, n, k) = (self.a, self.m, self.n, self.k);
        let d_w = self.d_w;
        blk.phase_label("cublas: ger");
        blk.for_each(|t| {
            let mut e = t.tid;
            let rows = m - k;
            let cols = n.saturating_sub(k + 1);
            while e < rows * cols {
                let i = k + e % rows;
                let j = k + 1 + e / rows;
                let tw = E::gload(t, Slab::new(d_w, n), j);
                let v = if i == k {
                    E::imm(1.0)
                } else {
                    E::gload(t, a.slab(), a.at(i, k))
                };
                let x = E::gload(t, a.slab(), a.at(i, j));
                let nx = E::fnma(t, v, tw, x);
                E::gstore(t, a.slab(), a.at(i, j), nx);
                e += nthreads;
            }
        });
    }
}

/// Householder QR of a device batch through grid-level BLAS-style calls.
/// Returns the accumulated launch statistics; the factorization is left
/// in place (R upper, reflectors below, LAPACK-style).
pub fn global_level_qr<E: Elem<Re = Rv>>(
    gpu: &Gpu,
    gmem: &mut GlobalMemory,
    a: SubMat,
    m: usize,
    n: usize,
    count: usize,
    opts: GlobalLevelOpts,
) -> Result<MultiLaunch, regla_gpu_sim::LaunchError> {
    assert!(m >= n);
    let mut agg = MultiLaunch::default();
    let d_norm = gmem.alloc(count * E::WORDS);
    let d_tau = gmem.alloc(count * E::WORDS);
    let d_w = gmem.alloc(count * n * E::WORDS);
    let lc = |shared: usize| {
        LaunchConfig::new(count, 64)
            .regs(20)
            .shared_words(shared)
            .math(opts.math)
            .exec(opts.exec)
            .host_threads(opts.host_threads)
    };
    for k in 0..n.min(m) {
        let norm = NormKernel::<E> {
            a,
            m,
            k,
            d_norm,
            count,
            _e: PhantomData,
        };
        agg.push(gpu.launch(&norm, &lc(64), gmem)?);
        let reflect = ReflectKernel::<E> {
            a,
            m,
            k,
            d_norm,
            d_tau,
            count,
            _e: PhantomData,
        };
        agg.push(gpu.launch(&reflect, &lc(2), gmem)?);
        if k + 1 < n {
            let gemv = GemvKernel::<E> {
                a,
                m,
                n,
                k,
                d_tau,
                d_w,
                count,
                _e: PhantomData,
            };
            agg.push(gpu.launch(&gemv, &lc(0), gmem)?);
            let ger = GerKernel::<E> {
                a,
                m,
                n,
                k,
                d_w,
                count,
                _e: PhantomData,
            };
            agg.push(gpu.launch(&ger, &lc(0), gmem)?);
        }
    }
    // Streams: each stream carries its own call sequence, so in principle
    // `streams` launch overheads could overlap. GF100 effectively runs
    // `concurrent_kernels` of these fine-grained launches at once — 1 in
    // practice — which is exactly why the paper saw "no benefit from
    // using multiple streams".
    let hidden = opts
        .streams
        .min(gpu.cfg.concurrent_kernels)
        .max(1);
    if hidden > 1 {
        let saved: f64 = agg
            .launches
            .iter()
            .map(|l| l.overhead_s)
            .sum::<f64>()
            * (1.0 - 1.0 / hidden as f64);
        agg.time_s -= saved;
    }
    Ok(agg)
}

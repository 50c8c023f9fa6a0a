//! One-problem-per-thread kernels (Section IV).
//!
//! For very small problems (n < 16) each thread stores an entire matrix in
//! its register file and factors it serially; threads never communicate.
//! In the tracked domain every register access goes through the
//! simulator's spill accounting, so sizes past the 64-register budget
//! spill to local memory exactly like the `#pragma unroll`ed CUDA original
//! — producing Figure 4's collapse at n = 8.

use crate::elem::{run_in_domain, DomainKernel, Elem, Real, Slab};
use crate::per_block::common::SubMat;
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr, ThreadCtx};
use std::marker::PhantomData;

/// Which serial algorithm the kernel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtAlg {
    /// LU without pivoting (L and U in place).
    Lu,
    /// Householder QR (R and reflectors in place).
    Qr,
    /// Gauss-Jordan reduction of `[A | b]` (solution in the rhs columns).
    Gj,
    /// QR factorization of `[A | b]` followed by back substitution.
    QrSolve,
    /// Cholesky factorization `A = L Lᴴ` (SPD matrices; extension).
    Cholesky,
}

/// Serial in-register kernel: one `n x (n + rhs_cols)` problem per thread.
pub struct PerThreadKernel<E: Elem> {
    pub a: SubMat,
    pub n: usize,
    pub rhs_cols: usize,
    pub count: usize,
    pub alg: PtAlg,
    /// Where QR stores its reflector scales (count x n elements).
    pub d_tau: Option<DPtr>,
    /// Optional per-problem failure flag array (one word per problem):
    /// 0 = solved, `col + 1` = first zero / non-positive pivot column.
    pub d_flag: Option<DPtr>,
    pub _e: PhantomData<E>,
}

impl<E: Elem> PerThreadKernel<E> {
    pub fn new(a: SubMat, n: usize, rhs_cols: usize, count: usize, alg: PtAlg) -> Self {
        PerThreadKernel {
            a,
            n,
            rhs_cols,
            count,
            alg,
            d_tau: None,
            d_flag: None,
            _e: PhantomData,
        }
    }

    pub fn with_tau(mut self, d_tau: DPtr) -> Self {
        self.d_tau = Some(d_tau);
        self
    }

    pub fn with_flag(mut self, d_flag: DPtr) -> Self {
        self.d_flag = Some(d_flag);
        self
    }

    pub fn cols(&self) -> usize {
        self.n + self.rhs_cols
    }

    /// Registers per thread this kernel wants (the matrix plus overhead).
    pub fn regs_per_thread(&self) -> usize {
        self.n * self.cols() * E::WORDS + 12
    }
}

/// One thread's register file: a whole problem, column-major.
struct Regs<D>(Vec<D>);

impl<D: Elem> Regs<D> {
    #[inline]
    fn get(&self, t: &mut ThreadCtx, i: usize) -> D {
        D::reg_get(t, &self.0, i)
    }

    #[inline]
    fn set(&mut self, t: &mut ThreadCtx, i: usize, v: D) {
        D::reg_set(t, &mut self.0, i, v)
    }
}

#[inline]
fn idx(n: usize, i: usize, j: usize) -> usize {
    j * n + i
}

fn lu_serial<D: Elem>(t: &mut ThreadCtx, a: &mut Regs<D>, n: usize, cols: usize) -> Option<usize> {
    let mut fail = None;
    for k in 0..n {
        let akk = a.get(t, idx(n, k, k));
        if D::is_zero(t, akk) {
            fail.get_or_insert(k);
            continue;
        }
        let inv = D::recip(t, akk);
        for i in k + 1..n {
            let v = a.get(t, idx(n, i, k));
            let l = D::mul(t, v, inv);
            a.set(t, idx(n, i, k), l);
        }
        for j in k + 1..cols {
            let u = a.get(t, idx(n, k, j));
            for i in k + 1..n {
                let l = a.get(t, idx(n, i, k));
                let v = a.get(t, idx(n, i, j));
                let nv = D::fnma(t, l, u, v);
                a.set(t, idx(n, i, j), nv);
            }
        }
    }
    fail
}

fn gj_serial<D: Elem>(t: &mut ThreadCtx, a: &mut Regs<D>, n: usize, cols: usize) -> Option<usize> {
    let mut fail = None;
    for k in 0..n {
        let akk = a.get(t, idx(n, k, k));
        if D::is_zero(t, akk) {
            fail.get_or_insert(k);
            continue;
        }
        let s = D::recip(t, akk);
        for j in k..cols {
            let v = a.get(t, idx(n, k, j));
            let u = D::mul(t, v, s);
            a.set(t, idx(n, k, j), u);
        }
        for i in 0..n {
            if i == k {
                continue;
            }
            let f = a.get(t, idx(n, i, k));
            for j in k..cols {
                let u = a.get(t, idx(n, k, j));
                let v = a.get(t, idx(n, i, j));
                let nv = D::fnma(t, f, u, v);
                a.set(t, idx(n, i, j), nv);
            }
        }
    }
    fail
}

fn qr_serial<D: Elem>(
    t: &mut ThreadCtx,
    a: &mut Regs<D>,
    n: usize,
    cols: usize,
    tau_out: Option<(Slab, usize)>,
) {
    for k in 0..n {
        let mut x2 = D::Re::imm(0.0);
        for i in k + 1..n {
            let v = a.get(t, idx(n, i, k));
            let v2 = D::abs2(t, v);
            x2 = D::Re::add(t, x2, v2);
        }
        let alpha = a.get(t, idx(n, k, k));
        let a2 = D::abs2(t, alpha);
        let n2 = D::Re::add(t, x2, a2);
        if D::Re::is_zero(t, n2) {
            if let Some((dt, base)) = tau_out {
                D::gstore(t, dt, base + k, D::imm(0.0));
            }
            continue;
        }
        let anorm = D::Re::sqrt(t, n2);
        let zero = D::Re::imm(0.0);
        let beta = D::Re::neg_if_gt(t, anorm, alpha.re(), zero);
        let beta_e = D::from_re(beta);
        let num = D::sub(t, beta_e, alpha);
        let binv = D::recip(t, beta_e);
        let tau = D::mul(t, num, binv);
        let den = D::sub(t, alpha, beta_e);
        let inv = D::recip(t, den);
        if let Some((dt, base)) = tau_out {
            D::gstore(t, dt, base + k, tau);
        }
        for i in k + 1..n {
            let v = a.get(t, idx(n, i, k));
            let nv = D::mul(t, v, inv);
            a.set(t, idx(n, i, k), nv);
        }
        a.set(t, idx(n, k, k), beta_e);
        let tch = D::conj(t, tau);
        for j in k + 1..cols {
            let mut w = a.get(t, idx(n, k, j));
            for i in k + 1..n {
                let v = a.get(t, idx(n, i, k));
                let x = a.get(t, idx(n, i, j));
                w = D::conj_fma(t, v, x, w);
            }
            let tw = D::mul(t, tch, w);
            let x = a.get(t, idx(n, k, j));
            let nx = D::sub(t, x, tw);
            a.set(t, idx(n, k, j), nx);
            for i in k + 1..n {
                let v = a.get(t, idx(n, i, k));
                let x = a.get(t, idx(n, i, j));
                let nx = D::fnma(t, v, tw, x);
                a.set(t, idx(n, i, j), nx);
            }
        }
    }
}

fn cholesky_serial<D: Elem>(t: &mut ThreadCtx, a: &mut Regs<D>, n: usize) -> Option<usize> {
    let mut fail = None;
    for k in 0..n {
        let akk = a.get(t, idx(n, k, k));
        let d = akk.re();
        let zero = D::Re::imm(0.0);
        if !D::Re::gt(t, d, zero) {
            fail.get_or_insert(k);
            continue;
        }
        let lkk = D::Re::sqrt(t, d);
        let inv = D::Re::recip(t, lkk);
        a.set(t, idx(n, k, k), D::from_re(lkk));
        for i in k + 1..n {
            let v = a.get(t, idx(n, i, k));
            let l = D::scale_re(t, v, inv);
            a.set(t, idx(n, i, k), l);
        }
        for j in k + 1..n {
            let lj = a.get(t, idx(n, j, k));
            let ljc = D::conj(t, lj);
            for i in j..n {
                let li = a.get(t, idx(n, i, k));
                let v = a.get(t, idx(n, i, j));
                let nv = D::fnma(t, li, ljc, v);
                a.set(t, idx(n, i, j), nv);
            }
        }
    }
    fail
}

fn back_substitute_serial<D: Elem>(t: &mut ThreadCtx, a: &mut Regs<D>, n: usize, rc: usize) {
    for j in (0..n).rev() {
        let rjj = a.get(t, idx(n, j, j));
        let inv = D::recip(t, rjj);
        let y = a.get(t, idx(n, j, rc));
        let x = D::mul(t, y, inv);
        a.set(t, idx(n, j, rc), x);
        for i in 0..j {
            let r = a.get(t, idx(n, i, j));
            let y = a.get(t, idx(n, i, rc));
            let ny = D::fnma(t, r, x, y);
            a.set(t, idx(n, i, rc), ny);
        }
    }
}

impl<E: Elem> BlockKernel for PerThreadKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        run_in_domain(self, blk)
    }

    fn lane_capable(&self) -> bool {
        true
    }
}

impl<E: Elem> DomainKernel for PerThreadKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        let tpb = blk.num_threads();
        let (n, cols) = (self.n, self.cols());
        let a = self.a;
        // Each block's slab holds its threads' `tpb` consecutive problems.
        let slab = Slab::new(a.ptr, tpb * a.stride);
        blk.phase_label_with(|| "per-thread".to_string());
        // One register file reused across the block's threads: every
        // problem fully overwrites it during its load, so reuse is
        // indistinguishable from a fresh zeroed array.
        let mut regs = Regs(vec![D::imm(0.0); n * cols]);
        blk.for_each(|t| {
            let tid = t.tid;
            if t.uniform(|b| b * tpb + tid >= self.count) {
                return;
            }
            // Each column of a problem is a contiguous run in global memory.
            for j in 0..cols {
                D::gload_span(t, slab, a.index(tid, 0, j), &mut regs.0[j * n..][..n]);
            }
            let fail = match self.alg {
                PtAlg::Lu => lu_serial(t, &mut regs, n, cols),
                PtAlg::Gj => gj_serial(t, &mut regs, n, cols),
                PtAlg::Qr => {
                    let sink = self.d_tau.map(|dt| (Slab::new(dt, tpb * n), tid * n));
                    qr_serial(t, &mut regs, n, cols, sink);
                    None
                }
                PtAlg::QrSolve => {
                    qr_serial(t, &mut regs, n, cols, None);
                    back_substitute_serial(t, &mut regs, n, n);
                    None
                }
                PtAlg::Cholesky => cholesky_serial(t, &mut regs, n),
            };
            for j in 0..cols {
                D::gstore_span(t, slab, a.index(tid, 0, j), &regs.0[j * n..][..n]);
            }
            // Per-problem failure flag: `first failing column + 1`
            // (0 = solved), same encoding as the per-block kernels.
            if let (Some(f), Some(col)) = (self.d_flag, fail) {
                D::Re::gstore(t, Slab::new(f, tpb), tid, D::Re::imm((col + 1) as f32));
            }
        });
    }
}

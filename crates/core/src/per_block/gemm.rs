//! One-problem-per-block GEMM: `C += A · B` with C held in the register
//! files (2D cyclic) and the k-th column of A / row of B staged through
//! shared memory each iteration. Used by the batched multiply workloads
//! (the speech-recognition GMM example) and by the hybrid baseline's
//! trailing-matrix updates.

use crate::elem::{run_in_domain, DomainKernel, Elem};
use crate::layout::LayoutMap;
use crate::per_block::common::{hoist, load_tile, store_tile, OwnTables, SubMat, TileRegs};
use regla_gpu_sim::{BlockCtx, BlockKernel};
use std::marker::PhantomData;

/// Batched `C = A·B + beta*C` kernel (beta = 0 or 1).
pub struct GemmBlockKernel<E: Elem> {
    pub a: SubMat,
    pub b: SubMat,
    pub c: SubMat,
    /// Layout of C over the block's threads.
    pub lm: LayoutMap,
    /// Inner dimension.
    pub kdim: usize,
    pub count: usize,
    /// When false, C is overwritten instead of accumulated.
    pub accumulate: bool,
    /// Ownership tables, built once per launch instead of once per
    /// simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> GemmBlockKernel<E> {
    /// `C = A·B` (or `C += A·B` when `accumulate`) over `count` problems,
    /// with C laid out over the block by `lm` and inner dimension `kdim`.
    pub fn new(
        a: SubMat,
        b: SubMat,
        c: SubMat,
        lm: LayoutMap,
        kdim: usize,
        count: usize,
        accumulate: bool,
    ) -> Self {
        GemmBlockKernel {
            a,
            b,
            c,
            own: OwnTables::new(&lm),
            lm,
            kdim,
            count,
            accumulate,
            _e: PhantomData,
        }
    }

    /// Shared words: one column of A (m) plus one row of B (n).
    pub fn shared_words(&self) -> usize {
        (self.lm.rows + self.lm.cols) * E::WORDS
    }
}

impl<E: Elem> BlockKernel for GemmBlockKernel<E> {
    fn run(&self, blk: &mut BlockCtx) {
        run_in_domain(self, blk)
    }

    fn lane_capable(&self) -> bool {
        true
    }

    /// One problem per block: the grid holds `count` blocks.
    fn blocks_full(&self) -> bool {
        true
    }
}

impl<E: Elem> DomainKernel for GemmBlockKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        if blk.uniform(|b| b >= self.count) {
            return;
        }
        let lm = self.lm;
        let own = &self.own;
        let lrows = lm.lrows;
        let (m, n) = (lm.rows, lm.cols);
        let p = lm.p;
        let kdim = self.kdim;
        let (a, b) = (self.a, self.b);

        let mut regs = TileRegs::<D>::new(p, lm.local_len());
        let (mut av, mut bv) = (Vec::new(), Vec::new());
        if self.accumulate {
            load_tile(blk, &lm, own, &self.c, &mut regs);
        } else {
            blk.phase_label_with(|| "zero".to_string());
            blk.for_each(|t| {
                for l in 0..lm.local_len() {
                    regs.set(t, l, D::imm(0.0));
                }
            });
            blk.sync();
        }

        for kk in 0..kdim {
            // Stage A[:, kk] and B[kk, :] into shared memory cooperatively.
            blk.phase_label_with(|| "stage".to_string());
            blk.for_each(|t| {
                let mut i = t.tid;
                while i < m {
                    let v = D::gload(t, a.slab(), a.at(i, kk));
                    D::sstore(t, i, v);
                    i += p;
                }
                let mut j = t.tid;
                while j < n {
                    let v = D::gload(t, b.slab(), b.at(kk, j));
                    D::sstore(t, m + j, v);
                    j += p;
                }
            });
            blk.sync();

            blk.phase_label_with(|| "update".to_string());
            blk.for_each(|t| {
                let trows = own.rows_from(t.tid, 0);
                let tcols = own.cols_from(t.tid, 0);
                if trows.is_empty() || tcols.is_empty() {
                    return;
                }
                hoist(t, &mut av, trows.iter().copied());
                hoist(t, &mut bv, tcols.iter().map(|&j| m + j));
                // Row and column bases are 0: the lists start at 0.
                for (cc, &bj) in bv.iter().enumerate() {
                    let col = lrows * cc;
                    for (rr, &ai) in av.iter().enumerate() {
                        let c = regs.get(t, col + rr);
                        let nc = D::fma(t, ai, bj, c);
                        regs.set(t, col + rr, nc);
                    }
                }
            });
            blk.sync();
        }

        store_tile(blk, &lm, own, &self.c, &regs);
    }
}

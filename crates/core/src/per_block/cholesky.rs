//! One-problem-per-block Cholesky factorization (extension): the same
//! column-sweep skeleton as the paper's LU — scale factor from the
//! diagonal thread, column published through shared memory, outer-product
//! trailing update — but restricted to the lower triangle and using a
//! square root on the pivot.

use crate::elem::{run_in_domain, DomainKernel, Elem, Real};
use crate::layout::LayoutMap;
use crate::per_block::common::{
    flag_first_failure, hoist, load_tile, store_tile, OwnTables, SharedMap, SubMat, TileRegs,
};
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr};
use std::marker::PhantomData;

/// Cholesky kernel; L overwrites the lower triangle in place.
pub struct CholeskyBlockKernel<E: Elem> {
    pub a: SubMat,
    pub lm: LayoutMap,
    pub count: usize,
    /// Set to 1 when a non-positive pivot is encountered.
    pub d_flag: Option<DPtr>,
    /// Ownership tables, hoisted out of `run` so they are built once per
    /// launch instead of once per simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> CholeskyBlockKernel<E> {
    pub fn new(a: SubMat, lm: LayoutMap, count: usize) -> Self {
        CholeskyBlockKernel {
            a,
            own: OwnTables::new(&lm),
            lm,
            count,
            d_flag: None,
            _e: PhantomData,
        }
    }

    pub fn shared_words(&self) -> usize {
        SharedMap::new(&self.lm).words::<E>()
    }
}

impl<E: Elem> BlockKernel for CholeskyBlockKernel<E> {
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

impl<E: Elem> DomainKernel for CholeskyBlockKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        if blk.uniform(|b| b >= self.count) {
            return;
        }
        let lm = self.lm;
        let sm = SharedMap::new(&lm);
        let own = &self.own;
        let lrows = lm.lrows;
        let n = lm.rows;
        assert_eq!(lm.cols, n, "Cholesky needs a square matrix");
        let d_flag = self.d_flag;

        let mut regs = TileRegs::<D>::new(lm.p, lm.local_len());
        let mut lv = Vec::new();
        load_tile(blk, &lm, own, &self.a, &mut regs);

        for k in 0..n {
            let panel = k / lm.rdim + 1;
            let diag_owner = lm.owner(k, k);

            // Pivot: l_kk = sqrt(a_kk), published with its reciprocal.
            blk.phase_label_with(|| format!("panel {panel}: pivot"));
            blk.for_each(|t| {
                if t.tid != diag_owner {
                    return;
                }
                let akk = regs.get(t, lm.local_index(k, k));
                let d = akk.re();
                let zero = D::Re::imm(0.0);
                if !D::Re::gt(t, d, zero) {
                    D::sstore(t, sm.se(2), D::imm(0.0));
                    if let Some(f) = d_flag {
                        flag_first_failure::<D>(t, f, k);
                    }
                    return;
                }
                let lkk = D::Re::sqrt(t, d);
                let inv = D::Re::recip(t, lkk);
                regs.set(t, lm.local_index(k, k), D::from_re(lkk));
                D::sstore(t, sm.se(2), D::from_re(inv));
            });
            blk.sync();

            // Scale the pivot column and publish it.
            blk.for_each(|t| {
                if !lm.owns_col(t.tid, k) {
                    return;
                }
                let rows = own.rows_from(t.tid, k + 1);
                if rows.is_empty() {
                    return;
                }
                let inv = D::sload(t, sm.se(2)).re();
                let col = own.row_base(t.tid, k + 1) + lrows * own.col_base(t.tid, k);
                for (rr, &i) in rows.iter().enumerate() {
                    let a = regs.get(t, col + rr);
                    let l = D::scale_re(t, a, inv);
                    regs.set(t, col + rr, l);
                    D::sstore(t, sm.sv(i), l);
                }
            });
            blk.sync();

            // Symmetric trailing update of the lower triangle:
            // a_ij -= l_i * conj(l_j) for k < j <= i.
            blk.phase_label_with(|| format!("panel {panel}: syrk"));
            blk.for_each(|t| {
                let trows = own.rows_from(t.tid, k + 1);
                let tcols = own.cols_from(t.tid, k + 1);
                if trows.is_empty() || tcols.is_empty() {
                    return;
                }
                hoist(t, &mut lv, trows.iter().map(|&i| sm.sv(i)));
                let r0 = own.row_base(t.tid, k + 1);
                let c0 = own.col_base(t.tid, k + 1);
                for (cc, &j) in tcols.iter().enumerate() {
                    let lj = D::sload(t, sm.sv(j));
                    let ljc = D::conj(t, lj);
                    let col = r0 + lrows * (c0 + cc);
                    // Rows are sorted: the i >= j part is a suffix.
                    let start = trows.partition_point(|&i| i < j);
                    for (rr, &li) in lv.iter().enumerate().skip(start) {
                        let a = regs.get(t, col + rr);
                        let na = D::fnma(t, li, ljc, a);
                        regs.set(t, col + rr, na);
                    }
                }
            });
            blk.sync();
        }

        store_tile(blk, &lm, own, &self.a, &regs);
    }
}

//! One-problem-per-block Gauss-Jordan elimination (Section III-A).
//!
//! Solves `A x = b` by reducing the augmented `[A | b]` to reduced row
//! echelon form without pivoting: the pivot row is scaled by 1/a_kk and an
//! outer product of the scaled row and the pivot column updates everything
//! to the right, above and below the pivot.

use crate::elem::{run_in_domain, DomainKernel, Elem};
use crate::layout::LayoutMap;
use crate::per_block::common::{
    flag_first_failure, hoist, load_tile, store_tile, OwnTables, SharedMap, SubMat, TileRegs,
};
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr};
use std::marker::PhantomData;

/// Gauss-Jordan kernel over `n x (n + rhs)` augmented matrices; on return
/// the rhs columns hold the solutions.
pub struct GjBlockKernel<E: Elem> {
    pub a: SubMat,
    pub lm: LayoutMap,
    pub count: usize,
    /// Columns that are right-hand sides (>= 1).
    pub rhs_cols: usize,
    pub d_flag: Option<DPtr>,
    /// Ownership tables, hoisted out of `run` so they are built once per
    /// launch instead of once per simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> GjBlockKernel<E> {
    pub fn new(a: SubMat, lm: LayoutMap, count: usize, rhs_cols: usize) -> Self {
        assert!(rhs_cols >= 1);
        GjBlockKernel {
            a,
            own: OwnTables::new(&lm),
            lm,
            count,
            rhs_cols,
            d_flag: None,
            _e: PhantomData,
        }
    }

    pub fn shared_words(&self) -> usize {
        SharedMap::new(&self.lm).words::<E>()
    }
}

impl<E: Elem> BlockKernel for GjBlockKernel<E> {
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

impl<E: Elem> DomainKernel for GjBlockKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        if blk.uniform(|b| b >= self.count) {
            return;
        }
        let lm = self.lm;
        let sm = SharedMap::new(&lm);
        let own = &self.own;
        let lrows = lm.lrows;
        let n = lm.cols - self.rhs_cols;
        assert_eq!(lm.rows, n, "Gauss-Jordan needs a square system");
        let d_flag = self.d_flag;

        let mut regs = TileRegs::<D>::new(lm.p, lm.local_len());
        let (mut lv, mut uv) = (Vec::new(), Vec::new());
        load_tile(blk, &lm, own, &self.a, &mut regs);

        for k in 0..n {
            let panel = k / lm.rdim + 1;
            let diag_owner = lm.owner(k, k);

            blk.phase_label_with(|| format!("panel {panel}: column"));
            blk.for_each(|t| {
                if t.tid != diag_owner {
                    return;
                }
                let akk = regs.get(t, lm.local_index(k, k));
                if D::is_zero(t, akk) {
                    D::sstore(t, sm.se(2), D::imm(0.0));
                    if let Some(f) = d_flag {
                        flag_first_failure::<D>(t, f, k);
                    }
                } else {
                    let s = D::recip(t, akk);
                    D::sstore(t, sm.se(2), s);
                }
            });
            blk.sync();

            // Scale the pivot row (j >= k) and publish it; publish the
            // pivot column as the elimination multipliers l_i.
            blk.for_each(|t| {
                if own.rows_from(t.tid, k).first() == Some(&k) {
                    let s = D::sload(t, sm.se(2));
                    let rk = own.row_base(t.tid, k);
                    let c0 = own.col_base(t.tid, k);
                    for (cc, &j) in own.cols_from(t.tid, k).iter().enumerate() {
                        let idx = rk + lrows * (c0 + cc);
                        let a = regs.get(t, idx);
                        let u = D::mul(t, a, s);
                        regs.set(t, idx, u);
                        if j > k {
                            D::sstore(t, sm.sr(j), u);
                        }
                    }
                }
                if lm.owns_col(t.tid, k) {
                    let col = lrows * own.col_base(t.tid, k);
                    for (rr, &i) in own.rows_from(t.tid, 0).iter().enumerate() {
                        if i == k {
                            continue;
                        }
                        let l = regs.get(t, col + rr);
                        D::sstore(t, sm.sv(i), l);
                    }
                }
            });
            blk.sync();

            // Outer-product update of every row but the pivot row, columns
            // right of the pivot, and zero the pivot column.
            blk.phase_label_with(|| format!("panel {panel}: rank-1"));
            blk.for_each(|t| {
                let rows = own.rows_from(t.tid, 0);
                let tcols = own.cols_from(t.tid, k + 1);
                // The owned rows other than the pivot row, with their
                // local indices.
                let trows = || rows.iter().enumerate().filter(|&(_, &i)| i != k);
                if trows().next().is_some() && !tcols.is_empty() {
                    hoist(t, &mut lv, trows().map(|(_, &i)| sm.sv(i)));
                    hoist(t, &mut uv, tcols.iter().map(|&j| sm.sr(j)));
                    let c0 = own.col_base(t.tid, k + 1);
                    for (cc, &uj) in uv.iter().enumerate() {
                        let col = lrows * (c0 + cc);
                        for ((rr, _), &li) in trows().zip(&lv) {
                            let a = regs.get(t, col + rr);
                            let na = D::fnma(t, li, uj, a);
                            regs.set(t, col + rr, na);
                        }
                    }
                }
                // Clear the pivot column (RREF) and set the pivot to one.
                if lm.owns_col(t.tid, k) {
                    let col = lrows * own.col_base(t.tid, k);
                    for (rr, &i) in rows.iter().enumerate() {
                        let v = if i == k { D::imm(1.0) } else { D::imm(0.0) };
                        regs.set(t, col + rr, v);
                    }
                }
            });
            blk.sync();
        }

        store_tile(blk, &lm, own, &self.a, &regs);
    }
}

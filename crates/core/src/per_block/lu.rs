//! One-problem-per-block LU factorization without pivoting (Section V,
//! Listings 5-7): scale the pivot column, publish l and u through shared
//! memory, rank-1 update of the Schur complement.

use crate::elem::{run_in_domain, DomainKernel, Elem};
use crate::layout::LayoutMap;
use crate::per_block::common::{
    flag_first_failure, hoist, load_tile, store_tile, OwnTables, SharedMap, SubMat, TileRegs,
};
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr};
use std::marker::PhantomData;

/// LU kernel; L (unit diagonal) and U overwrite the matrix in place.
pub struct LuBlockKernel<E: Elem> {
    pub a: SubMat,
    pub lm: LayoutMap,
    pub count: usize,
    /// Optional singularity flag array (one word per problem, set to 1 when
    /// a zero pivot is hit — the paper's `*notsolved = 1`).
    pub d_flag: Option<DPtr>,
    /// Follow the paper's Listing 7 literally in the rank-1 update: re-read
    /// `u` from shared memory inside the inner loop (with `l` hoisted per
    /// row, as nvcc does for the loop-invariant operand) instead of
    /// pre-loading both vectors into registers. Slower; used by the
    /// fidelity ablation against Table V's measured LU cycles.
    pub listing7: bool,
    /// Ownership tables, hoisted out of `run` so they are built once per
    /// launch instead of once per simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> LuBlockKernel<E> {
    pub fn new(a: SubMat, lm: LayoutMap, count: usize) -> Self {
        LuBlockKernel {
            a,
            own: OwnTables::new(&lm),
            lm,
            count,
            d_flag: None,
            listing7: false,
            _e: PhantomData,
        }
    }

    pub fn with_flag(mut self, d_flag: DPtr) -> Self {
        self.d_flag = Some(d_flag);
        self
    }

    /// Enable the Listing-7-literal trailing update (see `listing7`).
    pub fn listing7(mut self) -> Self {
        self.listing7 = true;
        self
    }

    pub fn shared_words(&self) -> usize {
        SharedMap::new(&self.lm).words::<E>()
    }
}

impl<E: Elem> BlockKernel for LuBlockKernel<E> {
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

impl<E: Elem> DomainKernel for LuBlockKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        if blk.uniform(|b| b >= self.count) {
            return;
        }
        let lm = self.lm;
        let sm = SharedMap::new(&lm);
        let own = &self.own;
        let lrows = lm.lrows;
        let (m, cols) = (lm.rows, lm.cols);
        let kmax = m.min(cols);
        let d_flag = self.d_flag;
        let listing7 = self.listing7;

        let mut regs = TileRegs::<D>::new(lm.p, lm.local_len());
        let (mut lv, mut uv) = (Vec::new(), Vec::new());
        load_tile(blk, &lm, own, &self.a, &mut regs);

        for k in 0..kmax {
            let panel = k / lm.rdim + 1;
            let diag_owner = lm.owner(k, k);

            // The thread on the diagonal determines the scaling factor and
            // assigns it to shared memory (Listing 5).
            blk.phase_label_with(|| format!("panel {panel}: column"));
            blk.for_each(|t| {
                if t.tid != diag_owner {
                    return;
                }
                let akk = regs.get(t, lm.local_index(k, k));
                if D::is_zero(t, akk) {
                    D::sstore(t, sm.se(2), D::imm(0.0));
                    // First failure wins: record `column + 1` so the host
                    // can report which pivot broke (0 = solved).
                    if let Some(f) = d_flag {
                        flag_first_failure::<D>(t, f, k);
                    }
                } else {
                    let s = D::recip(t, akk);
                    D::sstore(t, sm.se(2), s);
                }
            });
            blk.sync();

            // Scale the column into l while extracting it to shared memory
            // (Listing 6), and publish the pivot row as u.
            blk.for_each(|t| {
                if lm.owns_col(t.tid, k) {
                    let rows = own.rows_from(t.tid, k + 1);
                    if !rows.is_empty() {
                        let s = D::sload(t, sm.se(2));
                        let col = own.row_base(t.tid, k + 1) + lrows * own.col_base(t.tid, k);
                        for (rr, &i) in rows.iter().enumerate() {
                            let a = regs.get(t, col + rr);
                            let l = D::mul(t, a, s);
                            regs.set(t, col + rr, l);
                            D::sstore(t, sm.sv(i), l);
                        }
                    }
                }
                if own.rows_from(t.tid, k).first() == Some(&k) {
                    let rk = own.row_base(t.tid, k);
                    let c0 = own.col_base(t.tid, k + 1);
                    for (cc, &j) in own.cols_from(t.tid, k + 1).iter().enumerate() {
                        let u = regs.get(t, rk + lrows * (c0 + cc));
                        D::sstore(t, sm.sr(j), u);
                    }
                }
            });
            blk.sync();

            // Rank-1 update of the Schur complement (Listing 7). By default
            // both shared vectors are hoisted into registers first; the
            // `listing7` variant re-reads u per inner iteration, as the
            // paper's source does.
            blk.phase_label_with(|| format!("panel {panel}: rank-1"));
            blk.for_each(|t| {
                let trows = own.rows_from(t.tid, k + 1);
                let tcols = own.cols_from(t.tid, k + 1);
                if trows.is_empty() || tcols.is_empty() {
                    return;
                }
                let r0 = own.row_base(t.tid, k + 1);
                let c0 = own.col_base(t.tid, k + 1);
                if listing7 {
                    for (rr, &i) in trows.iter().enumerate() {
                        let li = D::sload(t, sm.sv(i));
                        for (cc, &j) in tcols.iter().enumerate() {
                            let uj = D::sload(t, sm.sr(j));
                            let idx = r0 + rr + lrows * (c0 + cc);
                            let a = regs.get(t, idx);
                            let na = D::fnma(t, li, uj, a);
                            regs.set(t, idx, na);
                        }
                    }
                } else {
                    hoist(t, &mut lv, trows.iter().map(|&i| sm.sv(i)));
                    hoist(t, &mut uv, tcols.iter().map(|&j| sm.sr(j)));
                    for (cc, &uj) in uv.iter().enumerate() {
                        let col = r0 + lrows * (c0 + cc);
                        for (rr, &li) in lv.iter().enumerate() {
                            let a = regs.get(t, col + rr);
                            let na = D::fnma(t, li, uj, a);
                            regs.set(t, col + rr, na);
                        }
                    }
                }
            });
            blk.sync();
        }

        store_tile(blk, &lm, own, &self.a, &regs);
    }
}

//! Apply the reflectors of a factored panel to trailing columns —
//! the update step of the sequential tiled QR used for matrices that do
//! not fit a single block's register file (Section VII's 240x66 STAP QR).
//!
//! One block per problem: the factored panel V (reflectors below the
//! diagonal, unit leading elements implicit) is loaded into registers and
//! each trailing column is streamed through shared memory, having the nb
//! reflectors applied in sequence.

use crate::elem::{run_in_domain, DomainKernel, Elem, Slab};
use crate::layout::LayoutMap;
use crate::per_block::common::{load_tile, OwnTables, SubMat, TileRegs};
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr};
use std::marker::PhantomData;

pub struct QrApplyKernel<E: Elem> {
    /// The factored panel (rows x nb), reflectors below the diagonal.
    pub v: SubMat,
    /// The trailing columns to update (rows x tcols).
    pub a: SubMat,
    /// Reflector scales: element `bid * tau_stride + tau_off + k`.
    pub d_tau: DPtr,
    pub tau_stride: usize,
    pub tau_off: usize,
    /// Layout of the V panel over the block.
    pub lm: LayoutMap,
    pub nb: usize,
    pub tcols: usize,
    pub count: usize,
    /// Ownership tables, built once per launch instead of once per
    /// simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> QrApplyKernel<E> {
    /// Apply the `nb` reflectors stored in `v` (scales at `d_tau`, read
    /// with `tau_stride = nb`, `tau_off = 0`) to the `tcols` columns of
    /// `a`, for `count` problems.
    pub fn new(
        v: SubMat,
        a: SubMat,
        d_tau: DPtr,
        lm: LayoutMap,
        tcols: usize,
        count: usize,
    ) -> Self {
        QrApplyKernel {
            v,
            a,
            d_tau,
            tau_stride: lm.cols,
            tau_off: 0,
            own: OwnTables::new(&lm),
            nb: lm.cols,
            lm,
            tcols,
            count,
            _e: PhantomData,
        }
    }

    /// Shared layout: column buffer (rows), reduction partials
    /// (red_width), staged taus (nb), scalars (2).
    pub fn shared_words(&self) -> usize {
        (self.lm.rows + self.lm.red_width() + self.nb + 2) * E::WORDS
    }
}

impl<E: Elem> BlockKernel for QrApplyKernel<E> {
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

impl<E: Elem> DomainKernel for QrApplyKernel<E> {
    type Elem = E;

    fn body<D: Elem>(&self, blk: &mut BlockCtx) {
        if blk.uniform(|b| b >= self.count) {
            return;
        }
        let lm = self.lm;
        let own = &self.own;
        let lrows = lm.lrows;
        let rows = lm.rows;
        let nb = self.nb;
        let p = lm.p;
        let rw = lm.red_width();
        // Shared slots (element units).
        let s_col = 0;
        let s_part = rows;
        let s_tau = rows + rw;
        let s_tw = rows + rw + nb;

        let mut vregs = TileRegs::<D>::new(p, lm.local_len());
        load_tile(blk, &lm, own, &self.v, &mut vregs);

        // Stage this panel's taus once.
        let (d_tau, tau_off) = (Slab::new(self.d_tau, self.tau_stride), self.tau_off);
        blk.phase_label_with(|| "stage-tau".to_string());
        blk.for_each(|t| {
            if t.tid < nb {
                let tau = D::gload(t, d_tau, tau_off + t.tid);
                D::sstore(t, s_tau + t.tid, tau);
            }
        });
        blk.sync();

        let a = self.a;
        for c in 0..self.tcols {
            // Cooperative load of the trailing column into shared memory.
            blk.phase_label_with(|| "apply: stage".to_string());
            blk.for_each(|t| {
                let mut i = t.tid;
                while i < rows {
                    let v = D::gload(t, a.slab(), a.at(i, c));
                    D::sstore(t, s_col + i, v);
                    i += p;
                }
            });
            blk.sync();

            for k in 0..nb {
                let diag_owner = lm.owner(k, k);
                // Partials of w = vᴴ a over each thread's rows.
                blk.phase_label_with(|| "apply: matvec".to_string());
                blk.for_each(|t| {
                    if !lm.owns_col(t.tid, k) {
                        return;
                    }
                    let col = own.row_base(t.tid, k + 1) + lrows * own.col_base(t.tid, k);
                    let mut acc = D::imm(0.0);
                    for (rr, &i) in own.rows_from(t.tid, k + 1).iter().enumerate() {
                        let v = vregs.get(t, col + rr);
                        let x = D::sload(t, s_col + i);
                        acc = D::conj_fma(t, v, x, acc);
                    }
                    if t.tid == diag_owner {
                        // v_k = 1 implicit.
                        let x = D::sload(t, s_col + k);
                        acc = D::add(t, acc, x);
                    }
                    D::sstore(t, s_part + lm.owner_rank(t.tid), acc);
                });
                blk.sync();

                // Serial reduction and tau multiply by the diagonal owner.
                blk.for_each(|t| {
                    if t.tid != diag_owner {
                        return;
                    }
                    let mut w = D::imm(0.0);
                    for r in 0..rw {
                        let pr = D::sload(t, s_part + r);
                        w = D::add(t, pr, w);
                    }
                    let tau = D::sload(t, s_tau + k);
                    let tch = D::conj(t, tau);
                    let tw = D::mul(t, tch, w);
                    D::sstore(t, s_tw, tw);
                });
                blk.sync();

                // a -= v * tw over the column.
                blk.phase_label_with(|| "apply: update".to_string());
                blk.for_each(|t| {
                    if !lm.owns_col(t.tid, k) {
                        return;
                    }
                    let tw = D::sload(t, s_tw);
                    if t.tid == diag_owner {
                        let x = D::sload(t, s_col + k);
                        let nx = D::sub(t, x, tw);
                        D::sstore(t, s_col + k, nx);
                    }
                    let col = own.row_base(t.tid, k + 1) + lrows * own.col_base(t.tid, k);
                    for (rr, &i) in own.rows_from(t.tid, k + 1).iter().enumerate() {
                        let v = vregs.get(t, col + rr);
                        let x = D::sload(t, s_col + i);
                        let nx = D::fnma(t, v, tw, x);
                        D::sstore(t, s_col + i, nx);
                    }
                });
                blk.sync();
            }

            // Write the updated column back.
            blk.phase_label_with(|| "apply: store".to_string());
            blk.for_each(|t| {
                let mut i = t.tid;
                while i < rows {
                    let v = D::sload(t, s_col + i);
                    D::gstore(t, a.slab(), a.at(i, c), v);
                    i += p;
                }
            });
            blk.sync();
        }
    }
}

//! One-problem-per-block Householder QR (Section V).
//!
//! The matrix (with optionally appended right-hand-side columns) lives in
//! the block's register files in a distributed layout. Each column step:
//! partial column norms -> serial reduction by the diagonal owner -> scale
//! factor (sqrt + divisions on one thread) -> column scaled and published
//! to shared memory -> matrix-vector multiply with per-column serial
//! reductions -> rank-1 update. This is the cost structure of Table VI and
//! the per-panel breakdown of Figure 8.

use crate::elem::{run_in_domain, DomainKernel, Elem, Real, Slab};
use crate::layout::LayoutMap;
use crate::per_block::common::{
    hoist, load_tile, reduce_column, store_tile, OwnTables, SharedMap, SubMat, TileRegs,
};
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr};
use std::marker::PhantomData;

/// How cross-thread reductions are performed.
///
/// The paper: "For the QR factorization we choose to do serial reductions
/// instead of parallel" — a single thread walks the √p partials. The tree
/// variant halves the partials in log2(√p) barrier-separated rounds; it
/// trades fewer dependent loads for more synchronizations, which is why
/// the paper's choice wins at these sizes (see the `ablation_reduction`
/// harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Reduction {
    #[default]
    Serial,
    Tree,
}

/// QR factorization kernel (optionally a full linear solve).
pub struct QrBlockKernel<E: Elem> {
    pub a: SubMat,
    pub lm: LayoutMap,
    /// Number of problems in the batch (blocks beyond it idle).
    pub count: usize,
    /// Trailing columns that are carried (updated) but not factored.
    pub rhs_cols: usize,
    /// Where to store the reflector scales τ (count x n elements).
    pub d_tau: Option<DPtr>,
    /// After factorization, eliminate R against the single right-hand side
    /// (requires `rhs_cols == 1`): the QR linear solver of Figure 12.
    pub back_substitute: bool,
    /// Reduction strategy (Section V-D design choice).
    pub reduction: Reduction,
    /// Ownership tables, hoisted out of `run` so they are built once per
    /// launch instead of once per simulated block.
    own: OwnTables,
    pub _e: PhantomData<E>,
}

impl<E: Elem> QrBlockKernel<E> {
    pub fn new(a: SubMat, lm: LayoutMap, count: usize) -> Self {
        QrBlockKernel {
            a,
            own: OwnTables::new(&lm),
            lm,
            count,
            rhs_cols: 0,
            d_tau: None,
            back_substitute: false,
            reduction: Reduction::Serial,
            _e: PhantomData,
        }
    }

    /// Use barrier-separated tree reductions instead of the paper's serial
    /// ones (the design-choice ablation).
    pub fn with_tree_reduction(mut self) -> Self {
        assert_eq!(
            self.lm.layout,
            crate::layout::Layout::TwoDCyclic,
            "tree reductions are implemented for the 2D layout"
        );
        self.reduction = Reduction::Tree;
        self
    }

    pub fn with_rhs(mut self, rhs_cols: usize) -> Self {
        self.rhs_cols = rhs_cols;
        self
    }

    pub fn with_tau(mut self, d_tau: DPtr) -> Self {
        self.d_tau = Some(d_tau);
        self
    }

    pub fn solving(mut self) -> Self {
        assert!(self.rhs_cols >= 1, "solve needs right-hand-side columns");
        self.back_substitute = true;
        self
    }

    /// Shared-memory words this kernel needs.
    pub fn shared_words(&self) -> usize {
        SharedMap::new(&self.lm).words::<E>()
    }
}

impl<E: Elem> BlockKernel for QrBlockKernel<E> {
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

impl<E: Elem> DomainKernel for QrBlockKernel<E> {
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
        let nfac = cols - self.rhs_cols;
        let kmax = nfac.min(m);
        let tree = self.reduction == Reduction::Tree;

        let mut regs = TileRegs::<D>::new(lm.p, lm.local_len());
        let (mut vv, mut twv) = (Vec::new(), Vec::new());
        load_tile(blk, &lm, own, &self.a, &mut regs);

        for k in 0..kmax {
            let panel = k / lm.rdim + 1;
            let diag_owner = lm.owner(k, k);

            // ---- Form the Householder vector ------------------------------
            blk.phase_label_with(|| format!("panel {panel}: form-hh"));
            // Partial squared norms of column k below the diagonal, plus the
            // diagonal element published for the reducer.
            blk.for_each(|t| {
                if !lm.owns_col(t.tid, k) {
                    return;
                }
                let col = lrows * own.col_base(t.tid, k);
                let r0 = own.row_base(t.tid, k + 1);
                let mut acc = D::Re::imm(0.0);
                for rr in 0..own.rows_from(t.tid, k + 1).len() {
                    let a = regs.get(t, col + r0 + rr);
                    let a2 = D::abs2(t, a);
                    acc = D::Re::add(t, acc, a2);
                }
                D::sstore(t, sm.part(k, lm.owner_rank(t.tid)), D::from_re(acc));
                if t.tid == diag_owner {
                    let alpha = regs.get(t, col + own.row_base(t.tid, k));
                    D::sstore(t, sm.se(0), alpha);
                }
            });
            blk.sync();

            // Optional tree combine: halve the live partial ranks of
            // column k in log2 rounds, leaving the sum in rank 0.
            if tree {
                let mut width = sm.red_width;
                while width > 1 {
                    let half = width / 2;
                    blk.for_each(|t| {
                        if !lm.owns_col(t.tid, k) {
                            return;
                        }
                        let r = lm.owner_rank(t.tid);
                        if r < half {
                            let a = D::sload(t, sm.part(k, r));
                            let b = D::sload(t, sm.part(k, r + half));
                            let s = D::add(t, a, b);
                            D::sstore(t, sm.part(k, r), s);
                        }
                    });
                    blk.sync();
                    width = half;
                }
            }

            // The diagonal owner reduces, forms beta / tau / inv and keeps
            // beta as the new R(k,k).
            let d_tau = self.d_tau.map(|dt| Slab::new(dt, kmax));
            blk.for_each(|t| {
                if t.tid != diag_owner {
                    return;
                }
                let x2e = if tree {
                    D::sload(t, sm.part(k, 0))
                } else {
                    reduce_column::<D>(t, &sm, k)
                };
                let x2 = x2e.re();
                let alpha = D::sload(t, sm.se(0));
                let a2 = D::abs2(t, alpha);
                let n2 = D::Re::add(t, x2, a2);
                if D::Re::is_zero(t, n2) {
                    // Degenerate column: no reflector.
                    D::sstore(t, sm.se(1), D::imm(0.0));
                    D::sstore(t, sm.se(2), D::imm(0.0));
                    if let Some(dt) = d_tau {
                        D::gstore(t, dt, k, D::imm(0.0));
                    }
                    return;
                }
                let anorm = D::Re::sqrt(t, n2);
                // beta = -sign(Re alpha) * ||x|| (one comparison).
                let zero = D::Re::imm(0.0);
                let beta = D::Re::neg_if_gt(t, anorm, alpha.re(), zero);
                let beta_e = D::from_re(beta);
                // tau = (beta - alpha) / beta
                let num = D::sub(t, beta_e, alpha);
                let binv = D::recip(t, beta_e);
                let tau = D::mul(t, num, binv);
                // inv = 1 / (alpha - beta), used to normalise v.
                let den = D::sub(t, alpha, beta_e);
                let inv = D::recip(t, den);
                D::sstore(t, sm.se(1), tau);
                D::sstore(t, sm.se(2), inv);
                regs.set(t, lm.local_index(k, k), beta_e);
                if let Some(dt) = d_tau {
                    D::gstore(t, dt, k, tau);
                }
            });
            blk.sync();

            // Scale the column into the reflector and publish it (the
            // paper's Listing 6 shape), with an implicit v_k = 1.
            blk.for_each(|t| {
                if t.tid == diag_owner {
                    D::sstore(t, sm.sv(k), D::imm(1.0));
                }
                if !lm.owns_col(t.tid, k) {
                    return;
                }
                let rows = own.rows_from(t.tid, k + 1);
                if rows.is_empty() {
                    return;
                }
                let inv = D::sload(t, sm.se(2));
                let col = own.row_base(t.tid, k + 1) + lrows * own.col_base(t.tid, k);
                for (rr, &i) in rows.iter().enumerate() {
                    let a = regs.get(t, col + rr);
                    let v = D::mul(t, a, inv);
                    regs.set(t, col + rr, v);
                    D::sstore(t, sm.sv(i), v);
                }
            });
            blk.sync();

            // ---- w = vᴴ A for the trailing columns ------------------------
            blk.phase_label_with(|| format!("panel {panel}: matvec"));
            blk.for_each(|t| {
                let tcols = own.cols_from(t.tid, k + 1);
                if tcols.is_empty() {
                    return;
                }
                let trows = own.rows_from(t.tid, k);
                let rank = lm.owner_rank(t.tid);
                // Hoist the reflector entries for this thread's rows.
                hoist(t, &mut vv, trows.iter().map(|&i| sm.sv(i)));
                let r0 = own.row_base(t.tid, k);
                let c0 = own.col_base(t.tid, k + 1);
                for (cc, &j) in tcols.iter().enumerate() {
                    let col = r0 + lrows * (c0 + cc);
                    let mut acc = D::imm(0.0);
                    for (rr, &vi) in vv.iter().enumerate() {
                        let a = regs.get(t, col + rr);
                        acc = D::conj_fma(t, vi, a, acc);
                    }
                    D::sstore(t, sm.part(j, rank), acc);
                }
            });
            blk.sync();

            // Tree combine of every trailing column's partials.
            if tree {
                let mut width = sm.red_width;
                while width > 1 {
                    let half = width / 2;
                    blk.for_each(|t| {
                        let r = lm.owner_rank(t.tid);
                        if r >= half {
                            return;
                        }
                        for &j in own.cols_from(t.tid, k + 1) {
                            let a = D::sload(t, sm.part(j, r));
                            let b = D::sload(t, sm.part(j, r + half));
                            let s = D::add(t, a, b);
                            D::sstore(t, sm.part(j, r), s);
                        }
                    });
                    blk.sync();
                    width = half;
                }
            }

            // Per-column serial reductions, spread round-robin over ALL
            // threads (the paper: "we assume that there are at least as
            // many threads as columns so the total cost will be the
            // cost of one reduction"). The partials live in shared memory,
            // so any thread can reduce any column. Under tree reduction
            // only the finishing tau-multiply remains.
            let p_threads = lm.p;
            blk.for_each(|t| {
                let mut j = k + 1 + t.tid;
                if j > cols {
                    return;
                }
                let tau = D::sload(t, sm.se(1));
                let tch = D::conj(t, tau);
                while j < cols {
                    let w = if tree {
                        D::sload(t, sm.part(j, 0))
                    } else {
                        reduce_column::<D>(t, &sm, j)
                    };
                    let tw = D::mul(t, tch, w);
                    D::sstore(t, sm.sr(j), tw);
                    j += p_threads;
                }
            });
            blk.sync();

            // ---- Rank-1 update: A -= v (tau w)ᵀ ---------------------------
            blk.phase_label_with(|| format!("panel {panel}: rank-1"));
            blk.for_each(|t| {
                let tcols = own.cols_from(t.tid, k + 1);
                let trows = own.rows_from(t.tid, k);
                if tcols.is_empty() || trows.is_empty() {
                    return;
                }
                hoist(t, &mut vv, trows.iter().map(|&i| sm.sv(i)));
                hoist(t, &mut twv, tcols.iter().map(|&j| sm.sr(j)));
                let r0 = own.row_base(t.tid, k);
                let c0 = own.col_base(t.tid, k + 1);
                for (cc, &twj) in twv.iter().enumerate() {
                    let col = r0 + lrows * (c0 + cc);
                    for (rr, &vi) in vv.iter().enumerate() {
                        let a = regs.get(t, col + rr);
                        let na = D::fnma(t, vi, twj, a);
                        regs.set(t, col + rr, na);
                    }
                }
            });
            blk.sync();
        }

        // ---- Optional back substitution (solve R X = Qᴴ B for every
        // right-hand-side column) ------------------------------------------
        if self.back_substitute {
            for rc in nfac..cols {
                for j in (0..nfac).rev() {
                    blk.phase_label_with(|| "back-substitute".to_string());
                    let rjj_owner = lm.owner(j, j);
                    let xj_owner = lm.owner(j, rc);
                    // Publish R(j,j).
                    blk.for_each(|t| {
                        if t.tid == rjj_owner {
                            let r = regs.get(t, lm.local_index(j, j));
                            D::sstore(t, sm.se(0), r);
                        }
                    });
                    blk.sync();
                    // x_j = y_j / R(j,j), published for the column owners.
                    blk.for_each(|t| {
                        if t.tid == xj_owner {
                            let rjj = D::sload(t, sm.se(0));
                            let y = regs.get(t, lm.local_index(j, rc));
                            let inv = D::recip(t, rjj);
                            let x = D::mul(t, y, inv);
                            regs.set(t, lm.local_index(j, rc), x);
                            D::sstore(t, sm.se(3), x);
                        }
                    });
                    blk.sync();
                    // Column-j owners publish R(i,j) * x_j for i < j.
                    blk.for_each(|t| {
                        if !lm.owns_col(t.tid, j) {
                            return;
                        }
                        let rows = own.rows_from(t.tid, 0);
                        let rows = &rows[..rows.partition_point(|&i| i < j)];
                        if rows.is_empty() {
                            return;
                        }
                        let xj = D::sload(t, sm.se(3));
                        let col = lrows * own.col_base(t.tid, j);
                        for (rr, &i) in rows.iter().enumerate() {
                            let r = regs.get(t, col + rr);
                            let c = D::mul(t, r, xj);
                            D::sstore(t, sm.sv(i), c);
                        }
                    });
                    blk.sync();
                    // Right-hand-side owners subtract the contributions.
                    blk.for_each(|t| {
                        if !lm.owns_col(t.tid, rc) {
                            return;
                        }
                        let rows = own.rows_from(t.tid, 0);
                        let col = lrows * own.col_base(t.tid, rc);
                        for (rr, &i) in rows.iter().take_while(|&&i| i < j).enumerate() {
                            let c = D::sload(t, sm.sv(i));
                            let y = regs.get(t, col + rr);
                            let ny = D::sub(t, y, c);
                            regs.set(t, col + rr, ny);
                        }
                    });
                    blk.sync();
                }
            }
        }

        store_tile(blk, &lm, own, &self.a, &regs);
    }
}

//! TSQR — communication-avoiding tall-skinny QR (extension).
//!
//! The paper's tiled path (Section VII) factors a tall matrix
//! *sequentially*, panel by panel, inside one block. Its own reference
//! [6] (Ballard, Demmel, Holtz, Schwartz — "Minimizing communication in
//! linear algebra") points at the alternative implemented here: split the
//! matrix into row blocks, factor them **independently** (each a
//! register-resident per-block QR — more blocks in flight, better chip
//! utilisation when the batch is small), then combine the R factors
//! pairwise in a reduction tree. Right-hand-side columns are carried
//! through every stage, so `R` and `Qᴴb` come out together and a least-
//! squares solve only needs the final back substitution.
//!
//! Q is left implicit (the reflector tree is not materialised) — exactly
//! what the radar pipeline needs, which only consumes `R` and `Qᴴb`.

use crate::api::RunOpts;
use crate::elem::{Elem, Slab};
use crate::layout::{Layout, LayoutMap};
use crate::per_block::{QrBlockKernel, SubMat};
use crate::tiled::MultiLaunch;
use regla_gpu_sim::{BlockCtx, BlockKernel, DPtr, GlobalMemory, Gpu, LaunchConfig, LaunchError};
use std::marker::PhantomData;

/// Gather the top `n x cols` triangles of two factored row blocks into a
/// stacked `2n x cols` combine buffer (one pair per thread block).
struct GatherPairs<E: Elem> {
    src: DPtr,
    dst: DPtr,
    /// (row0 of block, rows of block) for each source block of one problem.
    src_blocks: Vec<(usize, usize)>,
    /// Leading dimension / problem stride of the source (elements).
    src_lda: usize,
    src_stride: usize,
    n: usize,
    cols: usize,
    pairs: usize,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem> BlockKernel for GatherPairs<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let bid = blk.block_id;
        if bid >= self.count * self.pairs {
            return;
        }
        let (p, q) = (bid / self.pairs, bid % self.pairs);
        let n = self.n;
        let cols = self.cols;
        let nthreads = blk.num_threads();
        blk.phase_label("tsqr: gather");
        // Block `p * pairs + q` fills its own stacked pair; its sources sit
        // in problem `p`, addressed absolutely.
        let src = Slab::new(self.src, 0);
        let dst = Slab::new(self.dst, 2 * n * cols);
        let (src_lda, src_stride) = (self.src_lda, self.src_stride);
        let blocks = &self.src_blocks;
        blk.for_each(|t| {
            for which in 0..2 {
                let bi = 2 * q + which;
                if bi >= blocks.len() {
                    // Odd block count: pad the lower half with zeros.
                    let mut e = t.tid;
                    while e < n * cols {
                        let (i, j) = (e % n, e / n);
                        let di = j * 2 * n + which * n + i;
                        E::gstore(t, dst, di, E::imm(0.0));
                        e += nthreads;
                    }
                    continue;
                }
                let (row0, _rows) = blocks[bi];
                // Copy the upper-trapezoidal R part (i <= j, plus the
                // carried rhs columns in full height n).
                let mut e = t.tid;
                while e < n * cols {
                    let (i, j) = (e % n, e / n);
                    let si = p * src_stride + j * src_lda + row0 + i;
                    let di = j * 2 * n + which * n + i;
                    if i <= j {
                        let v = E::gload(t, src, si);
                        E::gstore(t, dst, di, v);
                    } else {
                        E::gstore(t, dst, di, E::imm(0.0));
                    }
                    e += nthreads;
                }
            }
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn qr_stage<E: Elem>(
    gpu: &Gpu,
    gmem: &mut GlobalMemory,
    view: SubMat,
    rows: usize,
    nfac: usize,
    rhs: usize,
    count: usize,
    opts: &RunOpts,
    agg: &mut MultiLaunch,
) -> Result<(), LaunchError> {
    let plan = regla_model::block_plan(rows, nfac, rhs, E::WORDS);
    let lm = LayoutMap::new(Layout::TwoDCyclic, plan.threads, rows, nfac + rhs);
    let kern = QrBlockKernel::<E>::new(view, lm, count).with_rhs(rhs);
    let lc = opts
        .apply_observability(
            LaunchConfig::new(count, lm.p)
                .regs(lm.local_len() * E::WORDS + 14)
                .shared_words(kern.shared_words()),
        )
        .name(format!("tsqr factor {rows}x{}", nfac + rhs));
    agg.push(gpu.launch(&kern, &lc, gmem)?);
    Ok(())
}

/// TSQR of a device batch at `a` (`m x (n + rhs)` per problem): on return,
/// the returned pointer holds `count` matrices of `n x (n + rhs)` whose
/// upper triangle is R and whose trailing columns are `Qᴴ b`.
///
/// Every stage launch applies the one observability config of `opts`;
/// the first stage factors row blocks of `2 * (n + rhs)` rows, and at
/// least `n`.
#[allow(clippy::too_many_arguments)]
pub fn tsqr<E: Elem>(
    gpu: &Gpu,
    gmem: &mut GlobalMemory,
    a: SubMat,
    m: usize,
    n: usize,
    rhs: usize,
    count: usize,
    opts: &RunOpts,
) -> Result<(DPtr, MultiLaunch), LaunchError> {
    assert!(m >= n, "TSQR needs a tall matrix");
    let cols = n + rhs;
    let mut agg = MultiLaunch::default();

    // ---- Stage 0: independent QR of each row block, in place -----------
    let h0 = (2 * cols).max(n);
    let nblocks0 = m.div_ceil(h0).max(1);
    let mut row_blocks: Vec<(usize, usize)> = (0..nblocks0)
        .map(|b| {
            let r0 = b * h0;
            (r0, h0.min(m - r0))
        })
        .collect();
    // A short last block (< n rows) is merged into its predecessor.
    if let Some(&(r0, rows)) = row_blocks.last() {
        if rows < n && row_blocks.len() > 1 {
            row_blocks.pop();
            let (pr0, prows) = *row_blocks.last().unwrap();
            *row_blocks.last_mut().unwrap() = (pr0, prows + (r0 + rows) - (pr0 + prows));
        }
    }
    for &(r0, rows) in &row_blocks {
        qr_stage::<E>(gpu, gmem, a.offset(r0, 0), rows, n, rhs, count, opts, &mut agg)?;
    }

    // ---- Combine stages: pairwise QR of stacked R factors --------------
    //
    // A "block origin" below is a flat element offset added to the column
    // address (`p*stride + j*lda + origin + i`): for stage 0 it is the row
    // offset of the block; for combined stages it is `q * 2n * cols`, the
    // start of pair q's contiguous 2n x cols result.
    let mut src = a;
    let mut src_blocks = row_blocks;
    while src_blocks.len() > 1 {
        let pairs = src_blocks.len().div_ceil(2);
        let stacked = gmem.alloc(count * pairs * 2 * n * cols * E::WORDS);
        let gather = GatherPairs::<E> {
            src: src.ptr,
            dst: stacked,
            src_blocks: src_blocks.clone(),
            src_lda: src.lda,
            src_stride: src.stride,
            n,
            cols,
            pairs,
            count,
            _e: PhantomData,
        };
        let lc = opts
            .apply_observability(LaunchConfig::new(count * pairs, 64).regs(16).shared_words(0))
            .name(format!("tsqr gather {pairs} pairs"));
        agg.push(gpu.launch(&gather, &lc, gmem)?);

        // Factor every stacked pair: count*pairs problems of 2n x cols.
        let view = SubMat::whole(stacked, 2 * n, cols);
        qr_stage::<E>(gpu, gmem, view, 2 * n, n, rhs, count * pairs, opts, &mut agg)?;

        src = SubMat {
            ptr: stacked,
            lda: 2 * n,
            row0: 0,
            col0: 0,
            stride: pairs * 2 * n * cols,
        };
        src_blocks = (0..pairs).map(|q| (q * 2 * n * cols, 2 * n)).collect();
    }

    // Normalise the surviving R|Qᴴb into a compact n x cols buffer.
    let scratch = gmem.alloc(count * 2 * n * cols * E::WORDS);
    let gather = GatherPairs::<E> {
        src: src.ptr,
        dst: scratch,
        src_blocks: vec![src_blocks[0]],
        src_lda: src.lda,
        src_stride: src.stride,
        n,
        cols,
        pairs: 1,
        count,
        _e: PhantomData,
    };
    let lc = opts
        .apply_observability(LaunchConfig::new(count, 64).regs(16).shared_words(0))
        .name("tsqr compact");
    agg.push(gpu.launch(&gather, &lc, gmem)?);
    let out = gmem.alloc(count * n * cols * E::WORDS);
    let compact = CompactTop::<E> {
        src: scratch,
        dst: out,
        n,
        cols,
        count,
        _e: PhantomData,
    };
    agg.push(gpu.launch(&compact, &lc, gmem)?);
    Ok((out, agg))
}

/// Copy the top `n x cols` of each `2n x cols` scratch problem to `dst`.
struct CompactTop<E: Elem> {
    src: DPtr,
    dst: DPtr,
    n: usize,
    cols: usize,
    count: usize,
    _e: PhantomData<E>,
}

impl<E: Elem> BlockKernel for CompactTop<E> {
    fn run(&self, blk: &mut BlockCtx) {
        let p = blk.block_id;
        if p >= self.count {
            return;
        }
        let (n, cols) = (self.n, self.cols);
        let nthreads = blk.num_threads();
        let src = Slab::new(self.src, 2 * n * cols);
        let dst = Slab::new(self.dst, n * cols);
        blk.phase_label("tsqr: compact");
        blk.for_each(|t| {
            let mut e = t.tid;
            while e < n * cols {
                let (i, j) = (e % n, e / n);
                let v = E::gload(t, src, j * 2 * n + i);
                E::gstore(t, dst, j * n + i, v);
                e += nthreads;
            }
        });
    }
}

//! Shared machinery for the one-problem-per-block kernels.

use crate::elem::{Elem, Slab};
use crate::layout::LayoutMap;
use regla_gpu_sim::{BlockCtx, DPtr, ThreadCtx};

/// A (sub)matrix view into a device batch: problem `b`'s element (i, j)
/// lives at `b*stride + (col0 + j)*lda + row0 + i` (element units).
#[derive(Clone, Copy, Debug)]
pub struct SubMat {
    pub ptr: DPtr,
    /// Leading dimension of the stored matrix, in elements.
    pub lda: usize,
    pub row0: usize,
    pub col0: usize,
    /// Elements between consecutive problems.
    pub stride: usize,
}

impl SubMat {
    /// View of whole `rows x cols` matrices stored contiguously.
    pub fn whole(ptr: DPtr, rows: usize, cols: usize) -> Self {
        SubMat {
            ptr,
            lda: rows,
            row0: 0,
            col0: 0,
            stride: rows * cols,
        }
    }

    /// Shift the view to a submatrix at (row0 + r, col0 + c).
    pub fn offset(self, r: usize, c: usize) -> Self {
        SubMat {
            row0: self.row0 + r,
            col0: self.col0 + c,
            ..self
        }
    }

    /// Element index of (i, j) in problem `b`.
    #[inline]
    pub fn index(&self, b: usize, i: usize, j: usize) -> usize {
        b * self.stride + self.at(i, j)
    }

    /// Offset of (i, j) within one problem.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> usize {
        (self.col0 + j) * self.lda + self.row0 + i
    }

    /// The per-block slab of a one-problem-per-block launch: block `b`
    /// holds problem `b`.
    pub fn slab(&self) -> Slab {
        Slab::new(self.ptr, self.stride)
    }
}

/// Shared-memory slot map for the factorization kernels (element units):
/// a column vector, a row vector, four scalars, and per-column reduction
/// partials of width `red_width`.
#[derive(Clone, Copy, Debug)]
pub struct SharedMap {
    pub m: usize,
    pub cols: usize,
    pub red_width: usize,
}

impl SharedMap {
    pub fn new(lm: &LayoutMap) -> Self {
        SharedMap {
            m: lm.rows,
            cols: lm.cols,
            red_width: lm.red_width(),
        }
    }

    /// Column-vector slot (v of the Householder step / l of LU).
    #[inline]
    pub fn sv(&self, i: usize) -> usize {
        i
    }

    /// Row-vector slot (u of LU / τ·w of QR).
    #[inline]
    pub fn sr(&self, j: usize) -> usize {
        self.m + j
    }

    /// Scalar slots: 0 = alpha/pivot, 1 = tau, 2 = inverse/scale, 3 = xj.
    #[inline]
    pub fn se(&self, k: usize) -> usize {
        debug_assert!(k < 4);
        self.m + self.cols + k
    }

    /// Reduction partial for column `j`, owner rank `r`.
    #[inline]
    pub fn part(&self, j: usize, r: usize) -> usize {
        debug_assert!(r < self.red_width);
        self.m + self.cols + 4 + j * self.red_width + r
    }

    /// Total shared elements needed.
    pub fn elems(&self) -> usize {
        self.m + self.cols + 4 + self.cols * self.red_width
    }

    /// Total shared 32-bit words for element type `E`.
    pub fn words<E: Elem>(&self) -> usize {
        self.elems() * E::WORDS
    }
}

/// Per-thread ownership tables, precomputed once per launch to keep the
/// functional simulation fast. Suffix slices stand in for the loop bounds
/// a CUDA kernel would resolve at compile time.
pub struct OwnTables {
    /// Sorted owned global rows, per thread.
    pub rows: Vec<Vec<usize>>,
    /// Sorted owned global columns, per thread.
    pub cols: Vec<Vec<usize>>,
    /// Matrix rows and columns.
    m: usize,
    n: usize,
    /// `row_start[t * (m + 1) + r0]`: position of thread `t`'s first owned
    /// row >= r0, for every `r0` in `0..=m`.
    row_start: Vec<usize>,
    /// The same for columns, `c0` in `0..=n`.
    col_start: Vec<usize>,
}

/// For every bound `b` in `0..=n`, the number of entries of the sorted
/// list `v` below `b`.
fn starts(v: &[usize], n: usize) -> impl Iterator<Item = usize> + '_ {
    (0..=n).map(|b| v.partition_point(|&x| x < b))
}

impl OwnTables {
    pub fn new(lm: &LayoutMap) -> Self {
        let rows: Vec<Vec<usize>> = (0..lm.p).map(|t| lm.owned_rows(t, 0)).collect();
        let cols: Vec<Vec<usize>> = (0..lm.p).map(|t| lm.owned_cols(t, 0, lm.cols)).collect();
        OwnTables {
            row_start: rows.iter().flat_map(|v| starts(v, lm.rows)).collect(),
            col_start: cols.iter().flat_map(|v| starts(v, lm.cols)).collect(),
            rows,
            cols,
            m: lm.rows,
            n: lm.cols,
        }
    }

    /// Owned rows >= r0 for thread `t`.
    #[inline]
    pub fn rows_from(&self, t: usize, r0: usize) -> &[usize] {
        &self.rows[t][self.row_base(t, r0)..]
    }

    /// Owned cols >= c0 for thread `t`.
    #[inline]
    pub fn cols_from(&self, t: usize, c0: usize) -> &[usize] {
        &self.cols[t][self.col_base(t, c0)..]
    }

    /// Local row index of the first element of `rows_from(t, r0)`.
    ///
    /// For every shipped layout the w-th entry of a thread's owned-row
    /// list has local row index w (ownership is an arithmetic
    /// progression), so kernels index the register tile as
    /// `(row_base + rr) + lrows * (col_base + cc)` with no divisions;
    /// `tile_index_matches_layout` pins the invariant.
    #[inline]
    pub fn row_base(&self, t: usize, r0: usize) -> usize {
        self.row_start[t * (self.m + 1) + r0.min(self.m)]
    }

    /// Local column index of the first element of `cols_from(t, c0)`.
    #[inline]
    pub fn col_base(&self, t: usize, c0: usize) -> usize {
        self.col_start[t * (self.n + 1) + c0.min(self.n)]
    }
}

/// Every thread's register tile in one allocation.
///
/// One register array per thread was `p` heap allocations per simulated
/// block; batch workloads run tens of thousands of blocks, so the flat
/// array matters. Accessors take the thread context and address the
/// calling thread's tile. In a tracked domain every access is charged to
/// that thread's spill accounting, exactly as a per-thread array would be.
pub struct TileRegs<D: Elem> {
    regs: Vec<D>,
    llen: usize,
}

impl<D: Elem> TileRegs<D> {
    /// Zeroed tiles for `p` threads of `llen` local elements each.
    pub fn new(p: usize, llen: usize) -> Self {
        TileRegs {
            regs: vec![D::imm(0.0); p * llen],
            llen,
        }
    }

    /// Read the calling thread's local element `i`.
    #[inline]
    pub fn get(&self, t: &mut ThreadCtx, i: usize) -> D {
        debug_assert!(i < self.llen);
        D::reg_get(t, &self.regs, t.tid * self.llen + i)
    }

    /// Write the calling thread's local element `i`.
    #[inline]
    pub fn set(&mut self, t: &mut ThreadCtx, i: usize, x: D) {
        debug_assert!(i < self.llen);
        D::reg_set(t, &mut self.regs, t.tid * self.llen + i, x)
    }
}

/// Load each thread's 2D-cyclic (or 1D) register tile from global memory
/// (the paper's Listing 4). Tiles are indexed without divisions: the
/// position in the owned lists is the local index (see
/// `OwnTables::row_base`).
pub fn load_tile<D: Elem>(
    blk: &mut BlockCtx,
    lm: &LayoutMap,
    own: &OwnTables,
    a: &SubMat,
    regs: &mut TileRegs<D>,
) {
    blk.phase_label("load");
    let lrows = lm.lrows;
    let slab = a.slab();
    blk.for_each(|t| {
        let cols = own.cols_from(t.tid, 0);
        for (lr, &i) in own.rows_from(t.tid, 0).iter().enumerate() {
            for (lc, &j) in cols.iter().enumerate() {
                let v = D::gload(t, slab, a.at(i, j));
                regs.set(t, lr + lrows * lc, v);
            }
        }
    });
    blk.sync();
}

/// Store the register tiles back to global memory.
pub fn store_tile<D: Elem>(
    blk: &mut BlockCtx,
    lm: &LayoutMap,
    own: &OwnTables,
    a: &SubMat,
    regs: &TileRegs<D>,
) {
    blk.phase_label("store");
    let lrows = lm.lrows;
    let slab = a.slab();
    blk.for_each(|t| {
        let cols = own.cols_from(t.tid, 0);
        for (lr, &i) in own.rows_from(t.tid, 0).iter().enumerate() {
            for (lc, &j) in cols.iter().enumerate() {
                let v = regs.get(t, lr + lrows * lc);
                D::gstore(t, slab, a.at(i, j), v);
            }
        }
    });
}

/// Load the shared slots `slots` into `buf` (cleared first), in order:
/// a thread hoisting a shared vector into registers before a loop nest.
/// The buffer is per-block scratch, reused by every thread and step.
pub fn hoist<D: Elem>(t: &mut ThreadCtx, buf: &mut Vec<D>, slots: impl Iterator<Item = usize>) {
    buf.clear();
    buf.extend(slots.map(|s| D::sload(t, s)));
}

/// Record `col + 1` in the block's problem's failure flag (one word per
/// block at `f`) unless an earlier column already failed there (first
/// failure wins; 0 = solved).
pub fn flag_first_failure<D: Elem>(t: &mut ThreadCtx, f: DPtr, col: usize) {
    let flag = Slab::new(f, 1);
    let cur = D::Re::gload(t, flag, 0);
    if D::Re::is_zero(t, cur) {
        D::Re::gstore(t, flag, 0, D::Re::imm((col + 1) as f32));
    }
}

/// Serial reduction of the partials for column `j` (ranks `0..red_width`),
/// performed by the calling thread; returns the sum.
pub fn reduce_column<D: Elem>(t: &mut ThreadCtx, sm: &SharedMap, j: usize) -> D {
    let mut acc = D::imm(0.0);
    for r in 0..sm.red_width {
        let p = D::sload(t, sm.part(j, r));
        acc = D::add(t, p, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use regla_gpu_sim::Rv;

    #[test]
    fn submat_indexing_walks_problems_and_offsets() {
        let s = SubMat::whole(regla_gpu_sim::DPtr::new(0), 8, 4).offset(2, 1);
        // problem 1, local (0,0) -> 1*32 + 1*8 + 2 = 42
        assert_eq!(s.index(1, 0, 0), 42);
        assert_eq!(s.index(0, 3, 2), 3 * 8 + 2 + 3);
    }

    #[test]
    fn shared_map_slots_do_not_overlap() {
        let lm = LayoutMap::new(Layout::TwoDCyclic, 64, 24, 25);
        let sm = SharedMap::new(&lm);
        let mut seen = std::collections::HashSet::new();
        for i in 0..sm.m {
            assert!(seen.insert(sm.sv(i)));
        }
        for j in 0..sm.cols {
            assert!(seen.insert(sm.sr(j)));
        }
        for k in 0..4 {
            assert!(seen.insert(sm.se(k)));
        }
        for j in 0..sm.cols {
            for r in 0..sm.red_width {
                assert!(seen.insert(sm.part(j, r)));
            }
        }
        assert_eq!(seen.len(), sm.elems());
        assert_eq!(sm.words::<Rv>(), sm.elems());
    }

    #[test]
    fn tile_index_matches_layout() {
        // Kernels index register tiles by position in the owned lists;
        // that must agree with `LayoutMap::local_index` for every layout.
        for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
            let lm = LayoutMap::new(layout, 16, 12, 13);
            let own = OwnTables::new(&lm);
            for t in 0..lm.p {
                for (lr, &i) in own.rows_from(t, 0).iter().enumerate() {
                    for (lc, &j) in own.cols_from(t, 0).iter().enumerate() {
                        assert_eq!(lr + lm.lrows * lc, lm.local_index(i, j));
                    }
                }
                assert_eq!(
                    own.row_base(t, 5),
                    own.rows[t].len() - own.rows_from(t, 5).len()
                );
                assert_eq!(
                    own.col_base(t, 7),
                    own.cols[t].len() - own.cols_from(t, 7).len()
                );
            }
        }
    }

    #[test]
    fn own_tables_suffixes_match_layout() {
        let lm = LayoutMap::new(Layout::TwoDCyclic, 16, 10, 10);
        let own = OwnTables::new(&lm);
        for t in 0..16 {
            assert_eq!(own.rows_from(t, 5), &lm.owned_rows(t, 5)[..]);
            assert_eq!(own.cols_from(t, 7), &lm.owned_cols(t, 7, 10)[..]);
        }
    }
}

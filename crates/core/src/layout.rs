//! Distributed data layouts for the one-problem-per-block approach
//! (Section V-A, Figure 6).
//!
//! A thread block is "essentially a distributed system": each thread's
//! register file is private memory, so the matrix must be partitioned.
//! The paper compares 1D row-cyclic, 1D column-cyclic and 2D cyclic
//! layouts (Figure 7) and adopts 2D cyclic. The kernels in `per_block`
//! are generic over a [`LayoutMap`], so the comparison falls out of one
//! kernel source.

/// The three classic distributed layouts of Figure 6, defined in
/// `regla-model` (so a dispatch [`regla_model::Plan`] is self-contained)
/// and re-exported here where the kernels consume it.
pub use regla_model::Layout;

/// Ownership and local-index map for one `rows x cols` matrix distributed
/// over `p` threads.
#[derive(Clone, Copy, Debug)]
pub struct LayoutMap {
    pub layout: Layout,
    pub p: usize,
    /// √p for the 2D layout (p must be a perfect square there).
    pub rdim: usize,
    pub rows: usize,
    pub cols: usize,
    /// Per-thread local tile dimensions (upper bounds).
    pub lrows: usize,
    pub lcols: usize,
}

impl LayoutMap {
    pub fn new(layout: Layout, p: usize, rows: usize, cols: usize) -> Self {
        let rdim = (p as f64).sqrt().round() as usize;
        match layout {
            Layout::TwoDCyclic => {
                assert_eq!(rdim * rdim, p, "2D cyclic needs a square thread count");
                LayoutMap {
                    layout,
                    p,
                    rdim,
                    rows,
                    cols,
                    lrows: rows.div_ceil(rdim),
                    lcols: cols.div_ceil(rdim),
                }
            }
            Layout::RowCyclic => LayoutMap {
                layout,
                p,
                rdim,
                rows,
                cols,
                lrows: rows.div_ceil(p),
                lcols: cols,
            },
            Layout::ColCyclic => LayoutMap {
                layout,
                p,
                rdim,
                rows,
                cols,
                lrows: rows,
                lcols: cols.div_ceil(p),
            },
        }
    }

    /// Local register-tile length in elements.
    pub fn local_len(&self) -> usize {
        self.lrows * self.lcols
    }

    /// The thread owning element (i, j).
    pub fn owner(&self, i: usize, j: usize) -> usize {
        match self.layout {
            Layout::TwoDCyclic => (i % self.rdim) + self.rdim * (j % self.rdim),
            Layout::RowCyclic => i % self.p,
            Layout::ColCyclic => j % self.p,
        }
    }

    /// Whether thread `t` owns element (i, j).
    pub fn owns(&self, t: usize, i: usize, j: usize) -> bool {
        self.owner(i, j) == t
    }

    /// Local index of element (i, j) within its owner's register tile.
    pub fn local_index(&self, i: usize, j: usize) -> usize {
        match self.layout {
            Layout::TwoDCyclic => (i / self.rdim) + self.lrows * (j / self.rdim),
            Layout::RowCyclic => (i / self.p) + self.lrows * j,
            Layout::ColCyclic => i + self.lrows * (j / self.p),
        }
    }

    /// Iterate the global (row, col, local_index) triples owned by `t`
    /// within the rectangle `[r0, rows) x [c0, c1)`.
    pub fn owned_in(
        &self,
        t: usize,
        r0: usize,
        c0: usize,
        c1: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let rows = self.rows;
        let lm = *self;
        (c0..c1.min(self.cols)).flat_map(move |j| {
            (r0..rows).filter_map(move |i| {
                if lm.owns(t, i, j) {
                    Some((i, j, lm.local_index(i, j)))
                } else {
                    None
                }
            })
        })
    }

    /// Global row indices (>= r0) in which thread `t` owns elements.
    /// Ownership is a cross product: thread `t` owns exactly
    /// `owned_rows x owned_cols` in every layout.
    pub fn owned_rows(&self, t: usize, r0: usize) -> Vec<usize> {
        match self.layout {
            Layout::TwoDCyclic => {
                let tr = t % self.rdim;
                (r0..self.rows).filter(|i| i % self.rdim == tr).collect()
            }
            Layout::RowCyclic => (r0..self.rows).filter(|i| i % self.p == t).collect(),
            Layout::ColCyclic => (r0..self.rows).collect(),
        }
    }

    /// Global column indices in `[c0, c1)` in which thread `t` owns elements.
    pub fn owned_cols(&self, t: usize, c0: usize, c1: usize) -> Vec<usize> {
        let c1 = c1.min(self.cols);
        match self.layout {
            Layout::TwoDCyclic => {
                let tc = t / self.rdim;
                (c0..c1).filter(|j| j % self.rdim == tc).collect()
            }
            Layout::RowCyclic => (c0..c1).collect(),
            Layout::ColCyclic => (c0..c1).filter(|j| j % self.p == t).collect(),
        }
    }

    /// Whether thread `t` owns any element of column `j`.
    pub fn owns_col(&self, t: usize, j: usize) -> bool {
        match self.layout {
            Layout::TwoDCyclic => t / self.rdim == j % self.rdim,
            Layout::RowCyclic => true,
            Layout::ColCyclic => j % self.p == t,
        }
    }

    /// Number of reduction slots per column (how many threads can
    /// contribute a partial to a column reduction).
    pub fn red_width(&self) -> usize {
        match self.layout {
            Layout::TwoDCyclic => self.rdim,
            Layout::RowCyclic => self.p,
            Layout::ColCyclic => 1,
        }
    }

    /// Rank of thread `t` within any column owner set (0..red_width).
    pub fn owner_rank(&self, t: usize) -> usize {
        match self.layout {
            Layout::TwoDCyclic => t % self.rdim,
            Layout::RowCyclic => t,
            Layout::ColCyclic => 0,
        }
    }

    /// The distinct threads owning elements of column `j` at rows >= r0.
    pub fn col_owners(&self, j: usize, r0: usize) -> Vec<usize> {
        match self.layout {
            Layout::TwoDCyclic => {
                let jc = j % self.rdim;
                (0..self.rdim)
                    .map(|tr| tr + self.rdim * jc)
                    .filter(|_| r0 < self.rows)
                    .collect()
            }
            Layout::RowCyclic => {
                let mut v: Vec<usize> = (r0..self.rows).map(|i| i % self.p).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            Layout::ColCyclic => {
                if r0 < self.rows {
                    vec![j % self.p]
                } else {
                    vec![]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(lm: &LayoutMap) {
        // Every element owned exactly once, with a unique local slot per
        // owner and local indices within bounds.
        let mut slots = std::collections::HashSet::new();
        for i in 0..lm.rows {
            for j in 0..lm.cols {
                let t = lm.owner(i, j);
                assert!(t < lm.p);
                let l = lm.local_index(i, j);
                assert!(l < lm.local_len(), "local {l} >= {}", lm.local_len());
                assert!(slots.insert((t, l)), "slot collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn two_d_cyclic_covers_uniquely() {
        coverage(&LayoutMap::new(Layout::TwoDCyclic, 64, 56, 56));
        coverage(&LayoutMap::new(Layout::TwoDCyclic, 16, 7, 9));
    }

    #[test]
    fn row_and_col_cyclic_cover_uniquely() {
        coverage(&LayoutMap::new(Layout::RowCyclic, 8, 12, 5));
        coverage(&LayoutMap::new(Layout::ColCyclic, 8, 5, 12));
    }

    #[test]
    fn two_d_matches_figure_six() {
        // Figure 6 left: a 4x4 grid of threads 0..16 tiling the matrix.
        let lm = LayoutMap::new(Layout::TwoDCyclic, 16, 8, 8);
        assert_eq!(lm.owner(0, 0), 0);
        assert_eq!(lm.owner(1, 0), 1);
        assert_eq!(lm.owner(0, 1), 4);
        assert_eq!(lm.owner(4, 4), 0); // wraps cyclically
    }

    #[test]
    fn col_owners_shrink_with_layout() {
        let m = 32;
        let td = LayoutMap::new(Layout::TwoDCyclic, 64, m, m);
        let rc = LayoutMap::new(Layout::RowCyclic, 64, m, m);
        let cc = LayoutMap::new(Layout::ColCyclic, 64, m, m);
        // 2D: √p owners; row cyclic: every row's owner; col cyclic: one.
        assert_eq!(td.col_owners(3, 0).len(), 8);
        assert_eq!(rc.col_owners(3, 0).len(), 32);
        assert_eq!(cc.col_owners(3, 0).len(), 1);
    }

    #[test]
    fn owned_iteration_agrees_with_owner() {
        let lm = LayoutMap::new(Layout::TwoDCyclic, 16, 10, 10);
        for t in 0..16 {
            for (i, j, l) in lm.owned_in(t, 0, 0, 10) {
                assert!(lm.owns(t, i, j));
                assert_eq!(l, lm.local_index(i, j));
            }
        }
        let total: usize = (0..16).map(|t| lm.owned_in(t, 0, 0, 10).count()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn ownership_is_a_cross_product() {
        for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
            let lm = LayoutMap::new(layout, 16, 9, 11);
            for t in 0..16 {
                let rows = lm.owned_rows(t, 0);
                let cols = lm.owned_cols(t, 0, 11);
                let direct: Vec<_> = lm.owned_in(t, 0, 0, 11).collect();
                assert_eq!(direct.len(), rows.len() * cols.len(), "{layout:?} t={t}");
                for &i in &rows {
                    for &j in &cols {
                        assert!(lm.owns(t, i, j));
                    }
                }
            }
        }
    }

    #[test]
    fn owner_rank_is_unique_within_column_owners() {
        for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
            let lm = LayoutMap::new(layout, 16, 12, 12);
            for j in 0..12 {
                let owners = lm.col_owners(j, 0);
                let mut ranks: Vec<_> = owners.iter().map(|&t| lm.owner_rank(t)).collect();
                ranks.sort_unstable();
                ranks.dedup();
                assert_eq!(ranks.len(), owners.len(), "{layout:?} col {j}");
                assert!(ranks.iter().all(|&r| r < lm.red_width()));
            }
        }
    }

    #[test]
    fn row_cyclic_column_ops_touch_every_thread() {
        // The load-imbalance story of Section V-A: in a row-cyclic layout a
        // single column spreads over min(p, rows) threads.
        let lm = LayoutMap::new(Layout::RowCyclic, 64, 96, 96);
        assert_eq!(lm.col_owners(0, 0).len(), 64);
        let lm_small = LayoutMap::new(Layout::RowCyclic, 64, 16, 16);
        assert_eq!(lm_small.col_owners(0, 0).len(), 16);
    }
}

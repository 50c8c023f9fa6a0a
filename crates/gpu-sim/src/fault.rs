//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] attached to a `LaunchConfig` selects a set of blocks
//! (seeded PRNG, no wall-clock randomness) and injects one fault into each:
//! a bit flip in a register-file, shared-memory or global-memory word at
//! that block's n-th store, or an abort that silently drops every store
//! the block makes from that point on. Campaigns are bit-reproducible: the
//! same seed over the same grid always faults the same blocks in the same
//! way, and every *applied* fault is recorded in `LaunchStats::faults` —
//! the simulator plays the role of the ECC/machine-check reporting a real
//! device would provide, which is what lets a recovery layer guarantee it
//! saw every injected fault even when a flipped bit still produces a
//! finite (plausible-looking) value.

use std::collections::HashMap;

/// What kind of fault to inject into a chosen block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of a value as it is written to a register array.
    RegisterBitFlip,
    /// Flip one bit of a value as it is stored to block shared memory.
    SharedBitFlip,
    /// Flip one bit of a value as it is stored to global memory.
    GlobalBitFlip,
    /// Kill the block mid-kernel: from the n-th global store on, every
    /// store (global and shared) is silently dropped.
    BlockAbort,
    /// Silent data corruption: flip a *low-order mantissa* bit of the
    /// first well-scaled (|v| >= 0.5) global store at or after the n-th,
    /// so the corrupted value stays finite and plausible. Unlike every
    /// other kind, an applied `SilentFlip` is reported in
    /// `LaunchStats::silent_faults`, not `LaunchStats::faults` — the
    /// simulated ECC/machine-check does *not* see it, which models the
    /// undetected-error regime that algorithm-based verification
    /// (checksum/residual screens) exists to catch.
    SilentFlip,
}

const MIXED_KINDS: [FaultKind; 4] = [
    FaultKind::GlobalBitFlip,
    FaultKind::RegisterBitFlip,
    FaultKind::BlockAbort,
    FaultKind::SharedBitFlip,
];

/// A seeded fault-injection campaign for one launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed; the same seed over the same grid reproduces the exact
    /// same faults.
    pub seed: u64,
    /// Number of distinct blocks to fault (clamped to the grid size).
    pub faults: usize,
    /// Restrict the campaign to one fault kind; `None` mixes all four.
    pub kind: Option<FaultKind>,
}

impl FaultPlan {
    pub fn new(seed: u64, faults: usize) -> Self {
        FaultPlan {
            seed,
            faults,
            kind: None,
        }
    }

    pub fn kind(mut self, kind: FaultKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// The blocks this plan faults on a `grid_blocks`-block launch,
    /// sorted ascending (for tests and campaign bookkeeping).
    pub fn target_blocks(&self, grid_blocks: usize) -> Vec<usize> {
        let mut blocks: Vec<usize> = self.materialize(grid_blocks).into_keys().collect();
        blocks.sort_unstable();
        blocks
    }

    /// Materialise the plan over a concrete grid: a deterministic map from
    /// block id to the fault injected into it.
    pub(crate) fn materialize(&self, grid_blocks: usize) -> FaultMap {
        let mut rng = SplitMix64::new(self.seed);
        let want = self.faults.min(grid_blocks);
        let mut map = FaultMap::with_capacity(want);
        // Distinct-block selection: a seeded partial Fisher-Yates over the
        // block ids, so the choice is deterministic and uniform whatever
        // the want/grid ratio.
        let mut ids: Vec<usize> = (0..grid_blocks).collect();
        for slot in 0..want {
            let j = slot + rng.below((grid_blocks - slot) as u64) as usize;
            ids.swap(slot, j);
            let block = ids[slot];
            let kind = self
                .kind
                .unwrap_or(MIXED_KINDS[(rng.next() % 4) as usize]);
            map.insert(
                block,
                BlockFault {
                    kind,
                    bit: rng.below(32) as u32,
                    // Early stores so even the smallest kernels (a handful
                    // of words per block) still trigger the fault.
                    nth_store: rng.below(24) as u32,
                },
            );
        }
        map
    }
}

/// One fault that was actually applied during a launch, as recorded in
/// `LaunchStats::faults`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    pub block: usize,
    pub kind: FaultKind,
    /// Which bit of the 32-bit word was flipped (meaningless for aborts).
    pub bit: u32,
    /// Which store (per fault-kind counter, within the block) triggered.
    pub nth_store: u32,
}

pub(crate) type FaultMap = HashMap<usize, BlockFault>;

/// The fault armed for one block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockFault {
    pub kind: FaultKind,
    pub bit: u32,
    pub nth_store: u32,
}

/// Per-block-context fault state: armed from the plan when the context
/// (re)binds to a block, fired at most once per block, with every applied
/// fault accumulated for the launch's `LaunchStats::faults`.
#[derive(Default)]
pub(crate) struct FaultState {
    pending: Option<BlockFault>,
    block: usize,
    aborted: bool,
    gstores: u32,
    sstores: u32,
    rstores: u32,
    pub(crate) applied: Vec<FaultRecord>,
}

impl FaultState {
    /// Re-arm for `block` (keeps the accumulated `applied` records).
    pub(crate) fn arm(&mut self, map: Option<&FaultMap>, block: usize) {
        self.pending = map.and_then(|m| m.get(&block).copied());
        self.block = block;
        self.aborted = false;
        self.gstores = 0;
        self.sstores = 0;
        self.rstores = 0;
    }

    /// Whether the plan armed a fault in the current block. An unarmed
    /// block's hooks pass every value through unchanged, so it may replay
    /// in the plain domain.
    pub(crate) fn armed(&self) -> bool {
        self.pending.is_some()
    }

    fn fire(&mut self, f: BlockFault, nth: u32) {
        self.applied.push(FaultRecord {
            block: self.block,
            kind: f.kind,
            bit: f.bit,
            nth_store: nth,
        });
        self.pending = None;
    }

    /// Filter a global store: `None` drops it (aborted block), `Some`
    /// passes the (possibly bit-flipped) value through.
    #[inline]
    pub(crate) fn on_global_store(&mut self, v: f32) -> Option<f32> {
        if self.aborted {
            return None;
        }
        let Some(f) = self.pending else {
            return Some(v);
        };
        let n = self.gstores;
        self.gstores += 1;
        match f.kind {
            FaultKind::GlobalBitFlip if n == f.nth_store => {
                self.fire(f, n);
                Some(f32::from_bits(v.to_bits() ^ (1 << f.bit)))
            }
            // First well-scaled store at or after the trigger point: the
            // |v| >= 0.5 guard keeps the flip finite (mantissa bits of a
            // normal float) and bounds the relative error to [1/8, 1/2],
            // large enough for a checksum screen yet invisible to the
            // finite screen. Bits 21-22 only: lower bits would shrink the
            // relative change below verification tolerances.
            FaultKind::SilentFlip if n >= f.nth_store && v.abs() >= 0.5 => {
                self.fire(f, n);
                Some(f32::from_bits(v.to_bits() ^ (1 << (21 + f.bit % 2))))
            }
            FaultKind::BlockAbort if n == f.nth_store => {
                self.fire(f, n);
                self.aborted = true;
                None
            }
            _ => Some(v),
        }
    }

    /// Filter a shared-memory store (same contract as global stores).
    #[inline]
    pub(crate) fn on_shared_store(&mut self, v: f32) -> Option<f32> {
        if self.aborted {
            return None;
        }
        let Some(f) = self.pending else {
            return Some(v);
        };
        if f.kind == FaultKind::SharedBitFlip {
            let n = self.sstores;
            self.sstores += 1;
            if n == f.nth_store {
                self.fire(f, n);
                return Some(f32::from_bits(v.to_bits() ^ (1 << f.bit)));
            }
        }
        Some(v)
    }

    /// On a register-array store, the bit to flip (if this store faults).
    #[inline]
    pub(crate) fn on_reg_store(&mut self) -> Option<u32> {
        let f = self.pending?;
        if f.kind != FaultKind::RegisterBitFlip {
            return None;
        }
        let n = self.rstores;
        self.rstores += 1;
        if n == f.nth_store {
            self.fire(f, n);
            Some(f.bit)
        } else {
            None
        }
    }
}

/// SplitMix64: tiny, high-quality, seedable — the workspace's standard
/// offline PRNG (no `rand` dependency).
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n >= 1).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_distinct() {
        let p = FaultPlan::new(42, 10);
        let a = p.materialize(100);
        let b = p.materialize(100);
        assert_eq!(a.len(), 10);
        let mut ka: Vec<_> = a.keys().copied().collect();
        let mut kb: Vec<_> = b.keys().copied().collect();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb, "same seed must fault the same blocks");
        for (k, f) in &a {
            let g = b[k];
            assert_eq!((f.bit, f.nth_store), (g.bit, g.nth_store));
        }
    }

    #[test]
    fn plan_clamps_to_grid_and_covers_it() {
        let p = FaultPlan::new(7, 1000);
        let m = p.materialize(8);
        assert_eq!(m.len(), 8);
        assert_eq!(p.target_blocks(8), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, 20).target_blocks(1000);
        let b = FaultPlan::new(2, 20).target_blocks(1000);
        assert_ne!(a, b);
    }

    #[test]
    fn fault_state_fires_once_at_nth_store() {
        let mut map = FaultMap::new();
        map.insert(
            3,
            BlockFault {
                kind: FaultKind::GlobalBitFlip,
                bit: 0,
                nth_store: 2,
            },
        );
        let mut st = FaultState::default();
        st.arm(Some(&map), 3);
        assert_eq!(st.on_global_store(1.0), Some(1.0));
        assert_eq!(st.on_global_store(1.0), Some(1.0));
        // Third store: bit 0 of 1.0f32 flips.
        let flipped = st.on_global_store(1.0).unwrap();
        assert_ne!(flipped, 1.0);
        assert_eq!(flipped.to_bits(), 1.0f32.to_bits() ^ 1);
        // Fired once; subsequent stores are clean.
        assert_eq!(st.on_global_store(2.0), Some(2.0));
        assert_eq!(st.applied.len(), 1);
        assert_eq!(st.applied[0].block, 3);
        // A block without an entry is untouched.
        st.arm(Some(&map), 4);
        assert_eq!(st.on_global_store(5.0), Some(5.0));
        assert_eq!(st.applied.len(), 1);
    }

    #[test]
    fn silent_flip_waits_for_well_scaled_store_and_stays_finite() {
        let mut map = FaultMap::new();
        map.insert(
            5,
            BlockFault {
                kind: FaultKind::SilentFlip,
                bit: 3, // 21 + 3 % 2 = bit 22
                nth_store: 1,
            },
        );
        let mut st = FaultState::default();
        st.arm(Some(&map), 5);
        // Store 0 is before the trigger point; store 1 is too small.
        assert_eq!(st.on_global_store(2.0), Some(2.0));
        assert_eq!(st.on_global_store(1e-3), Some(1e-3));
        // Store 2 is the first well-scaled store at/after nth_store.
        let v = -0.75f32;
        let flipped = st.on_global_store(v).unwrap();
        assert!(flipped.is_finite());
        assert_ne!(flipped, v);
        assert_eq!(flipped.to_bits(), v.to_bits() ^ (1 << 22));
        let rel = ((flipped - v) / v).abs();
        assert!((0.125..=0.5).contains(&rel), "rel change {rel}");
        // Fired once; later stores are clean.
        assert_eq!(st.on_global_store(0.9), Some(0.9));
        assert_eq!(st.applied.len(), 1);
        assert_eq!(st.applied[0].kind, FaultKind::SilentFlip);
    }

    #[test]
    fn abort_drops_all_later_stores() {
        let mut map = FaultMap::new();
        map.insert(
            0,
            BlockFault {
                kind: FaultKind::BlockAbort,
                bit: 0,
                nth_store: 1,
            },
        );
        let mut st = FaultState::default();
        st.arm(Some(&map), 0);
        assert_eq!(st.on_global_store(1.0), Some(1.0));
        assert_eq!(st.on_global_store(1.0), None);
        assert_eq!(st.on_global_store(1.0), None);
        assert_eq!(st.on_shared_store(1.0), None);
        assert_eq!(st.applied.len(), 1);
        // Re-arming for the next block clears the abort.
        st.arm(Some(&map), 7);
        assert_eq!(st.on_global_store(1.0), Some(1.0));
    }
}

//! Cross-launch schedule cache.
//!
//! Tracing block 0 of a launch is the expensive part of the fast path: the
//! scoreboard, bank-conflict and coalescing analyses all run there even
//! when every other block replays functionally. Batch drivers and design-
//! space sweeps relaunch the same kernel shape over and over, so the `Gpu`
//! keeps the traced block's phase records in a small cache. On a hit the
//! cached records feed the timing model directly — modeled cycles are
//! bit-identical because `timing::combine` is a pure function of the
//! records and the launch shape.
//!
//! The key splits the job. The caller names the kernel and the launch
//! shape (`LaunchConfig::schedule_key`): launches sharing a name run the
//! same op sequence for the same branch outcomes. The simulator keys the
//! data-dependent control flow and the buffer placement. Once a schedule
//! of its kernel and shape is cached, a keyed launch replays block 0
//! plain with its other blocks — as lane 0 of the first lane group when
//! the cut gives it one — recording one bit per branch taken through
//! `ThreadCtx::is_zero`/`gt` and the block-id guards of `uniform` (the
//! branches lane groups already require; a group records each branch
//! once), noting where each buffer it touches starts within a DRAM line,
//! and logging its global stores. The bits themselves, not a hash, join
//! the key, which is the same in a group as alone. On a hit that plain
//! run is block 0's output; on a miss its stores are undone, block 0 is
//! traced after the replay, and the records are cached under the key
//! the trace itself recorded.

use crate::timing::PhaseRecord;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The outcomes of the branches a block took, in program order: one bit
/// per branch, the first in bit 0 of the first word.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Outcomes {
    len: usize,
    bits: Vec<u64>,
}

impl Outcomes {
    #[inline]
    pub(crate) fn push(&mut self, taken: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.bits.push(0);
        }
        if taken {
            *self.bits.last_mut().expect("a word was pushed") |= 1 << bit;
        }
        self.len += 1;
    }
}

/// What block 0's own run adds to its launch's key.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    /// The branches it took.
    pub outcomes: Outcomes,
    /// `(allocation index, start within a DRAM line)` of every buffer it
    /// touched: buffers move with the batch size, and its coalescing and
    /// line counts see their addresses modulo the line.
    pub line_offsets: Vec<(usize, usize)>,
}

/// The launch-visible part of the key: the kernel and its launch shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct LaunchKey {
    /// Caller-supplied kernel and shape identity
    /// (`LaunchConfig::schedule_key`).
    pub kernel: u64,
    pub threads_per_block: usize,
    pub regs_per_thread: usize,
    pub shared_words: usize,
    /// `MathMode` discriminant (fast SFU vs precise sequences change both
    /// the values and the issue schedule).
    pub math: u8,
}

/// Bound on retained entries; a sweep touches tens of shapes and outcome
/// patterns, not thousands, so this is a leak guard rather than an
/// eviction policy.
const MAX_ENTRIES: usize = 256;

/// Cached records by kernel and shape, then by block 0's part of the key.
#[derive(Debug, Default)]
struct Entries {
    by_launch: HashMap<LaunchKey, HashMap<BlockKey, Arc<Vec<PhaseRecord>>>>,
    len: usize,
}

/// Per-[`Gpu`] cache of traced-block phase records.
///
/// [`Gpu`]: crate::exec::Gpu
#[derive(Debug, Default)]
pub(crate) struct ScheduleCache {
    entries: Mutex<Entries>,
}

impl ScheduleCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether any schedule of this kernel and shape is cached: a launch
    /// of one that is not cannot hit, so it traces straight away.
    pub(crate) fn knows(&self, launch: &LaunchKey) -> bool {
        self.lock().by_launch.contains_key(launch)
    }

    pub(crate) fn get(
        &self,
        launch: &LaunchKey,
        block: &BlockKey,
    ) -> Option<Arc<Vec<PhaseRecord>>> {
        self.lock().by_launch.get(launch)?.get(block).cloned()
    }

    pub(crate) fn insert(&self, launch: LaunchKey, block: BlockKey, records: &[PhaseRecord]) {
        let mut entries = self.lock();
        if entries.len >= MAX_ENTRIES {
            // Shapes past the guard rail simply stop caching; correctness
            // never depends on a hit.
            return;
        }
        let fresh = entries
            .by_launch
            .entry(launch)
            .or_default()
            .insert(block, Arc::new(records.to_vec()))
            .is_none();
        entries.len += usize::from(fresh);
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(kernel: u64) -> LaunchKey {
        LaunchKey {
            kernel,
            threads_per_block: 64,
            regs_per_thread: 20,
            shared_words: 128,
            math: 0,
        }
    }

    fn block(bits: &[bool]) -> BlockKey {
        let mut outcomes = Outcomes::default();
        for &b in bits {
            outcomes.push(b);
        }
        BlockKey {
            outcomes,
            line_offsets: vec![(0, 0), (1, 4)],
        }
    }

    #[test]
    fn insert_then_get_round_trips() {
        let cache = ScheduleCache::default();
        assert!(!cache.knows(&launch(1)));
        assert!(cache.get(&launch(1), &block(&[])).is_none());
        cache.insert(launch(1), block(&[]), &[]);
        assert_eq!(cache.len(), 1);
        assert!(cache.knows(&launch(1)));
        assert!(cache.get(&launch(1), &block(&[])).is_some());
        // A different kernel id or shape misses.
        assert!(!cache.knows(&launch(2)));
        let mut k = launch(1);
        k.shared_words = 64;
        assert!(cache.get(&k, &block(&[])).is_none());
        // So does a buffer that starts elsewhere within its line.
        let mut b = block(&[]);
        b.line_offsets[1].1 = 12;
        assert!(cache.get(&launch(1), &b).is_none());
    }

    #[test]
    fn outcomes_key_every_branch_and_their_count() {
        let cache = ScheduleCache::default();
        cache.insert(launch(1), block(&[false, true, false]), &[]);
        assert!(cache.get(&launch(1), &block(&[false, true, false])).is_some());
        // A flipped branch, one more not-taken branch and one fewer all
        // miss: trailing zero bits must not alias.
        for other in [&[false, false, false][..], &[false, true, false, false], &[false, true]] {
            assert!(cache.get(&launch(1), &block(other)).is_none(), "{other:?}");
        }
        // Past one word the bits carry on into the next.
        let long: Vec<bool> = (0..130).map(|i| i == 129).collect();
        let o = block(&long).outcomes;
        assert_eq!((o.len, o.bits.as_slice()), (130, &[0, 0, 2][..]));
    }

    #[test]
    fn cache_is_bounded() {
        let cache = ScheduleCache::default();
        // Outcome patterns of one kernel and shape count like new shapes.
        for i in 0..MAX_ENTRIES + 16 {
            cache.insert(launch(i as u64 % 2), block(&vec![true; i]), &[]);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
    }
}

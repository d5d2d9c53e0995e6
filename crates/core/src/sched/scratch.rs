//! Reusable scheduling scratch: the arena that makes repeated solves
//! allocation-free.
//!
//! Every strategy's hot path ([`Scheduler::schedule_into`]) threads a
//! [`SchedScratch`] through its internals instead of allocating:
//!
//! * HeRAD parks one [`ChainTable`] here — the same table type the
//!   service's chain tier caches. It stays keyed to the chain and pruning
//!   that produced it, so a later solve of the same chain on a covered
//!   pool is pure extraction, a larger pool grows the table by only the
//!   new rows/columns (cell values are pool-independent — see `herad`'s
//!   module docs for the sub-table-growth invariant), and only a
//!   different chain pays for a rebuild, which reuses the parked table's
//!   buffers;
//! * the `Schedule` binary search rents its candidate stage buffer from
//!   the pool instead of building a fresh `Solution` per probe;
//! * 2CATAC's two-choice recursion rents one stage buffer per candidate
//!   per node and returns them on unwind, so the pool high-water mark is
//!   `O(n)` and steady-state recursion allocates nothing.
//!
//! A scratch is reusable memory only: it never changes observable
//! behaviour. Scratches may be shared freely across strategies and across
//! instances of *different* shapes (smaller or larger `n`, `B`, `L`), and
//! always yield bit-identical solutions to the allocating paths — the
//! conformance suite pins exactly that.
//!
//! [`Scheduler::schedule_into`]: crate::sched::Scheduler::schedule_into

use crate::sched::herad::ChainTable;
use crate::solution::Stage;

/// Reusable buffers for the scheduling hot paths. See the module docs.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// HeRAD's parked DP table (see [`ChainTable`]); taken out while it
    /// is being grown or rebuilt, so a panicking solve leaves `None`.
    pub(crate) herad_table: Option<ChainTable>,
    /// Free-list of stage buffers for the binary search and the greedy
    /// recursions.
    stage_pool: Vec<Vec<Stage>>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        SchedScratch::default()
    }

    /// Rents a cleared stage buffer from the pool (allocation-free once
    /// the pool has warmed up).
    pub(crate) fn rent_stages(&mut self) -> Vec<Stage> {
        let mut buf = self.stage_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a rented buffer to the pool for reuse.
    pub(crate) fn return_stages(&mut self, buf: Vec<Stage>) {
        self.stage_pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::CoreType;

    #[test]
    fn rented_buffers_come_back_cleared_with_capacity() {
        let mut scratch = SchedScratch::new();
        let mut buf = scratch.rent_stages();
        buf.extend((0..32).map(|i| Stage::new(i, i, 1, CoreType::Big)));
        let cap = buf.capacity();
        scratch.return_stages(buf);
        let again = scratch.rent_stages();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "capacity must be preserved");
    }

    #[test]
    fn pool_hands_out_distinct_buffers() {
        let mut scratch = SchedScratch::new();
        let a = scratch.rent_stages();
        let b = scratch.rent_stages();
        scratch.return_stages(a);
        scratch.return_stages(b);
        assert_eq!(scratch.stage_pool.len(), 2);
    }

    #[test]
    fn fresh_sweep_memo_matches_nothing() {
        // A fresh scratch parks no table, so its first HeRAD solve is cold
        // and parks the table for the next one.
        use crate::chain::{Task, TaskChain};
        use crate::resources::Resources;
        use crate::sched::herad::{Herad, TableServe};
        let mut scratch = SchedScratch::new();
        assert!(scratch.herad_table.is_none());
        let c = TaskChain::new(vec![Task::new(1, 1, false)]);
        let r = Resources::new(1, 1);
        let (how, _) = ChainTable::ready(&mut scratch.herad_table, &Herad::new(), &c, r, |_| {});
        assert_eq!(how, TableServe::Cold);
        assert!(scratch.herad_table.as_ref().is_some_and(|t| t.matches(&c)));
    }
}

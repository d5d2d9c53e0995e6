//! Differential suite for HeRAD's pool-delta warm starts.
//!
//! A `SchedScratch` carried across solves keeps the DP sub-table and
//! grows it monotonically (the sub-table-growth invariant: every cell is
//! a pure function of the chain prefix and its indices, never of the
//! total pool). These tests sweep one scratch over resource grids in
//! ascending, descending and shuffled orders and require every warm
//! solve to be bit-identical to a fresh allocating solve.

use amp_conformance::{check_sweep, instance_for_seed, GenConfig, Instance, TaskDef};
use amp_core::sched::{Herad, Pruning, SchedScratch, Scheduler};
use amp_core::{Resources, Solution};

#[test]
fn seeded_instances_pass_the_sweep_check() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        let mismatches = check_sweep(&instance_for_seed(seed, &cfg));
        assert!(
            mismatches.is_empty(),
            "seed {seed}: {}",
            mismatches
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// Sweeps one scratch over a shuffled pool grid — every transition is an
/// arbitrary mix of grows, rebuilds and pure sub-table extractions — and
/// checks solutions and periods against fresh solves.
#[test]
fn shuffled_grid_sweep_matches_fresh_solves() {
    let inst = Instance::new(
        "shuffled-sweep",
        vec![
            TaskDef::new(6, 13, true),
            TaskDef::new(3, 4, false),
            TaskDef::new(9, 15, true),
            TaskDef::new(2, 2, false),
            TaskDef::new(5, 10, true),
            TaskDef::new(7, 7, true),
        ],
        6,
        6,
    );
    let chain = inst.chain();
    let mut grid: Vec<(u64, u64)> = (0..=6u64)
        .flat_map(|b| (0..=6u64).map(move |l| (b, l)))
        .collect();
    // Deterministic LCG shuffle: no RNG dependency, reproducible order.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..grid.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        grid.swap(i, (state >> 33) as usize % (i + 1));
    }

    for pruning in [Pruning::Aggressive, Pruning::Lossless] {
        let herad = Herad::with_pruning(pruning);
        let mut scratch = SchedScratch::new();
        let mut warm = Solution::empty();
        for &(b, l) in &grid {
            let r = Resources::new(b, l);
            let fresh = herad.schedule(&chain, r);
            let got = herad
                .schedule_into(&chain, r, &mut scratch, &mut warm)
                .then(|| warm.clone());
            assert_eq!(got, fresh, "{pruning:?} shuffled sweep diverged at {r}");
            assert_eq!(
                herad.optimal_period_with(&chain, r, &mut scratch),
                herad.optimal_period(&chain, r),
                "{pruning:?} warm period diverged at {r}"
            );
        }
    }
}

/// The scratch must survive *chain changes* between sweeps: a different
/// chain rebuilds the parked table, and the new sweep is again
/// bit-identical to fresh solves.
#[test]
fn scratch_reuse_across_different_chains_stays_exact() {
    let herad = Herad::new();
    let mut scratch = SchedScratch::new();
    let mut warm = Solution::empty();
    let cfg = GenConfig::default();
    for seed in 0..60 {
        let inst = instance_for_seed(seed, &cfg);
        let chain = inst.chain();
        for b in 0..=inst.big {
            for l in 0..=inst.little {
                let r = Resources::new(b, l);
                let fresh = herad.schedule(&chain, r);
                let got = herad
                    .schedule_into(&chain, r, &mut scratch, &mut warm)
                    .then(|| warm.clone());
                assert_eq!(got, fresh, "seed {seed} at {r} after chain switch");
            }
        }
    }
}

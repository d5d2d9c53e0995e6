//! The profiler's accuracy check: profiled weights of spin-modelled
//! tasks must land within 2x of the configured work model.
//!
//! The bounds assume an otherwise idle CPU. This file holds exactly one
//! test, so its binary runs alone (Cargo runs test binaries one at a
//! time) and no sibling test's pipeline threads preempt the spins it
//! times.

use amp_runtime::{profile_chain, ProfileConfig, RuntimeTask, WeightedWork};

#[test]
fn profiled_weights_track_the_work_model() {
    let tasks = vec![
        RuntimeTask::<u64>::new("fast", true, WeightedWork::new(200.0, 800.0)),
        RuntimeTask::<u64>::new("slow", false, WeightedWork::new(1000.0, 2000.0)),
    ];
    let us = ProfileConfig {
        unit_nanos: 1000,
        ..ProfileConfig::default()
    };
    let chain = profile_chain(&tasks, |s| s, &us);
    assert_eq!(chain.len(), 2);
    // Within 50% of the configured cost (spin calibration tolerance on
    // noisy CI machines).
    let t0 = chain.task(0);
    assert!((100..=400).contains(&t0.weight_big), "{}", t0.weight_big);
    assert!(
        (400..=1600).contains(&t0.weight_little),
        "{}",
        t0.weight_little
    );
    let t1 = chain.task(1);
    assert!(t1.weight_big > t0.weight_big);
    assert!(!t1.replicable && t0.replicable);
    // The little/big ratio should roughly match the 4x / 2x setup.
    let r0 = t0.weight_little as f64 / t0.weight_big as f64;
    assert!((2.0..=8.0).contains(&r0), "ratio {r0}");
}

//! Task profiling: measures each task's per-frame latency on each virtual
//! core type, producing the weight table the schedulers consume (the
//! paper's Table III workflow: profile first, schedule second).
//!
//! Weights are accumulated in nanoseconds and quantized to a configurable
//! unit ([`ProfileConfig::unit_nanos`]). The schedulers only consume weight
//! *ratios*, so the unit is free — but it must be fine enough for the
//! chain at hand: quantizing a 300 ns task and a 900 ns task to whole
//! microseconds collapses both to weight 1 and erases the very asymmetry
//! the schedulers balance. The default unit is 1 ns, which preserves
//! sub-microsecond asymmetry exactly.

use crate::pipeline::RuntimeTask;
use amp_core::{CoreType, Task, TaskChain};
use std::time::Instant;

/// Profiling parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Measured frames per task and core type.
    pub frames: u64,
    /// Leading frames discarded (cache warm-up).
    pub warmup: u64,
    /// Weight scale: one weight unit equals this many nanoseconds. Median
    /// latencies are divided by it, rounded up, floored at 1. Use 1 (the
    /// default) for nanosecond weights, 1000 for the paper's microsecond
    /// tables when every task is far above 1 µs.
    pub unit_nanos: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            frames: 32,
            warmup: 4,
            unit_nanos: 1,
        }
    }
}

/// Runs `config.frames` frames from `source` through the whole chain on
/// each core type and returns a [`TaskChain`] whose weights are each
/// task's measured median latency in units of
/// [`ProfileConfig::unit_nanos`] (rounded up, minimum 1).
///
/// Tasks run in chain order on the same frame, so task *i* sees what
/// tasks 0..i left in it, as it does in a pipeline; only task *i*'s own
/// `process` call is timed.
///
/// # Panics
/// Panics when `config` leaves no measured frames after warm-up or has a
/// zero `unit_nanos`.
#[must_use]
pub fn profile_chain<D>(
    tasks: &[RuntimeTask<D>],
    source: impl Fn(u64) -> D,
    config: &ProfileConfig,
) -> TaskChain {
    assert!(config.frames > config.warmup, "need frames after warm-up");
    assert!(config.unit_nanos > 0, "weight unit must be at least 1 ns");
    let mut weights = vec![[0u64; 2]; tasks.len()];
    let measured_frames = (config.frames - config.warmup) as usize;
    let mut samples = vec![Vec::with_capacity(measured_frames); tasks.len()];
    for (slot, core) in CoreType::BOTH.into_iter().enumerate() {
        for f in 0..config.frames {
            let mut data = source(f);
            for (task, task_samples) in tasks.iter().zip(&mut samples) {
                let t0 = Instant::now();
                task.work.process(f, &mut data, core);
                let dt = t0.elapsed().as_nanos() as u64;
                if f >= config.warmup {
                    task_samples.push(dt);
                }
            }
        }
        for (task_weights, task_samples) in weights.iter_mut().zip(&mut samples) {
            // The median, not the mean: one frame preempted by another
            // thread would otherwise inflate the weight by a whole
            // scheduler time slice and can invert a task's big/little
            // ratio on a busy host.
            let mid = task_samples.len() / 2;
            let median_nanos = *task_samples.select_nth_unstable(mid).1;
            task_weights[slot] = median_nanos.div_ceil(config.unit_nanos).max(1);
            task_samples.clear();
        }
    }
    let measured: Vec<Task> = tasks
        .iter()
        .zip(weights)
        .map(|(task, [weight_big, weight_little])| Task {
            name: task.name.clone(),
            weight_big,
            weight_little,
            replicable: task.replicable,
        })
        .collect();
    TaskChain::new(measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{FnWork, WeightedWork};

    /// Regression: each task must see the frame its predecessors
    /// produced. The second task pops what the first pushes; profiling
    /// it on a fresh source frame would find an empty buffer and panic.
    #[test]
    fn each_task_sees_the_output_of_the_tasks_before_it() {
        let tasks = vec![
            RuntimeTask::<Vec<u8>>::new(
                "push",
                false,
                FnWork(|seq: u64, data: &mut Vec<u8>, _: CoreType| data.push(seq as u8)),
            ),
            RuntimeTask::<Vec<u8>>::new(
                "pop",
                true,
                FnWork(|seq: u64, data: &mut Vec<u8>, _: CoreType| {
                    assert_eq!(data.pop(), Some(seq as u8), "input of the first task");
                }),
            ),
        ];
        let config = ProfileConfig {
            frames: 3,
            warmup: 1,
            unit_nanos: 1,
        };
        let chain = profile_chain(&tasks, |_| Vec::new(), &config);
        assert_eq!(chain.len(), 2);
        assert!(chain
            .tasks()
            .iter()
            .all(|t| t.weight_big >= 1 && t.weight_little >= 1));
    }

    #[test]
    fn sub_microsecond_asymmetry_survives_quantization() {
        // Regression: microsecond quantization (ceil, floor 1) used to
        // collapse a 0.3 µs and a 0.9 µs task both to weight 1 on both
        // core types, hiding a 3x asymmetry from the schedulers. The
        // default nanosecond unit must keep them distinct.
        let tasks = vec![
            RuntimeTask::<u64>::new("tiny", true, WeightedWork::new(0.3, 0.9)),
            RuntimeTask::<u64>::new("small", true, WeightedWork::new(0.9, 2.7)),
        ];
        let chain = profile_chain(&tasks, |s| s, &ProfileConfig::default());
        let (t0, t1) = (chain.task(0), chain.task(1));
        assert!(
            t0.weight_little > t0.weight_big,
            "big {} vs little {} must stay asymmetric",
            t0.weight_big,
            t0.weight_little
        );
        assert!(
            t1.weight_big > t0.weight_big,
            "0.9us ({}) must outweigh 0.3us ({})",
            t1.weight_big,
            t0.weight_big
        );
        // The 3x spread should be roughly preserved (loose bounds: spin
        // granularity and timer overhead dominate at this scale).
        let ratio = t1.weight_big as f64 / t0.weight_big as f64;
        assert!((1.5..=10.0).contains(&ratio), "ratio {ratio}");
    }
}

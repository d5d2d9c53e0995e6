//! The steady-state allocation gate for the runtime's sink accounting.
//!
//! A pipeline launched without a frame limit runs for as long as its
//! owner wants, so the sink must account for each departure in constant
//! memory: after warm-up, departing a frame must not touch the heap.
//!
//! The counting allocator counts every thread, since departures happen on
//! the pipeline's worker thread, so this file holds exactly one test and
//! nothing else runs beside it. At 200k departures a per-frame log would
//! regrow several times inside the measured window.

use amp_core::{CoreType, Resources, Solution, Stage, Task, TaskChain};
use amp_runtime::{FnWork, PipelineSpec, RunConfig, RunningPipeline, RuntimeTask, VirtualMachine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc`/`realloc` on any thread, then delegates to the
/// system allocator.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Spins (bounded) until the pipeline has departed `target` frames.
fn wait_frames(live: &RunningPipeline<u64>, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while live.frames_done() < target {
        assert!(
            Instant::now() < deadline,
            "pipeline stalled before frame {target}"
        );
        thread::yield_now();
    }
}

#[test]
fn unbounded_run_departs_frames_without_allocating() {
    let chain = TaskChain::new(vec![Task::new(1, 1, true)]);
    let spec: PipelineSpec<u64> = PipelineSpec::new(
        Arc::new(|seq| seq),
        vec![RuntimeTask::new(
            "mix",
            true,
            FnWork(|_seq: u64, d: &mut u64, _c: CoreType| *d = d.wrapping_mul(3)),
        )],
    );
    let solution = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Big)]);
    let machine = VirtualMachine::new(Resources::new(1, 0));
    let cfg = RunConfig {
        frames: None,
        max_duration: None,
        ..RunConfig::with_frames(0)
    };
    let live = spec.launch(&chain, &solution, &machine, &cfg).unwrap();

    wait_frames(&live, 10_000);
    let (from, allocs_before) = (live.frames_done(), ALLOCS.load(Ordering::SeqCst));
    wait_frames(&live, from + 200_000);
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;

    live.stop();
    let report = live.join();
    assert!(report.frames >= from + 200_000, "{} frames", report.frames);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations over 200k steady-state departures"
    );
}

//! Property-based tests for the scheduling service: cache soundness and
//! portfolio semantics.
//!
//! Cache soundness means a hit is indistinguishable from a fresh compute:
//! same exact period string, same decomposition, same stages, same core
//! usage — only the `cache_hit` flag differs. Portfolio semantics mean an
//! unlimited deadline yields HeRAD's optimal period, an already-expired
//! deadline still yields a valid FERTAC-or-better solution and never an
//! error, and an undeadlined portfolio answer is a pure function of the
//! request.

use std::time::Instant;

use amp_core::sched::{Herad, SchedScratch, Scheduler};
use amp_core::{Resources, Task, TaskChain};
use amp_service::{
    portfolio, CacheKey, Engine, EngineConfig, Policy, ScheduleRequest, ServiceMetrics,
    SolutionCache,
};
use proptest::prelude::*;

/// A random instance shaped like the paper's synthetic generator: big
/// weights uniform, little = big × slowdown, mixed replicability.
fn instance() -> impl Strategy<Value = (TaskChain, Resources)> {
    let task = (1u64..=100, 1u64..=5, any::<bool>())
        .prop_map(|(wb, slow, rep)| Task::new(wb, wb * slow, rep));
    (prop::collection::vec(task, 1..=12), 0u64..=6, 0u64..=6)
        .prop_filter("need at least one core", |(_, b, l)| b + l > 0)
        .prop_map(|(tasks, b, l)| (TaskChain::new(tasks), Resources::new(b, l)))
}

fn small_engine(cache_capacity: usize) -> Engine {
    Engine::start(EngineConfig {
        workers: 2,
        queue_depth: 32,
        cache_capacity,
        cache_shards: 4,
        fault_wrap: None,
        ..EngineConfig::default()
    })
}

/// One undeadlined portfolio run on a fresh scratch.
fn run_portfolio(
    chain: &TaskChain,
    res: Resources,
    deadline: Option<Instant>,
) -> Option<portfolio::PortfolioOutcome> {
    portfolio::run(
        chain,
        res,
        deadline,
        &mut SchedScratch::new(),
        None,
        &ServiceMetrics::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Cache soundness through the full engine: the second identical
    /// request is served from the cache and is bit-identical to the
    /// fresh compute, `cache_hit` flag aside.
    #[test]
    fn cache_hit_is_bit_identical_to_fresh_compute((chain, res) in instance()) {
        let engine = small_engine(256);
        let req = ScheduleRequest::from_chain(1, &chain, res, Policy::Portfolio);
        let fresh = engine.schedule_blocking(req.clone());
        let replay = engine.schedule_blocking(ScheduleRequest { id: 2, ..req });
        match (fresh.result, replay.result) {
            (Ok(a), Ok(b)) => {
                prop_assert!(!a.cache_hit);
                prop_assert!(b.cache_hit, "second identical request must hit");
                prop_assert_eq!(&a.period, &b.period);
                prop_assert_eq!(a.period_f64.to_bits(), b.period_f64.to_bits());
                prop_assert_eq!(&a.decomposition, &b.decomposition);
                prop_assert_eq!(&a.stages, &b.stages);
                prop_assert_eq!(a.used_big, b.used_big);
                prop_assert_eq!(a.used_little, b.used_little);
                // The replayed stages must still be a valid schedule.
                prop_assert!(b.solution().validate(&chain).is_ok());
            }
            (a, b) => prop_assert_eq!(a, b, "errors must replay identically"),
        }
    }

    /// Equal fingerprint material ⇒ equal keys ⇒ the cache returns the
    /// stored outcome for either request, regardless of id or deadline.
    #[test]
    fn equal_fingerprints_are_schedule_equivalent((chain, res) in instance()) {
        let a = ScheduleRequest::from_chain(7, &chain, res, Policy::Portfolio);
        let b = ScheduleRequest::from_chain(99, &chain, res, Policy::Portfolio)
            .with_deadline_us(1_000_000);
        let (ka, kb) = (CacheKey::for_request(&a), CacheKey::for_request(&b));
        prop_assert_eq!(&ka, &kb);
        prop_assert_eq!(ka.fingerprint(), kb.fingerprint());

        let out = run_portfolio(&chain, res, None);
        prop_assume!(out.is_some());
        let out = out.unwrap();
        let outcome = amp_service::ScheduleOutcome::from_solution(
            out.strategy, &out.solution, &chain, out.complete,
        );
        let cache = SolutionCache::new(16, 2);
        cache.insert(ka, outcome.clone());
        let via_b = cache.get(&kb).expect("same instance must hit");
        prop_assert_eq!(&via_b.period, &outcome.period);
        prop_assert_eq!(&via_b.stages, &outcome.stages);
    }

    /// Unlimited deadline: the portfolio waits for HeRAD, so its period
    /// is the instance's optimum.
    #[test]
    fn unlimited_deadline_is_herad_optimal((chain, res) in instance()) {
        let out = run_portfolio(&chain, res, None).expect("at least one core is available");
        prop_assert!(out.complete);
        let opt = Herad::new().optimal_period(&chain, res).unwrap();
        prop_assert_eq!(out.period, opt);
        prop_assert!(out.solution.validate(&chain).is_ok());
        prop_assert!(out.solution.is_valid(&chain, res, out.period));
    }

    /// Already-expired deadline: still a valid solution (FERTAC ran
    /// inline), never an error, and never worse than FERTAC alone.
    #[test]
    fn tight_deadline_is_valid_and_fertac_or_better((chain, res) in instance()) {
        let deadline = Some(Instant::now());
        let out = run_portfolio(&chain, res, deadline)
            .expect("FERTAC always answers feasible instances");
        prop_assert!(out.solution.validate(&chain).is_ok());
        prop_assert!(out.solution.is_valid(&chain, res, out.period));
        let fertac = amp_core::sched::Fertac
            .schedule(&chain, res)
            .expect("feasible");
        prop_assert!(out.period <= fertac.period(&chain));
    }

    /// The winner is a pure function of the request: two uncached
    /// engines answer the same undeadlined portfolio request with the
    /// same strategy, stages and period (exact ties keep the earlier
    /// member, so no scheduling order can decide them).
    #[test]
    fn undeadlined_portfolio_answer_is_deterministic((chain, res) in instance()) {
        let req = ScheduleRequest::from_chain(1, &chain, res, Policy::Portfolio);
        let (a, b) = (small_engine(0), small_engine(0));
        let (ra, rb) = (a.schedule_blocking(req.clone()), b.schedule_blocking(req));
        match (ra.result, rb.result) {
            (Ok(x), Ok(y)) => {
                prop_assert!(!x.cache_hit && !y.cache_hit);
                prop_assert!(x.complete && y.complete);
                prop_assert_eq!(&x.strategy, &y.strategy);
                prop_assert_eq!(&x.stages, &y.stages);
                prop_assert_eq!(&x.period, &y.period);
            }
            (x, y) => prop_assert_eq!(x, y, "errors must agree too"),
        }
    }
}

//! Deadline-bounded strategy portfolio.
//!
//! One request, three strategies, run as an anytime ladder inline on the
//! calling worker's own [`SchedScratch`]: FERTAC first (microseconds,
//! always runs), then HeRAD (optimal but `O(n²·b·l)` DP), then a
//! node-budgeted 2CATAC. The ladder keeps the best solution seen:
//!
//! * primary objective — smallest period (the paper's throughput goal);
//! * secondary objective — fewest big cores, then fewest cores overall
//!   (the paper's power proxy, read off [`Solution::used_cores`]);
//! * exact ties keep the incumbent, so the winner is a pure function of
//!   the request.
//!
//! The deadline is checked before each member after FERTAC: later
//! members only start while time remains, exactly the energy
//! objective's rule. A member that has started runs to completion, so
//! an answer can arrive up to one member's solve after the deadline.
//! With no deadline every member runs and the period equals HeRAD's
//! optimum. With a deadline that already passed the ladder still returns
//! the FERTAC solution — a valid schedule, never an error, merely
//! possibly improvable.
//!
//! Each member runs under [`catch_unwind`] and its solution is vetted
//! with [`solution_is_sound`] before it may win. A panicking member
//! (counted in `member_panics`; the scratch is replaced, since a
//! half-written DP table is not trustworthy) or an unsound one (counted
//! in `member_invalid`) is skipped and the ladder goes on.
//!
//! ## The `complete` flag, precisely
//!
//! `complete` is a *cacheability certificate*: it is `true` only when
//! all three members ran and none failed. Anything less — a deadline
//! hit, a panicking member, an unsound member solution — clears it,
//! because the result can no longer be proven HeRAD-optimal and caching
//! it would replay a possibly-improvable answer bit-identical to every
//! later identical request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use amp_core::sched::{Fertac, Herad, SchedScratch, Scheduler, Twocatac};
use amp_core::{Ratio, Resources, Solution, TaskChain};

use crate::engine::{wrapped, StrategyWrap};
use crate::metrics::ServiceMetrics;

/// Node budget handed to [`Twocatac::with_node_budget`] by both
/// portfolios (period and energy); bounds the two-choice search tree so
/// the member cannot go exponential.
pub const TWOCATAC_NODE_BUDGET: u64 = 200_000;

/// The winning result of one portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// Display name of the strategy that produced the winner.
    pub strategy: &'static str,
    /// The winning solution.
    pub solution: Solution,
    /// Its period on the request chain.
    pub period: Ratio,
    /// `true` when every member ran and none failed; the cacheability
    /// certificate (see the module docs).
    pub complete: bool,
}

/// `true` when `solution` is structurally valid for `chain` and fits in
/// `resources` — the vetting every portfolio member (and the engine, as
/// defense-in-depth before a cache insert) applies.
#[must_use]
pub fn solution_is_sound(solution: &Solution, chain: &TaskChain, resources: Resources) -> bool {
    if solution.validate(chain).is_err() {
        return false;
    }
    let used = solution.used_cores();
    used.big <= resources.big && used.little <= resources.little
}

/// `true` when `(candidate)` beats `(incumbent)` under the paper's
/// objectives: smaller period, then fewer big cores, then fewer cores.
fn beats(cand_period: Ratio, cand: &Solution, inc_period: Ratio, inc: &Solution) -> bool {
    if cand_period != inc_period {
        return cand_period < inc_period;
    }
    let (c, i) = (cand.used_cores(), inc.used_cores());
    if c.big != i.big {
        return c.big < i.big;
    }
    c.total() < i.total()
}

/// Runs the portfolio ladder for one instance on the caller's `scratch`.
/// `deadline` gates the start of every member after FERTAC; `None` runs
/// them all. `wrap` is the fault-injection seam applied to each member,
/// and member failures are counted in `metrics`. Returns `None` only
/// when *no* member found a valid mapping — e.g. an empty chain or a
/// zero-core pool.
#[must_use]
pub fn run(
    chain: &TaskChain,
    resources: Resources,
    deadline: Option<Instant>,
    scratch: &mut SchedScratch,
    wrap: Option<&StrategyWrap>,
    metrics: &ServiceMetrics,
) -> Option<PortfolioOutcome> {
    let members: [Box<dyn Scheduler>; 3] = [
        Box::new(Fertac),
        Box::new(Herad::new()),
        Box::new(Twocatac::with_node_budget(TWOCATAC_NODE_BUDGET)),
    ];
    let mut best: Option<PortfolioOutcome> = None;
    let mut complete = true;
    for (i, member) in members.into_iter().enumerate() {
        if i > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            complete = false;
            break;
        }
        let member = wrapped(wrap, member);
        let mut solution = Solution::empty();
        let solved = catch_unwind(AssertUnwindSafe(|| {
            member.schedule_into(chain, resources, scratch, &mut solution)
        }));
        match solved {
            Ok(false) => {}
            // Vet before anything derives from the stages: computing a
            // period from out-of-range stages would panic.
            Ok(true) if solution_is_sound(&solution, chain, resources) => {
                let period = solution.period(chain);
                if best
                    .as_ref()
                    .is_none_or(|inc| beats(period, &solution, inc.period, &inc.solution))
                {
                    best = Some(PortfolioOutcome {
                        strategy: member.name(),
                        solution,
                        period,
                        complete: false,
                    });
                }
            }
            Ok(true) => {
                metrics.record_member_invalid();
                complete = false;
            }
            Err(_) => {
                metrics.record_member_panic();
                *scratch = SchedScratch::new();
                complete = false;
            }
        }
    }
    best.map(|out| PortfolioOutcome { complete, ..out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::{CoreType, Stage, Task};
    use std::sync::Arc;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(40, 95, true),
            Task::new(5, 12, false),
        ])
    }

    fn run_with(
        resources: Resources,
        deadline: Option<Instant>,
        wrap: Option<&StrategyWrap>,
        metrics: &ServiceMetrics,
    ) -> Option<PortfolioOutcome> {
        run(
            &chain(),
            resources,
            deadline,
            &mut SchedScratch::new(),
            wrap,
            metrics,
        )
    }

    /// A wrap that replaces the named strategy with `fault` and passes
    /// every other one through untouched.
    fn fault_in(
        name: &'static str,
        fault: fn(Box<dyn Scheduler>) -> Box<dyn Scheduler>,
    ) -> StrategyWrap {
        Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == name {
                fault(inner)
            } else {
                inner
            }
        })
    }

    /// Panics inside the wrapped strategy.
    struct Bomb(Box<dyn Scheduler>);
    impl Scheduler for Bomb {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn schedule_into(
            &self,
            _: &TaskChain,
            _: Resources,
            _: &mut SchedScratch,
            _: &mut Solution,
        ) -> bool {
            panic!("injected panic in {}", self.0.name());
        }
    }

    /// Claims success with a structurally invalid solution.
    struct Liar(Box<dyn Scheduler>);
    impl Scheduler for Liar {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn schedule_into(
            &self,
            chain: &TaskChain,
            _: Resources,
            _: &mut SchedScratch,
            out: &mut Solution,
        ) -> bool {
            // Stage end == chain.len() is out of range: InvalidEnd.
            *out = Solution::new(vec![Stage::new(0, chain.len(), 1, CoreType::Big)]);
            true
        }
    }

    fn panic_in(name: &'static str) -> StrategyWrap {
        fault_in(name, |inner| Box::new(Bomb(inner)))
    }

    fn lie_in(name: &'static str) -> StrategyWrap {
        fault_in(name, |inner| Box::new(Liar(inner)))
    }

    #[test]
    fn unlimited_deadline_matches_herad_optimum() {
        let c = chain();
        let res = Resources::new(2, 2);
        let out = run_with(res, None, None, &ServiceMetrics::new()).expect("feasible");
        let opt = Herad::new().optimal_period(&c, res).expect("feasible");
        assert_eq!(out.period, opt);
        assert!(out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
    }

    #[test]
    fn expired_deadline_still_returns_a_valid_solution() {
        let c = chain();
        let res = Resources::new(2, 2);
        // Already passed by the time the ladder checks it.
        let out = run_with(res, Some(Instant::now()), None, &ServiceMetrics::new())
            .expect("FERTAC always runs");
        assert!(!out.complete, "no member after FERTAC may start");
        assert_eq!(out.strategy, "FERTAC");
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
        let fertac = Fertac.schedule(&c, res).unwrap();
        assert_eq!(out.period, fertac.period(&c));
    }

    #[test]
    fn infeasible_instance_returns_none() {
        assert!(run_with(Resources::new(0, 0), None, None, &ServiceMetrics::new()).is_none());
    }

    /// The headline regression: a member that panics must clear
    /// `complete`, so the engine never caches the answer as
    /// HeRAD-optimal.
    #[test]
    fn dead_racer_clears_the_complete_flag() {
        let c = chain();
        let metrics = ServiceMetrics::new();
        let out = run_with(
            Resources::new(2, 2),
            None,
            Some(&panic_in("HeRAD")),
            &metrics,
        )
        .expect("FERTAC and 2CATAC still answer");
        assert!(
            !out.complete,
            "a panicked member must not certify completeness"
        );
        assert_ne!(out.strategy, "HeRAD");
        assert!(out.solution.validate(&c).is_ok());
        assert_eq!(metrics.snapshot().member_panics, 1);
    }

    /// An expired deadline still returns the FERTAC solution — never an
    /// error — even with a member that would panic.
    #[test]
    fn expired_deadline_with_panicking_racer_still_answers() {
        let c = chain();
        let res = Resources::new(2, 2);
        let metrics = ServiceMetrics::new();
        let out = run_with(
            res,
            Some(Instant::now()),
            Some(&panic_in("HeRAD")),
            &metrics,
        )
        .expect("never an error on an expired deadline");
        assert!(!out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
        assert_eq!(metrics.snapshot().member_panics, 0, "HeRAD never started");
    }

    /// A panicking first member is contained and counted, the scratch it
    /// may have half-written is replaced, and the later members answer.
    #[test]
    fn panicking_member_is_contained_and_counted() {
        let c = chain();
        let res = Resources::new(2, 2);
        let metrics = ServiceMetrics::new();
        let mut scratch = SchedScratch::new();
        let wrap = panic_in("FERTAC");
        let out = run(&c, res, None, &mut scratch, Some(&wrap), &metrics)
            .expect("HeRAD and 2CATAC still answer");
        assert!(!out.complete);
        assert_eq!(out.period, Herad::new().optimal_period(&c, res).unwrap());
        assert_eq!(metrics.snapshot().member_panics, 1);
        // The same scratch keeps serving after the panic.
        let again = run(&c, res, None, &mut scratch, None, &metrics).expect("feasible");
        assert!(again.complete);
        assert_eq!(metrics.snapshot().member_panics, 1);
    }

    /// An unsound member solution is discarded (never wins), counted,
    /// and clears completeness.
    #[test]
    fn invalid_racer_solution_is_discarded() {
        let c = chain();
        let metrics = ServiceMetrics::new();
        let out = run_with(Resources::new(2, 2), None, Some(&lie_in("HeRAD")), &metrics)
            .expect("other members answer");
        assert!(!out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert_eq!(metrics.snapshot().member_invalid, 1);
    }

    /// Every member lying leaves nothing to serve: the run reports
    /// infeasible rather than letting an unsound solution through.
    #[test]
    fn invalid_solutions_are_rejected_before_winning() {
        let metrics = ServiceMetrics::new();
        let liar: StrategyWrap = Arc::new(|inner| Box::new(Liar(inner)));
        assert!(run_with(Resources::new(2, 2), None, Some(&liar), &metrics).is_none());
        assert_eq!(metrics.snapshot().member_invalid, 3);
    }

    /// One worker scratch serves repeated runs (warm, parked HeRAD table)
    /// with the same answer every time.
    #[test]
    fn repeated_runs_on_one_scratch_agree() {
        let c = chain();
        let res = Resources::new(2, 2);
        let metrics = ServiceMetrics::new();
        let mut scratch = SchedScratch::new();
        let first = run(&c, res, None, &mut scratch, None, &metrics).expect("feasible");
        for _ in 0..3 {
            let again = run(&c, res, None, &mut scratch, None, &metrics).expect("feasible");
            assert_eq!(again.strategy, first.strategy);
            assert_eq!(again.solution, first.solution);
            assert!(again.complete);
        }
    }

    #[test]
    fn beats_orders_by_period_then_big_cores_then_total() {
        let fast = Solution::new(vec![Stage::new(0, 3, 1, CoreType::Big)]);
        let lean = Solution::new(vec![Stage::new(0, 3, 1, CoreType::Little)]);
        let wide = Solution::new(vec![
            Stage::new(0, 1, 1, CoreType::Little),
            Stage::new(2, 3, 2, CoreType::Little),
        ]);
        let p1 = Ratio::from_int(10);
        let p2 = Ratio::from_int(20);
        // Smaller period always wins.
        assert!(beats(p1, &fast, p2, &lean));
        assert!(!beats(p2, &lean, p1, &fast));
        // Equal period: fewer big cores wins.
        assert!(beats(p1, &lean, p1, &fast));
        assert!(!beats(p1, &fast, p1, &lean));
        // Equal period and big cores: fewer total cores wins.
        assert!(beats(p1, &lean, p1, &wide));
        assert!(!beats(p1, &wide, p1, &lean));
        // Exact ties do not displace the incumbent.
        assert!(!beats(p1, &lean, p1, &lean));
    }
}

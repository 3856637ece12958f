//! Deterministic fault injection for the solver stack (feature
//! `fault-inject`).
//!
//! Robustness claims ("analyses degrade gracefully, never panic, never
//! emit NaN results") are untestable unless a numerical fault can be
//! produced *on demand*. This module threads three fault kinds through
//! the factorization and stamping paths:
//!
//! * `FaultKind::SingularPivot` — the matrix factorization reports a
//!   singular pivot;
//! * `FaultKind::NanEval` — a MOSFET evaluation returns a NaN drain
//!   current, poisoning the assembled right-hand side;
//! * `FaultKind::NewtonCap` — every Newton loop is capped at a given
//!   iteration count, forcing non-convergence.
//!
//! Faults are **deterministic**: a `FaultPlan` selects which events
//! (counted per kind from the moment of arming) misbehave via an
//! `after`/`count` window, so a test can fail exactly the third
//! factorization, or exactly one Monte-Carlo sample, and get the same
//! outcome on every run. Plans are armed per thread with an RAII
//! `FaultGuard`, so parallel tests do not interfere.
//!
//! With the feature disabled the hooks compile to constant falsehoods
//! and the hot paths carry zero overhead.

#[cfg(feature = "fault-inject")]
pub use imp::{active_plan, FaultGuard, FaultKind, FaultPlan};

#[cfg(feature = "fault-inject")]
mod imp {
    use std::cell::RefCell;

    /// Which solver event a plan corrupts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Matrix factorizations in the window fail with a singular pivot.
        SingularPivot,
        /// MOSFET evaluations in the window return a NaN drain current.
        NanEval,
        /// Newton loops are capped at this many iterations.
        NewtonCap(usize),
    }

    /// A deterministic fault plan: `kind` applied to counted events in
    /// the window `[after, after + count)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultPlan {
        /// The fault to inject.
        pub kind: FaultKind,
        /// First affected event index (counted from arming, per kind).
        pub after: u64,
        /// Number of affected events (`u64::MAX` = persistent).
        pub count: u64,
    }

    impl FaultPlan {
        /// Persistent singular-pivot fault from the first factorization.
        pub fn singular_pivot() -> Self {
            FaultPlan {
                kind: FaultKind::SingularPivot,
                after: 0,
                count: u64::MAX,
            }
        }

        /// Persistent NaN device-evaluation fault.
        pub fn nan_eval() -> Self {
            FaultPlan {
                kind: FaultKind::NanEval,
                after: 0,
                count: u64::MAX,
            }
        }

        /// Cap every Newton loop at `max` iterations.
        pub fn newton_cap(max: usize) -> Self {
            FaultPlan {
                kind: FaultKind::NewtonCap(max),
                after: 0,
                count: u64::MAX,
            }
        }

        /// Shifts the fault window to start at event `n`.
        pub fn starting_at(mut self, n: u64) -> Self {
            self.after = n;
            self
        }

        /// Limits the fault window to `n` events.
        pub fn for_events(mut self, n: u64) -> Self {
            self.count = n;
            self
        }

        /// Arms the plan on this thread; the fault disarms when the
        /// returned guard drops. Event counters restart at zero.
        #[must_use = "the fault disarms when the guard drops"]
        pub fn arm(self) -> FaultGuard {
            ACTIVE.with(|a| {
                *a.borrow_mut() = Some(Armed {
                    plan: self,
                    factor_events: 0,
                    eval_events: 0,
                })
            });
            FaultGuard { _priv: () }
        }
    }

    #[derive(Debug)]
    struct Armed {
        plan: FaultPlan,
        factor_events: u64,
        eval_events: u64,
    }

    thread_local! {
        static ACTIVE: RefCell<Option<Armed>> = const { RefCell::new(None) };
    }

    /// Disarms the thread's fault plan on drop.
    #[derive(Debug)]
    pub struct FaultGuard {
        _priv: (),
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ACTIVE.with(|a| *a.borrow_mut() = None);
        }
    }

    /// The plan currently armed on this thread, if any.
    pub fn active_plan() -> Option<FaultPlan> {
        ACTIVE.with(|a| a.borrow().as_ref().map(|armed| armed.plan))
    }

    fn in_window(plan: &FaultPlan, event: u64) -> bool {
        event >= plan.after && event - plan.after < plan.count
    }

    pub(crate) fn fail_factor() -> bool {
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(armed) = a.as_mut() else {
                return false;
            };
            if armed.plan.kind != FaultKind::SingularPivot {
                return false;
            }
            let event = armed.factor_events;
            armed.factor_events += 1;
            in_window(&armed.plan, event)
        })
    }

    pub(crate) fn poison_eval() -> bool {
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(armed) = a.as_mut() else {
                return false;
            };
            if armed.plan.kind != FaultKind::NanEval {
                return false;
            }
            let event = armed.eval_events;
            armed.eval_events += 1;
            in_window(&armed.plan, event)
        })
    }

    pub(crate) fn newton_cap(budget: usize) -> usize {
        ACTIVE.with(|a| match a.borrow().as_ref() {
            Some(armed) => match armed.plan.kind {
                FaultKind::NewtonCap(max) => budget.min(max),
                _ => budget,
            },
            None => budget,
        })
    }
}

/// Hook: `true` when the next factorization must report a singular pivot.
#[inline]
pub(crate) fn fail_factor() -> bool {
    #[cfg(feature = "fault-inject")]
    {
        imp::fail_factor()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        false
    }
}

/// Hook: `true` when the next MOSFET evaluation must return NaN.
#[inline]
pub(crate) fn poison_eval() -> bool {
    #[cfg(feature = "fault-inject")]
    {
        imp::poison_eval()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        false
    }
}

/// Hook: the effective Newton iteration budget under the armed plan.
#[inline]
pub(crate) fn newton_cap(budget: usize) -> usize {
    #[cfg(feature = "fault-inject")]
    {
        imp::newton_cap(budget)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        budget
    }
}

/// Factors an assembled real/complex system with the analysis call's
/// solver, through the fault hook: the single chokepoint every analysis
/// uses, so an armed [`FaultKind::SingularPivot`] plan is seen by all of
/// them, one event per factorization.
pub(crate) fn factor<'s, T: remix_numerics::Scalar>(
    solver: &'s mut remix_numerics::SparseSolver<T>,
    a: &remix_numerics::CsrMatrix<T>,
) -> Result<&'s remix_numerics::SparseLu<T>, remix_numerics::FactorError> {
    if fail_factor() {
        return Err(remix_numerics::FactorError::Singular { step: 0 });
    }
    solver.factor(a)
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn hooks_inert_when_disarmed() {
        assert!(!fail_factor());
        assert!(!poison_eval());
        assert_eq!(newton_cap(50), 50);
        assert!(active_plan().is_none());
    }

    #[test]
    fn window_counts_events_deterministically() {
        let _g = FaultPlan::singular_pivot()
            .starting_at(1)
            .for_events(2)
            .arm();
        assert!(!fail_factor()); // event 0
        assert!(fail_factor()); // event 1
        assert!(fail_factor()); // event 2
        assert!(!fail_factor()); // event 3
                                 // Other kinds unaffected.
        assert!(!poison_eval());
        assert_eq!(newton_cap(50), 50);
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = FaultPlan::nan_eval().arm();
            assert!(poison_eval());
            assert!(active_plan().is_some());
        }
        assert!(!poison_eval());
        assert!(active_plan().is_none());
    }

    #[test]
    fn newton_cap_clamps_budget() {
        let _g = FaultPlan::newton_cap(2).arm();
        assert_eq!(newton_cap(50), 2);
        assert_eq!(newton_cap(1), 1);
    }
}

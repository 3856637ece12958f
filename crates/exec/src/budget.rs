//! Run budgets, cancellation tokens and the thread-local charge hooks.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted run was interrupted.
///
/// Carried upward inside `AnalysisError::BudgetExceeded` and inside
/// partial results, so callers can distinguish "the caller cancelled"
/// from "the work was genuinely too large".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interruption {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired {
        /// The budgeted wall-clock allowance (ms).
        budget_ms: u64,
    },
    /// The cumulative Newton-iteration budget is spent.
    NewtonIterations {
        /// The iteration allowance that was exhausted.
        limit: u64,
    },
    /// The cumulative timestep budget is spent.
    Timesteps {
        /// The timestep allowance that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for Interruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interruption::Cancelled => write!(f, "cancelled"),
            Interruption::DeadlineExpired { budget_ms } => {
                write!(f, "wall-clock deadline expired ({budget_ms} ms budget)")
            }
            Interruption::NewtonIterations { limit } => {
                write!(f, "newton-iteration budget exhausted ({limit} iterations)")
            }
            Interruption::Timesteps { limit } => {
                write!(f, "timestep budget exhausted ({limit} steps)")
            }
        }
    }
}

/// Declarative work budget; compile into a [`CancelToken`] with
/// [`RunBudget::token`].
///
/// All limits are optional: [`RunBudget::unlimited`] produces a token
/// that only trips on explicit [`CancelToken::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Wall-clock allowance from the moment the token is created.
    pub deadline: Option<Duration>,
    /// Cumulative Newton-iteration allowance across the whole run.
    pub newton_iterations: Option<u64>,
    /// Cumulative timestep allowance across the whole run.
    pub timesteps: Option<u64>,
}

impl RunBudget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the cumulative Newton-iteration allowance.
    pub fn with_newton_iterations(mut self, n: u64) -> Self {
        self.newton_iterations = Some(n);
        self
    }

    /// Sets the cumulative timestep allowance.
    pub fn with_timesteps(mut self, n: u64) -> Self {
        self.timesteps = Some(n);
        self
    }

    /// Starts the clock: a token charged against this budget.
    pub fn token(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                started: Instant::now(),
                deadline: self.deadline,
                newton_used: AtomicU64::new(0),
                newton_limit: self.newton_iterations.unwrap_or(u64::MAX),
                steps_used: AtomicU64::new(0),
                steps_limit: self.timesteps.unwrap_or(u64::MAX),
                parent: None,
            }),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    started: Instant,
    deadline: Option<Duration>,
    newton_used: AtomicU64,
    newton_limit: u64,
    steps_used: AtomicU64,
    steps_limit: u64,
    /// Budget this one is derived from (see [`CancelToken::child`]):
    /// charges propagate upward and the parent's cancellation/deadline
    /// are visible through the child, but never the reverse.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn deadline_expired(&self) -> bool {
        match self.deadline {
            Some(d) => self.started.elapsed() >= d,
            None => false,
        }
    }

    fn deadline_interruption(&self) -> Interruption {
        Interruption::DeadlineExpired {
            budget_ms: self.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
        }
    }

    /// First expired deadline walking self → ancestors.
    fn expired_in_chain(&self) -> Option<Interruption> {
        if self.deadline_expired() {
            return Some(self.deadline_interruption());
        }
        self.parent.as_ref().and_then(|p| p.expired_in_chain())
    }

    fn cancelled_in_chain(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.parent.as_ref().is_some_and(|p| p.cancelled_in_chain())
    }

    /// Charges one Newton iteration on this node and every ancestor;
    /// the first exhausted allowance in the chain reports.
    fn charge_newton_account(&self) -> Result<(), Interruption> {
        // audit: relaxed-ok: the fetch_add's RMW atomicity alone makes
        // the charge exact across clones; no other memory rides on it.
        let used = self.newton_used.fetch_add(1, Ordering::Relaxed);
        if used >= self.newton_limit {
            return Err(Interruption::NewtonIterations {
                limit: self.newton_limit,
            });
        }
        match &self.parent {
            Some(p) => p.charge_newton_account(),
            None => Ok(()),
        }
    }

    /// Charges one timestep on this node and every ancestor.
    fn charge_timestep_account(&self) -> Result<(), Interruption> {
        // audit: relaxed-ok: exact-by-RMW charge, as charge_newton.
        let used = self.steps_used.fetch_add(1, Ordering::Relaxed);
        if used >= self.steps_limit {
            return Err(Interruption::Timesteps {
                limit: self.steps_limit,
            });
        }
        match &self.parent {
            Some(p) => p.charge_timestep_account(),
            None => Ok(()),
        }
    }
}

/// A cloneable, thread-safe handle to one run's budget state.
///
/// Clones share the same counters, so another thread holding one clone
/// can cancel the token while the solver thread charges another. There
/// is no watchdog: the deadline is read by the hooks themselves.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Trips the token: every subsequent hook reports
    /// [`Interruption::Cancelled`] (unless the deadline already passed,
    /// which takes precedence in reporting the cause).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) was called on this token or
    /// on any ancestor it was [derived](Self::child) from.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled_in_chain()
    }

    /// Wall-clock time since the token was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Derives a child token for one sub-unit of this run (a pool
    /// attempt): charges propagate to this token — its cumulative
    /// Newton/timestep allowances still bind — and its cancellation or
    /// deadline is visible through the child, but cancelling the child
    /// never trips this token. The child has no deadline of its own.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                started: Instant::now(),
                deadline: None,
                newton_used: AtomicU64::new(0),
                newton_limit: u64::MAX,
                steps_used: AtomicU64::new(0),
                steps_limit: u64::MAX,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Newton iterations charged so far.
    pub fn newton_spent(&self) -> u64 {
        // audit: relaxed-ok: advisory progress read of one monotonic
        // cell; budget enforcement happens in the charging RMW itself.
        self.inner.newton_used.load(Ordering::Relaxed)
    }

    /// Cheap cancellation/deadline check for sweep-point boundaries;
    /// charges nothing. Consults the whole ancestry chain (an expired
    /// deadline anywhere takes precedence in reporting the cause, then
    /// cancellation anywhere).
    pub fn checkpoint(&self) -> Result<(), Interruption> {
        if let Some(i) = self.inner.expired_in_chain() {
            return Err(i);
        }
        if self.is_cancelled() {
            return Err(Interruption::Cancelled);
        }
        Ok(())
    }

    /// Charges one Newton iteration; trips when the cumulative
    /// allowance — of this token or any ancestor — is spent (or the
    /// deadline/cancellation fired).
    pub fn charge_newton(&self) -> Result<(), Interruption> {
        self.checkpoint()?;
        self.inner.charge_newton_account()
    }

    /// Charges one timestep; trips when the cumulative allowance — of
    /// this token or any ancestor — is spent (or the
    /// deadline/cancellation fired).
    pub fn charge_timestep(&self) -> Result<(), Interruption> {
        self.checkpoint()?;
        self.inner.charge_timestep_account()
    }

    /// Arms this token on the current thread; the solver hooks charge
    /// it until the returned guard drops. Arming nests: the previous
    /// token (if any) is restored on drop.
    #[must_use = "the budget disarms when the guard drops"]
    pub fn arm(&self) -> BudgetGuard {
        let previous = ACTIVE.with(|a| a.borrow_mut().replace(self.clone()));
        BudgetGuard { previous }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Disarms the thread's budget (restoring any outer one) on drop.
#[derive(Debug)]
pub struct BudgetGuard {
    previous: Option<CancelToken>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE.with(|a| *a.borrow_mut() = previous);
    }
}

/// The token armed on this thread, if any.
pub fn active_token() -> Option<CancelToken> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Hook: cancellation/deadline check at a sweep-point boundary.
/// `Ok(())` when no budget is armed.
#[inline]
pub fn checkpoint() -> Result<(), Interruption> {
    match active_token() {
        Some(t) => t.checkpoint(),
        None => Ok(()),
    }
}

/// Hook: charges one Newton iteration against the armed budget.
/// `Ok(())` when no budget is armed.
#[inline]
pub fn charge_newton_iteration() -> Result<(), Interruption> {
    match active_token() {
        Some(t) => t.charge_newton(),
        None => Ok(()),
    }
}

/// Hook: charges one timestep against the armed budget. `Ok(())` when
/// no budget is armed.
#[inline]
pub fn charge_timestep() -> Result<(), Interruption> {
    match active_token() {
        Some(t) => t.charge_timestep(),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_inert_when_disarmed() {
        assert!(checkpoint().is_ok());
        assert!(charge_newton_iteration().is_ok());
        assert!(charge_timestep().is_ok());
        assert!(active_token().is_none());
    }

    #[test]
    fn newton_budget_trips_at_limit() {
        let token = RunBudget::unlimited().with_newton_iterations(3).token();
        let _g = token.arm();
        assert!(charge_newton_iteration().is_ok());
        assert!(charge_newton_iteration().is_ok());
        assert!(charge_newton_iteration().is_ok());
        assert_eq!(
            charge_newton_iteration(),
            Err(Interruption::NewtonIterations { limit: 3 })
        );
        // Other budgets unaffected.
        assert!(charge_timestep().is_ok());
    }

    #[test]
    fn timestep_budget_trips_at_limit() {
        let token = RunBudget::unlimited().with_timesteps(2).token();
        let _g = token.arm();
        assert!(charge_timestep().is_ok());
        assert!(charge_timestep().is_ok());
        assert_eq!(charge_timestep(), Err(Interruption::Timesteps { limit: 2 }));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let token = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
        let _g = token.arm();
        assert_eq!(
            checkpoint(),
            Err(Interruption::DeadlineExpired { budget_ms: 0 })
        );
        assert!(charge_newton_iteration().is_err());
        assert!(charge_timestep().is_err());
    }

    #[test]
    fn cancellation_is_cross_clone() {
        let token = RunBudget::unlimited().token();
        let clone = token.clone();
        assert!(token.checkpoint().is_ok());
        clone.cancel();
        assert_eq!(token.checkpoint(), Err(Interruption::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn child_charges_propagate_to_parent_allowance() {
        let parent = RunBudget::unlimited().with_newton_iterations(3).token();
        let child = parent.child();
        assert!(child.charge_newton().is_ok());
        assert!(child.charge_newton().is_ok());
        assert!(child.charge_newton().is_ok());
        // The child itself is unlimited; the parent's account trips.
        assert_eq!(
            child.charge_newton(),
            Err(Interruption::NewtonIterations { limit: 3 })
        );
        // A sibling sees the same exhausted parent account.
        let sibling = parent.child();
        assert!(sibling.charge_newton().is_err());
    }

    #[test]
    fn cancellation_flows_down_the_chain_not_up() {
        let parent = RunBudget::unlimited().token();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not trip parent");
        assert!(parent.checkpoint().is_ok());
        let child2 = parent.child();
        parent.cancel();
        assert!(child2.is_cancelled());
        assert_eq!(child2.checkpoint(), Err(Interruption::Cancelled));
    }

    #[test]
    fn parent_deadline_reported_through_child_checkpoint() {
        let parent = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
        let child = parent.child();
        // The child has no deadline of its own; the chain-aware
        // checkpoint still reports the study dying.
        assert_eq!(
            child.checkpoint(),
            Err(Interruption::DeadlineExpired { budget_ms: 0 })
        );
        assert!(child.charge_timestep().is_err());
    }

    #[test]
    fn child_timestep_charges_bind_parent_limit() {
        let parent = RunBudget::unlimited().with_timesteps(2).token();
        let child = parent.child();
        assert!(child.charge_timestep().is_ok());
        assert!(child.charge_timestep().is_ok());
        assert_eq!(
            child.charge_timestep(),
            Err(Interruption::Timesteps { limit: 2 })
        );
    }

    #[test]
    fn arming_nests_and_restores() {
        let outer = RunBudget::unlimited().with_newton_iterations(1).token();
        let inner = RunBudget::unlimited().token();
        let _og = outer.arm();
        assert!(charge_newton_iteration().is_ok());
        {
            let _ig = inner.arm();
            // Inner token is unlimited: charges don't hit the outer one.
            for _ in 0..10 {
                assert!(charge_newton_iteration().is_ok());
            }
        }
        // Outer restored; its allowance was already spent.
        assert!(charge_newton_iteration().is_err());
        drop(_og);
        assert!(active_token().is_none());
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let token = RunBudget::unlimited().token();
            let _g = token.arm();
            assert!(active_token().is_some());
        }
        assert!(active_token().is_none());
    }

    #[test]
    fn display_is_informative() {
        let d = Interruption::DeadlineExpired { budget_ms: 250 };
        assert!(d.to_string().contains("250 ms"));
    }
}

//! # remix-exec
//!
//! Bounded execution for the solver stack: cooperative cancellation,
//! run budgets, panic containment and the study pool.
//!
//! Nothing in a Newton ladder or a transient grid is intrinsically
//! bounded — a pathological bias point spins the damping cascade, a
//! dense PSS grid multiplies periods, and a server in front of the
//! engine has no lever beyond killing the process. This crate provides
//! the lever:
//!
//! * [`RunBudget`] — a declarative budget (wall-clock deadline, Newton
//!   iterations, timesteps) compiled into a [`CancelToken`]. No limit
//!   has a default: a run is bounded only by what its caller declares;
//! * [`CancelToken`] — a cloneable, thread-safe token the solver hot
//!   paths charge against at Newton-iteration, timestep and sweep-point
//!   boundaries. Tokens are armed per thread with an RAII
//!   [`BudgetGuard`] (mirroring the fault-injection plumbing in
//!   `remix-analysis`), so the solver crates call free hooks
//!   ([`charge_newton_iteration`], [`charge_timestep`], [`checkpoint`])
//!   without threading a token through every signature. The hooks are
//!   the only deadline enforcement: each one reads the wall clock of the
//!   whole token chain before it charges, so no watchdog thread is
//!   needed;
//! * [`Interruption`] — the typed reason a budget tripped, carried
//!   upward inside `AnalysisError::BudgetExceeded`;
//! * [`contain`] — the one `catch_unwind` in the stack: runs a job body
//!   and turns a panic into its message. The bench binaries and the
//!   serve workers call it directly around each job;
//! * [`run_tasks`] (the `pool` module) — the one study fan-out: a
//!   work-stealing pool with per-worker deques, [`contain`]ed tasks,
//!   per-attempt child budget tokens, deterministic telemetry merge and
//!   a deterministic chaos layer for soak testing. It hands back one
//!   `Option<Result<T, String>>` per requested index, in request order
//!   (`None`: the unit never ran);
//! * [`atomic_write`] — the crash-safe (tmp + fsync + rename) file
//!   replacement under every persistence layer in the stack.
//!
//! The crate depends only on `remix-telemetry` (pool lifecycle events)
//! and knows nothing about circuits; the analysis layer owns the
//! mapping from an [`Interruption`] to a typed partial result.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod budget;
mod contain;
mod env;
mod persist;
mod pool;

pub use admission::{AdmissionQueue, Shed};
pub use budget::{
    active_token, charge_newton_iteration, charge_timestep, checkpoint, BudgetGuard, CancelToken,
    Interruption, RunBudget,
};
pub use contain::contain;
pub use env::{chaos_clauses, env_u64, env_u64_or_warn, warn_malformed, EnvValue};
pub use persist::atomic_write;
pub use pool::{
    run_tasks, Parallelism, PoolChaos, PoolOptions, PoolRun, TaskResult, ENV_POOL_CHAOS,
    ENV_WORKERS,
};

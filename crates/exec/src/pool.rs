//! Fault-tolerant work-stealing pool for embarrassingly parallel
//! studies (Monte-Carlo samples, corner sweeps, LO sweep points).
//!
//! [`run_tasks`] is the one fan-out contract: the task takes its plain
//! study index, and [`PoolRun::outcomes`] hands back one
//! `Option<Result<T, String>>` per entry of `indices`, in `indices`
//! order — `None` for a unit that never ran — so no caller rebuilds
//! an ordered slot vector of its own.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A study must produce byte-identical
//!    `without_timings()` telemetry and identical outcomes no matter
//!    how many workers run it or how tasks interleave. Three rules
//!    deliver that: tasks are seeded by *index* (the drivers'
//!    prefix-stable SplitMix64 seeding), each task runs against a
//!    [`Telemetry::fork`]ed registry that the caller absorbs in
//!    `indices` order after the workers join (so last-value gauges
//!    land exactly as a serial loop would leave them), and the pool
//!    itself writes **nothing** into the metrics registry — its
//!    bookkeeping (workers, executed, steals, panics, chaos faults) is
//!    carried by lifecycle events ([`names::EXEC_POOL`]) only.
//! 2. **Containment.** Every task runs under [`contain`]; a panic
//!    becomes an `Err("panic: …")` outcome handed to the driver, never
//!    a dead study. Each task arms its own budget child token
//!    ([`CancelToken::child`]) and telemetry fork via the existing
//!    RAII guards, so no state leaks between tasks sharing a worker.
//!
//! The study-level budget binds every task: workers poll the caller's
//! armed token between tasks and task tokens are children of it, so
//! a study deadline, cancellation, or exhausted Newton/timestep
//! allowance stops dispatch exactly as a serial loop's per-sample
//! checkpoint would. There is no per-task deadline and no watchdog
//! thread; a task that returns [`TaskResult::Interrupted`] stops the
//! study.
//!
//! A deterministic chaos layer ([`PoolChaos`], `REMIX_EXEC_POOL_CHAOS`)
//! injects worker panics by task index, delays steals, and cancels the
//! study after a fixed number of completions — the failure battery the
//! parallel-soak CI job replays.

use crate::budget::{active_token, CancelToken, Interruption};
use crate::contain::contain;
use crate::env::{chaos_clauses, env_u64_or_warn};
use remix_telemetry::{names, FieldValue, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Environment knob naming the worker count for study drivers:
/// `0`/unset → [`Parallelism::Auto`], garbage → typed warning + Auto.
pub const ENV_WORKERS: &str = "REMIX_EXEC_WORKERS";

/// Environment knob carrying a [`PoolChaos`] spec for soak runs.
pub const ENV_POOL_CHAOS: &str = "REMIX_EXEC_POOL_CHAOS";

/// How many workers a study should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker — the reference execution every other mode must
    /// reproduce bit-for-bit. The default.
    #[default]
    Serial,
    /// `std::thread::available_parallelism()` workers (1 when unknown).
    Auto,
    /// Exactly this many workers (clamped to ≥ 1).
    Workers(usize),
}

impl Parallelism {
    /// The concrete worker count this policy resolves to.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Workers(n) => n.max(1),
        }
    }

    /// Reads [`ENV_WORKERS`] through the typed env layer: unset or `0`
    /// mean [`Parallelism::Auto`], a parsable count means
    /// [`Parallelism::Workers`], and garbage emits the standard
    /// malformed-env warning and falls back to Auto.
    pub fn from_env() -> Parallelism {
        match env_u64_or_warn(ENV_WORKERS, Some(0)) {
            None | Some(0) => Parallelism::Auto,
            Some(n) => Parallelism::Workers(usize::try_from(n).unwrap_or(usize::MAX)),
        }
    }
}

/// Deterministic pool chaos schedule; all faults off by default.
///
/// The spec grammar (`REMIX_EXEC_POOL_CHAOS`):
///
/// ```text
/// panic:<n>[,steal:<n>:<ms>][,cancel:<n>]
/// ```
///
/// `panic:7` panics every 7th task *index*
/// (deterministic under any scheduling — the convicted set never
/// depends on worker count); `steal:5:2` sleeps 2 ms before every 5th
/// successful steal (perturbs interleaving without touching results);
/// `cancel:20` stops the study after the 20th completion, modelling a
/// mid-study kill between checkpoint writes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolChaos {
    /// Panic every Nth task index (1-based).
    pub panic_task_every: Option<u64>,
    /// Sleep `.1` ms before every `.0`th successful steal.
    pub steal_delay_every: Option<(u64, u64)>,
    /// Stop the study after this many completions.
    pub cancel_after: Option<u64>,
}

impl PoolChaos {
    /// Parses the spec grammar above. Empty input means no chaos.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<PoolChaos, String> {
        let mut config = PoolChaos::default();
        let grammar = [("panic", 1), ("cancel", 1), ("steal", 2)];
        for (name, [n, ms]) in chaos_clauses(spec, "pool chaos", &grammar)? {
            match name {
                "panic" => config.panic_task_every = Some(n),
                "cancel" => config.cancel_after = Some(n),
                _ => config.steal_delay_every = Some((n, ms)),
            }
        }
        Ok(config)
    }

    /// Reads [`ENV_POOL_CHAOS`]; a malformed spec is surfaced on
    /// stderr and falls back to no chaos, never silently half-applied.
    pub fn from_env() -> PoolChaos {
        match std::env::var(ENV_POOL_CHAOS) {
            Err(_) => PoolChaos::default(),
            Ok(raw) => match PoolChaos::parse(&raw) {
                Ok(config) => config,
                Err(why) => {
                    eprintln!(
                        "warning: {ENV_POOL_CHAOS}={raw:?} rejected ({why}); running without \
                         pool chaos"
                    );
                    PoolChaos::default()
                }
            },
        }
    }

    /// `true` when any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self != &PoolChaos::default()
    }

    fn panic_fires(&self, index: usize) -> bool {
        self.panic_task_every
            .is_some_and(|p| (index as u64 + 1).is_multiple_of(p))
    }
}

/// Pool policy knobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolOptions {
    /// Worker-count policy.
    pub parallelism: Parallelism,
    /// Deterministic fault schedule.
    pub chaos: PoolChaos,
}

impl PoolOptions {
    /// Options with an explicit worker policy and everything else
    /// default.
    pub fn with_parallelism(parallelism: Parallelism) -> PoolOptions {
        PoolOptions {
            parallelism,
            ..PoolOptions::default()
        }
    }

    /// The environment-driven configuration study bench binaries use:
    /// worker count from [`ENV_WORKERS`], chaos from
    /// [`ENV_POOL_CHAOS`].
    pub fn from_env() -> PoolOptions {
        PoolOptions {
            parallelism: Parallelism::from_env(),
            chaos: PoolChaos::from_env(),
        }
    }
}

/// What a task body reports back.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResult<T> {
    /// The unit solved.
    Done(T),
    /// The unit failed for a domain reason (non-convergence, …); the
    /// study records the typed trace and continues.
    Failed(String),
    /// A budget hook tripped mid-unit: the study stops dispatching and
    /// the unit stays uncomputed.
    Interrupted(Interruption),
}

/// What a pool run produced.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// One slot per entry of `indices`, in `indices` order: `Ok` for a
    /// completed unit, `Err` for a domain failure *or a contained
    /// panic* (the trace then starts with `panic:`), and `None` for a
    /// unit that never ran. Under an interruption the `Some` slots are
    /// the completed subset — possibly non-contiguous; the caller's
    /// checkpoint layer persists exactly this set.
    pub outcomes: Vec<Option<Result<T, String>>>,
    /// Why dispatch stopped early, when it did.
    pub interrupted: Option<Interruption>,
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Task bodies run under `contain`; a poisoned lock can only mean
    // a bug in the pool machinery itself — recover the data instead of
    // cascading the panic across workers.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Emits one `remix.exec.pool` lifecycle event (no-op unless an
/// observing sink is armed on this thread); `worker` names the pool
/// worker emitting it, `None` on the caller's thread.
fn pool_event(
    worker: Option<usize>,
    state: &'static str,
    mut fields: Vec<(&'static str, FieldValue)>,
) {
    if !remix_telemetry::is_observing() {
        return;
    }
    let mut all = vec![("state", FieldValue::from(state))];
    if let Some(worker) = worker {
        all.push(("worker", FieldValue::from(worker)));
    }
    all.append(&mut fields);
    remix_telemetry::event(names::EXEC_POOL, all);
}

/// Runs `task` on each of `indices` on a work-stealing pool and reports
/// each terminal result through `on_complete` (serialized — at most one
/// call at a time, from whichever worker finished the task; drivers
/// save checkpoints there).
///
/// The caller's armed budget token and telemetry context are captured
/// before spawning: workers arm the telemetry as their base context,
/// tasks run under child tokens of the budget, and per-task registry
/// forks are absorbed back in `indices` order after the join — see the
/// module docs for why that makes the run schedule-independent.
pub fn run_tasks<T, F, C>(
    indices: &[usize],
    opts: &PoolOptions,
    task: F,
    on_complete: C,
) -> PoolRun<T>
where
    T: Send,
    F: Fn(usize) -> TaskResult<T> + Sync,
    C: FnMut(usize, &Result<T, String>) + Send,
{
    let workers = opts
        .parallelism
        .worker_count()
        .clamp(1, indices.len().max(1));
    let _run_span = remix_telemetry::span(names::EXEC_POOL_RUN)
        .with_field("workers", workers)
        .with_field("tasks", indices.len());
    pool_event(
        None,
        "started",
        vec![
            ("workers", FieldValue::from(workers)),
            ("tasks", FieldValue::from(indices.len())),
        ],
    );
    let caller_token = active_token();
    let caller_telemetry = Telemetry::current();

    // Per-worker deques of positions into `indices`, round-robin
    // pre-distributed in order so a single worker drains them exactly
    // like a serial loop. Nothing is pushed after this point.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for position in 0..indices.len() {
        lock_or_recover(&deques[position % workers]).push_back(position);
    }

    let stop = AtomicBool::new(false);
    let interrupted: Mutex<Option<Interruption>> = Mutex::new(None);
    // Each position's result and the registry fork it ran against (a
    // panicked task's fork is dropped: only completed work may shape
    // the study's snapshot).
    type Slot<T> = Option<(Result<T, String>, Option<Telemetry>)>;
    let slots: Mutex<Vec<Slot<T>>> = Mutex::new((0..indices.len()).map(|_| None).collect());
    let completer = Mutex::new(on_complete);
    let completions = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let panics = AtomicU64::new(0);
    let chaos_injected = AtomicU64::new(0);

    let stop_study = |why: Interruption| {
        let mut slot = lock_or_recover(&interrupted);
        if slot.is_none() {
            *slot = Some(why);
        }
        stop.store(true, Ordering::Release);
    };

    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let stop = &stop;
            let slots = &slots;
            let completer = &completer;
            let completions = &completions;
            let executed = &executed;
            let steals = &steals;
            let panics = &panics;
            let chaos_injected = &chaos_injected;
            let stop_study = &stop_study;
            let caller_token = &caller_token;
            let caller_telemetry = &caller_telemetry;
            let task = &task;
            s.spawn(move || {
                // Base context: driver callbacks (checkpoint saves) and
                // pool events on this thread observe the caller's
                // telemetry; per-task forks shadow it during the body.
                let _base = caller_telemetry.as_ref().map(Telemetry::arm);
                pool_event(Some(w), "worker_up", vec![]);
                let steal = || -> Option<usize> {
                    for offset in 1..workers {
                        let victim = (w + offset) % workers;
                        let job = lock_or_recover(&deques[victim]).pop_back();
                        if let Some(job) = job {
                            // audit: relaxed-ok: stat counter; exactness
                            // is read post-join only.
                            let n = steals.fetch_add(1, Ordering::Relaxed) + 1;
                            if let Some((period, ms)) = opts.chaos.steal_delay_every {
                                if n.is_multiple_of(period) {
                                    // audit: relaxed-ok: stat counter.
                                    chaos_injected.fetch_add(1, Ordering::Relaxed);
                                    pool_event(
                                        Some(w),
                                        "chaos_steal_delay",
                                        vec![("ms", FieldValue::from(ms))],
                                    );
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                            }
                            return Some(job);
                        }
                    }
                    None
                };
                loop {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Study-level boundary, exactly where the serial
                    // loops called `remix_exec::checkpoint()` between
                    // samples.
                    if let Some(token) = caller_token {
                        if let Err(why) = token.checkpoint() {
                            stop_study(why);
                            break;
                        }
                    }
                    // Two statements on purpose: chaining `.or_else(steal)`
                    // onto the pop would keep the own-deque guard (a
                    // statement-scoped temporary) locked *during* the
                    // steal, and two workers stealing from each other
                    // then deadlock on each other's deques.
                    let own = lock_or_recover(&deques[w]).pop_front();
                    // Every deque was seen empty and none is refilled:
                    // this worker is done.
                    let Some(position) = own.or_else(steal) else {
                        break;
                    };
                    let index = indices[position];

                    let task_token = caller_token.as_ref().map(CancelToken::child);
                    let fork = caller_telemetry.as_ref().map(Telemetry::fork);
                    let chaos_panic = opts.chaos.panic_fires(index);
                    if chaos_panic {
                        // audit: relaxed-ok: stat counter.
                        chaos_injected.fetch_add(1, Ordering::Relaxed);
                        pool_event(
                            Some(w),
                            "chaos_panic",
                            vec![("index", FieldValue::from(index))],
                        );
                    }
                    let result = {
                        let _budget = task_token.as_ref().map(CancelToken::arm);
                        let _telemetry = fork.as_ref().map(Telemetry::arm);
                        contain(|| {
                            if chaos_panic {
                                // audit: allow(AUD002): deterministic chaos injection — the pool's own panic containment is the system under test here.
                                panic!("chaos: injected worker panic (task {index})");
                            }
                            task(index)
                        })
                    };
                    // audit: relaxed-ok: stat counter.
                    executed.fetch_add(1, Ordering::Relaxed);

                    let (outcome, fork) = match result {
                        Err(message) => {
                            // audit: relaxed-ok: stat counter.
                            panics.fetch_add(1, Ordering::Relaxed);
                            pool_event(
                                Some(w),
                                "task_panicked",
                                vec![("index", FieldValue::from(index))],
                            );
                            (Err(format!("panic: {message}")), None)
                        }
                        Ok(TaskResult::Done(value)) => (Ok(value), fork),
                        Ok(TaskResult::Failed(trace)) => (Err(trace), fork),
                        Ok(TaskResult::Interrupted(why)) => {
                            // Study-level interruption (deadline,
                            // cancellation, exhausted shared allowance):
                            // stop dispatch, leave the unit uncomputed —
                            // exactly the serial break-at-boundary
                            // semantics.
                            stop_study(why);
                            break;
                        }
                    };
                    // audit: relaxed-ok: ordering against the
                    // cancel_after comparison below is irrelevant; the
                    // fetch_add's RMW atomicity alone makes the
                    // completion count exact.
                    let done = completions.fetch_add(1, Ordering::Relaxed) + 1;
                    if opts.chaos.cancel_after == Some(done) {
                        // Raise the stop flag *before* the completion
                        // callback: the callback persists a checkpoint
                        // (fsync — milliseconds), and cancelling only
                        // afterwards would let other workers stream
                        // completions far past the threshold.
                        // audit: relaxed-ok: stat counter.
                        chaos_injected.fetch_add(1, Ordering::Relaxed);
                        pool_event(
                            Some(w),
                            "chaos_cancel",
                            vec![("after", FieldValue::from(done))],
                        );
                        stop_study(Interruption::Cancelled);
                    }
                    {
                        let mut callback = lock_or_recover(completer);
                        callback(index, &outcome);
                    }
                    lock_or_recover(slots)[position] = Some((outcome, fork));
                }
            });
        }
    });

    // Deterministic ordered merge: `indices` order replays the serial
    // gauge history no matter which workers ran what.
    let outcomes: Vec<Option<Result<T, String>>> = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| {
            slot.map(|(outcome, fork)| {
                if let (Some(telemetry), Some(fork)) = (&caller_telemetry, fork) {
                    telemetry.registry().absorb(fork.registry());
                }
                outcome
            })
        })
        .collect();
    pool_event(
        None,
        "finished",
        vec![
            (
                "completed",
                FieldValue::from(outcomes.iter().flatten().count()),
            ),
            ("executed", FieldValue::from(executed.into_inner())),
            ("steals", FieldValue::from(steals.into_inner())),
            ("panics", FieldValue::from(panics.into_inner())),
            (
                "chaos_injected",
                FieldValue::from(chaos_injected.into_inner()),
            ),
        ],
    );
    PoolRun {
        outcomes,
        interrupted: interrupted
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use remix_telemetry::MemorySink;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    type Fields = Vec<(&'static str, FieldValue)>;

    fn indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn run_squares(opts: &PoolOptions, n: usize) -> PoolRun<usize> {
        run_tasks(
            &indices(n),
            opts,
            |index| TaskResult::Done(index * index),
            |_, _| {},
        )
    }

    /// Runs `body` under a telemetry context with a [`MemorySink`] and
    /// returns its result with the fields of every `remix.exec.pool`
    /// event, in delivery order.
    fn observed<R>(body: impl FnOnce() -> R) -> (R, Vec<Fields>) {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::with_sink(sink.clone());
        let result = {
            let _g = telemetry.arm();
            body()
        };
        let events = sink
            .events()
            .into_iter()
            .filter(|e| e.name == names::EXEC_POOL)
            .map(|e| e.fields)
            .collect();
        (result, events)
    }

    fn field(fields: &Fields, key: &str) -> Option<u64> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n,
                other => panic!("field {key} is not a count: {other:?}"),
            })
    }

    /// The events whose `state` field is `state`.
    fn with_state<'a>(events: &'a [Fields], state: &str) -> Vec<&'a Fields> {
        events
            .iter()
            .filter(|f| f.first() == Some(&("state", FieldValue::from(state))))
            .collect()
    }

    /// The single `finished` event's `key` count.
    fn finished(events: &[Fields], key: &str) -> Option<u64> {
        match with_state(events, "finished").as_slice() {
            [fields] => field(fields, key),
            other => panic!("expected one finished event, got {other:?}"),
        }
    }

    fn completed<T>(run: &PoolRun<T>) -> usize {
        run.outcomes.iter().flatten().count()
    }

    #[test]
    fn serial_and_parallel_outcomes_match() {
        let serial = run_squares(&PoolOptions::default(), 16);
        let (parallel, events) =
            observed(|| run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(4)), 16));
        assert_eq!(completed(&serial), 16);
        assert!(serial.interrupted.is_none());
        let values = |run: &PoolRun<usize>| -> Vec<usize> {
            run.outcomes
                .iter()
                .map(|o| match o {
                    Some(Ok(v)) => *v,
                    other => panic!("expected done, got {other:?}"),
                })
                .collect()
        };
        assert_eq!(values(&serial), values(&parallel));
        assert_eq!(field(with_state(&events, "started")[0], "workers"), Some(4));
        assert_eq!(finished(&events, "executed"), Some(16));
    }

    #[test]
    fn worker_count_clamps_to_task_count() {
        let (run, events) =
            observed(|| run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(64)), 3));
        assert_eq!(field(with_state(&events, "started")[0], "workers"), Some(3));
        assert_eq!(with_state(&events, "worker_up").len(), 3);
        assert_eq!(completed(&run), 3);
    }

    #[test]
    fn panics_become_typed_failures_not_dead_studies() {
        let (run, events) = observed(|| {
            run_tasks(
                &indices(8),
                &PoolOptions::with_parallelism(Parallelism::Workers(3)),
                |index| {
                    if index == 3 {
                        panic!("sample exploded");
                    }
                    TaskResult::Done(index)
                },
                |_, _| {},
            )
        });
        assert!(run.interrupted.is_none());
        assert_eq!(completed(&run), 8);
        assert_eq!(finished(&events, "panics"), Some(1));
        match &run.outcomes[3] {
            Some(Err(trace)) => {
                assert!(trace.starts_with("panic:"), "{trace}");
                assert!(trace.contains("sample exploded"));
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn chaos_panics_are_index_deterministic_across_worker_counts() {
        let opts = |workers| PoolOptions {
            parallelism: Parallelism::Workers(workers),
            chaos: PoolChaos::parse("panic:5").expect("spec"),
        };
        for workers in [1, 4] {
            let (run, events) =
                observed(|| run_tasks(&indices(10), &opts(workers), TaskResult::Done, |_, _| {}));
            let failed: Vec<usize> = (0..10)
                .filter(|&i| !matches!(run.outcomes[i], Some(Ok(_))))
                .collect();
            assert_eq!(failed, vec![4, 9], "workers={workers}");
            assert_eq!(finished(&events, "chaos_injected"), Some(2));
        }
    }

    #[test]
    fn expired_study_budget_stops_dispatch_before_any_task() {
        let token = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
        let _g = token.arm();
        let run = run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(2)), 6);
        assert_eq!(run.outcomes.len(), 6);
        assert_eq!(completed(&run), 0);
        assert!(matches!(
            run.interrupted,
            Some(Interruption::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn exhausted_shared_allowance_interrupts_the_study() {
        let token = RunBudget::unlimited().with_newton_iterations(10).token();
        let _g = token.arm();
        let run = run_tasks(
            &indices(8),
            &PoolOptions::default(),
            |index| {
                // Each task charges 3 "iterations" against the study
                // allowance through its child token.
                for _ in 0..3 {
                    if let Err(why) = crate::budget::charge_newton_iteration() {
                        return TaskResult::Interrupted(why);
                    }
                }
                TaskResult::Done(index)
            },
            |_, _| {},
        );
        assert!(matches!(
            run.interrupted,
            Some(Interruption::NewtonIterations { limit: 10 })
        ));
        assert!(completed(&run) < 8);
        assert!(completed(&run) > 0);
    }

    #[test]
    fn chaos_cancel_stops_after_exact_completion_count() {
        let run = run_tasks(
            &indices(10),
            &PoolOptions {
                parallelism: Parallelism::Workers(3),
                chaos: PoolChaos::parse("cancel:4").expect("spec"),
            },
            TaskResult::Done,
            |_, _| {},
        );
        assert_eq!(run.interrupted, Some(Interruption::Cancelled));
        // In-flight tasks may still finish after the stop flag rises,
        // but at least the chaos threshold completed and not the whole
        // study.
        assert!(completed(&run) >= 4);
        assert!(completed(&run) < 10);
    }

    #[test]
    fn outcomes_align_with_unsorted_sparse_indices() {
        let order = [7, 2, 9, 4];
        let run = run_tasks(
            &order,
            &PoolOptions::with_parallelism(Parallelism::Workers(3)),
            |index| TaskResult::Done(index * 10),
            |_, _| {},
        );
        let values: Vec<Option<usize>> = run
            .outcomes
            .iter()
            .map(|o| o.as_ref().map(|r| *r.as_ref().expect("done")))
            .collect();
        assert_eq!(values, vec![Some(70), Some(20), Some(90), Some(40)]);

        // One worker drains in `indices` order, so a cancel after two
        // completions leaves exactly the last two positions unrun.
        let cancel = |workers| PoolOptions {
            parallelism: Parallelism::Workers(workers),
            chaos: PoolChaos::parse("cancel:2").expect("spec"),
        };
        for workers in [1, 2] {
            let seen = Mutex::new(Vec::new());
            let run = run_tasks(&order, &cancel(workers), TaskResult::Done, |index, _| {
                lock_or_recover(&seen).push(index);
            });
            assert_eq!(run.interrupted, Some(Interruption::Cancelled));
            let mut seen = seen.into_inner().unwrap_or_else(PoisonError::into_inner);
            seen.sort_unstable();
            let mut ran: Vec<usize> = order
                .iter()
                .zip(&run.outcomes)
                .filter_map(|(&index, o)| {
                    o.as_ref().map(|r| {
                        assert_eq!(r, &Ok(index));
                        index
                    })
                })
                .collect();
            ran.sort_unstable();
            assert_eq!(seen, ran, "workers={workers}");
            if workers == 1 {
                assert_eq!(ran, vec![2, 7]);
                assert!(run.outcomes[2..].iter().all(Option::is_none));
            }
        }
    }

    #[test]
    fn telemetry_merges_identically_for_any_worker_count() {
        let snapshot_for = |workers: usize| {
            let telemetry = Telemetry::with_sink(Arc::new(MemorySink::new()));
            let _g = telemetry.arm();
            let _ = run_tasks(
                &indices(12),
                &PoolOptions::with_parallelism(Parallelism::Workers(workers)),
                |index| {
                    remix_telemetry::counter_add("remix.test.pool.tasks", 1);
                    remix_telemetry::gauge_set("remix.test.pool.last_index", index as f64);
                    TaskResult::Done(())
                },
                |_, _| {},
            );
            telemetry.snapshot().without_timings()
        };
        let serial = snapshot_for(1);
        let parallel = snapshot_for(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.counter("remix.test.pool.tasks"), Some(12));
        // The gauge holds the highest index — the serial last-writer.
        assert_eq!(serial.gauge("remix.test.pool.last_index"), Some(11.0));
    }

    #[test]
    fn on_complete_fires_exactly_once_per_task() {
        let calls = AtomicU32::new(0);
        let seen = Mutex::new(Vec::new());
        let _ = run_tasks(
            &indices(9),
            &PoolOptions::with_parallelism(Parallelism::Workers(3)),
            TaskResult::Done,
            |index, outcome| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(outcome, &Ok(index));
                lock_or_recover(&seen).push(index);
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 9);
        let mut seen = seen.into_inner().unwrap_or_else(PoisonError::into_inner);
        seen.sort_unstable();
        assert_eq!(seen, indices(9));
    }

    #[test]
    fn worker_side_events_name_their_worker() {
        let workers = 2;
        let (run, events) = observed(|| {
            run_tasks(
                &indices(4),
                &PoolOptions {
                    parallelism: Parallelism::Workers(workers),
                    chaos: PoolChaos::parse("panic:2").expect("spec"),
                },
                TaskResult::Done,
                |_, _| {},
            )
        });
        assert_eq!(completed(&run), 4);
        // The caller-side lifecycle carries no worker id.
        for state in ["started", "finished"] {
            let [fields] = with_state(&events, state)[..] else {
                panic!("expected one {state} event");
            };
            assert_eq!(field(fields, "worker"), None, "{state}");
        }
        // Each worker announces itself once, under its own id.
        let mut up: Vec<u64> = with_state(&events, "worker_up")
            .into_iter()
            .map(|f| field(f, "worker").expect("worker field"))
            .collect();
        up.sort_unstable();
        assert_eq!(up, vec![0, 1]);
        // Events raised by a task carry the id of the worker that ran
        // it, in second position, before their own fields.
        for state in ["chaos_panic", "task_panicked"] {
            let raised = with_state(&events, state);
            assert_eq!(raised.len(), 2, "{state}");
            for fields in raised {
                assert_eq!(fields[1].0, "worker", "{state}");
                assert!(field(fields, "worker").is_some_and(|w| w < workers as u64));
                assert!(field(fields, "index").is_some_and(|i| i == 1 || i == 3));
            }
        }
    }

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let c = PoolChaos::parse("panic:7,steal:5:2,cancel:20").expect("parse");
        assert_eq!(c.panic_task_every, Some(7));
        assert_eq!(c.steal_delay_every, Some((5, 2)));
        assert_eq!(c.cancel_after, Some(20));
        assert!(c.is_active());
        assert!(!PoolChaos::parse("").expect("empty").is_active());
        for bad in ["panic", "panic:0", "steal:5", "meteor:3"] {
            assert!(PoolChaos::parse(bad).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn parallelism_from_env_honors_zero_unset_and_garbage() {
        std::env::remove_var(ENV_WORKERS);
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var(ENV_WORKERS, "0");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var(ENV_WORKERS, "3");
        assert_eq!(Parallelism::from_env(), Parallelism::Workers(3));
        std::env::set_var(ENV_WORKERS, "many");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::remove_var(ENV_WORKERS);
    }

    #[test]
    fn mutual_steals_under_delay_chaos_do_not_deadlock() {
        // Regression: stealing must not run while the stealer's own
        // deque guard is held (the original dispatch chained
        // `.or_else(steal)` onto the pop, keeping the statement-scoped
        // temporary locked through the steal — two workers out of own
        // work then deadlocked on each other's deques, and the steal
        // delay sleeping under the lock made the window wide enough to
        // wedge every chaos soak). Run in a helper thread so a
        // reintroduced deadlock fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = run_tasks(
                &indices(48),
                &PoolOptions {
                    parallelism: Parallelism::Workers(3),
                    chaos: PoolChaos::parse("steal:1:1").expect("spec"),
                },
                |index| {
                    // Uneven task durations drain the deques at
                    // different rates, forcing overlapping steals.
                    if index % 2 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    TaskResult::Done(index)
                },
                |_, _| {},
            );
            let _ = tx.send(completed(&run));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(completed) => assert_eq!(completed, 48),
            Err(_) => panic!("pool deadlocked while stealing under delay chaos"),
        }
    }

    #[test]
    fn steals_happen_and_results_stay_sorted() {
        // One worker's deque gets a slow task first; the other drains
        // the rest through steals. Regardless, outcomes come back in
        // `indices` order.
        let run = run_tasks(
            &indices(10),
            &PoolOptions::with_parallelism(Parallelism::Workers(2)),
            |index| {
                if index == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                TaskResult::Done(index)
            },
            |_, _| {},
        );
        let order: Vec<Option<Result<usize, String>>> = run.outcomes;
        assert_eq!(
            order,
            indices(10)
                .into_iter()
                .map(|i| Some(Ok(i)))
                .collect::<Vec<_>>()
        );
    }
}

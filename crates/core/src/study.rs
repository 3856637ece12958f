//! The one resumable study driver.
//!
//! The Monte-Carlo IIP2 study ([`crate::montecarlo::iip2_study_with`])
//! and the corner sweep ([`crate::corners::sweep_corners_resumable_with`])
//! share everything but their per-unit work: load the checkpoint, decode
//! what it holds, run only the missing indices on the work-stealing pool,
//! save after every completion, and hand back the contiguous prefix.
//! [`run_study`] is that plumbing; a study supplies a task closure and a
//! [`StudyRecord`] codec for its outcome type. The document itself is
//! [`crate::checkpoint`]'s version-3 format.

use crate::checkpoint::{load_study_any, save_study_v3, StudyOutcome};
use remix_analysis::ConvergenceTrace;
use remix_exec::{Interruption, PoolOptions, TaskContext, TaskOutcome, TaskResult};
use std::path::Path;

/// A study's per-unit outcome — solved, or failed with a trace — and its
/// codec to and from the flat [`StudyOutcome`] the checkpoint persists.
pub trait StudyRecord: Clone + Send {
    /// The unit's name in timeout traces (`"sample"`, `"corner"`).
    const UNIT: &'static str;

    /// The flat record persisted for this outcome.
    fn encode(&self) -> StudyOutcome;

    /// The solved outcome a persisted payload decodes to, or `None` when
    /// it no longer deserializes (the unit is then recomputed).
    fn decode_ok(values: &[f64]) -> Option<Self>;

    /// A failed unit carrying `trace`.
    fn failed(trace: ConvergenceTrace) -> Self;
}

/// What [`run_study`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRun<T> {
    /// Outcome of unit `i` at index `i`, up to the first unit not
    /// completed — the whole study unless [`interrupted`](Self::interrupted).
    pub outcomes: Vec<T>,
    /// Units evaluated by this invocation.
    pub computed: usize,
    /// Units restored from the checkpoint instead of recomputed.
    pub resumed: usize,
    /// Why dispatch stopped before every unit completed, when it did.
    pub interrupted: Option<Interruption>,
}

/// Maps a pool outcome into the study's vocabulary: a contained panic or
/// an exhausted per-unit deadline is a *failed unit* with a one-line
/// trace, never a dead study.
fn from_pool<T: StudyRecord>(outcome: &TaskOutcome<T>) -> T {
    match outcome {
        TaskOutcome::Done(done) => done.clone(),
        TaskOutcome::Failed(trace) => T::failed(ConvergenceTrace::new(trace.clone())),
        TaskOutcome::TimedOut {
            attempts,
            budget_ms,
        } => T::failed(ConvergenceTrace::new(format!(
            "{unit} timed out: {attempts} attempt(s) exhausted the {budget_ms} ms per-{unit} budget",
            unit = T::UNIT
        ))),
    }
}

/// Runs the `total` units of the study labelled `study` on the
/// work-stealing pool, resuming from and persisting to `checkpoint`.
///
/// A compatible checkpoint (same label and `config` fingerprint) is
/// loaded first; its records are decoded through [`StudyRecord`] and a
/// record that no longer decodes is recomputed. Only the missing indices
/// run, through `task`. Every completion — including a panic or timeout,
/// mapped to [`StudyRecord::failed`] — is handed to `on_outcome` and
/// then saved, so a kill mid-study resumes exactly the uncomputed set
/// even when completion ran out of order. A failed save is ignored:
/// losing resumability must not kill the study the checkpoint exists to
/// protect.
///
/// Under an interruption the returned prefix stops at the first
/// uncompleted unit, while the checkpoint retains *every* completed unit
/// for the resume.
pub fn run_study<T, F, O>(
    study: &str,
    config: &[(String, f64)],
    total: usize,
    checkpoint: Option<&Path>,
    pool: &PoolOptions,
    task: F,
    mut on_outcome: O,
) -> StudyRun<T>
where
    T: StudyRecord,
    F: Fn(&TaskContext) -> TaskResult<T> + Sync,
    O: FnMut(&T) + Send,
{
    let mut slots: Vec<Option<T>> = vec![None; total];
    let mut records: Vec<(usize, StudyOutcome)> = Vec::new();
    if let Some(path) = checkpoint {
        for (index, record) in load_study_any(path, study, config, total).unwrap_or_default() {
            let outcome = match &record {
                StudyOutcome::Ok(values) => T::decode_ok(values),
                StudyOutcome::Failed(trace) => {
                    Some(T::failed(ConvergenceTrace::new(trace.clone())))
                }
            };
            // The record is re-saved as loaded: re-encoding a restored
            // failure would wrap its summary in another one per resume.
            if let Some(outcome) = outcome {
                slots[index] = Some(outcome);
                records.push((index, record));
            }
        }
    }
    let resumed = records.len();
    let todo: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let run = remix_exec::run_tasks(&todo, pool, task, |index, outcome| {
        let outcome = from_pool(outcome);
        on_outcome(&outcome);
        records.push((index, outcome.encode()));
        if let Some(path) = checkpoint {
            let _ = save_study_v3(path, study, config, total, &records);
        }
    });
    for (index, outcome) in &run.outcomes {
        slots[*index] = Some(from_pool(outcome));
    }
    StudyRun {
        outcomes: slots.into_iter().map_while(|slot| slot).collect(),
        computed: run.outcomes.len(),
        resumed,
        interrupted: run.interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::mc_study_config;
    use crate::montecarlo::{MismatchConfig, SampleOutcome};

    /// The runner on the Monte-Carlo codec: unit 1 fails, unit 2
    /// panics, everything else solves to its index.
    fn run(
        path: Option<&Path>,
        mm: &MismatchConfig,
        total: usize,
    ) -> (StudyRun<SampleOutcome>, Vec<usize>) {
        let ran = std::sync::Mutex::new(Vec::new());
        let run = run_study(
            "mc_iip2",
            &mc_study_config(mm),
            total,
            path,
            &PoolOptions::default(),
            |ctx| {
                ran.lock().expect("lock").push(ctx.index);
                match ctx.index {
                    1 => TaskResult::Failed("no convergence".into()),
                    2 => panic!("unit 2 blew up"),
                    i => TaskResult::Done(SampleOutcome::Ok(i as f64)),
                }
            },
            |_| {},
        );
        let mut ran = ran.into_inner().expect("lock");
        ran.sort_unstable();
        (run, ran)
    }

    #[test]
    fn runner_resumes_only_missing_units_and_maps_pool_failures() {
        let path = std::env::temp_dir().join(format!("remix_study_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mm = MismatchConfig::default();
        let (first, ran) = run(Some(&path), &mm, 4);
        assert_eq!(ran, vec![0, 1, 2, 3]);
        assert_eq!((first.computed, first.resumed), (4, 0));
        assert!(first.interrupted.is_none());
        assert_eq!(first.outcomes[0], SampleOutcome::Ok(0.0));
        let trace = |i: usize| first.outcomes[i].trace().map(|t| t.analysis.clone());
        assert_eq!(trace(1).as_deref(), Some("no convergence"));
        assert!(trace(2).is_some_and(|t| t.starts_with("panic:")));

        // Everything is restored; growing the study runs only the tail,
        // and the restored records are saved back unchanged.
        let saved = |total| load_study_any(&path, "mc_iip2", &mc_study_config(&mm), total);
        let before = saved(4).expect("first checkpoint");
        let (second, ran) = run(Some(&path), &mm, 6);
        assert_eq!(ran, vec![4, 5]);
        assert_eq!((second.computed, second.resumed), (2, 4));
        assert_eq!(second.outcomes[0], first.outcomes[0]);
        assert_eq!(saved(4), Some(before));

        // Another seed's checkpoint is not trusted.
        let other = MismatchConfig {
            seed: mm.seed + 1,
            ..mm
        };
        assert_eq!(run(Some(&path), &other, 2).1, vec![0, 1]);

        // A record that no longer decodes is recomputed.
        let records = vec![
            (0, StudyOutcome::Ok(vec![])),
            (3, StudyOutcome::Ok(vec![3.0])),
        ];
        save_study_v3(&path, "mc_iip2", &mc_study_config(&mm), 4, &records).expect("save");
        let (third, ran) = run(Some(&path), &mm, 4);
        assert_eq!(ran, vec![0, 1, 2]);
        assert_eq!((third.computed, third.resumed), (3, 1));
        assert_eq!(third.outcomes.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn runner_timeout_trace_names_the_unit() {
        let outcome: TaskOutcome<SampleOutcome> = TaskOutcome::TimedOut {
            attempts: 2,
            budget_ms: 50,
        };
        assert_eq!(
            from_pool(&outcome).trace().map(|t| t.analysis.as_str()),
            Some("sample timed out: 2 attempt(s) exhausted the 50 ms per-sample budget")
        );
    }
}

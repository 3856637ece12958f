//! Panic containment: the one `catch_unwind` in the stack.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `body`, turning a panic into `Err(message)` instead of letting
/// it unwind past the caller.
///
/// Every job boundary in the stack goes through here: each pool
/// attempt ([`run_tasks`](crate::run_tasks)), each bench binary body
/// and each served job. Callers arm their budget and telemetry with the
/// usual RAII guards; a guard armed *inside* `body` is restored by the
/// unwind itself, so nothing leaks into the next job on the thread.
pub fn contain<R>(body: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| panic_message(payload.as_ref()))
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{active_token, RunBudget};

    #[test]
    fn value_comes_back_when_nothing_panics() {
        assert_eq!(contain(|| 6 * 7), Ok(42));
    }

    #[test]
    fn str_payload_becomes_the_message() {
        assert_eq!(
            contain(|| -> u8 { panic!("boom") }),
            Err("boom".to_string())
        );
    }

    #[test]
    fn string_payload_becomes_the_message() {
        let sample = 3;
        assert_eq!(
            contain(|| -> u8 { panic!("sample {sample} exploded") }),
            Err("sample 3 exploded".to_string())
        );
    }

    #[test]
    fn non_string_payload_is_named_as_such() {
        assert_eq!(
            contain(|| -> u8 { std::panic::panic_any(17_u32) }),
            Err("non-string panic payload".to_string())
        );
    }

    #[test]
    fn budget_armed_inside_the_body_is_restored_by_the_unwind() {
        // No outer budget: nothing is armed again after the unwind.
        assert!(active_token().is_none());
        let result = contain(|| -> u8 {
            let _guard = RunBudget::unlimited().token().arm();
            assert!(active_token().is_some());
            panic!("mid-job panic with a budget armed");
        });
        assert!(result.is_err());
        assert!(active_token().is_none());

        // An outer budget is armed again, untouched by the inner
        // body's charges.
        let outer = RunBudget::unlimited().with_newton_iterations(5).token();
        let _outer_guard = outer.arm();
        let before = active_token().map(|t| t.newton_spent());
        let result = contain(|| -> u8 {
            let inner = RunBudget::unlimited().token();
            let _inner_guard = inner.arm();
            for _ in 0..3 {
                assert!(crate::budget::charge_newton_iteration().is_ok());
            }
            panic!("mid-job panic with an inner budget armed");
        });
        assert!(result.is_err());
        let after = active_token().map(|t| t.newton_spent());
        assert_eq!(before, Some(0));
        assert_eq!(after, before);
        assert!(crate::budget::charge_newton_iteration().is_ok());
        assert_eq!(outer.newton_spent(), 1);
    }
}

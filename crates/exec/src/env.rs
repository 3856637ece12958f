//! Typed environment-variable parsing.
//!
//! Knobs like `REMIX_BENCH_DEADLINE_MS` and the `REMIX_SERVE_*` family
//! used to be read with `.ok().and_then(|v| v.parse().ok())` — a set
//! but garbled value was silently indistinguishable from an unset one,
//! so an operator typo (`REMIX_BENCH_DEADLINE_MS=5s`) quietly ran an
//! unbounded job. [`env_u64`] keeps the three outcomes distinct, and
//! [`env_u64_or_warn`] applies the fallback *explicitly*: a malformed
//! value emits a typed `remix.exec.env` warning event, bumps
//! `remix.exec.env.malformed`, and prints one stderr note.

use std::fmt;

/// Outcome of reading one `u64` environment knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvValue {
    /// The variable is not set (or not unicode).
    Missing,
    /// The variable parsed.
    Value(u64),
    /// The variable is set but does not parse as `u64`; the raw text
    /// is kept for the warning.
    Malformed {
        /// The unparsable text as found in the environment.
        raw: String,
    },
}

impl fmt::Display for EnvValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvValue::Missing => write!(f, "unset"),
            EnvValue::Value(v) => write!(f, "{v}"),
            EnvValue::Malformed { raw } => write!(f, "malformed ({raw:?})"),
        }
    }
}

/// Reads `var` as a `u64`, keeping "unset" and "set but unparsable"
/// distinct.
pub fn env_u64(var: &str) -> EnvValue {
    match std::env::var(var) {
        Err(_) => EnvValue::Missing,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(v) => EnvValue::Value(v),
            Err(_) => EnvValue::Malformed { raw },
        },
    }
}

/// Reads `var` as a `u64` with an explicit fallback: a malformed value
/// is surfaced (typed warning event + counter + one stderr line) and
/// `default` is applied, never silently.
///
/// `default = None` means "knob disabled when absent" (the common case
/// for optional deadlines).
pub fn env_u64_or_warn(var: &str, default: Option<u64>) -> Option<u64> {
    match env_u64(var) {
        EnvValue::Missing => default,
        EnvValue::Value(v) => Some(v),
        EnvValue::Malformed { raw } => {
            warn_malformed(var, &raw, default);
            default
        }
    }
}

/// Records one malformed-env warning: counter, typed event (when a
/// sink is observing), and a stderr note so unobserved runs still
/// surface the fallback.
pub fn warn_malformed(var: &str, raw: &str, fallback: Option<u64>) {
    remix_telemetry::counter_add(remix_telemetry::names::EXEC_ENV_MALFORMED, 1);
    let fallback_text = fallback.map_or_else(|| "disabled".to_string(), |v| v.to_string());
    if remix_telemetry::is_observing() {
        remix_telemetry::event(
            remix_telemetry::names::EXEC_ENV,
            vec![
                ("var", remix_telemetry::FieldValue::from(var.to_string())),
                ("raw", remix_telemetry::FieldValue::from(raw.to_string())),
                (
                    "fallback",
                    remix_telemetry::FieldValue::from(fallback_text.clone()),
                ),
            ],
        );
    }
    eprintln!("warning: {var}={raw:?} does not parse as u64; falling back to {fallback_text}");
}

/// Splits a chaos spec — comma-separated clauses `name:<n>[:<n>]` —
/// into each clause's fault name and periods, `grammar` giving each known
/// name with its number of periods. Both chaos grammars, the pool's
/// [`PoolChaos`](crate::PoolChaos) and the server's, are read through it.
///
/// # Errors
///
/// A message prefixed by `what` ("chaos", "pool chaos") naming the first
/// clause that is unknown or whose period is missing, not an integer, or 0.
pub fn chaos_clauses<'a>(
    spec: &str,
    what: &str,
    grammar: &[(&'a str, usize)],
) -> Result<Vec<(&'a str, [u64; 2])>, String> {
    let mut clauses = Vec::new();
    for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
        let parts: Vec<&str> = clause.trim().split(':').collect();
        let Some(&(name, count)) = grammar.iter().find(|(name, _)| *name == parts[0]) else {
            return Err(format!("unknown {what} clause '{clause}'"));
        };
        let mut periods = [0; 2];
        for (idx, period) in periods.iter_mut().enumerate().take(count) {
            *period = parts
                .get(idx + 1)
                .ok_or_else(|| format!("{what} clause '{clause}': missing period"))?
                .parse()
                .map_err(|_| format!("{what} clause '{clause}': period must be an integer"))?;
            if *period == 0 {
                return Err(format!("{what} clause '{clause}': period must be >= 1"));
            }
        }
        clauses.push((name, periods));
    }
    Ok(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_telemetry::{MemorySink, Telemetry};
    use std::sync::Arc;

    #[test]
    fn missing_value_and_malformed_are_distinct() {
        // Var names are unique per assertion: the process environment
        // is shared across the test harness's threads.
        assert_eq!(env_u64("REMIX_TEST_ENV_UNSET_XYZ"), EnvValue::Missing);
        std::env::set_var("REMIX_TEST_ENV_OK", "750");
        assert_eq!(env_u64("REMIX_TEST_ENV_OK"), EnvValue::Value(750));
        std::env::set_var("REMIX_TEST_ENV_BAD", "5s");
        assert_eq!(
            env_u64("REMIX_TEST_ENV_BAD"),
            EnvValue::Malformed { raw: "5s".into() }
        );
    }

    #[test]
    fn malformed_falls_back_with_typed_warning_event() {
        std::env::set_var("REMIX_TEST_ENV_WARN", "not-a-number");
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let _guard = tel.arm();
        assert_eq!(env_u64_or_warn("REMIX_TEST_ENV_WARN", Some(42)), Some(42));
        assert_eq!(env_u64_or_warn("REMIX_TEST_ENV_WARN", None), None);
        let events: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == remix_telemetry::names::EXEC_ENV)
            .collect();
        assert_eq!(events.len(), 2, "each fallback emits one typed event");
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter(remix_telemetry::names::EXEC_ENV_MALFORMED),
            Some(2)
        );
    }

    #[test]
    fn well_formed_and_missing_values_do_not_warn() {
        std::env::set_var("REMIX_TEST_ENV_CLEAN", "9");
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let _guard = tel.arm();
        assert_eq!(env_u64_or_warn("REMIX_TEST_ENV_CLEAN", None), Some(9));
        assert_eq!(
            env_u64_or_warn("REMIX_TEST_ENV_ABSENT_XYZ", Some(3)),
            Some(3)
        );
        assert!(sink.events().is_empty());
    }
}

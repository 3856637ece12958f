//! Deterministic chaos: injected connection drops, torn response
//! frames, delayed reads, and worker panics — on fixed periodic
//! schedules, so a failing soak run replays exactly.
//!
//! The spec grammar (CLI flag `--chaos` or `REMIX_SERVE_CHAOS`):
//!
//! ```text
//! drop:<n>[,torn:<n>][,delay:<n>:<ms>][,panic:<n>]
//! ```
//!
//! `drop:7` closes every 7th accepted connection before reading;
//! `torn:11` truncates every 11th response frame mid-write and closes;
//! `delay:5:20` sleeps 20 ms before reading every 5th frame;
//! `panic:13` panics inside every 13th executed job (the worker's
//! `remix_exec::contain` must contain it). Every injection counts on
//! `remix.serve.chaos.injected`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Parsed chaos schedule; all faults off by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Close every Nth accepted connection unserved.
    pub drop_conn_every: Option<u64>,
    /// Truncate every Nth response frame mid-write, then close.
    pub tear_frame_every: Option<u64>,
    /// Sleep `.1` ms before reading every `.0`th frame.
    pub delay_read_every: Option<(u64, u64)>,
    /// Panic inside every Nth executed job.
    pub panic_job_every: Option<u64>,
}

impl ChaosConfig {
    /// Parses the spec grammar above. Empty input means no chaos.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut config = ChaosConfig::default();
        let grammar = [("drop", 1), ("torn", 1), ("panic", 1), ("delay", 2)];
        for (name, [n, ms]) in remix_exec::chaos_clauses(spec, "chaos", &grammar)? {
            match name {
                "drop" => config.drop_conn_every = Some(n),
                "torn" => config.tear_frame_every = Some(n),
                "panic" => config.panic_job_every = Some(n),
                _ => config.delay_read_every = Some((n, ms)),
            }
        }
        Ok(config)
    }

    /// `true` when any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self != &ChaosConfig::default()
    }
}

/// Live chaos state: one deterministic counter per fault family.
#[derive(Debug, Default)]
pub struct Chaos {
    config: ChaosConfig,
    conns: AtomicU64,
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    jobs: AtomicU64,
}

fn fires(counter: &AtomicU64, period: Option<u64>) -> bool {
    // Counters only sequence a deterministic schedule; the count must
    // be globally consistent, so keep full ordering.
    let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
    let fired = period.is_some_and(|p| n.is_multiple_of(p));
    if fired {
        remix_telemetry::counter_add(remix_telemetry::names::SERVE_CHAOS_INJECTED, 1);
    }
    fired
}

impl Chaos {
    /// New chaos state for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Chaos {
            config,
            ..Chaos::default()
        }
    }

    /// Should this accepted connection be dropped unserved?
    pub fn drop_connection(&self) -> bool {
        self.config.drop_conn_every.is_some() && fires(&self.conns, self.config.drop_conn_every)
    }

    /// Should this outgoing response frame be torn mid-write?
    pub fn tear_frame(&self) -> bool {
        self.config.tear_frame_every.is_some()
            && fires(&self.frames_out, self.config.tear_frame_every)
    }

    /// Delay to apply before reading the next frame, when scheduled.
    pub fn read_delay(&self) -> Option<Duration> {
        let (period, ms) = self.config.delay_read_every?;
        if fires(&self.frames_in, Some(period)) {
            Some(Duration::from_millis(ms))
        } else {
            None
        }
    }

    /// Should this job panic mid-execution?
    pub fn panic_job(&self) -> bool {
        self.config.panic_job_every.is_some() && fires(&self.jobs, self.config.panic_job_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let c = ChaosConfig::parse("drop:7,torn:11,delay:5:20,panic:13").expect("parse");
        assert_eq!(c.drop_conn_every, Some(7));
        assert_eq!(c.tear_frame_every, Some(11));
        assert_eq!(c.delay_read_every, Some((5, 20)));
        assert_eq!(c.panic_job_every, Some(13));
        assert!(c.is_active());
    }

    #[test]
    fn empty_spec_is_no_chaos() {
        let c = ChaosConfig::parse("").expect("parse");
        assert!(!c.is_active());
        let chaos = Chaos::new(c);
        for _ in 0..100 {
            assert!(!chaos.drop_connection());
            assert!(!chaos.tear_frame());
            assert!(!chaos.panic_job());
            assert!(chaos.read_delay().is_none());
        }
    }

    #[test]
    fn malformed_specs_are_errors() {
        for bad in ["drop", "drop:zero", "drop:0", "meteor:3", "delay:5"] {
            assert!(ChaosConfig::parse(bad).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_periodic() {
        let chaos = Chaos::new(ChaosConfig::parse("panic:3").expect("parse"));
        let fired: Vec<bool> = (0..9).map(|_| chaos.panic_job()).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
    }
}

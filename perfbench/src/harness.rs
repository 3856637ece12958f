//! The closed loop shared by the workloads, set-up timing, the program
//! telemetry read-out, and the metric catalog the result line is built
//! from.

use crate::stats;
use crate::trace::Tracer;
use remix_telemetry::{MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in `BENCHMARK.json` order. Unless the unit
/// says otherwise a count or time is per op of the traced half; a
/// workload that never reaches a layer reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("numerics.lu.factorizations", "count"),
    ("numerics.lu.fill_nnz", "count"),
    ("circuit.unknowns", "count"),
    ("analysis.tran.steps", "count"),
    ("analysis.newton_iters", "count"),
    ("analysis.attempts.tran_step", "count"),
    ("analysis.tran_ms", "ms"),
    ("analysis.stamp.assemble_us", "us"),
    ("numerics.csr_build_us", "us"),
    ("numerics.lu.factor_us", "us"),
    ("numerics.lu.solve_us", "us"),
    ("numerics.lu.factor_share", "ratio"),
    ("analysis.attempts.direct", "count"),
    ("analysis.attempts.gmin_ladder", "count"),
    ("analysis.attempts.source_ramp", "count"),
    ("analysis.attempts.pseudo_transient", "count"),
    ("analysis.direct_ratio", "ratio"),
    ("analysis.op_ms", "ms"),
    ("analysis.op.calls", "count"),
    ("analysis.dcsweep_ms", "ms"),
    ("analysis.ac_ms", "ms"),
    ("analysis.acnoise_ms", "ms"),
    ("core.corners.sweep_ms", "ms"),
    ("core.montecarlo.study_ms", "ms"),
    ("core.montecarlo.yield", "ratio"),
    ("exec.pool.run_ms", "ms"),
    ("exec.pool.overhead_ms", "ms"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.checkpoint.save_ms", "ms"),
    ("core.checkpoint.load_ms", "ms"),
    ("serve.hit_ms.p50", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.wait_ms.p90", "ms"),
    ("serve.cache.hits", "count/run"),
    ("serve.cache.misses", "count/run"),
    ("serve.cache.joins", "count/run"),
    ("serve.hit_ratio", "ratio"),
    ("serve.sheds", "count/run"),
    ("serve.retries", "count/run"),
    ("serve.jobs_failed", "count/run"),
    ("serve.protocol.roundtrip_us", "us"),
    ("serve.miss_ms.p50", "ms"),
    ("serve.miss_ms.p90", "ms"),
    ("circuit.spice.parse_ms", "ms"),
    ("lint.deck_ms", "ms"),
    ("circuit.build_ms", "ms"),
    ("setup.inputs_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.server_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("self.op_ms", "ms"),
    ("self.circuit.build_ms", "ms"),
    ("self.analysis.transient_ms", "ms"),
    ("self.core.corners.sweep_ms", "ms"),
    ("self.core.montecarlo.study_ms", "ms"),
    ("self.serve.roundtrip_ms", "ms"),
    ("self.check_ms", "ms"),
];

/// Metrics computed rather than measured: a probe time multiplied by a
/// count, or the size results render to.
pub const COMPUTED: &[&str] = &["numerics.lu.factor_share", "core.checkpoint.bytes"];

/// Per-layer values gathered by a traced run: name → (value, samples).
pub type Layers = BTreeMap<&'static str, (f64, usize)>;

/// How long a run of the loop lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Keep starting passes until this much time has gone by...
    pub budget_s: f64,
    /// ...and at least this many ops have run.
    pub min_ops: usize,
    /// Or run exactly this many passes, ignoring the two above.
    pub passes: Option<usize>,
    /// Id of the first op (op ids run on across the halves of a run).
    pub first_op: u64,
}

impl Plan {
    /// Whether another pass starts after `passes` passes and `ops` ops
    /// took `elapsed_s`.
    pub fn another_pass(&self, passes: usize, ops: usize, elapsed_s: f64) -> bool {
        match self.passes {
            Some(n) => passes < n,
            None => passes == 0 || elapsed_s < self.budget_s || ops < self.min_ops,
        }
    }
}

/// What one run of the loop measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Latency of each op's calls into the program (ms), in op order.
    pub lat_ms: Vec<f64>,
    pub failed: u64,
    pub wall_s: f64,
    pub passes: usize,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Appends a later run of the loop.
    pub fn absorb(&mut self, later: Measured) {
        self.lat_ms.extend(later.lat_ms);
        self.failed += later.failed;
        self.wall_s += later.wall_s;
        self.passes += later.passes;
    }
}

/// A workload as the loop sees it: a seeded pass of ops.
pub trait Workload {
    fn name(&self) -> &'static str;
    fn seed(&self) -> u64;
    fn pass_len(&self) -> usize;
    /// Runs op `op` (slot `slot` of its pass): the latency of its calls
    /// into the program (ms) and the verdict of its output check.
    fn run_op(&mut self, slot: usize, op: u64, tracer: &mut Tracer) -> (f64, Result<(), String>);
}

/// Reports a failed op with what is needed to replay it.
pub fn report_failure(workload: &str, seed: u64, op: u64, slot: usize, why: &str) {
    eprintln!("op failed: workload {workload} seed {seed} op {op} slot {slot}: {why}");
}

/// One client, closed loop: each op starts when the last one ended.
pub fn closed_loop(w: &mut dyn Workload, plan: Plan, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let started = Instant::now();
    let len = w.pass_len();
    while plan.another_pass(m.passes, m.lat_ms.len(), started.elapsed().as_secs_f64()) {
        for slot in 0..len {
            let op = plan.first_op + m.lat_ms.len() as u64;
            let (ms, verdict) = w.run_op(slot, op, tracer);
            m.lat_ms.push(ms);
            if let Err(why) = verdict {
                m.failed += 1;
                report_failure(w.name(), w.seed(), op, slot, &why);
            }
        }
        m.passes += 1;
    }
    m.wall_s = started.elapsed().as_secs_f64();
    m
}

/// Set-up phase timer: each phase is timed and, when tracing, spanned
/// under a `setup` root.
pub struct Phases<'a> {
    tracer: &'a mut Tracer,
    times: Vec<(&'static str, f64)>,
}

impl Phases<'_> {
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.tracer.enter(name);
        let t = Instant::now();
        let out = f();
        self.times.push((name, t.elapsed().as_secs_f64() * 1e3));
        self.tracer.exit(span);
        out
    }
}

/// Set-ups at the start of each segment of a timed run, and of a traced
/// run; the last is kept and the others discarded.
pub const SETUPS_PER_SEGMENT: usize = 3;

/// Set-up times gathered across a run.
#[derive(Debug, Default)]
pub struct SetupTimes {
    totals_s: Vec<f64>,
    phase_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl SetupTimes {
    /// Median set-up time (s) and the number of set-ups.
    pub fn median_s(&self) -> (f64, usize) {
        (stats::median(&self.totals_s), self.totals_s.len())
    }

    /// Median time of each phase (ms), as `setup.<phase>_ms` layers.
    pub fn layers(&self) -> Layers {
        self.phase_ms
            .iter()
            .map(|(name, v)| (phase_metric(name), (stats::median(v), v.len())))
            .collect()
    }
}

/// Runs `setup` [`SETUPS_PER_SEGMENT`] times, recording each in
/// `times`, and keeps the last result, handing the earlier ones to
/// `discard`.
pub fn repeated_setup<T>(
    tracer: &mut Tracer,
    times: &mut SetupTimes,
    mut setup: impl FnMut(&mut Phases<'_>) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_SEGMENT {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let root = tracer.enter("setup");
        let t = Instant::now();
        let mut phases = Phases {
            tracer: &mut *tracer,
            times: Vec::new(),
        };
        let value = setup(&mut phases)?;
        let phase_times = std::mem::take(&mut phases.times);
        times.totals_s.push(t.elapsed().as_secs_f64());
        tracer.exit(root);
        for (name, ms) in phase_times {
            times.phase_ms.entry(name).or_default().push(ms);
        }
        last = Some(value);
    }
    last.ok_or_else(|| "set-up never ran".to_string())
}

/// A timed run: segments, each [`SETUPS_PER_SEGMENT`] fresh set-ups and
/// then `passes` whole passes on the last one, which `finish` checks
/// and releases. Segments start until `budget_s` is spent (to the
/// nearest segment) and at least `min_ops` ops ran. Set-ups are spread
/// over the whole run, so their median sees the same machine as the
/// ops do, and no workload instance outlives a fixed number of passes.
pub fn segmented<W: Workload>(
    tracer: &mut Tracer,
    budget_s: f64,
    min_ops: usize,
    passes: usize,
    mut setup: impl FnMut(&mut Phases<'_>) -> Result<W, String>,
    mut finish: impl FnMut(W) -> bool,
) -> Result<(Measured, SetupTimes, bool), String> {
    let mut times = SetupTimes::default();
    let mut total = Measured::default();
    let mut ok = true;
    let started = Instant::now();
    let mut segment_s = 0.0;
    while total.passes == 0
        || total.lat_ms.len() < min_ops
        || started.elapsed().as_secs_f64() + segment_s / 2.0 < budget_s
    {
        let t = Instant::now();
        let mut w = repeated_setup(tracer, &mut times, &mut setup, |w| {
            finish(w);
        })?;
        let plan = Plan {
            budget_s: 0.0,
            min_ops: 0,
            passes: Some(passes),
            first_op: total.attempted(),
        };
        let m = closed_loop(&mut w, plan, tracer);
        ok &= finish(w);
        total.absorb(m);
        segment_s = t.elapsed().as_secs_f64();
    }
    Ok((total, times, ok))
}

/// `setup.inputs` → `setup.inputs_ms`.
fn phase_metric(phase: &'static str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix("_ms") == Some(phase))
        .unwrap_or("setup.inputs_ms")
}

/// A flattened program telemetry snapshot that two can be subtracted.
#[derive(Debug, Default, Clone)]
pub struct Telem {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, (u64, u64)>,
}

impl Telem {
    pub fn from_snapshot(s: &MetricsSnapshot) -> Telem {
        let mut t = Telem::default();
        for m in &s.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    t.counters.insert(m.name.clone(), *v);
                }
                MetricValue::Gauge(v) => {
                    t.gauges.insert(m.name.clone(), *v);
                }
                MetricValue::Histogram(_) => {}
            }
        }
        for s in &s.spans {
            t.spans.insert(s.name.clone(), (s.count, s.total_ns));
        }
        t
    }

    /// What happened between `earlier` and `self`; gauges keep their
    /// latest value.
    pub fn since(&self, earlier: &Telem) -> Telem {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, (n, ns))| {
                let (n0, ns0) = earlier.spans.get(k).copied().unwrap_or_default();
                (k.clone(), (n - n0, ns - ns0))
            })
            .collect();
        Telem {
            counters,
            gauges: self.gauges.clone(),
            spans,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// (count, total ns) of a span name.
    pub fn span(&self, name: &str) -> (u64, u64) {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of a span name (ms per span).
    pub fn span_mean_ms(&self, name: &str) -> (f64, usize) {
        let (n, ns) = self.span(name);
        (ns as f64 / 1e6 / (n.max(1)) as f64, n as usize)
    }
}

/// The layer metrics every workload reads off the program's own
/// solver and analysis counters, per op.
pub fn analysis_layers(t: &Telem, ops: usize, layers: &mut Layers) {
    use remix_telemetry::names as n;
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    for (metric, name) in [
        ("numerics.lu.factorizations", n::LU_FACTORIZATIONS),
        ("analysis.newton_iters", n::CONVERGENCE_ITERATIONS),
        (
            "analysis.attempts.tran_step",
            n::CONVERGENCE_ATTEMPTS_TRAN_STEP,
        ),
        ("analysis.attempts.direct", n::CONVERGENCE_ATTEMPTS_DIRECT),
        (
            "analysis.attempts.gmin_ladder",
            n::CONVERGENCE_ATTEMPTS_GMIN_LADDER,
        ),
        (
            "analysis.attempts.source_ramp",
            n::CONVERGENCE_ATTEMPTS_SOURCE_RAMP,
        ),
        (
            "analysis.attempts.pseudo_transient",
            n::CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT,
        ),
    ] {
        layers.insert(metric, (per_op(t.counter(name)), ops));
    }
    let dc_attempts: u64 = [
        n::CONVERGENCE_ATTEMPTS_DIRECT,
        n::CONVERGENCE_ATTEMPTS_GMIN_LADDER,
        n::CONVERGENCE_ATTEMPTS_SOURCE_RAMP,
        n::CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT,
    ]
    .iter()
    .map(|name| t.counter(name))
    .sum();
    layers.insert(
        "analysis.direct_ratio",
        (
            t.counter(n::CONVERGENCE_ATTEMPTS_DIRECT) as f64 / dc_attempts.max(1) as f64,
            dc_attempts as usize,
        ),
    );
    layers.insert("numerics.lu.fill_nnz", (t.gauge(n::LU_FILL_NNZ), 1));
    let (op_calls, _) = t.span(n::ANALYSIS_OP);
    layers.insert("analysis.op.calls", (per_op(op_calls), ops));
    for (metric, name) in [
        ("analysis.op_ms", n::ANALYSIS_OP),
        ("analysis.tran_ms", n::ANALYSIS_TRAN),
        ("analysis.dcsweep_ms", n::ANALYSIS_DCSWEEP),
        ("analysis.ac_ms", n::ANALYSIS_AC),
        ("analysis.acnoise_ms", n::ANALYSIS_ACNOISE),
        ("exec.pool.run_ms", n::EXEC_POOL_RUN),
    ] {
        layers.insert(metric, t.span_mean_ms(name));
    }
}

/// Self time per op of each benchmark-side op span.
pub fn self_time_layers(tracer: &Tracer, ops: usize, layers: &mut Layers) {
    let roll = tracer.rollup();
    for (metric, span) in [
        ("self.op_ms", "op"),
        ("self.circuit.build_ms", "circuit.build"),
        ("self.analysis.transient_ms", "analysis.transient"),
        ("self.core.corners.sweep_ms", "core.corners.sweep"),
        ("self.core.montecarlo.study_ms", "core.montecarlo.study"),
        ("self.serve.roundtrip_ms", "serve.roundtrip"),
        ("self.check_ms", "check"),
    ] {
        let (n, _, self_ns) = roll.get(span).copied().unwrap_or_default();
        layers.insert(
            metric,
            (self_ns as f64 / 1e6 / ops.max(1) as f64, n as usize),
        );
    }
}

/// Mean total duration per op of a benchmark-side span (ms).
pub fn span_ms_per_op(tracer: &Tracer, span: &str, ops: usize) -> (f64, usize) {
    let (n, total, _) = tracer.rollup().get(span).copied().unwrap_or_default();
    (total as f64 / 1e6 / ops.max(1) as f64, n as usize)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// End-to-end metrics of an untraced run, given the median set-up time
/// and the number of set-ups.
pub fn end_to_end(setup: (f64, usize), m: &Measured) -> Result<Vec<Metric>, String> {
    let sorted = stats::sorted(&m.lat_ms);
    let (p50, _) = stats::quantile(&sorted, 0.5).ok_or("no ops ran")?;
    let p90 = stats::p90(&sorted)?;
    let n = m.lat_ms.len();
    let values = [
        setup,
        (m.ops_per_s(), n),
        (p50, n),
        (p90, n),
        (stats::peak_rss_mb(), 1),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect())
}

/// The full per-layer catalog; layers the run never reached read 0.
pub fn per_layer(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = layers.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit,
                samples,
            }
        })
        .collect()
}

/// Prints the human-readable table (each metric with its unit and
/// sample count) and then, as the last line, the result object.
pub fn print_result(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) {
    for m in metrics {
        let computed = if COMPUTED.contains(&m.name) {
            "  (computed)"
        } else {
            ""
        };
        println!(
            "# {:<36} {:>16} {:<9} n={}{computed}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    println!("{}", result_json(attempted, failed, correct, metrics));
}

pub fn result_json(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        ops: Vec<u64>,
        fail_slot: Option<usize>,
    }

    impl Workload for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn seed(&self) -> u64 {
            0
        }
        fn pass_len(&self) -> usize {
            7
        }
        fn run_op(&mut self, slot: usize, op: u64, _: &mut Tracer) -> (f64, Result<(), String>) {
            self.ops.push(op);
            let verdict = if self.fail_slot == Some(slot) {
                Err("corrupted".into())
            } else {
                Ok(())
            };
            (1.0, verdict)
        }
    }

    #[test]
    fn runs_cover_whole_passes() {
        let mut w = Counting {
            ops: Vec::new(),
            fail_slot: None,
        };
        let mut t = Tracer::new(Instant::now());
        let plan = Plan {
            budget_s: 0.0,
            min_ops: 30,
            passes: None,
            first_op: 0,
        };
        let m = closed_loop(&mut w, plan, &mut t);
        assert_eq!(m.lat_ms.len(), 35, "30 ops round up to five passes of 7");
        assert_eq!(m.passes, 5);
        let exact = Plan {
            passes: Some(2),
            first_op: 35,
            ..plan
        };
        let m = closed_loop(&mut w, exact, &mut t);
        assert_eq!(m.lat_ms.len(), 14);
        assert_eq!(w.ops.last(), Some(&48), "op ids run on across halves");
    }

    #[test]
    fn segments_set_up_afresh_and_cover_whole_passes() {
        let (mut setups, mut finished, mut ops) = (0, 0, Vec::new());
        let mut t = Tracer::new(Instant::now());
        let (m, times, ok) = segmented(
            &mut t,
            0.0,
            30,
            2,
            |_| {
                setups += 1;
                Ok(Counting {
                    ops: Vec::new(),
                    fail_slot: None,
                })
            },
            |w| {
                finished += 1;
                ops.extend(w.ops);
                true
            },
        )
        .expect("runs");
        assert!(ok);
        assert_eq!(
            (m.passes, m.attempted()),
            (6, 42),
            "30 ops round up to three segments of two passes of 7"
        );
        assert_eq!(times.median_s().1, 3 * SETUPS_PER_SEGMENT);
        assert_eq!((setups, finished), (9, 9), "every set-up is released");
        assert_eq!(ops, (0..42).collect::<Vec<u64>>(), "op ids run on");
    }

    #[test]
    fn failed_checks_are_counted_not_fatal() {
        let mut w = Counting {
            ops: Vec::new(),
            fail_slot: Some(3),
        };
        let mut t = Tracer::new(Instant::now());
        let plan = Plan {
            budget_s: 0.0,
            min_ops: 0,
            passes: Some(3),
            first_op: 0,
        };
        let m = closed_loop(&mut w, plan, &mut t);
        assert_eq!((m.attempted(), m.failed), (21, 3));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let doc = remix_telemetry::parse_json(spec).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(remix_telemetry::JsonValue::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Measured {
            lat_ms: (1..=120).map(f64::from).collect(),
            failed: 0,
            wall_s: 2.0,
            passes: 1,
        };
        let metrics = end_to_end((0.5, 3), &m).expect("120 ops allow a p90");
        let line = result_json(m.attempted(), 0, true, &metrics);
        let doc = remix_telemetry::parse_json(&line).expect("valid JSON");
        let remix_telemetry::JsonValue::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys.len(), 4);
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(keys.contains(&k), "{k} missing");
        }
        assert_eq!(metrics[1].value, 60.0);
        assert_eq!(metrics[3].value, 108.0);
    }
}

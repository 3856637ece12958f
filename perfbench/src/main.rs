//! End-to-end and per-layer benchmark of the remix stack.
//!
//! ```text
//! remix-perfbench --workload <transient|study|serve> --seed <n> --seconds <s> --trace <0|1>
//!                 [--scratch <dir>] [--commit <id>]
//! remix-perfbench --write-goldens
//! ```
//!
//! Run from the repository root (`perfbench/run.py` builds and runs it
//! there). A timed run (`--trace 0`) prints the end-to-end metrics; a
//! traced run (`--trace 1`) prints the per-layer metrics and writes its
//! span tree under the scratch directory. The last stdout line is the
//! result object; lines before it starting with `#` are for people, the
//! first of them a stamp naming the machine and the commit measured.

mod golden;
mod harness;
mod probes;
mod serve;
mod stats;
mod study;
mod trace;
mod transient;

use harness::{Layers, Measured, Plan, Workload};
use remix_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const GOLDENS_DIR: &str = "perfbench/goldens";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--write-goldens") {
        return Ok(None);
    }
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    if !["transient", "study", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let scratch = get("--scratch").map(PathBuf::from).unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        Path::new(&target).join("perfbench-run")
    });
    let commit = get("--commit").unwrap_or_else(|| "unknown".to_string());
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        scratch,
        commit,
    }))
}

fn main() -> ExitCode {
    // Every knob is pinned in code; no REMIX_* environment override may
    // reach the program. Nothing else runs yet, so this is race-free.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("REMIX_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => write_goldens(),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<harness::Metric>,
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.split(':').next().map(str::trim) == Some(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result was measured on: the machine's CPU count and model,
/// the CPUs the run may use, the commit and the run's arguments.
fn stamp(args: &Args) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count());
    let text = |s: String| remix_serve::protocol::json_escape(&s);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"cpus_allowed\":{},\"commit\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        text(proc_field("/proc/cpuinfo", "model name")),
        text(proc_field("/proc/self/status", "Cpus_allowed_list")),
        text(args.commit.clone()),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

fn run(args: &Args) -> Result<(), String> {
    let stamp = stamp(args);
    println!("# stamp {stamp}");
    let dir = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let root = Path::new(".");
    let mut tracer = Tracer::new(Instant::now());
    tracer.set_armed(args.trace);
    let outcome = match args.workload.as_str() {
        "transient" => {
            let path = root.join(GOLDENS_DIR).join("transient.txt");
            run_workload(
                args,
                &mut tracer,
                transient::SEGMENT_PASSES,
                |p| transient::Transient::setup(args.seed, &path, p),
                transient::layers,
                |_| true,
            )
        }
        "study" => {
            let path = root.join(GOLDENS_DIR).join("study.txt");
            run_workload(
                args,
                &mut tracer,
                study::SEGMENT_PASSES,
                |p| study::Study::setup(args.seed, &path, &dir, p),
                study::layers,
                |_| true,
            )
        }
        _ => run_workload(
            args,
            &mut tracer,
            serve::SEGMENT_PASSES,
            |p| serve::Serve::setup(args.seed, root, p),
            serve::layers,
            |w| match w.finish() {
                Ok(()) => true,
                Err(why) => {
                    eprintln!("perfbench: {why}");
                    false
                }
            },
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    if args.trace {
        let path = args
            .scratch
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path, &stamp)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# spans {} ({} spans)",
            path.display(),
            tracer.spans().len()
        );
    }
    harness::print_result(
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        &outcome.metrics,
    );
    Ok(())
}

type LayersFn<W> = fn(&W, &Telemetry, &Measured, &mut Tracer, &mut Layers) -> Result<(), String>;

/// A timed run is [`harness::segmented`] over `--seconds`. A traced run
/// sets up as one segment does, then runs an untraced half of whole
/// passes over half of `--seconds` and a traced half of as many passes
/// on the kept instance. `finish` checks and releases an instance.
fn run_workload<W: Workload>(
    args: &Args,
    tracer: &mut Tracer,
    segment_passes: usize,
    setup: impl FnMut(&mut harness::Phases<'_>) -> Result<W, String>,
    layers_of: LayersFn<W>,
    mut finish: impl FnMut(W) -> bool,
) -> Result<Outcome, String> {
    if !args.trace {
        let (m, times, ok) = harness::segmented(
            tracer,
            args.seconds,
            stats::MIN_OPS_FOR_P90,
            segment_passes,
            setup,
            &mut finish,
        )?;
        return Ok(Outcome {
            attempted: m.attempted(),
            failed: m.failed,
            correct: ok && m.failed == 0,
            metrics: harness::end_to_end(times.median_s(), &m)?,
        });
    }
    let mut times = harness::SetupTimes::default();
    let mut w = harness::repeated_setup(tracer, &mut times, setup, |w| {
        finish(w);
    })?;
    let mut layers = times.layers();
    tracer.set_armed(false);
    let untraced = harness::closed_loop(
        &mut w,
        Plan {
            budget_s: args.seconds / 2.0,
            min_ops: 0,
            passes: None,
            first_op: 0,
        },
        tracer,
    );
    tracer.set_armed(true);
    let telemetry = Telemetry::new();
    let traced = {
        let _armed = telemetry.arm();
        let plan = Plan {
            budget_s: 0.0,
            min_ops: 0,
            passes: Some(untraced.passes),
            first_op: untraced.attempted(),
        };
        harness::closed_loop(&mut w, plan, tracer)
    };
    layers_of(&w, &telemetry, &traced, tracer, &mut layers)?;
    let ok = finish(w);
    Ok(traced_outcome(&untraced, &traced, ok, layers))
}

fn traced_outcome(
    untraced: &Measured,
    traced: &Measured,
    correct: bool,
    mut layers: Layers,
) -> Outcome {
    layers.insert(
        "trace.overhead",
        (
            untraced.ops_per_s() / traced.ops_per_s() - 1.0,
            traced.lat_ms.len(),
        ),
    );
    let failed = untraced.failed + traced.failed;
    Outcome {
        attempted: untraced.attempted() + traced.attempted(),
        failed,
        correct: correct && failed == 0,
        metrics: harness::per_layer(&layers),
    }
}

/// Regenerates the committed goldens from the current program.
fn write_goldens() -> Result<(), String> {
    let dir = Path::new(GOLDENS_DIR);
    let write = |name: &str, g: golden::Goldens, header: &str| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, g.render(header)).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    write(
        "transient.txt",
        transient::write_goldens()?,
        "transient goldens: differential IF output (V) at the end of each of the\n\
         8 LO periods; key = <mode>/<LO grid index>. Regenerate with\n\
         `remix-perfbench --write-goldens` from the repository root.",
    )?;
    write(
        "study.txt",
        study::write_goldens()?,
        "study goldens. corner/<i>: active CG, passive CG (dB at 2.45 GHz RF,\n\
         5 MHz IF), active NF, passive NF (dB at 5 MHz), active IIP3, passive\n\
         IIP3 (dBm). mc/<i>/<j>: median IIP2 (dBm) and convergence yield of the\n\
         8-sample Monte-Carlo study with seed j of corner i. Regenerate with\n\
         `remix-perfbench --write-goldens` from the repository root.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload serve --seed 42 --seconds 25 --trace 1"))
            .expect("valid")
            .expect("a run");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 42, 25.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload study --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload study --seconds 1 --trace 0")).is_err());
    }

    /// Records the input of every op it runs.
    struct Recording {
        pass: Vec<u64>,
        seen: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }

    impl Workload for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn seed(&self) -> u64 {
            0
        }
        fn pass_len(&self) -> usize {
            self.pass.len()
        }
        fn run_op(&mut self, slot: usize, _: u64, _: &mut Tracer) -> (f64, Result<(), String>) {
            self.seen.borrow_mut().push(self.pass[slot]);
            (0.01, Ok(()))
        }
    }

    fn no_layers(
        _: &Recording,
        _: &Telemetry,
        _: &Measured,
        _: &mut Tracer,
        _: &mut Layers,
    ) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn traced_and_untraced_runs_execute_identical_inputs() {
        let pass: Vec<u64> = transient::input_set(17)
            .iter()
            .map(|c| c.k as u64)
            .collect();
        let run = |trace: bool| {
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let args = Args {
                workload: "recording".into(),
                seed: 17,
                seconds: 1e-9,
                trace,
                scratch: PathBuf::new(),
                commit: "test".into(),
            };
            let mut tracer = Tracer::new(Instant::now());
            tracer.set_armed(trace);
            let setup = |_: &mut harness::Phases<'_>| {
                Ok(Recording {
                    pass: pass.clone(),
                    seen: seen.clone(),
                })
            };
            let outcome =
                run_workload(&args, &mut tracer, 1, setup, no_layers, |_| true).expect("runs");
            assert_eq!(outcome.failed, 0);
            let seen = seen.borrow().clone();
            seen
        };
        let (untraced, traced) = (run(false), run(true));
        assert_eq!(untraced.len() % pass.len(), 0);
        assert_eq!(
            traced.len(),
            2 * pass.len(),
            "one untraced and one traced pass"
        );
        for chunk in untraced.chunks(pass.len()).chain(traced.chunks(pass.len())) {
            assert_eq!(chunk, pass.as_slice());
        }
    }
}

//! Layer probes for the traced run: repeated, individually timed calls
//! of single public functions on the workload's own circuits, decks and
//! study records. Each reports the median over its repetitions.

use crate::harness::Layers;
use crate::stats;
use crate::trace::Tracer;
use remix_analysis::stamp::{assemble_real, RealMode};
use remix_analysis::{dc_operating_point, OpOptions};
use remix_circuit::{Circuit, MnaLayout};
use remix_numerics::{SparseLu, TripletMatrix};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probed call.
pub const REPS: usize = 60;

fn timed<R>(tracer: &mut Tracer, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tracer.enter(span);
    let t = Instant::now();
    let out = black_box(f());
    let us = t.elapsed().as_secs_f64() * 1e6;
    tracer.exit(id);
    (out, us)
}

/// Times stamp assembly → triplet-to-CSR → LU factor → solve at each
/// circuit's DC operating point. Fills the per-call medians (µs,
/// averaged over circuits) and the mean unknown count.
pub fn solver(
    circuits: &[&Circuit],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut stage_us: [Vec<f64>; 4] = Default::default();
    let mut unknowns = Vec::new();
    for circuit in circuits {
        let root = tracer.enter("probe.solver");
        let op = dc_operating_point(circuit, &OpOptions::default())
            .map_err(|e| format!("solver probe: operating point failed: {e}"))?;
        let layout = MnaLayout::new(circuit);
        let dim = layout.dim();
        unknowns.push(dim as f64);
        let mode = RealMode::Dc {
            gmin: OpOptions::default().gmin,
            source_scale: 1.0,
        };
        let mut m = TripletMatrix::new(dim, dim);
        let mut rhs = vec![0.0; dim];
        let mut per_stage: [Vec<f64>; 4] = Default::default();
        for _ in 0..REPS {
            let ((), a) = timed(tracer, "analysis.stamp.assemble", || {
                assemble_real(
                    circuit,
                    &layout,
                    &op.solution,
                    &mode,
                    &mut m,
                    &mut rhs,
                    None,
                );
            });
            let (csr, c) = timed(tracer, "numerics.csr_build", || m.to_csr());
            let (lu, f) = timed(tracer, "numerics.lu.factor", || SparseLu::factor(&csr));
            let lu = lu.map_err(|e| format!("solver probe: factor failed: {e:?}"))?;
            let (x, s) = timed(tracer, "numerics.lu.solve", || lu.solve(&rhs));
            x.map_err(|e| format!("solver probe: solve failed: {e:?}"))?;
            for (v, t) in per_stage.iter_mut().zip([a, c, f, s]) {
                v.push(t);
            }
        }
        for (all, mine) in stage_us.iter_mut().zip(&per_stage) {
            all.push(stats::median(mine));
        }
        tracer.exit(root);
    }
    let n = circuits.len();
    layers.insert("circuit.unknowns", (stats::mean(&unknowns), n));
    for (name, v) in [
        "analysis.stamp.assemble_us",
        "numerics.csr_build_us",
        "numerics.lu.factor_us",
        "numerics.lu.solve_us",
    ]
    .iter()
    .zip(&stage_us)
    {
        layers.insert(name, (stats::mean(v), n * REPS));
    }
    Ok(())
}

/// The computed share of op time spent in LU factorization: the probed
/// per-factorization time times the factorizations per op, over the
/// mean op latency.
pub fn factor_share(layers: &mut Layers, mean_op_ms: f64) {
    let factor_us = layers.get("numerics.lu.factor_us").map_or(0.0, |v| v.0);
    let (per_op, n) = layers
        .get("numerics.lu.factorizations")
        .copied()
        .unwrap_or_default();
    layers.insert(
        "numerics.lu.factor_share",
        (factor_us * per_op / (mean_op_ms * 1e3).max(1e-9), n),
    );
}

/// Times SPICE import and the lint pass on each deck (ms, median per
/// deck, averaged over decks).
pub fn decks(decks: &[&str], tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let config = remix_lint::LintConfig::default();
    let (mut parse_ms, mut lint_ms) = (Vec::new(), Vec::new());
    for text in decks {
        let root = tracer.enter("probe.deck");
        let (mut p, mut l) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let (circuit, us) = timed(tracer, "circuit.spice.parse", || {
                remix_circuit::from_spice(text)
            });
            let circuit = circuit.map_err(|e| format!("deck probe: {e}"))?;
            p.push(us / 1e3);
            let (_, us) = timed(tracer, "lint.deck", || remix_lint::lint(&circuit, &config));
            l.push(us / 1e3);
        }
        parse_ms.push(stats::median(&p));
        lint_ms.push(stats::median(&l));
        tracer.exit(root);
    }
    layers.insert(
        "circuit.spice.parse_ms",
        (stats::mean(&parse_ms), decks.len() * REPS),
    );
    layers.insert("lint.deck_ms", (stats::mean(&lint_ms), decks.len() * REPS));
    Ok(())
}

/// Times `encode_job` then `decode_request` per request (µs, median).
pub fn protocol(
    jobs: &[remix_serve::protocol::JobRequest],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    use remix_serve::protocol::{decode_request, encode_job, RequestFrame, DEFAULT_MAX_DECK_BYTES};
    let root = tracer.enter("probe.protocol");
    let mut us = Vec::new();
    for job in jobs {
        for _ in 0..REPS {
            let ((line, frame), t) = timed(tracer, "serve.protocol.codec", || {
                let line = encode_job(job);
                let frame = decode_request(&line, DEFAULT_MAX_DECK_BYTES);
                (line, frame)
            });
            match frame {
                Ok(RequestFrame::Job(back)) if *back == *job => us.push(t),
                other => return Err(format!("protocol probe: {line:.80} decoded to {other:?}")),
            }
        }
    }
    tracer.exit(root);
    layers.insert(
        "serve.protocol.roundtrip_us",
        (stats::median(&us), us.len()),
    );
    Ok(())
}

/// Times a version-3 checkpoint save and load of `records` (ms, median).
pub fn checkpoint(
    records: &[(usize, remix_core::checkpoint::StudyOutcome)],
    path: &std::path::Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    use remix_core::checkpoint::{load_study_any, save_study_v3};
    let config = vec![("perfbench.records".to_string(), records.len() as f64)];
    let root = tracer.enter("probe.checkpoint");
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (saved, t) = timed(tracer, "core.checkpoint.save", || {
            save_study_v3(path, "perfbench", &config, records.len(), records)
        });
        saved.map_err(|e| format!("checkpoint probe: save failed: {e}"))?;
        save.push(t / 1e3);
        let (loaded, t) = timed(tracer, "core.checkpoint.load", || {
            load_study_any(path, "perfbench", &config, records.len())
        });
        if loaded.map(|r| r.len()) != Some(records.len()) {
            return Err("checkpoint probe: load did not return every record".into());
        }
        load.push(t / 1e3);
    }
    tracer.exit(root);
    let _ = std::fs::remove_file(path);
    layers.insert("core.checkpoint.save_ms", (stats::median(&save), REPS));
    layers.insert("core.checkpoint.load_ms", (stats::median(&load), REPS));
    Ok(())
}

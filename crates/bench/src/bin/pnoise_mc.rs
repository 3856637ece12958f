//! Monte-Carlo transient noise on the full mixer netlist — the PNOISE
//! substitute (DESIGN.md): sampled thermal-noise currents are attached to
//! every resistor and MOSFET and propagated through the switching circuit
//! by the ordinary transient engine; the output PSD then *includes* noise
//! folding, exactly like a spectrum-analyzer measurement.
//!
//! Deliberately slow (hundreds of thousands of Newton solves). Run with:
//!
//! ```text
//! cargo run --release -p remix-bench --bin pnoise_mc
//! ```
//!
//! The two modes are independent transient runs, so they dispatch to
//! the work-stealing study pool: `REMIX_EXEC_WORKERS=<n>` pins the
//! worker count (`0`/unset means every available core) and
//! `REMIX_EXEC_POOL_CHAOS` arms the deterministic fault schedule.
//! Reports print in mode order regardless of which finishes first.

use remix_analysis::{noise_transient, NoiseTranConfig, TranOptions};
use remix_bench::shared_evaluator;
use remix_core::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
use remix_core::MixerMode;
use remix_dsp::psd::welch;
use remix_dsp::window::Window;

fn main() {
    remix_bench::run_bin("pnoise monte-carlo", || {
        run();
        Ok(())
    })
}

fn run() {
    let eval = shared_evaluator();
    let f_lo = 0.48e9; // sub-band LO keeps the step count tractable
    println!("Monte-Carlo transient noise vs analytic model (LO 0.48 GHz)");
    let pool = remix_bench::study_pool();
    println!();
    let modes = [MixerMode::Passive, MixerMode::Active];
    let indices: Vec<usize> = (0..modes.len()).collect();
    let report = |mode: MixerMode| -> String {
        let m = eval.model(mode);
        let mixer = ReconfigurableMixer::new(m.config().clone());
        let (ckt, nodes) = mixer.build(mode, &RfDrive::Bias, &LoDrive::sine(f_lo));
        let h = 0.2e-9;
        let n_total = 1 << 15; // ~6.6 µs
        let opts = TranOptions::new(n_total as f64 * h, h);
        let cfg = NoiseTranConfig {
            amplitude_boost: 10.0,
            ..NoiseTranConfig::default()
        };
        match noise_transient(&ckt, &opts, &cfg) {
            Ok(res) => {
                let (p, q) = nodes.if_out(mode);
                let wave = res.differential_waveform(p, q);
                let fs = 1.0 / h;
                let psd = welch(&wave[1..], fs, 4096, Window::Hann);
                let out_psd = psd.at(5e6) / (cfg.amplitude_boost * cfg.amplitude_boost);
                // Refer through the model's conversion gain and compare
                // with the analytic NF at the same sub-band LO.
                let cg = m.conv_gain(f_lo + 5e6, 5e6);
                // NF = total output noise over the output noise due to the
                // source EMF alone (PSD 4kT0·2rs at the EMF; cg is the
                // EMF-referred conversion gain).
                let four_kt0_rs = 4.0 * 1.380649e-23 * 290.0 * 100.0;
                let nf_mc = 10.0 * (out_psd / (cg * cg) / four_kt0_rs).log10();
                format!(
                    "{:<8} {n_total} steps: MC NF ≈ {:.1} dB | analytic model {:.1} dB",
                    mode.label(),
                    nf_mc,
                    m.nf_db(5e6)
                )
            }
            Err(e) => format!("{:<8} failed: {e}", mode.label()),
        }
    };
    let run = remix_exec::run_tasks(
        &indices,
        &pool,
        |i| remix_exec::TaskResult::Done(report(modes[i])),
        |_, _| {},
    );
    // Outcomes come back in mode order, so the report order is stable
    // no matter which transient finishes first.
    for (mode, outcome) in modes.iter().zip(&run.outcomes) {
        match outcome {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(why)) => println!("{:<8} died: {why}", mode.label()),
            None => {}
        }
    }
    if let Some(why) = &run.interrupted {
        println!("study interrupted: {why}");
    }
    println!("\nreading: the MC estimate sits several dB above the analytic");
    println!("budget, for understood reasons — (a) the 0.48 GHz LO (chosen so");
    println!("the step count stays tractable) is the receiver's *band edge*,");
    println!("where conversion gain is down several dB and NF correspondingly");
    println!("up, while the analytic budget is referenced to band centre;");
    println!("(b) the MC includes full-bandwidth folding and time-varying");
    println!("switch conductances that the budget approximates; (c) Welch");
    println!("variance at this record length is ±1–2 dB. Within that, the");
    println!("time-varying circuit confirms the budget's magnitude class.");
}

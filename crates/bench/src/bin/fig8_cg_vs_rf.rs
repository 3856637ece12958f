//! Regenerates **Fig. 8**: simulated conversion gain of the
//! reconfigurable mixer vs RF frequency (IF = 5 MHz), both modes.
//!
//! ```text
//! cargo run --release -p remix-bench --bin fig8_cg_vs_rf
//! ```

use remix_bench::{ascii_plot, try_shared_evaluator};
use remix_core::MixerMode;
use remix_rfkit::convgain::band_edges_3db;

fn main() {
    remix_bench::run_bin("fig8 gain sweep", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let eval = try_shared_evaluator()?;
    let f_if = 5e6;
    // 0.25–7 GHz in 0.25 GHz steps, covering the paper's 0.5–5.5 GHz band.
    let freqs: Vec<f64> = (1..=28).map(|k| 0.25e9 * k as f64).collect();

    let active = eval.gain_vs_rf(MixerMode::Active, &freqs, f_if);
    let passive = eval.gain_vs_rf(MixerMode::Passive, &freqs, f_if);

    println!("Fig. 8 — conversion gain vs RF frequency (IF = 5 MHz)\n");
    println!(
        "{:>9} {:>12} {:>12}",
        "RF (GHz)", "active (dB)", "passive (dB)"
    );
    for i in 0..freqs.len() {
        println!(
            "{:>9.2} {:>12.2} {:>12.2}",
            freqs[i] / 1e9,
            active[i].1,
            passive[i].1
        );
    }

    println!();
    print!(
        "{}",
        ascii_plot(
            &[("active", &active), ("passive", &passive)],
            "CG (dB)",
            1e9,
            "GHz"
        )
    );

    for (mode, series) in [(MixerMode::Active, &active), (MixerMode::Passive, &passive)] {
        let g: Vec<f64> = series.iter().map(|p| p.1).collect();
        let f: Vec<f64> = series.iter().map(|p| p.0).collect();
        let peak = g.iter().cloned().fold(f64::MIN, f64::max);
        let (lo, hi) = band_edges_3db(&f, &g);
        println!(
            "\n{:<8} peak {:.1} dB, −3 dB band {} – {}",
            mode.label(),
            peak,
            lo.map(|v| format!("{:.2} GHz", v / 1e9))
                .unwrap_or("<0.25 GHz".into()),
            hi.map(|v| format!("{:.2} GHz", v / 1e9))
                .unwrap_or(">7 GHz".into()),
        );
    }
    println!("\npaper: active 29.2 dB over 1–5.5 GHz; passive 25.5 dB over 0.5–5.1 GHz");
    Ok(())
}

//! Regenerates **Fig. 9**: simulated DSB noise figure and conversion gain
//! vs IF frequency (RF at 2.45 GHz), both modes.
//!
//! ```text
//! cargo run --release -p remix-bench --bin fig9_nf_vs_if
//! ```

use remix_bench::{ascii_plot, try_shared_evaluator};
use remix_core::MixerMode;

fn main() {
    remix_bench::run_bin("fig9 noise sweep", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let eval = try_shared_evaluator()?;
    let f_rf = 2.45e9;
    // Log sweep 1 kHz .. 100 MHz like the paper's x axis, 5 pts/decade:
    // it brackets both the < 100 kHz flicker corner and the 5 MHz IF.
    let ifs: Vec<f64> = (0..=25).map(|k| 1e3 * 10f64.powf(k as f64 / 5.0)).collect();

    let nf_a = eval.nf_vs_if(MixerMode::Active, &ifs);
    let nf_p = eval.nf_vs_if(MixerMode::Passive, &ifs);
    let cg_a = eval.gain_vs_if(MixerMode::Active, &ifs, f_rf);
    let cg_p = eval.gain_vs_if(MixerMode::Passive, &ifs, f_rf);

    println!("Fig. 9 — DSB NF and conversion gain vs IF (RF = 2.45 GHz)\n");
    println!(
        "{:>11} {:>9} {:>9} {:>9} {:>9}",
        "IF (Hz)", "NF act", "NF pas", "CG act", "CG pas"
    );
    for i in 0..ifs.len() {
        println!(
            "{:>11.3e} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            ifs[i], nf_a[i].1, nf_p[i].1, cg_a[i].1, cg_p[i].1
        );
    }

    println!();
    print!(
        "{}",
        ascii_plot(
            &[("NF active", &nf_a), ("NF passive", &nf_p)],
            "NF (dB), log-f sweep",
            1e6,
            "MHz"
        )
    );

    let spot = |series: &[(f64, f64)]| {
        remix_numerics::interp::lerp_logx(
            &series.iter().map(|p| p.0).collect::<Vec<_>>(),
            &series.iter().map(|p| p.1).collect::<Vec<_>>(),
            5e6,
        )
    };
    println!(
        "\n@5 MHz: NF active {:.1} dB (paper 7.6), passive {:.1} dB (paper 10.2)",
        spot(&nf_a),
        spot(&nf_p)
    );
    println!(
        "flicker corners: active {:?}, passive {:?} (paper: passive < 100 kHz)",
        eval.model(MixerMode::Active)
            .flicker_corner_hz()
            .map(|f| format!("{:.0} kHz", f / 1e3)),
        eval.model(MixerMode::Passive)
            .flicker_corner_hz()
            .map(|f| format!("{:.0} kHz", f / 1e3)),
    );
    Ok(())
}

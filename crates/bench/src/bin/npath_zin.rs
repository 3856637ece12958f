//! N-path synthesized bandpass: `|Z_in(f_rf)|` of the mixer-first
//! receiver versus swept LO frequency (`remix-topo` family a). The
//! curve must peak where the LO lands on the probe tone — the
//! frequency-translated baseband impedance — and collapse toward
//! `R_s + R_sw` away from it.
//!
//! ```text
//! cargo run --release -p remix-bench --bin npath_zin
//! ```

use remix_topo::{input_impedance_vs_lo, MixerFirstParams, ZinConfig};

fn main() {
    remix_bench::run_bin("npath zin", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let params = MixerFirstParams::default();
    // Probe at bin 10 (10 MHz), LO swept 6–14 MHz on a 1 MHz grid.
    let cfg = ZinConfig::centered(1e6, 10, 4);
    let pool = remix_bench::study_pool();

    println!(
        "N-path mixer-first receiver: N = {}, switch {:.0} µm, R_bb = {:.0} Ω, R_s = {:.0} Ω",
        params.n_phases,
        params.switch_w * 1e6,
        params.r_bb,
        params.rs
    );
    let rx = params.generate()?;
    println!("{}\n", rx.circuit.stats());

    let sweep = input_impedance_vs_lo(&params, &cfg, &pool)?;
    println!("probe f_rf = {:.3e} Hz", sweep.f_rf);
    for (f_lo, outcome) in &sweep.points {
        match outcome {
            Ok(z) => println!(
                "  f_lo {:>6.2} MHz  |Zin| {:>8.1} Ω  (re {:>8.1}, im {:>8.1})",
                f_lo / 1e6,
                z.abs(),
                z.re,
                z.im
            ),
            Err(msg) => println!("  f_lo {:>6.2} MHz  failed: {msg}", f_lo / 1e6),
        }
    }

    let mags = sweep.magnitudes();
    println!(
        "\n{}",
        remix_bench::ascii_plot(&[("|Zin| ohm", &mags)], "|Zin| (ohm)", 1e6, "MHz")
    );
    println!("{}", sweep.summary_line());

    // The whole point of the family: the bandpass centre is the LO.
    let (f_peak, z_peak) = sweep.peak().ok_or("no LO point solved")?;
    if (f_peak - sweep.f_rf).abs() > 0.5 * cfg.f_grid {
        return Err(format!(
            "bandpass peak at {f_peak:.3e} Hz, expected at the probe {:.3e} Hz",
            sweep.f_rf
        )
        .into());
    }
    let edge = mags
        .iter()
        .filter(|(f, _)| (f - sweep.f_rf).abs() > 2.5 * cfg.f_grid)
        .map(|&(_, m)| m)
        .fold(f64::MIN, f64::max);
    if edge > 0.0 && z_peak < 1.5 * edge {
        return Err(
            format!("no bandpass contrast: peak {z_peak:.1} Ω vs band-edge {edge:.1} Ω").into(),
        );
    }
    println!("bandpass confirmed: peak {z_peak:.1} Ω at f_lo = f_rf, worst edge {edge:.1} Ω");
    Ok(())
}

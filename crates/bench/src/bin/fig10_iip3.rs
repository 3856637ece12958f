//! Regenerates **Fig. 10**: two-tone linearity test of the reconfigurable
//! mixer (LO = 2.4 GHz, tones at +5/+6 MHz offsets) — 10(a) passive,
//! 10(b) active. Prints the swept fundamental/IM3 output powers, the
//! slope-1/slope-3 fit lines, and the extracted intercepts.
//!
//! ```text
//! cargo run --release -p remix-bench --bin fig10_iip3
//! ```

use remix_bench::try_shared_evaluator;
use remix_core::{MixerEvaluator, MixerMode};

fn main() {
    remix_bench::run_bin("fig10 two-tone study", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let plan = MixerEvaluator::two_tone_plan();
    println!(
        "two-tone record: n = {}, fs = {:.3} GHz\n",
        plan.n(),
        plan.fs() / 1e9,
    );

    let eval = try_shared_evaluator()?;
    for (fig, mode) in [
        ("Fig. 10(a)", MixerMode::Passive),
        ("Fig. 10(b)", MixerMode::Active),
    ] {
        let m = eval.model(mode);
        let start = m.p1db_dbm() - 22.0;
        let pins: Vec<f64> = (0..10).map(|k| start + 2.0 * k as f64).collect();
        let (sweep, result) = eval.iip3_two_tone(mode, &pins)?;

        println!("{fig} — {} mode two-tone test (LO 2.4 GHz)\n", mode.label());
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12}",
            "Pin(dBm)", "fund(dBm)", "IM3(dBm)", "fit fund", "fit IM3"
        );
        for i in 0..sweep.len() {
            println!(
                "{:>10.1} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                sweep.pin_dbm[i],
                sweep.fund_dbm[i],
                sweep.im3_dbm[i],
                result.fund_line.eval(sweep.pin_dbm[i]),
                result.im3_line.eval(sweep.pin_dbm[i]),
            );
        }
        println!(
            "\nslopes: fundamental {:.3} (ideal 1), IM3 {:.3} (ideal 3)",
            result.fund_slope, result.im3_slope
        );
        let paper = match mode {
            MixerMode::Active => -11.9,
            MixerMode::Passive => 6.57,
        };
        println!(
            "IIP3 = {:+.2} dBm (paper {:+.2} dBm) | OIP3 = {:+.2} dBm | gain {:.1} dB\n",
            result.iip3_dbm, paper, result.oip3_dbm, result.gain_db
        );
    }
    println!(
        "mode separation: passive − active = {:.1} dB (paper: {:.1} dB)",
        eval.model(MixerMode::Passive).iip3_dbm() - eval.model(MixerMode::Active).iip3_dbm(),
        6.57 - (-11.9),
    );
    Ok(())
}

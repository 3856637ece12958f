//! Regenerates **Table I**: simulation results and comparison — the two
//! "This work" columns produced by the simulation flow next to the eight
//! literature rows transcribed from the paper.
//!
//! Also prints the §III/§IV text claims (power split, 1dB-CP, IIP2,
//! flicker corner) with their paper values.
//!
//! ```text
//! cargo run --release -p remix-bench --bin table1
//! ```

use remix_bench::shared_evaluator;
use remix_core::MixerMode;
use remix_rfkit::specs::{table1_literature, MixerSpecRow};

fn print_row(r: &MixerSpecRow) {
    println!(
        "{:<22} {:>10} {:>9} {:>11} {:>13} {:>10} {:>12} {:>10} {:>7}",
        r.label,
        r.gain_db.to_string(),
        r.nf_db.to_string(),
        r.iip3_dbm.to_string(),
        r.p1db_dbm.to_string(),
        r.power_mw.to_string(),
        r.bandwidth_ghz.to_string(),
        r.technology,
        r.supply_v,
    );
}

fn main() {
    remix_bench::run_bin("table1", || {
        run();
        Ok(())
    })
}

fn run() {
    let eval = shared_evaluator();

    println!("Table I — simulation results and comparison\n");
    println!(
        "{:<22} {:>10} {:>9} {:>11} {:>13} {:>10} {:>12} {:>10} {:>7}",
        "design",
        "gain(dB)",
        "NF(dB)",
        "IIP3(dBm)",
        "1dB-CP(dBm)",
        "P(mW)",
        "BW(GHz)",
        "tech",
        "VDD"
    );
    println!("{}", "-".repeat(110));
    print_row(&eval.table1_row(MixerMode::Active));
    print_row(&eval.table1_row(MixerMode::Passive));
    println!("{}", "-".repeat(110));
    for row in table1_literature() {
        print_row(&row);
    }

    println!("\npaper's own \"This work\" columns for reference:");
    println!("  active : 29.2 dB | 7.7 dB | -11.9 dBm | -24.5 dBm | 9.36 mW | 1–5.5 GHz");
    println!("  passive: 25.5 dB | 10.2 dB | 6.57 dBm | -14 dBm   | 9.24 mW | 0.5–5.1 GHz");

    println!("\ntext claims (§III–IV):");
    let a = eval.model(MixerMode::Active);
    let p = eval.model(MixerMode::Passive);
    println!(
        "  power: active {:.2} mW / passive {:.2} mW (paper 9.36 / 9.24; TIA only burns in passive)",
        a.power_mw(),
        p.power_mw()
    );
    println!(
        "  IIP2 @0.5% mismatch: active {:.1} dBm, passive {:.1} dBm (paper: > 65 both)",
        a.iip2_dbm(0.005),
        p.iip2_dbm(0.005)
    );
    // Cycle-true PSS power cross-check (sub-band LO keeps it quick).
    for mode in [MixerMode::Active, MixerMode::Passive] {
        match eval.pss_power_mw(mode, 0.48e9) {
            Ok(pw) => println!(
                "  PSS cycle-average power ({}): {:.2} mW (held-LO DC estimate {:.2} mW)",
                mode.label(),
                pw,
                eval.model(mode).power_mw()
            ),
            Err(e) => println!("  PSS power ({}) failed: {e}", mode.label()),
        }
    }
    println!(
        "  passive flicker corner: {} (paper: < 100 kHz)",
        p.flicker_corner_hz()
            .map(|f| format!("{:.1} kHz", f / 1e3))
            .unwrap_or_else(|| "< 1 kHz (below search floor)".into())
    );
}

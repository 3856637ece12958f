//! Study matrix over the `remix-topo` circuit families: Monte-Carlo
//! mismatch and process corners for every family, through the
//! work-stealing pool behind `REMIX_EXEC_WORKERS`, plus a DC bias sweep
//! of the MedRadio front-end as one serial operating-point session.
//!
//! ```text
//! cargo run --release -p remix-bench --bin topo_matrix
//! ```

use remix_rfkit::specs::{topo_family_rows, SpecValue};
use remix_topo::{
    bias_sweep, corner_study, mc_study, standard_corners, Family, MedRadioParams, TopoMismatch,
};

fn main() {
    remix_bench::run_bin("topo matrix", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let pool = remix_bench::study_pool();
    let mm = TopoMismatch::default();

    let mut medradio_median_uw = None;
    for family in Family::defaults() {
        let circuit = family.generate()?;
        println!("==== {} ====", family.name());
        println!("{}", circuit.stats());

        let mc = mc_study(&family, &mm, &pool)?;
        println!("  mc      | {}", mc.summary_line());
        if mc.yield_fraction() < 0.9 {
            return Err(format!(
                "{}: Monte-Carlo yield {:.0}% below the 90% floor",
                family.name(),
                100.0 * mc.yield_fraction()
            )
            .into());
        }

        let corners = corner_study(&family, &standard_corners(), &pool)?;
        println!("  corners | {}", corners.summary_line());
        if corners.n_ok() != standard_corners().len() {
            return Err(format!("{}: a process corner failed to solve", family.name()).into());
        }

        if matches!(family, Family::MedRadio(_)) {
            let vals = mc.values();
            medradio_median_uw = vals.get(vals.len() / 2).copied();
        }
        println!();
    }

    // Cross-check the MedRadio Monte-Carlo median against the family's
    // published spec row (sub-50 µW).
    let rows = topo_family_rows();
    let budget_uw = rows
        .iter()
        .find(|r| r.label == "medradio-fe")
        .and_then(|r| match r.power_mw {
            SpecValue::AtMost(mw) => Some(mw * 1e3),
            _ => None,
        })
        .ok_or("medradio-fe spec row lost its power bound")?;
    let median = medradio_median_uw.ok_or("MedRadio Monte-Carlo produced no samples")?;
    println!("medradio power: median {median:.1} µW vs spec ≤ {budget_uw:.0} µW");
    if median > budget_uw {
        return Err(
            format!("MedRadio median {median:.1} µW blows the {budget_uw:.0} µW spec").into(),
        );
    }

    // DC transfer sweep of the MedRadio amp bias: one serial
    // operating-point session.
    let family = Family::MedRadio(MedRadioParams::default());
    let values: Vec<f64> = (0..9).map(|i| 0.16 + 0.02 * i as f64).collect();
    let sweep = bias_sweep(&family, &values)?;
    if let Some(intr) = &sweep.interruption {
        return Err(format!("bias sweep interrupted: {intr:?}").into());
    }
    let circuit = family.generate()?;
    let amp = circuit
        .find_node("amp")
        .ok_or("medradio lost its amp node")?;
    let curve: Vec<(f64, f64)> = values
        .iter()
        .zip(sweep.value.points.iter())
        .map(|(&v, p)| (v, p.voltage(amp)))
        .collect();
    println!(
        "\nbias sweep ({} points, one operating-point session):\n{}",
        curve.len(),
        remix_bench::ascii_plot(&[("v(amp)", &curve)], "v(amp) (V)", 1.0, "V bias")
    );
    for w in curve.windows(2) {
        if w[1].1 >= w[0].1 {
            return Err(
                format!("amp voltage must fall monotonically with bias: {:?}", curve).into(),
            );
        }
    }
    println!("topo matrix complete: 3 families × (mc + corners), MedRadio bias sweep monotone");
    Ok(())
}

//! Bias-point solvers.
//!
//! The paper biases its tail device (switch 7) "in saturation region to
//! provide current source" and tunes the Gm devices' gate voltage for
//! gain. These helpers invert the device equation: given a target drain
//! current, find the gate voltage.

use remix_circuit::{MosModel, MosPolarity};
use remix_numerics::brent;

/// Gate-source voltage that makes an NMOS of the given geometry carry
/// `target` amps at drain-source voltage `vds` (source and bulk at 0).
///
/// # Panics
///
/// Panics if the target is not achievable below `vgs = vdd` (i.e. the
/// device is too small), or on non-positive inputs.
pub fn nmos_vgs_for_current(
    model: &MosModel,
    w: f64,
    l: f64,
    vds: f64,
    target: f64,
    vdd: f64,
) -> f64 {
    assert_eq!(model.polarity, MosPolarity::Nmos, "expects an NMOS model");
    assert!(target > 0.0 && w > 0.0 && l > 0.0 && vds > 0.0);
    let id_at = |vgs: f64| model.evaluate(vds, vgs, 0.0, 0.0).id * (w / l) - target;
    assert!(
        id_at(vdd) > 0.0,
        "device cannot carry {target} A even at vgs = {vdd}"
    );
    brent(id_at, 0.0, vdd, 1e-9).expect("current is monotone in vgs") // audit: allow(AUD001): the bracket is asserted two lines up; Brent cannot fail on a sign-changing interval
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_for_known_current() {
        let m = MosModel::nmos_65nm();
        let (w, l, vds) = (20e-6, 130e-9, 0.2);
        let target = 1.0e-3;
        let vgs = nmos_vgs_for_current(&m, w, l, vds, target, 1.2);
        let got = m.evaluate(vds, vgs, 0.0, 0.0).id * (w / l);
        assert!((got - target).abs() < 1e-6, "got {got}");
        assert!(vgs > 0.3 && vgs < 0.9, "vgs = {vgs}");
    }

    #[test]
    fn larger_current_needs_larger_vgs() {
        let m = MosModel::nmos_65nm();
        let v1 = nmos_vgs_for_current(&m, 20e-6, 130e-9, 0.2, 0.5e-3, 1.2);
        let v2 = nmos_vgs_for_current(&m, 20e-6, 130e-9, 0.2, 2.0e-3, 1.2);
        assert!(v2 > v1);
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn impossible_target_panics() {
        let m = MosModel::nmos_65nm();
        let _ = nmos_vgs_for_current(&m, 1e-6, 130e-9, 0.2, 1.0, 1.2);
    }
}

//! The switching (LO) quad — four NMOS devices shared by both modes.
//!
//! In passive mode the quad commutates the TCA's output current ("current
//! commutating passive mixer ... four switching (LO) MOS with resistive
//! degeneration"); in active mode it commutates the Gm devices' drain
//! current (double-balanced Gilbert cell). Mixing happens here in both
//! cases; only what drives the sources and what loads the drains changes.

use crate::config::MixerConfig;
use remix_circuit::{Circuit, ElementId, Node};

/// Handles to the four quad devices.
///
/// Connection pattern (double balanced):
///
/// ```text
///   out_p ── M1(d)      M4(d) ── out_p
///             |g=lo_p    |g=lo_n
///   in_p ─── M1(s)      M4(s) ── in_n
///   out_n ── M2(d)      M3(d) ── out_n
///             |g=lo_n    |g=lo_p
///   in_p ─── M2(s)      M3(s) ── in_n
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchQuad {
    /// in_p → out_p on LO+.
    pub m1: ElementId,
    /// in_p → out_n on LO−.
    pub m2: ElementId,
    /// in_n → out_n on LO+.
    pub m3: ElementId,
    /// in_n → out_p on LO−.
    pub m4: ElementId,
}

/// Adds the quad to a circuit.
#[allow(clippy::too_many_arguments)]
pub fn build_quad(
    ckt: &mut Circuit,
    prefix: &str,
    in_p: Node,
    in_n: Node,
    lo_p: Node,
    lo_n: Node,
    out_p: Node,
    out_n: Node,
    cfg: &MixerConfig,
) -> SwitchQuad {
    let model = cfg.nmos.clone();
    let mk = |ckt: &mut Circuit, name: String, d: Node, g: Node, s: Node| {
        ckt.add_mosfet(
            &name,
            model.clone(),
            cfg.quad_w,
            cfg.quad_l,
            d,
            g,
            s,
            Circuit::gnd(),
        )
    };
    SwitchQuad {
        m1: mk(ckt, format!("{prefix}_m1"), out_p, lo_p, in_p),
        m2: mk(ckt, format!("{prefix}_m2"), out_n, lo_n, in_p),
        m3: mk(ckt, format!("{prefix}_m3"), out_n, lo_p, in_n),
        m4: mk(ckt, format!("{prefix}_m4"), out_p, lo_n, in_n),
    }
}

/// On-resistance of one quad switch when its gate sits at the LO high
/// level and the channel passes a signal near `v_channel`.
pub fn switch_on_resistance(cfg: &MixerConfig, v_channel: f64) -> f64 {
    let model = &cfg.nmos;
    let v_gate = cfg.lo_common + cfg.lo_amplitude;
    // Evaluate at a tiny vds to read the triode conductance.
    let dv = 1e-3;
    let ev = model.evaluate(v_channel + dv, v_gate, v_channel, 0.0);
    let scaled = ev.id * (cfg.quad_w / cfg.quad_l);
    if scaled <= 0.0 {
        f64::INFINITY
    } else {
        dv / scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_builds_four_devices() {
        let mut c = Circuit::new();
        let nodes: Vec<Node> = ["ip", "in", "lp", "ln", "op", "on"]
            .iter()
            .map(|n| c.node(n))
            .collect();
        let q = build_quad(
            &mut c,
            "quad",
            nodes[0],
            nodes[1],
            nodes[2],
            nodes[3],
            nodes[4],
            nodes[5],
            &MixerConfig::default(),
        );
        assert_eq!(c.element_count(), 4);
        assert!(c.find_element("quad_m1") == Some(q.m1));
        assert!(c.find_element("quad_m4") == Some(q.m4));
    }

    #[test]
    fn on_resistance_tens_of_ohms() {
        // 12 µm / 65 nm switch with 1.2 V gate, 0.6 V channel: tens of Ω.
        let r = switch_on_resistance(&MixerConfig::default(), 0.6);
        assert!(r > 5.0 && r < 200.0, "ron = {r}");
    }

    #[test]
    fn wider_switch_lower_ron() {
        let base = MixerConfig::default();
        let wide = MixerConfig {
            quad_w: 2.0 * base.quad_w,
            ..base.clone()
        };
        assert!(switch_on_resistance(&wide, 0.6) < switch_on_resistance(&base, 0.6));
    }
}

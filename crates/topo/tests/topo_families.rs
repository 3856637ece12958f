//! Cross-layer contracts of the topology library:
//!
//! * property tests over each family's documented parameter grid —
//!   every validated point compiles to a defect-free, lint-deny-clean
//!   circuit, `ERC012` (structural MNA singularity) never fires, and
//!   SPICE emission is a fixpoint through the linted importer;
//! * the N-path physics claim — `|Z_in|` peaks where the LO lands on
//!   the probe;
//! * interrupted studies — a unit the pool never ran is a typed
//!   "interrupted" failure at its own position;
//! * the serve lane — emitted family decks are accepted end-to-end by
//!   the batch service over a real socket;
//! * fixture sync — the committed `tests/decks/topo_*.cir` exemplars
//!   (linted by CI's deck gate) stay byte-identical to what the
//!   generators emit (`REMIX_REGEN_FIXTURES=1` rewrites them).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

use proptest::prelude::*;
use remix_circuit::to_spice;
use remix_exec::{Parallelism, PoolChaos, PoolOptions, RunBudget};
use remix_lint::{import_spice, lint, LintConfig, RuleId};
use remix_topo::{
    input_impedance_vs_lo, mc_study, Family, MedRadioParams, MixerFirstParams,
    SingleBalancedParams, TopoMismatch, ZinConfig,
};

/// The full per-family contract one parameter point must satisfy.
fn assert_point_contract(circuit: &remix_circuit::Circuit, deck: &str, label: &str) {
    assert!(circuit.defects().is_empty(), "{label}: defects");
    let config = LintConfig::default();
    let report = lint(circuit, &config);
    assert_eq!(
        report.deny_count(),
        0,
        "{label}: lint denies\n{}",
        report.render_text()
    );
    assert!(
        report.by_rule(RuleId::StructuralSingular).is_empty(),
        "{label}: ERC012 fired"
    );
    // Emission is injective and a fixpoint: the deck re-imports
    // deny-clean to a circuit that emits byte-identically.
    let (imported, import_report) = import_spice(deck, &config).unwrap_or_else(|e| {
        panic!("{label}: emitted deck failed to import: {e}\n{deck}");
    });
    assert_eq!(
        import_report.deny_count(),
        0,
        "{label}: import lint denies\n{}",
        import_report.render_text()
    );
    let d1 = to_spice(&imported, "fixpoint");
    assert_eq!(
        to_spice(circuit, "fixpoint"),
        d1,
        "{label}: emission lost information through the importer"
    );
    let (again, _) = import_spice(&d1, &config).expect("re-import");
    assert_eq!(to_spice(&again, "fixpoint"), d1, "{label}: not a fixpoint");
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(24))]

    #[test]
    fn mixer_first_grid_is_clean_and_roundtrips(
        phase_idx in 0usize..3,
        switch_w in 1e-6..200e-6f64,
        switch_l in 60e-9..1e-6f64,
        r_bb in 50.0..10e3f64,
        c_bb in 10e-12..100e-9f64,
        rs in 10.0..1e3f64,
        f_lo in 1e6..5e9f64,
        vdd in 0.8..1.5f64,
    ) {
        let p = MixerFirstParams {
            n_phases: [2, 4, 8][phase_idx],
            switch_w,
            switch_l,
            r_bb,
            c_bb,
            rs,
            f_lo,
            vdd,
            ..MixerFirstParams::default()
        };
        let rx = p.generate().expect("validated grid point");
        assert_point_contract(&rx.circuit, &p.emit().expect("emit"), "mixer_first");
    }

    #[test]
    fn single_balanced_grid_is_clean_and_roundtrips(
        w_gm in 2e-6..200e-6f64,
        w_sw in 2e-6..200e-6f64,
        r_load in 100.0..20e3f64,
        vbias_rf in 0.4..0.8f64,
        vcm_lo in 0.5..1.1f64,
        lo_amp in 0.1..0.6f64,
        f_rf in 11e6..100e6f64,
    ) {
        let p = SingleBalancedParams {
            w_gm,
            w_sw,
            r_load,
            vbias_rf,
            vcm_lo,
            lo_amp,
            f_lo: 10e6,
            f_rf,
            ..SingleBalancedParams::default()
        };
        let m = p.generate().expect("validated grid point");
        assert_point_contract(&m.circuit, &p.emit().expect("emit"), "single_balanced");
    }

    #[test]
    fn medradio_grid_is_clean_and_roundtrips(
        w_gm in 5e-6..200e-6f64,
        r_load in 20e3..500e3f64,
        vbias in 0.15..0.33f64,
        r_bb in 1e3..100e3f64,
        c_couple in 100e-15..100e-12f64,
        f_rf in 401e6..406e6f64,
        f_lo in 390e6..406e6f64,
    ) {
        let p = MedRadioParams {
            w_gm,
            r_load,
            vbias,
            r_bb,
            c_couple,
            f_rf,
            f_lo,
            ..MedRadioParams::default()
        };
        let fe = p.generate().expect("validated grid point");
        assert_point_contract(&fe.circuit, &p.emit().expect("emit"), "medradio");
    }
}

#[test]
fn npath_bandpass_peaks_at_the_lo() {
    let params = MixerFirstParams::default();
    let cfg = ZinConfig::centered(1e6, 10, 2); // LO 8–12 MHz, probe 10 MHz
    let sweep = input_impedance_vs_lo(&params, &cfg, &PoolOptions::default()).expect("sweep");
    assert_eq!(sweep.n_ok(), 5, "{}", sweep.summary_line());
    let (f_peak, z_peak) = sweep.peak().expect("solved points");
    assert!(
        (f_peak - sweep.f_rf).abs() < 0.5 * cfg.f_grid,
        "peak at {f_peak:.3e}, expected {:.3e}",
        sweep.f_rf
    );
    // Band edges must sit well below the synthesized resonance.
    for (f, m) in sweep.magnitudes() {
        if (f - sweep.f_rf).abs() > 1.5 * cfg.f_grid {
            assert!(
                z_peak > 1.5 * m,
                "no contrast: peak {z_peak:.1} Ω vs {m:.1} Ω at {f:.3e} Hz"
            );
        }
    }
}

/// One worker that stops the study after `completions` units, so the
/// units that never run are exactly the last ones.
fn cancel_after(completions: u64) -> PoolOptions {
    PoolOptions {
        parallelism: Parallelism::Serial,
        chaos: PoolChaos::parse(&format!("cancel:{completions}")).expect("spec"),
    }
}

#[test]
fn interrupted_studies_mark_the_units_that_never_ran() {
    const SAMPLE: &str = "interrupted before the sample ran";
    const POINT: &str = "interrupted before the point ran";
    let family = Family::MedRadio(MedRadioParams::default());
    let mm = TopoMismatch {
        n_runs: 4,
        ..TopoMismatch::default()
    };
    let study = mc_study(&family, &mm, &cancel_after(2)).expect("study");
    let labels: Vec<&str> = study.outcomes.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["mc0", "mc1", "mc2", "mc3"]);
    assert!(study.outcomes[..2].iter().all(|(_, o)| o.is_ok()));
    for (_, outcome) in &study.outcomes[2..] {
        assert_eq!(outcome.as_ref().map_err(String::as_str), Err(SAMPLE));
    }
    assert_eq!(study.n_ok(), 2);

    let params = MixerFirstParams::default();
    let cfg = ZinConfig::centered(1e6, 10, 1); // LO 9–11 MHz
    let sweep = input_impedance_vs_lo(&params, &cfg, &cancel_after(1)).expect("sweep");
    assert_eq!(sweep.points.len(), 3);
    assert!(sweep.points[0].1.is_ok(), "{:?}", sweep.points[0]);
    for (_, outcome) in &sweep.points[1..] {
        assert_eq!(outcome.as_ref().map_err(String::as_str), Err(POINT));
    }

    // An expired study deadline runs nothing at all.
    let token = RunBudget::unlimited()
        .with_deadline(std::time::Duration::ZERO)
        .token();
    let _armed = token.arm();
    let study = mc_study(&family, &mm, &PoolOptions::default()).expect("study");
    assert!(study
        .outcomes
        .iter()
        .all(|(_, o)| o.as_ref().map_err(String::as_str) == Err(SAMPLE)));
    let sweep = input_impedance_vs_lo(&params, &cfg, &PoolOptions::default()).expect("sweep");
    assert!(sweep
        .points
        .iter()
        .all(|(_, o)| o.as_ref().map_err(String::as_str) == Err(POINT)));
}

#[test]
fn emitted_family_decks_are_accepted_by_the_service() {
    use remix_serve::protocol::{JobKind, JobRequest};
    use remix_serve::{Client, ServeConfig, Server, Status};
    use std::time::Duration;

    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(server.addr(), Duration::from_secs(5)).expect("connect");
    for family in Family::defaults() {
        let deck = family.emit().expect("emit");
        let response = client
            .submit(&JobRequest {
                id: format!("topo-{}", family.name()),
                kind: JobKind::Op,
                deck,
                deadline_ms: None,
                newton_budget: None,
                timestep_budget: None,
                events: false,
            })
            .expect("submit");
        assert_eq!(
            response.status,
            Status::Ok,
            "{}: raw {}",
            family.name(),
            response.raw
        );
    }
    server.shutdown();
}

/// The committed exemplar decks CI's deck-path lint gate covers
/// (`tests/decks/topo_*.cir`). `REMIX_REGEN_FIXTURES=1 cargo test -p
/// remix-topo` rewrites them after an intentional generator change.
#[test]
fn committed_fixture_decks_match_the_generators() {
    let fixtures = [
        (
            "topo_npath_rx.cir",
            Family::MixerFirst(MixerFirstParams::default()),
        ),
        (
            "topo_sbm_gen.cir",
            Family::SingleBalanced(SingleBalancedParams::default()),
        ),
        (
            "topo_medradio_fe.cir",
            Family::MedRadio(MedRadioParams::default()),
        ),
    ];
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/decks");
    let regen = std::env::var("REMIX_REGEN_FIXTURES").is_ok_and(|v| v == "1");
    for (name, family) in fixtures {
        let path = format!("{root}/{name}");
        let deck = family.emit().expect("emit");
        if regen {
            std::fs::write(&path, &deck).expect("write fixture");
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (run with REMIX_REGEN_FIXTURES=1)"));
        assert_eq!(
            committed, deck,
            "{name} drifted from its generator; regenerate with REMIX_REGEN_FIXTURES=1"
        );
    }
}

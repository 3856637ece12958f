//! ERC lint report — the clippy of this repository.
//!
//! With no arguments, runs the full `remix-lint` rule set over both mode
//! netlists of the paper's mixer (plus the live mode-switch netlist).
//! Positional arguments are SPICE decks (`.cir`) to lint instead; with
//! `--fix`, machine-applicable fixes are applied to fixpoint and the
//! repaired deck is written back in place.
//!
//! ```text
//! cargo run --release -p remix-bench --bin lint            # text
//! cargo run --release -p remix-bench --bin lint -- --json  # machine-readable
//! cargo run --release -p remix-bench --bin lint -- --fix broken.cir
//! ```
//!
//! Exit status is non-zero if any netlist has deny-level
//! findings left (after fixing, when `--fix` is given), so this doubles
//! as a CI gate. Unfixable findings are listed explicitly.

use remix_core::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
use remix_core::{MixerConfig, MixerMode};
use remix_lint::{fix_circuit, lint, lint_deck, Fix, LintConfig, LintReport, RuleId};
use std::process::ExitCode;

/// One linted subject: a built-in netlist or a deck.
struct Subject {
    name: String,
    report: LintReport,
    applied: Vec<Fix>,
}

impl Subject {
    fn plain(name: impl Into<String>, report: LintReport) -> Self {
        Subject {
            name: name.into(),
            report,
            applied: Vec::new(),
        }
    }
}

fn builtin_subjects() -> Vec<Subject> {
    let mixer = ReconfigurableMixer::new(MixerConfig::default());
    let mut out = Vec::new();
    for mode in [MixerMode::Active, MixerMode::Passive] {
        out.push(Subject::plain(
            format!("{} mode", mode.label()),
            mixer.lint_report(mode),
        ));
    }
    let (switch_ckt, _) = mixer.build_mode_switch(
        MixerMode::Active,
        MixerMode::Passive,
        100e-9,
        1e-9,
        &RfDrive::Bias,
        &LoDrive::held(2.4e9),
    );
    out.push(Subject::plain(
        "mode switch (active→passive)",
        lint(&switch_ckt, &LintConfig::default()),
    ));
    out
}

/// Lints one SPICE deck from disk — deck-structure rules
/// (ERC014–ERC016) included; with `fix`, applies every
/// machine-applicable fix to fixpoint and rewrites the deck in place.
/// Deck-structure findings have no machine fix and are merged into the
/// post-fix report, surfacing as unfixable (the rewrite emits the
/// flattened circuit, so a rewritten deck no longer contains them).
fn deck_subject(path: &str, fix: bool, config: &LintConfig) -> Result<Subject, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read deck: {e}"))?;
    // Operator-supplied decks may split model cards into sibling files:
    // resolve `.include` sandboxed to the deck's own directory (depth-
    // capped, no `..`/absolute escapes) before parsing. Decks arriving
    // over the serve protocol never get this — the string parser
    // refuses `.include` outright there.
    let root = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    let text = remix_circuit::resolve_includes(&text, root)
        .map_err(|e| format!("{path}: include error: {e}"))?;
    let parsed =
        remix_circuit::parse_spice(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    if fix {
        const DECK_RULES: [RuleId; 3] = [
            RuleId::ParamHygiene,
            RuleId::SubcktInstance,
            RuleId::ParamCycle,
        ];
        let deck_diags: Vec<_> = lint_deck(&parsed, config)
            .diagnostics
            .into_iter()
            .filter(|d| DECK_RULES.contains(&d.rule))
            .collect();
        let mut circuit = parsed.circuit;
        let outcome = fix_circuit(&mut circuit, config);
        if !outcome.applied.is_empty() {
            let fixed = remix_circuit::to_spice(&circuit, &format!("{path} (remix-lint --fix)"));
            std::fs::write(path, fixed).map_err(|e| format!("{path}: cannot write deck: {e}"))?;
        }
        let mut report = outcome.report;
        report.diagnostics.extend(deck_diags);
        report
            .diagnostics
            .sort_by(|a, b| (a.rule.code(), a.line).cmp(&(b.rule.code(), b.line)));
        Ok(Subject {
            name: path.to_string(),
            report,
            applied: outcome.applied,
        })
    } else {
        Ok(Subject::plain(path, lint_deck(&parsed, config)))
    }
}

fn main() -> ExitCode {
    // The lint CLI keeps its own exit semantics (deny-driven, not
    // supervisor-driven), so it wraps its body in a recorder directly
    // instead of going through `run_bin`.
    let recorder = remix_bench::BenchRecorder::arm("lint");
    let clean = run();
    recorder.finish(clean);
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Full CLI body; `true` means deny-clean (exit 0).
fn run() -> bool {
    let mut json = false;
    let mut fix = false;
    let mut decks: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--fix" => fix = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other} (expected --json, --fix, or deck paths)");
                return false;
            }
            deck => decks.push(deck.to_string()),
        }
    }

    let config = LintConfig::default();
    let subjects = if decks.is_empty() {
        builtin_subjects()
    } else {
        let mut out = Vec::new();
        for path in &decks {
            match deck_subject(path, fix, &config) {
                Ok(s) => out.push(s),
                Err(e) => {
                    eprintln!("{e}");
                    return false;
                }
            }
        }
        out
    };

    if json {
        // `{:?}` on these names produces a JSON-compatible quoted key:
        // escape_debug only escapes quotes/backslashes/controls and JSON
        // accepts raw Unicode.
        let items: Vec<String> = subjects
            .iter()
            .map(|s| format!("{:?}:{}", s.name, s.report.render_json()))
            .collect();
        println!("{{{}}}", items.join(","));
    } else {
        println!("remix-lint rule catalog:");
        for rule in RuleId::ALL {
            println!(
                "  {:<24} {:<5} {}",
                rule.code(),
                rule.default_severity().to_string(),
                rule.summary()
            );
        }
        println!();
    }

    let mut denies = 0usize;
    let mut unfixable = 0usize;
    for subject in &subjects {
        denies += subject.report.deny_count();
        let stuck = subject
            .report
            .diagnostics
            .iter()
            .filter(|d| d.fix.is_none())
            .count();
        if fix {
            unfixable += stuck;
        }
        if json {
            continue;
        }
        println!("==== {} ====", subject.name);
        if !subject.applied.is_empty() {
            println!("applied {} fix(es):", subject.applied.len());
            for f in &subject.applied {
                println!("  {}", f.describe());
            }
        }
        print!("{}", subject.report.render_text());
        if fix {
            for d in subject
                .report
                .diagnostics
                .iter()
                .filter(|d| d.fix.is_none())
            {
                println!("unfixable: [{}] {}", d.rule.code(), d.message);
            }
        }
        println!();
    }

    if denies == 0 {
        if !json {
            println!("all netlists are deny-clean");
        }
        true
    } else {
        if !json {
            println!(
                "{denies} deny-level finding(s){}",
                if fix {
                    format!(", {unfixable} unfixable")
                } else {
                    String::new()
                }
            );
        }
        false
    }
}

//! Study checkpoints: the version-3 document resumable studies persist.
//!
//! Long studies get interrupted — a laptop lid, a CI timeout, a faulted
//! sample worth inspecting before continuing. The study driver
//! ([`crate::study::run_study`]) writes every completed unit (pass *or*
//! fail) to a small JSON document so a later invocation resumes without
//! recomputing. Per-index seeding makes the skip exact: unit `k`
//! computes the same result whether or not units `0..k` were replayed.
//!
//! ## The document (version 3)
//!
//! A study label, a flat `(name, value)` configuration fingerprint, the
//! unit count, a `completed` bitmap (`'1'` per finished index) and one
//! sparse, any-order record per completed unit — a flat `f64` payload on
//! success, the trace summary on failure:
//!
//! ```json
//! {
//!   "version": 3.0,
//!   "study": "corners",
//!   "config": [
//!     ["base.vdd", 1.2],
//!     ["corner0.temp_c", 27.0]
//!   ],
//!   "total": 4,
//!   "completed": "1010",
//!   "records": [
//!     {"index": 2, "ok": true, "values": [1.0, 2.0]},
//!     {"index": 0, "ok": false, "trace": "dc operating point: ..."}
//!   ]
//! }
//! ```
//!
//! A work-stealing pool completes units out of order, so the completed
//! set is explicit rather than implied by a prefix. The bitmap and the
//! record index set must agree exactly; any divergence (a torn file, a
//! partial external edit) rejects the whole document rather than
//! resuming from a lie. A document whose study label or configuration
//! fingerprint differs from the request is ignored, never merged —
//! resuming someone else's run would silently mix distributions.
//! Failed units persist their trace *summary* line only; the full
//! attempt table lives in the process that observed the failure.
//!
//! Rendering and parsing share `remix-telemetry`'s JSON (the workspace
//! carries no serialization dependency).

use crate::montecarlo::{MismatchConfig, SampleOutcome};
use remix_telemetry::{json_str, parse_json, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

const BITMAP_VERSION: f64 = 3.0;

/// Outcome of one completed study unit, in the flat form the checkpoint
/// persists.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyOutcome {
    /// The unit solved; its result flattened to scalars (the study
    /// defines the encoding — see e.g.
    /// [`ExtractedParams::to_flat`](crate::model::ExtractedParams::to_flat)).
    Ok(Vec<f64>),
    /// The unit failed; the one-line trace summary.
    Failed(String),
}

/// Renders a version-3 study checkpoint for the completed `records`
/// (`(index, outcome)` pairs, any order) of a `total`-unit study.
///
/// Successful records containing non-finite values are dropped (bit
/// cleared) rather than emitted as invalid JSON; those units simply
/// recompute on resume. Records with `index >= total` are dropped too.
pub fn render_study_v3(
    study: &str,
    config: &[(String, f64)],
    total: usize,
    records: &[(usize, StudyOutcome)],
) -> String {
    let kept: Vec<&(usize, StudyOutcome)> = records
        .iter()
        .filter(|(index, outcome)| {
            *index < total
                && match outcome {
                    StudyOutcome::Ok(values) => values.iter().all(|v| v.is_finite()),
                    StudyOutcome::Failed(_) => true,
                }
        })
        .collect();
    let mut bitmap = vec!['0'; total];
    for (index, _) in &kept {
        bitmap[*index] = '1';
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {BITMAP_VERSION:?},");
    let _ = writeln!(out, "  \"study\": {},", json_str(study));
    let _ = writeln!(out, "  \"config\": [");
    for (i, (name, value)) in config.iter().enumerate() {
        let comma = if i + 1 == config.len() { "" } else { "," };
        let _ = writeln!(out, "    [{}, {value:?}]{comma}", json_str(name));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"total\": {total},");
    let _ = writeln!(
        out,
        "  \"completed\": \"{}\",",
        bitmap.iter().collect::<String>()
    );
    let _ = writeln!(out, "  \"records\": [");
    for (i, (index, outcome)) in kept.iter().enumerate() {
        let comma = if i + 1 == kept.len() { "" } else { "," };
        let line = match outcome {
            StudyOutcome::Ok(values) => {
                let joined = values
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("    {{\"index\": {index}, \"ok\": true, \"values\": [{joined}]}}{comma}")
            }
            StudyOutcome::Failed(trace) => format!(
                "    {{\"index\": {index}, \"ok\": false, \"trace\": {}}}{comma}",
                json_str(trace)
            ),
        };
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Writes the version-3 checkpoint to `path` through the crash-safe
/// [`remix_exec::atomic_write`] (tmp + fsync + rename): a kill between
/// any two saves leaves one complete, self-consistent document, never a
/// torn prefix that would lose every completed unit.
///
/// # Errors
///
/// Propagates filesystem errors from the underlying write or rename.
pub fn save_study_v3(
    path: &Path,
    study: &str,
    config: &[(String, f64)],
    total: usize,
    records: &[(usize, StudyOutcome)],
) -> std::io::Result<()> {
    let result = remix_exec::atomic_write(path, &render_study_v3(study, config, total, records));
    checkpoint_event("save_bitmap", path, result.is_ok(), records.len());
    result
}

/// A JSON number, strictly. Telemetry's [`JsonValue::as_f64`] reads
/// `null` as NaN for gauge round-trips; a checkpoint holding `null`
/// where a number belongs is malformed, not a NaN payload.
fn number(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Num(v) => Some(*v),
        JsonValue::Int(v) => Some(*v as f64),
        _ => None,
    }
}

/// A non-negative integral JSON number (an index or a unit count).
fn count(value: &JsonValue) -> Option<usize> {
    usize::try_from(value.as_u64()?).ok()
}

/// Parses version-3 checkpoint text into `(index, outcome)` pairs sorted
/// by index and clipped to `total`, or `None` when the document is
/// malformed, from a different study/configuration, or internally
/// inconsistent.
///
/// The document is validated against its *own* recorded size: a study
/// may legitimately be re-run with a different unit count (per-index
/// seeding makes a short study a strict prefix of a long one), so a size
/// difference clips or extends rather than rejects — but any internal
/// bitmap/record divergence still rejects outright.
fn restore_v3(
    text: &str,
    study: &str,
    config: &[(String, f64)],
    total: usize,
) -> Option<Vec<(usize, StudyOutcome)>> {
    let doc = parse_json(text).ok()?;
    if number(doc.get("version")?)? != BITMAP_VERSION || doc.get("study")?.as_str()? != study {
        return None;
    }
    let stored = doc.get("config")?.as_arr()?;
    if stored.len() != config.len() {
        return None;
    }
    for (item, (name, value)) in stored.iter().zip(config) {
        match item.as_arr()? {
            [n, v] if n.as_str()? == name && number(v)? == *value => {}
            _ => return None,
        }
    }
    let stored_total = count(doc.get("total")?)?;
    let bitmap = doc.get("completed")?.as_str()?.as_bytes();
    if bitmap.len() != stored_total || bitmap.iter().any(|&b| b != b'0' && b != b'1') {
        return None;
    }
    let mut seen = vec![false; stored_total];
    let mut out = Vec::new();
    for r in doc.get("records")?.as_arr()? {
        let index = count(r.get("index")?)?;
        // Every record must be inside the document, claimed by the
        // bitmap, and unique.
        if index >= stored_total || bitmap[index] != b'1' || seen[index] {
            return None;
        }
        seen[index] = true;
        let outcome = if r.get("ok")?.as_bool()? {
            let values = r.get("values")?.as_arr()?;
            StudyOutcome::Ok(values.iter().map(number).collect::<Option<_>>()?)
        } else {
            StudyOutcome::Failed(r.get("trace")?.as_str()?.to_string())
        };
        out.push((index, outcome));
    }
    // …and every bitmap claim must be backed by a record.
    if bitmap.iter().filter(|&&b| b == b'1').count() != out.len() {
        return None;
    }
    // Only now, with the document proven self-consistent, clip to the
    // requested study size.
    out.retain(|&(index, _)| index < total);
    out.sort_by_key(|&(index, _)| index);
    Some(out)
}

/// Reads and validates the checkpoint at `path` as `(index, outcome)`
/// pairs sorted by index and clipped to `total`; `None` when the file is
/// missing, unreadable, malformed, internally inconsistent, or from a
/// different study label or configuration fingerprint.
pub fn load_study_any(
    path: &Path,
    study: &str,
    config: &[(String, f64)],
    total: usize,
) -> Option<Vec<(usize, StudyOutcome)>> {
    let restored = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| restore_v3(&text, study, config, total));
    checkpoint_event(
        "load_any",
        path,
        restored.is_some(),
        restored.as_ref().map_or(0, Vec::len),
    );
    restored
}

/// The configuration fingerprint of a Monte-Carlo mismatch study: a
/// checkpoint written for a different seed or σ is rejected.
pub fn mc_study_config(mm: &MismatchConfig) -> Vec<(String, f64)> {
    vec![
        ("seed".to_string(), mm.seed as f64),
        ("sigma_vt".to_string(), mm.sigma_vt),
        ("sigma_kp_frac".to_string(), mm.sigma_kp_frac),
    ]
}

/// Converts a Monte-Carlo sample outcome into the flat record the
/// checkpoint persists (`Ok(iip2) → values: [iip2]`).
pub fn mc_record(outcome: &SampleOutcome) -> StudyOutcome {
    use crate::study::StudyRecord;
    outcome.encode()
}

/// Counts and (when an observing sink is armed) logs one checkpoint
/// save/load. A failed load is an expected outcome — missing file on
/// first run, stale configuration — not an error, so it is recorded
/// rather than reported.
fn checkpoint_event(op: &'static str, path: &Path, ok: bool, records: usize) {
    if !remix_telemetry::is_armed() {
        return;
    }
    remix_telemetry::counter_add(
        if ok {
            remix_telemetry::names::CORE_CHECKPOINT_OPS_OK
        } else {
            remix_telemetry::names::CORE_CHECKPOINT_OPS_FAILED
        },
        1,
    );
    remix_telemetry::event(
        remix_telemetry::names::CORE_CHECKPOINT,
        vec![
            ("op", remix_telemetry::FieldValue::from(op)),
            (
                "path",
                remix_telemetry::FieldValue::from(path.display().to_string()),
            ),
            ("ok", remix_telemetry::FieldValue::from(u64::from(ok))),
            ("records", remix_telemetry::FieldValue::from(records)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study_config() -> Vec<(String, f64)> {
        vec![("base.vdd".into(), 1.2), ("corner0.temp_c".into(), 27.0)]
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("remix_ckpt_{}_{name}", std::process::id()))
    }

    /// The exact text of a document exercising every rendering rule:
    /// mixed ok/failed records in completion order, hostile trace and
    /// config-name text, a non-finite payload and an out-of-range index
    /// (both dropped, bits cleared), an empty payload and an empty trace.
    /// Checkpoints already on disk must keep loading and re-saving
    /// byte-for-byte, so the rendered text is pinned.
    #[test]
    fn render_matches_the_golden_document() {
        let records = vec![
            (
                4,
                StudyOutcome::Ok(vec![66.25, -1.5e-3, 1e21, 0.1, -0.0, 5e-324]),
            ),
            (
                0,
                StudyOutcome::Failed(
                    "dc operating point: \"quoted\"\n\ttab \\ back \u{1} ctl \u{e9} / end".into(),
                ),
            ),
            (2, StudyOutcome::Ok(vec![1.0, f64::NAN])),
            (3, StudyOutcome::Ok(vec![])),
            (1, StudyOutcome::Failed(String::new())),
            (9, StudyOutcome::Ok(vec![1.0])),
            (5, StudyOutcome::Ok(vec![f64::NEG_INFINITY])),
        ];
        let config = vec![
            ("base.vdd".to_string(), 1.2),
            ("seed".to_string(), 53733.0),
            ("name \"with\" \\ odd\tchars".to_string(), -2.5e-7),
        ];
        let text = render_study_v3("corners", &config, 7, &records);
        assert_eq!(text, include_str!("../tests/golden/checkpoint_v3.json"));
        let restored = restore_v3(&text, "corners", &config, 7).expect("golden loads");
        let kept = |i: usize| records.iter().find(|(j, _)| *j == i).cloned();
        let expected: Vec<_> = [0, 1, 3, 4].into_iter().filter_map(kept).collect();
        assert_eq!(restored, expected);
    }

    #[test]
    fn bitmap_rejects_wrong_shape_and_inconsistency() {
        let records = vec![(1, StudyOutcome::Ok(vec![7.0]))];
        let text = render_study_v3("corners", &study_config(), 4, &records);
        // Wrong label or config: rejected.
        assert!(restore_v3(&text, "sweeps", &study_config(), 4).is_none());
        let mut other = study_config();
        other[0].1 = 1.3;
        assert!(restore_v3(&text, "corners", &other, 4).is_none());
        other = study_config();
        other.pop();
        assert!(restore_v3(&text, "corners", &other, 4).is_none());
        assert!(restore_v3("not json at all", "corners", &study_config(), 4).is_none());
        // A different requested size clips/extends instead of rejecting
        // (studies are prefix-stable), so the record at index 1 survives
        // both a grow and a shrink-to-2, but not a shrink-to-1.
        assert_eq!(
            restore_v3(&text, "corners", &study_config(), 6).unwrap(),
            vec![(1, StudyOutcome::Ok(vec![7.0]))]
        );
        assert!(restore_v3(&text, "corners", &study_config(), 1)
            .unwrap()
            .is_empty());
        // Another format version is not this format.
        let v2 = text.replace("\"version\": 3.0", "\"version\": 2.0");
        assert!(restore_v3(&v2, "corners", &study_config(), 4).is_none());
        // Bitmap claiming an index with no record backing it: rejected.
        let lying = text.replace("\"0100\"", "\"0110\"");
        assert!(restore_v3(&lying, "corners", &study_config(), 4).is_none());
        // Record present but bitmap denies it: rejected.
        let denying = text.replace("\"0100\"", "\"0000\"");
        assert!(restore_v3(&denying, "corners", &study_config(), 4).is_none());
    }

    /// Payloads the format never writes must not load. Telemetry's
    /// parser reads `null` as a NaN number, so each of these would slip
    /// through a loader built on `as_f64` alone.
    #[test]
    fn null_bad_index_and_duplicate_records_are_rejected() {
        let records = vec![
            (0, StudyOutcome::Ok(vec![1.0, 2.0])),
            (2, StudyOutcome::Failed("gave up".into())),
        ];
        let text = render_study_v3("corners", &study_config(), 4, &records);
        assert!(restore_v3(&text, "corners", &study_config(), 4).is_some());
        let edits = [
            // `null` where a number belongs.
            ("\"values\": [1.0, 2.0]", "\"values\": [1.0, null]"),
            ("[\"base.vdd\", 1.2]", "[\"base.vdd\", null]"),
            ("\"version\": 3.0", "\"version\": null"),
            ("\"total\": 4", "\"total\": null"),
            // Indices that are not non-negative integers.
            ("\"index\": 0,", "\"index\": null,"),
            ("\"index\": 0,", "\"index\": -1,"),
            ("\"index\": 0,", "\"index\": 0.5,"),
            ("\"total\": 4", "\"total\": -4"),
            ("\"total\": 4", "\"total\": 4.5"),
            // The same index recorded twice (the bitmap still claims two
            // units, so only uniqueness catches it).
            ("\"index\": 2,", "\"index\": 0,"),
        ];
        for (from, to) in edits {
            assert!(text.contains(from), "{from}");
            let edited = text.replace(from, to);
            assert!(
                restore_v3(&edited, "corners", &study_config(), 4).is_none(),
                "accepted after {from} -> {to}:\n{edited}"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let path = temp_path("atomic.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![(0, StudyOutcome::Ok(vec![66.0]))];
        save_study_v3(&path, "corners", &study_config(), 2, &records).expect("save");
        let restored = load_study_any(&path, "corners", &study_config(), 2).expect("load");
        assert_eq!(restored, records);
        // No .tmp siblings linger after a successful save.
        let dir = path.parent().expect("parent");
        let stem = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .expect("read_dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&stem) && n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_checkpoint_is_rejected_then_resume_recovers() {
        // Simulates the failure mode the atomic rename prevents: a
        // writer killed mid-save leaving a truncated document. The
        // loader must reject the torn file outright (no partial trust),
        // and the next save must restore a loadable checkpoint.
        let path = temp_path("torn.json");
        let records = vec![
            (0, StudyOutcome::Ok(vec![1.0])),
            (2, StudyOutcome::Failed("gave up".into())),
        ];
        save_study_v3(&path, "corners", &study_config(), 4, &records).expect("save");
        let full = std::fs::read_to_string(&path).expect("read");
        for cut in [1, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).expect("tear");
            assert!(
                load_study_any(&path, "corners", &study_config(), 4).is_none(),
                "torn checkpoint (cut at {cut}) must be rejected, not half-trusted"
            );
        }
        save_study_v3(&path, "corners", &study_config(), 4, &records).expect("re-save");
        assert_eq!(
            load_study_any(&path, "corners", &study_config(), 4).expect("reload"),
            records
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_to_unwritable_dir_errors_cleanly() {
        let path = Path::new("/nonexistent-remix-dir/ckpt.json");
        let records = vec![(0, StudyOutcome::Ok(vec![1.0]))];
        assert!(save_study_v3(path, "corners", &study_config(), 1, &records).is_err());
        assert!(load_study_any(path, "corners", &study_config(), 1).is_none());
    }
}

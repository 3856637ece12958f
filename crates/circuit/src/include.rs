//! Opt-in, sandboxed `.include` resolution for filesystem decks.
//!
//! The string parser ([`crate::spice::parse_spice`]) refuses `.include`
//! outright — a deck arriving over a socket must never cause a
//! filesystem read. Decks the *operator* points the tooling at (bench
//! CLI arguments, test fixtures) may legitimately split device model
//! cards into sibling files, so this module provides a separate,
//! explicitly filesystem-aware entry point that flattens includes
//! before parsing under a strict sandbox:
//!
//! * include paths must be **relative** and must not contain `..` (or
//!   any root/prefix component) — hostile paths are refused before any
//!   filesystem access;
//! * the canonicalized target must stay inside the canonicalized deck
//!   root, so symlinks cannot smuggle reads outside it;
//! * nesting is capped at [`INCLUDE_MAX_DEPTH`] and cycles are detected
//!   by canonical path, so `a → b → a` terminates with a typed error;
//! * total expansion is capped at [`INCLUDE_MAX_BYTES`] so a short deck
//!   cannot balloon memory by including large files repeatedly.
//!
//! Every refusal is a [`SpiceParseError::IncludeDenied`] carrying the
//! 1-based directive line (within the file that contains it), the path
//! as written, and the reason — never a panic, never a silent skip, and
//! never a read outside the root. `.lib` remains refused even here.
//!
//! Included text is spliced in place of the directive line, so line
//! numbers in later parse errors refer to the *flattened* deck; the
//! flattening inserts `* begin/end include` comment markers to keep
//! those offsets diagnosable.

use std::path::{Component, Path, PathBuf};

use crate::spice::SpiceParseError;

/// Maximum `.include` nesting depth (the root file is depth 0).
pub const INCLUDE_MAX_DEPTH: usize = 8;

/// Cap on the flattened deck size in bytes (4 MiB). Real model decks
/// are kilobytes; anything larger is hostile or a mistake.
pub const INCLUDE_MAX_BYTES: usize = 4 * 1024 * 1024;

/// Flattens every `.include`/`.inc` directive in `text`, resolving
/// paths relative to `root` (the deck's directory) and confining all
/// reads to it. Returns the flattened deck text, ready for
/// [`parse_spice`](crate::spice::parse_spice).
///
/// Nested includes resolve relative to *their own* file's directory,
/// but the containment check is always against `root`. `.lib` is not
/// handled here and still fails in the parser.
///
/// # Errors
///
/// [`SpiceParseError::IncludeDenied`] for absolute or `..`-traversing
/// paths, symlink escapes from `root`, unreadable or non-UTF-8 files,
/// depth beyond [`INCLUDE_MAX_DEPTH`], include cycles, or expansion
/// beyond [`INCLUDE_MAX_BYTES`].
pub fn resolve_includes(text: &str, root: &Path) -> Result<String, SpiceParseError> {
    // Cheap path: nothing to resolve, nothing to canonicalize.
    if !has_include_directive(text) {
        return Ok(text.to_string());
    }
    let root_canon = root
        .canonicalize()
        .map_err(|e| SpiceParseError::IncludeDenied {
            line: first_include_line(text),
            path: root.display().to_string(),
            reason: format!("deck root is not readable: {e}"),
        })?;
    let mut out = String::new();
    let mut stack: Vec<PathBuf> = Vec::new();
    resolve_into(text, &root_canon, &root_canon, &mut stack, &mut out)?;
    Ok(out)
}

fn has_include_directive(text: &str) -> bool {
    text.lines().any(|l| include_path_token(l).is_some())
}

fn first_include_line(text: &str) -> usize {
    text.lines()
        .position(|l| include_path_token(l).is_some())
        .map_or(1, |i| i + 1)
}

/// `Some(path-as-written)` when the physical line is an
/// `.include`/`.inc` directive. `.lib` deliberately returns `None` so
/// the parser's refusal stays authoritative.
fn include_path_token(line: &str) -> Option<&str> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix('.')?;
    let (keyword, rest) = match rest.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r),
        None => (rest, ""),
    };
    if !keyword.eq_ignore_ascii_case("include") && !keyword.eq_ignore_ascii_case("inc") {
        return None;
    }
    // Strip a trailing `; comment` and surrounding quotes.
    let rest = rest.split(';').next().unwrap_or("").trim();
    let rest = rest
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .or_else(|| rest.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')))
        .unwrap_or(rest);
    Some(rest.trim())
}

fn denied(line: usize, path: &str, reason: impl Into<String>) -> SpiceParseError {
    SpiceParseError::IncludeDenied {
        line,
        path: path.to_string(),
        reason: reason.into(),
    }
}

/// Refuses hostile path *shapes* before any filesystem access.
fn check_path_shape(line: usize, raw: &str) -> Result<(), SpiceParseError> {
    if raw.is_empty() {
        return Err(denied(line, raw, "missing include path"));
    }
    let p = Path::new(raw);
    if p.is_absolute() {
        return Err(denied(line, raw, "absolute paths are not allowed"));
    }
    for comp in p.components() {
        match comp {
            Component::ParentDir => {
                return Err(denied(line, raw, "'..' path traversal is not allowed"));
            }
            Component::RootDir | Component::Prefix(_) => {
                return Err(denied(line, raw, "rooted paths are not allowed"));
            }
            Component::Normal(_) | Component::CurDir => {}
        }
    }
    Ok(())
}

fn resolve_into(
    text: &str,
    dir: &Path,
    root_canon: &Path,
    stack: &mut Vec<PathBuf>,
    out: &mut String,
) -> Result<(), SpiceParseError> {
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let Some(raw) = include_path_token(line) else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        check_path_shape(line_no, raw)?;
        if stack.len() >= INCLUDE_MAX_DEPTH {
            return Err(denied(
                line_no,
                raw,
                format!("include depth exceeds the cap of {INCLUDE_MAX_DEPTH}"),
            ));
        }
        let candidate = dir.join(raw);
        let canon = candidate
            .canonicalize()
            .map_err(|e| denied(line_no, raw, format!("cannot resolve include: {e}")))?;
        if !canon.starts_with(root_canon) {
            return Err(denied(line_no, raw, "include escapes the deck root"));
        }
        if stack.contains(&canon) {
            return Err(denied(line_no, raw, "include cycle detected"));
        }
        let included = std::fs::read_to_string(&canon)
            .map_err(|e| denied(line_no, raw, format!("cannot read include: {e}")))?;
        if out.len() + included.len() > INCLUDE_MAX_BYTES {
            return Err(denied(
                line_no,
                raw,
                format!("include expansion exceeds the cap of {INCLUDE_MAX_BYTES} bytes"),
            ));
        }
        out.push_str(&format!("* begin include '{raw}'\n"));
        let nested_dir = canon.parent().map(Path::to_path_buf).unwrap_or_default();
        stack.push(canon);
        resolve_into(&included, &nested_dir, root_canon, stack, out)?;
        stack.pop();
        out.push_str(&format!("* end include '{raw}'\n"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::parse_spice;
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("remix-include-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }

        fn write(&self, rel: &str, contents: &str) -> PathBuf {
            let p = self.0.join(rel);
            if let Some(parent) = p.parent() {
                fs::create_dir_all(parent).expect("create parent");
            }
            fs::write(&p, contents).expect("write fixture");
            p
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn reason_of(err: SpiceParseError) -> String {
        match err {
            SpiceParseError::IncludeDenied { reason, .. } => reason,
            other => panic!("expected IncludeDenied, got {other:?}"),
        }
    }

    #[test]
    fn nested_includes_flatten_and_parse() {
        let dir = TempDir::new("nested");
        dir.write("models/nmos.inc", ".model nch nmos vth=0.45\n");
        dir.write(
            "top.cir",
            "* top\n.include sub.inc\nv1 in 0 1.2\nr1 in 0 10k\n.end\n",
        );
        dir.write("sub.inc", ".include models/nmos.inc\nr2 in 0 20k\n");
        let top = std::fs::read_to_string(dir.path().join("top.cir")).expect("read");
        let flat = resolve_includes(&top, dir.path()).expect("resolve");
        let deck = parse_spice(&flat).expect("parse");
        // v1 plus the two resistors — one of them pulled in two levels
        // deep through models/nmos.inc's sibling include.
        assert_eq!(deck.circuit.elements().len(), 3);
    }

    #[test]
    fn depth_cap_is_enforced() {
        let dir = TempDir::new("depth");
        let mut top = String::new();
        for i in 0..=INCLUDE_MAX_DEPTH {
            let next = format!("d{}.inc", i + 1);
            let body = format!(".include {next}\n");
            if i == 0 {
                top = body;
            } else {
                dir.write(&format!("d{i}.inc"), &body);
            }
        }
        dir.write(&format!("d{}.inc", INCLUDE_MAX_DEPTH + 1), "r1 a 0 1k\n");
        let err = resolve_includes(&top, dir.path()).unwrap_err();
        assert!(reason_of(err).contains("depth"), "wrong reason");
    }

    #[test]
    fn include_cycle_is_a_typed_error() {
        let dir = TempDir::new("cycle");
        dir.write("a.inc", ".include b.inc\n");
        dir.write("b.inc", ".include a.inc\n");
        let err = resolve_includes(".include a.inc\n", dir.path()).unwrap_err();
        assert!(reason_of(err).contains("cycle"), "wrong reason");
    }

    #[test]
    fn hostile_paths_are_refused_before_any_read() {
        let dir = TempDir::new("hostile");
        for hostile in ["/etc/passwd", "../outside.cir", "a/../../outside.cir", ""] {
            let deck = format!(".include {hostile}\n");
            let err = resolve_includes(&deck, dir.path()).unwrap_err();
            match err {
                SpiceParseError::IncludeDenied { line, .. } => assert_eq!(line, 1),
                other => panic!("expected IncludeDenied, got {other:?}"),
            }
        }
    }

    #[test]
    fn canary_outside_root_is_never_read() {
        // A sibling of the root that a traversal bug would reach.
        let outer = TempDir::new("canary-outer");
        let canary = outer.write("canary.cir", "r1 a 0 1k\n");
        let root = outer.path().join("root");
        fs::create_dir_all(&root).expect("mkdir root");
        for attempt in ["../canary.cir", "x/../../canary.cir"] {
            let deck = format!(".include {attempt}\n");
            let err = resolve_includes(&deck, &root).unwrap_err();
            let reason = reason_of(err);
            assert!(
                reason.contains("traversal"),
                "expected shape refusal, got: {reason}"
            );
        }
        assert!(canary.exists(), "canary must survive untouched");
    }

    #[cfg(unix)]
    #[test]
    fn symlink_escape_is_refused_by_containment() {
        let outer = TempDir::new("symlink");
        outer.write("secret.cir", "r1 a 0 1k\n");
        let root = outer.path().join("root");
        fs::create_dir_all(&root).expect("mkdir root");
        std::os::unix::fs::symlink(outer.path().join("secret.cir"), root.join("link.inc"))
            .expect("symlink");
        let err = resolve_includes(".include link.inc\n", &root).unwrap_err();
        assert!(
            reason_of(err).contains("escapes the deck root"),
            "wrong reason"
        );
    }

    #[test]
    fn missing_include_is_a_lined_typed_error() {
        let dir = TempDir::new("missing");
        let err = resolve_includes("v1 a 0 1\n.include nope.inc\n", dir.path()).unwrap_err();
        match err {
            SpiceParseError::IncludeDenied { line, path, reason } => {
                assert_eq!(line, 2);
                assert_eq!(path, "nope.inc");
                assert!(reason.contains("cannot resolve"), "reason: {reason}");
            }
            other => panic!("expected IncludeDenied, got {other:?}"),
        }
    }

    #[test]
    fn expansion_size_cap_is_enforced() {
        let dir = TempDir::new("size");
        // 1 MiB payload included five times breaches the 4 MiB cap.
        dir.write("big.inc", &format!("* {}\n", "x".repeat(1 << 20)));
        let deck = ".include big.inc\n".repeat(5);
        let err = resolve_includes(&deck, dir.path()).unwrap_err();
        assert!(reason_of(err).contains("expansion exceeds"), "wrong reason");
    }

    #[test]
    fn quoted_paths_and_trailing_comments_are_handled() {
        let dir = TempDir::new("quoted");
        dir.write("m.inc", "r9 a 0 1k\n");
        let flat = resolve_includes(".include \"m.inc\" ; models\n", dir.path()).expect("resolve");
        assert!(flat.contains("r9 a 0 1k"), "flat: {flat}");
    }

    #[test]
    fn deck_without_includes_passes_through_untouched() {
        let text = "v1 a 0 1\nr1 a 0 1k\n.end\n";
        // Root need not even exist when there is nothing to resolve.
        let flat =
            resolve_includes(text, Path::new("/nonexistent-root-for-test")).expect("passthrough");
        assert_eq!(flat, text);
    }

    #[test]
    fn string_parser_still_refuses_includes() {
        let err = parse_spice(".include a.cir\n").unwrap_err();
        assert!(matches!(err, SpiceParseError::UnsupportedInclude { .. }));
    }

    #[test]
    fn lib_stays_refused_even_through_resolution() {
        let dir = TempDir::new("lib");
        dir.write("top.cir", ".lib corners.lib tt\nv1 a 0 1\n.end\n");
        let top = std::fs::read_to_string(dir.path().join("top.cir")).expect("read");
        let err = parse_spice(&resolve_includes(&top, dir.path()).expect("resolve")).unwrap_err();
        assert!(matches!(err, SpiceParseError::UnsupportedInclude { .. }));
    }
}

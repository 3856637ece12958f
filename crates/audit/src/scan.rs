//! Line/token scanner for the audit rules.
//!
//! Not a Rust parser: a character-level state machine that classifies
//! every byte of a source file as code, string-literal content, or
//! comment, then exposes per-line views the rules match against.
//!
//! The load-bearing design point is that rules never see raw text.
//! They see [`ScannedLine::masked`] — the line with comments stripped
//! and string/char-literal *contents* blanked — so the audit engine's
//! own pattern tables (`".unwrap()"` and friends) cannot self-trigger,
//! and a doc comment mentioning `panic!` is not a panic. String
//! contents are collected separately in [`ScannedLine::strings`] for
//! the metric-name rule, and comment text in [`ScannedLine::comment`]
//! for the justification protocol.
//!
//! `#[cfg(test)]` regions are tracked by brace depth so lib-code rules
//! can exempt test modules without a syntax tree.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: usize,
    /// The raw source line (without the trailing newline).
    pub raw: String,
    /// The line with comments removed and every string/char literal's
    /// contents replaced by spaces (delimiters kept). Rules match here.
    pub masked: String,
    /// Contents of every string literal that *starts* on this line.
    pub strings: Vec<String>,
    /// Comment text on this line (both `//` and `/* */` forms), with
    /// comment markers stripped, joined by spaces.
    pub comment: String,
    /// `true` when the line sits inside a `#[cfg(test)]` module or
    /// item, or inside a `#[test]` function.
    pub in_test: bool,
}

impl ScannedLine {
    /// `true` when the masked line holds no code (blank or
    /// comment-only line).
    pub fn is_code_free(&self) -> bool {
        self.masked.trim().is_empty()
    }
}

/// A whole scanned file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Every line, in order.
    pub lines: Vec<ScannedLine>,
}

/// `true` when `comment` holds `marker` followed by a reason: some
/// non-blank text after it on the same line.
fn reasoned(comment: &str, marker: &str) -> bool {
    comment
        .match_indices(marker)
        .any(|(at, _)| !comment[at + marker.len()..].trim().is_empty())
}

impl ScannedFile {
    /// `true` when the line *before* `index` (0-based into `lines`)
    /// chains upward through comment-only lines to one whose comment
    /// carries `marker` with a reason after it, or when line `index`
    /// itself does.
    ///
    /// This is the justification lookup: a marker comment may trail
    /// the flagged line or sit on its own line(s) directly above. A
    /// marker with nothing after it justifies nothing.
    pub fn has_marker(&self, index: usize, marker: &str) -> bool {
        if reasoned(&self.lines[index].comment, marker) {
            return true;
        }
        let mut i = index;
        while i > 0 {
            i -= 1;
            let line = &self.lines[i];
            if line.is_code_free() && !line.comment.is_empty() {
                if reasoned(&line.comment, marker) {
                    return true;
                }
                continue; // keep walking up a comment block
            }
            if line.raw.trim().is_empty() {
                continue; // blank line inside a justification block
            }
            break; // hit code: stop
        }
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Code,
    Str,
    RawStr(usize),
    Char,
    LineComment,
    BlockComment(usize),
}

/// Test-region tracking: `#[cfg(test)]` / `#[test]` arms a pending
/// flag; the next `{` at item level opens a test region that closes
/// when brace depth returns to its opening level.
#[derive(Debug, Default)]
struct TestTracker {
    depth: usize,
    pending: bool,
    /// Brace depth at which each active test region was opened.
    regions: Vec<usize>,
}

impl TestTracker {
    fn in_test(&self) -> bool {
        !self.regions.is_empty()
    }

    fn observe_attr(&mut self, masked: &str) {
        let t = masked.trim();
        if t.starts_with("#[cfg(test)]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test")
            || t.starts_with("#[test]")
            || t.starts_with("#[tokio::test")
        {
            self.pending = true;
        }
    }

    fn open_brace(&mut self) {
        if self.pending {
            self.regions.push(self.depth);
            self.pending = false;
        }
        self.depth += 1;
    }

    fn close_brace(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        if let Some(&open) = self.regions.last() {
            if self.depth == open {
                self.regions.pop();
            }
        }
    }
}

/// Scans one file's source text.
pub fn scan_source(path: &str, source: &str) -> ScannedFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    let mut tracker = TestTracker::default();

    for (idx, raw) in source.lines().enumerate() {
        let chars: Vec<char> = raw.chars().collect();
        let mut masked = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut strings = Vec::new();
        let mut current_string = String::new();
        let mut i = 0usize;

        // A line that starts inside a block comment or multi-line
        // string continues that mode; line comments never continue.
        if mode == Mode::LineComment {
            mode = Mode::Code;
        }
        let started_in_test = tracker.in_test();

        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(raw[byte_at(raw, i)..].trim_start_matches('/').trim());
                        mode = Mode::LineComment;
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        masked.push('"');
                        mode = Mode::Str;
                        current_string.clear();
                        i += 1;
                    }
                    'r' if is_raw_string_start(&chars, i) => {
                        let hashes = count_hashes(&chars, i + 1);
                        masked.push('r');
                        for _ in 0..hashes {
                            masked.push('#');
                        }
                        masked.push('"');
                        mode = Mode::RawStr(hashes);
                        current_string.clear();
                        i += hashes + 2;
                    }
                    'b' if next == Some('"') => {
                        masked.push_str("b\"");
                        mode = Mode::Str;
                        current_string.clear();
                        i += 2;
                    }
                    '\'' if is_char_literal(&chars, i) => {
                        masked.push('\'');
                        mode = Mode::Char;
                        i += 1;
                    }
                    '{' => {
                        tracker.open_brace();
                        masked.push('{');
                        i += 1;
                    }
                    '}' => {
                        tracker.close_brace();
                        masked.push('}');
                        i += 1;
                    }
                    c => {
                        masked.push(c);
                        i += 1;
                    }
                },
                Mode::Str => match c {
                    '\\' => {
                        if let Some(n) = next {
                            current_string.push('\\');
                            current_string.push(n);
                        }
                        masked.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        masked.push('"');
                        strings.push(std::mem::take(&mut current_string));
                        mode = Mode::Code;
                        i += 1;
                    }
                    c => {
                        current_string.push(c);
                        masked.push(' ');
                        i += 1;
                    }
                },
                Mode::RawStr(hashes) => {
                    if c == '"' && has_hashes(&chars, i + 1, hashes) {
                        masked.push('"');
                        for _ in 0..hashes {
                            masked.push('#');
                        }
                        strings.push(std::mem::take(&mut current_string));
                        mode = Mode::Code;
                        i += hashes + 1;
                    } else {
                        current_string.push(c);
                        masked.push(' ');
                        i += 1;
                    }
                }
                Mode::Char => match c {
                    '\\' => {
                        masked.push_str("  ");
                        i += 2;
                    }
                    '\'' => {
                        masked.push('\'');
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => {
                        masked.push(' ');
                        i += 1;
                    }
                },
                Mode::LineComment => unreachable!("line comments consume the rest of the line"), // audit: allow(AUD002): line comments consume the rest of the line, so the mode cannot survive into the next iteration
                Mode::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            mode = Mode::Code;
                        } else {
                            mode = Mode::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        if !comment.ends_with(' ') && !comment.is_empty() || c != ' ' {
                            comment.push(c);
                        }
                        i += 1;
                    }
                }
            }
        }

        // Multi-line strings / chars spill into the next line; close
        // out per-line bookkeeping without ending the literal.
        if mode == Mode::Str || matches!(mode, Mode::RawStr(_)) {
            strings.push(std::mem::take(&mut current_string));
        }

        tracker.observe_attr(&masked);
        let in_test = started_in_test || tracker.in_test() || tracker.pending;
        lines.push(ScannedLine {
            number: idx + 1,
            raw: raw.to_string(),
            masked,
            strings,
            comment: comment.trim().to_string(),
            in_test,
        });
    }

    ScannedFile {
        path: path.to_string(),
        lines,
    }
}

fn byte_at(s: &str, char_index: usize) -> usize {
    s.char_indices()
        .nth(char_index)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // `r"` or `r#...#"`; reject identifiers like `for` ending in r.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> usize {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn has_hashes(chars: &[char], i: usize, n: usize) -> bool {
    (0..n).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_char_literal(chars: &[char], i: usize) -> bool {
    // Distinguish 'a' / '\n' from lifetimes ('a in `&'a str`) and
    // labeled loops. A char literal closes with a quote shortly after.
    match (chars.get(i + 1), chars.get(i + 2)) {
        (Some('\\'), _) => true, // escape: '\n', '\'', '\u{..}'
        (Some(_), Some('\'')) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_from_masked() {
        let f = scan_source("t.rs", "let x = 1; // audit: relaxed-ok: test\n");
        assert_eq!(f.lines[0].masked.trim(), "let x = 1;");
        assert!(f.lines[0].comment.contains("audit: relaxed-ok: test"));
    }

    #[test]
    fn string_contents_are_blanked_and_collected() {
        let f = scan_source("t.rs", "let s = \"a.unwrap()\";\n");
        assert!(!f.lines[0].masked.contains("unwrap"));
        assert_eq!(f.lines[0].strings, vec!["a.unwrap()".to_string()]);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = scan_source(
            "t.rs",
            "let s = r#\"panic!(\"x\")\"#; let t = \"\\\"q\\\"\";\n",
        );
        assert!(!f.lines[0].masked.contains("panic"));
        assert_eq!(f.lines[0].strings[0], "panic!(\"x\")");
        assert_eq!(f.lines[0].strings[1], "\\\"q\\\"");
    }

    #[test]
    fn char_literals_do_not_eat_lifetimes() {
        let f = scan_source("t.rs", "fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert!(f.lines[0].masked.contains("&'a str"));
        assert!(!f.lines[0].masked.contains("'x'") || f.lines[0].masked.contains("' '"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan_source("t.rs", "/* a\n b */ let x = 1;\n");
        assert!(f.lines[0].is_code_free());
        assert_eq!(f.lines[1].masked.trim(), "let x = 1;");
    }

    #[test]
    fn nested_block_comments() {
        let f = scan_source("t.rs", "/* outer /* inner */ still */ let y = 2;\n");
        assert_eq!(f.lines[0].masked.trim(), "let y = 2;");
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {
        value.unwrap();
    }
}
fn more_lib_code() {}
";
        let f = scan_source("t.rs", src);
        assert!(!f.lines[0].in_test, "lib fn");
        assert!(f.lines[1].in_test, "the attr itself");
        assert!(f.lines[3].in_test, "helper inside test mod");
        assert!(f.lines[6].in_test, "unwrap inside #[test] fn");
        assert!(!f.lines[9].in_test, "code after the test mod");
    }

    #[test]
    fn test_fn_without_mod_is_tracked() {
        let src = "\
fn lib_code() {}
#[test]
fn case() {
    value.unwrap();
}
fn after() {}
";
        let f = scan_source("t.rs", src);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn marker_walkup() {
        let src = "\
let a = 1;
// audit: relaxed-ok: single cell.
// second comment line.
x.load(Ordering::Relaxed);
y.load(Ordering::Relaxed);
";
        let f = scan_source("t.rs", src);
        assert!(f.has_marker(3, "audit: relaxed-ok:"), "walk-up finds it");
        assert!(
            !f.has_marker(4, "audit: relaxed-ok:"),
            "code line above stops the walk"
        );
        assert!(!f.has_marker(0, "audit: relaxed-ok:"));
    }

    #[test]
    fn marker_on_same_line() {
        let f = scan_source(
            "t.rs",
            "x.load(Ordering::Relaxed); // audit: relaxed-ok: why\n",
        );
        assert!(f.has_marker(0, "audit: relaxed-ok:"));
    }

    #[test]
    fn a_marker_needs_a_reason() {
        let src = "\
x.load(Ordering::Relaxed); // audit: relaxed-ok:
// audit: relaxed-ok:
y.load(Ordering::Relaxed);
z.load(Ordering::Relaxed); // audit: relaxed-ok: why
";
        let f = scan_source("t.rs", src);
        assert!(
            !f.has_marker(0, "audit: relaxed-ok:"),
            "trailing, no reason"
        );
        assert!(!f.has_marker(2, "audit: relaxed-ok:"), "above, no reason");
        assert!(f.has_marker(3, "audit: relaxed-ok:"));
    }

    #[test]
    fn multi_line_strings_stay_masked() {
        let src = "let s = \"first\nsecond.unwrap()\";\nlet x = 1;\n";
        let f = scan_source("t.rs", src);
        assert!(!f.lines[1].masked.contains("unwrap"));
        assert_eq!(f.lines[2].masked.trim(), "let x = 1;");
    }
}
